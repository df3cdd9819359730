#!/usr/bin/env bash
# Fail if any `rdb_cli` help page shows an unexpanded cmdliner
# variable such as a literal `$(docv)`: the top-level page and every
# subcommand listed in its COMMANDS section, in plain format.
#
# Usage: help_check.sh RDB_CLI
set -eu
cli=$1

commands=$("$cli" --help=plain |
  awk '/^COMMANDS/ { on = 1; next } /^[A-Z]/ { on = 0 } on && /^       [a-z]/ { print $1 }')
if [ -z "$commands" ]; then
  echo "help-check: no subcommands listed by $cli --help=plain"
  exit 1
fi

status=0
for page in "" $commands; do
  # shellcheck disable=SC2086 # the empty page is the top-level help
  if "$cli" $page --help=plain | grep -n -F '$(' >&2; then
    echo "help-check: rdb_cli $page --help shows an unexpanded \$( variable" >&2
    status=1
  fi
done
[ "$status" = 0 ] && echo "help-check: no unexpanded variables in" $commands
exit "$status"
