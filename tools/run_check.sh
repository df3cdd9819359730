#!/usr/bin/env bash
# `rdb_cli run` against the regression gate (bench/dune): run each
# given scenario of the gate document with the Chrome trace writer on,
# and fail unless the trace digest it prints equals that scenario's
# digest_hex in the gate document.
#
# Usage: run_check.sh RDB_CLI GATE_JSON ID...
set -eu
cli=$1 gate=$2
shift 2

trace=$(mktemp)
trap 'rm -f "$trace"' EXIT

for id in "$@"; do
  : >"$trace"
  got=$("$cli" run "$id" --trace "$trace" | sed -n 's/^trace digest: //p')
  want=$(awk -v key="\"id\": \"$id\"," \
    'index($0, key) { found = 1 }
     found && /"digest_hex"/ { gsub(/[",]/, "", $2); print $2; exit }' "$gate")

  if [ -z "$want" ]; then
    echo "run-check: no digest for \"$id\" in $gate"
    exit 1
  fi
  if [ ! -s "$trace" ]; then
    echo "run-check: rdb_cli run \"$id\" wrote no Chrome trace"
    exit 1
  fi
  if [ "$got" != "$want" ]; then
    echo "run-check: rdb_cli run \"$id\" printed trace digest '$got'; $gate has $want"
    exit 1
  fi
  echo "run-check: rdb_cli run \"$id\" reproduces the gate's trace digest $want"
done
