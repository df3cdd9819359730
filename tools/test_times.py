#!/usr/bin/env python3
"""Per-suite wall time of the last alcotest run, from output-file mtimes.

Usage (from the root of a source checkout, after `dune runtest`):

    python3 tools/test_times.py [DIR]

DIR defaults to _build/default/test, where `dune runtest` runs the test
binary; running the binary by hand from the root writes under `.`
instead.  Alcotest writes one DIR/_build/_tests/RUN/SUITE.NNN.output
file per test, creating it when the test starts, and the tests run one
after another.  So a file's mtime falls between its test's start and
the next test's start, and the newest mtime in a suite, minus the
newest mtime of the suite before it, approximates that suite's wall
time.  The figures are rough (a test that prints nothing has its start
time as mtime) and informational only.
"""

import glob
import os
import sys


def newest_run(root):
    runs = {}
    for path in glob.glob(os.path.join(root, "_build", "_tests", "*", "*.output")):
        run = os.path.dirname(path)
        if not os.path.islink(run):
            runs.setdefault(run, []).append(path)
    if not runs:
        return None, []
    run = max(runs, key=lambda r: max(os.path.getmtime(p) for p in runs[r]))
    return run, runs[run]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join("_build", "default", "test")
    run, outputs = newest_run(root)
    if run is None:
        print(f"tier-1 per-suite wall: no alcotest output under {root}")
        return
    files = sorted((os.path.getmtime(p), os.path.basename(p)) for p in outputs)
    suites = {}  # suite -> [tests, seconds], in run order
    prev = files[0][0]
    for mtime, name in files:
        entry = suites.setdefault(name.split(".")[0], [0, 0.0])
        entry[0] += 1
        entry[1] += mtime - prev
        prev = mtime
    print(f"tier-1 per-suite wall (alcotest output mtimes, {run})")
    print(f"  {'suite':<14} {'tests':>5} {'seconds':>8}")
    for suite, (tests, seconds) in sorted(suites.items(), key=lambda kv: -kv[1][1]):
        print(f"  {suite:<14} {tests:>5} {seconds:>8.1f}")
    print(f"  {'total':<14} {len(files):>5} {files[-1][0] - files[0][0]:>8.1f}")


if __name__ == "__main__":
    main()
