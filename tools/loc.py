#!/usr/bin/env python3
"""Non-blank source lines per library directory under lib/, plus the
bin/ and bench/ totals and the lib/ + bin/ total.

Usage (from the root of a source checkout):

    python3 tools/loc.py

Counts every .ml, .mli and .c file.  The table is informational only:
it records the size of each subsystem beside the CI timings, so a
change's net line count can be read off two runs instead of counted by
hand.
"""

import os

EXTENSIONS = (".ml", ".mli", ".c")


def non_blank_lines(root):
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "_build")
        for name in filenames:
            if name.endswith(EXTENSIONS):
                with open(os.path.join(dirpath, name), encoding="utf-8") as f:
                    total += sum(1 for line in f if line.strip())
    return total


def main():
    print("non-blank lines")
    lib_total = 0
    for name in sorted(os.listdir("lib")):
        path = os.path.join("lib", name)
        if os.path.isdir(path):
            n = non_blank_lines(path)
            lib_total += n
            print(f"  lib/{name:<12} {n:6d}")
    bin_total = non_blank_lines("bin")
    print(f"  lib/ total     {lib_total:6d}")
    print(f"  bin/ total     {bin_total:6d}")
    print(f"  bench/ total   {non_blank_lines('bench'):6d}")
    print(f"  lib/ + bin/    {lib_total + bin_total:6d}")


if __name__ == "__main__":
    main()
