#!/usr/bin/env python3
"""Fails on any C++ line longer than .clang-format's 80-column limit.

    python3 scripts/check_line_length.py [ROOT]

Checks the files the CI clang-format job formats (the globs below must
match that job's), so the column limit is enforced where clang-format is
not installed. Columns are counted in characters (code points), as
clang-format counts them, not in UTF-8 bytes. Prints one line per offender
as path:line:columns and exits 1 if there is any.
"""

import glob
import os
import sys

COLUMN_LIMIT = 80
GLOBS = ["src/*/*.h", "src/*/*.cpp", "src/*/*/*.h", "src/*/*/*.cpp",
         "tests/*.cpp", "bench/*.h", "bench/*.cpp", "examples/*.cpp"]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir)
    offenders = 0
    for pattern in GLOBS:
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            with open(path, encoding="utf-8") as f:
                for number, line in enumerate(f, 1):
                    columns = len(line.rstrip("\r\n"))
                    if columns > COLUMN_LIMIT:
                        offenders += 1
                        print(f"{os.path.relpath(path, root)}:{number}:"
                              f"{columns}")
    if offenders:
        print(f"{offenders} line(s) over {COLUMN_LIMIT} columns")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
