#!/usr/bin/env python3
"""Fails when a C++ source line runs past .clang-format's ColumnLimit.

The clang-format CI job checks the whole style; this check covers the one
rule a reflow cannot be trusted to keep, so a local ctest run catches what
that job would. Lines between `// clang-format off` and `// clang-format
on` are exempt, as they are for clang-format. Columns are counted in
characters, as clang-format counts them for UTF-8 text.

Usage: check_line_length.py <source root> <dir>...
"""
import pathlib
import re
import sys


def column_limit(root):
    text = (root / ".clang-format").read_text(encoding="utf-8")
    match = re.search(r"^ColumnLimit:\s*(\d+)", text, re.MULTILINE)
    return int(match.group(1)) if match else 80


def long_lines(path, limit):
    formatted = True
    lines = path.read_text(encoding="utf-8").split("\n")
    for number, line in enumerate(lines, 1):
        if "clang-format off" in line:
            formatted = False
        elif "clang-format on" in line:
            formatted = True
        elif formatted and len(line) > limit:
            yield number, len(line)


def main():
    root = pathlib.Path(sys.argv[1])
    limit = column_limit(root)
    found = 0
    for directory in sys.argv[2:]:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix not in (".cc", ".h"):
                continue
            for number, columns in long_lines(path, limit):
                found += 1
                print(f"{path.relative_to(root)}:{number}: {columns} columns "
                      f"(limit {limit})")
    print(f"{found} line(s) over {limit} columns")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
