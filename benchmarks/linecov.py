#!/usr/bin/env python3
"""List the lines of src/taximeasure that no in-process test executes.

    python3 benchmarks/linecov.py [PYTEST_ARGS...]

Runs the tier-1 command, `pytest -q --continue-on-collection-errors` with
src on the import path (and any further arguments), in this process, with a
line tracer installed through sys.settrace and threading.settrace.  Then
prints each executable line of src/taximeasure/*.py that no traced test ran,
as `path:line: source`, and their count.  A line is executable where its
file's compiled code objects place an instruction on it.

Subprocess runs are not traced: a line that only a test's `python -m
taximeasure` child reaches (the cold-start and exit-code tests start such
children) is listed as not executed.  Standard library only, besides pytest
itself.  Exits with pytest's exit code.
"""

from __future__ import annotations

import glob
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "taximeasure")


def executable_lines(path: str) -> set[int]:
    """The lines on which the compiled code of path has an instruction."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code and the lines run per real path under PACKAGE."""
    import pytest

    hits: dict[str, set[int]] = {}
    inside: dict[str, set[int] | None] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            real = os.path.realpath(name)
            inside[name] = (hits.setdefault(real, set())
                            if real.startswith(PACKAGE + os.sep) else None)
        seen = inside[name]
        if seen is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.chdir(ROOT)
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    code, hits = traced_run(argv)
    missed = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        rel = os.path.relpath(path, ROOT)
        for line in sorted(executable_lines(path) - hits.get(path, set())):
            print(f"{rel}:{line}: {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/taximeasure not run in-process "
          "(subprocess runs are not traced)")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
