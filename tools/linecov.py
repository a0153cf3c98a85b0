"""Statement coverage of src/treeaa, from the standard library alone.

    python3 tools/linecov.py --ignore=tests/test_acceptance.py -q

runs pytest in this process with the given arguments under a
``sys.settrace`` line tracer, then prints every line of
``src/treeaa/*.py`` that holds code and never ran, as ``path:line``.  A
line holds code when an instruction of the module's compiled code maps to
it.  It exits 1 if any such line exists, and otherwise with pytest's exit
status.  Subprocesses, such as the acceptance suite's pool workers, are
not traced.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "treeaa").glob("*.py"))


def statements(path: Path) -> set[int]:
    """Every line that some instruction of the module's code maps to."""
    lines, todo = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no line
        todo += [const for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def main(args: list[str]) -> int:
    ran: dict[str, set[int]] = {str(path): set() for path in SOURCES}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None  # no line events for code outside src/treeaa

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    sys.path.insert(0, str(ROOT / "src"))  # before pytest imports treeaa, so it is traced
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = [f"{path.relative_to(ROOT)}:{line}" for path in SOURCES
              for line in sorted(statements(path) - ran[str(path)])]
    print(*missed, sep="\n")
    print(f"{len(missed)} lines of src/treeaa never ran")
    return 1 if missed else int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
