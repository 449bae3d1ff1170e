"""List the lines of the cylcavity package that a pytest run never executes.

Usage: python scripts/unexecuted.py [PYTEST ARGS...]
e.g.   python scripts/unexecuted.py -q tests/test_cli.py

Runs pytest in this process under sys.settrace and threading.settrace,
tracing only frames whose code lies in src/cylcavity.  The executable
lines of each module are those its code objects (the module's and every
nested one's) map instructions to, by co_lines.  After pytest's own
output, prints each executable line that never ran as `path:line:
source`, then one count per file, `path: N of M lines not run`.  The
exit status is pytest's.  This script imports no cylcavity module before
pytest does, so module-level lines are traced too; code that runs only
in child processes (`python -m cylcavity`) is reported as not run.
"""

import os
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cylcavity"


def executable(code) -> set:
    """Line numbers that code and the code objects nested in it execute."""
    lines = {line for _, _, line in code.co_lines() if line}      # 0: a module's own set-up
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= executable(const)
    return lines


def main(argv) -> int:
    ran = {str(path): set() for path in sorted(PACKAGE.glob("*.py"))}
    tracers = {}        # co_filename -> the local tracer of its file, or None

    def local_tracer(seen):
        def trace(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return trace
        return trace

    def trace_calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            seen = ran.get(os.path.realpath(name))
            tracers[name] = None if seen is None else local_tracer(seen)
        return tracers[name]

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(list(argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    counts = []
    for path, seen in ran.items():
        source = Path(path).read_text(encoding="utf-8")
        lines = executable(compile(source, path, "exec"))
        text, name = source.splitlines(), os.path.relpath(path, ROOT)
        missed = sorted(lines - seen)
        for line in missed:
            print(f"{name}:{line}: {text[line - 1].strip()}")
        counts.append(f"{name}: {len(missed)} of {len(lines)} lines not run")
    print("\n".join(counts))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
