"""Every executable line of the spinbus package is reached by the test suite.

Runs the whole suite once, in this process, under a standard-library line
tracer: ``sys.settrace``, and ``threading.settrace`` for the Monte Carlo
worker threads, both installed before spinbus is imported, so module bodies
count.  The executable lines are the ``co_lines()`` of each compiled module
in the package directory and of its nested code objects; the directory is
the one ``importlib.util.find_spec`` gives, so ``PYTHONPATH=src`` and an
editable install both work.  Exits 1 if the suite fails, and prints
``file:line: source`` and exits 1 for each line that is neither reached nor
on the allowlist, and for each allowlist entry that is reached or that does
not name exactly one executable line.  From the repository root:

    PYTHONPATH=src python tests/reach.py

pytest does not collect this file (its name is not ``test_*.py``): tracing
about doubles the suite's time, so CI runs it as a step of its own.
"""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# A line goes here only if no input reaches it in process: (file, its source text, why)
ALLOWLIST = [
    ("operators.py", 'raise NumericalError("Jacobi eigendecomposition did not converge in 50 sweeps")',
     "numerical guard: the sweeps converge on every Hermitian matrix the package builds"),
    ("operators.py", 'raise NumericalError("evolve_td produced a non-unitary propagator")',
     "numerical guard: the product of exact exponentials of Hermitian matrices stays unitary"),
    ("scheduler.py", "return 1",
     "Register.n_headers: perfbench reads it and no package code does; ROADMAP item 1 deletes it"),
    ("cli.py", "raise OSError(errno.EBADF, os.strerror(errno.EBADF))",
     "a stream closed when Python started: tests/test_cli.py reaches it in a fresh process"),
    ("cli.py", 'with open(os.devnull, "wb") as null:',
     "an unwritable stdout or stderr fd: tests/test_cli.py reaches it in a fresh process"),
    ("cli.py", "os.dup2(null.fileno(), stream.fileno())",
     "an unwritable stdout or stderr fd: tests/test_cli.py reaches it in a fresh process"),
    ("cli.py", 'os.environ.setdefault("OMP_NUM_THREADS", "1")',
     "main() without argv, the process entry: tests/test_imports.py reaches it in a fresh process"),
    ("cli.py", "gc.freeze()", "main() without argv, the process entry: reached only in a fresh process"),
    ("cli.py", "sys.exit(main())", "python -m spinbus.cli: reached only in a fresh process"),
]


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction of the module at ``path`` and of its nested code
    (a module's first instruction has line 0, which is no line of the file)."""
    lines, codes = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(package: Path) -> tuple[int, dict[str, set[int]]]:
    """The suite's exit status, and the lines reached in each file of ``package``, by resolved path."""
    reached: dict[str, set[int]] = {}
    inside: dict[str, set[int] | None] = {}  # co_filename -> its set in ``reached``, None outside the package

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            path = Path(name).resolve()
            inside[name] = reached.setdefault(str(path), set()) if path.parent == package else None
        lines = inside[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local(frame, event, arg)

    assert "spinbus" not in sys.modules, "spinbus was imported before the tracer"
    sys.settrace(trace)
    threading.settrace(trace)
    try:
        status = pytest.main(["-q", str(ROOT / "tests")])
    finally:
        threading.settrace(None)
        sys.settrace(None)
    return status, reached


def main() -> int:
    package = Path(importlib.util.find_spec("spinbus").origin).resolve().parent
    status, reached = run_traced(package)
    if status != 0:
        print(f"reach: the suite failed (pytest exit status {status})", file=sys.stderr)
        return 1
    allowed = {(file, text): [] for file, text, _ in ALLOWLIST}  # -> the lines it names
    problems, total = [], 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        hit = reached.get(str(path), set())
        lines = sorted(executable_lines(path))
        total += len(lines)
        for line in lines:
            text = source[line - 1].strip()
            named = allowed.get((path.name, text))
            if named is not None:
                named.append(line)
                if line in hit:
                    problems.append(f"{path}:{line}: {text}  (allowlisted, but reached)")
            elif line not in hit:
                problems.append(f"{path}:{line}: {text}")
    for (file, text), lines in allowed.items():
        if len(lines) != 1:
            problems.append(f"{package / file}:{','.join(map(str, lines)) or '?'}: {text}"
                            f"  (allowlisted, but names {len(lines)} executable lines, not 1)")
    for problem in problems:
        print(problem)
    print(f"reach: {total} executable lines, {len(problems)} problems", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
