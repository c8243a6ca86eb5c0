#!/usr/bin/env python3
"""List the statements in src/provsim that no tier-1 test reaches.

Runs the tier-1 suite (``pytest -q tests``) in this process with a
``sys.settrace`` line collector, then prints each statement of
``src/provsim`` that never ran, as ``path:line: source``, and a count.
Standard library only; it takes several times as long as tier-1 itself.
A forked child, such as a sweep worker, hands the lines it ran to this
process when it leaves through ``os._exit``; a child killed by a signal adds
nothing.

Run from anywhere:  python3 scripts/reach.py [extra pytest arguments]
Exit status: 0 when every statement outside ALLOWED is reached, 1 when
some are not, and pytest's own status when the suite fails.
"""

from __future__ import annotations

import ast
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "provsim"

# Statements that are not expected to run under tier-1, by file and source
# text of their first line.
ALLOWED = {
    # The command-line entry point when run as a module; tests call main().
    ("cli.py", 'if __name__ == "__main__":'),
    ("cli.py", "sys.exit(main())"),
}


def _header_end(node: ast.stmt) -> int:
    """The last line of a statement's own code: a compound statement's
    header ends above its first child."""
    for field in ("body", "handlers", "orelse", "finalbody"):
        children = getattr(node, field, None)
        if children:
            return children[0].lineno - 1
    return node.end_lineno


def _runs_nothing(node: ast.stmt, index: int) -> bool:
    """A docstring, or a declaration that compiles to no code of its own:
    ``global``, ``nonlocal``, an annotation without a value, a ``try:``."""
    if index == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return isinstance(node.value.value, str)
    return (isinstance(node, (ast.Global, ast.Nonlocal, ast.Try))
            or isinstance(node, ast.AnnAssign) and node.value is None)


def statements(path: Path) -> dict[int, range]:
    """First line -> lines of its own code, for each statement of ``path``
    that runs code of its own."""
    found: dict[int, range] = {}

    def visit(body: list[ast.stmt]) -> None:
        for index, node in enumerate(body):
            if not _runs_nothing(node, index):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
                found[node.lineno] = range(first, _header_end(node) + 1)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                visit(handler.body)

    visit(ast.parse(path.read_text(), str(path)).body)
    return found


class _Lines(set):
    """The lines run in one file, and the local trace function that adds
    them. One object per file serves every call, and it is no closure over
    itself, so tracing builds no reference cycle per call: ``simkernel.run``
    pauses the cyclic collector, and tests check that a run leaves none."""

    def __call__(self, frame, event, arg):
        if event == "line":
            self.add(frame.f_lineno)
        return self


def collect(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under a line tracer; the exit status and the lines run in
    each file below PACKAGE."""
    prefix = str(PACKAGE) + os.sep
    hits: dict[str, _Lines] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = hits.get(filename)
        if lines is None:
            lines = hits[filename] = _Lines()
        lines.add(frame.f_lineno)
        return lines

    parent, exit_now = os.getpid(), os._exit
    dumps = tempfile.TemporaryDirectory(prefix="provsim-reach-")

    def leave(status):
        """``os._exit`` that first writes a forked child's lines for the parent."""
        if os.getpid() != parent:
            lines = {filename: sorted(ran) for filename, ran in hits.items()}
            Path(dumps.name, str(os.getpid())).write_text(json.dumps(lines))
        exit_now(status)

    import pytest  # before tracing, so that only provsim's own code is followed

    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    os._exit = leave
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests", *pytest_args])
    finally:
        sys.settrace(None)
        os._exit = exit_now
    with dumps:
        for dump in Path(dumps.name).iterdir():
            for filename, ran in json.loads(dump.read_text()).items():
                hits.setdefault(filename, _Lines()).update(ran)
    return int(status), hits


def main(argv: list[str]) -> int:
    status, hits = collect(argv)
    if status != 0:
        print(f"reach: pytest exited {status}; the list below is incomplete", file=sys.stderr)
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        ran = hits.get(str(path), set())
        for line, span in sorted(statements(path).items()):
            text = source[line - 1].strip()
            if ran.isdisjoint(span) and (path.name, text) not in ALLOWED:
                unreached.append(f"{path.relative_to(ROOT)}:{line}: {text}")
    for entry in unreached:
        print(entry)
    print(f"{len(unreached)} statements in src/provsim not reached by tier-1")
    return status or (1 if unreached else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
