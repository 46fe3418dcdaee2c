#!/usr/bin/env python3
"""Library-hygiene lint: no stray ``print()`` calls inside ``src/repro/``.

The library reports through return values, exceptions and — since PR 10 —
the :mod:`repro.obs` event bus; writing to stdout from library code breaks
programmatic consumers and pollutes worker-process output.  The only
module allowed to print is ``runtime/cli.py``, the user-facing command
surface.

The check parses every module with :mod:`ast` (docstrings and comments
mentioning ``print`` don't trip it) and flags each call whose callee is
the bare name ``print``.

Run from the repository root (CI does)::

    python tools/check_no_print.py

Exits non-zero listing each offending ``file:line``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

#: Modules (relative to ``src/repro``) where printing is the job.
ALLOWED = ("runtime/cli.py",)


def find_prints(source: str) -> list[int]:
    """Line numbers of bare ``print(...)`` calls in ``source``."""
    tree = ast.parse(source)
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


def check(package_root: Path = PACKAGE_ROOT) -> list[str]:
    """Run the check; returns a list of ``path:line`` problems."""
    problems: list[str] = []
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root).as_posix()
        if relative in ALLOWED:
            continue
        for lineno in find_prints(path.read_text(encoding="utf-8")):
            problems.append(f"src/repro/{relative}:{lineno}")
    return problems


def main() -> int:
    problems = check()
    if problems:
        print(f"print lint: {len(problems)} stray print call(s) in library code")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("print lint: OK (src/repro/ clean outside runtime/cli.py)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
