#!/usr/bin/env python3
"""Layering lint: which ``repro`` packages may import which.

* The simulators (``repro.env``, ``repro.hardware``, ``repro.detection``,
  ``repro.workload``) must not import ``repro.rl``, anywhere in a module:
  they reach the C kernels through ``repro.kernels``.
* ``repro.kernels`` must not import a domain package at module level: at
  that level it imports only itself and ``repro.obs``.  Its self-tests
  import the owners they check inside their functions.

The check parses every module with :mod:`ast`, so docstrings and comments
naming a package don't trip it; relative imports are resolved against the
module's own package.

Run from the repository root (CI does)::

    python tools/check_layers.py

Exits non-zero listing each offending ``file:line``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"

SIMULATORS = ("env", "hardware", "detection", "workload")
KERNEL_IMPORTS = ("repro.kernels", "repro.obs")


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def imports(tree: ast.Module, module: str, top_level: bool) -> list[tuple[int, str]]:
    """``(line, imported module)`` of every import in ``tree``.

    ``module`` is the dotted name of the parsed module (for relative
    imports); ``top_level`` keeps only the imports of the module body.
    """
    nodes = tree.body if top_level else ast.walk(tree)
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = module.split(".")[: -node.level]
                base = ".".join(parent + ([base] if base else []))
            # ``from repro import rl`` imports repro.rl.
            found.append((node.lineno, base))
            found += [(node.lineno, f"{base}.{alias.name}") for alias in node.names]
    return found


def check(package_root: Path = PACKAGE_ROOT) -> list[str]:
    """Run the check; returns a list of ``path:line: reason`` problems, one
    per offending line."""
    problems: dict[str, str] = {}
    for path in sorted(package_root.rglob("*.py")):
        relative = path.relative_to(package_root)
        parts = relative.with_suffix("").parts
        if parts[0] not in (*SIMULATORS, "kernels"):
            continue
        # A package's __init__ counts as a module inside it, as relative
        # imports resolve.
        module = ".".join(("repro", *parts))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        where = f"src/repro/{relative.as_posix()}"
        if parts[0] == "kernels":
            for line, name in imports(tree, module, top_level=True):
                if _within(name, "repro") and name != "repro" and not any(
                    _within(name, allowed) for allowed in KERNEL_IMPORTS
                ):
                    problems.setdefault(f"{where}:{line}", f"imports {name} at module level")
        else:
            for line, name in imports(tree, module, top_level=False):
                if _within(name, "repro.rl"):
                    problems.setdefault(f"{where}:{line}", f"imports {name}")
    return [f"{where}: {reason}" for where, reason in sorted(problems.items())]


def main() -> int:
    problems = check()
    if problems:
        print(f"layer lint: {len(problems)} forbidden import(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print("layer lint: OK (simulators import no repro.rl; repro.kernels no domain package)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
