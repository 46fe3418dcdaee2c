#!/usr/bin/env python3
"""Documentation lint: fail when docs reference symbols that no longer exist.

Checks ``README.md`` and ``docs/ARCHITECTURE.md`` against the code:

1. Every name imported from ``repro`` inside a fenced code block
   (``from repro import X, Y``) must be in ``repro.__all__``.
2. Every dotted reference ``repro.something[.more]`` anywhere in the text
   must resolve to an importable module or attribute.
3. Every backticked identifier in the README's "Public API" section must be
   in ``repro.__all__``.
4. Every ``python -m repro <command> [<action>]`` invocation must name a
   command (and, for commands that take one, an action) that the CLI's
   ``build_parser()`` accepts.

Run from the repository root (CI does)::

    python tools/check_docs.py

Exits non-zero listing each stale reference, so renaming or removing a
public symbol or CLI command without updating the documentation fails the
build.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = (REPO_ROOT / "README.md", REPO_ROOT / "docs" / "ARCHITECTURE.md")

sys.path.insert(0, str(REPO_ROOT / "src"))

_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
_IMPORT_RE = re.compile(r"from\s+repro\s+import\s+(\([^)]*\)|[^\n]+)")
_DOTTED_RE = re.compile(r"\brepro(?:\.(?:[A-Za-z_][A-Za-z0-9_]*|__[a-z_]+__))+")
_INLINE_CODE_RE = re.compile(r"`([^`\n]+)`")
_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_INVOCATION_RE = re.compile(
    r"python -m repro[ \t]+([a-z][a-z0-9-]*)(?:[ \t]+([a-z][a-z0-9-]*))?"
)


def _resolves(dotted: str) -> bool:
    """Whether ``repro.a.b.c`` resolves to a module or attribute chain."""
    parts = dotted.split(".")
    for prefix_len in range(len(parts), 0, -1):
        module_name = ".".join(parts[:prefix_len])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[prefix_len:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def _imported_names(text: str) -> list[str]:
    """Names pulled from ``from repro import ...`` statements in code fences."""
    names: list[str] = []
    for fence in _FENCE_RE.findall(text):
        for clause in _IMPORT_RE.findall(fence):
            clause = clause.strip().strip("()")
            for name in clause.split(","):
                name = name.strip()
                if name and _IDENTIFIER_RE.match(name):
                    names.append(name)
    return names


def _public_api_claims(text: str) -> list[str]:
    """Backticked identifiers in the README's "Public API" section."""
    match = re.search(r"^## Public API$(.*?)(?=^## |\Z)", text, re.MULTILINE | re.DOTALL)
    if not match:
        return []
    claims = []
    for token in _INLINE_CODE_RE.findall(match.group(1)):
        token = token.strip()
        if _IDENTIFIER_RE.match(token) and not token.startswith("__"):
            claims.append(token)
    return claims


def _cli_grammar() -> dict[str, tuple[str, ...] | None]:
    """Each CLI command mapped to its accepted actions (``None``: no action).

    An action is the command's first positional argument when it is
    restricted to fixed choices (a nested subcommand or a ``choices`` list).
    """
    from repro.runtime.cli import build_parser

    grammar: dict[str, tuple[str, ...] | None] = {}
    for name, command in build_parser().repro_commands.items():
        positionals = [a for a in command._actions if not a.option_strings]
        choices = positionals[0].choices if positionals else None
        grammar[name] = tuple(choices) if choices is not None else None
    return grammar


def _bad_invocations(text: str, grammar: dict[str, tuple[str, ...] | None]) -> list[str]:
    """``python -m repro ...`` invocations the CLI would reject."""
    bad: list[str] = []
    for command, action in _INVOCATION_RE.findall(text):
        if command not in grammar:
            bad.append(f"unknown command {command!r}")
        elif action and grammar[command] is not None and action not in grammar[command]:
            bad.append(f"unknown action {command} {action!r}")
    return bad


def check() -> list[str]:
    """Run all checks; returns a list of human-readable problems."""
    import repro

    public = set(repro.__all__)
    grammar = _cli_grammar()
    problems: list[str] = []
    for path in DOC_FILES:
        if not path.exists():
            problems.append(f"{path.relative_to(REPO_ROOT)}: file is missing")
            continue
        text = path.read_text(encoding="utf-8")
        rel = path.relative_to(REPO_ROOT)
        for name in _imported_names(text):
            if name not in public:
                problems.append(
                    f"{rel}: `from repro import {name}` but {name!r} is not in repro.__all__"
                )
        for dotted in sorted(set(_DOTTED_RE.findall(text))):
            if not _resolves(dotted):
                problems.append(f"{rel}: reference `{dotted}` does not resolve")
        for name in _public_api_claims(text):
            if name not in public:
                problems.append(
                    f"{rel}: Public API section lists {name!r}, not in repro.__all__"
                )
        for bad in sorted(set(_bad_invocations(text, grammar))):
            problems.append(f"{rel}: `python -m repro` invocation names an {bad}")
    return problems


def main() -> int:
    problems = check()
    if problems:
        print(f"docs lint: {len(problems)} stale reference(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"docs lint: OK ({', '.join(str(p.relative_to(REPO_ROOT)) for p in DOC_FILES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
