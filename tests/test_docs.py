"""Repository lints as tier-1 tests.

Imports ``tools/check_docs.py``, ``tools/check_no_print.py`` and
``tools/check_layers.py`` and asserts the committed tree passes each, plus
negative checks proving each lint actually catches violations (so they
cannot rot into no-ops).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO_ROOT / "tools" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_check_docs():
    return _load_tool("check_docs")


def test_committed_docs_pass_the_lint():
    check_docs = load_check_docs()
    assert check_docs.check() == []
    assert check_docs.main() == 0


def test_lint_detects_stale_references(tmp_path, monkeypatch):
    check_docs = load_check_docs()
    stale = tmp_path / "README.md"
    stale.write_text(
        "# doc\n"
        "```python\nfrom repro import DefinitelyNotASymbol\n```\n"
        "see `repro.runtime.nonexistent_thing` and the API below.\n"
        "## Public API\n"
        "`ExperimentRuntime`, `AlsoNotASymbol`.\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", (stale,))
    problems = check_docs.check()
    assert len(problems) == 3
    assert any("DefinitelyNotASymbol" in p for p in problems)
    assert any("repro.runtime.nonexistent_thing" in p for p in problems)
    assert any("AlsoNotASymbol" in p for p in problems)
    assert check_docs.main() == 1


def test_lint_detects_stale_cli_invocations(tmp_path, monkeypatch):
    check_docs = load_check_docs()
    stale = tmp_path / "README.md"
    stale.write_text(
        "# doc\n"
        "```bash\n"
        "python -m repro fleet run cctv-burst --shards 2\n"
        "python -m repro scenario list\n"
        "python -m repro run --method lotus\n"
        "python -m repro scenario launch cctv-burst\n"
        "python -m repro frobnicate --now\n"
        "```\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", (stale,))
    problems = check_docs.check()
    assert len(problems) == 2
    assert any("scenario 'launch'" in p for p in problems)
    assert any("'frobnicate'" in p for p in problems)


def test_lint_reports_missing_files(tmp_path, monkeypatch):
    check_docs = load_check_docs()
    monkeypatch.setattr(check_docs, "REPO_ROOT", tmp_path)
    monkeypatch.setattr(check_docs, "DOC_FILES", (tmp_path / "README.md",))
    problems = check_docs.check()
    assert problems and "missing" in problems[0]


def test_committed_library_has_no_stray_prints():
    check_no_print = _load_tool("check_no_print")
    assert check_no_print.check() == []
    assert check_no_print.main() == 0


def test_print_lint_detects_stray_prints(tmp_path):
    check_no_print = _load_tool("check_no_print")
    package = tmp_path / "repro"
    (package / "runtime").mkdir(parents=True)
    (package / "core.py").write_text(
        '"""print("in a docstring") is fine."""\n'
        "# print(\"in a comment\") is fine\n"
        "def helper(out=print):  # a reference, not a call\n"
        "    print('stray')\n",
        encoding="utf-8",
    )
    (package / "runtime" / "cli.py").write_text(
        "print('the CLI is allowed to print')\n", encoding="utf-8"
    )
    problems = check_no_print.check(package)
    assert problems == ["src/repro/core.py:4"]


def test_committed_packages_keep_their_layers():
    check_layers = _load_tool("check_layers")
    assert check_layers.check() == []
    assert check_layers.main() == 0


def test_layer_lint_detects_forbidden_imports(tmp_path):
    check_layers = _load_tool("check_layers")
    package = tmp_path / "repro"
    for name in ("hardware", "workload", "kernels", "rl"):
        (package / name).mkdir(parents=True)
    (package / "hardware" / "fleet.py").write_text(
        '"""Mentions repro.rl in a docstring, which is fine."""\n'
        "from repro.kernels import fused_fleet\n"
        "def execute():\n"
        "    from repro.rl.fused import fused_adam  # nested, still forbidden\n",
        encoding="utf-8",
    )
    (package / "workload" / "stream.py").write_text(
        "from repro import rl\n", encoding="utf-8"
    )
    (package / "kernels" / "__init__.py").write_text(
        "from . import build\n"
        "from repro.obs import bus\n"
        "from ..hardware import fleet\n"
        "def self_test():\n"
        "    from repro.hardware.fleet import DeviceFleet  # lazy owner import\n",
        encoding="utf-8",
    )
    (package / "rl" / "dqn.py").write_text(
        "from repro.rl import fused\n", encoding="utf-8"
    )
    assert check_layers.check(package) == [
        "src/repro/hardware/fleet.py:4: imports repro.rl.fused",
        "src/repro/kernels/__init__.py:3: imports repro.hardware at module level",
        "src/repro/workload/stream.py:1: imports repro.rl",
    ]
