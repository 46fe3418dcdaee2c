"""The paper suite's result files: pinned at the default scale, kept apart
at any other (``benchmarks/helpers.emit``)."""

from __future__ import annotations

import pytest

from benchmarks import helpers


@pytest.fixture
def results(tmp_path, monkeypatch):
    monkeypatch.setattr(helpers, "RESULTS_DIR", tmp_path)
    (tmp_path / "table.txt").write_text("lotus 1.0\n", encoding="utf-8")
    return tmp_path


def test_default_scale_result_matching_the_committed_file_passes(results):
    helpers.emit("table", "lotus 1.0")
    assert (results / "table.txt").read_text(encoding="utf-8") == "lotus 1.0\n"


def test_default_scale_result_that_differs_is_written_and_fails_with_a_diff(results):
    with pytest.raises(AssertionError, match=r"(?s)table.*-lotus 1\.0\n\+lotus 2\.0"):
        helpers.emit("table", "lotus 2.0")
    assert (results / "table.txt").read_text(encoding="utf-8") == "lotus 2.0\n"
    with pytest.raises(AssertionError, match="differs from the committed"):
        helpers.emit("new_table", "ztt 1.0")  # nothing committed yet
    assert (results / "new_table.txt").exists()


def test_other_scales_write_to_their_own_directory(results, monkeypatch):
    monkeypatch.setattr(helpers, "EVAL_FRAMES", 3000)
    monkeypatch.setattr(helpers, "TRAINING_FRAMES", 10000)
    helpers.emit("table", "lotus 2.0")
    scaled = results / "frames3000-training10000-profile300" / "table.txt"
    assert scaled.read_text(encoding="utf-8") == "lotus 2.0\n"
    assert (results / "table.txt").read_text(encoding="utf-8") == "lotus 1.0\n"
