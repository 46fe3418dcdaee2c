"""Runs the benchmark's tiny-size self-test in a fresh interpreter.

A separate process keeps the self-test's pool workers, tracing shims and
cache locations out of the test session.
"""

import os
import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent / "selftest.py"


def test_benchmark_selftest():
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("REPRO_OBS", "REPRO_FUSED", "REPRO_POOL")
    }
    completed = subprocess.run(
        [sys.executable, str(SELFTEST)],
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
