"""The benchmark under bench/ calls the library through its public
names (experiments.sample_all_paths, the rate functions' positional
signatures, inst.pathsets[p][q] on a validation instance). Running its
smoke check here makes a change that breaks those names fail the suite."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.slow
def test_bench_smoke_passes():
    done = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
