"""Each demo runs to completion and prints the same bytes as when its golden was recorded."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import src_env

ROOT = Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout; every demo is deterministic.
GOLDEN_STDOUT_SHA256 = {
    "01_trails_and_witnesses.py": "aa45d966d75c9ca1e43706ee029dbf13c901de048c09f6ca211c92b70def4eb9",
    "02_exact_counting.py": "d75cccb27ec58e651be4bfc3d53d81735ed47ed97c7f3c6b7f44f79d2b8b96b1",
    "03_monte_carlo_estimation.py": "85a3f154f82418fd8ea1ef937d4e27b88a41b2b24d1a6cc425217734c114ea29",
    "04_edge_increasing_sequences.py": "fec6cfcf922c29848ec8e98afa2da122468b7c00b47f1723752e13a97c827293",
    "05_bound_ingredients.py": "ab7f2bab49d43c6daa9c880cbe5c521d5630cc931cd50018df7caa60da8e1ed9",
}


def test_every_demo_has_a_golden():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(GOLDEN_STDOUT_SHA256)


@pytest.mark.parametrize("demo", sorted(GOLDEN_STDOUT_SHA256))
def test_demo_stdout_golden(demo):
    out = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], env=src_env(), capture_output=True, timeout=60, check=True
    ).stdout
    assert hashlib.sha256(out).hexdigest() == GOLDEN_STDOUT_SHA256[demo]
