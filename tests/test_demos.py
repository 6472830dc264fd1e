"""Every walkthrough in demos/ runs to completion in a fresh interpreter and prints the pinned bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; a change that moves one output byte fails here
STDOUT_SHA256 = {
    "amplitudes_tour.py": "230e0f5d2324f55ca669ac4398e0cc59cb3ae2e6504a330c491b5bd0955410ab",
    "integrality.py": "e600a5346cbef8c938540e4af6767694e7249d91a8263d9d46e9260322beb606",
    "mirror_curves.py": "5ec24a3132d053631a76de75b1854591067eaa1cd5ec5812b1ca4e9c6d613528",
    "operator_oracle.py": "2822d2934870c06478d2b662177f1f4225564240a26d5d8162486e02c588ce43",
}


def test_demos_are_found():
    assert len(DEMOS) >= 4
    assert {p.name for p in DEMOS} == set(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]
