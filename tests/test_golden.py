"""Byte identity of whole CLI jobs against the benchmark's golden digests.

Every job of the `oracle`, `integrality` and `curves` benchmark pools runs
in-process through `cli.main`; its exit code and the sha256 of its stdout must
equal the values recorded in perfbench/golden.json.  A speed-up that changes
one output byte fails here.  A few jobs also run as fresh processes, through
the `__main__` block that the in-process runs never reach.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from conifold import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = str(Path(__file__).resolve().parents[1] / "src")
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_workloads = _load_workloads()
JOBS = [_workloads.key(argv) for name in ("oracle", "integrality", "curves") for argv in _workloads.pool(name)]


def test_pools_are_recorded():
    assert len(JOBS) == len(set(JOBS)) == 79
    assert all(key in GOLDEN for key in JOBS)


def _run_in_process(key):
    """(exit status, sha256 of stdout) of one job run through cli.main."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(key.split())
    return status, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("key", JOBS)
def test_job_matches_golden(key):
    assert _run_in_process(key) == (GOLDEN[key]["exit"], GOLDEN[key]["stdout_sha256"])


# genus-zero jobs past the pools' small sizes, recorded from the product form of the
# coefficients and the Fraction Moebius sums, before both became integer binomials
MID_SIZE = {
    "genus0 --n-max 60 --framing 3": "14db6de9bfc8c51ee370147d38b81eb98b1a9d3f7cd58725c37f2ecaf4d1eceb",
    "genus0 --n-max 60 --framing -3": "15b81f23bca83c0a19849c13bb196892a526e452f18ad9f04924af8df2dd4440",
    "disc-e --m-max 60 --k-max 60 --framing 3": "bd849e8da42aab94da507c43c5d3a655b3e34b248d7881eb3090c21fca66ba8a",
    "disc-d --m-max 60 --k-max 60 --framing 2": "83910e28607ba4238f52bef5e9fb5aa48e99b08ce2aa786381185793e5d7a5b6",
    "sequences --which dmm --count 300": "f44403d05d20b293339a27fdc7e1436f237f00e444123853681df67cadcaa4c6",
}


@pytest.mark.parametrize("key", MID_SIZE)
def test_mid_size_genus0_job_keeps_its_bytes(key):
    assert _run_in_process(key) == (0, MID_SIZE[key])


def test_jobs_as_fresh_processes_match_golden(tmp_path):
    # `python -B -m conifold.cli` with no environment variable but the import path
    for key in ("correlator --n-max 6 --format json", "oracle-compare --n-max 5 --framing 2 --format csv",
                "mirror-check --framing 3 --order 16 --format json"):
        assert key in JOBS
        proc = subprocess.run([sys.executable, "-B", "-m", "conifold.cli", *key.split()],
                              cwd=tmp_path, env={"PYTHONPATH": SRC}, capture_output=True)
        assert proc.returncode == GOLDEN[key]["exit"], (key, proc.stderr)
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[key]["stdout_sha256"], key
    # a check that fails exits 3, with its report on stderr and nothing on stdout
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "conifold.cli", *"disc-d --m-max 4 --k-max 4 --framing 1 --format json".split()],
        cwd=tmp_path, env={"PYTHONPATH": SRC}, capture_output=True,
    )
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert json.loads(proc.stderr)["error"]["kind"] == "verification-failure"
