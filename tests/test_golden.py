"""Byte identity of whole CLI jobs against the benchmark's golden digests.

Every job of the `oracle`, `integrality` and `curves` benchmark pools runs
in-process through `cli.main`; its exit code and the sha256 of its stdout must
equal the values recorded in perfbench/golden.json.  A speed-up that changes
one output byte fails here.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from conifold import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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


@pytest.mark.parametrize("key", JOBS)
def test_job_matches_golden(key):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli.main(key.split())
    assert status == GOLDEN[key]["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN[key]["stdout_sha256"]
