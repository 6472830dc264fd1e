"""Benchmark of whole `conifold` CLI jobs, run from outside the program.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

Closed loop with one client: one `python -m conifold.cli ARGV` process at a
time, each waited for before the next starts.  A pass runs the workload's job
list (drawn from --seed, see workloads.py) in a fresh, empty working directory
with CONIFOLD_CACHE_DIR removed from the environment; passes repeat until
--seconds have elapsed.  Every job's exit code and stdout sha256 are checked
against golden.json; a job fails when either differs or the exit code is not 0.

--trace 0 reports the end-to-end metrics (medians over passes).  --trace 1
alternates untraced passes with passes whose jobs run under tracer.py, and
reports per-layer calls, self and inclusive times (medians over traced passes).
The last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
SETUP_SAMPLES = 21

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "max_job_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_FIELDS = (("calls", "count"), ("self_s", "s"), ("incl_s", "s"))
RATIOS = {
    "laurent.canonical.reduced_ratio": ("canonical_reduced", "canonicalisations"),
    "laurent.gcd.nontrivial_ratio": ("lcm_gcd_nontrivial", "lcm_gcds"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CONIFOLD_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Launcher:
    """The small process (launcher.py) that forks every job and reports its rusage."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, "-S", str(BENCH / "launcher.py")], env=child_env(),
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv, cwd: Path, stdout: Path, stderr: Path) -> dict:
        request = {"argv": [str(a) for a in argv], "cwd": str(cwd), "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the job launcher exited")
        return json.loads(reply)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Job:
    argv: tuple
    status: int
    sha256: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    ok: bool
    stderr: str


def run_job(launcher: Launcher, argv, cwd: Path, scratch: Path, golden: dict,
            spans_file: Path | None = None) -> Job:
    """Run one CLI job in cwd and check its exit code and stdout digest against golden.

    A job fails when its exit code is not 0 or either value differs from golden."""
    if spans_file is None:
        cmd = [sys.executable, "-m", "conifold.cli", *argv]
    else:
        cmd = [sys.executable, BENCH / "tracer.py", spans_file, *argv]
    out, err = scratch / "stdout", scratch / "stderr"
    # new files, not truncated ones: ext4 flushes a file truncated and rewritten
    # when it is closed, which would add disk waits to the job's wall time
    for f in (out, err):
        f.unlink(missing_ok=True)
    r = launcher.run(cmd, cwd, out, err)
    sha = hashlib.sha256(out.read_bytes()).hexdigest()
    ok = r["status"] == 0 and golden.get(workloads.key(argv)) == {"exit": 0, "stdout_sha256": sha}
    stderr = "" if ok else " ".join(err.read_text(errors="replace").split())[:300]
    return Job(tuple(argv), r["status"], sha, r["wall_s"], r["cpu_s"], r["maxrss_kb"] / 1024, ok, stderr)


@dataclass
class Pass:
    jobs: list
    wall_s: float
    layers: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    absent: set = field(default_factory=set)
    spans: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(not j.ok for j in self.jobs)

    @property
    def cpu_s(self) -> float:
        return sum(j.cpu_s for j in self.jobs)

    @property
    def max_job_s(self) -> float:
        return max(j.wall_s for j in self.jobs)

    @property
    def peak_rss_mb(self) -> float:
        return max(j.rss_mb for j in self.jobs)


def run_pass(launcher: Launcher, argvs, golden: dict, traced: bool = False) -> Pass:
    """One pass over the job list in a fresh, empty working directory."""
    WORK.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(dir=WORK))
    try:
        cwd = base / "cwd"
        cwd.mkdir()
        spans = [base / f"spans{i}.json" if traced else None for i in range(len(argvs))]
        start = time.perf_counter()
        jobs = [run_job(launcher, argv, cwd, base, golden, spans[i]) for i, argv in enumerate(argvs)]
        result = Pass(jobs, time.perf_counter() - start)
        for job in jobs:
            if not job.ok:
                print(f"FAILED (exit {job.status}, stdout sha256 {job.sha256[:12]}): "
                      f"conifold {workloads.key(job.argv)}: {job.stderr}", file=sys.stderr)
        if traced:
            _collect_spans(result, spans)
        return result
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _collect_spans(result: Pass, files) -> None:
    for job, path in zip(result.jobs, files):
        doc = json.loads(path.read_text())
        result.spans.append({"argv": list(job.argv), **doc})
        for name, row in tracer.layer_times(doc).items():
            acc = result.layers.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})
            for k in acc:
                acc[k] += row[k]
        for k, v in doc["counts"].items():
            result.counts[k] = result.counts.get(k, 0) + v
        result.absent.update(doc["absent"])


def measure_setup(launcher: Launcher) -> list[float]:
    """Wall times of fresh interpreters that import conifold.cli, after one warm-up."""
    WORK.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(dir=WORK))
    cmd = [sys.executable, "-c", "import conifold.cli"]
    try:
        samples = []
        for _ in range(SETUP_SAMPLES + 1):
            r = launcher.run(cmd, base, base / "stdout", base / "stderr")
            if r["status"] != 0:
                raise RuntimeError("conifold.cli does not import: " + (base / "stderr").read_text())
            samples.append(r["wall_s"])
        return samples[1:]
    finally:
        shutil.rmtree(base, ignore_errors=True)


# -- reporting ---------------------------------------------------------------------


def tail(values) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    n = len(v)
    text = f"median {statistics.median(v):.4f} (n={n}"
    for p in (99.9, 99, 95, 90, 80, 75):
        if n * (100 - p) / 100 >= 10:
            # nearest rank
            text += f", p{p:g} {v[max(0, -(-n * p // 100) - 1)]:.4f}"
            break
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + ")"


def report_end_to_end(passes, setup) -> dict:
    """Each job's wall, CPU and RSS is its median over passes; the pass metrics
    sum (or take the max of) those medians.  A burst of load from another
    process then has to hit the same job in most passes to move a metric,
    where a median of whole-pass times moves when it hits any job of most passes."""
    per_job = [{f: statistics.median(getattr(p.jobs[i], f) for p in passes)
                for f in ("wall_s", "cpu_s", "rss_mb")} for i in range(len(passes[0].jobs))]
    print(f"{'job':<56} {'wall_s':>8} {'cpu_s':>8} {'rss_mb':>7}  (medians over {len(passes)} passes)")
    for job, row in zip(passes[0].jobs, per_job):
        print(f"{workloads.key(job.argv):<56} {row['wall_s']:>8.4f} {row['cpu_s']:>8.4f} {row['rss_mb']:>7.2f}")
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(r["wall_s"] for r in per_job),
        "cpu_s": sum(r["cpu_s"] for r in per_job),
        "max_job_s": max(r["wall_s"] for r in per_job),
        "peak_rss_mb": max(r["rss_mb"] for r in per_job),
    }
    samples = {
        "setup_s": setup,
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes],
        "max_job_s": [p.max_job_s for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
    }
    print("samples: setup_s per interpreter start, the others per pass")
    for name, value in values.items():
        print(f"{name:<12} {value:>10.4f} {END_TO_END[name]:<3} samples {tail(samples[name])}")
    print(f"{'job_s':<12} {'':>10} s   samples {tail([j.wall_s for p in passes for j in p.jobs])}")
    return {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}


def report_layers(traced, untraced) -> dict:
    metrics = {}
    absent = set().union(*(p.absent for p in traced))
    for name in tracer.LAYERS:
        rows = [p.layers.get(name, {"calls": 0, "self_ns": 0, "incl_ns": 0}) for p in traced]
        values = {
            "calls": statistics.median(r["calls"] for r in rows),
            "self_s": statistics.median(r["self_ns"] for r in rows) / 1e9,
            "incl_s": statistics.median(r["incl_ns"] for r in rows) / 1e9,
        }
        for field_name, unit in LAYER_FIELDS:
            metrics[f"{name}.{field_name}"] = {"value": values[field_name], "unit": unit}
    root_s = statistics.median(p.layers[tracer.ROOT]["self_ns"] for p in traced) / 1e9
    metrics["trace.unattributed_s"] = {"value": root_s, "unit": "s"}
    for name, (num, den) in RATIOS.items():
        n = statistics.median(p.counts.get(num, 0) for p in traced)
        d = statistics.median(p.counts.get(den, 0) for p in traced)
        metrics[name] = {"value": n / d if d else 0.0, "unit": "ratio"}
        print(f"{name:<40} {n:g}/{d:g}" + ("" if d else " (no attempts: n/a)"))
    overhead = statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}

    total = sum(metrics[f"{n}.self_s"]["value"] for n in tracer.LAYERS) + root_s
    print(f"traced passes {len(traced)}, untraced {len(untraced)}, overhead ratio {overhead:.4f}")
    print(f"{'layer':<36} {'calls':>8} {'self_s':>9} {'self %':>7} {'incl_s':>9}")
    for name in sorted(tracer.LAYERS, key=lambda n: -metrics[f"{n}.self_s"]["value"]):
        c, s, i = (metrics[f"{name}.{f}"]["value"] for f, _ in LAYER_FIELDS)
        flag = "  ABSENT" if name in absent else ""
        print(f"{name:<36} {c:>8g} {s:>9.4f} {100 * s / total:>6.1f}% {i:>9.4f}{flag}")
    print(f"{'(unattributed, in cli.main)':<36} {'':>8} {root_s:>9.4f} {100 * root_s / total:>6.1f}%")
    for name in sorted(absent - set(tracer.LAYERS)):
        print(f"absent: {name}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "conifold" / "cli.py").is_file():
        print(f"perfbench: no program to run: {ROOT / 'src' / 'conifold'} is missing", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    argvs = workloads.draw(args.workload, args.seed)
    untraced, traced = [], []
    with Launcher() as launcher:
        setup = measure_setup(launcher)
        deadline = time.perf_counter() + args.seconds
        while True:
            if args.trace and len(untraced) > len(traced):
                if traced:
                    traced[-1].spans.clear()  # only the last traced pass is written out
                traced.append(run_pass(launcher, argvs, golden, traced=True))
            else:
                untraced.append(run_pass(launcher, argvs, golden))
            if time.perf_counter() >= deadline and (traced or not args.trace):
                break

    passes = untraced + traced
    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"workload {args.workload}  seed {args.seed}  jobs/pass {len(argvs)}  passes {len(passes)}"
          f"  attempted {attempted}  failed {failed}  fail_rate {failed / attempted:.4f}")
    for a in argvs:
        print(f"  conifold {workloads.key(a)}")
    if args.trace:
        metrics = report_layers(traced, untraced)
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans_{args.workload}.json").write_text(
            json.dumps({"workload": args.workload, "seed": args.seed, "jobs": traced[-1].spans}))
    else:
        metrics = report_end_to_end(untraced, setup)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
