"""Spans around the public functions of each `conifold` layer, installed from outside.

    python3 perfbench/tracer.py SPANS_FILE ARGV...

runs one CLI job like `python -m conifold.cli ARGV...` (same stdout and exit
code) with every layer wrapped, and writes the job's spans to SPANS_FILE.

`Recorder.install()` replaces every reference a caller can reach (module
globals in every `conifold` module, class attributes and their aliases such
as `__rmul__ = __mul__`) with a wrapper that appends one span per call to an
in-memory list.  Nothing is written until `dump()`.

A span is `[parent id, layer index, start ns, end ns]`; its id is its index in
the list.  Span 0 is the job's root span (`cli.main`), whose parent is -1.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# metric prefix -> (module, attribute path of the function wrapped)
LAYERS = {
    "laurent.canonical": ("conifold.laurent", "RationalFunctionU.canonical"),
    "laurent.gcd": ("conifold.laurent", "laurent_gcd"),
    "laurent.exact_div": ("conifold.laurent", "laurent_exact_div"),
    "laurent.mul": ("conifold.laurent", "LaurentU.__mul__"),
    "laurent.bracket_ratio": ("conifold.laurent", "bracket_ratio"),
    "series.mul": ("conifold.series", "TruncatedSeries.__mul__"),
    "series.inverse": ("conifold.series", "TruncatedSeries.inverse"),
    "series.exp": ("conifold.series", "TruncatedSeries.exp"),
    "series.log": ("conifold.series", "TruncatedSeries.log"),
    "series.sqrt": ("conifold.series", "TruncatedSeries.sqrt"),
    "series.reversion": ("conifold.series", "series_reversion"),
    "partitions.table": ("conifold.partitions", "CharacterTable.for_size"),
    "fock.oracle_onepoint": ("conifold.fock", "oracle_onepoint"),
    "fock.qK_apply": ("conifold.fock", "qK_apply"),
    "fock.beta_neg_exp": ("conifold.fock", "beta_neg_exp"),
    "fock.correlator_reduce": ("conifold.fock", "correlator_reduce"),
    "fock.correlator_closed": ("conifold.fock", "correlator_closed"),
    "amplitudes.onepoint_closed": ("conifold.amplitudes", "onepoint_closed"),
    "amplitudes.onepoint_partition_sum": ("conifold.amplitudes", "onepoint_partition_sum"),
    "ovinv.ov_N": ("conifold.ovinv", "ov_N"),
    "ovinv.disc_d": ("conifold.ovinv", "disc_d"),
    "ovinv.disc_e": ("conifold.ovinv", "disc_e"),
    "mirror.framed_curve_check": ("conifold.mirror", "framed_curve_check"),
    "mirror.zero_framing_curve_check": ("conifold.mirror", "zero_framing_curve_check"),
    "cli.run": ("conifold.cli", "run"),
    "cli.emit_table": ("conifold.cli", "emit_table"),
}
ROOT = "cli.main"

# counters behind the two ratios
COUNTERS = ("canonicalisations", "canonical_reduced", "lcm_gcds", "lcm_gcd_nontrivial")


def _poly_span(p) -> int:
    return p.degree() - p.valuation()


def _watch_canonical(args, result, fresh: bool, counts: dict) -> None:
    # a canonicalisation runs the gcd when the denominator is not a monomial;
    # it reduced something when the canonical denominator is shorter
    den = args[0].den
    if fresh and not den.is_monomial():
        counts["canonicalisations"] += 1
        if _poly_span(result[1]) < _poly_span(den):
            counts["canonical_reduced"] += 1


def _watch_gcd(args, result, fresh: bool, counts: dict) -> None:
    counts["lcm_gcds"] += 1
    if _poly_span(result) > 0:
        counts["lcm_gcd_nontrivial"] += 1


# layers whose wrapper also feeds the counters; `fresh` says whether the value
# was computed by this call (False when `canonical()` returned its memo)
WATCHERS = {
    "laurent.canonical": (lambda args: getattr(args[0], "_canon", None) is None, _watch_canonical),
    "laurent.gcd": (None, _watch_gcd),
}


class Recorder:
    def __init__(self, layers: dict | None = None):
        self.layers = dict(LAYERS if layers is None else layers)
        self.names = [ROOT, *self.layers]
        self.spans: list[list[int]] = []
        self.stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.absent: list[str] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, fn, index: int, watcher=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        before, after = watcher or (None, None)

        def wrapper(*args, **kwargs):
            fresh = before and before(args)
            span = [stack[-1], index, clock(), 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if after:
                try:
                    after(args, result, fresh, self.counts)
                except (AttributeError, TypeError, IndexError):
                    # the program changed shape under the counter: say so
                    note = self.names[index] + " counter"
                    if note not in self.absent:
                        self.absent.append(note)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self) -> list[str]:
        """Wrap every layer function and its aliases; returns the layers not found."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "conifold" or n.startswith("conifold."))]
        for index, (name, (modname, path)) in enumerate(self.layers.items(), start=1):
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(name)
                continue
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrapped = self._wrap(fn, index, WATCHERS.get(name))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            if isinstance(owner, type):
                for k, v in list(vars(owner).items()):
                    if v is raw:
                        setattr(owner, k, wrapped)
            else:
                for module in modules:
                    for k, v in list(vars(module).items()):
                        if v is raw:
                            setattr(module, k, wrapped)
        return self.absent

    # -- the job ----------------------------------------------------------------

    def root(self, fn, *args):
        """Call fn(*args) as the job's root span."""
        span = [-1, 0, time.perf_counter_ns(), 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args)
        finally:
            self.stack.pop()
            span[3] = time.perf_counter_ns()

    def dump(self, path: str) -> None:
        doc = {"names": self.names, "spans": self.spans, "counts": self.counts, "absent": self.absent}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- aggregation (in the benchmark process) ----------------------------------------


def layer_times(doc: dict) -> dict:
    """Per-layer calls, self and inclusive nanoseconds of one job's spans.

    Self time is a span's duration minus the durations of its child spans.
    Inclusive time counts only the outermost span of a layer on each call
    path, so recursion is not counted twice.  Raises ValueError if a span is
    not nested in its parent or if self times do not add up to the root span.
    """
    names, spans = doc["names"], doc["spans"]
    if not spans or spans[0][0] != -1:
        raise ValueError("no root span")
    child_ns = [0] * len(spans)
    for parent, _, start, end in spans[1:]:
        child_ns[parent] += end - start
    # bit i of ancestors[k] is set when layer i is on the path above span k
    ancestors = [0] * len(spans)
    out = {name: {"calls": 0, "self_ns": 0, "incl_ns": 0} for name in names}
    total_self = 0
    for k, (parent, index, start, end) in enumerate(spans):
        self_ns = end - start - child_ns[k]
        if self_ns < 0:
            raise ValueError(f"span {k} ({names[index]}) is shorter than its children")
        if parent >= 0:
            p_parent, p_index, p_start, p_end = spans[parent]
            if not (p_start <= start <= end <= p_end):
                raise ValueError(f"span {k} ({names[index]}) lies outside its parent")
            ancestors[k] = ancestors[parent] | (1 << p_index)
        row = out[names[index]]
        row["calls"] += 1
        row["self_ns"] += self_ns
        if not (ancestors[k] >> index) & 1:
            row["incl_ns"] += end - start
        total_self += self_ns
    root_ns = spans[0][3] - spans[0][2]
    if total_self != root_ns:
        raise ValueError("self times do not add up to the root span")
    return out


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    from conifold import cli

    recorder = Recorder()
    recorder.install()
    try:
        return recorder.root(cli.main, argv)
    finally:
        recorder.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
