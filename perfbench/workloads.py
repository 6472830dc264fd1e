"""The three workloads: fixed command mixes whose framings and formats a seed draws.

A workload is a tuple of slots.  Each slot is one `conifold` job; the seed
picks its `--framing` (or other drawn option) from the slot's choices, its
output format, and the order of the slots in the pass.

The drawn choices are cost-neutral on purpose, so that a pass costs the same
whatever the seed.  Measured on the seed commit:

* `oracle-compare`, `ov-n` and `onepoint` at framing a and at -2-a do the same
  work (outputs of equal length, times within 3%), so a slot draws one member
  of the pair (-3, 1) or (-2, 0).  Framings 2 and 3 have no partner in the pool
  {-3, -2, 0, 1, 2, 3} and get slots of their own.
* `disc-e` at m <= 40 costs about the same at every framing of the pool;
  `disc-d` at m <= 40 passes only at framings -2, 0 and 2 (elsewhere the
  recursion forces half-integers and the job exits 3), and -2 and 0 cost the same.
* `mirror-check` cost depends on the framing with no such pairing, so its
  framings and orders are fixed and the seed draws `closed-string --order`.
* The output format changes the cost and the peak RSS of a job with a large
  document (`ov-n --framing 3` takes 20.4 MB and 1.12 s with JSON, 17.4 MB
  and 1.2 s as text), so jobs whose output exceeds a few kilobytes have a
  fixed format, and the seed draws the format only of the small ones.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

FORMATS = ("json", "text", "csv")
POOL = (-3, -2, 0, 1, 2, 3)


@dataclass(frozen=True)
class Slot:
    command: tuple[str, ...]
    choices: tuple[tuple[str, tuple[int, ...]], ...] = ()
    formats: tuple[str, ...] = FORMATS


def slot(*command: str, formats=FORMATS, **choices) -> Slot:
    """A job; each keyword `name=(values...)` becomes `--name <drawn value>`."""
    flags = tuple(("--" + k.replace("_", "-"), tuple(v)) for k, v in choices.items())
    return Slot(tuple(command), flags, tuple(formats))


WORKLOADS: dict[str, tuple[Slot, ...]] = {
    # Fock oracle, character tables and many small lcm additions in the bracket ring.
    "oracle": (
        slot("oracle-compare", "--n-max", "6", framing=(-3, 1), formats=("json",)),
        slot("oracle-compare", "--n-max", "6", framing=(-2, 0), formats=("text",)),
        slot("oracle-compare", "--n-max", "5", framing=(2,), formats=("csv",)),
        slot("oracle-compare", "--n-max", "5", framing=(3,), formats=("text",)),
        # about 0.8 MB of JSON, so the emit phase is visible
        slot("correlator", "--n-max", "6", formats=("json",)),
    ),
    # Few, huge canonicalisations of bracket-product quotients.
    "integrality": (
        slot("ov-n", "--m-max", "9", framing=(-3, 1), formats=("csv",)),
        slot("ov-n", "--m-max", "9", framing=(-2, 0), formats=("text",)),
        # the largest job: its JSON document sets the workload's peak RSS
        slot("ov-n", "--m-max", "9", framing=(3,), formats=("json",)),
        slot("onepoint", "--n-max", "7", framing=(2,), formats=("text",)),
        slot("disc-d", "--m-max", "40", framing=(-2, 0)),
        slot("disc-e", "--m-max", "40", framing=POOL),
        slot("sequences", "--which", "dmm"),
    ),
    # Truncated-series arithmetic; the bracket ring is almost unused.
    "curves": (
        slot("mirror-check", "--framing", "3", "--order", "16"),
        slot("mirror-check", "--framing", "2", "--order", "15"),
        slot("mirror-check", "--framing", "1", "--order", "14"),
        slot("mirror-check", "--framing", "-3", "--order", "13"),
        slot("mirror-check", "--framing", "-2", "--order", "16"),
        slot("mirror-check", "--framing", "0", "--order", "16"),
        slot("closed-string", order=range(8, 15)),
    ),
}


# Layers each workload must reach: the traced run records calls > 0 for each
# of them at the seed commit (checked by selftest.py).
_CLI = ("cli.run", "cli.emit_table")
LAYERS_REACHED = {
    "oracle": ("laurent.canonical", "laurent.gcd", "laurent.exact_div", "laurent.mul",
               "laurent.bracket_ratio", "series.mul", "partitions.table",
               "fock.oracle_onepoint", "fock.qK_apply", "fock.beta_neg_exp",
               "fock.correlator_reduce", "fock.correlator_closed",
               "amplitudes.onepoint_closed", "amplitudes.onepoint_partition_sum", *_CLI),
    "integrality": ("laurent.canonical", "laurent.gcd", "laurent.exact_div", "laurent.mul",
                    "amplitudes.onepoint_closed", "amplitudes.onepoint_partition_sum",
                    "ovinv.ov_N", "ovinv.disc_d", "ovinv.disc_e", *_CLI),
    "curves": ("series.mul", "series.inverse", "series.exp", "series.log", "series.sqrt",
               "series.reversion", "mirror.framed_curve_check",
               "mirror.zero_framing_curve_check", *_CLI),
}


def _argv(s: Slot, picks, fmt: str) -> tuple[str, ...]:
    argv = list(s.command)
    for (flag, _), value in zip(s.choices, picks):
        argv += [flag, str(value)]
    return tuple(argv + ["--format", fmt])


def draw(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The job list of one pass: the same seed always gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    slots = list(WORKLOADS[workload])
    rng.shuffle(slots)
    # cycle a shuffled format list over the slots, so every pass writes
    # JSON, text and CSV whatever the seed
    cycle = list(FORMATS)
    rng.shuffle(cycle)
    free = 0
    jobs = []
    for s in slots:
        picks = [rng.choice(values) for _, values in s.choices]
        if len(s.formats) == 1:
            fmt = s.formats[0]
        else:
            fmt = cycle[free % len(cycle)]
            free += 1
        jobs.append(_argv(s, picks, fmt))
    return jobs


def pool(workload: str) -> list[tuple[str, ...]]:
    """Every job any seed can draw for this workload."""
    jobs = []
    for s in WORKLOADS[workload]:
        for picks in itertools.product(*(values for _, values in s.choices)):
            for fmt in s.formats:
                jobs.append(_argv(s, picks, fmt))
    return jobs


def key(argv) -> str:
    return " ".join(argv)
