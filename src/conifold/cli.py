"""Command-line front end.

Every table command recomputes at least one independently known anchor value
and fails loudly (exit code 3) if its own output disagrees; exit code 2 marks
bad usage.  Output is deterministic: identical invocations produce identical
bytes.

    conifold onepoint --framing 0 --n-max 3
    conifold disc-e --framing 0 --m-max 16 --k-max 6 --format csv
    conifold sequences --which catalan --count 10
    conifold mirror-check --framing 2 --order 8
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from . import amplitudes, fock, mirror, ovinv
from .laurent import LaurentU, RationalFunctionU, qbracket
from .serialize import FORMAT_VERSION, jsonable, text

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3


class VerificationFailure(Exception):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise VerificationFailure(message)


# -- table builders ------------------------------------------------------------


def _rows_onepoint(job: argparse.Namespace):
    rows = []
    for n in range(1, job.n_max + 1):
        closed = amplitudes.onepoint_closed(job.framing, n)
        summed = amplitudes.onepoint_partition_sum(job.framing, n)
        _check(
            closed.value == summed.value,
            f"closed form and partition sum disagree at (a={job.framing}, n={n})",
        )
        rows.append({"a": job.framing, "n": n, "value": closed.value})
    # anchor: the winding-1 amplitude is (1 + Q)/[1] in every framing
    anchor = fock.qpoly(
        {0: RationalFunctionU(LaurentU.const(1), qbracket(1)),
         1: RationalFunctionU(LaurentU.const(1), qbracket(1))},
        1,
    )
    _check(
        amplitudes.onepoint_closed(job.framing, 1).value == anchor,
        "winding-1 amplitude fails its anchor value (1+Q)/[1]",
    )
    return rows


def _rows_genus0(job: argparse.Namespace):
    rows = [
        {"a": job.framing, "n": n, "value": amplitudes.genus0_onepoint(job.framing, n)}
        for n in range(1, job.n_max + 1)
    ]
    # anchor: the x^2 coefficient is -((2a+1) + 4(a+1) Q + (2a+3) Q^2)/4;
    # a series stores no zero coefficient, and the Q term vanishes at a = -1
    a = job.framing
    expected = {
        (0,): Fraction(-(2 * a + 1), 4),
        (1,): Fraction(-4 * (a + 1), 4),
        (2,): Fraction(-(2 * a + 3), 4),
    }
    expected = {e: c for e, c in expected.items() if c}
    got = amplitudes.genus0_onepoint(a, 2).terms
    _check(got == expected, "genus-zero x^2 coefficient fails its anchor polynomial")
    return rows


def _rows_disc(job: argparse.Namespace, kind: str):
    fn = ovinv.disc_d if kind == "d" else ovinv.disc_e
    rows = []
    for m in range(1, job.m_max + 1):
        row = {"m": m}
        for k in range(1, job.k_max + 1):
            row[f"{kind}_{k}"] = fn(job.framing, k, m).value if k <= m else Fraction(0)
        rows.append(row)
    if kind == "d":
        # anchor: Catalan column |d_{k,k+1}| = C(k)
        for k in range(1, max(2, min(job.k_max, job.m_max - 1)) + 1):
            _check(
                abs(ovinv.disc_d(0, k, k + 1).value) == ovinv.catalan_number(k),
                f"|d_{{{k},{k + 1}}}| is not Catalan",
            )
    else:
        # anchor: boxed half-integer entries of the zero-framing table
        anchors = {(1, 1): Fraction(1), (2, 2): Fraction(1, 2), (2, 4): Fraction(7, 2),
                   (5, 10): Fraction(5045)}
        for (k, m), v in anchors.items():
            if (k, m) == (1, 1) or (m <= job.m_max and k <= job.k_max):
                _check(ovinv.disc_e(0, k, m).value == v, f"e_{{{k},{m}}} fails its anchor")
    return rows


def _rows_ovn(job: argparse.Namespace):
    rows = []
    for m in range(1, job.m_max + 1):
        for k in range(0, m + 1):
            rows.append({"a": job.framing, "m": m, "k": k, "value": ovinv.ov_N(job.framing, m, k).value})
    # anchor: N_{2,1} at zero framing is -(u + u^{-1})
    _check(
        ovinv.ov_N(0, 2, 1).value == LaurentU({1: -1, -1: -1}),
        "N_{2,1} at zero framing fails its anchor",
    )
    return rows


def _rows_sequences(job: argparse.Namespace):
    if job.which == "catalan":
        # anchor: C(1) = |d_{1,2}|, checked even when --count 1 prints only C(0)
        ovinv.seq_catalan(1)
        values = [ovinv.catalan_number(0)] + [ovinv.seq_catalan(k) for k in range(1, job.count)]
        return [{"index": i, "value": v} for i, v in enumerate(values)]
    if job.which == "dmm":
        return ovinv.dmm_report(job.count)
    raise VerificationFailure(f"unknown sequence {job.which!r}")


def _rows_mirror(job: argparse.Namespace):
    a, order = job.framing, job.order
    rows = []
    if a == 0:
        residual = mirror.zero_framing_curve_check(order)
        rows.append({"check": "zero-framing curve residual", "order": order, "ok": residual.is_zero()})
        _check(residual.is_zero(), "zero-framing residual does not vanish")
    else:
        residual = mirror.framed_curve_check(a, order)
        rows.append({"check": f"framed curve residual (a={a})", "order": order, "ok": residual.is_zero()})
        _check(residual.is_zero(), "framed residual does not vanish")
    ok = mirror.framing_transform_check(a)
    rows.append({"check": "framing transformation x -> x y^(%d)" % -a, "order": order, "ok": ok})
    _check(ok, "framing transformation check failed")
    return rows


def _rows_correlator(job: argparse.Namespace):
    rows = []
    for n in range(1, job.n_max + 1):
        for comp in _compositions(n):
            for mults in itertools.product((1, 2, 3), repeat=len(comp)):
                word = fock.beta_correlator_word(n, comp, mults)
                reduced = fock.correlator_reduce(word)
                closed = fock.correlator_closed(n, comp, mults)
                ok = reduced == closed
                rows.append({"n": n, "m": list(comp), "mult": list(mults), "agree": ok})
                _check(ok, f"correlator mismatch at n={n}, m={comp}, multipliers={mults}")
    return rows


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _rows_oracle(job: argparse.Namespace):
    rows = []
    D = job.q_degree
    for n in range(1, job.n_max + 1):
        closed = amplitudes.onepoint_closed(job.framing, n).value
        summed = amplitudes.onepoint_partition_sum(job.framing, n).value
        oracle = fock.oracle_onepoint(job.framing, n, D)
        if D is not None and D < n:
            closed = closed.truncated((D,))
            summed = summed.truncated((D,))
        else:
            closed = closed.truncated((n,))
            summed = summed.truncated((n,))
            oracle = oracle.truncated((n,))
        ok = closed == summed == oracle
        rows.append({"a": job.framing, "n": n, "agree": ok, "value": closed})
        _check(ok, f"oracle disagreement at (a={job.framing}, n={n})")
    return rows


def _rows_closed_string(job: argparse.Namespace):
    series = amplitudes.closed_string_logZ(job.order)
    # anchor: the Q coefficient is 1/[1]^2
    _check(
        series.scalar_coefficient((1,)) == RationalFunctionU(LaurentU.const(1), qbracket(1) ** 2),
        "closed-string Q coefficient fails its anchor 1/[1]^2",
    )
    return [{"q_order": job.order, "log_Z": series}]


_BUILDERS = {
    "onepoint": _rows_onepoint,
    "genus0": _rows_genus0,
    "disc-d": lambda job: _rows_disc(job, "d"),
    "disc-e": lambda job: _rows_disc(job, "e"),
    "ov-n": _rows_ovn,
    "sequences": _rows_sequences,
    "mirror-check": _rows_mirror,
    "correlator": _rows_correlator,
    "oracle-compare": _rows_oracle,
    "closed-string": _rows_closed_string,
}


# -- output ----------------------------------------------------------------------


def _numeric_view(value):
    if isinstance(value, Fraction):
        return float(value)
    return value


def emit_table(rows, fmt: str, meta: dict, numeric: bool = False) -> str:
    if numeric:
        rows = [{k: _numeric_view(v) for k, v in row.items()} for row in rows]
        meta = dict(meta, numeric_lossy=True)
    if fmt == "json":
        doc = {
            "meta": dict(meta, format_version=FORMAT_VERSION),
            "rows": [{k: jsonable(v) for k, v in row.items()} for row in rows],
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    header = list(rows[0].keys()) if rows else []
    if fmt == "csv":
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(text(row[h]) for h in header))
        return "\n".join(lines) + "\n"
    if fmt == "text":
        lines = [f"# {meta.get('command', '')} {json.dumps(meta.get('parameters', {}), sort_keys=True)}"]
        if meta.get("numeric_lossy"):
            lines.append("# numeric: lossy decimal approximations of exact values")
        for row in rows:
            lines.append("  ".join(f"{h}={text(row[h])}" for h in header))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# -- driver -----------------------------------------------------------------------


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Execute a job parsed by build_parser(); returns (exit status, document)."""
    params = {k: v for k, v in vars(args).items() if k not in ("command", "fmt", "numeric") and v is not None}
    try:
        rows = _BUILDERS[args.command](args)
    # main has rejected usage errors, so a ValueError here is a check that broke
    except (VerificationFailure, ArithmeticError, ValueError) as exc:
        report = {
            "meta": {"command": args.command, "parameters": params, "format_version": FORMAT_VERSION},
            "error": {"kind": "verification-failure", "message": str(exc)},
        }
        return EXIT_VERIFICATION, json.dumps(report, sort_keys=True, indent=2) + "\n"
    meta = {"command": args.command, "parameters": params}
    return EXIT_OK, emit_table(rows, args.fmt, meta, args.numeric)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conifold",
        description="Exact one-point open-string amplitudes of the resolved conifold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, framing=True):
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="text")
        p.add_argument("--numeric", action="store_true",
                       help="render rational values as lossy decimals (marked in the output)")
        if framing:
            p.add_argument("--framing", type=int, default=0)

    p = sub.add_parser("onepoint", help="closed-form one-point amplitudes")
    common(p)
    p.add_argument("--n-max", type=int, default=3)

    p = sub.add_parser("genus0", help="genus-zero potential coefficients")
    common(p)
    p.add_argument("--n-max", type=int, default=5)

    for kind in ("disc-d", "disc-e"):
        p = sub.add_parser(kind, help=f"integrality table of {kind[-1]} invariants")
        common(p)
        p.add_argument("--m-max", type=int, default=8)
        p.add_argument("--k-max", type=int, default=6)

    p = sub.add_parser("ov-n", help="all-genus Laurent-polynomial invariants")
    common(p)
    p.add_argument("--m-max", type=int, default=3)

    p = sub.add_parser("sequences", help="named integer sequences with cross-checks")
    common(p, framing=False)
    p.add_argument("--which", choices=("catalan", "dmm"), default="catalan")
    p.add_argument("--count", type=int, default=10)

    p = sub.add_parser("mirror-check", help="mirror-curve residual verification")
    common(p)
    p.add_argument("--order", type=int, default=8)

    p = sub.add_parser("correlator", help="operator correlators vs the closed form")
    common(p, framing=False)
    p.add_argument("--n-max", type=int, default=4)

    p = sub.add_parser("oracle-compare", help="closed form vs partition sum vs Fock oracle")
    common(p)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--q-degree", type=int, default=None)

    p = sub.add_parser("closed-string", help="closed-string free energy")
    common(p, framing=False)
    p.add_argument("--order", type=int, default=5)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "mirror-check" and args.framing == -1:
        print(
            "mirror-check: framing -1 is excluded: the Lagrange construction inverts "
            "x = z(1-Qz)^{a+1}/(1+z)^{a+1}, which degenerates when a+1 = 0 "
            "(the amplitude there is elementary: ((-1)^{n-1} + Q^n)/[n]).",
            file=sys.stderr,
        )
        return EXIT_USAGE
    for bound in ("n_max", "m_max", "k_max", "order", "count"):
        if getattr(args, bound, 1) < 1:
            print(f"{args.command}: --{bound.replace('_', '-')} must be positive", file=sys.stderr)
            return EXIT_USAGE
    if getattr(args, "q_degree", None) is not None and args.q_degree < 0:
        # truncating below Q^0 empties every side of the comparison
        print(f"{args.command}: --q-degree must be nonnegative", file=sys.stderr)
        return EXIT_USAGE
    if args.numeric and args.fmt == "csv":
        print("conifold: --numeric renders lossy decimal approximations", file=sys.stderr)
    status, doc = run(args)
    out = sys.stdout if status == EXIT_OK else sys.stderr
    out.write(doc)
    return status


if __name__ == "__main__":
    sys.exit(main())
