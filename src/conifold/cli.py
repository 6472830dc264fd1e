"""Command-line front end.

Every table command recomputes at least one independently known anchor value
and fails loudly (exit code 3) if its own output disagrees; exit code 2 marks
bad usage, such as a parameter outside its range in COMMANDS.  Output is
deterministic: identical invocations produce identical bytes.

    conifold onepoint --framing 0 --n-max 3
    conifold disc-e --framing 0 --m-max 16 --k-max 6 --format csv
    conifold sequences --which catalan --count 10
    conifold mirror-check --framing 2 --order 8
"""

from __future__ import annotations

import argparse
import csv
import gc
import itertools
import json
import sys
from collections import namedtuple
from fractions import Fraction
from math import gcd, prod

from . import amplitudes, fock, mirror, ovinv, partitions
from .laurent import LaurentU, RationalFunctionU
from .serialize import FORMAT_VERSION, Blocks, json_table, json_text, text
from .series import TruncatedSeries

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFICATION = 3


class VerificationFailure(Exception):
    pass


def _check(condition: bool, message: str, *args) -> None:
    """Raise the job's verification failure unless condition holds; message % args is built only then."""
    if not condition:
        raise VerificationFailure(message % args)


# -- table builders ------------------------------------------------------------
#
# A builder that checks its rows one at a time yields each row as it is made;
# the checks after its loop run when the writer has taken the last row, still
# before any output.  A builder whose checks come before its rows returns a list.


def _rows_onepoint(job: argparse.Namespace):
    # one brane state through --n-max serves every winding
    N = job.n_max
    state = fock.beta_neg_exp(fock.brane_state(N, N), N, N)
    for n in range(1, N + 1):
        closed = amplitudes.onepoint_closed(job.framing, n)
        summed = amplitudes.onepoint_partition_sum(job.framing, n, state)
        _check(closed == summed, "closed form and partition sum disagree at (a=%d, n=%d)", job.framing, n)
        yield {"a": job.framing, "n": n, "value": closed}
    # anchor: the winding-1 amplitude is (1 + Q)/[1] in every framing
    anchor = fock.qpoly(
        {0: RationalFunctionU(1, (1,)), 1: RationalFunctionU(1, (1,))},
        1,
    )
    _check(
        amplitudes.onepoint_closed(job.framing, 1) == anchor,
        "winding-1 amplitude fails its anchor value (1+Q)/[1]",
    )


def _rows_genus0(job: argparse.Namespace):
    for n in range(1, job.n_max + 1):
        yield {"a": job.framing, "n": n, "value": amplitudes.genus0_onepoint(job.framing, n)}
    # anchor: the x^2 coefficient is -((2a+1) + 4(a+1) Q + (2a+3) Q^2)/4
    a = job.framing
    expected = TruncatedSeries(("Q",), (2,), {
        (0,): Fraction(-(2 * a + 1), 4),
        (1,): Fraction(-4 * (a + 1), 4),
        (2,): Fraction(-(2 * a + 3), 4),
    })
    _check(amplitudes.genus0_onepoint(a, 2) == expected, "genus-zero x^2 coefficient fails its anchor polynomial")
    _check_framing(a)


def _disc(signed: bool, a: int, k: int, m: int) -> Fraction:
    """d_{k,m} (signed) or e_{k,m} at framing a, checked: integral d or half-integral e,
    its defining recursion, and e = (-1)^k d at coprime (k, m)."""
    if signed:
        value = ovinv.disc_d(a, k, m)
        _check(value.denominator == 1, "d_{%d,%d}^(%d) = %s is not an integer", k, m, a, value)
    else:
        value = ovinv.disc_e(a, k, m)
        _check((2 * value).denominator == 1, "e_{%d,%d}^(%d) = %s is not a half integer", k, m, a, value)
    _check(ovinv.recursion_holds(a, k, m, signed, value),
           "%s_{%d,%d}^(%d) fails its defining recursion", "d" if signed else "e", k, m, a)
    if not signed and gcd(k, m) == 1:
        _check(value == (-1) ** k * ovinv.disc_d(a, k, m), "e_{%d,%d}^(%d) != (-1)^k d at coprime (k, m)", k, m, a)
    return value


def _check_catalan(k: int) -> int:
    """C(k), checked against |d_{k,k+1}| at zero framing."""
    value = ovinv.catalan_number(k)
    _check(value == abs(_disc(True, 0, k, k + 1)), "|d_{%d,%d}| is not the Catalan number C(%d)", k, k + 1, k)
    return value


def _rows_disc(job: argparse.Namespace, signed: bool):
    column = "d_%d" if signed else "e_%d"
    for m in range(1, job.m_max + 1):
        row = {"m": m}
        for k in range(1, job.k_max + 1):
            row[column % k] = _disc(signed, job.framing, k, m) if k <= m else Fraction(0)
        yield row
    if signed:
        # anchor: Catalan column |d_{k,k+1}| = C(k)
        for k in range(1, max(2, min(job.k_max, job.m_max - 1)) + 1):
            _check_catalan(k)
    else:
        # anchor: boxed half-integer entries of the zero-framing table
        anchors = {(1, 1): Fraction(1), (2, 2): Fraction(1, 2), (2, 4): Fraction(7, 2),
                   (5, 10): Fraction(5045)}
        for (k, m), v in anchors.items():
            if (k, m) == (1, 1) or (m <= job.m_max and k <= job.k_max):
                _check(_disc(False, 0, k, m) == v, "e_{%d,%d} fails its anchor", k, m)
    _check_framing(job.framing)


def _brackets_at_two(args) -> Fraction:
    """prod_j [d_j] at u = 2, [d](2) = (4^d - 1)/2^d: one integer product over a power of two."""
    sign = -1 if sum(d < 0 for d in args) % 2 else 1
    return Fraction(sign * prod(4 ** abs(d) - 1 for d in args), 2 ** sum(abs(d) for d in args))


def _at_power_of_two(p: LaurentU, j: int) -> Fraction:
    """p(2^j), from one integer sum."""
    if not p.poly:
        return Fraction(0)
    v = min(p.poly)
    return p.content * Fraction(2) ** (j * v) * sum(c << j * (e - v) for e, c in p.poly.items())


def _rows_ovn(job: argparse.Namespace):
    a = job.framing
    values = {}
    for m in range(1, job.m_max + 1):
        for k in range(0, m + 1):
            value = ovinv.ov_N(a, m, k)
            _check(value.has_integer_coeffs(), "N_{%d,%d}^(%d) has non-integer coefficients", m, k, a)
            _check(value.bar() == value, "N_{%d,%d}^(%d) is not bar symmetric", m, k, a)
            # anchor: at u = 1 each row is m times the Moebius sum of its genus-zero
            # coefficients, sum_{n | (k, m)} mu(n)/n^2 (-1)^{(ma+k)/n+1} [Q^{k/n}] at winding m/n
            genus0 = sum(
                Fraction(partitions.mobius(n), n * n) * (1 if ((m * a + k) // n) % 2 else -1)
                * amplitudes.genus0_coefficient(a, m // n, k // n)
                for n in partitions.divisors(gcd(k, m))
            )
            _check(
                value.content * sum(value.poly.values()) == m * genus0,
                "N_{%d,%d} at u = 1 is not m times its genus-zero Moebius sum", m, k,
            )
            # a later row reads N_{m,k} only as N_{m'/j,k'/j} with j >= 2 and m' <= m_max
            if 2 * m <= job.m_max:
                values[m, k] = value
            # anchor: the defining relation at u = 2, read from printed rows only,
            # sum_{j | (k, m)} N_{m/j,k/j}(2^j)/[j](2) = (-1)^{ma+k} [Q^k] F_hat_m at u = 2
            num, den = amplitudes.onepoint_args(a, m, k)
            lhs = sum(_at_power_of_two(value if j == 1 else values[m // j, k // j], j) / _brackets_at_two((j,))
                      for j in partitions.divisors(gcd(k, m)))
            rhs = _brackets_at_two(num) / _brackets_at_two(den)
            _check(
                lhs == (-rhs if (m * a + k) % 2 else rhs),
                "N_{%d,%d} at u = 2 fails the divisor-sum relation with its amplitude", m, k,
            )
            yield {"a": a, "m": m, "k": k, "value": value}
    # anchor: N_{2,1} at zero framing is -(u + u^{-1})
    _check(
        ovinv.ov_N(0, 2, 1) == LaurentU({1: -1, -1: -1}),
        "N_{2,1} at zero framing fails its anchor",
    )
    _check_framing(a)


def _check_framing(a: int) -> None:
    """Anchor a table at its own framing through the genus-zero potential.

    Tables and genus0_onepoint read one formula, so the mirror-curve
    comparison of log y with x d/dx Psi_0 at framing a checks the formula
    the table was built from.
    """
    _check_curve(True, mirror.framed_curve_check(a, 4), "mirror curve residual at framing %d does not vanish", a)


def _check_curve(framed: bool, residuals: dict, message: str, *args) -> None:
    """Check a curve check's residuals in order: log y, z0 (framed branch only), the curve."""
    _check(not residuals["log y"], "log of the %s disagrees with x d/dx Psi_0",
           "framed branch" if framed else "square-root closed form")
    if framed:
        _check(not residuals["z0"], "z0 = x y^{-(a+1)} fails")
    _check(not residuals["curve"], message, *args)


def _rows_sequences(job: argparse.Namespace):
    if job.which == "catalan":
        # anchor: C(1) = |d_{1,2}|, checked even when --count 1 prints only C(0)
        _check_catalan(1)
        values = [ovinv.catalan_number(0)] + [_check_catalan(k) for k in range(1, job.count)]
        return [{"index": i, "value": v} for i, v in enumerate(values)]
    rows = ovinv.dmm_report(job.count)
    for row in rows:
        m = row["m"]
        _check(row["formula"] == abs(_disc(True, 0, m, m)), "d_{%d,%d} divisor sum disagrees with Moebius inversion", m, m)
    return rows


def _rows_mirror(job: argparse.Namespace):
    a, order = job.framing, job.order
    rows = []
    if a == 0:
        residuals = mirror.zero_framing_curve_check(order)
        rows.append({"check": "zero-framing curve residual", "order": order, "ok": not residuals["curve"]})
        _check_curve(False, residuals, "zero-framing residual does not vanish")
    else:
        residuals = mirror.framed_curve_check(a, order)
        rows.append({"check": f"framed curve residual (a={a})", "order": order, "ok": not residuals["curve"]})
        _check_curve(True, residuals, "framed residual does not vanish")
    ok = mirror.framing_transform_check(a)
    rows.append({"check": "framing transformation x -> x y^(%d)" % -a, "order": order, "ok": ok})
    _check(ok, "framing transformation check failed")
    return rows


def _rows_correlator(job: argparse.Namespace):
    for n in range(1, job.n_max + 1):
        for comp in _compositions(n):
            for mults in itertools.product((1, 2, 3), repeat=len(comp)):
                word = fock.beta_correlator_word(n, comp, mults)
                # every word of this family reduces along one chain (see correlator_terms)
                # whose merges pick up the closed form's arguments in order; equal
                # arguments give equal values, so one branch equal to them decides the row
                ok = fock.correlator_terms(word) == [fock.correlator_closed_args(n, comp, mults)]
                _check(ok, "correlator mismatch at n=%d, m=%s, multipliers=%s", n, comp, mults)
                yield {"n": n, "m": list(comp), "mult": list(mults), "agree": ok}


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def _rows_oracle(job: argparse.Namespace):
    N, D = job.n_max, job.q_degree
    B = N if D is None else D
    state = fock.beta_neg_exp(fock.brane_state(N, B), N, B)
    for n in range(1, N + 1):
        closed = amplitudes.onepoint_closed(job.framing, n)
        summed = amplitudes.onepoint_partition_sum(job.framing, n, state)
        oracle = fock.oracle_onepoint(job.framing, n, state)
        bound = n if D is None else min(D, n)
        closed, summed, oracle = (v.truncated((bound,)) for v in (closed, summed, oracle))
        ok = closed == summed == oracle
        _check(ok, "oracle disagreement at (a=%d, n=%d)", job.framing, n)
        yield {"a": job.framing, "n": n, "agree": ok, "value": closed}


def _rows_closed_string(job: argparse.Namespace):
    series = amplitudes.closed_string_logZ(job.order)
    # anchor: every Q^n coefficient is (-1)^{n-1}/(n [n]^2)
    for n in range(1, job.order + 1):
        expected = RationalFunctionU(Fraction((-1) ** (n - 1), n), (n, n))
        _check(
            series.scalar_coefficient((n,)) == expected,
            "closed-string Q^%d coefficient fails its anchor (-1)^{n-1}/(n [n]^2)", n,
        )
    return [{"q_order": job.order, "log_Z": series}]


# -- the command table -----------------------------------------------------------

# Each parameter maps its dest to (default, lowest, highest), None for no limit,
# or to its choices, the first being the default.  A highest value keeps the
# job under about 4 s at the costliest framing in -3..3 on a 2-core host with
# Python 3.11.7, so under about 10 s on a host 2.5 times slower.
Command = namedtuple("Command", "rows help params")

FRAMING = {"framing": (0, None, None)}
DISC = {**FRAMING, "m_max": (8, 1, 160), "k_max": (6, 1, 160)}

COMMANDS = {
    "onepoint": Command(_rows_onepoint, "closed-form one-point amplitudes", {**FRAMING, "n_max": (3, 1, 11)}),
    "genus0": Command(_rows_genus0, "genus-zero potential coefficients", {**FRAMING, "n_max": (5, 1, 300)}),
    "disc-d": Command(lambda job: _rows_disc(job, True), "integrality table of d invariants", DISC),
    "disc-e": Command(lambda job: _rows_disc(job, False), "integrality table of e invariants", DISC),
    "ov-n": Command(_rows_ovn, "all-genus Laurent-polynomial invariants", {**FRAMING, "m_max": (3, 1, 26)}),
    "sequences": Command(_rows_sequences, "named integer sequences with cross-checks",
                         {"which": ("catalan", "dmm"), "count": (10, 1, 1000)}),
    "mirror-check": Command(_rows_mirror, "mirror-curve residual verification", {**FRAMING, "order": (8, 1, 74)}),
    "correlator": Command(_rows_correlator, "operator correlators vs the closed form", {"n_max": (4, 1, 7)}),
    # truncating below Q^0 would empty every side of the comparison
    "oracle-compare": Command(_rows_oracle, "closed form vs partition sum vs Fock oracle",
                              {**FRAMING, "n_max": (4, 1, 10), "q_degree": (None, 0, None)}),
    "closed-string": Command(_rows_closed_string, "closed-string free energy", {"order": (5, 1, 4000)}),
}


def _limits(lowest, highest) -> str:
    """A legal range in words: 'positive and at most 11', 'at least 0', or ''."""
    words = [] if lowest is None else ["positive" if lowest == 1 else f"at least {lowest}"]
    return " and ".join(words + ([] if highest is None else [f"at most {highest}"]))


def _usage_error(args: argparse.Namespace) -> str | None:
    """The rule of its COMMANDS entry that a parsed job breaks, or None."""
    name, command = args.command, COMMANDS[args.command]
    for dest, spec in command.params.items():
        value = getattr(args, dest)
        # argparse checks the choices, and an unset --q-degree is None
        if isinstance(value, int):
            _, lowest, highest = spec
            if (lowest is not None and value < lowest) or (highest is not None and value > highest):
                flag = "--" + dest.replace("_", "-")
                return f"{name}: {flag} must be {_limits(lowest, highest)}, got {value}"
    return None


# -- output ----------------------------------------------------------------------


def _numeric_view(value):
    if isinstance(value, Fraction):
        return float(value)
    # a series over Fraction becomes a series of floats; one over the bracket ring stays exact
    if isinstance(value, TruncatedSeries) and all(isinstance(c, Fraction) for c in value.terms.values()):
        return value._with_terms({e: float(c) for e, c in value.terms.items()})
    return value


def _numeric_rows(rows, meta: dict):
    """The --numeric view of each row as it arrives; marks meta lossy once one value converts."""
    for row in rows:
        viewed = {k: _numeric_view(v) for k, v in row.items()}
        # _numeric_view returns a value it leaves exact as it is
        if any(viewed[k] is not v for k, v in row.items()):
            meta["numeric_lossy"] = True
        yield viewed


def emit_table(rows, fmt: str, meta: dict) -> list[str]:
    """The document of a table as the chunks of a `serialize.Blocks`.

    `rows` is any iterable of dicts; the header is the first row's keys.
    Each row is rendered as it arrives and joined into a text block, so no
    row is kept.  `meta` is read after the last row (a --numeric view marks it
    lossy on the way), and the chunk made from it goes first.
    """
    if fmt == "json":
        return json_table(rows, meta)
    if fmt not in ("csv", "text"):
        raise ValueError(f"unknown format {fmt!r}")
    rows = iter(rows)
    first = next(rows, None)
    header = [] if first is None else list(first)
    if first is not None:
        rows = itertools.chain((first,), rows)
    out = Blocks()
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([text(row[h]) for h in header] for row in rows)
        return out.chunks()
    for row in rows:
        out.write("  ".join(f"{h}={text(row[h])}" for h in header) + "\n")
    head = f"# {meta.get('command', '')} {json.dumps(meta.get('parameters', {}), sort_keys=True)}\n"
    if meta.get("numeric_lossy"):
        head += "# numeric: lossy decimal approximations of exact values\n"
    return out.chunks(head)


# -- driver -----------------------------------------------------------------------


def run(args: argparse.Namespace) -> tuple[int, list[str]]:
    """Execute a job parsed by build_parser(); returns (exit status, document as chunks).

    The rows are built and rendered inside one try, so a check that fails on
    any row, or after the last, leaves only the error report: a table reaches
    its caller only once every check of the job has passed.
    """
    params = {k: v for k, v in vars(args).items() if k not in ("command", "fmt", "numeric") and v is not None}
    meta = {"command": args.command, "parameters": params}
    try:
        rows = COMMANDS[args.command].rows(args)
        if args.numeric:
            rows = _numeric_rows(rows, meta)
        chunks = emit_table(rows, args.fmt, meta)
    # main has rejected usage errors, so an ArithmeticError or ValueError here is a
    # computation that a fault broke (a quotient as_laurent cannot divide out);
    # every check the job makes raises through _check
    except (VerificationFailure, ArithmeticError, ValueError) as exc:
        report = {
            "meta": {"command": args.command, "parameters": params, "format_version": FORMAT_VERSION},
            "error": {"kind": "verification-failure", "message": str(exc)},
        }
        return EXIT_VERIFICATION, [json_text(report) + "\n"]
    if args.fmt == "csv" and meta.get("numeric_lossy"):
        print("conifold: --numeric renders lossy decimal approximations", file=sys.stderr)
    return EXIT_OK, chunks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conifold",
        description="Exact one-point open-string amplitudes of the resolved conifold.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"), default="text")
        p.add_argument("--numeric", action="store_true",
                       help="render rational values as lossy decimals (marked in the output)")
        for dest, spec in command.params.items():
            flag = "--" + dest.replace("_", "-")
            if isinstance(spec[0], str):
                p.add_argument(flag, choices=spec, default=spec[0])
            else:
                p.add_argument(flag, type=int, default=spec[0], help=_limits(*spec[1:]) or None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error = _usage_error(args)
    if error:
        print(error, file=sys.stderr)
        return EXIT_USAGE
    status, chunks = run(args)
    out = sys.stdout if status == EXIT_OK else sys.stderr
    # chunk by chunk: a join would copy the whole document once more
    out.writelines(chunks)
    return status


if __name__ == "__main__":
    status = main()
    # the job is done: keep the interpreter's exit from walking every object it made
    gc.freeze()
    sys.exit(status)
