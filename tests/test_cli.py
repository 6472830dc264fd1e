import ast
import csv
import inspect
import io
import json
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from conifold import amplitudes, cli, fock, mirror, ovinv, partitions, series
from conifold.cli import (
    COMMANDS,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    build_parser,
    emit_table,
    main,
    run,
)
from conifold.laurent import LaurentU, bracket_normal
from conifold.serialize import BLOCK
from conifold.series import TruncatedSeries

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_main(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_sequences_catalan_matches_published_prefix(capsys):
    status, out, _ = run_main(capsys, "sequences", "--which", "catalan", "--count", "10", "--format", "csv")
    assert status == EXIT_OK
    values = [line.split(",")[1] for line in out.strip().splitlines()[1:]]
    assert values == ["1", "1", "2", "5", "14", "42", "132", "429", "1430", "4862"]


def test_sequences_catalan_count_one_runs_its_anchor(capsys, monkeypatch):
    args = ("sequences", "--which", "catalan", "--count", "1")
    status, out, _ = run_main(capsys, *args)
    assert status == EXIT_OK
    assert out == '# sequences {"count": 1, "which": "catalan"}\nindex=0  value=1\n'
    # a wrong |d_{1,2}| must fail the job even though only C(0) is printed
    monkeypatch.setattr(ovinv, "disc_d", lambda a, k, m: Fraction(7))
    status, out, err = run_main(capsys, *args)
    assert status == EXIT_VERIFICATION
    assert out == ""
    assert json.loads(err)["error"]["kind"] == "verification-failure"


def test_genus0_framing_minus_one_passes_its_anchor(capsys, monkeypatch):
    # at a = -1 the anchor's Q coefficient 4(a+1)/4 is zero, which a series never stores
    args = ("genus0", "--framing", "-1", "--n-max", "2")
    status, out, _ = run_main(capsys, *args)
    assert status == EXIT_OK
    assert "value=1/4 + (-1/4) Q^2" in out
    # the anchor still fails a wrong genus-zero coefficient at that framing
    monkeypatch.setattr(
        amplitudes, "genus0_onepoint",
        lambda a, n: TruncatedSeries(("Q",), (n,), {(0,): Fraction(1, 4), (1,): Fraction(1, 4)}),
    )
    status, out, err = run_main(capsys, *args)
    assert status == EXIT_VERIFICATION
    assert out == ""
    assert json.loads(err)["error"]["message"] == "genus-zero x^2 coefficient fails its anchor polynomial"


def test_sequences_dmm_reports_mismatch_without_failing(capsys):
    status, out, _ = run_main(capsys, "sequences", "--which", "dmm", "--count", "8", "--format", "json")
    assert status == EXIT_OK
    doc = json.loads(out)
    row7 = next(r for r in doc["rows"] if r["m"] == 7)
    assert row7["matches_printed"] is False
    assert row7["formula"] == "35"


def test_disc_e_table_csv(capsys):
    status, out, _ = run_main(capsys, "disc-e", "--framing", "0", "--m-max", "4", "--k-max", "6", "--format", "csv")
    assert status == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "m,e_1,e_2,e_3,e_4,e_5,e_6"
    assert lines[2] == "2,1,1/2,0,0,0,0"
    assert lines[4] == "4,1,7/2,5,2,0,0"
    assert all("," in line and '"' not in line for line in lines)


def test_disc_d_verification_failure_exit_code(capsys):
    # the odd-framing half-integer spot is reported as a verification failure
    status, _, err = run_main(capsys, "disc-d", "--framing", "1", "--m-max", "2", "--k-max", "2")
    assert status == EXIT_VERIFICATION
    report = json.loads(err)
    assert report["error"]["kind"] == "verification-failure"
    assert "3/2" in report["error"]["message"]


def test_mirror_check_runs_at_framing_minus_one(capsys, monkeypatch):
    argv = ("mirror-check", "--framing", "-1", "--order", "4")
    status, out, _ = run_main(capsys, *argv)
    assert status == EXIT_OK
    assert out.count("ok=true") == 2
    # framing-1 values served at framing -1 fail the curve check; winding 1 does
    # not depend on the framing, so at order 1 the fault passes
    monkeypatch.setattr(amplitudes, "onepoint_args", _shifted_args({-1: 1}))
    message = _assert_verification_failure(capsys, *argv)
    assert message == "log of the framed branch disagrees with x d/dx Psi_0"
    assert run_main(capsys, "mirror-check", "--framing", "-1", "--order", "1")[0] == EXIT_OK


def test_mirror_check_ok(capsys):
    status, out, _ = run_main(capsys, "mirror-check", "--framing", "0", "--order", "6")
    assert status == EXIT_OK
    assert "ok=true" in out


# every mirror-check slot an injected product fault must fail: framing x order
MIRROR_SLOTS = [(f, o) for f in ("-3", "-2", "0", "1", "2", "3") for o in ("1", "2", "6")]


def _dropping_product(keep, applies=lambda left: True):
    """A series product that loses every result term whose exponents `keep` rejects,
    when its left operand is one that `applies` accepts."""
    mul = TruncatedSeries.__mul__

    def dropping(self, other):
        out = mul(self, other)
        if isinstance(other, TruncatedSeries) and applies(self):
            out.terms = {e: c for e, c in out.terms.items() if keep(e, out.orders)}
        return out

    return dropping


def _dropping_kernel(keep):
    """The series recurrence kernel, losing every result term whose exponents `keep` rejects."""
    solve = series._solve

    def dropping(f, g, orders, b0, zero, step):
        return {e: v for e, v in solve(f, g, orders, b0, zero, step).items() if keep(e, orders)}

    return dropping


def _mutated(function, old, new):
    """A function of conifold.series recompiled with one fragment of its source replaced."""
    source = textwrap.dedent(inspect.getsource(function))
    assert source.count(old) == 1
    namespace = dict(vars(series))
    exec(compile(source.replace(old, new), series.__file__, "exec"), namespace)
    return namespace[function.__name__]


def _mirror_check_failures(capsys):
    """Run every slot, assert each is a verification failure, and return the messages."""
    messages = {}
    for framing, order in MIRROR_SLOTS:
        status, out, err = run_main(capsys, "mirror-check", "--framing", framing, "--order", order)
        assert status == EXIT_VERIFICATION, (framing, order)
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "verification-failure"
        messages[framing, order] = error["message"]
    return messages


def test_mirror_check_passes_every_fault_slot_without_a_fault(capsys):
    for framing, order in MIRROR_SLOTS:
        status, out, _ = run_main(capsys, "mirror-check", "--framing", framing, "--order", order)
        assert status == EXIT_OK, (framing, order)
        assert "ok=false" not in out


def test_mirror_check_fails_a_product_that_drops_the_x_edge(capsys, monkeypatch):
    # a series product that loses every term at x^order must fail the check
    monkeypatch.setattr(TruncatedSeries, "__mul__", _dropping_product(lambda e, orders: e[0] != orders[0]))
    messages = _mirror_check_failures(capsys)
    for framing in ("2", "-3"):
        # at order 1 y = (1 + E z0)/(1 + z0) loses every x term, which log y sees first
        assert messages[framing, "1"] == "log of the framed branch disagrees with x d/dx Psi_0"


def test_mirror_check_fails_a_product_that_drops_the_E_edge(capsys, monkeypatch):
    monkeypatch.setattr(TruncatedSeries, "__mul__", _dropping_product(lambda e, orders: e[1] != orders[1]))
    _mirror_check_failures(capsys)


def test_mirror_check_fails_a_product_that_stops_short_of_the_E_bound(capsys, monkeypatch):
    # `>=` for `>` skips every pair whose E exponents sum to exactly the order
    monkeypatch.setattr(TruncatedSeries, "__mul__", _mutated(TruncatedSeries.__mul__, "if ej > roomj:", "if ej >= roomj:"))
    _mirror_check_failures(capsys)


# the recurrence kernel behind inverse, log, sqrt and negative powers


def test_mirror_check_fails_a_kernel_that_drops_the_x_edge(capsys, monkeypatch):
    monkeypatch.setattr(series, "_solve", _dropping_kernel(lambda e, orders: e[0] != orders[0]))
    _mirror_check_failures(capsys)


def test_mirror_check_fails_a_kernel_that_drops_the_E_edge(capsys, monkeypatch):
    monkeypatch.setattr(series, "_solve", _dropping_kernel(lambda e, orders: e[1] != orders[1]))
    _mirror_check_failures(capsys)


def test_mirror_check_fails_a_kernel_that_stops_short_of_the_E_bound(capsys, monkeypatch):
    # `>=` for `>` skips every pair (k, e - k) whose E exponent e - k is zero
    monkeypatch.setattr(series, "_solve", _mutated(series._solve, "if kj > ej:", "if kj >= ej:"))
    _mirror_check_failures(capsys)


def test_oracle_compare_fails_a_corrupted_character_value(capsys, monkeypatch):
    # chi_(3,1,1)((2,2,1)) lies in a hook row, which the oracle's twist reads;
    # chi_(2,2,1)((5)) = 0 is what keeps a non-hook row out of the twist
    for corrupt in (((3, 1, 1), (2, 2, 1)), ((2, 2, 1), (5,))):
        def corrupted(nu, mu, corrupt=corrupt):
            chi = partitions.character(nu, mu)
            return chi + 1 if (tuple(nu), tuple(mu)) == corrupt else chi

        monkeypatch.setattr(fock, "character", corrupted)
        status, out, err = run_main(capsys, "oracle-compare", "--framing", "1", "--n-max", "5")
        assert status == EXIT_VERIFICATION, corrupt
        assert out == ""
        error = json.loads(err)["error"]
        assert error["kind"] == "verification-failure"
        assert "oracle disagreement" in error["message"]


# the table jobs that a framing-2 fault in the one-point formula must fail, with
# what their message must hold: each disc cell's recursion and each ov-n row's
# relation at u = 1 read the curve, so the first cell or row that the fault changes fails
FRAMING_TWO_TABLES = [
    (("disc-d", "--framing", "2", "--m-max", "8", "--k-max", "4"), "d_{1,2}^(2) fails its defining recursion"),
    (("disc-e", "--framing", "2", "--m-max", "8", "--k-max", "4"), "e_{1,2}^(2) fails its defining recursion"),
    (("ov-n", "--framing", "2", "--m-max", "6"), "N_{2,0} at u = 1 fails the divisor-sum relation with the curve"),
]


def _assert_verification_failure(capsys, *argv):
    status, out, err = run_main(capsys, *argv)
    assert status == EXIT_VERIFICATION, argv
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "verification-failure"
    return error["message"]


def _shifted_args(shift):
    """onepoint_args reading framing shift[a] in place of each framing a in `shift`."""
    args = amplitudes.onepoint_args
    return lambda a, n, j: args(shift.get(a, a), n, j)


@pytest.mark.parametrize("argv, message", FRAMING_TWO_TABLES, ids=[argv[0] for argv, _ in FRAMING_TWO_TABLES])
def test_tables_fail_a_framing_shifted_formula(capsys, monkeypatch, argv, message):
    # the framing-0 anchors alone pass framing-4 values served at framing 2
    status, _, _ = run_main(capsys, *argv)
    assert status == EXIT_OK
    monkeypatch.setattr(amplitudes, "onepoint_args", _shifted_args({2: 4}))
    assert message in _assert_verification_failure(capsys, *argv)


# each table at zero framing with its size flag last, and the message a fault at
# winding 4 must give once the table prints that winding
WINDING_FOUR_TABLES = [
    (("disc-d", "--k-max", "2", "--m-max"), "d_{1,4}^(0) fails its defining recursion"),
    (("disc-e", "--k-max", "2", "--m-max"), "e_{1,4}^(0) fails its defining recursion"),
    (("ov-n", "--m-max"), "is not a Laurent polynomial"),
    (("genus0", "--n-max"), "genus-zero Q^0 coefficient at winding 4 fails the curve's log y at framing 0"),
]


@pytest.mark.parametrize("argv, message", WINDING_FOUR_TABLES, ids=[argv[0] for argv, _ in WINDING_FOUR_TABLES])
def test_tables_at_framing_zero_fail_a_shifted_formula(capsys, monkeypatch, argv, message):
    # each table checks the values it prints against the curve once, so a fault at
    # winding 4 fails a table that prints winding 4 and leaves one that stops at 3 as it was
    printed = {size: run_main(capsys, *argv, size) for size in ("3", "4")}
    assert [status for status, _, _ in printed.values()] == [EXIT_OK, EXIT_OK]
    args = amplitudes.onepoint_args
    monkeypatch.setattr(amplitudes, "onepoint_args", lambda a, n, j: args(4 if (a, n) == (0, 4) else a, n, j))
    assert _assert_verification_failure(capsys, *argv, "4").endswith(message)
    assert run_main(capsys, *argv, "3") == printed["3"]


@pytest.mark.parametrize(
    "command, message",
    [
        ("disc-e", "e_{1,2}^(-1) fails its defining recursion"),
        ("ov-n", "N_{2,0} at u = 1 fails the divisor-sum relation with the curve"),
    ],
    ids=["disc-e", "ov-n"],
)
def test_tables_at_framing_minus_one_fail_a_shifted_formula(capsys, monkeypatch, command, message):
    # framing -1 is anchored by the mirror curve like every other framing
    argv = (command, "--framing", "-1", "--m-max", "4")
    status, _, _ = run_main(capsys, *argv)
    assert status == EXIT_OK
    monkeypatch.setattr(amplitudes, "onepoint_args", _shifted_args({-1: 1}))
    assert _assert_verification_failure(capsys, *argv) == message


def test_disc_and_dmm_jobs_compute_each_moebius_sum_once(capsys, monkeypatch):
    # a recursion that recomputed its lower cells would repeat the sums of cells
    # the table has printed, and a second check of a cell would add sums; off zero
    # framing no anchor reads a printed cell.
    # ov-n checks its rows against the curve and makes none; the Catalan job makes
    # one per |d_{k,k+1}|, k = 1..11
    calls = []
    mobius_sum = ovinv.genus0_mobius_sum

    def recorded(*args):
        calls.append(args)
        return mobius_sum(*args)

    monkeypatch.setattr(ovinv, "genus0_mobius_sum", recorded)
    argv = ("disc-d", "--framing", "2", "--m-max", "12", "--k-max", "12")
    assert run_main(capsys, *argv)[0] == EXIT_OK
    assert calls and len(set(calls)) == len(calls), argv
    calls.clear()
    assert run_main(capsys, "disc-e", "--framing", "3", "--m-max", "12", "--k-max", "12")[0] == EXIT_OK
    # one sum per printed cell k <= m, 12 * 13 / 2, and one per boxed anchor at zero framing
    assert len(set(calls)) == len(calls) == 78 + 4
    assert sum(a == 0 for a, *_ in calls) == 4
    calls.clear()
    assert run_main(capsys, "sequences", "--which", "dmm", "--count", "12")[0] == EXIT_OK
    assert len(calls) == 12
    calls.clear()
    assert run_main(capsys, "ov-n", "--framing", "2", "--m-max", "6")[0] == EXIT_OK
    assert not calls
    assert run_main(capsys, "sequences", "--which", "catalan", "--count", "12")[0] == EXIT_OK
    assert len(calls) == len(set(calls)) == 11


@pytest.mark.parametrize("framing", ["-3", "0", "2"])
def test_tables_build_no_curve_series(capsys, monkeypatch, framing):
    # the tables check their values against the curve's closed form; only mirror-check
    # builds the curve as a series.  At odd framing d_{2,2} is a half integer (acceptance
    # criterion 5), so disc-d stops at k = 1
    calls = []
    for module, name in ((mirror, "framed_curve_check"), (series, "_solve")):
        function = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, f=function, name=name: calls.append(name) or f(*args))
    for argv in (("genus0", "--n-max", "5"), ("disc-d", "--m-max", "4", "--k-max", "1"),
                 ("disc-e", "--m-max", "4", "--k-max", "2"), ("ov-n", "--m-max", "4")):
        assert run_main(capsys, *argv, "--framing", framing)[0] == EXIT_OK, argv
    assert calls == []
    assert run_main(capsys, "mirror-check", "--order", "4", "--framing", framing)[0] == EXIT_OK
    assert "_solve" in calls and ("framed_curve_check" in calls) == (framing != "0")


@pytest.mark.parametrize("framing", ["-3", "-1", "0", "2"])
def test_genus0_fails_a_formula_shifted_from_winding_three(capsys, monkeypatch, framing):
    # the x^2 anchor reads winding 2 only; the row checks read windings 3 to 5
    argv = ("genus0", "--framing", framing, "--n-max", "5")
    status, _, _ = run_main(capsys, *argv)
    assert status == EXIT_OK
    args = amplitudes.onepoint_args
    monkeypatch.setattr(amplitudes, "onepoint_args", lambda a, n, j: args(a + 1 if n >= 3 else a, n, j))
    _assert_verification_failure(capsys, *argv)


def test_onepoint_and_oracle_fail_a_corrupted_brane_weight(capsys, monkeypatch):
    # the partition sum and the oracle both read the brane state, so they agree with
    # each other on a wrong c_2; the closed form is the leg that sees it.  Each job
    # builds the state once, through winding --n-max, for every leg and winding.
    state = fock.brane_state
    calls = []

    def doubled_c2(n, q_bound):
        calls.append(n)
        weights = state(n, q_bound)
        return {**weights, 2: weights[2].scale(2)}

    jobs = {
        ("onepoint", "--framing", "1", "--n-max", "3"): "closed form and partition sum disagree at (a=1, n=2)",
        ("oracle-compare", "--framing", "1", "--n-max", "3"): "oracle disagreement at (a=1, n=2)",
    }
    for argv in jobs:
        assert run_main(capsys, *argv)[0] == EXIT_OK
    monkeypatch.setattr(fock, "brane_state", doubled_c2)
    for argv, message in jobs.items():
        del calls[:]
        assert _assert_verification_failure(capsys, *argv) == message
        assert calls == [3], argv


@pytest.mark.parametrize(
    "fault, message",
    [
        # a sign flipped at framing 2 alone keeps N integral and bar symmetric,
        # so the divisor-sum relation at u = 1 with the curve sees it first
        (lambda rhs: lambda a, k, m, scale: rhs(a, k, m, scale) * (-1 if a == 2 else 1), "at u = 1"),
        # the same at the one cell (m, k) = (5, 2), above the windings of the other anchors
        (lambda rhs: lambda a, k, m, scale: rhs(a, k, m, scale) * (-1 if (m, k) == (5, 2) else 1), "N_{5,2} at u = 1"),
        # a doubled Adams scale leaves [1] times the divisor sum no Laurent polynomial
        (lambda rhs: lambda a, k, m, scale: rhs(a, k, m, 2 * scale), "not a Laurent polynomial"),
    ],
    ids=["sign", "sign-5-2", "scale"],
)
def test_ov_n_fails_a_fault_in_the_bracket_right_side(capsys, monkeypatch, fault, message):
    argv = ("ov-n", "--framing", "2", "--m-max", "5")
    status, _, _ = run_main(capsys, *argv)
    assert status == EXIT_OK
    monkeypatch.setattr(ovinv, "allgenus_rhs", fault(ovinv.allgenus_rhs))
    assert message in _assert_verification_failure(capsys, *argv)


def test_ov_n_fails_a_term_that_vanishes_at_u_equal_one(capsys, monkeypatch):
    # (u - 1/u)^2 vanishes at u = 1, is bar symmetric and has integer coefficients,
    # so of the anchors only the divisor-sum relation at u = 2 sees it on N_{5,2}
    argv = ("ov-n", "--framing", "2", "--m-max", "6")
    assert run_main(capsys, *argv)[0] == EXIT_OK
    ov_n, planted, calls = ovinv.ov_N, LaurentU({2: 1, 0: -2, -2: 1}), []

    def faulty(a, m, k):
        calls.append((m, k))
        return ov_n(a, m, k) + planted if (m, k) == (5, 2) else ov_n(a, m, k)

    monkeypatch.setattr(ovinv, "ov_N", faulty)
    message = _assert_verification_failure(capsys, *argv)
    assert message == "N_{5,2} at u = 2 fails the divisor-sum relation with its amplitude"
    assert (5, 2) in calls


@pytest.mark.parametrize("a", [-3, 0, 2])
def test_ov_n_rows_keep_only_the_values_a_later_row_reads(a):
    # the divisor-sum relations of a row read N_{m/j,k/j} at j >= 2, so the builder
    # keeps N_{m,k} only where 2m <= --m-max; a value dropped too soon is a KeyError
    reference = {}
    for m_max in range(1, 11):
        job = build_parser().parse_args(["ov-n", "--framing", str(a), "--m-max", str(m_max)])
        expected = [{"a": a, "m": m, "k": k, "value": reference.setdefault((m, k), ovinv.ov_N(a, m, k))}
                    for m in range(1, m_max + 1) for k in range(m + 1)]
        assert list(COMMANDS["ov-n"].rows(job)) == expected


def _doubled_closed_string_Q2(monkeypatch):
    log_z = amplitudes.closed_string_logZ

    def doubled(order):
        s = log_z(order)
        return TruncatedSeries(s.variables, s.orders, {**s.terms, (2,): s.terms[(2,)] * 2}, s.one)

    monkeypatch.setattr(amplitudes, "closed_string_logZ", doubled)


def test_closed_string_fails_a_wrong_Q2_coefficient(capsys, monkeypatch):
    argv = ("closed-string", "--order", "5")
    status, _, _ = run_main(capsys, *argv)
    assert status == EXIT_OK
    _doubled_closed_string_Q2(monkeypatch)
    assert "Q^2 coefficient" in _assert_verification_failure(capsys, *argv)


def _planted(module, name, at, delta):
    """Patch module.name to add delta to its value at the one argument tuple `at`."""
    def patch(monkeypatch):
        function = getattr(module, name)

        def planted(*args):
            value = function(*args)
            return value + delta if args == at else value

        monkeypatch.setattr(module, name, planted)
    return patch


def _dropping_power(applies):
    """Patch TruncatedSeries.__pow__ to lose every E^1 term of a power whose exponent `applies` accepts."""
    def patch(monkeypatch):
        power = TruncatedSeries.__pow__

        def dropping(self, k):
            out = power(self, k)
            if applies(k):
                out = out._with_terms({e: c for e, c in out.terms.items() if e[1] != 1})
            return out

        monkeypatch.setattr(TruncatedSeries, "__pow__", dropping)
    return patch


def _genus0_fault(change):
    """Patch amplitudes.genus0_coefficient to return change(coefficient, a, n, j)."""
    def patch(monkeypatch):
        coefficient = amplitudes.genus0_coefficient
        monkeypatch.setattr(amplitudes, "genus0_coefficient", lambda a, n, j: change(coefficient, a, n, j))
    return patch


# faults on the genus-zero coefficients from winding 5 or 6 up, which only the row checks read
GENUS0_FAULTS = {
    "genus0-doubled": _genus0_fault(lambda c, a, n, j: 2 * c(a, n, j) if n >= 6 else c(a, n, j)),
    "genus0-framing": _genus0_fault(lambda c, a, n, j: c(a + 1 if n >= 5 else a, n, j)),
    "genus0-Q1": _genus0_fault(lambda c, a, n, j: c(a, n, j) + (1 if n >= 5 and j == 1 else 0)),
}


@pytest.mark.parametrize("framing", ["-3", "-1", "0", "2"])
@pytest.mark.parametrize("fault", GENUS0_FAULTS.values(), ids=list(GENUS0_FAULTS))
def test_genus0_checks_every_row_against_the_curve(capsys, monkeypatch, fault, framing):
    argv = ("genus0", "--framing", framing, "--n-max", "8")
    assert run_main(capsys, *argv)[0] == EXIT_OK
    fault(monkeypatch)
    assert "fails the curve's log y" in _assert_verification_failure(capsys, *argv)


def _numerator_shifted(at):
    """Patch amplitudes.onepoint_args to shift the numerator range by one at (n, j) = at, at every
    framing: the values, genus0_integer and the u = 2 right side all read the shifted formula."""
    def patch(monkeypatch):
        args = amplitudes.onepoint_args

        def shifted(a, n, j):
            num, den = args(a, n, j)
            return (range(num.start + 1, num.stop + 1), den) if (n, j) == at else (num, den)

        monkeypatch.setattr(amplitudes, "onepoint_args", shifted)
    return patch


def _dropping_top_order(monkeypatch):
    """Patch the series constructor to lose every term at a truncation order, as if it read
    e >= o for e > o: the three legs of oracle-compare share it and still agree."""
    init = TruncatedSeries.__init__

    def dropping(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.terms = {e: c for e, c in self.terms.items() if all(x < o for x, o in zip(e, self.orders))}

    monkeypatch.setattr(TruncatedSeries, "__init__", dropping)


def _doubled_framed_x_term(monkeypatch):
    """Patch mirror._curve_poly to read 2 x y^{-2} for x y^{-2} at framing 2."""
    curve_poly = mirror._curve_poly
    doubled = {(1, -2, 0): Fraction(2)}
    monkeypatch.setattr(mirror, "_curve_poly", lambda a: {**curve_poly(a), **(doubled if a == 2 else {})})


# one planted fault per check of the d, e and N values, the named sequences and the
# mirror-curve residuals, with a job that must fail it and the message it must give
PLANTED_FAULTS = {
    "d-integral": (_planted(ovinv, "disc_d", (0, 1, 2), Fraction(1, 2)),
                   ("disc-d", "--m-max", "2", "--k-max", "2"), "d_{1,2}^(0) = -1/2 is not an integer"),
    "e-half-integral": (_planted(ovinv, "disc_e", (0, 2, 2), Fraction(1, 3)),
                        ("disc-e", "--m-max", "2", "--k-max", "2"), "e_{2,2}^(0) = 5/6 is not a half integer"),
    "d-recursion": (_planted(ovinv, "disc_d", (0, 2, 2), 1),
                    ("disc-d", "--m-max", "2", "--k-max", "2"), "d_{2,2}^(0) fails its defining recursion"),
    "e-recursion": (_planted(ovinv, "disc_e", (0, 2, 2), 1),
                    ("disc-e", "--m-max", "2", "--k-max", "2"), "e_{2,2}^(0) fails its defining recursion"),
    # T + 36 at winding 6 keeps d_{1,6} integral: the recursion's right side, read
    # from the curve, sees it
    "d-recursion-curve": (_planted(ovinv, "genus0_integer", (0, 6, 1), 36),
                          ("disc-d", "--m-max", "8", "--k-max", "4"), "d_{1,6}^(0) fails its defining recursion"),
    "e-recursion-curve": (_planted(ovinv, "genus0_integer", (2, 6, 1), 36),
                          ("disc-e", "--framing", "2", "--m-max", "8", "--k-max", "4"),
                          "e_{1,6}^(2) fails its defining recursion"),
    # at framing 2 only the boxed anchor reads the zero-framing table
    "e-anchor": (_planted(ovinv, "disc_e", (0, 2, 2), 1),
                 ("disc-e", "--framing", "2", "--m-max", "2", "--k-max", "2"), "e_{2,2} fails its anchor"),
    "catalan-anchor": (_planted(ovinv, "catalan_number", (2,), 1),
                       ("disc-d", "--m-max", "3", "--k-max", "2"), "|d_{2,3}| is not the Catalan number C(2)"),
    "catalan": (_planted(ovinv, "catalan_number", (2,), 1),
                ("sequences", "--which", "catalan", "--count", "3"), "|d_{2,3}| is not the Catalan number C(2)"),
    "dmm": (_planted(ovinv, "seq_dmm", (3,), 1),
            ("sequences", "--which", "dmm", "--count", "3"), "d_{3,3} divisor sum disagrees with Moebius inversion"),
    "dmm-integral": (_planted(ovinv, "seq_dmm", (3,), Fraction(1, 2)),
                     ("sequences", "--which", "dmm", "--count", "3"), "|d_{3,3}| = 1/2 of the divisor sum is not an integer"),
    "N-integer": (_planted(ovinv, "ov_N", (0, 2, 1), LaurentU({0: Fraction(1, 2)})),
                  ("ov-n", "--m-max", "2"), "N_{2,1}^(0) has non-integer coefficients"),
    "N-bar": (_planted(ovinv, "ov_N", (0, 2, 1), LaurentU({1: 1})),
              ("ov-n", "--m-max", "2"), "N_{2,1}^(0) is not bar symmetric"),
    # the relation at u = 2 reads the shifted formula on both sides: the relation at
    # u = 1, read from the curve, sees it
    "N-curve": (_numerator_shifted((6, 1)), ("ov-n", "--framing", "2", "--m-max", "8"),
                "N_{6,1} at u = 1 fails the divisor-sum relation with the curve"),
    "framed-log": (lambda mp: mp.setattr(amplitudes, "onepoint_args", _shifted_args({2: 4})),
                   ("mirror-check", "--framing", "2", "--order", "3"),
                   "log of the framed branch disagrees with x d/dx Psi_0"),
    "zero-framing-log": (lambda mp: mp.setattr(amplitudes, "onepoint_args", _shifted_args({0: 4})),
                         ("mirror-check", "--framing", "0", "--order", "3"),
                         "log of the square-root closed form disagrees with x d/dx Psi_0"),
    # y^{-3} loses its E^1 terms; the inverse (the power -1) that builds y stays
    # whole, and the Lagrange root is written down without a power, so log y holds
    "z0": (_dropping_power(lambda k: k < -1),
           ("mirror-check", "--framing", "2", "--order", "3"), "z0 = x y^{-(a+1)} fails"),
    # [x^2 E] of the Lagrange root at framing 2 reads C(-6, 1) = -6 as -5; the genus-zero
    # values read the binomial of amplitudes, so only the root is wrong
    "lagrange-root": (_planted(mirror, "binomial", (-6, 1), 1),
                      ("mirror-check", "--framing", "2", "--order", "3"),
                      "log of the framed branch disagrees with x d/dx Psi_0"),
    # at zero framing only the curve's y^{-1} is a power: log y holds
    "curve": (_dropping_power(lambda k: k == -1),
              ("mirror-check", "--framing", "0", "--order", "3"), "zero-framing residual does not vanish"),
    "genus0-doubled": (GENUS0_FAULTS["genus0-doubled"], ("genus0", "--n-max", "8"),
                       "genus-zero Q^0 coefficient at winding 6 fails the curve's log y at framing 0"),
    "genus0-framing": (GENUS0_FAULTS["genus0-framing"], ("genus0", "--n-max", "8"),
                       "genus-zero Q^0 coefficient at winding 5 fails the curve's log y at framing 0"),
    "genus0-Q1": (GENUS0_FAULTS["genus0-Q1"], ("genus0", "--n-max", "8"),
                  "genus-zero Q^1 coefficient at winding 5 fails the curve's log y at framing 0"),
    "winding-one": (_dropping_top_order, ("oracle-compare", "--n-max", "2"),
                    "winding-1 amplitude fails its anchor value (1+Q)/[1]"),
    # of the framed check's products only x y^{-(a+1)} times y has a left operand of
    # several terms and no constant term, so log y and z0 hold
    "framed-curve": (lambda mp: mp.setattr(TruncatedSeries, "__mul__", _dropping_product(
                         lambda e, orders: e[0] != orders[0],
                         lambda left: len(left.terms) > 1 and not left.constant_term())),
                     ("mirror-check", "--framing", "2", "--order", "3"), "framed residual does not vanish"),
    "framing-transform": (_doubled_framed_x_term, ("mirror-check", "--framing", "2", "--order", "3"),
                          "framing transformation check failed"),
    "closed-string": (_doubled_closed_string_Q2, ("closed-string", "--order", "3"),
                      "closed-string Q^2 coefficient fails its anchor (-1)^{n-1}/(n [n]^2)"),
}


@pytest.mark.parametrize("fault, argv, message", PLANTED_FAULTS.values(), ids=list(PLANTED_FAULTS))
def test_each_check_fails_its_planted_fault(capsys, monkeypatch, fault, argv, message):
    assert run_main(capsys, *argv)[0] == EXIT_OK
    fault(monkeypatch)
    assert _assert_verification_failure(capsys, *argv) == message


@pytest.mark.parametrize("framing, m_max", [("0", "8"), ("-3", "12")])
def test_ov_n_fails_a_formula_shifted_at_winding_six(capsys, monkeypatch, framing, m_max):
    # PLANTED_FAULTS["N-curve"] at two more framings; at framing -1 the shift changes
    # no value, as both numerator ranges hold 0
    argv = ("ov-n", "--framing", framing, "--m-max", m_max)
    assert run_main(capsys, *argv)[0] == EXIT_OK
    _numerator_shifted((6, 1))(monkeypatch)
    message = _assert_verification_failure(capsys, *argv)
    assert message == "N_{6,1} at u = 1 fails the divisor-sum relation with the curve"


@pytest.mark.parametrize("framing", ["-3", "1"])
def test_framed_curve_residual_fails_a_product_that_drops_its_x_edge(capsys, monkeypatch, framing):
    # PLANTED_FAULTS["framed-curve"] at two more framings; at framing -1 the framed
    # x y^0 is the single term x, so the fault changes no product
    argv = ("mirror-check", "--framing", framing, "--order", "3")
    assert run_main(capsys, *argv)[0] == EXIT_OK
    PLANTED_FAULTS["framed-curve"][0](monkeypatch)
    assert _assert_verification_failure(capsys, *argv) == "framed residual does not vanish"


def test_every_check_message_is_expected_by_a_test():
    # each _check template of cli, its %d read as an integer and its %s as any text, must
    # match some whole string of this module: a check that no test expects to fail is
    # one that no test has made fail
    def pattern(template):
        return "".join({"%d": r"-?\d+", "%s": ".+"}.get(p, re.escape(p)) for p in re.split(r"(%[ds])", template))

    def parsed(path):
        return ast.walk(ast.parse(Path(path).read_text(encoding="utf-8")))

    templates = [call.args[1] for call in parsed(cli.__file__)
                 if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "_check"]
    assert all(isinstance(t, ast.Constant) and isinstance(t.value, str) for t in templates)
    expected = [n.value for n in parsed(__file__) if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    unexpected = [t.value for t in templates if not any(re.fullmatch(pattern(t.value), e, re.S) for e in expected)]
    assert len(templates) > 20
    assert unexpected == []


# the tables that check each printed cell against the curve's n [x^n E^i] log y, with
# the message a wrong [x^3 E] log y at framing 2 must give
CURVE_TABLES = [
    (("genus0", "--n-max", "4"), "genus-zero Q^1 coefficient at winding 3 fails the curve's log y at framing 2"),
    (("disc-d", "--m-max", "4", "--k-max", "2"), "d_{1,3}^(2) fails its defining recursion"),
    (("disc-e", "--m-max", "4", "--k-max", "2"), "e_{1,3}^(2) fails its defining recursion"),
    (("ov-n", "--m-max", "4"), "N_{3,1} at u = 1 fails the divisor-sum relation with the curve"),
]


@pytest.mark.parametrize("argv, message", CURVE_TABLES, ids=[argv[0] for argv, _ in CURVE_TABLES])
def test_tables_fail_a_wrong_curve_coefficient(capsys, monkeypatch, argv, message):
    argv = (*argv, "--framing", "2")
    assert run_main(capsys, *argv)[0] == EXIT_OK
    _planted(mirror, "lagrange_log_y", (2, 3, 1), 1)(monkeypatch)
    assert _assert_verification_failure(capsys, *argv) == message


def _shift_last_correlator_word(monkeypatch):
    closed_args = fock.correlator_closed_args

    def shifted(n, m, a):
        dets, den = closed_args(n, m, a)
        return (dets[:-1] + (dets[-1] + 1,), den) if (n, m, a) == (3, (3,), (3,)) else (dets, den)

    # cli reads the name on the fock module
    monkeypatch.setattr(fock, "correlator_closed_args", shifted)


# faults that only the last row of a table, or a check after it, can see
LAST_CHECKS = {
    "last-correlator-row": (_shift_last_correlator_word, ("correlator", "--n-max", "3"),
                            "correlator mismatch at n=3, m=(3,), multipliers=(3,)"),
    # at framing 1 only the anchor after the loop reads N_{2,1} at zero framing
    "ov-n-anchor": (_planted(ovinv, "ov_N", (0, 2, 1), LaurentU({1: 1})),
                    ("ov-n", "--framing", "1", "--m-max", "2"), "N_{2,1} at zero framing fails its anchor"),
}


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("fault, argv, message", LAST_CHECKS.values(), ids=list(LAST_CHECKS))
def test_nothing_is_written_before_the_last_check(capsys, monkeypatch, fault, argv, message, fmt):
    # every row before the fault passes its checks, so a writer that streamed
    # rows to stdout would have written them before the job failed
    assert run_main(capsys, *argv, "--format", fmt)[0] == EXIT_OK
    fault(monkeypatch)
    assert _assert_verification_failure(capsys, *argv, "--format", fmt) == message


def _smallest_jobs():
    """argv of each command with every bounded parameter at its lowest, once per choice
    and once per framing in -3..3, so that no framing can be turned away."""
    for name, command in COMMANDS.items():
        jobs = [[name]]
        for dest, spec in command.params.items():
            flag = "--" + dest.replace("_", "-")
            if isinstance(spec[0], str):
                jobs = [job + [flag, choice] for job in jobs for choice in spec]
            elif dest == "framing":
                # the job without the flag runs at framing 0
                jobs += [job + [flag, str(a)] for job in jobs for a in (-3, -2, -1, 1, 2, 3)]
            elif spec[1] is not None:
                jobs = [job + [flag, str(spec[1])] for job in jobs]
        yield from jobs


@pytest.mark.parametrize("argv", list(_smallest_jobs()), ids=" ".join)
def test_every_smallest_job_makes_a_check(capsys, monkeypatch, argv):
    # a job that passes without calling _check has checked nothing
    made = []
    check = cli._check

    def counted(condition, message, *args):
        made.append(message)
        check(condition, message, *args)

    monkeypatch.setattr(cli, "_check", counted)
    assert run_main(capsys, *argv)[0] == EXIT_OK
    assert made, argv


def test_usage_error_on_bad_bound(capsys):
    status, _, err = run_main(capsys, "onepoint", "--n-max", "0")
    assert status == EXIT_USAGE
    assert "must be positive" in err


# the default job of each command, pinned because `meta.parameters` prints it
DEFAULTS = {
    "onepoint": {"fmt": "text", "numeric": False, "framing": 0, "n_max": 3},
    "genus0": {"fmt": "text", "numeric": False, "framing": 0, "n_max": 5},
    "disc-d": {"fmt": "text", "numeric": False, "framing": 0, "m_max": 8, "k_max": 6},
    "disc-e": {"fmt": "text", "numeric": False, "framing": 0, "m_max": 8, "k_max": 6},
    "ov-n": {"fmt": "text", "numeric": False, "framing": 0, "m_max": 3},
    "sequences": {"fmt": "text", "numeric": False, "which": "catalan", "count": 10},
    "mirror-check": {"fmt": "text", "numeric": False, "framing": 0, "order": 8},
    "correlator": {"fmt": "text", "numeric": False, "n_max": 4},
    "oracle-compare": {"fmt": "text", "numeric": False, "framing": 0, "n_max": 4, "q_degree": None},
    "closed-string": {"fmt": "text", "numeric": False, "order": 5},
}


def test_parser_defaults_are_pinned():
    assert list(COMMANDS) == list(DEFAULTS)
    for command, defaults in DEFAULTS.items():
        assert vars(build_parser().parse_args([command])) == {"command": command, **defaults}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_a_parser_built_for_one_command_reads_it_as_the_whole_parser_does(capsys, name):
    # main builds the arguments of the command argv[0] names only
    job = next(job for job in _smallest_jobs() if job[0] == name)
    one, whole = build_parser(name), build_parser()
    assert one.parse_args(job) == whole.parse_args(job)
    for argv in ([name, "--help"], [name, "--no-such-flag"], [name, "--format", "xml"]):
        printed = []
        for parser in (one, whole):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            printed.append((exc.value.code, *capsys.readouterr()))
        assert printed[0] == printed[1]
        assert printed[0][1] or printed[0][2]


# every (command, parameter, lowest, highest) of the table with a limit
LIMITS = [
    (command, dest, spec[1], spec[2])
    for command, entry in COMMANDS.items()
    for dest, spec in entry.params.items()
    if not isinstance(spec[0], str) and (spec[1], spec[2]) != (None, None)
]


@pytest.mark.parametrize("command, dest, lowest, highest", LIMITS, ids=str)
def test_limits_are_checked_before_any_job_runs(capsys, monkeypatch, command, dest, lowest, highest):
    reached = []

    def no_job(args):
        reached.append(args)
        return EXIT_OK, ""

    monkeypatch.setattr(cli, "run", no_job)
    flag = "--" + dest.replace("_", "-")
    cases = [] if lowest is None else [(lowest, lowest - 1)]
    cases += [] if highest is None else [(highest, highest + 1)]
    for limit, outside in cases:
        status, out, err = run_main(capsys, command, flag, str(outside))
        assert status == EXIT_USAGE
        assert out == ""
        assert flag in err
        assert ("must be positive" if limit == 1 else str(limit)) in err
    assert reached == []
    if highest is not None:
        assert run_main(capsys, command, flag, str(highest))[0] == EXIT_OK
        assert getattr(reached.pop(), dest) == highest


def test_readme_states_every_range_of_commands():
    # a limit changed in COMMANDS or in the README alone fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = [line.split("|") for line in readme.splitlines() if line.startswith("| `")]
    for name, command in COMMANDS.items():
        row = next(cells[2] for cells in table if f"`{name}`" in cells[1])
        for dest, spec in command.params.items():
            if isinstance(spec[0], str):
                continue
            default, lowest, highest = spec
            span = f"at least {lowest}" if highest is None else f"{lowest}–{highest}"
            flag = "--" + dest.replace("_", "-")
            assert f"`{flag}`: {'unset' if default is None else default}, {span}" in row, (name, flag)


def test_oracle_compare_rejects_negative_q_degree(capsys):
    status, out, err = run_main(capsys, "oracle-compare", "--q-degree", "-2", "--n-max", "2")
    assert status == EXIT_USAGE
    assert out == ""
    assert "--q-degree" in err
    status, out, _ = run_main(capsys, "oracle-compare", "--q-degree", "0", "--n-max", "2")
    assert status == EXIT_OK
    assert "agree=true" in out


def test_job_writes_nothing_to_its_working_directory(tmp_path):
    # a fresh interpreter, so no table memoized by an earlier test can hide a
    # write, with no environment variable but the import path; -B keeps its
    # bytecode out of src/
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "conifold.cli", "oracle-compare", "--framing", "0", "--n-max", "3"],
        cwd=tmp_path, env={"PYTHONPATH": SRC}, capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert list(tmp_path.iterdir()) == []


# modules a job must leave unloaded: every job is a fresh interpreter, which
# compiles and keeps each module it loads.  `dataclasses` and the `inspect` it
# imports would add about 20 ms to any job; `csv` and `json` are not needed to
# write a table, and a job loads only the package layers its command reads
JOB_LEAVES_UNLOADED = {
    "mirror-check --framing 3 --order 4": ("conifold.fock", "conifold.ovinv", "json"),
    "closed-string --order 3 --format csv": ("conifold.fock", "conifold.mirror", "conifold.ovinv", "json"),
    "genus0 --n-max 3 --framing 2 --format json": ("conifold.fock", "conifold.ovinv", "json"),
    "disc-e --m-max 3 --k-max 2 --format csv": ("conifold.fock", "json"),
    "correlator --n-max 3 --format json": ("conifold.amplitudes", "conifold.mirror", "conifold.ovinv", "json"),
    "oracle-compare --n-max 3": ("conifold.mirror", "conifold.ovinv", "json"),
    "ov-n --m-max 3": ("conifold.fock", "json"),
    "sequences --which dmm --count 5": ("conifold.fock", "conifold.mirror", "json"),
}


def test_jobs_import_neither_dataclasses_nor_inspect():
    script = textwrap.dedent("""
        import contextlib, io, sys
        from conifold import cli
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(sys.argv[1:])
        print(status, *sorted(sys.modules))
    """)
    for job, unloaded in JOB_LEAVES_UNLOADED.items():
        # one fresh interpreter per job, so no job's imports hide another's
        proc = subprocess.run(
            [sys.executable, "-B", "-c", script, *job.split()], env={"PYTHONPATH": SRC}, capture_output=True, text=True
        )
        assert proc.returncode == EXIT_OK, (job, proc.stderr)
        status, *modules = proc.stdout.split()
        assert int(status) == EXIT_OK and "conifold.cli" in modules, job
        assert sorted({"dataclasses", "inspect", "csv", *unloaded} & set(modules)) == [], job


def test_amplitudes_loads_without_the_operator_engine():
    proc = subprocess.run(
        [sys.executable, "-B", "-c", "import sys, conifold.amplitudes; print('conifold.fock' in sys.modules)"],
        env={"PYTHONPATH": SRC}, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_OK, "False\n"), proc.stderr


def test_no_tuple_is_built_from_an_iterator_of_unknown_length():
    # CPython 3.11's tuple() of an iterable with no length hint (a generator, or
    # map, zip or filter) allocates ten slots and shrinks them to the count; the
    # dead tuple is then parked in the free list for its final size, which keeps
    # up to 2,000 tuples for the life of the process.  A list comprehension in
    # tuple(), or a starred display, builds the tuple at its final size.
    found = []
    for path in sorted(Path(SRC, "conifold").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "tuple"
                    and len(node.args) == 1):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp) or (
                isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name) and arg.func.id in ("map", "zip", "filter")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_a_correlator_job_leaves_no_dead_tuples_behind():
    # a fresh interpreter: the free lists of this one are already full.  The
    # traced memory left after the job, less the document it returns, read
    # 617 - 215 = 401 KiB when each word, leaf and series exponent was built by
    # tuple() of a generator and the rows were decided on normal forms, and
    # 220 - 215 = 4 KiB with every per-term tuple built at its final size.  The
    # job's builder imports the operator engine; importing it first keeps the
    # module itself (about 46 KiB) out of the trace
    script = textwrap.dedent("""
        import tracemalloc
        from conifold import cli, fock
        args = cli.build_parser().parse_args("correlator --n-max 6 --format text".split())
        tracemalloc.start()
        status, chunks = cli.run(args)
        print(status, tracemalloc.get_traced_memory()[0] - sum(map(len, chunks)))
    """)
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script], env={"PYTHONPATH": SRC}, capture_output=True, text=True
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    status, held = map(int, proc.stdout.split())
    assert status == EXIT_OK
    assert held < 100 * 1024, held


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE


def test_byte_identical_reruns(capsys):
    args = ("oracle-compare", "--framing", "1", "--n-max", "3", "--format", "json")
    status1, out1, _ = run_main(capsys, *args)
    status2, out2, _ = run_main(capsys, *args)
    assert status1 == status2 == EXIT_OK
    assert out1 == out2


def test_correlator_command(capsys):
    status, out, _ = run_main(capsys, "correlator", "--n-max", "3", "--format", "json")
    assert status == EXIT_OK
    doc = json.loads(out)
    assert all(row["agree"] for row in doc["rows"])
    assert len(doc["rows"]) == 3 + 12 + 48  # 3 * 4^{n-1} words for n = 1, 2, 3


def _cli_correlator_words(monkeypatch, n_max):
    """(n, m, a) of every word the correlator command builds up to n_max."""
    words = []
    build = fock.beta_correlator_word

    def recorded(n, m, a):
        words.append((n, tuple(m), tuple(a)))
        return build(n, m, a)

    with monkeypatch.context() as patch:
        patch.setattr(fock, "beta_correlator_word", recorded)
        list(COMMANDS["correlator"].rows(build_parser().parse_args(["correlator", "--n-max", str(n_max)])))
    return words


def test_correlator_normal_forms_and_values_agree_on_every_cli_word(monkeypatch):
    # the command decides each row on the bracket arguments alone, so every word up
    # to the --n-max limit must reduce along one chain to the closed form's
    # arguments; normal forms and values are compared to n = 6
    words = _cli_correlator_words(monkeypatch, 7)
    assert len(words) == sum(3 * 4 ** (n - 1) for n in range(1, 8))
    for n, m, a in words:
        word = fock.beta_correlator_word(n, m, a)
        closed = fock.correlator_closed_args(n, m, a)
        terms = fock.correlator_terms(word)
        # one chain: the merges pick up the closed form's d_j, argument for argument
        assert terms == [closed], (n, m, a)
        if n <= 6:
            assert [bracket_normal(*t) for t in terms] == [bracket_normal(*closed)]
            assert fock.correlator_reduce(word) == fock.correlator_closed(n, m, a)


def test_correlator_builds_no_bracket_product_when_the_sides_agree(capsys, monkeypatch):
    def built(num_args, den_args):
        raise AssertionError("a bracket product was built")

    monkeypatch.setattr(fock, "bracket_ratio", built)
    # the value forms do read the patched name
    with pytest.raises(AssertionError):
        fock.correlator_closed(1, (1,), (1,))
    status, out, _ = run_main(capsys, "correlator", "--n-max", "4", "--format", "json")
    assert status == EXIT_OK
    rows = json.loads(out)["rows"]
    assert len(rows) == 3 + 12 + 48 + 192 and all(row["agree"] for row in rows)


def test_correlator_fails_a_shifted_closed_form_argument(capsys, monkeypatch):
    closed_args = fock.correlator_closed_args
    calls = []

    def shifted(n, m, a):
        calls.append(n)
        dets, den = closed_args(n, m, a)
        return dets[:-1] + (dets[-1] + 1,), den

    # cli and correlator_closed both read the name on the fock module
    monkeypatch.setattr(fock, "correlator_closed_args", shifted)
    assert "correlator mismatch" in _assert_verification_failure(capsys, "correlator", "--n-max", "3")
    assert calls


def test_correlator_fails_a_changed_sigma_in_the_reduction(capsys, monkeypatch):
    terms = fock.correlator_terms
    calls = []

    def negated_first_sigma(word):
        calls.append(word)
        return [((-num[0],) + num[1:], den) for num, den in terms(word)]

    # cli and correlator_reduce both read the name on the fock module
    monkeypatch.setattr(fock, "correlator_terms", negated_first_sigma)
    assert "correlator mismatch" in _assert_verification_failure(capsys, "correlator", "--n-max", "3")
    assert calls


def test_closed_string_command(capsys):
    status, out, _ = run_main(capsys, "closed-string", "--order", "3", "--format", "json")
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["rows"][0]["q_order"] == 3


def test_onepoint_json_round_trip(capsys):
    status, out, _ = run_main(capsys, "onepoint", "--framing", "-1", "--n-max", "2", "--format", "json")
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["meta"]["format_version"] == 1
    row = doc["rows"][0]
    # (1 + Q)/[1]: two Q-terms with identical rational-function values
    assert row["value"]["terms"][0][1] == row["value"]["terms"][1][1]


def test_numeric_flag_marks_lossy(capsys):
    status, out, _ = run_main(capsys, "genus0", "--n-max", "2", "--numeric", "--format", "json")
    assert status == EXIT_OK
    assert json.loads(out)["meta"]["numeric_lossy"] is True
    # the genus-zero series itself is decimal, not only marked lossy
    assert json.loads(out)["rows"][1]["value"]["terms"][0] == [[0], "-0.25"]
    # the dmm formula column is a Fraction, so it converts
    status, out, _ = run_main(capsys, "sequences", "--which", "dmm", "--count", "3", "--numeric")
    assert "lossy" in out
    status, out, err = run_main(capsys, "genus0", "--n-max", "2", "--numeric", "--format", "csv")
    assert status == EXIT_OK
    assert "lossy" in err


@pytest.mark.parametrize("argv", [("ov-n", "--m-max", "2"), ("sequences", "--count", "3"),
                                  ("mirror-check", "--order", "2"), ("onepoint", "--n-max", "2")],
                         ids=" ".join)
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_numeric_leaves_a_document_it_converts_nothing_in_unmarked(capsys, argv, fmt):
    # integers, booleans and bracket-ring values stay exact under --numeric
    exact = run_main(capsys, *argv, "--format", fmt)
    status, out, err = run_main(capsys, *argv, "--format", fmt, "--numeric")
    assert status == EXIT_OK
    assert (status, out, err) == exact
    assert "lossy" not in out + err
    if fmt == "json":
        assert "numeric_lossy" not in json.loads(out)["meta"]


def _table(count, long=False):
    """count rows of plain values; `long` makes the first row longer than a text block."""
    rows = [{"n": n, "m": [n, 1], "ok": n % 2 == 0, "name": f'row "{n}", {"x" * (n % 7)}'} for n in range(count)]
    if long and rows:
        rows[0]["name"] = "y" * (3 * BLOCK)
    return rows


def _reference_document(rows, fmt, meta):
    """The document of a whole table at once, from json.dumps, the csv module or the text lines."""
    if fmt == "json":
        return json.dumps({"meta": dict(meta, format_version=1), "rows": rows}, sort_keys=True, indent=2) + "\n"
    header = list(rows[0]) if rows else []
    cells = [[cli.text(row[h]) for h in header] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header] + cells)
        return buf.getvalue()
    head = f"# {meta['command']} {json.dumps(meta['parameters'], sort_keys=True)}\n"
    if meta.get("numeric_lossy"):
        head += "# numeric: lossy decimal approximations of exact values\n"
    return head + "".join("  ".join(f"{h}={c}" for h, c in zip(header, line)) + "\n" for line in cells)


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize("count, long, blocks", [(0, False, 0), (1, False, 0), (1, True, 1), (2000, False, 3)],
                         ids=["no rows", "one row", "one row longer than a block", "three blocks"])
def test_emit_table_chunks_join_to_the_whole_document(fmt, count, long, blocks):
    rows, meta = _table(count, long), {"command": "x", "parameters": {"count": count}}
    chunks = emit_table(iter(rows), fmt, meta)
    assert "".join(chunks) == _reference_document(rows, fmt, meta)
    assert sum(len(c) >= BLOCK for c in chunks) >= blocks


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_emit_table_of_a_lossy_numeric_view_marks_its_first_chunk(fmt):
    rows = [{"n": n, "value": Fraction(1, n + 2)} for n in range(3000)]
    meta = {"command": "x", "parameters": {}}
    chunks = emit_table(cli._numeric_rows(iter(rows), meta), fmt, meta)
    assert meta["numeric_lossy"] is True
    viewed = [{"n": row["n"], "value": float(row["value"])} for row in rows]
    if fmt == "json":
        viewed = [dict(row, value=repr(row["value"])) for row in viewed]
    assert "".join(chunks) == _reference_document(viewed, fmt, meta)
    assert len(chunks) > 3
    marker = {"json": '"numeric_lossy": true', "text": "# numeric: lossy", "csv": "n,value\n"}[fmt]
    assert marker in chunks[0]


def test_emit_table_empty_rows_csv():
    assert "".join(emit_table([], "csv", {"command": "x", "parameters": {}})) == "\n"


def test_correlator_csv_quotes_its_list_cells(capsys):
    status, out, _ = run_main(capsys, "correlator", "--n-max", "3", "--format", "csv")
    assert status == EXIT_OK
    header, *records = list(csv.reader(out.splitlines()))
    assert header == ["n", "m", "mult", "agree"]
    assert records[3] == ["2", "[1, 1]", "[1, 1]", "true"]
    _, doc, _ = run_main(capsys, "correlator", "--n-max", "3", "--format", "json")
    rows = json.loads(doc)["rows"]
    assert len(records) == len(rows) == 3 + 12 + 48
    for record, row in zip(records, rows):
        assert len(record) == 4, record
        assert json.loads(record[1]) == row["m"] and json.loads(record[2]) == row["mult"], record
        assert sum(row["m"]) == int(record[0]) and len(row["mult"]) == len(row["m"])


def test_emit_table_csv_doubles_inner_quotes():
    rows = [{"a": 'say "hi", then stop', "b": 1, "c": 'x"y'}, {"a": "two\nlines", "b": 2, "c": ""}]
    out = "".join(emit_table(rows, "csv", {"command": "x", "parameters": {}}))
    assert out == 'a,b,c\n"say ""hi"", then stop",1,"x""y"\n"two\nlines",2,\n'
    assert list(csv.reader(io.StringIO(out)))[1:] == [['say "hi", then stop', "1", 'x"y'], ["two\nlines", "2", ""]]


def test_run_direct_jobspec():
    status, chunks = run(build_parser().parse_args(["genus0", "--framing", "2", "--n-max", "2", "--format", "csv"]))
    assert status == EXIT_OK
    assert "".join(chunks).splitlines()[0] == "a,n,value"


def _small_job(name):
    """argv for a small JSON job of a command: each bounded size at its lowest."""
    argv = [name, "--format", "json"]
    for dest, spec in COMMANDS[name].params.items():
        if not isinstance(spec[0], str) and spec[1] is not None and dest != "q_degree":
            argv += ["--" + dest.replace("_", "-"), str(max(spec[1], 2))]
    return argv


def _assert_indented_json(out):
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


@pytest.mark.parametrize(
    "argv",
    [_small_job(name) for name in COMMANDS]
    + [["sequences", "--which", "dmm", "--count", "9", "--format", "json"],
       ["disc-e", "--framing", "1", "--m-max", "4", "--k-max", "3", "--format", "json", "--numeric"]],
    ids=" ".join,
)
def test_json_documents_are_json_dumps_with_sorted_keys_and_indent_2(capsys, argv):
    status, out, _ = run_main(capsys, *argv)
    assert status == EXIT_OK
    _assert_indented_json(out)


def test_verification_failure_report_is_json_dumps_with_sorted_keys_and_indent_2(capsys):
    status, _, err = run_main(capsys, "disc-d", "--framing", "1", "--m-max", "2", "--k-max", "2")
    assert status == EXIT_VERIFICATION
    _assert_indented_json(err)
