import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conifold import amplitudes, ovinv, partitions
from conifold.cli import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    build_parser,
    emit_table,
    main,
    run,
)
from conifold.series import TruncatedSeries


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
    monkeypatch.setattr(ovinv, "disc_d", lambda a, k, m: ovinv.DiscInvariant(a, k, m, Fraction(7)))
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
    assert "anchor polynomial" in json.loads(err)["error"]["message"]


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


def test_mirror_check_rejects_framing_minus_one(capsys):
    status, _, err = run_main(capsys, "mirror-check", "--framing", "-1", "--order", "4")
    assert status == EXIT_USAGE
    assert "framing -1" in err


def test_mirror_check_ok(capsys):
    status, out, _ = run_main(capsys, "mirror-check", "--framing", "0", "--order", "6")
    assert status == EXIT_OK
    assert "ok=true" in out


def test_mirror_check_fails_a_product_that_drops_the_x_edge(capsys, monkeypatch):
    # a series product that loses every term at x^order must fail the check
    mul = TruncatedSeries.__mul__

    def dropping(self, other):
        out = mul(self, other)
        if isinstance(other, TruncatedSeries):
            out.terms = {e: c for e, c in out.terms.items() if e[0] != out.orders[0]}
        return out

    monkeypatch.setattr(TruncatedSeries, "__mul__", dropping)
    for framing in ("2", "-3"):
        for order in ("6", "1"):
            status, out, err = run_main(capsys, "mirror-check", "--framing", framing, "--order", order)
            assert status == EXIT_VERIFICATION, (framing, order)
            assert out == ""
            error = json.loads(err)["error"]
            assert error["kind"] == "verification-failure"
            if order == "1":
                # at order 1 the fault surfaces as a ValueError inside the reversion
                assert "reversion needs an invertible linear coefficient" in error["message"]


def test_oracle_compare_fails_a_corrupted_character_value(capsys, monkeypatch):
    # a wrong chi_(3,1,1)((2,2,1)) lies in a hook row, which the oracle's twist reads
    value = partitions.CharacterTable.value

    def corrupted(self, nu, mu):
        chi = value(self, nu, mu)
        return chi + 1 if (tuple(nu), tuple(mu)) == ((3, 1, 1), (2, 2, 1)) else chi

    monkeypatch.setattr(partitions.CharacterTable, "value", corrupted)
    status, out, err = run_main(capsys, "oracle-compare", "--framing", "1", "--n-max", "5")
    assert status == EXIT_VERIFICATION
    assert out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "verification-failure"
    assert "oracle disagreement" in error["message"]


def test_usage_error_on_bad_bound(capsys):
    status, _, err = run_main(capsys, "onepoint", "--n-max", "0")
    assert status == EXIT_USAGE
    assert "must be positive" in err


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
    # write, with no environment variable but the import path
    env = {"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "conifold.cli", "oracle-compare", "--framing", "0", "--n-max", "3"],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert list(tmp_path.iterdir()) == []


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
    status, out, _ = run_main(capsys, "sequences", "--count", "3", "--numeric")
    assert "lossy" in out


def test_emit_table_empty_rows_csv():
    assert emit_table([], "csv", {"command": "x", "parameters": {}}) == "\n"


def test_run_direct_jobspec():
    status, doc = run(build_parser().parse_args(["genus0", "--framing", "2", "--n-max", "2", "--format", "csv"]))
    assert status == EXIT_OK
    assert doc.splitlines()[0] == "a,n,value"
