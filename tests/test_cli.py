"""Exit-code contract, determinism, user scenario files."""

import hashlib
import json

import pytest

from coniveau.cli import EXIT_MATH_FAIL, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_verify_g2(capsys):
    code, body = run_json(capsys, "verify", "g2", "--I", "1")
    assert code == EXIT_OK
    assert body["certificate"]["value"] == "w7"
    assert body["schema_version"] == 1


def test_verify_unknown_scenario(capsys):
    code, body = run_json(capsys, "verify", "no-such-scenario")
    assert code == EXIT_USAGE
    assert "error" in body


def test_missing_parameter(capsys):
    code, body = run_json(capsys, "verify", "elementary", "--n", "3")
    assert code == EXIT_USAGE


def test_dh_table_elementary(capsys):
    code, body = run_json(capsys, "dh-table", "elementary", "--p", "2", "--n", "3")
    assert code == EXIT_OK
    assert len(body["dh_table"]["rows"]) == 4
    assert body["dh_table"]["bound_kind"] == "equality"


def test_dh_table_elementary_capped_is_lower_bound(capsys):
    # --cap 3 leaves out the degree-4 candidate Q0(x1*x2*x3), so the three
    # certified rows bound the table from below only
    code, body = run_json(capsys, "dh-table", "elementary", "--p", "2", "--n", "3", "--cap", "3")
    assert code == EXIT_OK
    rows = body["dh_table"]["rows"]
    assert len(rows) == 3
    assert all(r["witness"] is not None for r in rows)
    assert body["dh_table"]["bound_kind"] == "lower-bound"


def test_dh_table_prime_above_bound(capsys):
    code, body = run_json(capsys, "dh-table", "elementary", "--p", "4294967311", "--n", "2")
    assert code == EXIT_USAGE
    assert "maximum" in body["error"]


def test_dh_table_elementary_with_uncertified_row(capsys):
    code, body = run_json(capsys, "dh-table", "elementary", "--p", "5", "--n", "4")
    assert code == EXIT_OK
    rows = body["dh_table"]["rows"]
    assert sum(r["witness"] is not None for r in rows) == len(rows) - 1
    assert body["dh_table"]["bound_kind"] == "lower-bound"


def test_stable_quotient(capsys):
    code, body = run_json(capsys, "stable-quotient", "so", "--m", "2")
    assert code == EXIT_OK
    assert body["stable_quotient"]["declared"] == ["1", "w2", "w4"]


def test_hilbert_and_cap_guard(capsys):
    code, body = run_json(capsys, "hilbert", "g2", "--cap", "10")
    assert code == EXIT_OK
    assert body["hilbert"]["dimensions"][0] == 1
    code, body = run_json(capsys, "hilbert", "g2", "--cap", "99")
    assert code == EXIT_USAGE


def test_qop(capsys):
    code, body = run_json(
        capsys, "qop", "elementary", "--p", "3", "--n", "2", "--I", "0", "--element", "x1*x2"
    )
    assert code == EXIT_OK
    assert body["qop"]["value"] == "y1*x2 + 2*y2*x1"
    # cap overflow is a usage refusal, not a silent truncation
    code, body = run_json(
        capsys, "qop", "elementary", "--p", "3", "--n", "2", "--I", "2", "--element", "y1^15*x1"
    )
    assert code == EXIT_USAGE


def test_rost_ok_and_negative_control(capsys):
    code, body = run_json(capsys, "rost", "--n", "2")
    assert code == EXIT_OK
    assert body["dh_check"]["verdict"] == "DH=0"
    code, body = run_json(capsys, "rost", "--n", "2", "--force-n1", "4")
    assert code == EXIT_MATH_FAIL
    assert body["dh_check"]["verdict"] == "cannot conclude"


def test_rost_parameter_above_bound(capsys):
    code, body = run_json(capsys, "rost", "--n", "11")
    assert code == EXIT_USAGE
    assert "maximum 10" in body["error"]
    assert "rost_ring" not in body


def test_verify_pgl(capsys):
    code, body = run_json(capsys, "verify", "pgl", "--p", "3")
    assert code == EXIT_OK
    assert body["certificate"]["value"] == "x8"


def test_verify_inconclusive_is_math_fail(capsys):
    code, body = run_json(
        capsys, "verify", "g2", "--element", "w7", "--I", "1"
    )
    assert code == EXIT_MATH_FAIL
    assert body["certificate"]["verdict"] == "inconclusive"


def test_determinism_byte_identical(capsys):
    _, first = run(capsys, "dh-table", "elementary", "--p", "3", "--n", "3")
    _, second = run(capsys, "dh-table", "elementary", "--p", "3", "--n", "3")
    assert first == second
    _, r1 = run(capsys, "rost", "--n", "3")
    _, r2 = run(capsys, "rost", "--n", "3")
    assert r1 == r2


def test_markdown_format(capsys):
    code, out = run(capsys, "verify", "g2", "--format", "markdown")
    assert code == EXIT_OK
    assert out.startswith("#") and "w7" in out


def test_list(capsys):
    code, body = run_json(capsys, "list")
    assert code == EXIT_OK
    names = [s["name"] for s in body["scenarios"]]
    assert "g2" in names and "so(m=2)" in names


def test_output_file(tmp_path, capsys):
    target = tmp_path / "cert.json"
    code = main(["verify", "g2", "--I", "1", "--output", str(target)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert json.loads(target.read_text())["certificate"]["value"] == "w7"


USER_SCENARIO = """\
prime 3
cap 20
gen y1 2
gen y2 2
gen x1 1 odd
gen x2 1 odd
Q 0 x1 = y1
Q 0 x2 = y2
Q 1 x1 = y1^3
Q 1 x2 = y2^3
Q 0 y1 = 0
Q 0 y2 = 0
Q 1 y1 = 0
Q 1 y2 = 0
chern y1 = y1
chern y2 = y2
alias beta = x1*x2
"""


def test_user_scenario_file(tmp_path, capsys):
    path = tmp_path / "rank2.pres"
    path.write_text(USER_SCENARIO)
    code, body = run_json(
        capsys, "qop", str(path), "--I", "0", "--element", "beta"
    )
    assert code == EXIT_OK
    assert body["qop"]["value"] == "y1*x2 + 2*y2*x1"


def test_user_scenario_validation_failure(tmp_path, capsys):
    bad = USER_SCENARIO.replace("Q 0 x1 = y1", "Q 0 x1 = x1*x2")
    path = tmp_path / "bad.pres"
    path.write_text(bad)
    code, body = run_json(capsys, "qop", str(path), "--I", "0", "--element", "x1")
    assert code == EXIT_USAGE
    assert "validation" in body["error"]


def test_user_scenario_prime_above_bound(tmp_path, capsys):
    path = tmp_path / "big.pres"
    path.write_text(USER_SCENARIO.replace("prime 3", "prime 4294967311"))
    code, body = run_json(capsys, "hilbert", str(path), "--cap", "4")
    assert code == EXIT_USAGE
    assert "maximum" in body["error"]


def test_user_scenario_parse_error_position(tmp_path, capsys):
    path = tmp_path / "broken.pres"
    path.write_text("prime 3\ncap 8\ngen x 1\nrel x + ?\n")
    code, body = run_json(capsys, "qop", str(path), "--I", "0", "--element", "x")
    assert code == EXIT_USAGE
    assert "line 4" in body["error"]


def test_scenario_search_path(tmp_path, capsys, monkeypatch):
    (tmp_path / "inner.pres").write_text(USER_SCENARIO)
    monkeypatch.setenv("CONIVEAU_SCENARIO_PATH", str(tmp_path))
    code, body = run_json(capsys, "hilbert", "inner.pres", "--cap", "4")
    assert code == EXIT_OK
    assert body["hilbert"]["dimensions"] == [1, 2, 3, 4, 5]


def test_output_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CONIVEAU_OUTPUT_DIR", str(tmp_path))
    code = main(["verify", "g2", "--I", "1", "--output", "cert.json"])
    capsys.readouterr()
    assert code == EXIT_OK
    assert (tmp_path / "cert.json").exists()


def test_markdown_dh_table(capsys):
    code, out = run(capsys, "dh-table", "so", "--m", "2", "--format", "markdown")
    assert code == EXIT_OK
    assert "| " in out and "w3" in out and "w5" in out


GOLDEN_REPORT_SHA256 = "eb010dc1fd7b9f2dacc685050c8fad228301d5860211b566ae0fcd7b4dee9b45"


def test_report_all_golden_hash(capsys):
    # the reproduction's correctness gate: every certificate, table, quotient
    # and quadric verdict of `report --all`, byte for byte
    code, out = run(capsys, "report", "--all")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORT_SHA256


# `rost --n k` stdout for parameters above the report's n = 2, 3, 4
GOLDEN_ROST_SHA256 = {
    6: "9d7d7da11fdf14c15c8c46c7c596c4cb98501094870eda01965cfa652ed9fd91",
    7: "e185d16a21a3aaf661797f7eecae92c31398d8386d129dfe7eea0bb5f4195389",
    8: "96b22a30e875d81d7623480efa93cf5938f57147d0db56fa1fa437476b1bb462",
}


@pytest.mark.parametrize("n", sorted(GOLDEN_ROST_SHA256))
def test_rost_golden_hash(capsys, n):
    code, out = run(capsys, "rost", "--n", str(n))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ROST_SHA256[n]
