"""Exit-code contract, determinism, user scenario files."""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from coniveau.cli import EXIT_MATH_FAIL, EXIT_OK, EXIT_USAGE, main

SRC = Path(__file__).resolve().parents[1] / "src"


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


@pytest.mark.parametrize("degree", ["6", "-4", "400", "4,30"])
def test_rost_refuses_forced_degree_of_no_generator(capsys, degree):
    # n = 3 has torsion generators in degrees 4, 8, 12 only; a mistyped
    # negative control must not pass as DH=0
    code, body = run_json(capsys, "rost", "--n", "3", "--force-n1", degree)
    assert code == EXIT_USAGE
    assert "4i, 1 <= i < 4" in body["error"]
    assert "dh_check" not in body


def test_qop_negative_operation_index(capsys):
    code, body = run_json(
        capsys, "qop", "elementary", "--p", "2", "--n", "2", "--I", "-1", "--element", "x1"
    )
    assert code == EXIT_USAGE
    assert body["error"] == "operation index -1 outside 0..4"


def test_rost_parameter_above_bound(capsys):
    code, body = run_json(capsys, "rost", "--n", "11")
    assert code == EXIT_USAGE
    assert "maximum 10" in body["error"]
    assert "rost_ring" not in body


def test_verify_pgl(capsys):
    code, body = run_json(capsys, "verify", "pgl", "--p", "3")
    assert code == EXIT_OK
    assert body["certificate"]["value"] == "x8"


def test_verify_pgl_refuses_other_targets(capsys):
    # the label module certifies Q0u2 by the sequence (1) and nothing else
    code, body = run_json(capsys, "verify", "pgl", "--p", "3", "--I", "0,2", "--element", "u2")
    assert code == EXIT_USAGE
    assert "Q0u2" in body["error"] and "certificate" not in body
    code, body = run_json(capsys, "verify", "pgl", "--p", "3", "--I", "2")
    assert code == EXIT_USAGE
    assert "sequence 1" in body["error"]
    code, body = run_json(capsys, "verify", "pgl", "--p", "3", "--I", "1", "--element", "Q0u2")
    assert code == EXIT_OK
    assert body["certificate"]["sequence"] == [1]


def test_dh_table_pgl_honours_cap(capsys):
    code, body = run_json(capsys, "dh-table", "pgl", "--p", "3", "--cap", "2")
    assert code == EXIT_OK
    assert body["dh_table"]["rows"] == []
    assert body["dh_table"]["bound_kind"] == "lower-bound"
    code, body = run_json(capsys, "dh-table", "pgl", "--p", "3", "--cap", "3")
    assert [r["degree"] for r in body["dh_table"]["rows"]] == [3]


def test_extraspecial_e_refuses_other_primes(capsys, monkeypatch):
    # Q_2 on the degree-3 candidates lands in degree 2p^2+2 = 52 at p = 5,
    # above the cover's cap 24: refused before any ring is built
    from coniveau import certificates

    def no_build(*args):
        raise AssertionError("a ring was built")

    monkeypatch.setattr(certificates, "_elementary_pres", no_build)
    code, body = run_json(capsys, "verify", "extraspecial-e", "--n", "2", "--p", "5")
    assert code == EXIT_USAGE
    assert "--p 5" in body["error"] and "24" in body["error"] and "52" in body["error"]
    assert "certificate" not in body


@pytest.mark.parametrize("family, flag, last", [("so", "--m", 15), ("extraspecial-d", "--n", 3)])
def test_family_parameter_bound(capsys, family, flag, last):
    # the last value answers; the next one is refused by name, where it used
    # to fail on a degree cap ("degree 66 above cap 64", "degree cap below a
    # generator degree")
    code, body = run_json(capsys, "hilbert", family, flag, str(last), "--cap", "4")
    assert code == EXIT_OK
    code, body = run_json(capsys, "hilbert", family, flag, str(last + 1), "--cap", "4")
    assert code == EXIT_USAGE
    assert f"takes no {flag} {last + 1}" in body["error"] and f"at most {last}" in body["error"]
    assert "hilbert" not in body


def test_extraspecial_e_parameter_bound(capsys):
    # n = 24 passes the parameter gate: at --cap 4 its page is refused by a
    # budget of degree 4, as every n >= 13 is (the relation matrix's cells
    # through n = 19, the monomial list's entries from n = 20); 25 is refused
    # by name before anything is built
    code, body = run_json(capsys, "hilbert", "extraspecial-e", "--n", "24", "--cap", "4")
    assert code == EXIT_USAGE
    assert "degree 4: the monomial list would hold 249900 monomials" in body["error"]
    code, body = run_json(capsys, "hilbert", "extraspecial-e", "--n", "25", "--cap", "4")
    assert code == EXIT_USAGE
    assert "takes no --n 25" in body["error"] and "at most 24" in body["error"]
    assert "hilbert" not in body


def test_elementary_parameter_bound(capsys):
    # n = 10 answers; above it the rank is refused by name before any of the
    # 2^n - n - 1 candidates is built, where --n 30 used to grow past 3 GiB
    code, body = run_json(capsys, "hilbert", "elementary", "--p", "2", "--n", "10", "--cap", "4")
    assert code == EXIT_OK
    for n, candidates in (("11", 2036), ("30", 1073741793)):
        start = time.perf_counter()
        code, body = run_json(capsys, "hilbert", "elementary", "--p", "3", "--n", n, "--cap", "8")
        assert time.perf_counter() - start < 5
        assert code == EXIT_USAGE
        assert f"takes no --n {n}" in body["error"] and "at most 10" in body["error"]
        assert f"{candidates} candidates" in body["error"]
        assert "hilbert" not in body


def test_hilbert_refuses_negative_cap(capsys):
    # a negative cap is refused by name, not answered with no dimensions
    code, body = run_json(capsys, "hilbert", "g2", "--cap", "-3")
    assert code == EXIT_USAGE
    assert "--cap -3" in body["error"]
    assert "hilbert" not in body


@pytest.mark.parametrize("scenario", [("elementary", "--p", "3", "--n", "2"), ("pgl", "--p", "3")])
def test_dh_table_refuses_negative_cap(capsys, scenario):
    # refused by name as for hilbert, where it printed an empty lower-bound
    # table with exit code 0
    code, body = run_json(capsys, "dh-table", *scenario, "--cap", "-5")
    assert code == EXIT_USAGE
    assert "dh-table takes no --cap -5" in body["error"]
    assert "dh_table" not in body


def test_commands_that_read_no_candidates_build_none(capsys, monkeypatch):
    # the builders run anew, past their lru caches, and any candidate build
    # fails the command
    from coniveau import certificates

    refusal = ("hilbert", "extraspecial-e", "--n", "24", "--p", "3", "--cap", "4")
    _, refused = run_json(capsys, *refusal)

    def no_candidates(*args):
        raise AssertionError("candidates built")

    for builder in ("elementary_abelian", "so_odd", "g2_scenario", "simply_connected",
                    "extraspecial_e", "extraspecial_d"):
        monkeypatch.setattr(certificates, builder, getattr(certificates, builder).__wrapped__)
    monkeypatch.setattr(certificates, "_pair_candidates", no_candidates)
    monkeypatch.setattr(certificates, "_elementary_candidates", no_candidates)
    for argv in (
        ("list",),
        ("hilbert", "extraspecial-e", "--n", "2", "--cap", "8"),
        ("stable-quotient", "elementary", "--p", "2", "--n", "4"),
    ):
        code, body = run_json(capsys, *argv)
        assert code == EXIT_OK, argv
    code, body = run_json(capsys, *refusal)
    assert code == EXIT_USAGE
    assert body == refused
    assert "degree 4: the monomial list would hold 249900 monomials" in body["error"]


def test_family_refuses_foreign_parameter(capsys):
    code, body = run_json(capsys, "hilbert", "g2", "--p", "7")
    assert code == EXIT_USAGE
    assert "--p" in body["error"] and "hilbert" not in body
    code, body = run_json(capsys, "verify", "so", "--m", "1", "--n", "2")
    assert code == EXIT_USAGE
    assert "--n" in body["error"]


def test_verify_inconclusive_is_math_fail(capsys):
    code, body = run_json(
        capsys, "verify", "g2", "--element", "w7", "--I", "1"
    )
    assert code == EXIT_MATH_FAIL
    assert body["certificate"]["verdict"] == "inconclusive"


@pytest.mark.parametrize(
    "family", [("extraspecial-e", "--n", "2", "--p", "3"), ("extraspecial-d", "--n", "2")],
    ids=["e", "d"],
)
def test_verify_candidate_label_keeps_its_maps(capsys, family):
    # a candidate's label given to --element brings the candidate's declared
    # restriction, so it certifies the class as the default verify does
    code, default = run_json(capsys, "verify", *family)
    assert code == EXIT_OK
    code, body = run_json(capsys, "verify", *family, "--element", "Q0(x1*x3)", "--I", "1")
    assert code == EXIT_OK
    assert body["certificate"] == default["certificate"]


def test_package_import_loads_only_the_kernel():
    # the package root exports backend_name and __version__ only; importing
    # it loads no other package module
    script = (
        "import sys, coniveau\n"
        "mods = sorted(m for m in sys.modules if m.startswith('coniveau.'))\n"
        "print(mods, coniveau.backend_name())\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['coniveau._kernels'] sparse"


def test_well_formed_commands_load_no_argparse():
    # a well-formed argv is read off the command table; argparse, and the
    # gettext catalogue lookups it makes, load only for help and errors
    script = (
        "import sys\n"
        "from coniveau import cli\n"
        "def loaded():\n"
        "    mods = sorted(m for m in ('argparse', 'gettext') if m in sys.modules)\n"
        "    print(mods, file=sys.stderr)\n"
        "for argv in (['list'], ['verify', 'g2', '--I', '1']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "loaded()\n"
        "cli.main(['hilbert', 'g2', '--cap', '-1'])  # a value starting with '-'\n"
        "loaded()\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["[]", "['argparse', 'gettext']"], proc.stderr


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


ALPHA = "alias alpha = y1*x2 + 2*y2*x1\n"  # Q_0(x1*x2)


def test_user_scenario_zero_chern_flag_ignored(tmp_path, capsys):
    # a zero flag spans nothing; it used to crash on its missing degree
    bodies = []
    for name, extra in (("plain", ""), ("zero", "chern c1 = 0\n")):
        (tmp_path / name).mkdir()
        path = tmp_path / name / "user.pres"  # the scenario is named after the file
        path.write_text(USER_SCENARIO + ALPHA + extra)
        code, body = run_json(capsys, "verify", str(path), "--element", "alpha", "--I", "1")
        assert code == EXIT_OK
        bodies.append(body)
    assert bodies[0]["certificate"] == bodies[1]["certificate"]
    assert bodies[0]["scenario"]["hash"] != bodies[1]["scenario"]["hash"]


def test_user_scenario_chern_flag_must_be_q0_cycle(tmp_path, capsys):
    # Q 0 x1 = y1, so x1 is no reduction of an integral class: single
    # flags and flag products would span different ideals
    path = tmp_path / "cycle.pres"
    path.write_text(USER_SCENARIO + ALPHA + "chern c1 = x1\n")
    code, body = run_json(capsys, "verify", str(path), "--element", "alpha", "--I", "1")
    assert code == EXIT_USAGE
    assert "c1" in body["error"] and "Q_0" in body["error"]
    assert "certificate" not in body


def test_user_scenario_constant_chern_flag(tmp_path, capsys):
    # the unit as a flag puts the whole Bockstein kernel in the Chern span;
    # enumerating flag products never ended on it
    path = tmp_path / "unit.pres"
    path.write_text(USER_SCENARIO + ALPHA + "chern c0 = 1\n")
    code, body = run_json(capsys, "verify", str(path), "--element", "alpha", "--I", "1")
    assert code == EXIT_MATH_FAIL
    assert body["certificate"]["verdict"] == "rejected-chern"


def test_scenario_directory_refused(tmp_path, capsys):
    code, body = run_json(capsys, "verify", str(tmp_path), "--I", "1")
    assert code == EXIT_USAGE
    assert str(tmp_path) in body["error"]


def test_unwritable_output_goes_to_stdout(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "x.json"
    code, body = run_json(capsys, "list", "--output", str(target))
    assert code == EXIT_USAGE and body["exit_code"] == EXIT_USAGE
    assert str(target) in body["error"]
    assert body["scenarios"] and list(body)[-1] == "exit_code"
    assert not target.parent.exists()


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


def test_user_scenario_refuses_family_parameters(tmp_path, capsys):
    path = tmp_path / "rank2.pres"
    path.write_text(USER_SCENARIO)
    code, body = run_json(capsys, "hilbert", str(path), "--p", "7", "--m", "3", "--cap", "4")
    assert code == EXIT_USAGE
    assert "--m, --p" in body["error"] and "hilbert" not in body
    code, body = run_json(capsys, "verify", str(path), "--n", "2", "--element", "beta")
    assert code == EXIT_USAGE
    assert "--n" in body["error"] and "certificate" not in body


def test_user_scenario_hash_covers_every_line(tmp_path, capsys):
    # the Q table, aliases and n1 declarations all reach the provenance hash
    variants = {
        "base": USER_SCENARIO,
        "q-coefficient": USER_SCENARIO.replace("Q 1 x1 = y1^3", "Q 1 x1 = 2*y1^3"),
        "alias": USER_SCENARIO + "alias gamma = x1\n",
        "n1": USER_SCENARIO + "n1 delta = y1\n",
    }
    hashes = {}
    for name, text in variants.items():
        path = tmp_path / f"{name}.pres"
        path.write_text(text)
        code, body = run_json(capsys, "hilbert", str(path), "--cap", "4")
        assert code == EXIT_OK
        hashes[name] = body["scenario"]["hash"]
    assert len(set(hashes.values())) == len(variants), hashes
    code, body = run_json(capsys, "hilbert", str(tmp_path / "base.pres"), "--cap", "4")
    assert body["scenario"]["hash"] == hashes["base"]


# five degree-2 generators over F_3, relations in degrees 4..12: the degree-26
# relation matrix would have 2380 columns x 3906 rows = 9,296,280 cells
OVER_BUDGET = """\
prime 3
cap 28
gen y1 2
gen y2 2
gen y3 2
gen y4 2
gen y5 2
rel y1^2 + y2*y3
rel y2^3 + y1*y4*y5
rel y3^4 + y1*y2*y4*y5
rel y4^5 + y5*y1^4
rel y5^6 + y1^3*y2^3
"""


def test_user_scenario_over_cell_budget(tmp_path, capsys):
    path = tmp_path / "wide.pres"
    path.write_text(OVER_BUDGET)
    code, body = run_json(capsys, "hilbert", str(path), "--cap", "28")
    assert code == EXIT_USAGE
    assert "degree 26" in body["error"] and "9296280 cells" in body["error"]
    assert "hilbert" not in body
    # below the refused degree the same file runs
    code, body = run_json(capsys, "hilbert", str(path), "--cap", "24")
    assert code == EXIT_OK
    assert body["hilbert"]["dimensions"][:5] == [1, 0, 5, 0, 14]


def test_user_scenario_over_monomial_budget(tmp_path, capsys):
    # no relations, so no relation matrix: the monomial list itself is refused.
    # Degree 3 of 120 degree-1 generators would hold 295,240 x 120 exponents
    path = tmp_path / "many.pres"
    path.write_text("prime 2\ncap 3\n" + "".join(f"gen x{i} 1\n" for i in range(1, 121)))
    code, body = run_json(capsys, "hilbert", str(path), "--cap", "3")
    assert code == EXIT_USAGE
    assert "degree 3" in body["error"] and "295240 monomials" in body["error"]
    assert "hilbert" not in body
    code, body = run_json(capsys, "hilbert", str(path), "--cap", "2")
    assert code == EXIT_OK
    assert body["hilbert"]["dimensions"] == [1, 120, 7260]


def test_user_scenario_over_basis_budget(tmp_path, capsys):
    # 32 degree-1 generators and all 528 products of two as relations: the
    # degree-2 matrix has only 528 x 528 cells, but its 528 pivots are all
    # new basis elements, above the budget of 500
    path = tmp_path / "products.pres"
    gens = range(1, 33)
    path.write_text(
        "prime 2\ncap 3\n"
        + "".join(f"gen x{i} 1\n" for i in gens)
        + "".join(f"rel x{i}*x{j}\n" for i in gens for j in gens if i <= j)
    )
    start = time.perf_counter()
    code, body = run_json(capsys, "hilbert", str(path), "--cap", "3")
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert "degree 2" in body["error"] and "528 elements" in body["error"]
    assert "budget of 500 basis elements" in body["error"]
    assert "hilbert" not in body
    code, body = run_json(capsys, "hilbert", str(path), "--cap", "1")
    assert code == EXIT_OK
    assert body["hilbert"]["dimensions"] == [1, 32]


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


# lines a hand-written file might get wrong, one put into a fifth of the files
BAD_LINES = (
    "gen", "gen x9 -1", "gen x9 2 odd", "prime 4", "cap -3", "rel x1 +", "rel zz",
    "Q 40 x1 = 0", "Q 0 x1 = x1 = x1", "alias = x1", "chern c = x1^", "bogus line",
    "rel x1^99999999999", "rel (1 + x1)^99999999999", "rel (x1", "gen x1 1",
)


def random_presentation(rng):
    """Text of a small random presentation file, with a random command to
    run on it: mostly well formed, sometimes with a bad line."""
    p = rng.choice((2, 3, 5))
    gens = [(f"x{k}", rng.randint(1, 3)) for k in range(1, rng.randint(1, 4) + 1)]
    by_degree = {}
    for name, d in gens:
        by_degree.setdefault(d, set()).add(name)
    for _ in range(12):
        factors = sorted(rng.choice(gens) for _ in range(rng.randint(1, 3)))
        odd = [name for name, d in factors if d % 2 and p > 2]
        if len(odd) == len(set(odd)):  # odd classes square to zero at odd p
            mono = "*".join(name for name, _ in factors)
            by_degree.setdefault(sum(d for _, d in factors), set()).add(mono)

    def expression(degree=None):
        if degree is None:
            degree = rng.choice(sorted(by_degree))
        monos = sorted(by_degree.get(degree, ()))
        if not monos:
            return "0"
        picked = rng.sample(monos, rng.randint(1, min(3, len(monos))))
        return " + ".join(f"{rng.randint(1, p - 1)}*{m}" for m in picked)

    lines = [f"prime {p}", f"cap {rng.randint(6, 14)}"]
    lines += [f"gen {name} {d}" for name, d in gens]
    lines += [f"rel {expression()}" for _ in range(rng.randint(0, 3))]
    if rng.random() < 0.7:
        for i in range(rng.randint(1, 2)):
            for name, d in gens:
                value = expression(d + 2 * p**i - 1) if rng.random() < 0.3 else "0"
                lines.append(f"Q {i} {name} = {value}")
    for keyword, name in (("alias", "alpha"), ("chern", "c1"), ("n1", "u")):
        if rng.random() < 0.3:
            lines.append(f"{keyword} {name} = {expression()}")
    if rng.random() < 0.2:
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(BAD_LINES))
    element = rng.choice(["alpha", "x1", "x1*x2", "1", "x1^2"])
    argv = rng.choice([
        ["hilbert", "--cap", str(rng.randint(0, 10))],
        ["stable-quotient"],
        ["dh-table"],
        ["qop", "--I", rng.choice(["0", "1", "0,1"]), "--element", element],
        ["verify", "--element", element, "--I", rng.choice(["1", "0,1"])],
    ])
    return "\n".join(lines) + "\n", argv


def test_random_presentation_files(tmp_path, capsys):
    # every random file ends in a JSON body with an exit code of 0, 1 or 2,
    # never a traceback, and quickly
    rng = random.Random(0xF11E)
    path = tmp_path / "random.pres"
    codes = []
    for _ in range(150):
        text, argv = random_presentation(rng)
        path.write_text(text)
        argv = [argv[0], str(path), *argv[1:]]
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code in (EXIT_OK, EXIT_MATH_FAIL, EXIT_USAGE), (argv, text)
        body = json.loads(out)
        assert isinstance(body, dict) and body["exit_code"] == code, (argv, text)
        assert elapsed < 2.0 and len(out) < 200_000, (argv, text, elapsed, len(out))
        codes.append(code)
    # the files reach the commands' verdicts, not only their refusals
    assert min(codes.count(code) for code in (EXIT_OK, EXIT_MATH_FAIL, EXIT_USAGE)) >= 10, codes


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


def test_report_all_golden_hash_under_optimize():
    # `python -O` strips asserts; no correctness check may live in one
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "coniveau.cli", "report", "--all"],
        capture_output=True, env=env, timeout=300,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN_REPORT_SHA256


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


# exit code and stdout sha256 of the CLI paths that touch each scenario view:
# the label module's answers and refusals, a restriction scenario, the
# optional parameter of extraspecial-e, and the usage errors
GOLDEN_CLI = {
    "list": (0, "b0efe10899b27bb55b454ccb6c2d59076155bfcfea522fcb1514251023fc9266"),
    "verify pgl --p 3": (0, "c8fa24ca929c21af2c77b735ad79e6296679bdff58395bb21f56df5bc34f76a2"),
    "dh-table pgl --p 3": (0, "702b45c90db2748bbd3b0680e4d5a97e0c5ab2be9f286626300274deeab947a1"),
    "stable-quotient pgl --p 3": (2, "59a972864a7bb2a67e38f5cdc55f67bdceab5e36bae05e9bffe86be05d5af1a3"),
    "hilbert pgl --p 3": (2, "04cdcf6a5c9cf5fd29f5bca1302dcde646edfdfea87771218af48d89acf9b73e"),
    "qop pgl --p 3 --I 1 --element u2": (2, "7749708ffcd863518462f81b1e5d512dae251c2f37072a0c733315f9da7428ab"),
    "verify pgl --p 2": (2, "4b34321b6944c5bf7ad2597c8c51f103e733cbf2af73a776116afd2cfbee75c8"),
    "verify simply-connected --p 3": (0, "ecad22340e6bd9acf12a4b013ebd5e998b027917704b2d9d9795422b84a3b31c"),
    "verify extraspecial-e --n 2": (0, "4d77f5046b9b002eb1e2445cf0f4fee2350c0dd001a83dfdae4a7d0e3015087c"),
    "dh-table extraspecial-d --n 2": (0, "025c00f6c9789dfbf79d5103b5965a7a7fb3b6d93774c1fb0e55aa60d06e5062"),
    "stable-quotient g2": (2, "f0359a41489659e9a5c62a7704fd50fd184eb9775ee8a418c9fc0cc0fa60b53b"),
    "hilbert g2 --cap 99": (2, "a5d5f5595f6a38d523b2d118326591169eb92b6c6f776442fe70d916a993bdf8"),
    "verify elementary --n 3": (2, "74074e748d9b84875db352e8d17a5db57e42a310134e47528d345f186edbe2ef"),
    "verify no-such-scenario": (2, "87a22af0f774242fa754000f2de5522d021519d0270e04c37184f134a8be4672"),
    "dh-table so --m 2 --format markdown": (0, "229afb6f1eb6f79e02935f3e83f7f1de565a03d97ad43766a89201c808d4b355"),
    # Chern-ideal tests on detection rings larger than any of ``report --all``
    "dh-table elementary --p 2 --n 6": (0, "e7c93668d4ed1a88315f76b0c84e0951e0cdb516a2d251ba651d5cb63355223f"),
    "dh-table extraspecial-e --n 8 --p 3": (0, "b461f0511b018081f1f2a65e044dbbec665560d9f74e0849215989a35657f078"),
    "dh-table extraspecial-e --n 10 --p 3": (0, "469dedb221081db7d66c2c9ff1a90f44885a7ce2d953806ae7f392935a917d9a"),
    # graded dimensions and a stable quotient, and a cell-budget refusal that
    # pins the order of the budget checks
    "hilbert extraspecial-d --n 3 --cap 8": (0, "584f0895bdcabce91b3cec96b7b2defcd58926df5caa4d44f87e4a94e5e6e438"),
    "stable-quotient extraspecial-e --n 6 --p 3": (0, "14bc665ab964b625f795d401d1ade6e24ed61b36028da4cfecb071ac9770d5ba"),
    "hilbert extraspecial-e --n 13 --p 3 --cap 4": (2, "96061670a980dc20d311b23e5047eb731cf68f0d051374ca729ebc7d4859dea1"),
}


@pytest.mark.parametrize("command", list(GOLDEN_CLI))
def test_cli_golden_hash(capsys, command):
    code, out = run(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_CLI[command]
