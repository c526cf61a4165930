"""Exit-code contract, determinism, user scenario files."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import time
from functools import partial
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coniveau import cli, motivic
from coniveau.cli import EXIT_MATH_FAIL, EXIT_OK, EXIT_USAGE, main
from coniveau.parser import parse_presentation
from helpers import (
    oracle_ideal_dimension, oracle_markdown, oracle_monomials, quadric_classes, quadric_ranks,
)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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
    # n = 24 passes the parameter gate, and its page at --cap 4 is counted from
    # the leading monomials, not listed; 25 is refused by name before anything
    # is built
    code, body = run_json(capsys, "hilbert", "extraspecial-e", "--n", "24", "--cap", "4")
    assert code == EXIT_OK
    assert body["hilbert"]["dimensions"] == koszul_page_series(24, 4)
    code, body = run_json(capsys, "hilbert", "extraspecial-e", "--n", "25", "--cap", "4")
    assert code == EXIT_USAGE
    assert "takes no --n 25" in body["error"] and "at most 24" in body["error"]
    assert "hilbert" not in body


def koszul_page_series(n: int, cap: int) -> list[int]:
    """(1 - t^2)(1 - t^3) times the series (1 + t)^(2n) / (1 - t^2)^(2n) of
    the free ring on 2n exterior degree-1 and 2n polynomial degree-2
    generators: the extraspecial page's relations, of degrees 2 and 3, form a
    regular sequence in these degrees."""
    series = [
        sum(comb(2 * n, k) * comb(2 * n - 1 + (d - k) // 2, 2 * n - 1)
            for k in range(d % 2, min(d, 2 * n) + 1, 2))
        for d in range(cap + 1)
    ]
    for r in (2, 3):
        series = [c - (series[d - r] if d >= r else 0) for d, c in enumerate(series)]
    return series


@pytest.mark.parametrize("n", [13, 19])
def test_extraspecial_e_page_answers_at_large_n(capsys, n):
    # the page through n = 19 answers; no relation-matrix estimate refuses it
    code, body = run_json(capsys, "hilbert", "extraspecial-e", "--n", str(n), "--p", "3",
                          "--cap", "4")
    assert code == EXIT_OK
    assert body["hilbert"]["dimensions"] == koszul_page_series(n, 4)
    if n == 13:
        assert body["hilbert"]["dimensions"] == [1, 26, 350, 3249, 23374]


def test_stable_quotients_at_family_bounds(capsys, monkeypatch):
    # inside the family bounds, and answered since no relation-matrix
    # estimate refuses them; the elementary quotient at p = 2 is F_2[x1..xn]
    # modulo the squares
    code, body = run_json(capsys, "stable-quotient", "elementary", "--p", "2", "--n", "10")
    assert code == EXIT_OK
    assert body["stable_quotient"]["dims"] == [comb(10, k) for k in range(11)]
    code, body = run_json(capsys, "stable-quotient", "so", "--m", "15")
    assert code == EXIT_OK
    sq = body["stable_quotient"]
    assert sq["declared"] is not None
    assert [b for layer in sq["basis"] for b in layer] == sq["declared"]
    # every degree is counted before a basis element is formatted, so the
    # budget refuses the command before any string is made
    from coniveau import fp

    formatted = []
    monkeypatch.setattr(fp.Element, "__str__", lambda e: formatted.append(e) or "?")
    start = time.perf_counter()
    code, body = run_json(capsys, "stable-quotient", "extraspecial-e", "--n", "7", "--p", "3")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_USAGE
    assert "budget of 500 basis elements" in body["error"]
    assert "stable_quotient" not in body and not formatted


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

    refusal = ("stable-quotient", "extraspecial-e", "--n", "24", "--p", "3")
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
        ("hilbert", "extraspecial-e", "--n", "24", "--p", "3", "--cap", "4"),
    ):
        code, body = run_json(capsys, *argv)
        assert code == EXIT_OK, argv
    assert body["hilbert"]["dimensions"] == koszul_page_series(24, 4)
    code, body = run_json(capsys, *refusal)
    assert code == EXIT_USAGE
    assert body == refused
    assert "degree 4: the monomial list would hold 194580 monomials" in body["error"]


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
    # it loads no other package module, and no numpy
    script = (
        "import sys, coniveau\n"
        "mods = sorted(m for m in sys.modules if m.startswith('coniveau.'))\n"
        "print(mods, coniveau.backend_name(), 'numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['coniveau._kernels'] sparse False"


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


def _heavy_modules_after(*commands):
    """Run ``commands`` in turn in one fresh interpreter: for each, its exit
    code and which of numpy and OpenSSL's ``_hashlib`` are loaded after it."""
    script = (
        "import sys\n"
        "from coniveau import cli\n"
        "for argv in sys.argv[1:]:\n"
        "    code = cli.main(argv.split())\n"
        "    mods = [m for m in ('numpy', '_hashlib') if m in sys.modules]\n"
        "    print(code, mods, file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *commands],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr.splitlines()


def test_commands_load_numpy_only_to_eliminate_s_pairs():
    # numpy packs and unpacks the S-pair matrices of a Groebner basis step and
    # nothing else, so a command that takes no basis step never loads it; no
    # command maps OpenSSL for its provenance hashes
    no_basis_step = [
        "list",
        "verify g2 --I 1",
        "verify pgl --p 3",
        "verify elementary --p 2 --n 3",
        "dh-table so --m 4",
        "dh-table elementary --p 3 --n 3",
        "qop so --m 4 --I 0 --element w2+w4+w6+w8",
        "rost --n 4",
    ]
    loaded = _heavy_modules_after(*no_basis_step, "report --all")
    assert loaded == ["0 []"] * len(no_basis_step) + ["0 ['numpy']"]
    # positive controls, each in a fresh interpreter: a command that takes a
    # basis step loads numpy
    assert _heavy_modules_after("hilbert extraspecial-d --n 2 --cap 8") == ["0 ['numpy']"]
    assert _heavy_modules_after("stable-quotient so --m 3") == ["0 ['numpy']"]


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


# five degree-2 generators over F_3, relations in degrees 4..12: the full
# relation matrix of degree 26, every cofactor times every relation, would
# have 9,296,280 cells, but the Groebner basis never builds it
WIDE = """\
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


def test_wide_user_scenario_answers(tmp_path, capsys):
    path = tmp_path / "wide.pres"
    path.write_text(WIDE)
    code, body = run_json(capsys, "hilbert", str(path), "--cap", "28")
    assert code == EXIT_OK
    dims = body["hilbert"]["dimensions"]
    assert len(dims) == 29 and dims[26] == 26
    # the low degrees against the rank of the brute-force ideal span
    pres = parse_presentation(WIDE).presentation
    for d in range(15):
        free = len(oracle_monomials([2] * 5, [False] * 5, d))
        assert dims[d] == free - oracle_ideal_dimension(pres.free, pres.relations, d), d


# twelve degree-1 generators over F_2 and five 6-term quadratic relations: the
# degree-7 S-pair matrix, reducer rows included, would have 15,053,624 cells
OVER_BUDGET = """\
prime 2
cap 9
""" + "".join(f"gen x{i} 1\n" for i in range(1, 13)) + """\
rel x5*x12 + x6*x9 + x1*x6 + x4*x4 + x8*x10 + x7*x12
rel x6*x7 + x4*x9 + x7*x11 + x5*x8 + x3*x7 + x8*x9
rel x2*x7 + x4*x7 + x12*x12 + x2*x2 + x3*x12 + x9*x9
rel x12*x12 + x2*x8 + x4*x10 + x2*x2 + x1*x10 + x5*x5
rel x7*x10 + x9*x12 + x2*x2 + x5*x8 + x6*x11 + x4*x11
"""


def test_user_scenario_over_cell_budget(tmp_path, capsys):
    path = tmp_path / "wide.pres"
    path.write_text(OVER_BUDGET)
    start = time.perf_counter()
    code, body = run_json(capsys, "hilbert", str(path), "--cap", "9")
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_USAGE
    assert body["error"] == (
        "degree 7: the S-pair matrix would have 15053624 cells, above the budget of "
        "8000000; lower the cap"
    )
    assert "hilbert" not in body
    # below the refused degree the same file runs
    code, body = run_json(capsys, "hilbert", str(path), "--cap", "6")
    assert code == EXIT_OK
    assert body["hilbert"]["dimensions"][:3] == [1, 12, 73]


def test_user_scenario_over_monomial_budget(tmp_path, capsys):
    # degree 3 of 120 degree-1 generators would list 295,240 x 120 exponents,
    # over the monomial-list budget; hilbert counts the degree, listing nothing
    path = tmp_path / "many.pres"
    path.write_text("prime 2\ncap 3\n" + "".join(f"gen x{i} 1\n" for i in range(1, 121)))
    code, body = run_json(capsys, "hilbert", str(path), "--cap", "3")
    assert code == EXIT_OK
    dims = body["hilbert"]["dimensions"]
    assert dims == [comb(119 + d, d) for d in range(4)] == [1, 120, 7260, 295240]
    # a stable quotient lists its basis, so the list budget refuses it
    path.write_text(path.read_text() + "n1 z = x1\n")
    code, body = run_json(capsys, "stable-quotient", str(path))
    assert code == EXIT_USAGE
    assert "degree 3: the monomial list would hold 295240 monomials" in body["error"]


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


@pytest.fixture(scope="module")
def report_all():
    """Exit code and stdout of one in-process `report --all`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["report", "--all"])
    return code, out.getvalue()


def test_report_all_golden_hash(report_all):
    # the reproduction's correctness gate: every certificate, table, quotient
    # and quadric verdict of `report --all`, byte for byte
    code, out = report_all
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_REPORT_SHA256


def test_report_all_meets_the_benchmark_closed_forms(report_all, monkeypatch):
    # the benchmark's checks of each section against closed forms and
    # independent computations (perfbench/checks.py), which the hash above
    # only pins; run.py imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("_perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert bench.check_report(json.loads(report_all[1])) == []


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
    5: "8f81a567f2bab310cbc25874e7fb4ac8520c9b04fe267690897975797c99182a",
    6: "9d7d7da11fdf14c15c8c46c7c596c4cb98501094870eda01965cfa652ed9fd91",
    7: "e185d16a21a3aaf661797f7eecae92c31398d8386d129dfe7eea0bb5f4195389",
    8: "96b22a30e875d81d7623480efa93cf5938f57147d0db56fa1fa437476b1bb462",
    9: "15868b8d4d0445913ba1a1717ac388ad55bdb13461483a05e37c2f56d405aa4f",
    10: "4a49dbbd0769bed996733720f3893ce1b65b150751e43bc0f0d3a1ecb38f8107",
}


@pytest.mark.parametrize("n", sorted(GOLDEN_ROST_SHA256))
def test_rost_golden_hash(capsys, n):
    code, out = run(capsys, "rost", "--n", str(n))
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_ROST_SHA256[n]


@pytest.mark.parametrize("n", range(2, 10))
def test_rost_body_matches_materialized_oracle(capsys, n):
    # field by field, so a difference names the field the hashes above
    # only detect
    code, body = run_json(capsys, "rost", "--n", str(n))
    assert code == EXIT_OK
    want, ranks = quadric_classes(n), quadric_ranks(n)
    ring = body["quadric_ring"]
    for field in ("free", "torsion", "algebraic"):
        assert ring[field] == want[field], field
    table = body["rank_table"]
    assert [row["degree"] for row in table] == list(range(0, 2 ** (n + 1) - 1, 2))
    for row in table:
        d = row["degree"]
        assert (row["free_rank"], row["torsion_dim"]) == ranks.get(d, (0, 0)), d
        assert row["flags"] == want["flags"].get(d, []), d


def test_rost_rank_mismatch_writes_only_its_error(capsys, monkeypatch, tmp_path):
    # the ranks are checked before the first byte is written: a decomposition
    # table that disagrees exits 1 with the error body and no partial report,
    # on stdout and in an --output file
    table = motivic._decomposition_table
    monkeypatch.setattr(motivic, "_decomposition_table", lambda n: {**table(n), 8: (1, 99)})
    want = {
        "schema_version": 1,
        "command": "rost",
        "error": "additive ranks disagree for n=5: deg 8: ring (1, 2) vs decomposition (1, 99)",
        "exit_code": EXIT_MATH_FAIL,
    }
    assert run_json(capsys, "rost", "--n", "5") == (EXIT_MATH_FAIL, want)
    target = tmp_path / "rost.json"
    code, out = run(capsys, "rost", "--n", "5", "--output", str(target))
    assert (code, out) == (EXIT_MATH_FAIL, "")
    assert json.loads(target.read_text()) == want


def test_rost_output_file_holds_the_stdout_bytes(capsys, tmp_path):
    target = tmp_path / "rost.json"
    assert run(capsys, "rost", "--n", "9", "--output", str(target)) == (EXIT_OK, "")
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN_ROST_SHA256[9]


_TRACED_ROST = """
import os, sys, tracemalloc
from coniveau import cli
sys.stdout = open(os.devnull, "w", encoding="utf-8")
tracemalloc.start()
code = cli.main(["rost", "--n", "10", "--format", sys.argv[1]])
peak = tracemalloc.get_traced_memory()[1]
sys.stdout = sys.__stdout__
print(code, peak)
"""


@pytest.mark.parametrize("fmt", ["json", "markdown"])
def test_rost_memory_grows_like_2_to_the_n(fmt):
    # rost --n 10 reads 130,816 torsion classes into a 14 MB JSON or 7.4 MB
    # markdown report; made a degree at a time and written in pieces, they
    # are never held together, and the traced peak stays near 2 MiB in
    # either format.  The traced count is deterministic, unlike RSS.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_ROST, fmt],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    code, peak = map(int, proc.stdout.split())
    assert code == EXIT_OK
    assert peak < 8 * 2**20, peak


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
    "rost --n 3 --format markdown": (0, "22f63c55e4893ca8ef9d0638f71290193e09293273c44994fde3c6922e7568ba"),
    # markdown of lazy rows (the rank tables) and of a 7.4 MB report
    "report --all --format markdown": (0, "7057d6205054a5b5fda0ff7dcbcc99bf951afbca2b1b58404cd025a4608c29e5"),
    "rost --n 10 --format markdown": (0, "47f706ac8312bfc4e59c5283471508bc20bffb5955fdd3598ef6fc9299b5c526"),
    # Chern-ideal tests on detection rings larger than any of ``report --all``
    "dh-table elementary --p 2 --n 6": (0, "e7c93668d4ed1a88315f76b0c84e0951e0cdb516a2d251ba651d5cb63355223f"),
    "dh-table extraspecial-e --n 8 --p 3": (0, "b461f0511b018081f1f2a65e044dbbec665560d9f74e0849215989a35657f078"),
    "dh-table extraspecial-e --n 10 --p 3": (0, "469dedb221081db7d66c2c9ff1a90f44885a7ce2d953806ae7f392935a917d9a"),
    # graded dimensions and a stable quotient; the extraspecial page at n = 13,
    # refused by the old relation-matrix estimate, answers
    "hilbert extraspecial-d --n 3 --cap 8": (0, "584f0895bdcabce91b3cec96b7b2defcd58926df5caa4d44f87e4a94e5e6e438"),
    "stable-quotient extraspecial-e --n 6 --p 3": (0, "14bc665ab964b625f795d401d1ade6e24ed61b36028da4cfecb071ac9770d5ba"),
    "hilbert extraspecial-e --n 13 --p 3 --cap 4": (0, "411d49ebba256b83a7cc00c36d3074b6dd9d675fe3925b774841612077aacb4d"),
    # --element by name, alias, candidate label (with its declared maps), an
    # uncertified cover value, a restriction and an unknown name; qop by
    # candidate label and by expression
    "verify g2 --element w4 --I 1": (0, "6ee664bd7ba243aa65ced38d1cafac7cd108f626f416e47e76af986283d63ac0"),
    "verify elementary --p 3 --n 2 --element alpha --I 1": (0, "d20ae3b31278f14461b54e9d1a59919616fe01a8cb494496808d14259ff59b23"),
    "verify extraspecial-d --n 2 --element Q0(x1*x3) --I 1": (0, "35c52d06c3ba63df280e1791118cf3a8349f5a2833b88d452b77bd2953021152"),
    "verify extraspecial-e --n 2 --p 3 --element x1*x2*x3 --I 1": (1, "c4fecaff3be5bebc5be1a53572f3596af147971858f56b5d393896919a1a1d94"),
    "verify simply-connected --p 5 --element w --I 2": (1, "da96372814ee6371924e6854c0765bbfe4a6e7665b3b23515d9ee76e9de1f0bb"),
    "verify g2 --element zz --I 1": (2, "1a07969e047e6bc1c397bce32d0d5d31ea2c35d6710e07fdf770369f318039dd"),
    "qop elementary --p 3 --n 2 --I 1 --element Q0(x1*x2)": (0, "b5fb09cce212152eac040cd2f3b0dab5199a1d24f09682e677be26bc8b4f214b"),
    "qop elementary --p 2 --n 3 --I 0 --element x1*x2": (0, "dc76aeaa1881a7ee03d85d0ede122bc934c23397d1bf329c8f7147812105a22c"),
    # splitting-principle tables and a Wu-rule operation; ``verify g2 --I 1``
    # prints the same bytes as ``verify g2 --element w4 --I 1``
    "dh-table so --m 3": (0, "6703e15fc56d6992ab7ff3a676877a5827d57686b584f9c8f70a3803d9c2f489"),
    "dh-table so --m 4": (0, "00461bca5b80282fbc7d7d55ad14d3f3e9a24c083fa3cee882eb21ea912eadf8"),
    "qop so --m 4 --I 0 --element w2+w4+w6+w8": (0, "b67d23e5f488f47ff5ddbda5a71cf22529e349b6416766e1f8e60bbc35763476"),
    "verify g2 --I 1": (0, "6ee664bd7ba243aa65ced38d1cafac7cd108f626f416e47e76af986283d63ac0"),
    # every scenario part built on first read: the stable quotients of the
    # SO, elementary and extraspecial builders, the alias alpha, and the
    # restriction's target quotient
    "stable-quotient so --m 3": (0, "dcd05a2663e90eecb1975490a552ed041c7920c740605f9acb63106a65a280c3"),
    "stable-quotient elementary --p 2 --n 4": (0, "10d36cfb390c9a7b39e7726066c7e47c4f4b858f3301329c7f2e36ea2e34211b"),
    "stable-quotient extraspecial-d --n 2": (0, "0cd837a8949dafaa1b71d26178edb53af846e1534e6a49a790d28b3855854348"),
    "verify elementary --p 2 --n 3": (0, "7ccc12b8c87b03fcca829dfa00639e8344789e3ba6dae5b4795177a4e2e62398"),
    "qop elementary --p 2 --n 3 --I 1 --element y1*x2": (0, "ad1a980e8de8bf73b3826831734da482d1cc8725cf39b78fb8e290376c341a49"),
    "verify simply-connected --p 5": (0, "a1ddafd8b80bb456e432c2bdfecb133f363eae9376a530d9803657122d7c3587"),
    # the quadric's negative control: forced memberships replace rejections
    # whose candidate and obstruction text is written from exponents
    "rost --n 2 --force-n1 4": (1, "c7748c47f8f3e50ebe3dc8e72a84a8dfc5784596f0398d9b9c0b06b325f3dc49"),
    "rost --n 3 --force-n1 4": (1, "69a37729c58913897cdb35a3b67f86a7617c97f950bd62ab02b78646bf74ac50"),
    "rost --n 4 --force-n1 8,12": (1, "b82577c2d96cd85f2b3c7dbfff6127fa2cf09437e6499251559de0d0a0046a6c"),
}


@pytest.mark.parametrize("command", list(GOLDEN_CLI))
def test_cli_golden_hash(capsys, command):
    code, out = run(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN_CLI[command]


# complete intersections of powers of seeded linear forms, with the
# elementary operation table and alpha = Q_0(x1*x2)
_CI_P3 = """\
prime 3
cap 18
gen y1 2
gen y2 2
gen y3 2
gen y4 2
gen x1 1 odd
gen x2 1 odd
gen x3 1 odd
gen x4 1 odd
rel (2*y1 + y2 + 2*y3 + y4)^5
rel (y1 + y2 + 2*y3 + y4)^5
rel (y1 + y2 + y3 + 2*y4)^7
rel (2*y1 + y2 + y3 + y4)^8
"""
_CI_P5 = """\
prime 5
cap 20
gen y1 2
gen y2 2
gen y3 2
gen y4 2
gen x1 1 odd
gen x2 1 odd
gen x3 1 odd
gen x4 1 odd
rel (4*y1 + y2 + y3 + 2*y4)^7
rel (y1 + 4*y2 + y3 + 2*y4)^7
rel (y1 + 2*y2 + 3*y3 + 4*y4)^8
rel (2*y1 + y2 + 3*y3 + 2*y4)^9
"""


def _ci_tail(p):
    lines = []
    for i in (0, 1):
        for k in range(1, 5):
            lines += [f"Q {i} x{k} = y{k}^{p ** i}", f"Q {i} y{k} = 0"]
    lines.append("alias alpha = y1*x2 - x1*y2")
    lines += [f"chern c{k} = y{k}" for k in range(1, 5)]
    return "\n".join(lines) + "\n"


# stdout sha256 of commands on those files, which raise their relations'
# linear forms to powers and apply Q tables of powers y^(p^i)
GOLDEN_CI = {
    "hilbert ci_p5.pres --cap 20": "f5d720b99925f243729386e29d67745c14cc1d29e958590ea178929db0838f05",
    "verify ci_p5.pres --element alpha --I 1": "299be4c2fef26ff7c2f528e1beea3617a39160aaaf586a296c3b9a4e4f3a7c36",
    "hilbert ci_p3.pres --cap 18": "f392e84e8a72d1a3c8c992f964be92452deb5fdfde53cef902a1ecaaace5d87c",
    "verify ci_p3.pres --element alpha --I 1": "89c259477ae7747e1a297feebc5d88aaaea3e6deb3251091d637a4e6c1161b23",
}


@pytest.mark.parametrize("command", list(GOLDEN_CI))
def test_complete_intersection_golden_hash(tmp_path, capsys, monkeypatch, command):
    (tmp_path / "ci_p3.pres").write_text("# complete intersection, seeded coordinates\n" + _CI_P3 + _ci_tail(3))
    (tmp_path / "ci_p5.pres").write_text("# complete intersection, seeded coordinates\n" + _CI_P5 + _ci_tail(5))
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, *command.split())
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (EXIT_OK, GOLDEN_CI[command])


# JSON values of the shapes report bodies are made of.  Strings carry
# quotes, backslashes, control, non-ASCII and non-BMP characters; lists of
# one scalar type and lists of equally long rows (as lists or tuples) take
# the writer's one-step paths, mixed ones its general path.  A lazy sequence
# (``motivic.Lazy``, as the quadric report holds its classes) may stand
# wherever a list does.
def _lazy(values):
    return motivic.Lazy(len(values), partial(iter, values))


_TEXT = st.text(st.sampled_from('"\\\x00\n\x1f\x7fé\u2028\U0001f600') | st.characters(), max_size=6)
_SCALARS = st.none() | st.booleans() | st.integers() | st.integers(-(2**80), 2**80) | _TEXT
_ROWS = st.lists(st.sampled_from([_TEXT, st.integers(), st.booleans()]), min_size=1, max_size=3).flatmap(
    lambda columns: st.lists(st.tuples(*columns), max_size=4)
)
_LISTS = (
    st.lists(_TEXT, max_size=4) | st.lists(st.integers(), max_size=4)
    | st.lists(st.booleans(), max_size=4) | _ROWS | _ROWS.map(lambda rows: [list(r) for r in rows])
)
JSON_VALUES = st.recursive(
    _SCALARS | _LISTS | _LISTS.map(_lazy),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.lists(inner, max_size=5).map(_lazy) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


def _dumps(value):
    """``json.dumps`` of value with every lazy sequence read into a list."""
    return json.dumps(value, indent=2, default=list) + "\n"


def _written_in_pieces(value, fmt):
    """The pieces the writer of fmt writes value in when it writes out at
    every spill, with a spill after every batch of two items."""
    pieces = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "FLUSH_SIZE", 1)
        patch.setattr(cli, "_BATCH", 2)
        cli._render(value, fmt).write_to(pieces.append)
    return pieces


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(JSON_VALUES)
def test_json_writer_matches_json_dumps(value):
    want = _dumps(value)
    assert str(cli._render(value, "json")) == want
    pieces = _written_in_pieces(value, "json")
    assert "".join(pieces) == want and all(pieces)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(JSON_VALUES)
def test_markdown_writer_matches_oracle(value):
    # the same bodies, tuples and lazy sequences taken as sequences by both
    want = oracle_markdown(value)
    assert str(cli._render(value, "markdown")) == want
    pieces = _written_in_pieces(value, "markdown")
    assert "".join(pieces) == want and all(pieces)


def test_json_writer_refuses_what_it_does_not_cover():
    for value in (1.5, {"a": [1, 2.0]}, {1: "a"}, [{"b": {2: 3}}], {"s": {1, 2}}):
        with pytest.raises(TypeError):
            str(cli._render(value, "json"))


def test_json_writer_matches_json_dumps_on_golden_bodies(capsys, monkeypatch):
    render, checked = cli._render, []

    def compared(body, fmt):
        text = render(body, fmt)
        if fmt == "json":
            assert str(text) == _dumps(body)
            checked.append(body["command"])
        return text

    monkeypatch.setattr(cli, "_render", compared)
    for command in GOLDEN_CLI:
        run(capsys, *command.split())
    assert len(checked) == sum("markdown" not in c for c in GOLDEN_CLI)


def test_class_text_that_parses_builds_no_candidate(capsys, monkeypatch):
    # a name, alias or expression is parsed without reading the candidate
    # family: elementary's flagship alias and a qop expression answer at the
    # largest rank without its 1013 candidates.  The builder is called
    # uncached, so its family thunk binds the counting function.
    from coniveau import certificates as C

    calls = []
    build = C._elementary_candidates
    monkeypatch.setattr(C, "_elementary_candidates", lambda *a: calls.append(a) or build(*a))
    monkeypatch.setattr(C, "elementary_abelian", C.elementary_abelian.__wrapped__)
    code, body = run_json(capsys, "verify", "elementary", "--p", "2", "--n", "10")
    assert code == EXIT_MATH_FAIL and body["certificate"]["element"] == "alpha"
    code, body = run_json(
        capsys, "qop", "elementary", "--p", "2", "--n", "10", "--I", "0", "--element", "x1*x2"
    )
    assert code == EXIT_OK and body["qop"]["value"] == "x1^2*x2 + x1*x2^2"
    assert calls == []
