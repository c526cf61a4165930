"""Acceptance gate: one test per criterion, each printing a pass line.

Every check is exact (tolerance zero); the stated runtime bounds are
asserted with wall-clock measurements.  Run with `pytest -v -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import time

import pytest

from coniveau import certificates as C
from coniveau import motivic
from coniveau.charclasses import SplitRing
from coniveau.cli import EXIT_OK, main
from coniveau.parser import parse_expression
from helpers import quadric_ranks


def _replay(scenario, cert):
    names = {g.name: scenario.detect_pres.gen(g.name) for g in scenario.detect_pres.generators}
    current = scenario.resolve(cert.element)
    for idx, recorded in zip(cert.sequence, cert.audit):
        current = scenario.q_action.apply(idx, current)
        assert current == parse_expression(scenario.detect_pres, names, recorded)
    return current


def _predicted_monomial(scenario, subset, witness):
    """The guaranteed monomial of the certified value: the ordered subset
    indices paired with the witness exponents, then the plain Bockstein
    image, then the surviving exterior class."""
    pres = scenario.detect_pres
    p = scenario.prime
    idx = {g.name: k for k, g in enumerate(pres.generators)}
    exps = [0] * len(pres.generators)

    def bump_y(i, power):
        if p == 2:
            exps[idx[f"x{i}"]] += 2 * power
        else:
            exps[idx[f"y{i}"]] += power

    if len(subset) == 2:
        bump_y(subset[0], p ** witness[0])
        bump_y(subset[1], 1)
    else:
        for a, i in zip(subset, witness):
            bump_y(a, p**i)
        bump_y(subset[-2], 1)
        exps[idx[f"x{subset[-1]}"]] += 1
    return tuple(exps)


def test_criterion_1_elementary_dh_tables():
    for p, n in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)):
        scenario = C.elementary_abelian(p, n)  # cached; excluded from the timing below
        start = time.perf_counter()
        table = scenario.dh_table()
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, (p, n, elapsed)
        expected = 2**n - n - 1
        assert len(table.rows) == expected
        for row in table.rows:
            cert = row.certificate
            assert cert.verdict == C.NOT_IN_STRONG_CONIVEAU, row.label
            value = _replay(scenario, cert)
            assert not value.is_zero()
            subset = [int(t[1:]) for t in row.label[3:-1].split("*")]
            mono = _predicted_monomial(scenario, subset, row.witness)
            assert value.terms.get(mono), (p, n, row.label)
    print("criterion 1: PASS - elementary DH tables certified with predicted monomials")


def test_criterion_2_g2_certificate():
    scenario = C.g2_scenario()  # cached construction
    start = time.perf_counter()
    cert = scenario.verify("w4", (1,))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    assert cert.verdict == C.NOT_IN_STRONG_CONIVEAU
    assert cert.value == "w7"
    assert any("coniveau membership" in a for a in cert.assumptions)
    # the simply connected conclusion (degree-4 class survives) carries the
    # same declared-membership line plus the restriction provenance
    sc = C.simply_connected(2).verify("w", (1,))
    assert sc.verdict == C.NOT_IN_STRONG_CONIVEAU
    assert any("coniveau membership" in a for a in sc.assumptions)
    assert any("restriction" in a for a in sc.assumptions)
    print("criterion 2: PASS - rank-2 exceptional certificate (value w7, assumption recorded)")


def test_criterion_3_so_certificates():
    start = time.perf_counter()
    for m in (1, 2):
        scenario = C.so_odd(m, cap=64)
        table = scenario.dh_table()
        assert len(table.rows) == m
        for row in table.rows:
            assert row.certificate.verdict == C.NOT_IN_STRONG_CONIVEAU, row.label
            assert row.witness is not None
            value = _replay(scenario, row.certificate)
            assert not value.is_zero()
    for rank in range(2, 8):
        ring = SplitRing(rank, cap=64)
        for two_k in range(2, rank + 1, 2):
            value = ring.q_on_w(0, ring.w(two_k))
            expected = ring.w(two_k + 1) if two_k + 1 <= rank else ring.w_pres.zero()
            assert value == expected, (rank, two_k)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, elapsed
    print("criterion 3: PASS - special orthogonal witnesses and Bockstein rule (%.1fs)" % elapsed)


def test_criterion_4_extraspecial():
    report, ring, pair = C.comparison_regular_pair(3, 40)
    assert report.regular and report.cap == 40
    assert report.quotient_series == report.predicted_series
    y1, y2 = ring.gen("y1"), ring.gen("y2")
    assert not (y1**3 * y2 - y1 * y2**3).is_zero()
    for n in (2, 3):
        table = C.extraspecial_e(n, 3).dh_table()
        expected = (2 * n) * (2 * n - 1) // 2 - 1
        assert len(table.rows) == expected
        assert all(r.certificate.verdict == C.NOT_IN_STRONG_CONIVEAU for r in table.rows)
    print("criterion 4: PASS - regular pair through degree 40 and degree-3 tables")


def test_criterion_5_quadric_rings():
    ring = motivic.quadric_etale_ring(3)
    torsion_expected = {4: 1, 6: 1, 8: 2, 10: 1, 12: 1}
    for d in range(0, 15, 2):
        free, torsion = ring.ranks(d)
        assert free == 1, d
        assert torsion == torsion_expected.get(d, 0), d
    for n in (2, 3, 4):
        q = motivic.quadric_etale_ring(n)
        want = quadric_ranks(n)
        for d in range(0, q.max_degree() + 1, 2):
            assert q.ranks(d) == want.get(d, (0, 0)), (n, d)
    print("criterion 5: PASS - quadric rings match the motive decomposition exactly")


def test_criterion_6_obstructions():
    for n in (2, 3):
        for _, degree in motivic.rost_etale_ring(n).torsion_basis:
            verdict = motivic.n1_membership(degree, n)
            assert verdict.rejected(), (n, degree)
            assert verdict.reason
            if verdict.candidate is not None:
                assert verdict.obstruction is not None
        first = motivic.n1_membership(n + 1, n)
        assert first.obstruction == f"rho^{n + 2}*tau^-2"
        assert motivic.dh_quadric_check(n).verdict == "DH=0"
    print("criterion 6: PASS - coniveau obstructions with explicit witnesses; DH = 0")


def test_criterion_7_stable_quotients():
    for p, n in ((2, 2), (2, 3), (3, 2), (3, 3)):
        sq = C.elementary_abelian(p, n).stable_quotient()
        assert sq.total_dimension == 2**n, (p, n)
        flat = [b for layer in sq.basis for b in layer]
        for b in flat:
            assert "y" not in b and "^" not in b, b  # squarefree exterior monomials
    for m in (1, 2):
        sq = C.so_odd(m).stable_quotient()
        flat = tuple(b for layer in sq.basis for b in layer)
        assert flat == ("1",) + tuple(f"w{2 * k}" for k in range(1, m + 1))
    print("criterion 7: PASS - stable quotients (exterior bases and declared echo)")


def test_criterion_8_pgl():
    for p in (3, 5):
        cert = C.pgl_detect(C.pgl_module(p))
        assert cert.verdict == C.NOT_IN_STRONG_CONIVEAU
        assert cert.element == "Q0u2"
        assert cert.value == f"x{2 * p + 2}"
    print("criterion 8: PASS - label-module certificates with polynomial witnesses")


def test_criterion_9_property_suites_and_full_report(tmp_path, capsys):
    import test_properties as props

    for fn in (
        props.test_leibniz_rule,
        props.test_anticommutation,
        props.test_nilpotence,
        props.test_normal_form_against_macaulay_oracle,
        props.test_graded_commutativity,
    ):
        fn()
    start = time.perf_counter()
    out = tmp_path / "report.json"
    code = main(["report", "--all", "--output", str(out)])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == EXIT_OK
    assert elapsed < 600.0, elapsed
    print("criterion 9: PASS - property suites >= 1000 checks each; report --all in %.1fs" % elapsed)
