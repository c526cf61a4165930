"""Detection procedures, candidate tables, stable quotients, builtins."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from coniveau import _kernels
from coniveau import certificates as C
from coniveau.fp import MAX_MACAULAY_CELLS, DegreeCapError, Generator, GradedPresentation
from coniveau.milnor import op_degree, validate_q_axioms
from coniveau.parser import ParseError, parse_expression

from helpers import (
    ElementaryOracle,
    element_vector,
    oracle_ideal_dimension,
    oracle_in_span,
    oracle_rank,
    oracle_rref,
)

SRC = Path(__file__).resolve().parents[1] / "src"


# -- verify ------------------------------------------------------------------------


def test_detect_elementary_flagship():
    s = C.elementary_abelian(3, 3)
    cert = s.verify("alpha", (1,))
    assert cert.verdict == C.NOT_IN_STRONG_CONIVEAU
    assert cert.value_degree == 4 + 5
    assert any("coniveau membership" in a for a in cert.assumptions)


def test_detect_g2():
    s = C.g2_scenario()
    cert = s.verify("w4", (1,))
    assert cert.verdict == C.NOT_IN_STRONG_CONIVEAU
    assert cert.value == "w7"


def test_detect_rejects_chern_class():
    s = C.elementary_abelian(3, 2)
    for seq in ((1,), (2,), (1, 2)):
        assert s.verify("y1", seq).verdict == C.REJECTED_CHERN


def test_detect_zero_value_inconclusive():
    s = C.elementary_abelian(2, 2)
    # x1^2 = y1 is Chern; x1*x2 has degree 2, below the certifiable range
    cert = s.verify("x1*x2", (1,))
    assert cert.verdict == C.INCONCLUSIVE


def test_detect_sequence_shape_enforced():
    # a sequence no witness search would try is refused, naming its rule
    s = C.elementary_abelian(3, 3)
    with pytest.raises(C.ScenarioError, match="increase strictly from 1"):
        s.verify("alpha", (0,))  # index 0 certifies nothing
    with pytest.raises(C.ScenarioError, match="length 1, got 2"):
        s.verify("alpha", (1, 2))
    s24 = C.elementary_abelian(2, 4)
    label = "Q0(x1*x2*x3*x4)"
    with pytest.raises(C.ScenarioError, match="increase strictly"):
        s24.verify(label, (2, 2))
    assert s24.verify(label, (1, 2)).verdict == C.NOT_IN_STRONG_CONIVEAU


def test_detect_cap_overflow_is_inconclusive():
    # the cap-18 table carries Q_2, so an overflow inside it is a verdict
    s = C.elementary_abelian(3, 2, cap=18)
    assert s.max_search_index == 2
    cert = s.verify("Q0(x1*x2)", (2,))  # 3 + 17 = 20 > 18
    assert cert.verdict == C.INCONCLUSIVE
    assert "cap" in cert.reason
    # the cap-12 table stops at Q_1, so Q_2 is refused as past it
    with pytest.raises(C.ScenarioError, match="past the operation table's last index 1"):
        C.elementary_abelian(3, 2, cap=12).verify("Q0(x1*x2)", (2,))


def test_detect_monotone_in_chern_flags():
    import dataclasses

    s = C.elementary_abelian(3, 2)
    alpha = s.resolve("Q0(x1*x2)")
    assert s.verify("Q0(x1*x2)", (1,)).verdict == C.NOT_IN_STRONG_CONIVEAU
    enlarged = dataclasses.replace(s, chern_flags={**s.chern_flags, "extra": alpha})
    cert = enlarged.verify("Q0(x1*x2)", (1,))
    assert cert.verdict == C.REJECTED_CHERN


def test_certificate_audit_replay():
    # soundness: re-run the sequence and match every recorded intermediate
    s = C.elementary_abelian(2, 3)
    cert = s.verify("alpha", (1,))
    assert cert.verdict == C.NOT_IN_STRONG_CONIVEAU
    e = s.resolve(cert.element)
    names = {g.name: s.detect_pres.gen(g.name) for g in s.detect_pres.generators}
    current = e
    for idx, recorded in zip(cert.sequence, cert.audit):
        current = s.q_action.apply(idx, current)
        assert current == parse_expression(s.detect_pres, names, recorded)
    assert str(current) == cert.value
    assert not current.is_zero()


# -- witness search and tables ----------------------------------------------------------


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_dh_table_elementary_counts(p, n):
    table = C.elementary_abelian(p, n).dh_table()
    assert table.bound_kind == "equality"
    assert len(table.rows) == 2**n - n - 1
    assert all(r.certificate.verdict == C.NOT_IN_STRONG_CONIVEAU for r in table.rows)


def test_dh_table_elementary_uncertified_row_is_lower_bound():
    # the top row Q0(x1*..*x4) needs an index sequence the table does not reach
    table = C.elementary_abelian(5, 4).dh_table()
    assert len(table.rows) == 11
    assert sum(r.certificate.verdict == C.NOT_IN_STRONG_CONIVEAU for r in table.rows) == 10
    assert table.bound_kind == "lower-bound"


def test_dh_table_so3_single_row():
    table = C.so_odd(1).dh_table()
    assert [r.label for r in table.rows] == ["w3"]
    assert table.rows[0].certificate.verdict == C.NOT_IN_STRONG_CONIVEAU
    assert table.bound_kind == "lower-bound"


def test_dh_table_g2_inconclusive_rows_by_design():
    table = C.g2_scenario().dh_table()
    by_label = {r.label: r.certificate.verdict for r in table.rows}
    assert by_label["w4"] == C.NOT_IN_STRONG_CONIVEAU
    assert by_label["w7"] == C.INCONCLUSIVE
    assert by_label["w4*w7"] == C.INCONCLUSIVE


def test_witness_search_order_deterministic():
    s = C.elementary_abelian(2, 4)
    cand = s.candidate("Q0(x1*x2*x3*x4)")
    cert = C.search_witness(s, cand)
    assert cert.sequence == (1, 2)  # first ascending pair


def test_leading_monomial_in_witness_value():
    # the certified value contains y_(a1)^(p^i1) ... y_(a_{s-1}) x_(a_s)
    s = C.elementary_abelian(3, 3)
    table = s.dh_table()
    pres = s.detect_pres
    index = {g.name: k for k, g in enumerate(pres.generators)}
    for row in table.rows:
        subset = [int(t[1:]) for t in row.label[3:-1].split("*")]
        I = row.witness
        exps = [0] * len(pres.generators)
        if len(subset) == 2:
            exps[index[f"y{subset[0]}"]] = 3 ** I[0]
            exps[index[f"y{subset[1]}"]] = 1
        else:
            for a, i in zip(subset, I):
                exps[index[f"y{a}"]] = 3**i
            exps[index[f"y{subset[-2]}"]] = 1
            exps[index[f"x{subset[-1]}"]] = 1
        value = s.resolve(row.certificate.value)
        assert value.terms.get(tuple(exps)), row.label


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_dh_table_against_elementary_oracle(p, n):
    # every row of the table, then the witness search on seeded classes drawn
    # from the whole degree and from the Chern span, against an oracle built
    # from the closed forms of Q_i alone
    s = C.elementary_abelian(p, n)
    oracle = ElementaryOracle(p, n)
    table = s.dh_table()
    expected = oracle.candidates()
    assert [r.label for r in table.rows] == [label for label, _ in expected]
    for row, cand, (label, terms) in zip(table.rows, s.dh_candidates, expected):
        assert cand.element.terms == terms, label
        verdict, witness, value = oracle.search(terms)
        cert = row.certificate
        assert (cert.verdict, row.witness) == (verdict, witness), label
        if value:
            assert cert.value == oracle.render(value), label
    rng = random.Random(f"elementary-oracle-{p}-{n}")
    verdicts = set()
    for d in range(3, 6):
        for pool in ([{m: 1} for m in oracle.monomials(d)], oracle.chern_span(d)):
            for _ in range(3 if pool else 0):
                terms: dict = {}
                for part in rng.sample(pool, min(6, len(pool))):
                    c = rng.randint(1, p - 1)
                    for m, v in part.items():
                        terms[m] = (terms.get(m, 0) + c * v) % p
                terms = {m: c for m, c in terms.items() if c}
                if not terms:
                    continue
                verdict, witness, value = oracle.search(terms)
                cand = C.DhCandidate("class", s.detect_pres.element(terms))
                cert = C.search_witness(s, cand)
                got = cert.sequence if cert.verdict == C.NOT_IN_STRONG_CONIVEAU else None
                assert (cert.verdict, got) == (verdict, witness), (d, terms)
                if value:
                    assert cert.value == oracle.render(value), (d, terms)
                verdicts.add(verdict)
    assert {C.REJECTED_CHERN, C.NOT_IN_STRONG_CONIVEAU} <= verdicts


@pytest.mark.parametrize("p", [3, 5])
def test_simply_connected_value_against_elementary_oracle(p):
    # the flagship restricts w to the rank-3 class alpha = Q_0(x1*x2*x3), and
    # its value is Q_1(alpha), rebuilt here from the closed forms of Q_i; at
    # odd p the Leibniz rule's sign for an odd prefix shows in it
    cert = C.simply_connected(p).verify(None, None)
    oracle = ElementaryOracle(p, 3)
    alpha = dict(oracle.candidates())["Q0(x1*x2*x3)"]
    assert (cert.verdict, cert.sequence) == (C.NOT_IN_STRONG_CONIVEAU, (1,))
    assert cert.value == oracle.render(oracle.q(1, alpha))


# -- stable quotients ------------------------------------------------------------------


def test_stable_quotient_elementary():
    for p, n in ((2, 3), (3, 2), (3, 3)):
        sq = C.elementary_abelian(p, n).stable_quotient()
        assert sq.total_dimension == 2**n
        flat = [b for layer in sq.basis for b in layer]
        assert all("y" not in b for b in flat)  # squarefree exterior monomials


def test_stable_quotient_so_echo():
    for m in (1, 2):
        sq = C.so_odd(m).stable_quotient()
        flat = tuple(b for layer in sq.basis for b in layer)
        assert flat == ("1",) + tuple(f"w{2 * k}" for k in range(1, m + 1))
        assert sq.declared == flat


def test_stable_quotient_extraspecial_dimensions():
    # Lambda(x1..x4)/(f): frozen from the brute ideal oracle
    sq = C.extraspecial_e(2, 3).stable_quotient()
    assert sq.dims == (1, 4, 5, 0, 0)
    sq_d = C.extraspecial_d(2).stable_quotient()
    assert sq_d.dims == (1, 4, 5, 0, 0)


def test_stable_quotient_missing_declaration():
    with pytest.raises(C.ScenarioError):
        C.g2_scenario().stable_quotient()


# -- extraspecial machinery ----------------------------------------------------------


def test_extraspecial_page_rank1_relations():
    page = C.extraspecial_e4(1, 3)
    assert [str(r) for r in page.relations] == ["x1*x2", "y1*x2 + 2*y2*x1"]
    # both differential values die in the page
    assert all(page.element(r.terms).is_zero() for r in page.relations)


def test_extraspecial_page_hilbert_frozen():
    # frozen from the independent monomial-multiplication oracle
    page = C.extraspecial_e4(2, 3)
    assert page.hilbert_series(8) == [1, 4, 9, 15, 26, 36, 55, 70, 99]


def test_quillen_ring_rank1():
    ring = C.quillen_d_ring(1)
    assert [g.name for g in ring.generators] == ["x1", "x2", "w2"]
    assert len(ring.relations) == 1
    assert (ring.gen("x1") * ring.gen("x2")).is_zero()


def test_quillen_ring_hilbert_frozen():
    ring = C.quillen_d_ring(2)
    assert ring.hilbert_series(8) == [1, 4, 9, 15, 22, 31, 42, 54, 67]


def test_comparison_pair_regular_through_40():
    report, ring, pair = C.comparison_regular_pair(3, 40)
    assert report.regular
    assert [g.degree() for g in pair] == [8, 20]


def test_comparison_nonvanishing():
    _, ring, _ = C.comparison_regular_pair(3, 40)
    y1, y2 = ring.gen("y1"), ring.gen("y2")
    assert not (y1**3 * y2 - y1 * y2**3).is_zero()
    # the kernel generator itself dies
    pair_sum = (y1**3 * y2 - y1 * y2**3) + (ring.gen("y3") ** 3 * ring.gen("y4") - ring.gen("y3") * ring.gen("y4") ** 3)
    assert pair_sum.is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_extraspecial_dh_table_counts(n):
    table = C.extraspecial_e(n, 3).dh_table()
    expected = (2 * n) * (2 * n - 1) // 2 - 1
    assert len(table.rows) == expected
    assert all(r.certificate.verdict == C.NOT_IN_STRONG_CONIVEAU for r in table.rows)


def test_extraspecial_d_symplectic_rows_inconclusive():
    table = C.extraspecial_d(2).dh_table()
    by_label = {r.label: r.certificate.verdict for r in table.rows}
    assert by_label["Q0(x3*x4)"] == C.INCONCLUSIVE
    certified = [l for l, v in by_label.items() if v == C.NOT_IN_STRONG_CONIVEAU]
    assert sorted(certified) == ["Q0(x1*x3)", "Q0(x1*x4)", "Q0(x2*x3)", "Q0(x2*x4)"]


def test_excluded_pair_value_in_span_of_rows():
    # Q_0(x1*x2) = sum of the symplectic-block values, so dropping one pair
    # from the table loses nothing
    s = C.extraspecial_e(2, 3)
    cover = s.detect_pres
    act = s.q_action
    v12 = act.apply(0, cover.gen("x1") * cover.gen("x2"))
    v34 = act.apply(0, cover.gen("x3") * cover.gen("x4"))
    f = C.symplectic_form(cover, 2)
    assert (v12 + v34 - act.apply(0, f)).is_zero()


# -- simply connected and label module -----------------------------------------------------


def test_simply_connected_p2():
    s = C.simply_connected(2)
    cert = s.verify("w", (1,))
    assert cert.verdict == C.NOT_IN_STRONG_CONIVEAU
    assert cert.value == "w7"
    assert "restriction to g2" in cert.via


@pytest.mark.parametrize("p", [3, 5])
def test_simply_connected_odd(p):
    s = C.simply_connected(p)
    cert = s.verify("w", (1,))
    assert cert.verdict == C.NOT_IN_STRONG_CONIVEAU
    assert f"elementary(p={p},n=3)" in cert.via


def test_restriction_wraps_a_failed_inner_search():
    # w restricts to y1^2, a Chern multiple: the search and verify both
    # reissue the target's rejection for the simply connected scenario
    s = C.simply_connected(3)
    target, morphism, note = s.restriction
    square = C.AlgebraMorphism(morphism.source, target.detect_pres, {"w": target.resolve("y1") ** 2})
    s = dataclasses.replace(s, restriction=(target, square, note))
    searched = C.search_witness(s, s.candidate("w"))
    detected = s.verify("w", (1,))
    assert searched == detected
    assert searched.scenario == "simply-connected(p=3)" and searched.element == "w"
    assert searched.verdict == C.REJECTED_CHERN and searched.sequence == (1,)
    assert searched.via == "restriction to elementary(p=3,n=3)"
    assert searched.assumptions == (s.n1_assumption("w"), note)


@pytest.mark.parametrize("scenario", [C.extraspecial_e(2, 3), C.extraspecial_d(2)], ids=["e", "d"])
def test_cover_value_needs_a_declared_map(scenario):
    # detection runs on the polynomial cover, so a nonzero value there
    # certifies nothing without a candidate's own restriction map
    assert scenario.nonvanish_maps == ()
    cert = scenario.verify("x1*x2*x3", (1,))
    assert cert.verdict == C.INCONCLUSIVE
    assert cert.reason == "value is nonzero in the cover but no declared restriction certifies it"
    assert cert.value and cert.value != "0"


@pytest.mark.parametrize("scenario", [C.extraspecial_e(2, 3), C.extraspecial_d(2)], ids=["e", "d"])
def test_detect_by_candidate_label_uses_its_maps(scenario):
    # a candidate's label names its element and its declared restriction
    cert = scenario.verify("Q0(x1*x3)", (1,))
    assert cert.verdict == C.NOT_IN_STRONG_CONIVEAU
    assert cert == C.search_witness(scenario, scenario.candidate("Q0(x1*x3)"))


def test_candidate_labels_that_parse_name_their_element():
    # Scenario.candidate parses text before it reads the family, so a label
    # that also parses as an expression must name its candidate's element and
    # declare no maps of its own; a label that does not parse is found as is
    parsed = set()
    for key, build in C.builtin_scenarios().items():
        s = build()
        if isinstance(s, C.QModuleScenario):
            continue
        names = {g.name: s.detect_pres.gen(g.name) for g in s.detect_pres.generators}
        names.update(s.aliases)
        for cand in s.dh_candidates:
            try:
                element = parse_expression(s.detect_pres, names, cand.label)
            except ParseError:
                assert s.candidate(cand.label) is cand, (key, cand.label)
                parsed.add(False)
                continue
            assert element == cand.element and cand.maps is None, (key, cand.label)
            assert s.candidate(cand.label).element == cand.element
            parsed.add(True)
    assert parsed == {True, False}


def _pair(label):
    """(i, j) from a candidate label Q0(xi*xj)."""
    i, j = label[len("Q0(x"):-1].split("*x")
    return int(i), int(j)


@pytest.mark.parametrize(
    "scenario",
    [C.extraspecial_e(n, 3) for n in (2, 3, 4)] + [C.extraspecial_d(n) for n in (2, 3)],
    ids=lambda s: s.name,
)
def test_pair_restriction_against_term_support(scenario):
    # a commuting pair's declared map sends an operation value to zero
    # exactly when no term of the value lies on the pair's generators alone
    # (x_i, x_j and, at odd p, y_i, y_j); the support is read off exponent
    # tuples and generator names, and each map also meets the other
    # candidates' values, most of which it must kill
    index = [int(g.name[1:]) for g in scenario.detect_pres.generators]
    values = []
    for cand in scenario.dh_candidates:
        for k in range(1, scenario.max_search_index + 1):
            try:
                values.append(scenario.q_action.apply_sequence((k,), cand.element)[0])
            except DegreeCapError:
                pass
    outcomes = set()
    for cand in scenario.dh_candidates:
        i, j = _pair(cand.label)
        if i % 2 and j == i + 1:
            continue  # a symplectic pair: the comparison quotient, or no map at p = 2
        ((via, morphism),) = cand.maps
        assert via == f"restriction to the abelian subgroup on ({i},{j})"
        for value in values:
            on_pair = any(
                all(e == 0 or index[s] in (i, j) for s, e in enumerate(m)) for m in value.terms
            )
            assert morphism(value).is_zero() == (not on_pair)
            outcomes.add(on_pair)
    assert outcomes == {True, False}


@pytest.mark.parametrize("p", [3, 5])
def test_pgl_detect(p):
    module = C.pgl_module(p)
    cert = C.pgl_detect(module)
    assert cert.verdict == C.NOT_IN_STRONG_CONIVEAU
    assert cert.value == f"x{2 * p + 2}"


def test_pgl_detect_refuses_wrong_top_label(monkeypatch):
    monkeypatch.setattr(C.QModuleScenario, "apply", lambda self, i, labels: {"Q1u2": 1})
    with pytest.raises(C.ScenarioError):
        C.pgl_detect(C.pgl_module(3))


def test_pgl_label_module_nilpotence():
    module = C.pgl_module(3)
    assert module.apply(0, module.apply(0, {"u2": 1})) == {}
    assert module.apply(1, {"Q1Q0u2": 1}) == {}
    # anticommutation: Q_0 Q_1 u2 = -Q_1 Q_0 u2
    a = module.apply(0, module.apply(1, {"u2": 1}))
    b = module.apply(1, module.apply(0, {"u2": 1}))
    assert a == {"Q1Q0u2": 2} and b == {"Q1Q0u2": 1}


# -- flags -------------------------------------------------------------------------------


def _product_span(s, d):
    """Every nonempty product of flags times a Bockstein-kernel class, in
    degree d: the Chern span before it was reduced to single flags."""
    flags = [f for _, f in sorted(s.chern_flags.items()) if not f.is_zero()]
    out = []
    for k in range(1, d // min(f.degree() for f in flags) + 1):
        for factors in combinations_with_replacement(flags, k):
            c = s.detect_pres.one()
            for f in factors:
                c = c * f
            if c.is_zero() or c.degree() > d:
                continue
            out += [ck for kern in C.q0_kernel_basis(s, d - c.degree()) if not (ck := c * kern).is_zero()]
    return out


FLAGGED = [
    key for key, build in C.builtin_scenarios().items()
    if not isinstance(s := build(), C.QModuleScenario) and s.chern_flags
]


@pytest.mark.parametrize("key", FLAGGED)
def test_chern_span_from_single_flags_matches_products(key):
    # Q_0 kills every flag and its kernel is a subring, so the single-flag
    # span of chern_survival equals the span of all flag products
    s = C.builtin_scenarios()[key]()
    pres, p = s.detect_pres, s.prime
    rng = random.Random(f"chern-{key}")
    # the candidates, and seeded classes drawn from the whole degree and
    # from the Chern span itself, so that both verdicts occur
    classes = [c.element for c in s.dh_candidates]
    spans = {}
    for d in range(3, 7):
        spans[d] = _product_span(s, d)
        for pool in (pres.graded_basis(d), spans[d]):
            for _ in range(2 if pool else 0):
                picked = rng.sample(pool, min(3, len(pool)))
                e = sum((rng.randint(1, p - 1) * b for b in picked), pres.zero())
                if not e.is_zero():
                    classes.append(e)
    reduced = {}
    outcomes = set()
    for e in classes:
        d = e.degree()
        if d not in reduced:
            span = spans[d] if d in spans else _product_span(s, d)
            rows = [element_vector(x, d) for x in span]
            reduced[d] = oracle_rref(rows, p)[0] if rows else []
        survives = not oracle_in_span(element_vector(e, d), reduced[d], p)
        assert C.chern_survival(s, e) == survives, (key, str(e))
        outcomes.add(survives)
    # g2's flags start in degree 8, so no seeded class is a Chern multiple
    assert outcomes == ({True} if key == "g2" else {True, False})


WITH_TABLE = [
    key for key, build in C.builtin_scenarios().items()
    if getattr(build(), "q_action", None) is not None
]


@pytest.mark.parametrize("key", WITH_TABLE)
def test_q0_kernel_basis_against_oracle(key):
    # the Bockstein kernel in degrees 1..5 by rank counting: as many
    # independent classes as the degree's dimension minus the rank of the
    # Q_0 images, each with Q_0 value zero
    s = C.builtin_scenarios()[key]()
    pres, p = s.detect_pres, s.prime
    for d in range(1, min(5, pres.degree_cap - op_degree(p, 0)) + 1):
        basis = pres.graded_basis(d)
        images = [element_vector(s.q_action.apply(0, b), d + op_degree(p, 0)) for b in basis]
        kernel = C.q0_kernel_basis(s, d)
        assert len(kernel) == len(basis) - oracle_rank(images, p), (key, d)
        assert oracle_rank([element_vector(k, d) for k in kernel], p) == len(kernel)
        assert all(s.q_action.apply(0, k).is_zero() for k in kernel), (key, d)


def test_chern_reducer_cached_per_degree(monkeypatch):
    # one nullspace per Chern degree, for the kernel its span needs, then one
    # reduction per class
    s = dataclasses.replace(C.elementary_abelian(3, 3))
    calls = []
    nullspace = _kernels.nullspace
    monkeypatch.setattr(_kernels, "nullspace", lambda *a: calls.append(a) or nullspace(*a))
    classes = [c.element for c in s.dh_candidates if c.element.degree() == 4]
    assert [C.chern_survival(s, e) for e in classes] == [True] * len(classes)
    assert len(calls) == 1  # the degree-2 kernel
    y1, y2 = s.detect_pres.gen("y1"), s.detect_pres.gen("y2")
    assert not C.chern_survival(s, y1 * y2)
    assert len(calls) == 1


def test_replaced_scenario_builds_its_own_reducer():
    # a copy with more flags starts with an empty cache, so it does not reuse
    # the degree's reducer of the scenario it was copied from
    s = dataclasses.replace(C.elementary_abelian(3, 2))
    alpha = s.resolve("Q0(x1*x2)")
    assert C.chern_survival(s, alpha)
    enlarged = dataclasses.replace(s, chern_flags={**s.chern_flags, "extra": alpha})
    assert not C.chern_survival(enlarged, alpha)
    assert C.chern_survival(s, alpha)
    assert dataclasses.replace(s) == s  # the filled cache takes no part in equality


def test_candidates_built_once_per_instance(monkeypatch):
    # the family is built on its first read and kept; a dataclasses.replace
    # copy starts with an empty cache and builds the same family again
    calls = []
    build = C._elementary_candidates
    monkeypatch.setattr(C, "_elementary_candidates", lambda *a: calls.append(a) or build(*a))
    s = C.elementary_abelian.__wrapped__(3, 3)
    assert calls == []
    table = s.dh_table().to_dict()
    assert s.dh_table().to_dict() == table
    assert len(calls) == 1
    copy = dataclasses.replace(s)
    family = [(c.label, c.element.terms) for c in copy.dh_candidates]
    assert len(calls) == 2
    assert family == [(c.label, c.element.terms) for c in s.dh_candidates]
    assert len(family) == 4


def _eager_parts(key, s):
    """The aliases and stable ring of ``s`` built directly from their
    definitions, relations listed in the builders' order."""
    pres = s.presentation
    if key == "elementary":
        x = [pres.gen(f"x{i}") for i in (1, 2, 3)]
        aliases = {f"y{i}": x[i - 1] ** 2 for i in (1, 2, 3)}
        aliases["alpha"] = s.q_action.apply(0, x[0] * x[1] * x[2])
        free = GradedPresentation(2, [Generator(f"x{i}", 1) for i in (1, 2, 3)], 5)
        return aliases, free.quotient([free.gen(f"x{i}") ** 2 for i in (1, 2, 3)])
    if key == "so":
        w = {i: pres.gen(f"w{i}") for i in range(2, 6)}
        rels = [w[i] * w[j] for i in range(2, 6) for j in range(i, 6) if i + j <= 64]
        return {f"c{i}": w[i] ** 2 for i in w}, pres.quotient(rels + [w[3], w[5]])
    free = GradedPresentation(2, [Generator(f"x{i}", 1) for i in range(1, 5)], 5)
    rels = [free.gen(f"x{i}") ** 2 for i in range(1, 5)] + [C.symplectic_form(free, 2)]
    return {}, free.quotient(rels)


def _same_ring(P, Q, top):
    return (
        (P.prime, P.generators, P.degree_cap, [r.terms for r in P.relations])
        == (Q.prime, Q.generators, Q.degree_cap, [r.terms for r in Q.relations])
        and all(P.standard_monomials(d) == Q.standard_monomials(d) for d in range(top + 1))
    )


@pytest.mark.parametrize(
    "key, build, parts",
    [
        ("elementary", lambda: C.elementary_abelian.__wrapped__(2, 3),
         ["_exterior", "_elementary_aliases"]),
        ("so", lambda: C.so_odd.__wrapped__(2), ["_so_stable"]),
        ("extraspecial-d", lambda: C.extraspecial_d.__wrapped__(2),
         ["_lambda_mod_f", "_exterior"]),
    ],
)
def test_stable_ring_and_aliases_built_on_first_read(monkeypatch, key, build, parts):
    # header and dh_table read neither part, so a fresh instance (past the
    # builders' lru_cache) builds no stable ring and no alpha for them; each
    # part is built once, on its first read, and equals the eager build
    calls = []
    for name in ("_exterior", "_elementary_aliases", "_so_stable", "_lambda_mod_f"):
        original = getattr(C, name)
        monkeypatch.setattr(C, name, lambda *a, f=original, name=name: calls.append(name) or f(*a))
    s = build()
    s.header()
    s.dh_table()
    assert calls == []
    stable, aliases = s.stable_pres, s.aliases
    assert s.stable_pres is stable and s.aliases is aliases
    assert sorted(calls) == sorted(parts)
    eager_aliases, eager_stable = _eager_parts(key, s)
    assert aliases == eager_aliases
    assert _same_ring(stable, eager_stable, s.stable_top)


def test_unkilled_flag_refused_after_reducer_cached():
    # the flags are checked against Q_0 on every call, not only when the
    # degree's reducer is built
    s = dataclasses.replace(C.elementary_abelian(3, 2))
    alpha = s.resolve("Q0(x1*x2)")
    assert C.chern_survival(s, alpha)
    s.chern_flags = {**s.chern_flags, "x1": s.detect_pres.gen("x1")}
    with pytest.raises(C.ScenarioError, match="not killed by Q_0"):
        C.chern_survival(s, alpha)


def test_chern_test_without_operation_table_refused(tmp_path):
    # checking a flag needs Q_0: without a table the Chern test refuses as the
    # Bockstein kernel does, where it used to fail on the missing table; a
    # scenario without flags needs no table and still answers
    from coniveau import cli

    plain = "prime 3\ncap 8\ngen y 2\ngen x 1 odd\n"
    (tmp_path / "flagged.pres").write_text(plain + "chern c = y\n")
    (tmp_path / "plain.pres").write_text(plain)
    flagged = cli._load_user_scenario(str(tmp_path / "flagged.pres"))
    assert flagged.q_action is None
    e = flagged.detect_pres.gen("x") * flagged.detect_pres.gen("y")
    with pytest.raises(C.ScenarioError, match="no operation table on the detection ring"):
        C.chern_survival(flagged, e)
    bare = cli._load_user_scenario(str(tmp_path / "plain.pres"))
    assert C.chern_survival(bare, bare.detect_pres.gen("x") * bare.detect_pres.gen("y"))


def test_quadric_hyperplane_multiples_flagged():
    from coniveau.motivic import quadric_etale_ring

    ring = quadric_etale_ring(3)
    assert "h*rho4" in ring.algebraic
    assert "rho4" not in ring.algebraic


def test_chern_flag_closure_on_quadric():
    # flagged basis element times anything stays flagged (or dies): spot-check
    from coniveau.motivic import quadric_etale_ring

    ring = quadric_etale_ring(3)
    # h * (h*rho4) = h^2*rho4 flagged; h^3*rho4 * h = h^4*rho4 = 0 (relation)
    assert "h^2*rho4" in ring.algebraic
    assert "h^4*rho4" not in [n for n, _ in ring.torsion_basis]


# -- registry ------------------------------------------------------------------------------


def test_builtin_registry_complete():
    registry = C.builtin_scenarios()
    assert list(registry) == [
        "elementary(p=2,n=2)", "elementary(p=2,n=3)", "elementary(p=2,n=4)",
        "elementary(p=3,n=2)", "elementary(p=3,n=3)",
        "extraspecial-d(n=2)", "extraspecial-d(n=3)",
        "extraspecial-e(n=2,p=3)", "extraspecial-e(n=3,p=3)",
        "g2", "pgl(p=3)", "pgl(p=5)",
        "simply-connected(p=2)", "simply-connected(p=3)", "simply-connected(p=5)",
        "so(m=1)", "so(m=2)",
    ]
    for key, ctor in registry.items():
        s = ctor()
        name = s.name if hasattr(s, "name") else None
        assert name == key


def test_scenario_prime_is_the_presentations():
    for ctor in C.builtin_scenarios().values():
        s = ctor()
        if isinstance(s, C.Scenario):
            assert s.prime == s.presentation.prime
            with pytest.raises(AttributeError):
                s.prime = 5


def test_builtin_matrices_within_cell_budget(monkeypatch):
    # every S-pair matrix the report and the regular pair through degree 48
    # eliminate stays under the budget that refuses oversized user
    # presentations, far under it: the full relation matrices these replaced
    # would have had up to 7,169,175 cells
    shapes = []
    rref = _kernels.rref

    def recording(mat, p):
        shapes.append(mat.shape)
        return rref(mat, p)

    monkeypatch.setattr(_kernels, "rref", recording)
    # rings built by earlier tests have their bases already
    for cached in vars(C).values():
        if hasattr(cached, "cache_clear"):
            cached.cache_clear()
    for ctor in C.builtin_scenarios().values():
        ctor().report_section()
    report = len(shapes)
    _, small, pair = C.comparison_regular_pair(3, 20)
    for cap in (44, 48):
        big = GradedPresentation(3, small.generators, cap).quotient(pair)
        assert big.hilbert_series(cap)[44] == 680
    assert report and len(shapes) > report
    cells = [rows * cols for rows, cols in shapes]
    assert 0 < max(cells) <= MAX_MACAULAY_CELLS
    assert max(cells[:report]) < 20_000 and max(cells[report:]) < 1_000


def test_builtin_actions_validated():
    # built-ins skip validation at construction; this is the one-time check
    for key in ("elementary(p=2,n=3)", "elementary(p=3,n=2)", "extraspecial-e(n=2,p=3)", "extraspecial-d(n=2)"):
        s = C.builtin_scenarios()[key]()
        report = validate_q_axioms(s.q_action, cap=min(16, s.detect_pres.degree_cap))
        assert report.ok, (key, report.failures)


def test_scenario_hash_stable():
    a = C.elementary_abelian(2, 3).content_hash()
    C.elementary_abelian.cache_clear()
    b = C.elementary_abelian(2, 3).content_hash()
    assert a == b


def test_builtin_sha256_is_hashlibs():
    # provenance hashes come from CPython's built-in sha256, not hashlib's;
    # lengths 0-300 cross the 55/56-byte padding and 64-byte block boundaries
    rng = random.Random(28)
    for n in range(301):
        data = rng.randbytes(n)
        assert C.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest(), n
    text = "gen x\u2081 3\nrel \u03c1^2*\u03c4 \u2014 Q\u2080(w\u2082) \U0001d53d_p".encode()
    assert C.sha256(text).hexdigest() == hashlib.sha256(text).hexdigest()


def test_sha256_falls_back_to_hashlib():
    # a CPython that leaves the built-in module out gives the same provenance
    # hash through hashlib
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from coniveau import certificates\n"
        "print(certificates.elementary_abelian(2, 3).content_hash(), '_hashlib' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [C.elementary_abelian(2, 3).content_hash(), "True"]
