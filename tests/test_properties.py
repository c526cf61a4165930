"""Randomized axiom suites across every built-in scenario.

Each property runs at least a thousand seeded checks spread over the
scenario registry; failures print the scenario and the offending inputs.
"""

import random

import pytest

from coniveau import certificates as C

from helpers import element_vector, oracle_in_span, oracle_rref

SEED = 0x5EED


def scenario_pool():
    pool = []
    for key in C.BUILTIN_DEFAULTS:
        s = C.builtin_scenarios()[key]()
        if isinstance(s, C.QModuleScenario) or s.q_action is None:
            continue
        pool.append(s)
    return pool


POOL = scenario_pool()


def random_homogeneous(rng, pres, max_degree, nterms=3):
    max_degree = max(1, min(max_degree, pres.degree_cap))
    for _ in range(8):
        d = rng.randint(1, max_degree)
        monos = pres.monomials(d)
        if monos:
            terms = {}
            for _ in range(rng.randint(1, nterms)):
                m = monos[rng.randrange(len(monos))]
                terms[m] = rng.randint(1, pres.prime - 1)
            e = pres.element(terms)
            if not e.is_zero():
                return e
    return pres.gen(pres.generators[0].name)


def index_bound(scenario, reserve):
    """Largest operation index usable with `reserve` applications left
    inside the cap for small-degree inputs."""
    from coniveau.milnor import op_degree

    cap = scenario.detect_pres.degree_cap
    top = 0
    for i in range(scenario.q_action.max_index + 1):
        if 10 + reserve * op_degree(scenario.prime, i) <= cap:
            top = i
    return top


def test_leibniz_rule():
    from coniveau.milnor import op_degree

    rng = random.Random(SEED)
    checks = 0
    while checks < 1000:
        for s in POOL:
            pres, act = s.detect_pres, s.q_action
            i = rng.randint(0, index_bound(s, 1))
            budget = pres.degree_cap - op_degree(s.prime, i)
            a = random_homogeneous(rng, pres, min(5, budget - 1))
            b = random_homogeneous(rng, pres, min(4, budget - a.degree()))
            sign = -1 if (s.prime != 2 and a.degree() % 2) else 1
            lhs = act.apply(i, a * b)
            rhs = act.apply(i, a) * b + sign * (a * act.apply(i, b))
            assert lhs == rhs, (s.name, i, str(a), str(b))
            checks += 1
    print(f"leibniz: {checks} checks")
    assert checks >= 1000


def test_anticommutation():
    rng = random.Random(SEED + 1)
    checks = 0
    while checks < 1000:
        for s in POOL:
            pres, act = s.detect_pres, s.q_action
            top = index_bound(s, 2)
            i = rng.randint(0, top)
            j = rng.randint(0, top)
            e = random_homogeneous(rng, pres, 6)
            lhs = act.apply(i, act.apply(j, e))
            rhs = act.apply(j, act.apply(i, e))
            assert (lhs + rhs).is_zero(), (s.name, i, j, str(e))
            checks += 1
    print(f"anticommutation: {checks} checks")
    assert checks >= 1000


def test_nilpotence():
    rng = random.Random(SEED + 2)
    checks = 0
    while checks < 1000:
        for s in POOL:
            pres, act = s.detect_pres, s.q_action
            i = rng.randint(0, index_bound(s, 2))
            e = random_homogeneous(rng, pres, 6)
            assert act.apply(i, act.apply(i, e)).is_zero(), (s.name, i, str(e))
            checks += 1
    print(f"nilpotence: {checks} checks")
    assert checks >= 1000


def quotient_pool():
    rings = [
        C.extraspecial_e4(2, 3)[0],
        C.comparison_regular_pair(3, 24)[1],
        C.quillen_d_ring(2)[0],
        C._lambda_mod_f(2, 3),
        C._lambda_mod_f(2, 2),
    ]
    return rings


def macaulay_echelon(pres, degree):
    """Oracle echelon form of the degree's Macaulay rows: every cofactor
    monomial times every relation, multiplied in the free presentation."""
    rows = []
    for r in pres.relations:
        if r.degree() <= degree:
            for cof in pres.monomials(degree - r.degree()):
                rows.append(element_vector(pres.free.monomial(cof) * r, degree))
    return oracle_rref(rows, pres.prime)


def test_normal_form_against_macaulay_oracle():
    # pres.element(raw) differs from raw by a combination of Macaulay rows and
    # has no term on an oracle pivot column: it is the normal form
    rng = random.Random(SEED + 3)
    rings = quotient_pool()
    echelon = {}
    checks = 0
    while checks < 1000:
        for pres in rings:
            p = pres.prime
            d = rng.randint(1, min(8, pres.degree_cap))
            monos = pres.monomials(d)
            if not monos:
                continue
            raw = {}
            for _ in range(rng.randint(1, 4)):
                # any integer coefficient, multiples of p included
                raw[monos[rng.randrange(len(monos))]] = rng.randint(-2 * p, 2 * p)
            e = pres.element(raw)
            if (id(pres), d) not in echelon:
                echelon[id(pres), d] = macaulay_echelon(pres, d)
            rows, pivots = echelon[id(pres), d]
            index = {m: i for i, m in enumerate(monos)}
            diff = [0] * len(monos)
            for m, c in raw.items():
                diff[index[m]] += c
            for m, c in e.terms.items():
                assert 0 < c < p, (str(pres), raw, str(e))
                assert index[m] not in pivots, (str(pres), raw, str(e))
                diff[index[m]] -= c
            assert oracle_in_span(diff, rows, p), (str(pres), raw, str(e))
            checks += 1
    print(f"normal forms against the Macaulay oracle: {checks} checks")
    assert checks >= 1000


def test_graded_commutativity():
    rng = random.Random(SEED + 4)
    checks = 0
    while checks < 1000:
        for s in POOL:
            pres = s.detect_pres
            a = random_homogeneous(rng, pres, min(5, pres.degree_cap - 1))
            b = random_homogeneous(rng, pres, min(5, pres.degree_cap - a.degree()))
            sign = -1 if (s.prime != 2 and a.degree() % 2 and b.degree() % 2) else 1
            assert a * b == sign * (b * a), (s.name, str(a), str(b))
            checks += 1
    print(f"graded commutativity: {checks} checks")
    assert checks >= 1000


def test_associativity_and_distributivity():
    rng = random.Random(SEED + 5)
    checks = 0
    for s in POOL:
        pres = s.detect_pres
        for _ in range(25):
            a = random_homogeneous(rng, pres, min(4, pres.degree_cap - 2))
            rest = pres.degree_cap - a.degree()
            b = random_homogeneous(rng, pres, min(3, rest - 1))
            c = random_homogeneous(rng, pres, min(3, rest - b.degree()))
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            checks += 1
    print(f"ring laws: {checks} checks")
    assert checks >= 250
