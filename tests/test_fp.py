"""Core algebra: arithmetic, normal forms, bases, Hilbert series, morphisms."""

import pytest

from coniveau import certificates as C
from coniveau.fp import (
    MAX_PRIME,
    AlgebraMorphism,
    DegreeCapError,
    Generator,
    GradedPresentation,
    MorphismError,
    NonHomogeneousError,
    PresentationMismatchError,
    check_prime,
    regular_sequence_check,
)

from helpers import (
    element_vector,
    oracle_ideal_dimension,
    oracle_in_span,
    oracle_monomial_product,
    oracle_monomials,
)


def exterior(p, n, cap=10):
    return GradedPresentation(p, [Generator(f"x{i}", 1) for i in range(1, n + 1)], cap)


def lambda_mod_f(p=3):
    P = exterior(p, 4)
    x1, x2, x3, x4 = P.gens()
    return P.quotient([x1 * x2 + x3 * x4])


def test_check_prime():
    for p in (2, 3, 5, 7, 11):
        assert check_prime(p) == p
    for bad in (1, 4, 9, -3, 0):
        with pytest.raises(ValueError):
            check_prime(bad)


def test_prime_bound():
    # MAX_PRIME is the largest prime below 2**20.  Elimination is on Python
    # ints, so no int64 sum depends on it any more; it stays so that the same
    # primes are refused: the next prime and 2**32 + 15
    assert check_prime(MAX_PRIME) == MAX_PRIME
    assert MAX_PRIME < 2**20 < 1048583
    for big in (1048583, 4294967311):
        with pytest.raises(ValueError, match="maximum"):
            check_prime(big)
    with pytest.raises(ValueError):
        GradedPresentation(4294967311, [Generator("x", 2)], 8)


def test_parity_rules():
    with pytest.raises(ValueError):
        GradedPresentation(3, [Generator("x", 2, "odd")], 8)
    with pytest.raises(ValueError):
        GradedPresentation(2, [Generator("x", 1, "odd")], 8)
    # p = 2: odd-degree generators are polynomial
    P = GradedPresentation(2, [Generator("x", 1)], 8)
    assert not (P.gen("x") ** 5).is_zero()


# -- addition ---------------------------------------------------------------


def test_add_characteristic_two():
    P = exterior(2, 2)
    x1 = P.gen("x1")
    assert (x1 + x1).is_zero()


def test_add_distinct_terms():
    P = GradedPresentation(3, [Generator("y1", 2), Generator("y2", 2)], 8)
    y1, y2 = P.gens()
    assert str(y1 + y2) == "y1 + y2"


def test_add_mod_three():
    P = GradedPresentation(3, [Generator("y1", 2), Generator("y2", 2)], 8)
    y1, y2 = P.gens()
    assert (y1 + 2 * y2) + y2 == y1


def test_presentation_mismatch():
    P, Q = exterior(3, 2), exterior(3, 2)
    with pytest.raises(PresentationMismatchError):
        P.gen("x1") + Q.gen("x1")


# -- multiplication -----------------------------------------------------------


def test_exterior_square_vanishes():
    P = exterior(3, 2)
    assert (P.gen("x1") * P.gen("x1")).is_zero()


def test_koszul_sign():
    P = exterior(3, 2)
    x1, x2 = P.gens()
    assert x2 * x1 == -(x1 * x2)
    assert str(x2 * x1) == "2*x1*x2"


def test_frobenius_characteristic_two():
    P = GradedPresentation(2, [Generator("y1", 2), Generator("y2", 2)], 8)
    y1, y2 = P.gens()
    assert (y1 + y2) ** 2 == y1**2 + y2**2


def test_graded_commutativity_signs():
    P = GradedPresentation(3, [Generator("y", 2), Generator("x", 1), Generator("z", 1)], 12)
    y, x, z = P.gens()
    assert x * y == y * x          # even * odd commutes
    assert z * x == -(x * z)       # odd * odd anticommutes


def test_degree_cap_overflow():
    P = exterior(2, 2, cap=3)
    x1 = P.gen("x1")
    with pytest.raises(DegreeCapError):
        (x1**2) * (x1**2)


def test_huge_powers_end():
    # powers that stop growing (zero, a unit, 1 + an exterior class) took one
    # product per unit of the exponent; a presentation file can write 10^11
    P = GradedPresentation(3, [Generator("x", 1), Generator("y", 2)], 12)
    x, y = P.gens()
    n = 10**11 + 2  # = 0 mod 2, = 0 mod 3, = 2 mod 9
    assert (x**n).is_zero() and ((x * y) ** n).is_zero()
    assert (2 * P.one()) ** n == P.one()
    assert (P.one() + x) ** n == P.one() + (n % 3) * x
    with pytest.raises(DegreeCapError, match="degree 14 above cap 12"):
        y ** n
    with pytest.raises(DegreeCapError):
        (P.one() + y) ** n
    for k in range(7):  # the same products as repeated multiplication
        e, f = P.one(), P.one() + x + 2 * y
        for _ in range(k):
            e = e * f
        assert f**k == e


# -- normal forms ----------------------------------------------------------------


def test_relation_reduces_to_zero():
    Q = lambda_mod_f()
    x1, x2, x3, x4 = Q.gens()
    assert (x1 * x2 + x3 * x4).is_zero()


def test_normal_form_example():
    # x1*x2 = -x3*x4 modulo the symplectic form, checked against a brute
    # span oracle independent of the reduction engine
    Q = lambda_mod_f()
    x1, x2, x3, x4 = Q.gens()
    value = x1 * x2
    assert value == -(x3 * x4)
    free = exterior(3, 4)
    f = free.gen("x1") * free.gen("x2") + free.gen("x3") * free.gen("x4")
    diff = free.gen("x1") * free.gen("x2") - free.element(value.terms)
    assert oracle_in_span(element_vector(diff, 2), [element_vector(f, 2)], 3)


def test_normal_form_untouched_degree():
    P = GradedPresentation(3, [Generator("y1", 2), Generator("x1", 1)], 8)
    Q = P.quotient([P.gen("x1") * P.gen("y1")])
    assert Q.gen("y1") == Q.element({(1, 0): 1})


def test_normal_form_idempotent_linear():
    Q = lambda_mod_f()
    x1, x2, x3, x4 = Q.gens()
    e = x1 * x2 + 2 * x1 * x3
    assert Q.element(e.terms) == e
    # reduction is linear; x1*x2 = -x3*x4 in Q, so their raw sum reduces to 0
    a, b, c = {(1, 1, 0, 0): 1}, {(0, 0, 1, 1): 1}, {(1, 0, 1, 0): 2}
    assert Q.element({**a, **b}) == Q.element(a) + Q.element(b) == Q.zero()
    assert Q.element({**a, **c}) == Q.element(a) + Q.element(c)


def test_is_zero():
    Q = lambda_mod_f()
    assert Q.zero().is_zero()
    assert not Q.gen("x1").is_zero()


# -- graded bases and Hilbert series ------------------------------------------------


def test_graded_basis_exterior_degree_one():
    P = exterior(3, 2)
    assert [str(b) for b in P.graded_basis(1)] == ["x1", "x2"]


def test_graded_basis_monomial_count():
    P = GradedPresentation(2, [Generator("w2", 2), Generator("w3", 3)], 12)
    assert {str(b) for b in P.graded_basis(6)} == {"w2^3", "w3^2"}


def test_graded_basis_quotient_size():
    Q = lambda_mod_f()
    assert len(Q.graded_basis(2)) == 5
    free = exterior(3, 4)
    f = free.gen("x1") * free.gen("x2") + free.gen("x3") * free.gen("x4")
    assert oracle_ideal_dimension(free, [f], 2) == 1  # 6 - 1 = 5


def test_graded_basis_deterministic():
    a = [str(b) for b in lambda_mod_f().graded_basis(2)]
    b = [str(b) for b in lambda_mod_f().graded_basis(2)]
    assert a == b


def test_hilbert_exterior():
    assert exterior(3, 2).hilbert_series(2) == [1, 2, 1]


def test_hilbert_polynomial_count():
    P = GradedPresentation(3, [Generator("y1", 2), Generator("y2", 2)], 10)
    assert P.hilbert_series(6)[6] == 4


def test_hilbert_quotient_series():
    # frozen from the brute-force oracle (and the rank-2 symplectic
    # reduction: 6-1, 4-4, 1-1 in degrees 2..4)
    assert lambda_mod_f().hilbert_series(5) == [1, 4, 5, 0, 0, 0]
    free = exterior(3, 4)
    f = free.gen("x1") * free.gen("x2") + free.gen("x3") * free.gen("x4")
    for d in range(5):
        full = len(free.monomials(d))
        assert lambda_mod_f().dimension(d) == full - oracle_ideal_dimension(free, [f], d)


def test_hilbert_free_matches_closed_form():
    from math import comb

    P = GradedPresentation(5, [Generator(f"y{i}", 2) for i in range(1, 4)], 20)
    for d in range(0, 21):
        expected = comb(d // 2 + 2, 2) if d % 2 == 0 else 0
        assert P.dimension(d) == expected


def test_hilbert_tensor_convolution():
    A = exterior(3, 2, cap=8)
    B = GradedPresentation(3, [Generator("u1", 2), Generator("u2", 2)], 8)
    T = GradedPresentation(3, A.generators + B.generators, 8)  # both free
    sa, sb, st = A.hilbert_series(8), B.hilbert_series(8), T.hilbert_series(8)
    for d in range(9):
        assert st[d] == sum(sa[i] * sb[d - i] for i in range(d + 1))


def test_hilbert_cap_guard():
    with pytest.raises(DegreeCapError):
        exterior(2, 2, cap=4).hilbert_series(9)
    with pytest.raises(ValueError, match="negative degree cap -3"):
        exterior(2, 2, cap=4).hilbert_series(-3)


# -- the monomial table ------------------------------------------------------------


def assert_monomials_match_oracle(pres, degrees):
    gen_degrees = [g.degree for g in pres.generators]
    odd = [pres.prime != 2 and g.degree % 2 == 1 for g in pres.generators]
    for d in degrees:
        assert list(pres.monomials(d)) == oracle_monomials(gen_degrees, odd, d), d


def mixed_p3(cap=14, p=3):
    # exterior generators between polynomial ones, of degrees 1 and 3
    names = (("y1", 2), ("x1", 1), ("y2", 4), ("x2", 3), ("x3", 1), ("y3", 2))
    return GradedPresentation(p, [Generator(n, d) for n, d in names], cap)


@pytest.mark.parametrize("key", sorted(C.builtin_scenarios()))
def test_monomials_match_oracle_on_builtins(key):
    scenario = C.builtin_scenarios()[key]()
    for pres in (getattr(scenario, "presentation", None), getattr(scenario, "stable_pres", None)):
        if pres is not None:
            assert_monomials_match_oracle(pres, range(pres.degree_cap + 1))


def test_monomials_match_oracle_with_exterior_generators():
    P = mixed_p3()
    assert_monomials_match_oracle(P, range(P.degree_cap + 1))
    assert P.monomials(1) == ((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0))


def test_monomial_list_budget():
    # p = 2, 120 degree-1 generators: degree 3 would list C(122, 3) = 295,240
    # monomials of 120 exponents, 35.4M entries; the count-only pass refuses it
    # before anything of degree 3 is listed
    P = GradedPresentation(2, [Generator(f"g{i}", 1) for i in range(120)], 3)
    assert P.hilbert_series(2) == [1, 120, 7260]
    with pytest.raises(DegreeCapError, match="degree 3: the monomial list would hold 295240 "):
        P.monomials(3)
    with pytest.raises(DegreeCapError, match="295240"):
        P.dimension(3)
    assert 3 not in P._table._entries


def test_monomials_of_many_generators():
    # the table builds each degree from lower ones without recursing over the
    # generator list, so a long list stays within the interpreter's stack
    n = 1200
    P = GradedPresentation(2, [Generator(f"g{i}", 1) for i in range(n)], 1)
    assert P.monomials(1) == tuple(tuple(int(i == k) for i in range(n)) for k in range(n))
    assert P.hilbert_series() == [1, n]


@pytest.mark.parametrize("first", ["quotient", "free"])
def test_monomial_table_shared_by_quotient_and_free_twin(first):
    P = mixed_p3()
    y1, x1, y2, x2, x3, y3 = P.gens()
    rels = [y1 * y3 - y2, y1 * x1 * x3 + x2 * x3]
    Q = P.quotient(rels)
    filler, other = (Q, Q.free) if first == "quotient" else (Q.free, Q)
    # fill the shared table from the top degree down through one presentation,
    # then query the other from the bottom up
    for d in range(P.degree_cap, -1, -1):
        filler.monomials(d)
    assert_monomials_match_oracle(other, range(P.degree_cap + 1))
    assert all(Q.monomials(d) is Q.free.monomials(d) for d in range(P.degree_cap + 1))
    # the eliminations on the filled table agree with a fresh presentation's
    assert Q.hilbert_series() == mixed_p3().quotient(rels).hilbert_series()


def test_mul_without_exterior_generators_adds_exponents():
    P = GradedPresentation(3, [Generator("a", 2), Generator("b", 4), Generator("c", 2)], 16)
    degrees, odd = [2, 4, 2], [False] * 3
    for d1, d2 in ((0, 4), (2, 6), (4, 4), (6, 8)):
        left, right = oracle_monomials(degrees, odd, d1), oracle_monomials(degrees, odd, d2)
        for m1 in left:
            for m2 in right:
                prod = P.monomial(m1, 2) * P.monomial(m2, 2)
                assert prod.terms == {tuple(a + b for a, b in zip(m1, m2)): 1}
        # sums: the product is the convolution over exponent addition, mod 3
        e1 = {m: i % 2 + 1 for i, m in enumerate(left)}
        e2 = {m: i % 3 for i, m in enumerate(right)}
        want: dict = {}
        for m1, c1 in e1.items():
            for m2, c2 in e2.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                want[m] = (want.get(m, 0) + c1 * c2) % 3
        assert (P.element(e1) * P.element(e2)).terms == {m: c for m, c in want.items() if c}


@pytest.mark.parametrize("p", [3, 5])
def test_mul_monomials_against_sign_oracle(p):
    # every pair of monomials through degree 6, colliding exterior exponents
    # included, against the inversion count of the odd factors
    P = mixed_p3(p=p)
    degrees = [g.degree for g in P.generators]
    odd = [d % 2 == 1 for d in degrees]
    monos = [m for d in range(7) for m in oracle_monomials(degrees, odd, d)]
    outcomes = set()
    for m1 in monos:
        for m2 in monos:
            want = oracle_monomial_product(m1, m2, odd)
            assert P._mul_monomials(m1, m2) == want, (m1, m2)
            outcomes.add(None if want is None else want[1])
    assert outcomes == {None, 1, -1}


# -- morphisms -------------------------------------------------------------------------


def test_identity_morphism():
    P = exterior(3, 2)
    ident = AlgebraMorphism(P, P, {"x1": P.gen("x1"), "x2": P.gen("x2")})
    e = P.gen("x1") * P.gen("x2") + P.gen("x1")
    assert ident(e) == e


def test_diagonal_restriction():
    src = exterior(3, 2)
    tgt = exterior(3, 1)
    x = tgt.gen("x1")
    diag = AlgebraMorphism(src, tgt, {"x1": x, "x2": x})
    assert diag(src.gen("x1") + src.gen("x2")) == 2 * x


def test_morphism_relation_check():
    Q = lambda_mod_f()
    free = exterior(3, 4)
    images = {f"x{i}": Q.gen(f"x{i}") for i in range(1, 5)}
    # free -> quotient is fine; quotient -> free must fail (relation not killed)
    AlgebraMorphism(free, Q, images)
    back = {f"x{i}": free.gen(f"x{i}") for i in range(1, 5)}
    with pytest.raises(MorphismError):
        AlgebraMorphism(Q, free, back)


def test_morphism_degree_check():
    P = exterior(3, 1)
    R = GradedPresentation(3, [Generator("y", 2)], 8)
    with pytest.raises(MorphismError):
        AlgebraMorphism(P, R, {"x1": R.gen("y")})


def test_simply_connected_style_image():
    from coniveau.certificates import elementary_abelian

    target = elementary_abelian(3, 3)
    src = GradedPresentation(3, [Generator("w", 4)], 16)
    image = target.resolve("alpha")
    j = AlgebraMorphism(src, target.detect_pres, {"w": image})
    assert j(src.gen("w")) == image
    assert j(src.gen("w") ** 2) == image * image


def test_gen_and_one_return_normal_forms():
    # every public constructor returns a normal form, so a generator or unit
    # killed by a relation equals zero() and prints as 0
    P = exterior(2, 2)
    Q = P.quotient([P.gen("x1")])
    assert Q.gen("x1") == Q.zero() and str(Q.gen("x1")) == "0"
    assert Q.gen("x2") != Q.zero()
    R = P.quotient([P.one()])
    assert R.one() == R.zero() and str(R.one()) == "0"


# -- ideals and regular sequences ----------------------------------------------------


def test_in_ideal():
    P = GradedPresentation(3, [Generator("y1", 2), Generator("y2", 2), Generator("x1", 1), Generator("x2", 1)], 10)
    y1, y2, x1, x2 = P.gens()
    Q = P.quotient([y1, y2])  # e lies in ideal(y1, y2) iff it dies in the quotient
    assert Q.element((y1 * x2).terms).is_zero()
    assert not Q.element((x1 * x2).terms).is_zero()


def test_regular_sequence_repeated_element():
    P = GradedPresentation(3, [Generator("y", 2)], 12)
    y = P.gen("y")
    report = regular_sequence_check(P, [y, y], 12)
    assert not report.regular
    assert report.first_failure is not None


def test_regular_sequence_full_quotient():
    P = GradedPresentation(5, [Generator("y1", 2), Generator("y2", 2)], 12)
    report = regular_sequence_check(P, [P.gen("y1"), P.gen("y2")], 12)
    assert report.regular
    assert report.quotient_series == (1,) + (0,) * 12


def test_regular_sequence_rejects_nonfree():
    Q = lambda_mod_f()
    with pytest.raises(ValueError):
        regular_sequence_check(Q, [Q.gen("x1")], 4)


def test_regular_sequence_rejects_inhomogeneous():
    P = GradedPresentation(3, [Generator("y", 2)], 12)
    y = P.gen("y")
    with pytest.raises(NonHomogeneousError):
        regular_sequence_check(P, [y + y * y], 8)


# -- element bookkeeping -----------------------------------------------------------


def test_homogeneous_degree_accessor():
    P = exterior(3, 3)
    e = P.gen("x1") * P.gen("x2")
    assert e.degree() == 2
    with pytest.raises(NonHomogeneousError):
        (e + P.gen("x1")).degree()
    assert P.zero().degree() is None


def test_leading_monomial_and_coefficient():
    P = exterior(3, 3)
    x1, x2, x3 = P.gens()
    e = x2 * x3 + 2 * x1 * x2
    assert e.leading_monomial() == (1, 1, 0)
    assert e.coefficient((0, 1, 1)) == 1
    assert e.coefficient((1, 0, 1)) == 0


def test_str_canonical():
    P = exterior(3, 2)
    assert str(P.zero()) == "0"
    assert str(P.one() * 2) == "2"
    assert str(2 * P.gen("x1") * P.gen("x2")) == "2*x1*x2"


def test_element_refuses_malformed_exponents():
    # element() is the one raw entry, so it refuses what monomial() refuses:
    # an exterior square, a negative exponent, a wrong tuple length
    P = exterior(3, 2)
    for bad in ((2, 0), (-1, 1), (1,)):
        with pytest.raises(ValueError):
            P.element({bad: 1})
    with pytest.raises(DegreeCapError):
        GradedPresentation(2, [Generator("x", 1)], 4).element({(5,): 1})
