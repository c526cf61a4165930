"""Motive membership, integral rings, obstruction tests."""

from functools import partial

import pytest

from helpers import brute_reachable, quadric_ranks, rost_generator_exponents

from coniveau.motivic import (
    MAX_QUADRIC_N,
    N1Verdict,
    RankMismatchError,
    _decomposition_table,
    dh_quadric_check,
    n1_membership,
    quadric_etale_ring,
    rost_etale_ring,
    unramified_quotient_quadric,
)


# -- motive membership ----------------------------------------------------------------


def test_closed_form_premise():
    # n1_membership decides rho^s tau^-1 by n + 1 <= s: a' = rho^(n+1) tau^-1
    # is a generator, and none with a negative tau-exponent has a smaller
    # rho-exponent
    for n in range(1, MAX_QUADRIC_N + 1):
        gens = rost_generator_exponents(n)
        assert (n + 1, -1) in gens, n
        assert min(s for s, t in gens if t < 0) == n + 1, n


# -- obstruction verdicts ---------------------------------------------------------------


def test_n1_low_degrees_no_preimage():
    for n in (2, 3):
        for s in range(1, n + 1):
            v = n1_membership(s, n)
            assert v.in_n1 is False and v.candidate is None
            assert "no tau-preimage" in v.reason


def test_n1_first_obstruction():
    for n in (2, 3):
        v = n1_membership(n + 1, n)
        assert v.in_n1 is False
        assert v.candidate == f"rho^{n + 1}*tau^-1"
        assert v.obstruction == f"rho^{n + 2}*tau^-2"


def test_n1_second_obstruction_is_rho_times_prior():
    for n in (2, 3):
        v = n1_membership(n + 2, n)
        assert v.in_n1 is False
        s, t = n + 2, -2  # Q0(a'), index set {0}
        assert (s, t) in rost_generator_exponents(n)
        assert v.obstruction == f"rho^{s + 1}*tau^{t}"


def test_n1_top_class_is_member():
    n = 3
    v = n1_membership(2 ** (n + 1) - 2, n)
    assert v.in_n1 is True


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_n1_verdicts_closed_form(n):
    # every verdict as literal text: no preimage off the reachable set, the
    # top class a member (Q_0 lands above the rho truncation), and otherwise
    # the unique candidate rho^s tau^-1 with Q_0 value rho^(s+1) tau^-2
    reachable = brute_reachable(n)
    top = 2 ** (n + 1) - 2
    for s in range(1, top + 1):
        v = n1_membership(s, n)
        if (s, -1) not in reachable:
            assert (v.in_n1, v.candidate, v.obstruction) == (False, None, None), s
            assert v.reason.startswith("no tau-preimage"), s
        elif s == top:
            assert v == N1Verdict(s, True, f"rho^{s}*tau^-1", None, "integral tau-preimage found")
        else:
            assert v == N1Verdict(
                s, False, f"rho^{s}*tau^-1", f"rho^{s + 1}*tau^-2",
                f"unique candidate rho^{s}*tau^-1 has nonzero Q_0 value",
            )


def test_n1_range_check():
    with pytest.raises(ValueError):
        n1_membership(0, 2)
    with pytest.raises(ValueError):
        n1_membership(7, 2)


# -- integral rings ------------------------------------------------------------------


def test_rost_ring_n2():
    # the bases give [name, degree] rows and the flagged names sorted, on
    # every pass
    r = rost_etale_ring(2)
    for _ in range(2):
        assert list(r.torsion_basis) == [["rho4", 4]]
        assert list(r.algebraic) == ["1", "pi", "rho4"]
        assert list(r.free_basis) == [["1", 0], ["pi", 6]]
    assert list(r.flagged) == [["1", 0], ["rho4", 4], ["pi", 6]]


def test_rost_ring_n3():
    r = rost_etale_ring(3)
    assert list(r.torsion_basis) == [["rho4", 4], ["rho4^2", 8], ["rho4^3", 12]]
    assert list(r.algebraic) == ["1", "pi", "rho4^2", "rho4^3"]
    assert list(r.flagged) == [["1", 0], ["rho4^2", 8], ["rho4^3", 12], ["pi", 14]]
    assert r.ranks(0) == (1, 0)


def test_quadric_ring_n3_additive_structure():
    ring = quadric_etale_ring(3)
    expected_torsion = {4: 1, 6: 1, 8: 2, 10: 1, 12: 1}
    for d in range(0, 15, 2):
        free, tor = ring.ranks(d)
        assert free == 1, d
        assert tor == expected_torsion.get(d, 0), d
    assert "pi = h^7" in ring.notes


def test_quadric_ring_n3_cycle_image_quotient():
    ring = quadric_etale_ring(3)
    not_algebraic = [name for name, _ in ring.torsion_basis if name not in ring.algebraic]
    assert not_algebraic == ["rho4"]


def test_quadric_ring_n2():
    ring = quadric_etale_ring(2)
    assert list(ring.torsion_basis) == [["rho4", 4]]
    assert [d for _, d in ring.free_basis] == [0, 2, 4, 6]
    # the redundant relation is dropped from the reduced list
    assert "h^2*rho4" not in ring.minimal_relations
    assert set(ring.minimal_relations) == {"2*rho4", "h^4", "h*rho4", "rho4^2"}


def test_quadric_ranks_match_decomposition():
    # the table each ring is validated against is the closed form's
    for n in (2, 3, 4):
        want = quadric_ranks(n)
        assert _decomposition_table(n) == want
        ring = quadric_etale_ring(n)
        for d in range(0, ring.max_degree() + 1, 2):
            assert ring.ranks(d) == want.get(d, (0, 0)), (n, d)


@pytest.mark.parametrize("n", range(2, 9))
def test_quadric_ranks_match_closed_form(n):
    ring = quadric_etale_ring(n)
    want = quadric_ranks(n)
    top = 2 ** (n + 1) - 2
    assert ring.max_degree() == top == max(want)
    for d in range(top + 3):
        assert ring.ranks(d) == want.get(d, (0, 0)), (n, d)


def test_decomposition_examples():
    ranks = quadric_ranks(3)
    assert ranks[0] == (1, 0)
    assert ranks[8] == (1, 2)
    assert ranks[14] == (1, 0)
    assert 5 not in ranks


def test_quadric_parameter_bound():
    # the rings and the rank tables grow like 2^n; above the bound each
    # entry point refuses before building anything
    n = MAX_QUADRIC_N + 1
    for build in (partial(n1_membership, 4), rost_etale_ring, quadric_etale_ring,
                  dh_quadric_check, unramified_quotient_quadric):
        with pytest.raises(ValueError, match="maximum"):
            build(n)


def test_quadric_check_at_parameter_bound():
    # the rho truncation at the bound: the top class is the one member
    top = 2 ** (MAX_QUADRIC_N + 1) - 2
    assert n1_membership(top, MAX_QUADRIC_N).in_n1 is True
    with pytest.raises(ValueError, match="out of range"):
        n1_membership(top + 1, MAX_QUADRIC_N)
    cert = dh_quadric_check(MAX_QUADRIC_N)
    assert cert.verdict == "DH=0"
    assert len(cert.torsion_checks) == 2 ** (MAX_QUADRIC_N - 1) - 1


def test_unramified_quotient():
    u3 = unramified_quotient_quadric(3)
    assert [name for name, _ in u3.torsion_basis] == ["rho4", "rho4^2", "rho4^3"]
    assert u3.free_basis == (("1", 0),)
    assert unramified_quotient_quadric(2).torsion_basis == (("rho4", 4),)
    assert unramified_quotient_quadric(1).torsion_basis == ()


def test_dh_quadric_check():
    for n in (2, 3):
        cert = dh_quadric_check(n)
        assert cert.verdict == "DH=0"
        assert all(v.rejected() for v in cert.torsion_checks)
        assert any("reciprocity" in line for line in cert.detail)


def test_dh_quadric_negative_control():
    cert = dh_quadric_check(2, force_n1=(4,))
    assert cert.verdict == "cannot conclude"


def test_torsion_generators_all_rejected():
    for n in (2, 3):
        ring = rost_etale_ring(n)
        for _, degree in ring.torsion_basis:
            assert n1_membership(degree, n).rejected()


def quadric_monomial_product(n, a, b):
    """(j,i) pairs multiply by exponent addition; the four monomial
    relations of the quadric ring decide vanishing."""
    j, i = a[0] + b[0], a[1] + b[1]
    if j >= 2**n or i >= 2 ** (n - 1):
        return None
    if j >= 1 and i >= 2 ** (n - 2):
        return None
    if j >= 2 ** (n - 1) and i >= 1:
        return None
    return (j, i)


def _quadric_monomials(n):
    monos = [(j, 0) for j in range(2**n)]
    for j in range(2**n):
        for i in range(1, 2 ** (n - 1)):
            if quadric_monomial_product(n, (j, i), (0, 0)):
                monos.append((j, i))
    return monos


def _name_of(j, i):
    from coniveau.motivic import _quadric_name

    if i == 0:
        return "1" if j == 0 else ("h" if j == 1 else f"h^{j}")
    return _quadric_name(j, i)


@pytest.mark.parametrize("n", [2, 3])
def test_flag_closure_under_multiplication(n):
    # positive-degree cycle-map-image classes times any class stay flagged
    # (or die); the unit is excluded: only positive-codimension classes are
    # transfer classes
    ring = quadric_etale_ring(n)
    monos = _quadric_monomials(n)
    flagged = [m for m in monos if m != (0, 0) and _name_of(*m) in ring.algebraic]
    for a in flagged:
        for b in monos:
            prod = quadric_monomial_product(n, a, b)
            if prod is not None:
                assert _name_of(*prod) in ring.algebraic, (a, b, prod)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hyperplane_ideal_closure(n):
    # the reciprocity flag proper: hyperplane multiples form an ideal
    monos = _quadric_monomials(n)
    for a in monos:
        if a[0] < 1:
            continue
        for b in monos:
            prod = quadric_monomial_product(n, a, b)
            if prod is not None:
                assert prod[0] >= 1
