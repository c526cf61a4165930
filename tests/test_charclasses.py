"""Splitting principle: expansion, symmetrization, operations on w-classes."""

import pytest

from coniveau.charclasses import SplitRing, g2_q_action, so_q_action
from coniveau.fp import DegreeCapError, NonHomogeneousError
from coniveau.milnor import validate_q_axioms

from helpers import TotalSquareOracle


def test_expand_w_rank2():
    r = SplitRing(2, cap=16)
    assert str(r.expand_w(r.w(2))) == "t1*t2"


def test_expand_product_matches_elementary_product():
    r = SplitRing(3, cap=16)
    assert r.expand_w(r.w(2) * r.w(3)) == r.elementary(2) * r.elementary(3)


def test_symmetrize_power_sum_two():
    # p_2 = e1^2 over F_2, which vanishes modulo w_1
    r = SplitRing(2, cap=16)
    e = r.t_pres.element({(2, 0): 1, (0, 2): 1})
    assert r.symmetrize_to_w(e).is_zero()


def test_symmetrize_product():
    r = SplitRing(2, cap=16)
    assert r.symmetrize_to_w(r.t_pres.element({(1, 1): 1})) == r.w(2)


def test_symmetrize_power_sum_three():
    # p_3 = e1^3 + e1 e2 + e3 over F_2 (classical Newton identity mod 2),
    # which is w3 modulo w_1
    r = SplitRing(3, cap=16)
    e = r.t_pres.element({(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1})
    assert r.symmetrize_to_w(e) == r.w(3)


def test_symmetrize_rejects_asymmetric():
    r = SplitRing(2, cap=16)
    with pytest.raises(NonHomogeneousError):
        r.symmetrize_to_w(r.t_pres.gen("t1"))


def test_round_trip():
    r = SplitRing(4, cap=24)
    w2, w3, w4 = (r.w(i) for i in range(2, 5))
    for e in (w2, w4 + w2**2, w3 * w4):
        assert r.symmetrize_to_w(r.expand_w(e)) == e


def test_degree_one_operation_rule_against_total_square_oracle():
    # Q_1(t) = t^4, derived independently from the total square Sq(t) = t + t^2
    oracle = TotalSquareOracle()
    assert oracle.milnor_q1(1) == {4: 1}
    r = SplitRing(2, cap=16)
    assert r.q_on_t(1, r.t_pres.gen("t1")) == r.t_pres.element({(4, 0): 1})


def test_rank_below_two_refused():
    with pytest.raises(ValueError, match="rank"):
        SplitRing(1)


def test_q0_on_even_classes_special_orthogonal():
    # Q_0(w_{2k}) = w_{2k+1} for every rank <= 13 (zero above the rank)
    for rank in range(2, 14):
        r = SplitRing(rank, cap=40)
        for two_k in range(2, rank + 1, 2):
            value = r.q_on_w(0, r.w(two_k))
            if two_k + 1 <= rank:
                assert value == r.w(two_k + 1), (rank, two_k)
            else:
                assert value.is_zero(), (rank, two_k)


def test_q0_w2_bso3():
    r = SplitRing(3, cap=40)
    assert r.q_on_w(0, r.w(2)) == r.w(3)


def test_q0_w4_bso5():
    r = SplitRing(5, cap=40)
    assert r.q_on_w(0, r.w(4)) == r.w(5)


def _reference_q_on_w(r, j, e):
    return r.symmetrize_to_w(r.q_on_t(j, r.expand_w(e)))


@pytest.mark.parametrize("rank", [2, 3, 4, 5])
def test_closed_form_matches_t_ring_on_generators(rank):
    r = SplitRing(rank, cap=24)
    for j in range(4):
        for k in range(2, rank + 1):
            assert r.q_on_w(j, r.w(k)) == _reference_q_on_w(r, j, r.w(k)), (j, k)


def test_closed_form_derivation_rule_matches_t_ring():
    r = SplitRing(4, cap=24)
    w2, w3, w4 = (r.w(i) for i in range(2, 5))
    for e in (w2 * w3, w3**3 + w2 * w4, w2**2 * w3 * w4, w4**2):
        for j in range(3):
            assert r.q_on_w(j, e) == _reference_q_on_w(r, j, e), (j, e)


def test_wu_rule_through_rank_13():
    # Sq^1 = Q_0, and Wu's formula gives Sq^1 w_m = w_1 w_m + (m - 1) w_(m+1),
    # which is (m - 1) w_(m+1) for m >= 2 modulo w_1
    for rank in range(2, 14):
        r = SplitRing(rank, cap=40)
        for m in range(2, rank + 1):
            upper = r.w(m + 1) if m < rank else r.w_pres.zero()
            assert r.q_on_w(0, r.w(m)) == (m - 1) * upper, (rank, m)


def test_q_on_w_refusals():
    r = SplitRing(5, cap=12)
    assert r.q_on_w(2, r.w(5)).degree() == 12  # 5 + 2^3 - 1, at the cap
    with pytest.raises(DegreeCapError):
        r.q_on_w(3, r.w(2))  # 2 + 2^4 - 1 = 17
    with pytest.raises(DegreeCapError):
        r.q_on_w(2, r.w(2) * r.w(4))  # 6 + 2^3 - 1 = 13
    with pytest.raises(KeyError, match="w1"):
        r.w(1)
    with pytest.raises(ValueError, match="index"):
        r.q_on_w(-1, r.w(2))
    with pytest.raises(ValueError, match="w-presentation"):
        r.q_on_w(0, SplitRing(5, cap=12).w(2))
    with pytest.raises(ValueError, match="w-presentation"):
        r.q_on_w(0, r.t_pres.gen("t1"))


def test_q_on_w_symmetric_before_conversion():
    r = SplitRing(4, cap=32)
    val = r.q_on_t(1, r.expand_w(r.w(3)))
    assert r.is_symmetric(val)


def test_so_action_satisfies_axioms():
    pres, action = so_q_action(5, cap=40, max_index=2)
    report = validate_q_axioms(action, cap=24, max_index=2)
    assert report.ok, report.failures


@pytest.mark.parametrize("rank", [2, 3, 5, 8])
def test_so_entries_lie_in_the_returned_ring(rank):
    pres, action = so_q_action(rank, cap=64, max_index=3)
    assert [g.name for g in pres.generators] == [f"w{i}" for i in range(2, rank + 1)]
    for i in range(4):
        for g in pres.generators:
            assert action.entry(i, g.name).pres is pres, (i, g.name)


def test_so_action_leibniz_cross_module():
    pres, action = so_q_action(5, cap=64, max_index=2)
    w2, w3 = pres.gen("w2"), pres.gen("w3")
    for i in (0, 1, 2):
        lhs = action.apply(i, w2 * w3)
        rhs = action.apply(i, w2) * w3 + w2 * action.apply(i, w3)
        assert lhs == rhs, i


def test_g2_table_values():
    pres, action = g2_q_action()
    w4, w6, w7 = pres.gen("w4"), pres.gen("w6"), pres.gen("w7")
    assert action.entry(1, "w4") == w7
    assert action.entry(0, "w6") == w7
    assert action.entry(2, "w7") == w7**2
    assert action.entry(0, "w4").is_zero()
    assert action.entry(0, "w7").is_zero()


def test_g2_table_filled_on_first_read(monkeypatch):
    # building the table computes nothing; the first entry of Q_1 first
    # checks (w2, w3, w5) against Q_1, then computes that one entry
    calls = []
    q_on_w = SplitRing.q_on_w
    monkeypatch.setattr(
        SplitRing, "q_on_w", lambda self, j, e: calls.append((j, str(e))) or q_on_w(self, j, e)
    )
    pres, action = g2_q_action()
    assert calls == []
    assert action.entry(1, "w4") == pres.gen("w7")
    assert calls == [(1, "w2"), (1, "w3"), (1, "w5"), (1, "w4")]
    action.entry(1, "w6")
    assert calls[4:] == [(1, "w6")]


def test_g2_stability_checked_per_index(monkeypatch):
    # a Q_1 that leaves (w2, w3, w5) is refused on Q_1's first entry, and the
    # other indices still answer
    q_on_w = SplitRing.q_on_w

    def leaky(self, j, e):
        value = q_on_w(self, j, e)
        return value + self.w(6) if (j, str(e)) == (1, "w3") else value

    monkeypatch.setattr(SplitRing, "q_on_w", leaky)
    pres, action = g2_q_action()
    with pytest.raises(ValueError, match=r"not stable under Q_1: Q_1\(w3\)"):
        action.entry(1, "w4")
    assert action.entry(0, "w6") == pres.gen("w7")


def test_g2_action_satisfies_axioms():
    pres, action = g2_q_action()
    report = validate_q_axioms(action, cap=30, max_index=2)
    assert report.ok, report.failures
