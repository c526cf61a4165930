"""Splitting-principle computation of Milnor operations on Stiefel-Whitney
classes.

A rank-n split ring is F_2[t_1..t_n] with |t_k| = 1; the class w_i is the
i-th elementary symmetric polynomial e_i(t).  On degree-1 classes the
operations act by Q_j(t) = t^(2^(j+1)), so over F_2

    Q_j(w_k) = sum_l t_l^(2^(j+1)) e_(k-1)(t without t_l)
             = sum_(i<k) p_(2^(j+1)+i) w_(k-1-i),

since e_(k-1)(t without t_l) = sum_(i<k) t_l^i e_(k-1-i)(t) mod 2.  Here
p_n is the n-th power sum, itself a w-polynomial by Newton's identities
mod 2: p_n = sum_(0<i<n) w_i p_(n-i) + (n mod 2) w_n, with w_i = 0 above
the rank.  ``SplitRing.q_on_w`` evaluates this closed form in the
w-ring and extends it to w-polynomials by the derivation rule; it never
builds a t-polynomial.  The special-orthogonal flag sets w_1 = 0, a ring
map, so it is applied to the power sums from the start.

The t-ring path (expand into t-variables, apply the derivation, convert
the symmetric result back by greedy leading-term elimination) is kept as
the reference: ``expand_w``, ``q_on_t``, ``is_symmetric`` and
``symmetrize_to_w``.
"""

from __future__ import annotations

from itertools import combinations

from .fp import DegreeCapError, Element, Generator, GradedPresentation, NonHomogeneousError
from .milnor import QAction


class SplitRing:
    """Ambient F_2[t_1..t_n] with the w_i realized as elementary symmetric
    polynomials; ``so`` drops w_1 (results reduced modulo the ideal (w_1))."""

    def __init__(self, rank: int, so: bool = False, cap: int = 64):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.so = so
        self.cap = cap
        self.t_pres = GradedPresentation(
            2, [Generator(f"t{k}", 1) for k in range(1, rank + 1)], cap
        )
        self.w_pres = GradedPresentation(
            2, [Generator(f"w{i}", i) for i in range(1, rank + 1)], cap
        )
        self._e_cache: dict[int, Element] = {}
        self._e_pow: dict[tuple[int, int], Element] = {}
        # w-polynomials over F_2 as sets of exponent tuples (+ is symmetric
        # difference); p_0 is a placeholder, Newton's identities never use it
        self._power_sums: list[frozenset] = [frozenset()]

    # -- the t-ring reference path (tests compare q_on_w against it) --------

    def elementary(self, i: int) -> Element:
        """e_i(t_1..t_n)."""
        if not 0 <= i <= self.rank:
            raise ValueError(f"e_{i} undefined in rank {self.rank}")
        if i == 0:
            return self.t_pres.one()
        if i not in self._e_cache:
            terms = {}
            for subset in combinations(range(self.rank), i):
                exps = [0] * self.rank
                for k in subset:
                    exps[k] = 1
                terms[tuple(exps)] = 1
            self._e_cache[i] = self.t_pres.element(terms)
        return self._e_cache[i]

    def _e_power(self, i: int, k: int) -> Element:
        if k == 0:
            return self.t_pres.one()
        key = (i, k)
        if key not in self._e_pow:
            self._e_pow[key] = self._e_power(i, k - 1) * self.elementary(i)
        return self._e_pow[key]

    def expand_w(self, e: Element) -> Element:
        """Substitute w_i -> e_i(t); input is a polynomial in the w-ring."""
        self._check_w(e)
        out = self.t_pres.zero()
        for m, c in e.terms.items():
            piece = c * self.t_pres.one()
            for i, exp in enumerate(m, start=1):
                if exp:
                    piece = piece * self._e_power(i, exp)
            out = out + piece
        return out

    def is_symmetric(self, e: Element) -> bool:
        """Invariance under the adjacent transpositions (they generate S_n)."""
        for k in range(self.rank - 1):
            swapped = {}
            for m, c in e.terms.items():
                mm = list(m)
                mm[k], mm[k + 1] = mm[k + 1], mm[k]
                swapped[tuple(mm)] = c
            if swapped != e.terms:
                return False
        return True

    def symmetrize_to_w(self, e: Element) -> Element:
        """Unique w-polynomial with the given symmetric expansion, found by
        greedy elimination of the lex-leading monomial."""
        if e.pres is not self.t_pres:
            raise ValueError("expected an element of the t-presentation")
        if not self.is_symmetric(e):
            raise NonHomogeneousError("input is not symmetric")
        remaining = e
        out = self.w_pres.zero()
        while remaining.terms:
            lam = max(remaining.terms)
            if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
                raise NonHomogeneousError("leading exponent is not a partition")
            coeff = remaining.terms[lam]
            w_exps = [0] * self.rank
            e_prod = self.t_pres.one()
            for i in range(self.rank):
                step = lam[i] - (lam[i + 1] if i + 1 < self.rank else 0)
                if step:
                    w_exps[i] = step
                    e_prod = e_prod * self._e_power(i + 1, step)
            out = out + self.w_pres.monomial(tuple(w_exps), coeff)
            remaining = remaining - coeff * e_prod
        if self.so:
            out = _kill(out, ("w1",))
        return out

    def q_on_t(self, j: int, e: Element) -> Element:
        """Derivation with Q_j(t_k) = t_k^(2^(j+1)) on the t-ring."""
        jump = 2 ** (j + 1)
        terms: dict = {}
        for m, c in e.terms.items():
            for k, exp in enumerate(m):
                if exp % 2 == 0:
                    continue  # even exponents die in characteristic 2
                mm = list(m)
                mm[k] = exp - 1 + jump
                key = tuple(mm)
                v = (terms.get(key, 0) + c) % 2
                if v:
                    terms[key] = v
                else:
                    terms.pop(key, None)
        if terms and max(sum(m) for m in terms) > self.cap:
            raise DegreeCapError(f"splitting computation exceeds cap {self.cap}")
        return self.t_pres.element(terms)

    # -- the operations -------------------------------------------------------

    def q_on_w(self, j: int, e: Element) -> Element:
        """Q_j on a w-polynomial: the closed form on each generator, extended
        by the derivation rule.  Refuses when a term's image lies above the
        cap, even if the images of several terms would cancel."""
        self._check_w(e)
        if j < 0:
            raise ValueError("operation index must be >= 0")
        shift = 2 ** (j + 1) - 1
        out: set = set()
        for m in e.terms:  # coefficients are 1 over F_2
            odd = [k for k, exp in enumerate(m) if exp % 2]
            if odd and self.w_pres.monomial_degree(m) + shift > self.cap:
                raise DegreeCapError(f"splitting computation exceeds cap {self.cap}")
            for k in odd:
                rest = m[:k] + (m[k] - 1,) + m[k + 1:]
                out.symmetric_difference_update(
                    tuple(a + b for a, b in zip(rest, v)) for v in self._q_on_gen(j, k + 1)
                )
        return self.w_pres.element(dict.fromkeys(out, 1))

    def _q_on_gen(self, j: int, k: int) -> set:
        """Q_j(w_k) = sum_(i<k) p_(2^(j+1)+i) w_(k-1-i)."""
        value: set = set()
        for i in range(k):
            value.symmetric_difference_update(
                self._times_w(self._power_sum(2 ** (j + 1) + i), k - 1 - i)
            )
        return value

    def _power_sum(self, n: int) -> frozenset:
        """p_n = sum_(0<i<n) w_i p_(n-i) + (n mod 2) w_n (Newton mod 2)."""
        sums = self._power_sums
        while len(sums) <= n:
            m = len(sums)
            value: set = set()
            for i in range(1, min(m - 1, self.rank) + 1):
                value.symmetric_difference_update(self._times_w(sums[m - i], i))
            if m % 2:
                value.symmetric_difference_update(self._times_w({(0,) * self.rank}, m))
            sums.append(frozenset(value))
        return sums[n]

    def _times_w(self, value, i: int) -> set:
        """w_i times a w-polynomial; w_0 = 1, and w_i = 0 above the rank and
        for i = 1 under the SO flag."""
        if i == 0:
            return set(value)
        if i > self.rank or (self.so and i == 1):
            return set()
        k = i - 1
        return {m[:k] + (m[k] + 1,) + m[k + 1:] for m in value}

    def w(self, i: int) -> Element:
        return self.w_pres.gen(f"w{i}")

    def _check_w(self, e: Element) -> None:
        if e.pres is not self.w_pres and e.pres is not self.w_pres.free:
            raise ValueError("expected an element of the w-presentation")
        if self.so and any(m[0] for m in e.terms):
            raise ValueError("w1 is not available when the SO flag is set")


def so_presentation(rank: int, cap: int = 64) -> GradedPresentation:
    """The special-orthogonal cohomology ring F_2[w_2..w_rank]."""
    return GradedPresentation(
        2, [Generator(f"w{i}", i) for i in range(2, rank + 1)], cap
    )


def so_q_action(rank: int, cap: int = 64, max_index: int = 3) -> tuple[GradedPresentation, QAction]:
    """Presentation and lazily filled operation table for BSO_rank, entries
    computed through the splitting principle and reduced modulo w_1."""
    pres = so_presentation(rank, cap)
    ring = SplitRing(rank, so=True, cap=cap)

    def supplier(i: int, gname: str) -> Element:
        value = ring.q_on_w(i, ring.w_pres.gen(gname))
        return _transplant_w(value, pres)

    action = QAction(pres, max_index=max_index, supplier=supplier)
    return pres, action


def _transplant_w(e: Element, target: GradedPresentation) -> Element:
    """Move a w-polynomial without w_1 into a presentation on w_2..w_n or a
    sub-list of it; monomials involving missing generators must be absent."""
    slot = {}
    names = {g.name: k for k, g in enumerate(target.generators)}
    for k, g in enumerate(e.pres.generators):
        slot[k] = names.get(g.name)
    terms = {}
    for m, c in e.terms.items():
        exps = [0] * len(target.generators)
        for k, exp in enumerate(m):
            if not exp:
                continue
            if slot[k] is None:
                raise ValueError(f"monomial uses {e.pres.generators[k].name}, absent from target")
            exps[slot[k]] = exp
        terms[tuple(exps)] = c
    return target.element(terms)


def g2_presentation(cap: int = 40) -> GradedPresentation:
    """F_2[w4, w6, w7], the image of the rank-7 ring under w2,w3,w5 -> 0."""
    return GradedPresentation(
        2, [Generator("w4", 4), Generator("w6", 6), Generator("w7", 7)], cap
    )


def g2_q_action(cap: int = 40, max_index: int = 2) -> tuple[GradedPresentation, QAction]:
    """Operation table on F_2[w4,w6,w7] derived from the rank-7 splitting
    computation followed by w2, w3, w5 -> 0, filled lazily.

    The substitution is legitimate because the kernel ideal (w2, w3, w5)
    is stable under every Q_i used; this is checked for each index i, on
    all three killed generators, before the first entry of Q_i is returned.
    """
    pres = g2_presentation(cap)
    ring = SplitRing(7, so=True, cap=cap + 14)
    killed = ("w2", "w3", "w5")
    stable: set[int] = set()

    def supplier(i: int, gname: str) -> Element:
        if i not in stable:
            for name in killed:
                value = ring.q_on_w(i, ring.w_pres.gen(name))
                if _kill(value, killed).terms:
                    raise ValueError(f"(w2,w3,w5) not stable under Q_{i}: Q_{i}({name}) = {value}")
            stable.add(i)
        return _transplant_w(_kill(ring.q_on_w(i, ring.w_pres.gen(gname)), killed), pres)

    return pres, QAction(pres, max_index=max_index, supplier=supplier)


def _kill(e: Element, names: tuple[str, ...]) -> Element:
    idx = [k for k, g in enumerate(e.pres.generators) if g.name in names]
    return e.pres.element({m: c for m, c in e.terms.items() if all(m[k] == 0 for k in idx)})
