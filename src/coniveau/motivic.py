"""Bigraded Laurent calculus for Rost motives of real anisotropic quadrics,
integral ring reconstruction, and the coniveau-membership obstruction tests.

The ambient ring for the motive with parameter n is
F_2[rho, tau, tau^-1] / (rho^(2^(n+1)-1)), with rho of bidegree (1,1) and
tau of bidegree (0,1); a monomial rho^a tau^b has degree a and weight a+b,
so each bidegree carries at most one monomial.  The motive's cohomology is
the subalgebra generated by rho, tau, a = rho^(n+1), a' = a tau^-1 and the
iterated Bockstein-type images of a'; those images are pinned down by their
bidegrees, which determines them as monomials.

Integral (2-adic) rings are modeled losslessly as (free Z_2 part) + (F_2
torsion with 2x = 0): every ring reconstructed here has exponent-2 torsion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

# Largest motive parameter the quadric layer accepts.  Each step costs about
# 4x: the quadric's torsion basis has about 4^n / 8 classes (130,816 at
# n = 10, a 14 MB `rost` report) and the reachability pass takes about 4^n
# big-int shifts.
MAX_QUADRIC_N = 10


class MotivicError(Exception):
    pass


def _check_quadric_n(n: int, low: int) -> None:
    if n < low:
        raise ValueError(f"n must be >= {low}")
    if n > MAX_QUADRIC_N:
        raise ValueError(f"n = {n} above the supported maximum {MAX_QUADRIC_N}")


class LaurentElement:
    """F_2 combination of monomials rho^a tau^b in the truncated Laurent
    ring of the parameter-n motive (a >= 0, b any integer)."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms):
        self.n = n
        bound = 2 ** (n + 1) - 1
        clean = {}
        for (a, b), c in dict(terms).items():
            if c % 2 and a < bound:
                clean[(a, b)] = 1
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        if hasattr(self, "terms"):
            raise AttributeError("LaurentElement is immutable")
        object.__setattr__(self, name, value)

    def is_zero(self) -> bool:
        return not self.terms

    def bidegree(self) -> tuple[int, int] | None:
        """(degree, weight) when homogeneous; None for 0."""
        bids = {(a, a + b) for (a, b) in self.terms}
        if not bids:
            return None
        if len(bids) > 1:
            raise MotivicError(f"mixed bidegrees {sorted(bids)}")
        return bids.pop()

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for m in other.terms:
            if m in terms:
                del terms[m]
            else:
                terms[m] = 1
        return LaurentElement(self.n, terms)

    def __mul__(self, other):
        self._check(other)
        terms: dict = {}
        for (a1, b1) in self.terms:
            for (a2, b2) in other.terms:
                key = (a1 + a2, b1 + b2)
                if key in terms:
                    del terms[key]
                else:
                    terms[key] = 1
        return LaurentElement(self.n, terms)

    def _check(self, other):
        if not isinstance(other, LaurentElement) or other.n != self.n:
            raise MotivicError("operands from different Laurent rings")

    def __eq__(self, other):
        return (
            isinstance(other, LaurentElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms)))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b) in sorted(self.terms, reverse=True):
            parts = []
            if a:
                parts.append("rho" if a == 1 else f"rho^{a}")
            if b:
                parts.append("tau" if b == 1 else f"tau^{b}")
            bits.append("*".join(parts) if parts else "1")
        return " + ".join(bits)

    def __repr__(self):
        return f"<{self}: n={self.n}>"


def laurent(n: int, a: int = 0, b: int = 0) -> LaurentElement:
    """The monomial rho^a tau^b."""
    return LaurentElement(n, {(a, b): 1})


def laurent_q0(e: LaurentElement) -> LaurentElement:
    """The derivation with Q_0(rho) = 0, Q_0(tau) = rho, Q_0(tau^-1) =
    rho tau^-2; on a monomial: rho^a tau^b -> (b mod 2) rho^(a+1) tau^(b-1)."""
    terms = {}
    for (a, b) in e.terms:
        if b % 2:
            key = (a + 1, b - 1)
            if key in terms:
                del terms[key]
            else:
                terms[key] = 1
    return LaurentElement(e.n, terms)


class RostBasis:
    """Generating data of the motive's cohomology inside the Laurent ring.

    Generators: rho, tau, a = rho^(n+1), a' = a tau^-1, and for each
    nonempty ascending index set I in {0..n-1} the class obtained from a'
    by the operations in I; its exponents are forced by the bidegree:
    rho-exponent n+1 + sum(2^(i+1)-1), tau-exponent -1 - sum(2^i).
    Membership per bidegree is decided by reachability over the additive
    monoid spanned by the generator exponent vectors, kept as one bitset
    row per rho-exponent (see ``_reachability``).
    """

    def __init__(self, n: int):
        _check_quadric_n(n, 1)
        self.n = n
        self.rho_bound = 2 ** (n + 1) - 2  # largest surviving rho-exponent
        gens: dict[str, tuple[int, int]] = {
            "rho": (1, 0),
            "tau": (0, 1),
            "a": (n + 1, 0),
            "a'": (n + 1, -1),
        }
        for mask in range(1, 2**n):
            I = [i for i in range(n) if mask >> i & 1]
            s = n + 1 + sum(2 ** (i + 1) - 1 for i in I)
            t = -1 - sum(2**i for i in I)
            if s <= self.rho_bound:
                gens["Q" + "Q".join(str(i) for i in I) + "(a')"] = (s, t)
        self.generators = gens
        self._reach = self._reachability()

    def _reachability(self) -> list[int]:
        """reach[s] is a bitset over -t: bit mt is set iff rho^s tau^-mt is
        a product of non-tau generators (all have t <= 0), with s and mt at
        most the rho bound S.

        Every non-tau generator has rho-exponent ds >= 1, so one ascending
        pass closes the monoid: reach[s] is the OR of reach[s - ds] shifted
        up by -dt over the generators with ds <= s.  Exponents only grow
        along a product, so masking each row to S + 1 bits drops exactly
        the products that leave the bound (none in practice: every
        generator has -dt <= ds, so mt <= s <= S).  Cost: O(S * G) big-int
        operations for G generators, not the O(S^2 * G) of a cell table.
        """
        S = self.rho_bound
        mask = (1 << (S + 1)) - 1
        vecs = [(ds, -dt) for k, (ds, dt) in self.generators.items() if k != "tau"]
        reach = [1]
        for s in range(1, S + 1):
            row = 0
            for ds, mt in vecs:
                if ds <= s:
                    row |= reach[s - ds] << mt
            reach.append(row & mask)
        return reach

    def contains_monomial(self, a: int, b: int) -> bool:
        """Is rho^a tau^b a product of generators (without truncating)?"""
        if a < 0 or a > self.rho_bound:
            return False
        # tau powers can raise b arbitrarily; everything else lowers it, so
        # any reachable rho^a tau^-mt with mt >= -b will do.
        return bool(self._reach[a] >> max(0, -b))

    def element(self, name: str) -> LaurentElement:
        s, t = self.generators[name]
        return laurent(self.n, s, t)


def rost_membership(e: LaurentElement, basis: RostBasis) -> bool:
    """Exact per-bidegree membership of e in the motive's subalgebra."""
    if e.n != basis.n:
        raise MotivicError("parameter mismatch")
    e.bidegree()  # enforces homogeneity
    return all(basis.contains_monomial(a, b) for (a, b) in e.terms)


@dataclass(frozen=True)
class N1Verdict:
    """Outcome of the coniveau-membership test for rho^s."""

    s: int
    in_n1: bool | None
    candidate: str | None
    obstruction: str | None
    reason: str

    def rejected(self) -> bool:
        return self.in_n1 is False


def n1_membership(s: int, basis: RostBasis) -> N1Verdict:
    """Decide whether rho^s has an integral tau-preimage in the motive.

    A preimage must be a subalgebra class x of bidegree (s, s-1) with
    tau*x = rho^s, and integrality forces Q_0(x) = 0.  Each bidegree holds
    at most one monomial, so the search is decisive: either no preimage
    exists (hyperplane multiples are excluded from the motive, so the
    low-degree pieces are empty), or the unique candidate rho^s tau^-1 is
    examined and its Q_0 value is the obstruction.
    """
    n = basis.n
    if not 1 <= s <= 2 ** (n + 1) - 2:
        raise ValueError(f"s out of range 1..{2 ** (n + 1) - 2}")
    if not basis.contains_monomial(s, -1):
        return N1Verdict(
            s,
            False,
            None,
            None,
            "no tau-preimage in bidegree ({}, {}) of the motive "
            "(hyperplane multiples excluded)".format(s, s - 1),
        )
    candidate = laurent(n, s, -1)
    obstruction = laurent_q0(candidate)
    if obstruction.is_zero():
        return N1Verdict(s, True, str(candidate), None, "integral tau-preimage found")
    return N1Verdict(
        s,
        False,
        str(candidate),
        str(obstruction),
        f"unique candidate {candidate} has nonzero Q_0 value",
    )


# -- integral ring reconstruction ---------------------------------------------


@dataclass(frozen=True)
class EtaleRing:
    """Additive model of an integral (2-adic) even-degree ring: free part,
    exponent-2 torsion basis, generating relations and cycle-map flags."""

    n: int
    free_basis: tuple[tuple[str, int], ...]
    torsion_basis: tuple[tuple[str, int], ...]
    relations: tuple[str, ...]
    minimal_relations: tuple[str, ...]
    algebraic: frozenset[str]
    notes: tuple[str, ...] = ()

    def ranks(self, degree: int) -> tuple[int, int]:
        return self._rank_table.get(degree, (0, 0))

    def max_degree(self) -> int:
        return max(self._rank_table, default=0)

    @cached_property
    def _rank_table(self) -> dict[int, tuple[int, int]]:
        """(free rank, torsion dimension) per degree, counted once."""
        return _rank_counts(
            (d for _, d in self.free_basis), (d for _, d in self.torsion_basis)
        )


def _rank_counts(free_degrees, torsion_degrees) -> dict[int, tuple[int, int]]:
    free = Counter(free_degrees)
    torsion = Counter(torsion_degrees)
    return {d: (free[d], torsion[d]) for d in free.keys() | torsion.keys()}


class RankMismatchError(MotivicError):
    def __init__(self, n, diffs):
        self.diffs = diffs
        lines = ", ".join(
            f"deg {d}: ring {r} vs decomposition {e}" for d, r, e in diffs
        )
        super().__init__(f"additive ranks disagree for n={n}: {lines}")


def rost_etale_ring(n: int) -> EtaleRing:
    """Free part Z_2{1, pi}, torsion F_2{rho4^m : 1 <= m < 2^(n-1)}, with
    the cycle-map image flags on 1, pi and the top n-1 torsion classes."""
    _check_quadric_n(n, 1)
    top = 2 ** (n + 1) - 2
    free = (("1", 0), ("pi", top))
    torsion = tuple(
        (_rho_power_name(m), 4 * m) for m in range(1, 2 ** (n - 1))
    )
    algebraic = {"1", "pi"}
    for i in range(1, n):
        m = (2 ** (n + 1) - 2 ** (i + 1)) // 4
        if m >= 1:
            algebraic.add(_rho_power_name(m))
    relations = ("2*rho4", f"rho4^{2 ** (n - 1)}")
    return EtaleRing(
        n=n,
        free_basis=free,
        torsion_basis=torsion,
        relations=relations,
        minimal_relations=relations,
        algebraic=frozenset(algebraic),
        notes=("classes of degree 2 mod 4 are excluded by the weight convention",),
    )


def _rho_power_name(m: int) -> str:
    return "rho4" if m == 1 else f"rho4^{m}"


def decomposition_ranks(n: int, degree: int) -> tuple[int, int]:
    """Additive ranks of the quadric of dimension 2^n - 1 in one even
    degree, from the motive decomposition (see ``_decomposition_table``)."""
    if degree % 2:
        raise ValueError("even degrees only")
    return _decomposition_table(n).get(degree, (0, 0))


def _decomposition_table(n: int) -> dict[int, tuple[int, int]]:
    """(free rank, torsion dimension) per degree of the quadric of
    dimension 2^n - 1, from the motive decomposition: the parameter-n motive
    plus the parameter-(n-1) motive shifted by 2, 4, ..., 2(2^(n-1) - 1)."""
    base = rost_etale_ring(n)
    free = [d for _, d in base.free_basis]
    torsion = [d for _, d in base.torsion_basis]
    if n >= 2:
        lower = rost_etale_ring(n - 1)
        for shift in range(2, 2**n - 1, 2):
            free += [d + shift for _, d in lower.free_basis]
            torsion += [d + shift for _, d in lower.torsion_basis]
    return _rank_counts(free, torsion)


def quadric_etale_ring(n: int) -> EtaleRing:
    """The even-degree integral ring of the dimension 2^n - 1 anisotropic
    quadric: Z_2[h, rho4] / (h^(2^n), 2 rho4, h rho4^(2^(n-2)),
    rho4 h^(2^(n-1)), rho4^(2^(n-1))), validated degreewise against the
    motive decomposition."""
    _check_quadric_n(n, 2)
    hmax = 2**n - 1
    free = tuple((f"h^{j}" if j > 1 else ("h" if j == 1 else "1"), 2 * j) for j in range(hmax + 1))
    torsion_monos = [(0, i) for i in range(1, 2 ** (n - 1))]
    torsion_monos += [
        (j, i) for j in range(1, 2 ** (n - 1)) for i in range(1, 2 ** (n - 2))
    ]
    # (degree, name, j, i), ordered by degree and then name
    torsion_classes = sorted(
        (2 * j + 4 * i, _quadric_name(j, i), j, i) for j, i in torsion_monos
    )
    torsion = tuple((name, d) for d, name, _, _ in torsion_classes)
    relations = (
        f"h^{2 ** n}",
        "2*rho4",
        _monomial_str(1, 2 ** (n - 2)),
        _monomial_str(2 ** (n - 1), 1),
        f"rho4^{2 ** (n - 1)}",
    )
    minimal = _minimize_monomial_relations(n)
    # Flags: the free part and all hyperplane multiples are cycle-map
    # images; a pure power rho4^i is flagged iff it is flagged on the
    # parameter-n motive.
    motive_flags = rost_etale_ring(n).algebraic
    algebraic = set(name for name, _ in free)
    for _, name, j, i in torsion_classes:
        if j >= 1 or _rho_power_name(i) in motive_flags:
            algebraic.add(name)
    ring = EtaleRing(
        n=n,
        free_basis=free,
        torsion_basis=torsion,
        relations=relations,
        minimal_relations=minimal,
        algebraic=frozenset(algebraic),
        notes=(f"pi = h^{hmax}",),
    )
    want = _decomposition_table(n)
    diffs = []
    for d in range(0, ring.max_degree() + 1, 2):
        got, expected = ring.ranks(d), want.get(d, (0, 0))
        if got != expected:
            diffs.append((d, got, expected))
    if diffs:
        raise RankMismatchError(n, diffs)
    return ring


def _quadric_name(j: int, i: int) -> str:
    rho = _rho_power_name(i)
    if j == 0:
        return rho
    h = "h" if j == 1 else f"h^{j}"
    return f"{h}*{rho}"


def _monomial_str(j: int, i: int) -> str:
    return _quadric_name(j, i) if (j, i) != (0, 0) else "1"


def _minimize_monomial_relations(n: int) -> tuple[str, ...]:
    """Drop monomial relations divisible by another (the stated list is
    treated as generating; the reduced set is reported)."""
    monos = {
        f"h^{2 ** n}": (2**n, 0),
        _monomial_str(1, 2 ** (n - 2)): (1, 2 ** (n - 2)),
        _monomial_str(2 ** (n - 1), 1): (2 ** (n - 1), 1),
        f"rho4^{2 ** (n - 1)}": (0, 2 ** (n - 1)),
    }
    keep = []
    for name, (j, i) in monos.items():
        if any(
            (oj <= j and oi <= i) and (oj, oi) != (j, i)
            for oname, (oj, oi) in monos.items()
        ):
            continue
        keep.append(name)
    return ("2*rho4",) + tuple(keep)


@dataclass(frozen=True)
class UnramifiedQuotient:
    n: int
    free_basis: tuple[tuple[str, int], ...]
    torsion_basis: tuple[tuple[str, int], ...]


def unramified_quotient_quadric(n: int) -> UnramifiedQuotient:
    """Quotient of the quadric ring by the hyperplane ideal: rank-1 free
    part plus the truncated polynomial torsion on rho4."""
    _check_quadric_n(n, 1)
    if n == 1:
        return UnramifiedQuotient(1, (("1", 0),), ())
    torsion = tuple((_rho_power_name(i), 4 * i) for i in range(1, 2 ** (n - 1)))
    return UnramifiedQuotient(n, (("1", 0),), torsion)


# -- the composite verdict -----------------------------------------------------


@dataclass(frozen=True)
class QuadricCertificate:
    n: int
    verdict: str  # "DH=0" or "cannot conclude"
    torsion_checks: tuple[N1Verdict, ...]
    hyperplane_note: str
    detail: tuple[str, ...]


def dh_quadric_check(n: int, force_n1: tuple[int, ...] = ()) -> QuadricCertificate:
    """Verify that the even-degree stable-birational obstruction of the
    quadric vanishes: every pure torsion generator fails the coniveau
    membership test, and hyperplane multiples carry the strong-coniveau
    flag by reciprocity.  ``force_n1`` injects membership verdicts for the
    listed degrees (negative control); any injected or genuine membership
    yields "cannot conclude", never a silent pass.  A listed degree that is
    no torsion generator's would inject nothing, so it is refused.
    """
    _check_quadric_n(n, 2)
    for s in force_n1:
        if s % 4 or not 0 < s < 4 * 2 ** (n - 1):
            raise ValueError(
                f"forced degree {s} is no torsion generator's: for n = {n} they lie "
                f"in degrees 4i, 1 <= i < {2 ** (n - 1)}"
            )
    basis = RostBasis(n)
    checks = []
    detail = []
    ok = True
    for i in range(1, 2 ** (n - 1)):
        s = 4 * i
        verdict = n1_membership(s, basis)
        if s in force_n1:
            verdict = N1Verdict(s, True, verdict.candidate, None, "forced by fiat (negative control)")
        checks.append(verdict)
        if verdict.rejected():
            detail.append(f"torsion generator in degree {s}: rejected ({verdict.reason})")
        else:
            ok = False
            detail.append(f"torsion generator in degree {s}: NOT rejected ({verdict.reason})")
    hyperplane_note = (
        "the hyperplane class is a first Chern class; its ideal lies in the "
        "strong coniveau filtration by Frobenius reciprocity"
    )
    detail.append(hyperplane_note)
    if ok:
        detail.append(
            "every torsion class is a hyperplane multiple (strong coniveau) or a "
            "pure power rejected from the coniveau filtration; the quotient vanishes"
        )
    return QuadricCertificate(
        n=n,
        verdict="DH=0" if ok else "cannot conclude",
        torsion_checks=tuple(checks),
        hyperplane_note=hyperplane_note,
        detail=tuple(detail),
    )
