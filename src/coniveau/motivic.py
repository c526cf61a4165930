"""Rost motives of real anisotropic quadrics: coniveau-membership
obstruction tests, integral ring reconstruction and the composite verdict.

The motive with parameter n lives in F_2[rho, tau, tau^-1] /
(rho^(2^(n+1)-1)), with rho of bidegree (1,1) and tau of bidegree (0,1); a
monomial rho^a tau^b has degree a and weight a+b, so each bidegree carries
at most one monomial.  The motive's cohomology is the subalgebra generated
by rho, tau, a = rho^(n+1), a' = a tau^-1 and the iterated Bockstein-type
images of a'; those images are pinned down by their bidegrees.  So the
package holds each generator as its exponent pair, decides membership of a
monomial by reachability over those pairs, and reads Q_0 on the unique
candidate of a bidegree from its exponents.

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
# int additions.
MAX_QUADRIC_N = 10


class MotivicError(Exception):
    pass


def _check_quadric_n(n: int, low: int) -> None:
    if n < low:
        raise ValueError(f"n must be >= {low}")
    if n > MAX_QUADRIC_N:
        raise ValueError(f"n = {n} above the supported maximum {MAX_QUADRIC_N}")


class RostBasis:
    """Generating data of the motive's cohomology, by exponent pairs.

    Generators: rho, tau, a = rho^(n+1), a' = a tau^-1, and for each
    nonempty ascending index set I in {0..n-1} the class obtained from a'
    by the operations in I; its exponents are forced by the bidegree:
    rho-exponent n+1 + sum(2^(i+1)-1), tau-exponent -1 - sum(2^i).
    Membership per bidegree is decided by reachability over the additive
    monoid spanned by the generator exponent vectors, kept as the largest
    reachable tau^-1 exponent per rho-exponent (see ``_reachability``).
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
        """reach[s] is the largest mt such that rho^s tau^-mt is a product of
        non-tau generators (all have t <= 0).

        Every non-tau generator has rho-exponent ds >= 1, so one ascending
        pass closes the monoid in the max-plus semiring: reach[s] is the
        largest reach[s - ds] - dt over the generators with ds <= s.  rho
        makes every s reachable, so each entry is at least 0, and every
        generator has -dt <= ds, so reach[s] <= s.  Cost: O(S * G) int
        operations for rho bound S and G generators.
        """
        vecs = sorted((ds, -dt) for k, (ds, dt) in self.generators.items() if k != "tau")
        reach = [0]
        for s in range(1, self.rho_bound + 1):
            best = 0
            for ds, mt in vecs:
                if ds > s:
                    break
                if reach[s - ds] + mt > best:
                    best = reach[s - ds] + mt
            reach.append(best)
        return reach

    def contains_monomial(self, a: int, b: int) -> bool:
        """Is rho^a tau^b a product of generators (without truncating)?"""
        # tau powers can raise b arbitrarily; everything else lowers it, so
        # any reachable rho^a tau^-mt with mt >= -b will do.
        return 0 <= a <= self.rho_bound and self._reach[a] >= -b


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
    if not 1 <= s <= basis.rho_bound:
        raise ValueError(f"s out of range 1..{basis.rho_bound}")
    if not basis.contains_monomial(s, -1):
        return N1Verdict(
            s,
            False,
            None,
            None,
            "no tau-preimage in bidegree ({}, {}) of the motive "
            "(hyperplane multiples excluded)".format(s, s - 1),
        )
    candidate = _rho_tau(s, -1)
    # Q_0 is the derivation with Q_0(rho) = 0 and Q_0(tau^-1) = rho tau^-2,
    # so it takes rho^s tau^-1 to rho^(s+1) tau^-2, zero above the truncation
    if s + 1 > basis.rho_bound:
        return N1Verdict(s, True, candidate, None, "integral tau-preimage found")
    return N1Verdict(
        s,
        False,
        candidate,
        _rho_tau(s + 1, -2),
        f"unique candidate {candidate} has nonzero Q_0 value",
    )


def _rho_tau(a: int, b: int) -> str:
    """The monomial rho^a tau^b, a >= 1 and b < 0, as text: "rho^5*tau^-2"."""
    rho = "rho" if a == 1 else f"rho^{a}"
    return f"{rho}*tau^{b}"


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
    # each power named once: rhos[i - 1] is rho4^i, free[j][0] is h^j
    rhos = [_rho_power_name(i) for i in range(1, 2 ** (n - 1))]
    pure = [(4 * i, rho) for i, rho in enumerate(rhos, 1)]
    multiples = [
        (2 * j + 4 * i, f"{free[j][0]}*{rho}")
        for j in range(1, 2 ** (n - 1))
        for i, rho in enumerate(rhos[: 2 ** (n - 2) - 1], 1)
    ]
    # ordered by degree and then name
    torsion = tuple((name, d) for d, name in sorted(pure + multiples))
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
    algebraic = rost_etale_ring(n).algebraic.intersection(rhos).union(
        (name for name, _ in free), (name for _, name in multiples)
    )
    ring = EtaleRing(
        n=n,
        free_basis=free,
        torsion_basis=torsion,
        relations=relations,
        minimal_relations=minimal,
        algebraic=algebraic,
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
    detail.append(
        "the hyperplane class is a first Chern class; its ideal lies in the "
        "strong coniveau filtration by Frobenius reciprocity"
    )
    if ok:
        detail.append(
            "every torsion class is a hyperplane multiple (strong coniveau) or a "
            "pure power rejected from the coniveau filtration; the quotient vanishes"
        )
    return QuadricCertificate(
        n=n,
        verdict="DH=0" if ok else "cannot conclude",
        torsion_checks=tuple(checks),
        detail=tuple(detail),
    )
