"""Rost motives of real anisotropic quadrics: coniveau-membership
obstruction tests, integral ring reconstruction and the composite verdict.

The motive with parameter n lives in F_2[rho, tau, tau^-1] /
(rho^(2^(n+1)-1)), with rho of bidegree (1,1) and tau of bidegree (0,1); a
monomial rho^a tau^b has degree a and weight a+b, so each bidegree carries
at most one monomial.  The motive's cohomology is the subalgebra generated
by rho, tau, a = rho^(n+1), a' = a tau^-1 and the iterated Bockstein-type
images of a'; those images are pinned down by their bidegrees.  The
coniveau test asks only whether rho^s tau^-1 is in the subalgebra, which
has a closed form in s and n, and reads Q_0 on that unique candidate of its
bidegree from its exponents.

Integral (2-adic) rings are modeled losslessly as (free Z_2 part) + (F_2
torsion with 2x = 0): every ring reconstructed here has exponent-2 torsion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

# Largest motive parameter the quadric layer accepts.  Each step costs about
# 4x in time: the quadric's torsion basis has about 4^n / 8 classes (130,816
# at n = 10, a 14 MB `rost` report).  Memory grows like 2^n: the classes are
# made one degree at a time whenever they are read, and never held all at
# once.
MAX_QUADRIC_N = 10


class MotivicError(Exception):
    pass


def _check_quadric_n(n: int, low: int) -> None:
    if n < low:
        raise ValueError(f"n must be >= {low}")
    if n > MAX_QUADRIC_N:
        raise ValueError(f"n = {n} above the supported maximum {MAX_QUADRIC_N}")


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


def n1_membership(s: int, n: int) -> N1Verdict:
    """Decide whether rho^s has an integral tau-preimage in the
    parameter-n motive.

    A preimage must be a subalgebra class x of bidegree (s, s-1) with
    tau*x = rho^s, and integrality forces Q_0(x) = 0.  Each bidegree holds
    at most one monomial, so the only candidate is rho^s tau^-1, and it is
    in the motive iff n + 1 <= s <= 2^(n+1) - 2: rho^s tau^-mt with mt >= 1
    needs a generator with a negative tau-exponent, a' = rho^(n+1) tau^-1
    has the smallest rho-exponent of those (each Q_i raises it), and
    a' rho^(s-n-1) is the candidate.  Below n + 1 no preimage exists
    (hyperplane multiples are excluded from the motive); otherwise the
    candidate's Q_0 value is the obstruction.
    """
    _check_quadric_n(n, 1)
    rho_bound = 2 ** (n + 1) - 2  # largest surviving rho-exponent
    if not 1 <= s <= rho_bound:
        raise ValueError(f"s out of range 1..{rho_bound}")
    if s <= n:
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
    if s == rho_bound:
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


class Lazy:
    """A sized sequence that ``make()`` generates afresh on each pass, so it
    can be read more than once without being held in memory."""

    __slots__ = ("_len", "_make")

    def __init__(self, length: int, make):
        self._len, self._make = length, make

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return self._make()


class Graded(Lazy):
    """Named classes of a graded group, made one degree at a time on each
    pass: [name, degree] rows sorted by degree and then name.  ``counts``
    maps each degree that has classes, ascending, to their number, and
    ``names(d)`` lists the names of degree d in order ([] for none)."""

    __slots__ = ("counts", "names")

    def __init__(self, counts: dict[int, int], names):
        super().__init__(sum(counts.values()), None)
        self.counts, self.names = counts, names

    def __iter__(self):
        return chain.from_iterable([[name, d] for name in self.names(d)] for d in self.counts)


def _one_per_degree(pairs) -> Graded:
    """The Graded of (name, degree) pairs in ascending degrees."""
    names = {d: [name] for name, d in pairs}
    return Graded(dict.fromkeys(names, 1), lambda d: names.get(d, []))


@dataclass(frozen=True)
class EtaleRing:
    """Additive model of an integral (2-adic) even-degree ring: free part,
    exponent-2 torsion basis, generating relations and cycle-map flags.
    The cycle-map images are listed twice: ``algebraic`` by name, and
    ``flagged`` by degree and then name."""

    n: int
    free_basis: Graded
    torsion_basis: Graded
    relations: tuple[str, ...]
    minimal_relations: tuple[str, ...]
    algebraic: Lazy | tuple[str, ...]
    flagged: Graded
    notes: tuple[str, ...] = ()

    def ranks(self, degree: int) -> tuple[int, int]:
        return self._rank_table.get(degree, (0, 0))

    def max_degree(self) -> int:
        return max(self._rank_table, default=0)

    @cached_property
    def _rank_table(self) -> dict[int, tuple[int, int]]:
        """(free rank, torsion dimension) per degree, from the counts."""
        return _rank_counts(self.free_basis.counts, self.torsion_basis.counts)


def _rank_counts(free, torsion) -> dict[int, tuple[int, int]]:
    """Join per-degree free and torsion counts into (free, torsion) pairs."""
    return {d: (free.get(d, 0), torsion.get(d, 0)) for d in free.keys() | torsion.keys()}


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
    free_degrees, torsion_degrees = _rost_degrees(n)
    torsion = [_rho_power_name(m) for m in range(1, len(torsion_degrees) + 1)]
    flagged = [
        ("1", 0),
        *((torsion[m - 1], 4 * m) for m in sorted(_motive_flagged(n))),
        ("pi", free_degrees[1]),
    ]
    relations = ("2*rho4", f"rho4^{2 ** (n - 1)}")
    return EtaleRing(
        n=n,
        free_basis=_one_per_degree(zip(("1", "pi"), free_degrees)),
        torsion_basis=_one_per_degree(zip(torsion, torsion_degrees)),
        relations=relations,
        minimal_relations=relations,
        algebraic=tuple(sorted(name for name, _ in flagged)),
        flagged=_one_per_degree(flagged),
        notes=("classes of degree 2 mod 4 are excluded by the weight convention",),
    )


def _rost_degrees(n: int) -> tuple[list[int], list[int]]:
    """The degrees of the parameter-n motive's free classes 1 and pi and of
    its torsion classes rho4^m, 1 <= m < 2^(n-1)."""
    return [0, 2 ** (n + 1) - 2], list(range(4, 2 ** (n + 1) - 3, 4))


def _motive_flagged(n: int) -> list[int]:
    """The m of the parameter-n motive's torsion classes rho4^m that are
    cycle-map images: m = (2^(n+1) - 2^(i+1)) / 4, 1 <= i < n."""
    return [(2 ** (n + 1) - 2 ** (i + 1)) // 4 for i in range(1, n)]


def _rho_power_name(m: int) -> str:
    return "rho4" if m == 1 else f"rho4^{m}"


def _decomposition_table(n: int) -> dict[int, tuple[int, int]]:
    """(free rank, torsion dimension) per degree of the quadric of
    dimension 2^n - 1, from the motive decomposition: the parameter-n motive
    plus the parameter-(n-1) motive shifted by 2, 4, ..., 2(2^(n-1) - 1)."""
    free, torsion = map(Counter, _rost_degrees(n))
    if n >= 2:
        for table, degrees in zip((free, torsion), _rost_degrees(n - 1)):
            for d in degrees:
                # one copy of the class per shift: degrees d + 2, ..., d + 2^n - 2
                table.update(range(d + 2, d + 2**n - 1, 2))
    return _rank_counts(free, torsion)


def quadric_etale_ring(n: int) -> EtaleRing:
    """The even-degree integral ring of the dimension 2^n - 1 anisotropic
    quadric: Z_2[h, rho4] / (h^(2^n), 2 rho4, h rho4^(2^(n-2)),
    rho4 h^(2^(n-1)), rho4^(2^(n-1))), validated degreewise against the
    motive decomposition.

    The torsion classes are the pure powers rho4^i, 1 <= i < 2^(n-1), and
    the products h^j rho4^i, 1 <= j < 2^(n-1), 1 <= i < 2^(n-2); each is
    made only when its degree is read.  Flags: the free part and all
    hyperplane multiples are cycle-map images; a pure power rho4^i is one
    iff it is one on the parameter-n motive."""
    _check_quadric_n(n, 2)
    hmax = 2**n - 1
    top_j, top_i = 2 ** (n - 1) - 1, 2 ** (n - 2) - 1  # largest exponents of a product
    h_names = [_h_power_name(j) for j in range(hmax + 1)]
    rho_names = ["", *map(_rho_power_name, range(1, top_j + 1))]  # rho_names[i] is rho4^i
    times_rho = ["*" + rho for rho in rho_names]

    def products(d: int) -> range:
        """The i of the products h^j rho4^i of degree d, j = d/2 - 2i."""
        return range(max(1, (d // 2 - top_j + 1) // 2), min(top_i, (d // 2 - 1) // 2) + 1)

    def product_names(d: int) -> list[str]:
        half = d // 2
        return [h_names[half - 2 * i] + times_rho[i] for i in products(d)]

    # the pure powers are the parameter-n motive's torsion, flagged as there
    pure_flagged = {4 * m: rho_names[m] for m in _motive_flagged(n)}

    # in each degree the pure power, if any, sorts after every "h..." name
    def torsion_names(d: int) -> list[str]:
        names = product_names(d)
        names.sort()
        if d % 4 == 0 and 1 <= d // 4 <= top_j:
            names.append(rho_names[d // 4])
        return names

    def flagged_names(d: int) -> list[str]:
        names = product_names(d)
        names += h_names[d // 2 : d // 2 + 1]
        names.sort()
        if d in pure_flagged:
            names.append(pure_flagged[d])
        return names

    # classes per degree: a free class in each degree 0..2 hmax, products in
    # 6..2 top_j + 4 top_i and pure powers in 4..4 top_j
    product_counts = {d: len(products(d)) for d in range(0, 2 * hmax + 1, 2)}
    torsion = {d: k + (d % 4 == 0) for d, k in product_counts.items() if 4 <= d <= 4 * top_j}
    flagged = {d: 1 + k + (d in pure_flagged) for d, k in product_counts.items()}
    # by name: "1" < "h..." < "rho4...", and "h^j" < "h^j*..." < the next
    # h-power in name order, since "*" sorts before every digit
    h_powers = sorted((h_names[j], j) for j in range(1, hmax + 1))
    rho_sorted = sorted(rho_names[1 : top_i + 1])

    def algebraic():
        yield "1"
        for h, j in h_powers:
            yield h
            if j <= top_j:
                yield from map(f"{h}*".__add__, rho_sorted)
        yield from sorted(pure_flagged.values())

    monomial = _monomial_relations(n)
    top_h, *rest = monomial
    ring = EtaleRing(
        n=n,
        free_basis=_one_per_degree((h, 2 * j) for j, h in enumerate(h_names)),
        torsion_basis=Graded(torsion, torsion_names),
        relations=(top_h, "2*rho4", *rest),
        minimal_relations=_minimize_monomial_relations(monomial),
        algebraic=Lazy(sum(flagged.values()), algebraic),
        flagged=Graded(flagged, flagged_names),
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
    """The monomial h^j rho4^i, (j, i) != (0, 0), as text: "h^2*rho4^3"."""
    if i == 0:
        return _h_power_name(j)
    rho = _rho_power_name(i)
    return rho if j == 0 else f"{_h_power_name(j)}*{rho}"


def _h_power_name(j: int) -> str:
    return "1" if j == 0 else "h" if j == 1 else f"h^{j}"


def _monomial_relations(n: int) -> dict[str, tuple[int, int]]:
    """The quadric ring's monomial relations h^j rho4^i by name, in stated
    order: h^(2^n), h rho4^(2^(n-2)), h^(2^(n-1)) rho4, rho4^(2^(n-1))."""
    pairs = ((2**n, 0), (1, 2 ** (n - 2)), (2 ** (n - 1), 1), (0, 2 ** (n - 1)))
    return {_quadric_name(j, i): (j, i) for j, i in pairs}


def _minimize_monomial_relations(monos: dict[str, tuple[int, int]]) -> tuple[str, ...]:
    """Drop monomial relations divisible by another (the stated list is
    treated as generating; the reduced set is reported)."""
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
    checks = []
    detail = []
    ok = True
    for i in range(1, 2 ** (n - 1)):
        s = 4 * i
        verdict = n1_membership(s, n)
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
