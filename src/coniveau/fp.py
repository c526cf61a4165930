"""Exact arithmetic in finitely presented graded-commutative algebras over F_p.

A presentation fixes a prime, an ordered list of generators with degrees
(and, for odd primes, parities), a homogeneous relation list and a hard
degree cap.  Every graded piece up to the cap is a finite F_p vector space
with a deterministic monomial basis.  The relation ideal is held as a
degree-truncated Groebner basis in the monomial order below, extended
lazily one degree at a time up to the degree asked for (Buchberger's
algorithm with the pair criteria of Gebauer & Moller, JSC 6, 1988, and the
matrix reduction of Faugere's F4, JPAA 139, 1999): a degree's relations,
the S-pairs whose lcm lies in it and their reducer rows u * g are
eliminated together by one ``_kernels.rref`` call, and every pivot that no
earlier leading monomial divides is a new basis element.  With exterior
generators the ring is skew-commutative with x^2 = 0: for each exterior x
in a leading monomial lead(g), the product x * g, in which x * lead(g)
vanishes, joins the matrix of its degree (Stokes, J. Automated Reasoning
6, 1990).

A degree's standard monomials, those no leading monomial divides, are the
basis of the quotient, and a dimension counts them without listing them:
the Hilbert series is that of S / (in(G) + (x_odd^2)), S the polynomial
ring on the generators (signs do not change a dimension), counted from the
leading monomials alone by Bigatti's pivot recursion (``_hilbert``).
Where a list is read, it is grown from the lists below it: the standard
monomials form an order ideal (Cox, Little & O'Shea, Ideals, Varieties, and
Algorithms, section 9.3), a standard monomial whose first nonzero exponent
sits at slot k is g_k times a standard monomial of lower degree, and only a
leading monomial whose first nonzero slot is k can divide the product
(``_list_standard``).  The normal form needs the reducer {non-standard
monomial: its reduced row on the standard monomials}: it is filled when a
normal form in that degree is first asked for, by ``_kernels.echelon`` on
the dict rows u * g, one per non-standard monomial, which span the ideal's
degree piece with distinct leading monomials.  Reduced row echelon form is
unique, so the reducer is the one a full elimination of every cofactor x
relation product ("Macaulay matrix") gives, and a normal form is one
substitution pass over it in dict arithmetic.  Only the S-pair matrices of
a basis step pass through the int64 array of ``_kernels.rref``, and only
``_matrix``, which packs them, imports numpy: a command that takes no basis
step never loads it.

Every ``Element`` is a normal form: only its constructors (``element``,
``monomial``, ``gen``, ``one`` and products) reduce, all through
``_normal_form``, which takes a raw map of valid monomials (``element``
checks its input first; ``milnor`` hands it summed Leibniz columns), and the
raw ``Element(...)`` constructor is used in this module only.  So an element
is zero exactly when it has no terms.  ``gen`` and ``one`` reduce once per
presentation and share that element, and a homogeneous power within the cap
is taken by the p-th power map (``__pow__``).

Monomials are exponent tuples aligned with the generator list.  The
monomial order is graded lexicographic: within one degree, tuples compare
lexicographically with earlier generators more significant, and bases are
listed in descending order (the leading monomial of an element is its
lex-largest exponent tuple, the leftmost column of its degree).

Conventions by characteristic:
  * p odd: a generator is exterior iff its degree is odd; exterior
    exponents are 0/1, odd*odd anticommutes and odd squares vanish.
  * p = 2: every generator is polynomial; odd-degree classes square freely.

The free monomials are the standard monomials of the zero ideal, counted
and listed the same way: a presentation with no relations is its own
``free``, a quotient shares the ``free`` of the presentation it came from,
and that one relation-free presentation holds the free monomials for all
of them.  Within a degree the order is descending lex, so the columns of an
S-pair matrix are its monomials sorted in reverse.

This module is the one caller of ``_kernels``; ``kernel``, ``span_echelon``
and ``in_span`` do the Chern-ideal test's linear algebra.

A degree is guarded by the budgets of what the engine builds for it: each
S-pair matrix and the size of the Groebner basis (``_basis_step``), and a
monomial list, wherever one is read, by its free count before the degree's
basis step.  A presentation counts its series once per extent of its basis
and fills each degree's reducer when a normal form first asks for it.

Elements are immutable and their operations pure.  A presentation fills
its monomial lists, its Groebner basis, its per-degree caches and its
shared generators on demand;
the basis grows in place, so a presentation is for one thread at a time.
A refused basis step changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub

from . import _hilbert, _kernels


class FpAlgebraError(Exception):
    """Base class for all errors raised by this package."""


class DegreeCapError(FpAlgebraError):
    """A computation would exceed the presentation's degree cap."""


class PresentationMismatchError(FpAlgebraError):
    """Operands belong to different presentations."""


class NonHomogeneousError(FpAlgebraError):
    """A homogeneous element was required."""


class MorphismError(FpAlgebraError):
    """An algebra morphism failed validation."""


# The largest prime below 2**20.  Elimination is on Python ints, so no int64
# sum is left to overflow; the bound stays because lifting it would turn
# refusals into answers.  It also keeps the trial division short.
MAX_PRIME = 1048573

# The most cells (rows x monomial columns) one S-pair matrix of the Groebner
# basis may have, and the most exponent entries (free monomials x generators)
# a degree may hold where it is listed; a degree over either is refused.  A
# dimension is counted, not listed, so only listing meets the second.  (The
# name is from the full Macaulay matrices, every cofactor times every
# relation, that the Groebner basis replaced.)  The largest S-pair matrix of
# ``report --all`` has 61 x 173 cells and the regular pair's through degree
# 48 have at most 11 x 28; among the built-in families, ``stable-quotient
# extraspecial-e --n 6 --p 3`` builds one of 794 x 165.
MAX_MACAULAY_CELLS = 8_000_000

# The most elements a truncated Groebner basis may have.  Buchberger's worst
# case is doubly exponential, so a small file can ask for a basis of any size,
# and each new element is compared with every pending S-pair.  The largest
# basis of ``report --all`` has 16 elements, the largest of a built-in family
# 185 (``stable-quotient extraspecial-e --n 6 --p 3``).
MAX_BASIS_ELEMENTS = 500


def check_prime(p) -> int:
    """Validate primality and the bound ``MAX_PRIME`` (trial division)."""
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"not a prime: {p!r}")
    if p > MAX_PRIME:
        raise ValueError(f"prime {p} above the supported maximum {MAX_PRIME}")
    d = 2
    while d * d <= p:
        if p % d == 0:
            raise ValueError(f"not a prime: {p}")
        d += 1
    return p


@dataclass(frozen=True)
class Generator:
    """A ring generator: name, degree, parity ('even' polynomial /
    'odd' exterior) and an optional motivic weight tag."""

    name: str
    degree: int
    parity: str | None = None
    weight: int | None = None

    def resolved_parity(self, prime: int) -> str:
        if prime == 2:
            # Odd-degree classes are polynomial at p = 2 (x^2 is the
            # degree-doubling class, not zero).
            if self.parity == "odd":
                raise ValueError(
                    f"generator {self.name}: exterior generators do not exist at p = 2"
                )
            return "even"
        inferred = "odd" if self.degree % 2 else "even"
        if self.parity is not None and self.parity != inferred:
            raise ValueError(
                f"generator {self.name}: parity {self.parity!r} contradicts degree "
                f"{self.degree} at odd p"
            )
        return inferred


class GradedPresentation:
    """A finitely presented graded-commutative F_p algebra with a degree cap."""

    def __init__(self, prime: int, generators, degree_cap: int, _relations=None, _free=None):
        self.prime = check_prime(prime)
        gens = tuple(generators)
        if len({g.name for g in gens}) != len(gens):
            raise ValueError("duplicate generator names")
        for g in gens:
            if g.degree < 1:
                raise ValueError(
                    f"generator {g.name}: degree must be >= 1 to keep graded pieces finite"
                )
        if degree_cap < 0 or (gens and degree_cap < max(g.degree for g in gens)):
            raise ValueError("degree cap below a generator degree")
        self.generators = gens
        self.degree_cap = degree_cap
        self._degrees = tuple(g.degree for g in gens)
        self._odd = tuple(g.resolved_parity(prime) == "odd" for g in gens)
        self._exterior = any(self._odd)
        self._odd_slots = tuple(i for i in reversed(range(len(gens))) if self._odd[i])
        self._index = {g.name: i for i, g in enumerate(gens)}
        # the relation-free presentation on these generators, which holds the
        # free monomials of every quotient of it
        self.free: GradedPresentation = _free or self
        self._relation_terms = tuple(_relations or ())
        # the degrees built, through each of which the Groebner basis is complete
        self._built: set[int] = set()
        # degree -> {non-standard monomial: its reduced row, ((standard
        # monomial, coefficient), ...)}, filled on first use: the monomial
        # equals minus that combination in the quotient
        self._reducers: dict[int, dict] = {}
        rel_degrees = []
        for terms in self._relation_terms:
            degs = {self.monomial_degree(m) for m in terms}
            if len(degs) != 1:
                raise NonHomogeneousError("relations must be homogeneous and nonzero")
            (d,) = degs
            if d > degree_cap:
                raise DegreeCapError("relation degree exceeds the cap")
            rel_degrees.append(d)
        self._relation_degrees = tuple(rel_degrees)
        self._lowest_relation = min(rel_degrees, default=degree_cap + 1)
        # the degree-truncated Groebner basis: monic elements, leading term
        # first, in degree order; complete through degree _basis_done
        self._basis: list[tuple] = []
        self._leads: list[tuple] = []
        # first nonzero slot of a lead (len(gens) for a constant) ->
        # [(index, ((slot, exponent), ...) of the lead)]
        self._leads_at: list[list] = [[] for _ in range(len(gens) + 1)]
        self._lead_odd: list[bool] = []  # the lead has an exterior variable
        self._basis_odd: list[bool] = []  # some term has an exterior variable
        self._basis_done = -1
        self._pairs: dict[int, dict] = {}  # lcm degree -> {(i, j): (lcm, its slot bits)}
        self._exterior_rows: dict[int, list] = {}  # degree -> [(element, odd slot)]
        # the Hilbert series through the degree the basis was complete through
        # when it was counted
        self._dims: list[int] = []
        # each degree's standard monomials in descending lex order, and their
        # suffix block lengths (tails[k]: how many vanish before generator k)
        self._standard: list[tuple] = []
        self._standard_tails: list[list[int]] = []
        # the unit and {generator name: generator}, each built once and shared
        self._one: Element | None = None
        self._gens: dict[str, Element] = {}

    # -- construction -----------------------------------------------------

    def quotient(self, relations) -> "GradedPresentation":
        """New presentation with the given homogeneous elements adjoined
        to the relation list."""
        extra = []
        for r in relations:
            if r.pres.generators != self.generators or r.pres.prime != self.prime:
                raise PresentationMismatchError("relation from an incompatible presentation")
            if r.is_zero():
                continue
            extra.append(dict(r.terms))
        return GradedPresentation(
            self.prime,
            self.generators,
            self.degree_cap,
            _relations=self._relation_terms + tuple(extra),
            _free=self.free,
        )

    @property
    def relations(self) -> tuple["Element", ...]:
        return tuple(Element(self.free, dict(t)) for t in self._relation_terms)

    # -- elements ----------------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        if self._one is None:
            self._one = self.monomial((0,) * len(self.generators))
        return self._one

    def gen(self, name: str) -> "Element":
        e = self._gens.get(name)
        if e is None:
            i = self._index.get(name)
            if i is None:
                raise KeyError(f"unknown generator {name!r}")
            exps = [0] * len(self.generators)
            exps[i] = 1
            e = self._gens[name] = self.monomial(exps)
        return e

    def gens(self) -> tuple["Element", ...]:
        return tuple(self.gen(g.name) for g in self.generators)

    def monomial(self, exps, coeff: int = 1) -> "Element":
        return self.element({tuple(exps): coeff})

    def element(self, terms: dict) -> "Element":
        """The normal form of a raw {exponent tuple: coefficient} map.
        Refuses malformed exponent tuples and degrees above the cap."""
        n = len(self.generators)
        raw = {}
        for m, c in terms.items():
            m = tuple(m)
            if len(m) != n:
                raise ValueError("exponent tuple length mismatch")
            if min(m, default=0) < 0 or (
                self._exterior and any(e > 1 for e, odd in zip(m, self._odd) if odd)
            ):
                raise ValueError(f"invalid exponents {m}")
            raw[m] = c
        return self._normal_form(raw)

    def _normal_form(self, terms: dict) -> "Element":
        """The element of a raw map of valid monomials (exponent tuples of
        the right length, exterior exponents 0 or 1), not checked again."""
        return Element(self, self._reduce_terms(terms))

    # -- monomial bookkeeping ----------------------------------------------

    def monomial_degree(self, exps) -> int:
        return sum(map(mul, exps, self._degrees))

    def monomials(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """All monomials of the free algebra in one degree, descending
        graded-lex order (deterministic): the standard monomials of the free
        presentation, shared with its quotients and listed under the
        monomial-list budget; no elimination runs."""
        self.free._check_list(degree)
        return self.free._list_standard(degree)

    def standard_monomials(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """The monomials of ``graded_basis(degree)``.  The degree's list is
        held to its budget before the basis is completed through it."""
        self._check_list(degree)
        self._degree_data(degree)
        return self._list_standard(degree)

    def graded_basis(self, degree: int) -> list["Element"]:
        """Deterministic ordered basis of the degree-d piece of the quotient:
        its standard monomials, in descending lex order."""
        return [Element(self, {m: 1}) for m in self.standard_monomials(degree)]

    def dimension(self, degree: int) -> int:
        """Counted from the leading monomials; nothing is listed."""
        self._degree_data(degree)
        return self._series(degree)[degree]

    def hilbert_series(self, cap: int | None = None) -> list[int]:
        """Dimensions of the graded pieces for degrees 0..cap, read off one
        count once the basis is complete through the cap."""
        cap = self.degree_cap if cap is None else cap
        if cap > self.degree_cap:
            raise DegreeCapError(f"requested degree {cap} above cap {self.degree_cap}")
        if cap < 0:
            raise ValueError(f"negative degree cap {cap}")
        return [self.dimension(d) for d in range(cap, -1, -1)][::-1]  # the top one first

    # -- the degreewise reduction engine ------------------------------------

    def _check_degree(self, degree: int) -> None:
        if degree > self.degree_cap:
            raise DegreeCapError(f"degree {degree} above cap {self.degree_cap}")
        if degree < 0:
            raise ValueError("negative degree")

    def _degree_data(self, degree: int) -> None:
        """Complete the Groebner basis through the degree, with one
        ``_build_degree`` call per degree asked for, as the benchmark's trace
        counts builds."""
        self._check_degree(degree)
        if degree not in self._built:
            self._build_degree(degree)
            self._built.add(degree)

    def _check_list(self, degree: int) -> None:
        """Refuse the lowest degree through ``degree`` that is not listed
        yet and whose free monomials, which bound its list, would hold more
        than ``MAX_MACAULAY_CELLS`` exponent entries."""
        self._check_degree(degree)
        counts, n = self.free._series(degree), len(self._degrees)
        for d in range(len(self._standard), degree + 1):
            if counts[d] * n > MAX_MACAULAY_CELLS:
                raise DegreeCapError(
                    f"degree {d}: the monomial list would hold {counts[d]} monomials of "
                    f"{n} generators, above the budget of {MAX_MACAULAY_CELLS} "
                    "exponent entries; lower the cap"
                )

    def _column_index(self, degree: int) -> dict:
        """{free monomial: column} for the degree's monomials, the columns of
        a reducer (``_reducer``) and of a span (``span_echelon``); each is
        built once per degree, so the index is not kept."""
        return {m: j for j, m in enumerate(self.monomials(degree))}

    def _build_degree(self, degree: int) -> None:
        """Complete the Groebner basis through the degree, one basis step
        per degree, each under the S-pair and basis budgets.  Nothing is
        counted or listed here: ``dimension`` counts and the listing paths
        list."""
        for d in range(self._basis_done + 1, degree + 1):
            self._basis_step(d)
            self._basis_done = d

    def _series(self, degree: int) -> list[int]:
        """The Hilbert series through at least ``degree``, whose basis is
        complete: that of S / (in(G) + (x_odd^2)), counted through every
        degree the basis is complete through."""
        if degree >= len(self._dims):
            ideal = [support for at in self._leads_at for _, support in at]
            leads = set(ideal)  # an exterior generator that is a lead needs no square
            ideal += [((i, 2),) for i in self._odd_slots if ((i, 1),) not in leads]
            top = max(degree, self._basis_done)
            self._dims = _hilbert.ideal_series(self._degrees, ideal, top)
        return self._dims

    def _list_standard(self, degree: int) -> tuple:
        """The degree's standard monomials, extending the lists through
        ``degree``, whose basis is complete; its callers hold the lists to
        the budget.  The list of degree d holds the standard monomials whose
        first nonzero slot is k, for k = 0, 1, ... in turn, and those are g_k
        times the suffix-k block of the standard monomials of degree d - |g_k|
        (suffix k + 1 for an exterior g_k, whose exponent stops at 1): the
        trailing block of the lower list that vanishes before slot k, kept as
        its length, not as a copy.  Raising one exponent keeps the order, so
        the list is in descending lex order, built from lower degrees only.
        A candidate's cofactor is standard, so it is dropped only if a lead
        whose first nonzero slot is k divides it, and such a lead has the
        candidate's exponent at k.  With no leads this lists every monomial.
        A later basis element has a higher degree, so a degree's list never
        changes once made."""
        std, tails_of = self._standard, self._standard_tails
        if degree < len(std):
            return std[degree]
        n = len(self._degrees)
        # slot k -> {exponent at k: [the rest of the support of each lead
        # whose first nonzero slot is k]}
        rests = [{} for _ in range(n)]
        for k in range(n):
            for _, ((_, e), *rest) in self._leads_at[k]:
                rests[k].setdefault(e, []).append(rest)
        for d in range(len(std), degree + 1):
            # the unit, unless a constant lead kills it and every degree after
            out = [(0,) * n] if d == 0 and not self._leads_at[n] else []
            blocks = [0] * n + [len(out)]
            for k, (g, odd) in enumerate(zip(self._degrees, self._odd)):
                if g > d:
                    continue
                lower = std[d - g]
                size = tails_of[d - g][k + 1 if odd else k]
                candidates = (m[:k] + (m[k] + 1,) + m[k + 1:] for m in lower[len(lower) - size:])
                leads = rests[k]
                start = len(out)
                out.extend(
                    m for m in candidates if m[k] not in leads or not _divides_any(leads[m[k]], m)
                )
                blocks[k] = len(out) - start
            for k in range(n - 1, -1, -1):
                blocks[k] += blocks[k + 1]
            std.append(tuple(out))
            tails_of.append(blocks)
        return std[degree]

    def _divisor(self, m) -> int | None:
        """The first basis element whose leading monomial divides ``m``.  A
        lead divides ``m`` only if its first nonzero slot is one where ``m``
        is nonzero (or it is constant), so only those slots' leads are
        scanned, each slot's in basis order up to the best index so far."""
        slots = [j for j, e in enumerate(m) if e]
        slots.append(len(m))
        best = len(self._leads)
        for j in slots:
            for k, support in self._leads_at[j]:
                if k >= best:
                    break
                for i, e in support:
                    if m[i] < e:
                        break
                else:
                    best = k
                    break
        return best if best < len(self._leads) else None

    def _times(self, u, k: int) -> dict:
        """The row u * g_k of basis element k times the monomial u."""
        terms = self._basis[k]
        if not self._basis_odd[k]:
            # no exterior exponent in g_k: exponents add, nothing vanishes
            # or changes sign, distinct terms stay distinct
            return {tuple(map(add, u, t)): c for t, c in terms}
        p, mul = self.prime, self._mul_monomials
        row = {}
        for t, c in terms:
            prod = mul(u, t)
            if prod is not None:
                row[prod[0]] = prod[1] * c % p
        return row

    def _multiple(self, k: int, m) -> dict:
        """The row (m / lead(g_k)) * g_k, whose leading monomial is ``m``."""
        return self._times(tuple(map(sub, m, self._leads[k])), k)

    def _matrix(self, rows: list[dict], cols) -> tuple:
        """The rows on the given columns of one degree in monomial order
        (descending lex), eliminated by one ``_kernels.rref`` call: (column
        monomials, reduced rows as an int64 array, pivots)."""
        import numpy as np

        order = sorted(cols, reverse=True)
        col = {m: j for j, m in enumerate(order)}
        mat = np.zeros((len(rows), len(order)), dtype=np.int64)
        mat[
            [i for i, row in enumerate(rows) for _ in row],
            [col[m] for row in rows for m in row],
        ] = [v for row in rows for v in row.values()]
        R, pivots = _kernels.rref(mat, self.prime)
        return order, R, pivots

    def _basis_step(self, degree: int) -> None:
        """Complete the Groebner basis in one degree, as in Faugere's F4:
        the degree's relations, both halves of each S-pair left by the
        Gebauer-Moller criteria and the x * g rows of the exterior case,
        closed under symbolic preprocessing (a reducer row u * g for every
        monomial a leading monomial divides) and eliminated together.  A
        pivot that no earlier leading monomial divides is a new element.
        A refusal leaves the basis as it was."""
        rows = [
            dict(terms)
            for terms, d in zip(self._relation_terms, self._relation_degrees)
            if d == degree
        ]
        reducible = set()  # monomials with a row led by them
        halves = set()
        for (i, j), (lcm, _) in self._pairs.get(degree, {}).items():
            reducible.add(lcm)
            for k in (i, j):
                if (k, lcm) not in halves:
                    halves.add((k, lcm))
                    rows.append(self._multiple(k, lcm))
        for k, slot in self._exterior_rows.get(degree, ()):
            unit = tuple(int(i == slot) for i in range(len(self.generators)))
            row = self._times(unit, k)
            if row:
                rows.append(row)
        if not rows:
            return
        cols = {m for row in rows for m in row}
        todo = [m for m in cols if m not in reducible]
        reducers = []
        while todo:
            m = todo.pop()
            k = self._divisor(m)
            if k is None:
                continue
            reducible.add(m)
            row = self._multiple(k, m)
            reducers.append(row)
            for t in row:
                if t not in cols:
                    cols.add(t)
                    todo.append(t)
        # the reducer rows first: their leading monomials are distinct, so
        # each is a pivot row as it stands, and the rows after them reduce
        # against them
        rows = reducers + rows
        cells = len(rows) * len(cols)
        if cells > MAX_MACAULAY_CELLS:
            raise DegreeCapError(
                f"degree {degree}: the S-pair matrix would have {cells} cells, "
                f"above the budget of {MAX_MACAULAY_CELLS}; lower the cap"
            )
        order, R, pivots = self._matrix(rows, cols)
        new = [r for r, pivot in enumerate(pivots) if order[pivot] not in reducible]
        size = len(self._basis) + len(new)
        if size > MAX_BASIS_ELEMENTS:
            raise DegreeCapError(
                f"degree {degree}: the Groebner basis would have {size} elements, "
                f"above the budget of {MAX_BASIS_ELEMENTS} basis elements; lower the cap"
            )
        self._pairs.pop(degree, None)
        self._exterior_rows.pop(degree, None)
        for r in new:
            cs = R[r].nonzero()[0].tolist()
            self._add_basis_element(degree, tuple(zip([order[c] for c in cs], R[r, cs].tolist())))

    def _add_basis_element(self, degree: int, terms: tuple) -> None:
        """Append a monic element (leading term first) and update the
        pending S-pairs by the criteria of Gebauer & Moller (JSC 6, 1988)."""
        h = len(self._basis)
        lead = terms[0][0]
        support = tuple((i, e) for i, e in enumerate(lead) if e)
        bits = _bits(s for s, _ in support)
        # the coprime (product) criterion holds where neither leading
        # monomial has an exterior variable: no multiple of such a lead
        # vanishes, so Buchberger's commutative argument goes through
        odd = any(lead[i] for i in self._odd_slots)
        # B: a pending pair whose lcm the new lead divides is covered by the
        # two pairs through it, unless one of those has the same lcm
        for pairs in self._pairs.values():
            covered = [
                (i, j)
                for (i, j), (lcm, lcm_bits) in pairs.items()
                if lcm_bits & bits == bits
                and all(lcm[s] >= e for s, e in support)
                and lcm != tuple(map(max, self._leads[i], lead))
                and lcm != tuple(map(max, self._leads[j], lead))
            ]
            for key in covered:
                del pairs[key]
        # M and F: of the new pairs within the cap keep one per lcm, none
        # whose lcm another new lcm properly divides, and none whose lcm a
        # coprime pair shares.  A divisor of an lcm within the cap is within
        # it too, so the pairs beyond the cap play no part
        groups: dict[tuple, list] = {}  # lcm -> [degree, first partner, a pair coprime]
        for i, g in enumerate(self._leads):
            lcm = tuple(map(max, g, lead))
            group = groups.get(lcm)
            if group is None:
                d = sum(map(mul, lcm, self._degrees))
                if d > self.degree_cap:
                    continue
                group = groups[lcm] = [d, i, False]
            if not (odd or self._lead_odd[i] or any(map(min, g, lead))):
                group[2] = True
        # one new lcm divides another iff it does on the slots where it
        # exceeds the new lead, and a proper divisor has the lower degree:
        # one pass in degree order keeps the minimal lcms
        minimal = []  # (lcm, bits and list of the slots where it exceeds lead)
        for lcm, (d, i, coprime) in sorted(groups.items(), key=lambda item: item[1][0]):
            excess = [s for s, e in enumerate(lead) if lcm[s] > e]
            mask = _bits(excess)
            if any(
                other_mask & mask == other_mask and all(lcm[s] >= other[s] for s in slots)
                for other, other_mask, slots in minimal
            ):
                continue
            minimal.append((lcm, mask, excess))
            if not coprime:
                self._pairs.setdefault(d, {})[i, h] = lcm, bits | mask
        self._basis.append(terms)
        self._leads.append(lead)
        self._leads_at[support[0][0] if support else len(lead)].append((h, support))
        self._lead_odd.append(odd)
        self._basis_odd.append(any(t[i] for t, _ in terms for i in self._odd_slots))
        # x * h for each exterior x in the lead, whose own lead vanishes
        for i in self._odd_slots:
            d = degree + self._degrees[i]
            if lead[i] and d <= self.degree_cap:
                self._exterior_rows.setdefault(d, []).append((h, i))

    def _reducer(self, degree: int) -> dict:
        """The degree's reducer, filled on first use: one row u * g per
        non-standard monomial, brought to reduced echelon form by
        ``_kernels.echelon``.  Those rows span the ideal's degree piece and
        have distinct leading monomials, so the form is the unique one."""
        monos = self.monomials(degree)
        self._degree_data(degree)  # the basis is complete through the degree
        reducer = self._reducers.get(degree)
        if reducer is None:
            index = self._column_index(degree)
            standard = set(self._list_standard(degree))
            rows = [
                {index[t]: c for t, c in self._multiple(self._divisor(m), m).items()}
                for m in monos
                if m not in standard
            ]
            # each row is a pivot row as it stands, so the pivots keep the
            # rows' column order; a reduced row is 1 on its pivot and 0 on
            # every other pivot column, so the rest of it lies on the basis
            # columns, sorted into column order here
            reducer = self._reducers[degree] = {
                monos[pivot]: tuple((monos[c], v) for c, v in sorted(row.items()) if c != pivot)
                for pivot, row in _kernels.echelon(rows, self.prime).items()
            }
        return reducer

    def _mul_monomials(self, m1, m2):
        """Product of two exponent tuples: (monomial, sign) or None if zero."""
        if not self._exterior:
            # p = 2 or all degrees even: exponents add and nothing anticommutes
            return tuple(map(add, m1, m2)), 1
        # moving each odd factor of m2 left past the odd factors of m1 in later
        # slots: one right-to-left pass over the odd slots counts the swaps
        swaps = later = 0
        for i in self._odd_slots:
            a = m1[i]
            if m2[i]:
                if a:
                    return None
                swaps += later
            later += a
        return tuple(map(add, m1, m2)), -1 if swaps & 1 else 1

    def _has_relations_at(self, degree: int) -> bool:
        return degree >= self._lowest_relation

    def _reduce_terms(self, terms: dict) -> dict:
        """Normal form of a raw term map (split per degree, reduce each):
        coefficients in [1, p), every degree within the cap, no term on a
        pivot monomial.  The one reduction entry of ``Element``."""
        p = self.prime
        by_degree: dict[int, dict] = {}
        for m, c in terms.items():
            c %= p
            if not c:
                continue
            by_degree.setdefault(self.monomial_degree(m), {})[m] = c
        out: dict = {}
        for d, part in by_degree.items():
            if d > self.degree_cap:
                raise DegreeCapError(f"degree {d} above cap {self.degree_cap}")
            if not self._has_relations_at(d):
                out.update(part)
                continue
            reducer = self._reducer(d)
            # the reducer rows are fully reduced, so one pass leaves no pivot
            acc: dict = {}
            for m, c in part.items():
                row = reducer.get(m)
                if row is None:
                    acc[m] = acc.get(m, 0) + c
                else:
                    for b, v in row:
                        acc[b] = acc.get(b, 0) - c * v
            for m, c in acc.items():
                c %= p
                if c:
                    out[m] = c
        return out

    # -- misc ----------------------------------------------------------------

    def format_monomial(self, exps) -> str:
        parts = []
        for g, e in zip(self.generators, exps):
            if e == 1:
                parts.append(g.name)
            elif e:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    def __repr__(self):
        rel = f", {len(self._relation_terms)} relations" if self._relation_terms else ""
        names = ",".join(g.name for g in self.generators)
        return f"GradedPresentation(F_{self.prime}[{names}], cap={self.degree_cap}{rel})"


def _bits(slots) -> int:
    """A set of slots as the bits of an int."""
    return sum(1 << s for s in slots)


def _divides_any(supports, m) -> bool:
    """Does a monomial with one of the given supports divide ``m``?"""
    for support in supports:
        for i, e in support:
            if m[i] < e:
                break
        else:
            return True
    return False


class Element:
    """An F_p-linear combination of normal-form monomials of one presentation.

    Invariant: ``terms`` is a normal form, with coefficients in [1, p) and
    no term on a pivot monomial of its degree.  The presentation's
    constructors (``gen``, ``one``, ``monomial``, ``element``) and products
    reduce; sums, negatives and scalar multiples keep normal forms normal.
    So ``is_zero`` reads the terms, and equality of term maps is equality in
    the quotient.  The raw constructor takes ownership of a term map that
    is already normal and is called inside this module only.
    """

    __slots__ = ("pres", "terms", "_hash")

    def __init__(self, pres: GradedPresentation, terms: dict):
        object.__setattr__(self, "pres", pres)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        if name in ("pres", "terms") and hasattr(self, "terms"):
            raise AttributeError("Element is immutable")
        object.__setattr__(self, name, value)

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {self.pres.monomial_degree(m) for m in self.terms}
        return len(degs) <= 1

    def degree(self) -> int | None:
        """Common degree of all terms; None for 0; error when mixed."""
        degs = {self.pres.monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise NonHomogeneousError(f"element has degrees {sorted(degs)}")
        return degs.pop()

    # -- arithmetic ------------------------------------------------------------

    def _check_same(self, other: "Element"):
        if self.pres is not other.pres:
            raise PresentationMismatchError("elements from different presentations")

    def __add__(self, other):
        if isinstance(other, int):
            other = other * self.pres.one()
        self._check_same(other)
        terms = dict(self.terms)
        p = self.pres.prime
        for m, c in other.terms.items():
            v = (terms.get(m, 0) + c) % p
            if v:
                terms[m] = v
            else:
                terms.pop(m, None)
        return Element(self.pres, terms)

    __radd__ = __add__

    def __neg__(self):
        p = self.pres.prime
        return Element(self.pres, {m: (-c) % p for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Element) else -(other * self.pres.one()))

    def __rsub__(self, other):
        return (other * self.pres.one()) - self

    def __mul__(self, other):
        if isinstance(other, int):
            p = self.pres.prime
            c = other % p
            if not c:
                return self.pres.zero()
            return Element(self.pres, {m: (v * c) % p for m, v in self.terms.items()})
        self._check_same(other)
        p = self.pres.prime
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = self.pres._mul_monomials(m1, m2)
                if prod is None:
                    continue
                mono, sign = prod
                v = (terms.get(mono, 0) + sign * c1 * c2) % p
                if v:
                    terms[mono] = v
                else:
                    terms.pop(mono, None)
        return self.pres._normal_form(terms)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        """A homogeneous x of degree d >= 1 with n >= 2 and n * d within the
        cap is raised by the p-th power map F(sum c m) = sum c m^p over the
        monomials with no exterior factor, an endomorphism of the even part:
        x^(qp + r) = F(x^q) x^r, and an odd x at odd p squares to zero.  No
        degree exceeds n * d, so the terms are the loop's, which takes the
        other cases.
        Without a constant term each factor raises the lowest degree, so
        the product is zero or refused by the cap within cap + 1 factors.
        With one the powers need not grow (a unit's, or 1 + x for an
        exterior x), so they are taken by squaring: O(log n) products."""
        if n < 0:
            raise ValueError("negative power")
        pres = self.pres
        degs = {pres.monomial_degree(m) for m in self.terms}
        if n >= 2 and len(degs) == 1 and 1 <= (d := min(degs)) and n * d <= pres.degree_cap:
            p = pres.prime
            if p != 2 and d % 2:
                return pres.zero()
            q, r = divmod(n, p)
            out = self if q < 2 else self ** q
            if q:
                odd = pres._odd_slots
                out = pres._normal_form({
                    tuple(e * p for e in m): c for m, c in out.terms.items() if not any(m[i] for i in odd)
                })
            for _ in range(r if q else r - 1):
                out = out * self
            return out
        out = pres.one()
        if any(not any(m) for m in self.terms):
            base = self
            while n:
                if n & 1:
                    out = out * base
                n >>= 1
                if n:
                    base = base * base
            return out
        for _ in range(n):
            if out.is_zero():
                break
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self == other * self.pres.one()
        return (
            isinstance(other, Element)
            and self.pres is other.pres
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(
                self, "_hash", hash((id(self.pres), frozenset(self.terms.items())))
            )
        return self._hash

    def __str__(self):
        if not self.terms:
            return "0"
        keyed = sorted(
            self.terms.items(),
            key=lambda mc: (self.pres.monomial_degree(mc[0]), mc[0]),
            reverse=True,
        )
        parts = []
        for m, c in keyed:
            mono = self.pres.format_monomial(m)
            if mono == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self}>"


def span_echelon(pres: GradedPresentation, degree: int, elements) -> tuple[dict, dict]:
    """What ``in_span`` reduces a degree's classes against: the degree's
    column index and the ``_kernels.echelon`` of the given nonzero elements
    of that degree on it.  Build it once per span and degree."""
    index = pres._column_index(degree)
    rows = [{index[m]: c for m, c in s.terms.items()} for s in elements]
    return index, _kernels.echelon(rows, pres.prime)


def in_span(e: Element, span: tuple[dict, dict]) -> bool:
    """Is ``e`` an F_p combination of the elements ``span_echelon`` took
    (``e`` homogeneous of the span's degree)?  One reduction."""
    index, basis = span
    vec = {index[m]: c for m, c in e.terms.items()}
    return not _kernels.reduce_vector(vec, basis, e.pres.prime)


def kernel(basis: list[Element], images: list[Element]) -> list[Element]:
    """Basis of the kernel of the linear map that sends each element of
    ``basis``, a nonempty list of distinct monomials, to the matching image:
    the combinations of them whose images sum to zero."""
    # one row per monomial of the images, {basis position: coefficient}: its
    # nullspace is the combinations with zero image
    rows: dict = {}
    for i, image in enumerate(images):
        for m, c in image.terms.items():
            rows.setdefault(m, {})[i] = c
    pres = basis[0].pres
    monos = [m for b in basis for m in b.terms]  # each basis element is one monomial
    return [
        pres.element({monos[i]: c for i, c in vec.items()})
        for vec in _kernels.nullspace(list(rows.values()), len(basis), pres.prime)
    ]


@dataclass(frozen=True)
class RegularSequenceReport:
    regular: bool
    cap: int
    quotient_series: tuple[int, ...]
    predicted_series: tuple[int, ...]
    first_failure: int | None

    def describe(self) -> str:
        if self.regular:
            return f"regular up to degree {self.cap}"
        return f"not regular: series mismatch at degree {self.first_failure}"


def regular_sequence_check(pres: GradedPresentation, seq, cap: int) -> RegularSequenceReport:
    """Compare the quotient's Hilbert series with the Koszul prediction
    prod(1 - t^{d_i}) * (free series) through the given degree."""
    if pres._relation_terms or any(pres._odd):
        raise ValueError("regular-sequence check expects a free polynomial presentation")
    degs = []
    for s in seq:
        if not s.is_homogeneous():
            raise NonHomogeneousError("regular-sequence input must be homogeneous")
        d = s.degree()
        if d is None:
            raise ValueError("zero element in sequence")
        degs.append(d)
    quotient = pres.quotient(seq)
    actual = quotient.hilbert_series(cap)
    free = pres.hilbert_series(cap)
    predicted = list(free)
    for d in degs:
        nxt = [0] * (cap + 1)
        for i in range(cap + 1):
            nxt[i] = predicted[i] - (predicted[i - d] if i >= d else 0)
        predicted = nxt
    first = next((i for i in range(cap + 1) if actual[i] != predicted[i]), None)
    return RegularSequenceReport(
        regular=first is None,
        cap=cap,
        quotient_series=tuple(actual),
        predicted_series=tuple(predicted),
        first_failure=first,
    )


class AlgebraMorphism:
    """Degree-preserving algebra map given by images of the generators.

    Construction validates that every generator is mapped, degrees are
    preserved and every source relation maps to zero in the target.
    """

    def __init__(self, source: GradedPresentation, target: GradedPresentation, images: dict):
        if source.prime != target.prime:
            raise MorphismError("primes differ")
        self.source = source
        self.target = target
        self.images: dict[str, Element] = {}
        for g in source.generators:
            if g.name not in images:
                raise MorphismError(f"no image for generator {g.name}")
            img = images[g.name]
            if img.pres is not target:
                raise MorphismError(f"image of {g.name} lies in the wrong presentation")
            if not img.is_zero() and img.degree() != g.degree:
                raise MorphismError(
                    f"image of {g.name} has degree {img.degree()}, expected {g.degree}"
                )
            self.images[g.name] = img
        for rel in source.relations:
            if not self._apply_terms(rel.terms).is_zero():
                raise MorphismError("a source relation does not map to zero")

    def _apply_terms(self, terms: dict) -> Element:
        out = self.target.zero()
        names = [g.name for g in self.source.generators]
        for m, c in terms.items():
            piece = c * self.target.one()
            for name, e in zip(names, m):
                if e:
                    piece = piece * self.images[name] ** e
            out = out + piece
        return out

    def __call__(self, e: Element) -> Element:
        if e.pres is not self.source and e.pres is not self.source.free:
            raise PresentationMismatchError("element not in the morphism's source")
        return self._apply_terms(e.terms)
