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
basis of the quotient, so dimensions and Hilbert series are counts with no
further elimination.  They form an order ideal (Cox, Little & O'Shea,
Ideals, Varieties, and Algorithms, section 9.3): a standard monomial whose
first nonzero exponent sits at slot k is g_k times a standard monomial of
lower degree, and only a leading monomial whose first nonzero slot is k can
divide the product.  So each degree's list is grown from the lists below it,
the way ``_MonomialTable`` grows the free monomials, and no non-standard
monomial is listed.  The normal form needs the reducer {non-standard
monomial: its reduced row on the standard monomials}: it is filled when a
normal form in that degree is first asked for, by ``_kernels.echelon`` on
the dict rows u * g, one per non-standard monomial, which span the ideal's
degree piece with distinct leading monomials.  Reduced row echelon form is
unique, so the reducer is the one a full elimination of every cofactor x
relation product ("Macaulay matrix") gives, and a normal form is one
substitution pass over it in dict arithmetic.  Only the S-pair matrices of
a basis step pass through the int64 array of ``_kernels.rref``.

Every ``Element`` is a normal form: only its constructors (``element``,
``monomial``, ``gen``, ``one`` and products) reduce, all through
``_reduce_terms``, and the raw ``Element(...)`` constructor is used in this
module only.  So an element is zero exactly when it has no terms.

Monomials are exponent tuples aligned with the generator list.  The
monomial order is graded lexicographic: within one degree, tuples compare
lexicographically with earlier generators more significant, and bases are
listed in descending order (the leading monomial of an element is its
lex-largest exponent tuple, the leftmost column of its degree).

Conventions by characteristic:
  * p odd: a generator is exterior iff its degree is odd; exterior
    exponents are 0/1, odd*odd anticommutes and odd squares vanish.
  * p = 2: every generator is polynomial; odd-degree classes square freely.

The free monomials of each degree come from one table per generator list
(``_MonomialTable``), filled on demand and shared by a presentation, its
quotients and its free twin.  The table counts a degree before it lists it:
the budgets, the Macaulay cell count and a relation-free ring's dimensions
read the counts, and only ``monomials(d)`` and a reducer list a degree.
Within a degree the table's order is descending lex, so the columns of an
S-pair matrix are its monomials sorted in reverse.

Elements are immutable and their operations pure.  A presentation fills
its monomial table, its Groebner basis and its per-degree caches on demand;
the basis grows in place, so a presentation is for one thread at a time.
A refused basis step changes nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub

import numpy as np

from . import _kernels


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

# The most cells (rows x monomial columns) a degree's Macaulay matrix, every
# cofactor times every relation, may have before ``_build_degree`` refuses the
# degree.  No such matrix is built; its size, counted from the table, keeps
# the refusals of the full elimination this engine replaced.  The largest
# built-in one is the regular pair's at degree 44 (4,105,500 cells); at degree
# 48 it has 7,169,175.  A p = 3 file with five degree-2 generators and
# relations of degrees 4..12 reaches 9,296,280 cells at degree 26 and is
# refused there.  The same number bounds each S-pair matrix of the Groebner
# basis and the exponent entries (monomials x generators) of one degree's
# monomial list, which a relation-free file with many generators would
# otherwise fill.
MAX_MACAULAY_CELLS = 8_000_000

# The most elements a truncated Groebner basis may have.  Buchberger's worst
# case is doubly exponential, so a small file can ask for a basis of any size,
# and each new element is compared with every pending S-pair.  The largest
# basis of ``report --all`` has 16 elements.
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

    def __init__(self, prime: int, generators, degree_cap: int, _relations=None, _table=None):
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
        self._table = _table or _MonomialTable(self._degrees, self._odd)
        self._relation_terms = tuple(_relations or ())
        self._cache: dict[int, _DegreeData] = {}
        self._free_twin: GradedPresentation | None = None
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
        # each degree's standard monomials in table order, and their suffix
        # block lengths (tails[k]: how many vanish before generator k)
        self._standard: list[tuple] = []
        self._standard_tails: list[list[int]] = []

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
            _table=self._table,
        )

    @property
    def free(self) -> "GradedPresentation":
        """The relation-free presentation on the same generators."""
        if not self._relation_terms:
            return self
        if self._free_twin is None:
            self._free_twin = GradedPresentation(
                self.prime, self.generators, self.degree_cap, _table=self._table
            )
        return self._free_twin

    @property
    def relations(self) -> tuple["Element", ...]:
        return tuple(Element(self.free, dict(t)) for t in self._relation_terms)

    # -- elements ----------------------------------------------------------

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return self.monomial((0,) * len(self.generators))

    def gen(self, name: str) -> "Element":
        i = self._index.get(name)
        if i is None:
            raise KeyError(f"unknown generator {name!r}")
        exps = [0] * len(self.generators)
        exps[i] = 1
        return self.monomial(exps)

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
        return Element(self, self._reduce_terms(raw))

    # -- monomial bookkeeping ----------------------------------------------

    def monomial_degree(self, exps) -> int:
        return sum(map(mul, exps, self._degrees))

    def monomials(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """All monomials of the free algebra in one degree, descending
        graded-lex order (deterministic).  A lookup in the monomial table
        shared with the quotients and the free twin; no elimination runs."""
        self._check_degree(degree)
        return self._table.monomials(degree)

    def graded_basis(self, degree: int) -> list["Element"]:
        """Deterministic ordered basis of the degree-d piece of the quotient."""
        data = self._degree_data(degree)
        if data.basis is None:
            # a relation-free degree: every monomial
            data.basis = self._table.monomials(degree)
        return [Element(self, {m: 1}) for m in data.basis]

    def dimension(self, degree: int) -> int:
        return self._degree_data(degree).dimension

    def hilbert_series(self, cap: int | None = None) -> list[int]:
        """Dimensions of the graded pieces for degrees 0..cap."""
        cap = self.degree_cap if cap is None else cap
        if cap > self.degree_cap:
            raise DegreeCapError(f"requested degree {cap} above cap {self.degree_cap}")
        if cap < 0:
            raise ValueError(f"negative degree cap {cap}")
        return [self.dimension(d) for d in range(cap + 1)]

    # -- the degreewise reduction engine ------------------------------------

    def _check_degree(self, degree: int) -> None:
        if degree > self.degree_cap:
            raise DegreeCapError(f"degree {degree} above cap {self.degree_cap}")
        if degree < 0:
            raise ValueError("negative degree")

    def _degree_data(self, degree: int) -> "_DegreeData":
        self._check_degree(degree)
        data = self._cache.get(degree)
        if data is None:
            data = self._build_degree(degree)
            self._cache[degree] = data
        return data

    def _columns(self, degree: int) -> "_DegreeData":
        """The degree's data with its free monomials and their columns
        filled in, which only a reducer and ``in_span`` read."""
        data = self._degree_data(degree)
        if data.index is None:
            data.monomials = self._table.monomials(degree)
            data.index = self._table.index(degree)
        return data

    def _macaulay_cells(self, degree: int) -> int:
        """Rows x columns of the degree's Macaulay matrix (every cofactor
        times every relation), from the table's counts; the count of the
        degree comes first, so the monomial-list budget of every degree
        through it is checked, lowest first.  No monomial is listed and no
        such matrix is built; the number is the budget a degree must pass."""
        table = self._table
        cols = table.count(degree)
        rows = sum(table.count(degree - d) for d in self._relation_degrees if d <= degree)
        return rows * cols

    def _build_degree(self, degree: int) -> "_DegreeData":
        """The degree's dimension and standard monomials, after the Groebner
        basis is complete through the degree.  A relation-free degree is
        counted, not listed.  No columns or reducer yet."""
        cells = self._macaulay_cells(degree)
        if cells > MAX_MACAULAY_CELLS:
            raise DegreeCapError(
                f"degree {degree}: the relation matrix would have {cells} cells, "
                f"above the budget of {MAX_MACAULAY_CELLS}; lower the cap"
            )
        if not self._relation_terms:
            return _DegreeData(self._table.count(degree))
        for d in range(self._basis_done + 1, degree + 1):
            self._basis_step(d)
            self._basis_done = d
        self._list_standard(degree)
        basis = self._standard[degree]
        return _DegreeData(len(basis), basis)

    def _list_standard(self, degree: int) -> None:
        """Extend the standard monomial lists through ``degree``, whose basis
        is complete.  The candidates of degree d are g_k times the suffix-k
        block of the standard monomials of degree d - |g_k| (suffix k + 1
        for an exterior g_k), for k = 0, 1, ..., as in ``_MonomialTable``;
        their cofactors are standard, so a candidate is dropped only if a
        lead whose first nonzero slot is k divides it, and such a lead has
        the candidate's exponent at k (a smaller one would divide the
        cofactor).  The order is the table's; a later basis element has a
        higher degree, so a degree's list never changes once made."""
        n = len(self._degrees)
        std, tails_of = self._standard, self._standard_tails
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

    def _matrix(self, rows: list[dict], cols) -> tuple[list, np.ndarray, list]:
        """The rows on the given columns of one degree in table order
        (descending lex), eliminated by one ``_kernels.rref`` call: (column
        monomials, reduced rows, pivots)."""
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
            cs = np.flatnonzero(R[r]).tolist()
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
        data = self._columns(degree)
        if data.reducer is None:
            index, monos = data.index, data.monomials
            standard = set(data.basis)
            rows = [
                {index[t]: c for t, c in self._multiple(self._divisor(m), m).items()}
                for m in monos
                if m not in standard
            ]
            # each row is a pivot row as it stands, so the pivots keep the
            # rows' column order; a reduced row is 1 on its pivot and 0 on
            # every other pivot column, so the rest of it lies on the basis
            # columns, sorted into column order here
            data.reducer = {
                monos[pivot]: tuple((monos[c], v) for c, v in sorted(row.items()) if c != pivot)
                for pivot, row in _kernels.echelon(rows, self.prime).items()
            }
        return data.reducer

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


class _MonomialTable:
    """The free monomials of one generator list, per degree, filled on demand.

    A degree's entry holds its exponent tuples in descending lex order.  For
    each k, the trailing block of those that vanish on the generators before
    k are the monomials of generator suffix k, kept as a slice of the
    degree's list rather than as a copy; ``_tails`` holds the block lengths.
    The monomials of degree d whose first nonzero exponent sits at k are g_k
    times the suffix-k block of degree d - |g_k| (the suffix-(k+1) block when
    g_k is exterior, whose exponent stops at 1); raising one exponent keeps
    their order, and these blocks for k = 0, 1, ... follow each other in
    descending lex order.  So a degree is built from lower degrees only, in
    increasing order, without recursion, and the same recurrence on the
    lengths alone counts a degree without listing it (``count``): the
    budgets and the dimensions of a relation-free ring need the counts only,
    and a list of more than ``MAX_MACAULAY_CELLS`` exponent entries is
    refused before it is made.  Presentations on the same generators and
    prime (a quotient, its free twin) share one table.
    """

    def __init__(self, degrees: tuple, odd: tuple):
        self._degrees = degrees
        self._odd = odd
        self._entries: dict[int, tuple] = {}
        # _tails[d][k]: how many degree-d monomials vanish before generator k
        self._tails: list[list[int]] = []
        self._index: dict[int, dict] = {}

    def monomials(self, degree: int) -> tuple:
        """The degree's monomials (``degree`` >= 0)."""
        entry = self._entries.get(degree)
        if entry is None:
            self.count(degree)
            for d in range(degree + 1):
                if d not in self._entries:
                    self._entries[d] = self._build(d)
            entry = self._entries[degree]
        return entry

    def index(self, degree: int) -> dict:
        """{monomial: column} for the degree's monomials."""
        idx = self._index.get(degree)
        if idx is None:
            idx = {m: i for i, m in enumerate(self.monomials(degree))}
            self._index[degree] = idx
        return idx

    def count(self, degree: int) -> int:
        """How many monomials the degree has (``degree`` >= 0).  Fills the
        suffix block lengths through it, listing nothing, and refuses the
        lowest degree whose list would exceed the budget."""
        n = len(self._degrees)
        for d in range(len(self._tails), degree + 1):
            tails = [0] * n + [int(d == 0)]
            for k in range(n - 1, -1, -1):
                g = self._degrees[k]
                block = self._tails[d - g][k + 1 if self._odd[k] else k] if g <= d else 0
                tails[k] = tails[k + 1] + block
            if tails[0] * n > MAX_MACAULAY_CELLS:
                raise DegreeCapError(
                    f"degree {d}: the monomial list would hold {tails[0]} monomials of "
                    f"{n} generators, above the budget of {MAX_MACAULAY_CELLS} "
                    "exponent entries; lower the cap"
                )
            self._tails.append(tails)
        return self._tails[degree][0]

    def _build(self, degree: int) -> tuple:
        out = [(0,) * len(self._degrees)] if degree == 0 else []
        for k, (g, odd) in enumerate(zip(self._degrees, self._odd)):
            if g <= degree:
                lower = self._entries[degree - g]
                size = self._tails[degree - g][k + 1 if odd else k]
                out.extend(m[:k] + (m[k] + 1,) + m[k + 1:] for m in lower[len(lower) - size:])
        return tuple(out)


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


@dataclass
class _DegreeData:
    """One degree of a quotient: its dimension, its basis (standard)
    monomials, which no leading monomial divides, in table order, and, filled
    on first use, its free monomials with their columns and the reducer.  A
    relation-free degree is counted: its basis, every monomial, is read from
    the table only when asked for.

    ``reducer`` maps each non-standard monomial to its row of the reduced
    echelon form of the ideal's degree piece, read off the pivot,
    ((basis monomial, coefficient), ...): the monomial equals minus that
    combination in the quotient.  A reduced row is zero on every other
    pivot, so one substitution pass gives the normal form.
    """

    dimension: int
    basis: tuple | None = None
    monomials: tuple | None = None
    index: dict | None = None
    reducer: dict | None = None


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
        self.pres = pres
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

    def leading_monomial(self) -> tuple[int, ...] | None:
        if not self.terms:
            return None
        return max(self.terms, key=lambda m: (self.pres.monomial_degree(m), m))

    def coefficient(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

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
        return Element(self.pres, self.pres._reduce_terms(terms))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, n: int):
        """Without a constant term each factor raises the lowest degree, so
        the product is zero or refused by the cap within cap + 1 factors.
        With one the powers need not grow (a unit's, or 1 + x for an
        exterior x), so they are taken by squaring: O(log n) products."""
        if n < 0:
            raise ValueError("negative power")
        out = self.pres.one()
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


def in_span(e: Element, spanning) -> bool:
    """Is ``e`` an F_p combination of the given homogeneous elements
    (all of the same degree, same presentation)?  No computation calls it:
    the Chern-ideal test reduces against a cached reducer instead.  It stays
    while ``perfbench/tracer.py`` patches it by name."""
    if e.is_zero():
        return True
    d = e.degree()
    spanning = [s for s in spanning if not s.is_zero() and s.degree() == d]
    if not spanning:
        return False
    index = spanning[0].pres._columns(d).index
    p = e.pres.prime
    echelon = _kernels.echelon([{index[m]: c for m, c in s.terms.items()} for s in spanning], p)
    return not _kernels.reduce_vector({index[m]: c for m, c in e.terms.items()}, echelon, p)


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
