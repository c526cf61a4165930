"""Milnor operations Q_i as graded derivations given by generator tables.

Q_i raises degree by 2p^i - 1 and is odd: Q_i(ab) = Q_i(a)b + (-1)^|a| a Q_i(b).
An action is a table of values on generators, extended over monomials by the
Leibniz rule; tables may be filled lazily through a supplier callback (used
for the splitting-principle computations, where entries are expensive).
Q_i is a derivation, so on each degree it is a fixed linear map (Milnor,
Ann. of Math. 67, 1958): an action keeps the raw Leibniz products of Q_i on
each monomial it has met, and an application sums those columns and
reduces once.  A column is built by exponent arithmetic: each term t of
Q_i(g_k) gives the monomial m - g_k + t.
Axiom validation checks Q_i^2 = 0, Q_iQ_j + Q_jQ_i = 0 and that relations
map into the relation ideal, all within the degree cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add

from .fp import (
    DegreeCapError,
    Element,
    FpAlgebraError,
    GradedPresentation,
)


class QActionError(FpAlgebraError):
    pass


def op_degree(prime: int, i: int) -> int:
    return 2 * prime**i - 1


class QAction:
    """Action table (operation index, generator) -> Element, plus the
    Leibniz extension over the whole presentation, cached per (index,
    monomial).  The cache holds one column per index and monomial that an
    application has met, so it grows no faster than the elements the caller
    has built."""

    def __init__(self, pres: GradedPresentation, table=None, max_index: int = 0, supplier=None):
        self.pres = pres
        self.max_index = max_index
        self._supplier = supplier
        self._table: dict[tuple[int, str], Element] = {}
        # (i, monomial) -> the raw Leibniz terms of Q_i on it; table entries
        # never change once set, so neither do these
        self._columns: dict[tuple[int, tuple], dict] = {}
        for (i, gname), value in (table or {}).items():
            self._set_entry(i, gname, value)

    def _set_entry(self, i: int, gname: str, value: Element):
        if i < 0 or i > self.max_index:
            raise QActionError(f"operation index {i} outside 0..{self.max_index}")
        gen = next((g for g in self.pres.generators if g.name == gname), None)
        if gen is None:
            raise QActionError(f"unknown generator {gname!r}")
        if not value.is_zero() and value.degree() != gen.degree + op_degree(self.pres.prime, i):
            raise QActionError(
                f"Q_{i}({gname}) has degree {value.degree()}, "
                f"expected {gen.degree + op_degree(self.pres.prime, i)}"
            )
        self._table[(i, gname)] = value

    def entry(self, i: int, gname: str) -> Element:
        if i < 0 or i > self.max_index:
            raise QActionError(f"operation index {i} outside 0..{self.max_index}")
        key = (i, gname)
        if key not in self._table:
            if self._supplier is None:
                raise QActionError(f"no table entry for Q_{i}({gname})")
            self._set_entry(i, gname, self._supplier(i, gname))
        return self._table[key]

    # -- application -------------------------------------------------------

    def apply(self, i: int, e: Element) -> Element:
        """Leibniz extension of the table; raises DegreeCapError when the
        result would live above the cap."""
        if e.pres is not self.pres and e.pres is not self.pres.free:
            raise QActionError("element does not belong to the action's presentation")
        return self.apply_raw_terms(i, e.terms)

    def apply_raw_terms(self, i: int, terms: dict) -> Element:
        """Q_i on a raw term map: the sum of each term's coefficient times
        its monomial's Leibniz column, reduced once."""
        pres = self.pres
        shift = op_degree(pres.prime, i)
        columns = self._columns
        # a cached monomial passed this check when its column was built
        for m in terms:
            if (i, m) not in columns and pres.monomial_degree(m) + shift > pres.degree_cap:
                raise DegreeCapError(
                    f"Q_{i} lands in degree {pres.monomial_degree(m) + shift}, above cap"
                )
        raw: dict = {}
        for m, c in terms.items():
            column = columns.get((i, m))
            if column is None:
                column = columns[(i, m)] = self._leibniz_terms(i, m)
            for t, v in column.items():
                raw[t] = raw.get(t, 0) + c * v
        # every column term is a valid monomial: base + t, no exterior slot at 2
        return pres._normal_form(raw)

    def _leibniz_terms(self, i: int, m: tuple) -> dict:
        """The raw Leibniz products (m / g_k) * Q_i(g_k) of one monomial,
        summed but not reduced: Q_i is a derivation, so its value on a sum is
        the sum of these columns.  A term t gives base + t (base = m - g_k),
        zero if an exterior slot reaches 2, signed by the odd prefix and by
        each exterior slot a of t and b of base with b strictly between a and k."""
        pres = self.pres
        p = pres.prime
        odd = pres._odd_slots
        column: dict = {}
        prefix_deg = 0
        for k, ek in enumerate(m):
            if ek:
                coeff = ek % p
                if coeff:
                    if p != 2 and prefix_deg % 2:
                        coeff = -coeff
                    base = m[:k] + (ek - 1,) + m[k + 1:]
                    for t, ct in self.entry(i, pres.generators[k].name).terms.items():
                        v = coeff * ct
                        theirs = [a for a in odd if t[a]]
                        if theirs:
                            if any(base[a] for a in theirs):
                                continue
                            if sum(base[b] for a in theirs for b in odd if a < b < k or k < b < a) & 1:
                                v = -v
                        mono = tuple(map(add, base, t))
                        column[mono] = column.get(mono, 0) + v
                prefix_deg += ek * pres._degrees[k]
        return column

    def apply_sequence(self, indices, e: Element):
        """Apply Q_{i_1}, then Q_{i_2}, ... (left to right); returns the
        final value and the list of intermediates for the audit trail."""
        trail = []
        current = e
        for i in indices:
            current = self.apply(i, current)
            trail.append(current)
        return current, trail


@dataclass
class AxiomReport:
    ok: bool
    failures: list[str] = field(default_factory=list)
    checked: int = 0
    skipped: int = 0

    def first_counterexample(self) -> str | None:
        return self.failures[0] if self.failures else None


def validate_q_axioms(action: QAction, cap: int | None = None, max_index: int | None = None) -> AxiomReport:
    """Exhaustive generator-level check of the derivation axioms.

    Checks, for all generators g and i <= j <= max_index: Q_i(Q_i g) = 0 and
    Q_i(Q_j g) + Q_j(Q_i g) = 0, plus Q_i(r) = 0 mod the relation ideal for
    every relation r.  Pairs whose composite lands above the cap are counted
    as skipped, never as passes.
    """
    pres = action.pres
    cap = pres.degree_cap if cap is None else min(cap, pres.degree_cap)
    top = action.max_index if max_index is None else min(max_index, action.max_index)
    report = AxiomReport(ok=True)

    def q_deg(i):
        return op_degree(pres.prime, i)

    for g in pres.generators:
        for i in range(top + 1):
            for j in range(i, top + 1):
                if g.degree + q_deg(i) + q_deg(j) > cap:
                    report.skipped += 1
                    continue
                gi = action.apply(j, action.entry(i, g.name))
                gj = action.apply(i, action.entry(j, g.name))
                bad = (gi + gj) if i != j else gi
                report.checked += 1
                if not bad.is_zero():
                    report.ok = False
                    what = f"Q_{i}^2({g.name})" if i == j else f"(Q_{i}Q_{j} + Q_{j}Q_{i})({g.name})"
                    report.failures.append(f"{what} = {bad} != 0")
    for r in pres.relations:
        rdeg = r.degree()
        for i in range(top + 1):
            if rdeg + q_deg(i) > cap:
                report.skipped += 1
                continue
            value = action.apply_raw_terms(i, r.terms)
            report.checked += 1
            if not value.is_zero():
                report.ok = False
                report.failures.append(f"Q_{i}(relation {r}) = {value} not in the ideal")
    return report
