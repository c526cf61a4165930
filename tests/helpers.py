"""Independent oracles for the test suite.

Everything here is deliberately naive and shares no code with the package
kernels: plain-list Gauss-Jordan elimination for reduced echelon forms,
ranks and memberships, monomial lists from a product of exponent ranges,
monomial products signed by counting inversions, a one-variable
total-Steenrod-square model for the degree-1 operation rule, and closed
forms for the Rost motive's subalgebra and the quadric's additive ranks.
"""

from __future__ import annotations

import itertools


def oracle_rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form of a copy of ``rows`` over F_p, the slow
    dense way: (nonzero reduced rows, pivot columns)."""
    mat = [[x % p for x in r] for r in rows]
    rank = 0
    pivots = []
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def oracle_rank(rows: list[list[int]], p: int) -> int:
    return len(oracle_rref(rows, p)[1])


def oracle_in_span(vec: list[int], rows: list[list[int]], p: int) -> bool:
    """Membership via rank comparison."""
    base = [r for r in rows if any(x % p for x in r)]
    if not any(x % p for x in vec):
        return True
    return oracle_rank(base + [vec], p) == oracle_rank(base, p)


def oracle_monomials(degrees, odd, d: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree ``d`` for generators of the given
    degrees, exterior ones (``odd``) with exponent 0 or 1, in descending lex
    order.  Every exponent but the last ranges over a product of ranges; the
    last one is whatever degree remains, when it divides evenly."""
    if not degrees:
        return [()] if d == 0 else []
    ranges = [range((min(d // g, 1) if o else d // g) + 1) for g, o in zip(degrees, odd)]
    last, last_odd = degrees[-1], odd[-1]
    out = []
    for head in itertools.product(*ranges[:-1]):
        rest = d - sum(e * g for e, g in zip(head, degrees))
        if rest < 0 or rest % last or (last_odd and rest > last):
            continue
        out.append(head + (rest // last,))
    return sorted(out, reverse=True)


def oracle_monomial_product(m1, m2, odd):
    """Product of two exponent tuples whose ``odd`` slots are exterior:
    (monomial, sign), or None when an exterior generator occurs twice.

    Both monomials are ordered products in slot order.  Writing the odd
    factors of m1 and then those of m2, the sign is -1 to the number of
    inversions of that slot sequence, the transpositions that sort it."""
    slots = [i for m in (m1, m2) for i, o in enumerate(odd) if o and m[i]]
    if len(set(slots)) < len(slots):
        return None
    inversions = sum(a > b for k, a in enumerate(slots) for b in slots[k + 1:])
    return tuple(a + b for a, b in zip(m1, m2)), (-1) ** inversions


def element_vector(e, degree):
    """Coordinates of a homogeneous element in its degree's monomial list."""
    monos = e.pres.monomials(degree)
    index = {m: i for i, m in enumerate(monos)}
    vec = [0] * len(monos)
    for m, c in e.terms.items():
        vec[index[m]] = c
    return vec


def oracle_ideal_dimension(pres, gens, degree) -> int:
    """Rank of the degreewise spanning set of ideal(gens), built by brute
    monomial multiplication (independent of the package's reducer)."""
    rows = []
    for g in gens:
        gd = g.degree()
        if gd is None or gd > degree:
            continue
        for cof in pres.monomials(degree - gd):
            prod = pres.monomial(cof) * g
            if prod.terms:
                rows.append(element_vector(prod, degree))
    if not rows:
        return 0
    return oracle_rank(rows, pres.prime)


class TotalSquareOracle:
    """F_2[t]/(t^N) with the total square of the degree-1 class: t -> t + t^2.

    Polynomials are dicts {exponent: 1}; sq(poly) multiplies out the total
    squares of the factors, and sq_k extracts the degree-shift-k component.
    """

    def __init__(self, truncation: int = 64):
        self.N = truncation

    def _mul(self, a: dict, b: dict) -> dict:
        out: dict[int, int] = {}
        for i in a:
            for j in b:
                k = i + j
                if k < self.N:
                    out[k] = out.get(k, 0) ^ 1 if k in out else 1
                    if out[k] == 0:
                        del out[k]
        return out

    def total_sq_power(self, exponent: int) -> dict:
        """Total square of t^exponent."""
        out = {0: 1}
        base = {1: 1, 2: 1}  # Sq(t) = t + t^2
        for _ in range(exponent):
            out = self._mul(out, base)
        return out

    def sq(self, k: int, exponent: int) -> dict:
        """Sq^k(t^exponent) as a dict of exponents."""
        total = self.total_sq_power(exponent)
        return {e: 1 for e in total if e == exponent + k}

    def milnor_q1(self, exponent: int) -> dict:
        """Q_1 = Sq^1 Sq^2 + Sq^2 Sq^1 on t^exponent."""
        out: dict[int, int] = {}
        for first, second in ((2, 1), (1, 2)):
            for e in self.sq(first, exponent):
                for e2 in self.sq(second, e):
                    out[e2] = out.get(e2, 0) ^ 1
        return {e: 1 for e, c in out.items() if c}


def rost_generator_exponents(n: int) -> list[tuple[int, int]]:
    """Exponent vectors (rho, tau) of the motive's generators from their
    bidegrees: rho, tau, a = rho^(n+1), a' = a tau^-1, and for each nonempty
    index set I in {0..n-1} the image of a' under the operations in I, with
    rho-exponent n+1 + sum(2^(i+1)-1) and tau-exponent -1 - sum(2^i)."""
    gens = [(1, 0), (0, 1), (n + 1, 0), (n + 1, -1)]
    for mask in range(1, 2**n):
        I = [i for i in range(n) if mask >> i & 1]
        gens.append((n + 1 + sum(2 ** (i + 1) - 1 for i in I), -1 - sum(2**i for i in I)))
    return gens


def brute_reachable(n: int) -> set[tuple[int, int]]:
    """All subalgebra monomials rho^s tau^t with s, |t| <= 2^(n+1) - 2, by
    depth-first enumeration of generator products."""
    gens = rost_generator_exponents(n)
    bound = 2 ** (n + 1) - 2
    seen = {(0, 0)}
    frontier = [(0, 0)]
    while frontier:
        s, t = frontier.pop()
        for (ds, dt) in gens:
            nxt = (s + ds, t + dt)
            if nxt[0] <= bound and -bound <= nxt[1] <= bound and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def rost_ranks(n: int) -> dict[int, tuple[int, int]]:
    """(free rank, torsion dimension) per degree of the parameter-n Rost
    motive: Z_2 in degrees 0 and 2^(n+1) - 2, F_2 in degrees 4m for
    1 <= m < 2^(n-1)."""
    out: dict[int, tuple[int, int]] = {}
    for d in (0, 2 ** (n + 1) - 2):
        f, t = out.get(d, (0, 0))
        out[d] = (f + 1, t)
    for m in range(1, 2 ** (n - 1)):
        f, t = out.get(4 * m, (0, 0))
        out[4 * m] = (f, t + 1)
    return out


def quadric_ranks(n: int) -> dict[int, tuple[int, int]]:
    """Ranks of the anisotropic quadric of dimension 2^n - 1: the
    parameter-n motive plus the parameter-(n-1) motive shifted by
    2, 4, ..., 2^n - 2."""
    out = dict(rost_ranks(n))
    for shift in range(2, 2**n - 1, 2):
        for d, (f, t) in rost_ranks(n - 1).items():
            f0, t0 = out.get(d + shift, (0, 0))
            out[d + shift] = (f0 + f, t0 + t)
    return out
