"""Independent oracles for the test suite.

Everything here is deliberately naive and shares no code with the package
kernels: plain-list Gauss-Jordan elimination for reduced echelon forms,
ranks and memberships, and a one-variable total-Steenrod-square model for
the degree-1 operation rule.
"""

from __future__ import annotations


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
