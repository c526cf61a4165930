"""Independent oracles for the test suite.

Everything here is deliberately naive and shares no code with the package
kernels: plain-list Gauss-Jordan elimination for reduced echelon forms,
ranks and memberships, monomial lists from a product of exponent ranges,
monomial products signed by counting inversions, the dh table of an
elementary abelian ring from the closed forms of Q_i and dense nullspaces,
a one-variable total-Steenrod-square model for the degree-1 operation rule,
closed forms for the Rost motive's subalgebra and the quadric's additive
ranks, the quadric ring's classes and cycle-map flags as plain lists, and
a markdown report built whole as a list of lines.
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


def oracle_nullspace(columns: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the vectors v with sum(v[k] * columns[k]) = 0 over F_p, read
    off the dense reduced echelon form: one per free column, ascending."""
    k = len(columns)
    if not k or not columns[0]:
        return [[int(j == f) for j in range(k)] for f in range(k)]
    rows = [[col[r] for col in columns] for r in range(len(columns[0]))]
    reduced, pivots = oracle_rref(rows, p)
    out = []
    for free in (f for f in range(k) if f not in pivots):
        vec = [0] * k
        vec[free] = 1
        for row, c in zip(reduced, pivots):
            vec[c] = (-row[free]) % p
        out.append(vec)
    return out


class ElementaryOracle:
    """The dh table of the rank-n elementary abelian ring, rebuilt from the
    closed forms alone.

    The ring is F_2[x_1..x_n] at p = 2, and F_p[y_1..y_n] (x) Lambda(x_1..x_n)
    with |y| = 2 and |x| = 1 at odd p, its exponent tuples in that slot
    order.  Q_i is the derivation with Q_i x_j = x_j^(2^(i+1)) at p = 2 and
    Q_i x_j = y_j^(p^i) at odd p, Q_i y_j = 0, and the graded sign: an x
    moved past k exterior factors picks up (-1)^k.  The Chern flags are x_j^2
    (p = 2) or y_j; a class is rejected when it lies in the span of the
    flags times the Bockstein kernel, a dense nullspace, and otherwise
    certified by the first strictly increasing index tuple, in lexicographic
    order, whose value is nonzero within the degree cap.
    """

    def __init__(self, p: int, n: int, cap: int = 40):
        self.p, self.n, self.cap = p, n, cap
        if p == 2:
            self.degrees, self.odd = (1,) * n, (False,) * n
            self.names = [f"x{j}" for j in range(1, n + 1)]
            self.flags = [self._unit(j, 2) for j in range(n)]
        else:
            self.degrees, self.odd = (2,) * n + (1,) * n, (False,) * n + (True,) * n
            self.names = [f"{v}{j}" for v in "yx" for j in range(1, n + 1)]
            self.flags = [self._unit(j, 1) for j in range(n)]
        # the largest index i <= 4 with 2p^i within the cap, at least 1
        self.max_index = max([1] + [i for i in range(2, 5) if 2 * p**i <= cap])
        self._kernels: dict = {}

    def _unit(self, slot: int, exponent: int) -> tuple:
        return tuple(exponent if k == slot else 0 for k in range(len(self.degrees)))

    def degree(self, terms: dict) -> int:
        (d,) = {sum(e * g for e, g in zip(m, self.degrees)) for m in terms}
        return d

    def monomials(self, d: int) -> list[tuple]:
        return oracle_monomials(self.degrees, self.odd, d)

    def vector(self, terms: dict, d: int) -> list[int]:
        return [terms.get(m, 0) % self.p for m in self.monomials(d)]

    def q(self, i: int, terms: dict) -> dict:
        """Q_i on a {exponent tuple: coefficient} map, term by term."""
        p, n = self.p, self.n
        out: dict = {}
        for m, c in terms.items():
            sign = 1
            for j in range(n):
                t = list(m)
                if p == 2:
                    if not m[j] % 2:
                        continue
                    t[j] += 2 ** (i + 1) - 1
                else:
                    if not m[n + j]:
                        continue
                    t[n + j], t[j] = 0, t[j] + p**i
                out[tuple(t)] = out.get(tuple(t), 0) + sign * c
                if p != 2:
                    sign = -sign  # the next x moves past this one
        return {m: c % p for m, c in out.items() if c % p}

    def candidates(self) -> list[tuple[str, dict]]:
        """(label, Q_0(x_S)) for every index set S of size at least 2,
        by size, then lexicographically."""
        out = []
        first_x = 0 if self.p == 2 else self.n
        for size in range(2, self.n + 1):
            for subset in itertools.combinations(range(1, self.n + 1), size):
                mono = [0] * len(self.degrees)
                for j in subset:
                    mono[first_x + j - 1] = 1
                label = "Q0(" + "*".join(f"x{j}" for j in subset) + ")"
                out.append((label, self.q(0, {tuple(mono): 1})))
        return out

    def kernel(self, d: int) -> list[dict]:
        """The Bockstein kernel in degree d: the nullspace of Q_0 on the
        degree's monomials."""
        if d not in self._kernels:
            monos = self.monomials(d)
            columns = [self.vector(self.q(0, {m: 1}), d + 1) for m in monos]
            self._kernels[d] = [
                {m: c for m, c in zip(monos, vec) if c}
                for vec in oracle_nullspace(columns, self.p)
            ]
        return self._kernels[d]

    def chern_span(self, d: int) -> list[dict]:
        """Each flag times each Bockstein-kernel class of degree d - 2; the
        flags are even and central, so a product adds exponents."""
        return [
            {tuple(a + b for a, b in zip(f, m)): c for m, c in k.items()}
            for f in self.flags
            for k in self.kernel(d - 2)
        ]

    def search(self, terms: dict) -> tuple[str, tuple | None, dict]:
        """(verdict, witness, value) of the witness search on a nonzero
        homogeneous class of degree at least 3."""
        d = self.degree(terms)
        need = 1 if d in (3, 4) else d - 3
        sequences = list(itertools.combinations(range(1, self.max_index + 1), need))
        if not sequences:
            return "inconclusive", None, {}
        span = [self.vector(s, d) for s in self.chern_span(d)]
        if oracle_in_span(self.vector(terms, d), span, self.p):
            return "rejected-chern", None, {}
        for seq in sequences:
            value = terms
            for i in seq:
                if value and self.degree(value) + 2 * self.p**i - 1 > self.cap:
                    break  # the package refuses to apply Q_i above its cap
                value = self.q(i, value)
            else:
                if value:
                    return "not-in-strong-coniveau", seq, value
        return "inconclusive", None, {}

    def render(self, terms: dict) -> str:
        """A homogeneous value as the certificates print it: terms in
        descending exponent order, c*name^e*..."""
        parts = []
        for m in sorted(terms, reverse=True):
            mono = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in zip(self.names, m) if e
            )
            c = terms[m]
            parts.append(mono if c == 1 else f"{c}*{mono}")
        return " + ".join(parts) if parts else "0"


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


def quadric_classes(n: int) -> dict:
    """The quadric ring of dimension 2^n - 1 as the `rost` report lists it,
    built whole on plain lists: "free" and "torsion" as [name, degree]
    pairs, torsion sorted by (degree, name); "algebraic", the sorted names
    of the cycle-map images; "flags", degree -> the sorted images of that
    degree.  Classes: h^j for j < 2^n, the pure powers rho4^i for
    i < 2^(n-1), the products h^j rho4^i for j < 2^(n-1), i < 2^(n-2).
    Images: every free class and product, and a pure power iff the
    parameter-n motive flags it, that is rho4^m with
    m = 2^(n-1) - 2^(k-1) for 1 <= k < n."""

    def h(j):
        return "1" if j == 0 else "h" if j == 1 else f"h^{j}"

    def rho(i):
        return "rho4" if i == 1 else f"rho4^{i}"

    free = [[h(j), 2 * j] for j in range(2**n)]
    pure = [(4 * i, rho(i)) for i in range(1, 2 ** (n - 1))]
    products = [
        (2 * j + 4 * i, f"{h(j)}*{rho(i)}")
        for j in range(1, 2 ** (n - 1))
        for i in range(1, 2 ** (n - 2))
    ]
    torsion = [[name, d] for d, name in sorted(pure + products)]
    motive_flags = {rho(2 ** (n - 1) - 2 ** (k - 1)) for k in range(1, n)}
    algebraic = {name for name, _ in free} | {name for _, name in products}
    algebraic |= {name for _, name in pure if name in motive_flags}
    flags: dict[int, list[str]] = {}
    for name, d in free + torsion:
        if name in algebraic:
            flags.setdefault(d, []).append(name)
    return {
        "free": free,
        "torsion": torsion,
        "algebraic": sorted(algebraic),
        "flags": {d: sorted(names) for d, names in flags.items()},
    }


def _is_sequence(x) -> bool:
    """A list, a tuple or a lazy sequence: anything sized and iterable that
    is no str or dict, so the package's ``Lazy`` needs no import."""
    if isinstance(x, (list, tuple)):
        return True
    return hasattr(x, "__len__") and hasattr(x, "__iter__") and not isinstance(x, (str, dict))


def _markdown_title(x: dict) -> str:
    for key in ("label", "name", "element"):
        if isinstance(x.get(key), str):
            return x[key]
    scenario = x.get("scenario")
    if isinstance(scenario, dict) and isinstance(scenario.get("name"), str):
        return scenario["name"]
    if isinstance(x.get("n"), int):
        return f"n={x['n']}"
    return "entry"


def oracle_markdown(body) -> str:
    """The markdown report of body, built whole as a list of lines.  A dict
    is a section of its values; a sequence of dicts is a table of their
    scalar fields, then a section per item of its nested fields; any other
    sequence is one line of its items joined; a scalar is a bullet."""
    lines: list[str] = []

    def nested(v) -> bool:
        return isinstance(v, dict) or _is_sequence(v)

    def emit(obj, title, depth):
        if isinstance(obj, dict):
            if title:
                lines.append("#" * min(depth, 6) + " " + title)
            for k, v in obj.items():
                emit(v, k, depth + 1)
        elif _is_sequence(obj):
            if title:
                lines.append("#" * min(depth, 6) + " " + title)
            if obj and all(isinstance(x, dict) for x in obj):
                keys = sorted({k for x in obj for k in x if not nested(x[k])})
                if keys:
                    lines.append("| " + " | ".join(keys) + " |")
                    lines.append("|" + "---|" * len(keys))
                    for x in obj:
                        lines.append("| " + " | ".join(str(x.get(k, "")) for k in keys) + " |")
                for x in obj:
                    parts = {k: v for k, v in x.items() if nested(v) and v}
                    if parts:
                        emit(parts, _markdown_title(x), depth + 1)
            else:
                lines.append(", ".join(str(x) for x in obj) if obj else "(empty)")
        else:
            lines.append(f"- **{title}**: {obj}")

    emit(body, "report", 1)
    return "\n".join(lines) + "\n"
