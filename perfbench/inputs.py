"""Seeded user presentation files with known Hilbert series.

Each file is a complete intersection: the relations are powers of the
even-degree generators after a seeded invertible linear change of
coordinates.  A linear change of coordinates is a graded automorphism, so
the powers stay a regular sequence and the quotient has Hilbert series
prod(1 - t^(a_i d)) / prod(1 - t^d) (times prod(1 + t) for exterior
generators), which the benchmark computes without the program.

The seed changes only the coordinates; the shapes are fixed, so every seed
gives the same amount of work.  The odd-prime files also carry the
elementary-abelian operation table (Q_i x_j = y_j^(p^i), Q_i y_j = 0) and
the class alpha = Q_0(x_1 x_2); every relation lies in degree above that of
Q_1(alpha) = y_1 y_2^p - y_1^p y_2, so ``verify --element alpha --I 1``
certifies on every seed.
"""

import random

import checks

# name, prime, even generators (count, degree), exponents, exterior?, cap
SHAPES = (
    ("ci_p3.pres", 3, 4, 2, (5, 5, 7, 8), True, 18),
    ("ci_p5.pres", 5, 4, 2, (7, 7, 8, 9), True, 20),
    ("ci_p2.pres", 2, 4, 2, (3, 5, 5, 7), False, 28),
)


def _invertible(rng, n, p):
    """A random invertible n x n matrix over F_p, entries nonzero where p > 2
    (so every moved generator involves every coordinate)."""
    low = 0 if p == 2 else 1
    while True:
        mat = [[rng.randrange(low, p) for _ in range(n)] for _ in range(n)]
        if _rank(mat, p) == n:
            return mat


def _rank(mat, p):
    rows = [r[:] for r in mat]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col] * inv
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _linear_form(row, names):
    return " + ".join(f"{c}*{n}" if c != 1 else n for c, n in zip(row, names) if c)


def user_file(shape, rng):
    """Text of one presentation file and the checks that go with it."""
    name, p, n, d, exps, exterior, cap = shape
    ys = [f"y{i}" for i in range(1, n + 1)]
    mat = _invertible(rng, n, p)
    lines = [f"# complete intersection, seeded coordinates", f"prime {p}", f"cap {cap}"]
    lines += [f"gen {y} {d}" for y in ys]
    if exterior:
        xs = [f"x{i}" for i in range(1, n + 1)]
        lines += [f"gen {x} 1 odd" for x in xs]
    for row, a in zip(mat, exps):
        lines.append(f"rel ({_linear_form(row, ys)})^{a}")
    if exterior:
        for i in (0, 1):
            for x, y in zip(xs, ys):
                lines.append(f"Q {i} {x} = {y}^{p ** i}")
                lines.append(f"Q {i} {y} = 0")
        lines.append("alias alpha = y1*x2 - x1*y2")
        lines += [f"chern c{k} = {y}" for k, y in enumerate(ys, start=1)]
    want = checks.series(
        cap,
        gen_degrees=[d] * n,
        rel_degrees=[a * d for a in exps],
        exterior_degrees=[1] * n if exterior else [],
    )
    return name, "\n".join(lines) + "\n", want


def user_files(seed):
    """[(shape, text, expected Hilbert series)] for one seed."""
    rng = random.Random(seed)
    return [(shape,) + user_file(shape, rng)[1:] for shape in SHAPES]
