"""Exact linear algebra over F_p: one sparse eliminator.

The only primitive is reduced row echelon form, whose pivot count is the
rank; vector reduction and nullspace extraction are thin wrappers around it.
Matrices are int64 numpy arrays with entries in [0, p).  They appear only at
this boundary: ``fp`` packs each degree's S-pair matrix of its Groebner
basis, a degree's reducer rows, or the span matrix of ``in_span`` and
``q0_kernel_basis`` into one for the call and keeps no array; its basis,
cached reducers and normal forms are dicts and tuples.

The rows reduced here are sparse: monomial multiples u * g of a few basis
elements, most of whose leading columns are distinct.  So ``rref`` works on
sparse rows, in the manner of Faugere & Lachartre (PASCO 2010): the
nonzeros of each row become a {column: value} dict, a forward pass
eliminates leftmost pivots, and a back-substitution from the rightmost pivot
leftwards brings the pivot rows to reduced form.  The arithmetic is on
Python ints, so no intermediate value can overflow; only the rank x n
result is written back to an int64 array.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    """The elimination path that runs; there is one."""
    return "sparse"


def as_matrix(rows, ncols: int) -> np.ndarray:
    """Stack coefficient rows (iterables of int) into an int64 matrix."""
    if not rows:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form (a new array) with zero rows trimmed."""
    mat = np.asarray(mat, dtype=np.int64)
    basis = _echelon(_sparse_rows(mat, p), p)
    pivots = sorted(basis)
    _back_substitute(basis, pivots, p)
    out = np.zeros((len(pivots), mat.shape[1]), dtype=np.int64)
    for k, c in enumerate(pivots):
        row = basis[c]
        out[k, list(row)] = list(row.values())
    return out, pivots


def _sparse_rows(mat: np.ndarray, p: int) -> list[dict[int, int]]:
    """The nonzero rows of ``mat`` as {column: value mod p} dicts."""
    rows, cols = np.nonzero(mat)
    vals = (mat[rows, cols] % p).tolist()
    cols = cols.tolist()
    starts = [0] + (np.flatnonzero(np.diff(rows)) + 1).tolist() + [len(cols)]
    out = []
    for a, b in zip(starts, starts[1:]):
        row = {c: v for c, v in zip(cols[a:b], vals[a:b]) if v}
        if row:
            out.append(row)
    return out


def _subtract(row: dict, factor: int, pivot_row: dict, p: int) -> None:
    """row -= factor * pivot_row, in place, dropping the entries that cancel."""
    get = row.get
    for c, v in pivot_row.items():
        x = (get(c, 0) - factor * v) % p
        if x:
            row[c] = x
        else:
            del row[c]


def _echelon(rows: list[dict], p: int) -> dict[int, dict]:
    """Leftmost-pivot elimination: {pivot column: monic row zero left of it}.

    Rows are taken in input order.  ``fp`` lists rows with distinct leading
    columns first (a reducer matrix has nothing else), so each of them
    becomes a pivot row untouched and the S-pair rows after them reduce
    against those.
    """
    basis: dict[int, dict] = {}
    for row in rows:
        lead = min(row)
        while lead in basis:
            _subtract(row, row[lead], basis[lead], p)
            if not row:
                break
            lead = min(row)
        else:
            inv = pow(row[lead], -1, p)
            if inv != 1:
                row = {c: (v * inv) % p for c, v in row.items()}
            basis[lead] = row
    return basis


def _back_substitute(basis: dict[int, dict], pivots: list[int], p: int) -> None:
    """Clear every pivot column above its pivot, from the right.

    When a row is reached, every pivot row to its right is already reduced, so
    subtracting one clears its column without touching another pivot column.
    """
    for lead in reversed(pivots):
        row = basis[lead]
        for c in [c for c in row if c != lead and c in basis]:
            _subtract(row, row[c], basis[c], p)


def reduce_vector(vec: np.ndarray, R: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Eliminate the pivot coordinates of ``vec`` against rref rows ``R``.

    The int64 product sum is at most rank * (p - 1)**2 per entry, which the
    prime bound in ``fp.check_prime`` keeps below 2**63.
    """
    if not pivots:
        return vec % p
    coeffs = vec[pivots]
    if not coeffs.any():
        return vec % p
    return (vec - coeffs @ R) % p


def nullspace(mat: np.ndarray, p: int) -> list[np.ndarray]:
    """Basis of the right nullspace, one vector per free column."""
    ncols = mat.shape[1]
    R, pivots = rref(mat, p)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = np.zeros(ncols, dtype=np.int64)
        v[free] = 1
        for k, c in enumerate(pivots):
            v[c] = (-int(R[k, free])) % p
        basis.append(v)
    return basis
