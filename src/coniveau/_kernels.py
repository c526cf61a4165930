"""Exact linear algebra over F_p: one sparse eliminator on dict rows.

Rows are {column: value} dicts with values in [1, p), and the one
elimination is ``echelon``: the reduced row echelon form of their span,
{pivot column: monic reduced row}, whose pivot count is the rank.  Vector
reduction and nullspace extraction read it off.  ``fp`` is the one module
that eliminates here: it keys its rows by a degree's columns (a reducer, a
span of ``span_echelon``) or by basis positions (a ``kernel``), and keeps
no array.  The one dense boundary is ``rref``, which takes and returns an
int64 numpy array for ``fp``'s S-pair matrices.  numpy is imported there
and in ``_sparse_rows``, not with the module, so a command that eliminates
no S-pair matrix never loads it.

The rows reduced here are sparse: monomial multiples u * g of a few basis
elements, most of whose leading columns are distinct.  So the elimination
follows Faugere & Lachartre (PASCO 2010): a forward pass eliminates
leftmost pivots, and a back-substitution from the rightmost pivot leftwards
brings the pivot rows to reduced form.  The arithmetic is on Python ints,
so no intermediate value can overflow.
"""

from __future__ import annotations


def backend_name() -> str:
    """The elimination path that runs; there is one."""
    return "sparse"


def echelon(rows: list[dict], p: int) -> dict[int, dict]:
    """Reduced row echelon form of the span of nonzero ``rows``, which it
    consumes: {pivot column: row}, each row 1 on its pivot and 0 on every
    other pivot column."""
    basis = _echelon(rows, p)
    _back_substitute(basis, sorted(basis), p)
    return basis


def rref(mat, p: int) -> tuple:
    """``echelon`` of a dense matrix: the reduced rows as a new int64 array
    with zero rows trimmed, and the pivot columns in ascending order."""
    import numpy as np

    mat = np.asarray(mat, dtype=np.int64)
    basis = echelon(_sparse_rows(mat, p), p)
    pivots = sorted(basis)
    rows = [basis[c] for c in pivots]
    out = np.zeros((len(pivots), mat.shape[1]), dtype=np.int64)
    out[
        [k for k, row in enumerate(rows) for _ in row],
        [c for row in rows for c in row],
    ] = [v for row in rows for v in row.values()]
    return out, pivots


def _sparse_rows(mat, p: int) -> list[dict[int, int]]:
    """The nonzero rows of the int64 array ``mat`` as {column: value mod p}
    dicts."""
    import numpy as np

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


def reduce_vector(vec: dict, basis: dict[int, dict], p: int) -> dict:
    """The remainder of ``vec`` against an ``echelon`` result: a new dict,
    ``vec`` minus a row-space vector, zero on every pivot column.  Each
    reduced row touches no other pivot, so one pass clears them all."""
    row = {c: v % p for c, v in vec.items() if v % p}
    for c in [c for c in row if c in basis]:
        _subtract(row, row[c], basis[c], p)
    return row


def nullspace(rows: list[dict], ncols: int, p: int) -> list[dict]:
    """Basis of the vectors x on columns 0..ncols-1 with sum(row[c] * x[c])
    = 0 for every row: one per free column, in ascending order, each a dict
    with its columns ascending."""
    basis = echelon(rows, p)
    pivots = sorted(basis)
    out = []
    for free in range(ncols):
        if free not in basis:
            # a pivot row is zero left of its pivot, so each pivot met here
            # lies left of the free column
            vec = {c: (-basis[c][free]) % p for c in pivots if free in basis[c]}
            vec[free] = 1
            out.append(vec)
    return out
