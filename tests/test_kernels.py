"""The row-reduction kernel against an independent oracle, and its contract:
``echelon``, ``reduce_vector`` and ``nullspace`` on {column: value} dict
rows, ``rref`` on int64 arrays."""

import numpy as np
import pytest

from coniveau import _kernels
from coniveau.fp import MAX_PRIME

from helpers import oracle_rank, oracle_rref


def random_matrix(rng, m, n, p):
    return rng.integers(0, p, size=(m, n)).astype(np.int64)


def dict_rows(mat):
    """The rows of a dense matrix as {column: value} dicts, zero rows dropped."""
    rows = [{c: int(v) for c, v in enumerate(row) if v} for row in mat]
    return [row for row in rows if row]


def dense(row, n):
    return [row.get(c, 0) for c in range(n)]


def random_sparse_rows(rng, m, n, p):
    """Seeded sparse dict rows: up to three entries each, then sums of pairs
    of them, so the span has fewer dimensions than there are rows."""
    base = np.zeros((m, n), dtype=np.int64)
    for r in range(m):
        cols = rng.choice(n, size=min(n, 3), replace=False)
        base[r, cols] = rng.integers(1, p, size=len(cols))
    pairs = rng.integers(0, m, size=(m // 2, 2))
    mixed = (base[pairs[:, 0]] + rng.integers(1, p) * base[pairs[:, 1]]) % p
    return dict_rows(np.vstack([base, mixed]))


def assert_matches_oracle(mat, p):
    R, pivots = _kernels.rref(mat, p)
    want_rows, want_pivots = oracle_rref(mat.tolist(), p)
    assert pivots == want_pivots
    assert R.dtype == np.int64
    assert R.shape == (len(want_pivots), mat.shape[1])
    assert R.tolist() == want_rows


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_matches_oracle_dense(p):
    rng = np.random.default_rng(17 * p)
    for _ in range(20):
        m, n = rng.integers(1, 30, size=2)
        assert_matches_oracle(random_matrix(rng, m, n, p), p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_matches_oracle_macaulay_shaped(p):
    # about 1% nonzeros, with more rows than rank: sparse rows plus sums of
    # pairs of them, as the multiples of a few relations overlap
    rng = np.random.default_rng(31 * p)
    m, n = 120, 300
    base = np.zeros((m, n), dtype=np.int64)
    for r in range(m):
        cols = rng.choice(n, size=3, replace=False)
        base[r, cols] = rng.integers(1, p, size=3)
    pairs = rng.integers(0, m, size=(60, 2))
    mixed = (base[pairs[:, 0]] + rng.integers(1, p) * base[pairs[:, 1]]) % p
    mat = np.vstack([base, mixed])
    assert np.count_nonzero(mat) < 0.015 * mat.size
    assert_matches_oracle(mat, p)
    assert len(_kernels.rref(mat, p)[1]) < mat.shape[0]


def test_rref_zero_duplicate_and_empty_rows():
    mat = np.array(
        [[0, 0, 0, 0], [0, 2, 1, 0], [0, 0, 0, 0], [0, 2, 1, 0], [1, 0, 0, 2], [0, 4, 2, 0]],
        dtype=np.int64,
    )
    assert_matches_oracle(mat, 5)
    assert _kernels.rref(mat, 5)[1] == [0, 1]
    for shape in ((0, 4), (3, 0), (0, 0), (4, 3)):
        R, pivots = _kernels.rref(np.zeros(shape, dtype=np.int64), 3)
        assert pivots == [] and R.shape == (0, shape[1])


@pytest.mark.parametrize("p", [2, 3, 5, MAX_PRIME])
def test_echelon_matches_oracle(p):
    rng = np.random.default_rng(p)
    for _ in range(12):
        m, n = (int(x) for x in rng.integers(1, 40, size=2))
        rows = random_sparse_rows(rng, m, n, p)
        want_rows, want_pivots = oracle_rref([dense(r, n) for r in rows], p)
        basis = _kernels.echelon([dict(r) for r in rows], p)
        pivots = sorted(basis)
        assert pivots == want_pivots
        assert [dense(basis[c], n) for c in pivots] == want_rows
        # no stored zeros, every value reduced
        assert all(0 < v < p for row in basis.values() for v in row.values())


def test_rref_at_the_largest_prime():
    rng = np.random.default_rng(11)
    for _ in range(5):
        m, n = rng.integers(2, 20, size=2)
        mat = random_matrix(rng, m, n, MAX_PRIME)
        assert_matches_oracle(mat, MAX_PRIME)
        basis = _kernels.echelon(dict_rows(mat), MAX_PRIME)
        v = {c: int(x) for c, x in enumerate(random_matrix(rng, 1, n, MAX_PRIME)[0]) if x}
        red = _kernels.reduce_vector(v, basis, MAX_PRIME)
        # the remainder is v minus a row-space vector, zero on the pivots
        assert not red.keys() & basis.keys()
        assert all(0 < x < MAX_PRIME for x in red.values())
        want = oracle_rref(mat.tolist() + [dense(v, n)], MAX_PRIME)
        got = oracle_rref(mat.tolist() + [dense(red, n)], MAX_PRIME)
        assert want == got


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_matches_oracle(p):
    rng = np.random.default_rng(5 * p)
    for _ in range(15):
        m, n = rng.integers(1, 18, size=2)
        mat = random_matrix(rng, m, n, p)
        assert len(_kernels.rref(mat, p)[1]) == oracle_rank(mat.tolist(), p)


def test_rref_shape_and_pivots():
    mat = np.array([[1, 2, 0], [2, 1, 1], [0, 0, 1]], dtype=np.int64)
    R, piv = _kernels.rref(mat, 3)
    assert piv == [0, 2]
    assert R.shape == (2, 3)
    for k, c in enumerate(piv):
        assert R[k, c] == 1


def test_reduce_vector_clears_pivots():
    rng = np.random.default_rng(3)
    mat = random_matrix(rng, 8, 12, 5)
    basis = _kernels.echelon(dict_rows(mat), 5)
    v = random_matrix(rng, 1, 12, 5)[0]
    vec = {c: int(x) for c, x in enumerate(v) if x}
    red = _kernels.reduce_vector(vec, basis, 5)
    assert vec == {c: int(x) for c, x in enumerate(v) if x}  # the input is kept
    assert not red.keys() & basis.keys()
    # reduction only subtracts row-space vectors
    with_v = _kernels.rref(np.vstack([mat, v]), 5)[1]
    with_red = _kernels.rref(np.vstack([mat, dense(red, 12)]), 5)[1]
    assert len(with_v) == len(with_red)


def test_nullspace():
    # kernel of x -> mat @ x over F_2 is spanned by (1,1,0)
    mat = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
    null = _kernels.nullspace(dict_rows(mat), 3, 2)
    assert null == [{0: 1, 1: 1}]
    for v in null:
        assert not ((mat @ dense(v, 3)) % 2).any()


@pytest.mark.parametrize("p", [2, 3, 5, MAX_PRIME])
def test_nullspace_matches_oracle(p):
    rng = np.random.default_rng(p + 1)
    for _ in range(8):
        m, n = (int(x) for x in rng.integers(1, 25, size=2))
        rows = random_sparse_rows(rng, m, n, p)
        null = _kernels.nullspace([dict(r) for r in rows], n, p)
        dense_rows = [dense(r, n) for r in rows]
        assert len(null) == n - oracle_rank(dense_rows, p)
        assert oracle_rank([dense(v, n) for v in null], p) == len(null)
        for v in null:
            assert list(v) == sorted(v)
            assert all(sum(a * b for a, b in zip(r, dense(v, n))) % p == 0 for r in dense_rows)


def test_empty_matrix():
    mat = np.zeros((0, 4), dtype=np.int64)
    R, piv = _kernels.rref(mat, 3)
    assert piv == [] and R.shape[0] == 0
    assert _kernels.echelon([], 3) == {}
    assert _kernels.nullspace([], 4, 3) == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]


def test_backend_name():
    assert _kernels.backend_name() == "sparse"
