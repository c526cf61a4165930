"""Replay captured Macaulay matrices through the package's kernel in isolation.

    python3 perfbench/replay.py CAPTURE_DIR

Each distinct matrix that reached ``_kernels.rref`` in the traced run is
reduced once more, alone and untraced, and timed.  Every result is then
checked against the benchmark's own eliminator: same rank, and the kernel's
rows lie in the span of the input rows, so the row spaces agree.  Prints one
JSON object.
"""

import glob
import json
import os
import sys
import time

import numpy as np

from coniveau import _kernels, backend_name


def naive_echelon(rows, p):
    """Sparse row echelon form by leftmost pivots: {pivot column: row dict}."""
    basis = {}
    for row in rows:
        reduce_into(row, basis, p)
        if row:
            col = min(row)
            inv = pow(row[col], p - 2, p)
            basis[col] = {c: (v * inv) % p for c, v in row.items()}
    return basis


def reduce_into(row, basis, p):
    """Reduce the dict ``row`` in place against a pivot basis."""
    while row:
        hits = [c for c in row if c in basis]
        if not hits:
            return
        col = min(hits)
        factor = row[col]
        for c, v in basis[col].items():
            value = (row.get(c, 0) - factor * v) % p
            if value:
                row[c] = value
            else:
                row.pop(c, None)


def sparse_rows(mat):
    return [{int(c): int(mat[r, c]) for c in np.nonzero(mat[r])[0]} for r in range(mat.shape[0])]


def check(mat, p, reduced, pivots):
    problems = []
    basis = naive_echelon(sparse_rows(mat), p)
    if len(basis) != len(pivots):
        problems.append(f"rank {len(pivots)} != {len(basis)}")
    for k, row in enumerate(sparse_rows(reduced)):
        reduce_into(row, basis, p)
        if row:
            problems.append(f"row {k} outside the input row space")
            break
    if pivots and not all(reduced[k, c] == 1 and np.count_nonzero(reduced[:, c]) == 1 for k, c in enumerate(pivots)):
        problems.append("result is not in reduced echelon form")
    return problems


def main(capture_dir):
    total = 0.0
    largest = (0, 0.0, None)
    problems = []
    files = sorted(glob.glob(os.path.join(capture_dir, "*.npz")))
    for path in files:
        with np.load(path) as z:
            shape, p = tuple(int(x) for x in z["shape"]), int(z["p"])
            mat = np.zeros(shape, dtype=np.int64)
            mat[z["rows"], z["cols"]] = z["vals"]
        start = time.perf_counter()
        reduced, pivots = _kernels.rref(mat, p)
        elapsed = time.perf_counter() - start
        total += elapsed
        if mat.size > largest[0]:
            largest = (mat.size, elapsed, shape)
        problems += [f"{os.path.basename(path)} {shape}: {msg}" for msg in check(mat, p, reduced, pivots)]
    print(json.dumps({
        "backend": backend_name(),
        "matrices": len(files),
        "replay_s": total,
        "replay_largest_s": largest[1],
        "largest_shape": largest[2],
        "problems": problems,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
