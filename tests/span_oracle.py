"""Test-side greedy row selection to check `modcoh.fplinalg` against.

`eager_rref_mod` is Gauss-Jordan that reduces the whole matrix after each
pivot, and `SequentialRowSpan` the plainest greedy scan on it: one
membership test per row and a full re-RREF after every add.

`select` is the greedy scan on a growing `fplinalg.FpSubspace` as free
resolutions ran it before they picked generators with
`fplinalg.greedy_generators`: plain rows through `independent_rows`, and
with `expand` one kept row at a time, updating the residuals of every row
not yet reached.

`contains_vector` is membership of one vector in an `FpSubspace`, through
the residual against its basis and kept pivots.
"""

import numpy as np

from modcoh.errors import DimensionMismatch
from modcoh.fplinalg import FpSubspace, independent_rows, residual_rows


def contains_vector(U: FpSubspace, v) -> bool:
    """Whether the vector v lies in U."""
    v = np.asarray(v, dtype=np.int64) % U.p
    if v.shape != (U.ambient_dim,):
        raise DimensionMismatch("vector has wrong length")
    return not residual_rows(v.reshape(1, -1), U.basis, U.p, U._pivots).any()


def eager_rref_mod(a, p):
    """Reference Gauss-Jordan that reduces the whole matrix after each pivot."""
    a = np.mod(a.astype(np.int64, copy=True), p)
    m, n = a.shape
    r = 0
    pivots = []
    for col in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        entry = int(a[r, col])
        if entry != 1:
            a[r] = (a[r] * pow(entry, p - 2, p)) % p
        others = np.nonzero(a[:, col])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, col], a[r])) % p
        pivots.append(col)
        r += 1
    return a, pivots


class SequentialRowSpan:
    """Reference span: per-row membership test, full re-RREF on every add."""

    def __init__(self, p, width):
        self.p = p
        self.basis = np.zeros((0, width), dtype=np.int64)
        self.pivots = []

    def contains(self, v):
        v = np.asarray(v, dtype=np.int64).reshape(1, -1) % self.p
        if not len(self.basis):
            return not v.any()
        coeffs = v[:, self.pivots]
        return not ((v - coeffs @ self.basis) % self.p).any()

    def add_rows(self, rows):
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.basis.shape[1])
        stacked = np.vstack([self.basis, rows % self.p])
        reduced, pivots = eager_rref_mod(stacked, self.p)
        self.basis = reduced[: len(pivots)]
        self.pivots = pivots

    def select(self, rows, expand=None):
        kept = []
        for i, row in enumerate(rows):
            if not self.contains(row):
                kept.append(i)
                self.add_rows(row.reshape(1, -1) if expand is None else expand(row))
        return kept


def select(span: FpSubspace, rows, expand=None) -> np.ndarray:
    """Greedy scan: indices of the rows outside the span when reached.

    Each kept row is folded into span before the next row is tested, as the
    row itself or as the rows `expand(row)` returns, so the result is that
    of a sequential test-then-add loop.  Without expand that is
    `independent_rows` on the basis.  With it, residuals of all rows are
    computed once and, after each kept row, reduced again by the rows the
    scan has added.  A row whose residual is zero lies in the span, stays
    there as the span grows, and is dropped.
    """
    p = span.p
    rows = np.asarray(rows, dtype=np.int64)
    if expand is None:
        kept = independent_rows(span.basis, rows, p)
        span.add_rows(rows[kept])
        return kept
    res = residual_rows(rows, span.basis, p, span._pivots)
    # What the scan adds, reduced against the basis, grows as its own
    # span and is added once at the end: each step then reduces only by
    # the rows added so far, not by the whole basis.
    fresh = FpSubspace(p, span.ambient_dim)
    live = res.any(axis=1)
    idx, res = live.nonzero()[0], res[live]
    kept = []
    while len(idx):
        i = int(idx[0])
        kept.append(i)
        fresh.add_rows(residual_rows(expand(rows[i]), span.basis, p, span._pivots))
        idx, res = idx[1:], res[1:]
        if len(idx):
            res = residual_rows(res, fresh.basis, p, fresh._pivots)
            live = res.any(axis=1)
            if not live.all():
                idx, res = idx[live], res[live]
    span.add_rows(fresh.basis)
    return np.asarray(kept, dtype=np.intp)
