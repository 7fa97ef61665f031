"""Exact dense linear algebra over the prime field F_p.

Everything downstream (modules, resolutions, cohomology maps) reduces to
rank / kernel / solve over F_p, so the contracts here are deliberately
rigid: reduced row echelon form is the *unique* RREF with pivots chosen
left-to-right, which makes every derived basis canonical and reproducible.

A bit-packed GF(2) elimination path kicks in for wide matrices; it is an
optimization only, the computed RREF is identical by uniqueness.

Pivots are computed once and kept: `_rref` returns the pivot columns with
the RREF, and `FpSubspace` and `RowSpan` store them beside their bases, so
membership tests (`residual_rows`) never search for them again.  A basis
that comes without its pivots gets them from `pivot_columns`, the one
place that reads pivots off an RREF.

The generic elimination reduces mod p lazily: only the pivot column and
the pivot row are reduced at each step, the rank-1 updates run unreduced,
and one final `% p` makes the result canonical.  An unreduced entry stays
below p + rank * (p - 1)^2 in absolute value, and a dot product of length L
below L * (p - 1)^2.  All arithmetic is int64, so the prime is capped at
`MAX_PRIME` = 2^21: then (p - 1)^2 < 2^42, which leaves room for 2^21 terms
before 2^63.  Larger primes raise `PrimeTooLarge` instead of wrapping.

Products of residue matrices (`_matmul_mod`) run in float64 BLAS with one
`fmod` at the end whenever the inner dimension k satisfies
k * (p - 1)^2 < 2^53 (Dumas-Giorgi-Pernet, FFLAS-FFPACK): every partial sum
is then an integer below 2^53, which float64 holds exactly, so the result
equals the int64 product mod p.  Above that bound they fall back to int64.

`RowSpan` grows incrementally.  New rows are reduced against the stored
RREF basis, only their nonzero residuals are eliminated, the new pivot
columns are cleared from the old rows with one product, and the rows are
merged by pivot.  The result has the union of the pivots, is reduced, and
spans the same space, so by uniqueness it is the RREF of all rows added so
far.  `RowSpan.select` runs a greedy membership scan on that basis.

`kernel_array` needs one elimination.  It row-reduces the matrix with its
columns reversed and builds the usual free-column kernel basis there: each
vector has a 1 at its free column and other entries only at pivot columns
to its left.  Reversing columns and rows again gives vectors whose first
nonzero entry is that 1, at a column where every other vector is zero,
sorted by that column: a reduced echelon basis of the kernel, hence the
canonical one.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, PrimeTooLarge

# Use the packed GF(2) path once rows are at least this wide.
_GF2_PACK_THRESHOLD = 192

# Largest admissible modulus; the module docstring gives the int64 bound.
MAX_PRIME = 2 ** 21

# float64 represents every integer below this exactly.
_FLOAT_EXACT = 2 ** 53


def check_prime_size(p: int) -> None:
    """Raise PrimeTooLarge when int64 arithmetic mod p could overflow."""
    if p > MAX_PRIME:
        raise PrimeTooLarge(
            f"p = {p} exceeds MAX_PRIME = {MAX_PRIME}; int64 products would overflow")


class FpSubspace:
    """Subspace of F_p^n held as a canonical RREF row basis."""

    __slots__ = ("p", "ambient_dim", "basis", "_pivots")

    def __init__(self, p: int, ambient_dim: int, basis_rows) -> None:
        self.p = int(p)
        self.ambient_dim = int(ambient_dim)
        rows = np.asarray(basis_rows, dtype=np.int64).reshape(-1, ambient_dim)
        reduced, pivots = _rref(rows % p, p)
        self.basis = reduced[: len(pivots)]
        self._pivots = np.asarray(pivots, dtype=np.intp)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def contains_vector(self, v) -> bool:
        v = np.asarray(v, dtype=np.int64) % self.p
        if v.shape != (self.ambient_dim,):
            raise DimensionMismatch("vector has wrong length")
        return not residual_rows(v.reshape(1, -1), self.basis, self.p,
                                 self._pivots).any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpSubspace):
            return NotImplemented
        return self.p == other.p and self.ambient_dim == other.ambient_dim \
            and bool(np.array_equal(self.basis, other.basis))

    def __hash__(self):
        raise TypeError("FpSubspace is not hashable")

    def __repr__(self) -> str:
        return f"FpSubspace(p={self.p}, ambient={self.ambient_dim}, dim={self.dim})"


# -- array-level kernels ----------------------------------------------------

def _rref_mod(a: np.ndarray, p: int):
    """Generic modular Gauss-Jordan; returns (rref, pivot column list).

    Reduction mod p is lazy.  Each step reduces the column it searches and
    the pivot row, so pivot choices and multipliers are those of an eager
    elimination; the rank-1 update then runs without `% p`, and a single
    `% p` at the end yields the same canonical RREF.  Every update
    subtracts c * x with residues 0 <= c, x < p, and a row is reduced again
    when it becomes a pivot row, so after `rank` steps any entry lies in
    [-rank * (p - 1)^2, p).  With p <= MAX_PRIME = 2^21 that is below
    2^21 * 2^42 = 2^63 whenever rank < 2^21, so int64 never wraps.
    """
    a = np.mod(a.astype(np.int64, copy=True), p)
    m, n = a.shape
    r = 0
    pivots: list[int] = []
    # row operations keep a zero column zero: search only the others
    for col in a.any(axis=0).nonzero()[0].tolist():
        if r == m:
            break
        nz = (a[r:, col] % p).nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        row = a[r, col:] % p
        entry = int(row[0])
        if entry != 1:
            row = (row * pow(entry, p - 2, p)) % p
        a[r, :col] = 0  # columns left of a pivot are zero mod p in its row
        a[r, col:] = row
        factors = a[:, col] % p
        factors[r] = 0
        others = factors.nonzero()[0]
        if others.size:
            a[others, col:] -= np.outer(factors[others], row)
        pivots.append(col)
        r += 1
    return np.mod(a, p, out=a), pivots


def _pack_gf2(a: np.ndarray) -> np.ndarray:
    return np.packbits(a.astype(np.uint8), axis=1, bitorder="little")


def _unpack_gf2(packed: np.ndarray, ncols: int) -> np.ndarray:
    out = np.unpackbits(packed, axis=1, bitorder="little", count=ncols)
    return out.astype(np.int64)


def _rref_gf2(a: np.ndarray, p: int):
    """Bit-packed Gauss-Jordan over GF(2); same result as _rref_mod."""
    m, n = a.shape
    packed = _pack_gf2(np.mod(a, 2))
    # row operations keep a zero column zero: search only the others
    live = _unpack_gf2(np.bitwise_or.reduce(packed, axis=0)[None], n)[0]
    r = 0
    pivots: list[int] = []
    for col in live.nonzero()[0].tolist():
        if r == m:
            break
        word, bit = col >> 3, np.uint8(1 << (col & 7))
        hits = np.nonzero(packed[r:, word] & bit)[0]
        if hits.size == 0:
            continue
        piv = r + int(hits[0])
        if piv != r:
            packed[[r, piv]] = packed[[piv, r]]
        mask = (packed[:, word] & bit).astype(bool)
        mask[r] = False
        if mask.any():
            packed[mask] ^= packed[r]
        pivots.append(col)
        r += 1
    return _unpack_gf2(packed, n), pivots


def _rref(a: np.ndarray, p: int):
    check_prime_size(p)
    if p == 2 and a.shape[1] >= _GF2_PACK_THRESHOLD and a.shape[0] > 0:
        return _rref_gf2(a, p)
    return _rref_mod(a, p)


def rref_array(a, p: int):
    """RREF of a raw array; returns (rref array, rank)."""
    a = np.asarray(a, dtype=np.int64)
    reduced, pivots = _rref(a % p, p)
    return reduced, len(pivots)


def kernel_array(a, p: int) -> np.ndarray:
    """Canonical RREF basis (rows) of the right kernel {v : a @ v = 0}.

    One elimination of the column-reversed matrix; the module docstring
    explains why the reversed free-column basis is already canonical.
    """
    a = np.asarray(a, dtype=np.int64)
    m, n = a.shape
    reduced, pivots = _rref(a[:, ::-1] % p, p)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free_cols = is_free.nonzero()[0]
    if not free_cols.size:
        return np.zeros((0, n), dtype=np.int64)
    basis = np.zeros((free_cols.size, n), dtype=np.int64)
    basis[np.arange(free_cols.size), free_cols] = 1
    basis[:, pivots] = (-reduced[: len(pivots)][:, free_cols].T) % p
    return basis[::-1, ::-1].copy()


def solve_array(a, b, p: int):
    """One solution of a @ x = b (free variables zero), or None."""
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    if b.ndim != 1 or b.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"rhs length {b.shape} does not match {a.shape[0]} rows")
    aug = np.hstack([a, b.reshape(-1, 1)])
    reduced, pivots = _rref(aug, p)
    n = a.shape[1]
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for row_idx, pc in enumerate(pivots):
        x[pc] = reduced[row_idx, n]
    return x


def solve_batch(a, rhs_cols, p: int):
    """Solve a @ X = rhs for many right-hand sides at once.

    rhs_cols has one rhs per column.  Returns X, or None if any column is
    inconsistent.  Same free-variables-zero rule as solve_array.
    """
    a = np.asarray(a, dtype=np.int64) % p
    rhs = np.asarray(rhs_cols, dtype=np.int64) % p
    if rhs.shape[0] != a.shape[0]:
        raise DimensionMismatch("rhs row count does not match matrix")
    n = a.shape[1]
    aug = np.hstack([a, rhs])
    reduced, pivots = _rref(aug, p)
    rank_a = sum(1 for c in pivots if c < n)
    if rank_a != len(pivots):
        return None
    x = np.zeros((n, rhs.shape[1]), dtype=np.int64)
    for row_idx, pc in enumerate(pivots):
        x[pc] = reduced[row_idx, n:]
    return x


def pivot_columns(rref_basis: np.ndarray) -> np.ndarray:
    """Pivot column of each row of an RREF basis (rows must be nonzero)."""
    return np.argmax(rref_basis != 0, axis=1)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p for residue matrices, entries in [0, p).

    float64 BLAS when the inner dimension k keeps k * (p - 1)^2 below 2^53,
    so the product is exact; int64 otherwise.
    """
    if a.shape[1] * (p - 1) ** 2 < _FLOAT_EXACT:
        prod = a.astype(np.float64) @ b.astype(np.float64)
        return np.fmod(prod, p, out=prod).astype(np.int64)
    return (a @ b) % p


def residual_rows(rows, rref_basis, p: int, pivots=None) -> np.ndarray:
    """Reduce rows against an RREF basis.

    Valid only when rref_basis is in reduced echelon form: the coordinates
    of any member of the row span are exactly its entries at the pivot
    columns, so one matrix product does the reduction.  Pass the basis's
    pivot columns when they are known; otherwise they are read off it.
    """
    rows = np.asarray(rows, dtype=np.int64) % p
    if rref_basis.shape[0] == 0:
        return rows
    if pivots is None:
        pivots = pivot_columns(rref_basis)
    rows -= _matmul_mod(rows[:, pivots], rref_basis, p)
    return np.mod(rows, p, out=rows)


class RowSpan:
    """Incrementally grown row space for greedy generator selection.

    The basis is the RREF of every row added so far, kept with its pivots;
    the module docstring gives the incremental update.
    """

    def __init__(self, p: int, ambient_dim: int) -> None:
        self.p = p
        self.ambient_dim = ambient_dim
        self._basis = np.zeros((0, ambient_dim), dtype=np.int64)
        self._pivots = np.zeros(0, dtype=np.intp)

    @property
    def rank(self) -> int:
        return self._basis.shape[0]

    def add_rows(self, rows) -> None:
        rows = np.asarray(rows, dtype=np.int64).reshape(-1, self.ambient_dim)
        self._absorb(residual_rows(rows, self._basis, self.p, self._pivots))

    def _absorb(self, residuals: np.ndarray):
        """Fold in rows already reduced against the basis.

        Returns the new basis rows (RREF, zero at the old pivots) and their
        pivot columns; both are empty when the span did not grow.
        """
        residuals = residuals[residuals.any(axis=1)]
        if not len(residuals):
            return residuals, np.zeros(0, dtype=np.intp)
        reduced, pivots = _rref(residuals, self.p)
        new = reduced[: len(pivots)]
        new_pivots = np.asarray(pivots, dtype=np.intp)
        self._merge(new, new_pivots)
        return new, new_pivots

    def _merge(self, new: np.ndarray, new_pivots: np.ndarray) -> None:
        """Join RREF rows that are zero at the basis pivots."""
        old = self._basis
        if len(old) and len(new):
            old -= _matmul_mod(old[:, new_pivots], new, self.p)
            np.mod(old, self.p, out=old)
        pivots_all = np.concatenate([self._pivots, new_pivots])
        order = np.argsort(pivots_all, kind="stable")
        self._basis = np.vstack([old, new])[order]
        self._pivots = pivots_all[order]

    def select(self, rows, expand=None) -> np.ndarray:
        """Greedy scan: indices of the rows outside the span when reached.

        Each kept row is folded in before the next row is tested, as the row
        itself or as the rows `expand(row)` returns, so the result is that
        of a sequential test-then-add loop.  Residuals of all rows are
        computed once and, after each kept row, updated by the new basis
        rows only.  A row whose residual is zero lies in the span, stays
        there as the span grows, and is dropped.
        """
        p = self.p
        rows = np.asarray(rows, dtype=np.int64)
        res = residual_rows(rows, self._basis, p, self._pivots)
        # What the scan adds, reduced against the basis, grows as its own
        # span and is merged once at the end: each step then updates only
        # the rows added so far, not the whole basis.
        fresh = RowSpan(p, self.ambient_dim)
        live = res.any(axis=1)
        idx, res = live.nonzero()[0], res[live]
        kept = []
        while len(idx):
            i = int(idx[0])
            kept.append(i)
            if expand is None:
                new, new_pivots = fresh._absorb(res[:1])
            else:
                added = residual_rows(expand(rows[i]), self._basis, p, self._pivots)
                new, new_pivots = fresh._absorb(
                    residual_rows(added, fresh._basis, p, fresh._pivots))
            idx, res = idx[1:], res[1:]
            if len(new_pivots) and len(idx):
                res -= _matmul_mod(res[:, new_pivots], new, p)
                np.mod(res, p, out=res)
                live = res.any(axis=1)
                if not live.all():
                    idx, res = idx[live], res[live]
        self._merge(fresh._basis, fresh._pivots)
        return np.asarray(kept, dtype=np.intp)

    def basis(self) -> np.ndarray:
        return self._basis.copy()
