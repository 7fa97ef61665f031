"""Exact dense linear algebra over the prime field F_p.

Everything downstream (modules, resolutions, cohomology maps) reduces to
rank / kernel / solve over F_p, so the contracts here are deliberately
rigid: reduced row echelon form is the *unique* RREF with pivots chosen
left-to-right, which makes every derived basis canonical and reproducible.

Over GF(2), at every shape, each row is one Python int and a row operation
is one XOR.  Rows are packed one way (`_pack`, `_unpack`): little-endian,
bit j of a row's int is column j.  A forward pass (`_forward_gf2`) takes
each row's highest bit as its lead, so on rows packed as they are it
eliminates the columns from the right.  The eliminations that go from the
left, `_rref_gf2`, `rref_pivots` and `pivot_inverse`, pack the
column-reversed view instead; the kernel and greedy selection, which want
the elimination from the right, pack rows as they are.  By uniqueness the
RREF is the generic one.  Where only pivots are asked for, only the
forward pass runs: any echelon form of a row space has the RREF's leading
columns, so its leads are the pivot columns, and a row that reduces to
zero is a sum of the rows before it.  Pivots are the column rank profile,
which is the row rank profile of the transpose (Dumas, Pernet and Sultan,
"Computing the rank profile matrix", ISSAC 2015), so `rref_pivots` scans
a's rows when they are no more than its columns, and its columns as rows
otherwise.  Which columns are kept does not depend on their bit order,
but the work does: they are packed row-reversed, a's first row the
highest bit, with which the forward passes of Z2^3's minimal resolution
through degree 10 take a third fewer reduction steps than with the
reverse.  Callers that need only a rank count `rref_pivots`.

Pivots are computed once and kept: `_rref` returns the pivot columns with
the RREF, and `FpSubspace` stores them beside its basis, so membership
tests (`residual_rows`) never search for them again.  A basis that comes
without its pivots gets them from `pivot_columns`, the one place that
reads pivots off an RREF.

The generic elimination, which serves every odd p, reduces mod p lazily:
only the pivot column and the pivot row are reduced at each step, the
rank-1 updates run unreduced, and one final `% p` makes the result
canonical.  An unreduced entry stays below p + rank * (p - 1)^2 in absolute
value, and a dot product of length L below L * (p - 1)^2.  All arithmetic
is int64, so the prime is capped at `MAX_PRIME` = 2^21: then
(p - 1)^2 < 2^42, which leaves room for 2^21 terms before 2^63.  Larger
primes raise `PrimeTooLarge` instead of wrapping.

Products of residue matrices (`_matmul_mod`) run in floating-point BLAS
with one `fmod` at the end (Dumas-Giorgi-Pernet, FFLAS-FFPACK): with inner
dimension k every partial sum is an integer below k * (p - 1)^2, so float32
is exact when that is below 2^24 and float64 when it is below 2^53, and the
result equals the int64 product mod p.  Above 2^53 they fall back to
int64.  `_product_dtype` picks the tier, and an input already in it is not
copied, so a caller that multiplies one operand by many converts it once.

A matrix a of full row rank m is factored once for every system a x = b
to come (`pivot_inverse`): the RREF of [a | I_m] is [R | E] with E the
inverse of a[:, c] on a's pivot columns c, so each solve is one product,
x[c] = E b with the free variables zero, as an elimination of [a | b]
would give it.  Free resolutions keep this factor per stage for their
chain-map lifts.

Greedy selection (keep each row that lies outside the span of a given
span and of the rows kept before it) takes the pivots of the span rows
and the candidate rows, stacked in that order and transposed
(`independent_rows`).  Row operations keep every linear relation among
columns, so column j of the RREF is a pivot exactly when column j of the
transpose, the j-th stacked row, is not a combination of the rows above
it.  Its pivots past the span rows are therefore the rows a test-then-add
scan keeps, with no membership test per row.  Stage zero of a minimal
resolution and cohomology bases select this way.  Later minimal stages, in
their kernel's coordinates, read the last-coordinate pivots of the
radical with `rref_pivots` instead (`resolutions`).

`FpSubspace` is one subspace held as its RREF basis and pivots, and it
grows by `add_rows`: new rows are reduced against the basis, only their
nonzero residuals are eliminated, the new pivot columns are cleared from
the old rows with one product, and the rows are merged by pivot.  The
result has the union of the pivots, is reduced, and spans the same space,
so by uniqueness it is the RREF of all rows added so far.

Greedy generators of a submodule (`greedy_generators`), where a kept e_j
adds all its translates to the span, need no residuals of the rows still
to be scanned.  When e_j is reached, every earlier e_i lies in the span S:
a kept one is among its own translates, and a dropped one lay in S when it
was reached.  So e_j lies in S exactly when some vector of S has its last
nonzero coordinate at j, and one forward scan decides it from the
echelon of S by last coordinates.  Over GF(2) that echelon is a table of
bit rows indexed by bit length; a translate is reduced from its highest
bit and dropped once its lead is at j or below, where S already holds
every vector.  At odd p it is an `FpSubspace` of the rows with their
columns reversed.

`kernel` is the one kernel entry and needs one elimination.  It
row-reduces the matrix with its columns reversed (over GF(2), the forward
pass on rows packed as they are) and builds the usual free-column kernel
basis there: each vector has a 1 at its free column and other entries
only at pivot columns to its left.  Reversing columns and rows again gives
vectors whose first nonzero entry is that 1, at a column where every other
vector is zero, sorted by that column: a reduced echelon basis of the
kernel, hence the canonical one.  Its pivots are the free columns, the
complement of the image columns the same elimination finds, so none are
searched for.  Over GF(2) the kernel comes back as uint8 rows (its
transpose contiguous), which free resolutions keep and gather from as they
are, and selection and `rref_pivots` read uint8 input mod 2 as it is;
callers that need int64 cast.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation, PrimeTooLarge

# Largest admissible modulus; the module docstring gives the int64 bound.
MAX_PRIME = 2 ** 21

# float64 represents every integer below this exactly.
_FLOAT_EXACT = 2 ** 53


def check_prime_size(p: int) -> None:
    """Raise PrimeTooLarge when int64 arithmetic mod p could overflow."""
    if p > MAX_PRIME:
        raise PrimeTooLarge(
            f"p = {p} exceeds MAX_PRIME = {MAX_PRIME}; int64 products would overflow")


def _as_rows(rows, width: int) -> np.ndarray:
    """rows as an int64 array of shape (m, width).

    Zero-width rows are all the zero vector and span nothing, so they give
    the (0, 0) array; reshape(-1, 0) cannot infer their count.
    """
    rows = np.asarray(rows, dtype=np.int64)
    return rows.reshape(-1, width) if width else rows.reshape(0, 0)


class FpSubspace:
    """Subspace of F_p^n held as a canonical RREF row basis and its pivots.

    It starts as the span of basis_rows and grows by `add_rows` (module
    docstring).
    """

    __slots__ = ("p", "ambient_dim", "basis", "_pivots")

    def __init__(self, p: int, ambient_dim: int, basis_rows=()) -> None:
        self.p = int(p)
        self.ambient_dim = int(ambient_dim)
        reduced, pivots = _rref(_as_rows(basis_rows, ambient_dim) % p, p)
        self.basis = reduced[: len(pivots)]
        self._pivots = np.asarray(pivots, dtype=np.intp)

    @classmethod
    def from_rref(cls, p: int, basis, pivots) -> "FpSubspace":
        """The span of basis, given already as a canonical RREF with its
        pivots (as `kernel` returns them): nothing is eliminated again."""
        space = cls.__new__(cls)
        space.p = int(p)
        space.basis = np.ascontiguousarray(basis, dtype=np.int64)
        space.ambient_dim = space.basis.shape[1]
        space._pivots = np.asarray(pivots, dtype=np.intp)
        return space

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def add_rows(self, rows) -> None:
        """Grow the span by rows; the basis stays the RREF of every row added."""
        p = self.p
        residuals = residual_rows(_as_rows(rows, self.ambient_dim), self.basis, p,
                                  self._pivots)
        residuals = residuals[residuals.any(axis=1)]
        if not len(residuals):
            return
        reduced, pivots = _rref(residuals, p)
        new, new_pivots = reduced[: len(pivots)], np.asarray(pivots, dtype=np.intp)
        old = self.basis
        if len(old):  # a new array, so no basis handed out earlier changes
            old = old - _matmul_mod(old[:, new_pivots], new, p)
            np.mod(old, p, out=old)
        pivots_all = np.concatenate([self._pivots, new_pivots])
        order = np.argsort(pivots_all, kind="stable")
        self.basis = np.vstack([old, new])[order]
        self._pivots = pivots_all[order]

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
    """Generic modular Gauss-Jordan (`_rref` calls it for odd p); returns (rref, pivots).

    Reduction mod p is lazy.  Each step reduces the column it searches and
    the pivot row, so pivot choices and multipliers are those of an eager
    elimination; the rank-1 update then runs without `% p`, and a single
    `% p` at the end yields the same canonical RREF.  Every update
    subtracts c * x with residues 0 <= c, x < p, and a row is reduced again
    when it becomes a pivot row, so after `rank` steps any entry lies in
    [-rank * (p - 1)^2, p).  With p <= MAX_PRIME = 2^21 that is below
    2^21 * 2^42 = 2^63 whenever rank < 2^21, so int64 never wraps.
    """
    a = a.astype(np.int64, order="C")  # a copy, in row order for row operations
    np.mod(a, p, out=a)
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


def _pack(a: np.ndarray) -> list[int]:
    """The rows of a mod 2 as Python ints: entry j of a row is bit j.

    a may have any integer dtype and any layout: it is read once, into
    one contiguous uint8 array of its parities (the unsafe cast to uint8
    keeps each entry's parity).
    """
    width = -(-a.shape[1] // 8)
    bits = np.bitwise_and(a, 1, dtype=np.uint8, casting="unsafe")
    buf = np.packbits(bits, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(buf[i * width:(i + 1) * width], "little")
            for i in range(len(a))]


def _unpack(rows: list[int], n: int) -> np.ndarray:
    """The uint8 matrix of bit rows of width n: the inverse of `_pack`."""
    width = -(-n // 8)
    buf = b"".join(row.to_bytes(width, "little") for row in rows)
    return np.unpackbits(np.frombuffer(buf, dtype=np.uint8).reshape(len(rows), width),
                         axis=1, count=n, bitorder="little")


def _forward_gf2(rows: list[int], n: int):
    """Forward GF(2) elimination of bit rows of width n: no back-substitution.

    Returns (echelon, kept, leads).  echelon[k] is the reduced row with bit
    length k, if any; kept are the indices of the rows that are not sums of
    rows before them, and leads their bit lengths, in scan order.
    """
    echelon = [0] * (n + 1)
    kept: list[int] = []
    leads: list[int] = []
    for i, row in enumerate(rows):
        while row:
            lead = row.bit_length()
            other = echelon[lead]
            if not other:
                echelon[lead] = row
                kept.append(i)
                leads.append(lead)
                if len(leads) == n:  # full rank: every later row is a sum
                    return echelon, kept, leads
                break
            row ^= other
    return echelon, kept, leads


def _back_substitute(echelon: list[int], leads: list[int]) -> list[int]:
    """Clear each pivot from the other rows of a forward pass, in place.

    Returns the leads sorted ascending; echelon[lead] is then that lead's
    reduced row.
    """
    leads.sort()
    pivot_bits = 0
    for lead in leads:
        row = echelon[lead]
        hits = row & pivot_bits
        while hits:
            hit = hits.bit_length()
            row ^= echelon[hit]
            hits ^= 1 << (hit - 1)
        echelon[lead] = row
        pivot_bits |= 1 << (lead - 1)
    return leads


def _rref_gf2(a: np.ndarray):
    """Gauss-Jordan over GF(2) on rows held as Python ints; same result as _rref_mod.

    Rows are packed column-reversed, so column j is bit n - 1 - j and a
    lead of bit length b is pivot column n - b.  The forward pass builds the
    echelon table, then pivots are back-substituted.
    """
    m, n = a.shape
    echelon, _, leads = _forward_gf2(_pack(a[:, ::-1]), n)
    leads = _back_substitute(echelon, leads)[::-1]
    out = np.zeros((m, n), dtype=np.int64)
    out[: len(leads)] = _unpack([echelon[lead] for lead in leads], n)[:, ::-1]
    return out, [n - lead for lead in leads]


def _rref(a: np.ndarray, p: int):
    check_prime_size(p)
    return _rref_gf2(a) if p == 2 else _rref_mod(a, p)


def rref_array(a, p: int):
    """RREF of a raw array; returns (rref array, rank)."""
    a = np.asarray(a, dtype=np.int64)
    reduced, pivots = _rref(a % p, p)
    return reduced, len(pivots)


def rref_pivots(a, p: int) -> np.ndarray:
    """Pivot columns of the RREF of a raw integer array, ascending.

    Over GF(2) only the forward pass runs, on whichever of a's rows and
    columns are fewer (module docstring).  a may have any integer dtype
    and any layout: it is read mod p.
    """
    a = np.asarray(a)
    if p != 2:
        return np.asarray(_rref(a, p)[1], dtype=np.intp)
    m, n = a.shape
    if m <= n:
        leads = _forward_gf2(_pack(a[:, ::-1]), n)[2]
        return np.sort(n - np.asarray(leads, dtype=np.intp))
    return np.asarray(_forward_gf2(_pack(a[::-1].T), m)[1], dtype=np.intp)


def kernel(a, p: int):
    """(basis, pivots, columns): the canonical kernel basis {v : a @ v = 0},
    its pivots, and an image basis.

    One elimination of the column-reversed matrix; the module docstring
    explains why the reversed free-column basis is already canonical.  Its
    pivot columns are independent columns of the matrix that span its
    column space, so a[:, columns] is a basis of the image, returned as
    ascending column indices at no extra cost, and the kernel's pivots are
    the other columns.  Over GF(2) the basis is uint8 rows (`_kernel_gf2`);
    at odd p it is int64.
    """
    a = np.asarray(a)
    if p == 2:
        return _kernel_gf2(a)
    n = a.shape[1]
    reduced, pivots = _rref(a[:, ::-1], p)
    columns = n - 1 - np.asarray(pivots[::-1], dtype=np.intp)
    is_free = np.ones(n, dtype=bool)
    is_free[pivots] = False
    free_cols = is_free.nonzero()[0]
    basis = np.zeros((free_cols.size, n), dtype=np.int64)
    basis[np.arange(free_cols.size), free_cols] = 1
    basis[:, pivots] = (-reduced[: len(pivots)][:, free_cols].T) % p
    return basis[::-1, ::-1].copy(), n - 1 - free_cols[::-1], columns


def _kernel_gf2(a: np.ndarray):
    """`kernel` over GF(2): one bit-row elimination, the kernel as uint8 rows.

    Rows are packed as they are, so the forward pass, which takes the
    highest bit first, eliminates the columns from the right: the
    column-reversed elimination, with no reversed copy.  A reduced row with
    bit length `lead` has its pivot at column lead - 1, an image column,
    and bits only at columns to its left.  The kernel vector of a free
    column f is 1 at f and, at each image column, bit f of that column's
    row: its first nonzero entry is the 1 at f, so the vectors, sorted by
    f, are the canonical basis with pivots f.  It is built as its
    transpose, one row per column, and returned as a view of that, so the
    columns that a resolution's selection reads are contiguous.
    """
    n = a.shape[1]
    echelon, _, leads = _forward_gf2(_pack(a), n)
    leads = _back_substitute(echelon, leads)
    columns = np.asarray(leads, dtype=np.intp) - 1
    is_free = np.ones(n, dtype=bool)
    is_free[columns] = False
    pivots = is_free.nonzero()[0]
    bits = _unpack([echelon[lead] for lead in leads], n)
    coords = np.zeros((n, pivots.size), dtype=np.uint8)  # the basis, transposed
    coords[pivots, np.arange(pivots.size)] = 1
    coords[columns] = np.take(bits, pivots, axis=1)
    return coords.T, pivots, columns


def pivot_inverse(a, p: int):
    """(c, E) for a of full row rank m: its pivot columns c and E = a[:, c]^{-1}.

    The RREF of [a | I_m] is [R | E] with E a = R, and R[:, c] = I_m, so
    E a[:, c] = I_m.  For every b, a x = b then has the solution x[c] = E b,
    zero at the other columns: the one the RREF of [a | b] gives, since
    that is [R | E b].  Over GF(2) row i of [a | I_m] is a's column-reversed
    bit row shifted past m bits, with bit i for I_m: when a has full row
    rank every lead lies in a's bits, so the order of I_m's bits decides no
    step, and E's rows are the low m bits, unpacked.  Raises
    InvariantViolation when a does not have full row rank.
    """
    a = np.asarray(a)
    m, n = a.shape
    if p == 2:
        rows = [row << m | 1 << i for i, row in enumerate(_pack(a[:, ::-1]))]
        echelon, _, leads = _forward_gf2(rows, n + m)
        leads = _back_substitute(echelon, leads)[::-1]
        columns = n + m - np.asarray(leads, dtype=np.intp)
        low = (1 << m) - 1
        inverse = _unpack([echelon[lead] & low for lead in leads], m)
    else:
        reduced, pivots = _rref(np.hstack([a, np.eye(m, dtype=np.int64)]), p)
        columns = np.asarray(pivots, dtype=np.intp)
        inverse = reduced[:, n:].copy()  # a copy, so R is freed
    if len(columns) != m or (m and columns[-1] >= n):
        raise InvariantViolation(f"a {m} x {n} matrix without full row rank has no pivot inverse")
    return columns, inverse


def pivot_columns(rref_basis: np.ndarray) -> np.ndarray:
    """Pivot column of each row of an RREF basis (rows must be nonzero)."""
    return np.argmax(rref_basis != 0, axis=1)


def _product_dtype(k: int, p: int):
    """The dtype of an exact product of residues mod p with inner dimension k:
    float32 while k (p - 1)^2 < 2^24, float64 while it is below 2^53, else int64."""
    bound = k * (p - 1) ** 2
    if bound < 2 ** 24:  # float32 represents every integer below 2^24 exactly
        return np.float32
    return np.float64 if bound < _FLOAT_EXACT else np.int64


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) % p for residue matrices, entries in [0, p), as int64.

    In the exact tier of `_product_dtype`; an input already in its dtype is
    not copied.
    """
    dtype = _product_dtype(a.shape[1], p)
    if dtype is np.int64:
        return (a @ b) % p
    prod = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return np.fmod(prod, p, out=prod).astype(np.int64)


def independent_rows(span_rows, rows, p: int) -> np.ndarray:
    """Indices of the rows outside the span of span_rows and the rows before them.

    The pivot columns of the rows stacked under span_rows and transposed;
    the module docstring says why they are the greedy scan's.  rows keeps
    its dtype, which `rref_pivots` accepts as it is.
    """
    rows = np.asarray(rows)
    if not rows.size:  # no rows, or zero-width rows: all of them zero
        return np.zeros(0, dtype=np.intp)
    span_rows = _as_rows(span_rows, rows.shape[1])
    stack = np.vstack([span_rows, rows]) if len(span_rows) else rows
    kept = rref_pivots(stack.T, p)
    return kept[kept >= len(span_rows)] - len(span_rows)


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


def greedy_generators(k: int, translates, p: int) -> np.ndarray:
    """Indices j of the e_j in F_p^k outside the span of the translates of
    the e_i kept before them, in scan order.

    translates(j) is an integer array of rows, e_j among them, that spans
    the translates of e_j; the module docstring gives the lead test that
    decides each e_j with no residuals of the rows not yet reached.
    """
    kept = []
    if p == 2:
        echelon = [0] * (k + 1)  # echelon[b]: the stored row of bit length b
        for j in range(k):
            if echelon[j + 1]:  # a vector of the span ends at coordinate j
                continue
            kept.append(j)
            for row in _pack(translates(j)):
                lead = row.bit_length()
                while lead > j + 1:
                    other = echelon[lead]
                    if not other:
                        echelon[lead] = row
                        break
                    row ^= other
                    lead = row.bit_length()
    else:
        span = FpSubspace(p, k)
        ends = np.zeros(k, dtype=bool)  # ends[c]: a vector of the span ends at c
        for j in range(k):
            if ends[j]:
                continue
            kept.append(j)
            span.add_rows(np.asarray(translates(j))[:, ::-1])
            ends[k - 1 - span._pivots] = True
    return np.asarray(kept, dtype=np.intp)
