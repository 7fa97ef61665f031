import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoh.errors import DimensionMismatch
from modcoh.fplinalg import (
    FpSubspace,
    RowSpan,
    kernel_array,
    rref_array,
    solve_array,
)

PRIMES = (2, 3, 5)


@st.composite
def matrices(draw, max_dim=6):
    """(p, a): a random m x n residue matrix over F_p."""
    p = draw(st.sampled_from(PRIMES))
    m = draw(st.integers(1, max_dim))
    n = draw(st.integers(1, max_dim))
    entries = draw(
        st.lists(st.integers(0, p - 1), min_size=m * n, max_size=m * n))
    return p, np.array(entries, dtype=np.int64).reshape(m, n)


class TestRref:
    def test_identity_rank(self):
        _, r = rref_array(np.eye(3, dtype=int), 2)
        assert r == 3

    def test_zero_rank(self):
        _, r = rref_array(np.zeros((2, 4), dtype=int), 3)
        assert r == 0

    def test_equal_rows_gf2(self):
        reduced, r = rref_array([[1, 1], [1, 1]], 2)
        assert r == 1
        assert reduced.tolist()[0] == [1, 1]

    @given(matrices())
    @settings(max_examples=120, deadline=None)
    def test_idempotent_and_rank_nullity(self, M):
        p, a = M
        reduced, r = rref_array(a, p)
        again, r2 = rref_array(reduced, p)
        assert r == r2
        assert np.array_equal(reduced, again)
        n = a.shape[1]
        assert FpSubspace(p, n, kernel_array(a, p)).dim == n - r

    @given(matrices(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_canonical_under_row_shuffle(self, M, rng):
        p, a = M
        order = list(range(a.shape[0]))
        rng.shuffle(order)
        first, _ = rref_array(a, p)
        second, _ = rref_array(a[order], p)
        assert np.array_equal(first, second)

    def test_packed_gf2_agrees_with_generic(self):
        rng = np.random.default_rng(7)
        a = rng.integers(0, 2, size=(40, 300))
        from modcoh.fplinalg import _rref_gf2, _rref_mod
        ra, pa = _rref_mod(a.copy(), 2)
        rb, pb = _rref_gf2(a.copy(), 2)
        assert pa == pb
        assert np.array_equal(ra, rb)

    def test_row_equivalent_matrices_share_rref(self):
        rng = np.random.default_rng(11)
        for p in PRIMES:
            for _ in range(10):
                m, n = rng.integers(2, 6, size=2)
                a = rng.integers(0, p, size=(m, n))
                while True:
                    u = rng.integers(0, p, size=(m, m))
                    _, r = rref_array(u, p)
                    if r == m:
                        break
                left, _ = rref_array(a, p)
                right, _ = rref_array((u @ a) % p, p)
                assert np.array_equal(left, right)


class TestKernel:
    def test_invertible_kernel_trivial(self):
        assert FpSubspace(5, 2, kernel_array([[1, 2], [3, 4]], 5)).dim == 0

    def test_zero_matrix_full_kernel(self):
        ker = kernel_array(np.zeros((3, 3), dtype=int), 2)
        assert FpSubspace(2, 3, ker).dim == 3

    def test_sum_vector_gf2(self):
        assert kernel_array([[1, 1]], 2).tolist() == [[1, 1]]

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_kernel_annihilated(self, M):
        p, a = M
        basis = kernel_array(a, p)
        if basis.shape[0]:
            assert not ((a @ basis.T) % p).any()


class TestSolve:
    def test_identity(self):
        x = solve_array(np.eye(3, dtype=int), [1, 2, 0], 3)
        assert x.tolist() == [1, 2, 0]

    def test_inconsistent(self):
        assert solve_array([[0, 0]], [1], 2) is None

    def test_free_variable_zeroed(self):
        x = solve_array([[1, 1], [0, 0]], [1, 0], 2)
        assert x.tolist() == [1, 0]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_array([[1, 0]], [1, 0], 2)

    @given(matrices(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_solution_substitutes(self, M, data):
        p, a = M
        coeffs = data.draw(st.lists(
            st.integers(0, p - 1), min_size=a.shape[1], max_size=a.shape[1]))
        b = (a @ np.array(coeffs)) % p
        x = solve_array(a, b, p)
        assert x is not None
        assert np.array_equal((a @ x) % p, b)


class TestQuotient:
    """dim U/W = dim U - dim W, for W inside U by membership of its basis."""

    @staticmethod
    def _inside(U, W):
        return all(U.contains_vector(w) for w in W.basis)

    def test_equal_spaces(self):
        U = FpSubspace(2, 3, np.eye(3, dtype=int))
        assert self._inside(U, U) and U.dim - U.dim == 0

    def test_full_mod_zero(self):
        U = FpSubspace(2, 3, np.eye(3, dtype=int))
        W = FpSubspace(2, 3, np.zeros((0, 3), dtype=int))
        assert self._inside(U, W) and U.dim - W.dim == 3

    def test_kernel_of_sum_form(self):
        U = FpSubspace(2, 2, kernel_array([[1, 1]], 2))
        W = FpSubspace(2, 2, np.zeros((0, 2), dtype=int))
        assert self._inside(U, W) and U.dim - W.dim == 1

    def test_not_contained(self):
        U = FpSubspace(2, 2, [[1, 0]])
        W = FpSubspace(2, 2, [[0, 1]])
        assert not self._inside(U, W)


def _contains(span, v):
    """Membership through select on a copy, so span itself does not grow."""
    trial = RowSpan(span.p, span.ambient_dim)
    trial.add_rows(span.basis())
    return len(trial.select([v])) == 0


class TestRowSpan:
    def test_grows_and_tests_membership(self):
        span = RowSpan(3, 3)
        assert not _contains(span, [1, 0, 0])
        span.add_rows([[1, 0, 2]])
        assert _contains(span, [2, 0, 1])
        assert not _contains(span, [0, 1, 0])
        span.add_rows([[0, 1, 0], [1, 1, 2]])
        assert span.rank == 2

    def test_select_keeps_rows_outside_span(self):
        span = RowSpan(3, 3)
        span.add_rows([[1, 0, 2]])
        kept = span.select([[2, 0, 1], [0, 1, 0], [1, 1, 2], [0, 0, 1]])
        assert kept.tolist() == [1, 3]
        assert span.rank == 3

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_batch_rref(self, M):
        p, a = M
        span = RowSpan(p, a.shape[1])
        for row in a:
            span.add_rows([row])
        _, r = rref_array(a, p)
        assert span.rank == r


# -- differential checks against the eager elimination ----------------------

def _eager_rref_mod(a, p):
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


# largest prime below MAX_PRIME = 2^21
_BIG_PRIME = 2097143
DIFF_PRIMES = (2, 3, 5, 7, 101, _BIG_PRIME)
DIFF_SHAPES = ((1, 1), (3, 17), (5, 40), (17, 4), (40, 6), (12, 12), (0, 5),
               (6, 0), (30, 30))


def _random_matrix(rng, p, shape, kind):
    m, n = shape
    if kind == "zero" or m == 0 or n == 0:
        return np.zeros((m, n), dtype=np.int64)
    if kind == "deficient":
        k = max(1, min(m, n) // 3)
        left = rng.integers(0, p, size=(m, k))
        right = rng.integers(0, p, size=(k, n))
        return (left @ right) % p
    return rng.integers(0, p, size=(m, n))


def _cases(seed):
    rng = np.random.default_rng(seed)
    for p in DIFF_PRIMES:
        for shape in DIFF_SHAPES:
            for kind in ("full", "deficient", "zero"):
                yield p, _random_matrix(rng, p, shape, kind)


class TestLazyElimination:
    def test_lazy_matches_eager(self):
        from modcoh.fplinalg import _rref_mod
        for p, a in _cases(2024):
            ra, pa = _rref_mod(a.copy(), p)
            rb, pb = _eager_rref_mod(a.copy(), p)
            assert pa == pb
            assert np.array_equal(ra, rb)

    def test_unreduced_input_matches_eager(self):
        from modcoh.fplinalg import _rref_mod
        rng = np.random.default_rng(5)
        for p in DIFF_PRIMES:
            a = rng.integers(-3 * p, 3 * p, size=(9, 14))
            ra, pa = _rref_mod(a.copy(), p)
            rb, pb = _eager_rref_mod(a.copy(), p)
            assert pa == pb
            assert np.array_equal(ra, rb)

    def test_packed_gf2_matches_eager_above_threshold(self):
        from modcoh.fplinalg import _GF2_PACK_THRESHOLD, _rref, _rref_mod
        rng = np.random.default_rng(3)
        n = _GF2_PACK_THRESHOLD + 37
        for m in (1, 8, 60, 300):
            for kind in ("full", "deficient", "zero"):
                a = _random_matrix(rng, 2, (m, n), kind)
                ra, pa = _rref(a.copy(), 2)
                rb, pb = _rref_mod(a.copy(), 2)
                rc, pc = _eager_rref_mod(a.copy(), 2)
                assert pa == pb == pc
                assert np.array_equal(ra, rb)
                assert np.array_equal(ra, rc)

    def test_kernel_annihilates_with_complementary_dim(self):
        for p, a in _cases(99):
            ker = kernel_array(a, p)
            _, rank = rref_array(a, p)
            n = a.shape[1]
            assert ker.shape == (n - rank, n)
            if ker.size and a.size:
                assert not ((ker @ a.T) % p).any()
            reduced, r = rref_array(ker, p)
            assert r == ker.shape[0]
            assert np.array_equal(reduced[:r], ker)

    def test_kernel_matches_loop_construction(self):
        for p, a in _cases(7):
            n = a.shape[1]
            reduced, pivots = _eager_rref_mod(a % p, p)
            free = [c for c in range(n) if c not in pivots]
            loop = np.zeros((len(free), n), dtype=np.int64)
            for k, fc in enumerate(free):
                loop[k, fc] = 1
                for row_idx, pc in enumerate(pivots):
                    loop[k, pc] = (-int(reduced[row_idx, fc])) % p
            want, _ = _eager_rref_mod(loop, p)
            assert np.array_equal(kernel_array(a, p), want[: len(free)])

    def test_rowspan_pivots_track_basis(self):
        from modcoh.fplinalg import pivot_columns
        rng = np.random.default_rng(17)
        for p in DIFF_PRIMES:
            for width in (5, 23, 250):
                span = RowSpan(p, width)
                for _ in range(6):
                    k = int(rng.integers(1, 4))
                    span.add_rows(_random_matrix(rng, p, (k, width), "deficient"))
                    basis = span.basis()
                    assert np.array_equal(span._pivots, pivot_columns(basis))
                    assert np.array_equal(
                        span._pivots, np.argmax(basis != 0, axis=1))

    def test_subspace_pivots_and_membership(self):
        from modcoh.fplinalg import residual_rows
        rng = np.random.default_rng(23)
        for p in DIFF_PRIMES:
            rows = _random_matrix(rng, p, (4, 9), "deficient")
            U = FpSubspace(p, 9, rows)
            assert np.array_equal(U._pivots, np.argmax(U.basis != 0, axis=1))
            member = (rng.integers(0, p, size=4) @ rows) % p
            assert U.contains_vector(member)
            probe = rng.integers(0, p, size=(5, 9))
            assert np.array_equal(residual_rows(probe, U.basis, p),
                                  residual_rows(probe, U.basis, p, U._pivots))


class _SequentialRowSpan:
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
        reduced, pivots = _eager_rref_mod(stacked, self.p)
        self.basis = reduced[: len(pivots)]
        self.pivots = pivots

    def select(self, rows, expand=None):
        kept = []
        for i, row in enumerate(rows):
            if not self.contains(row):
                kept.append(i)
                self.add_rows(row.reshape(1, -1) if expand is None else expand(row))
        return kept


def _shifts(k):
    """Expansion by k cyclic shifts, standing in for group translates."""
    return lambda row: np.stack([np.roll(row, s) for s in range(k)])


def _shifted_double(row):
    """Expansion that does not contain the row itself."""
    return np.stack([np.roll(2 * row, 1), np.roll(row, 3)])


def _two_rref_kernel(a, p):
    """Kernel from the RREF of a, re-canonicalised by a second RREF."""
    n = a.shape[1]
    reduced, pivots = _eager_rref_mod(a % p, p)
    free = np.array([c for c in range(n) if c not in pivots], dtype=np.intp)
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-reduced[: len(pivots)][:, free].T) % p
    want, _ = _eager_rref_mod(basis, p)
    return want[: len(free)]


class TestIncrementalSpan:
    def test_select_matches_sequential_loop(self):
        rng = np.random.default_rng(31)
        expansions = (None, _shifts(1), _shifts(4), _shifted_double)
        for p in DIFF_PRIMES:
            for width in (1, 6, 23, 250):
                for expand in expansions:
                    for kind in ("full", "deficient", "zero"):
                        seed = _random_matrix(rng, p, (3, width), "deficient")
                        rows = _random_matrix(rng, p, (12, width), kind)
                        rows = np.vstack([rows, rows[:3], seed[:1]])
                        span, ref = RowSpan(p, width), _SequentialRowSpan(p, width)
                        span.add_rows(seed)
                        ref.add_rows(seed)
                        kept = span.select(rows, expand)
                        assert kept.tolist() == ref.select(rows, expand)
                        assert np.array_equal(span.basis(), ref.basis)
                        assert span._pivots.tolist() == ref.pivots

    def test_select_on_empty_span_and_no_rows(self):
        span = RowSpan(5, 4)
        assert span.select(np.zeros((0, 4), dtype=np.int64)).tolist() == []
        assert span.select(np.zeros((3, 4), dtype=np.int64)).tolist() == []
        assert span.rank == 0
        assert span.select([[0, 5, 0, 0], [0, 2, 0, 0], [1, 0, 0, 0]]).tolist() == [1, 2]

    def test_add_rows_matches_full_rref(self):
        rng = np.random.default_rng(37)
        for p in DIFF_PRIMES:
            for width in (1, 5, 23, 250):
                span = RowSpan(p, width)
                added = np.zeros((0, width), dtype=np.int64)
                for step in range(8):
                    k = int(rng.integers(0, 5))
                    kind = ("full", "deficient", "zero")[step % 3]
                    rows = _random_matrix(rng, p, (k, width), kind)
                    if step == 5:
                        rows = np.vstack([rows, added[:2]])  # rows already inside
                    span.add_rows(rows)
                    added = np.vstack([added, rows])
                    reduced, pivots = _eager_rref_mod(added, p)
                    assert np.array_equal(span.basis(), reduced[: len(pivots)])
                    assert span._pivots.tolist() == pivots

    def test_kernel_matches_two_rref_version(self):
        from modcoh.fplinalg import _GF2_PACK_THRESHOLD
        rng = np.random.default_rng(41)
        for p, a in _cases(43):
            assert np.array_equal(kernel_array(a, p), _two_rref_kernel(a, p))
        wide = _GF2_PACK_THRESHOLD + 21
        for shape in ((5, wide), (wide, 7), (40, wide), (wide, wide)):
            for kind in ("full", "deficient", "zero"):
                a = _random_matrix(rng, 2, shape, kind)
                assert np.array_equal(kernel_array(a, 2), _two_rref_kernel(a, 2))

    @pytest.mark.parametrize("p", (1048573, _BIG_PRIME))
    def test_matmul_mod_at_float_bound(self, p):
        from modcoh.fplinalg import _matmul_mod
        rng = np.random.default_rng(p)
        k_max = (2 ** 53 - 1) // (p - 1) ** 2  # deepest exact float64 product
        for k in (k_max, k_max + 1):
            for a, b in ((np.full((3, k), p - 1), np.full((k, 4), p - 1)),
                         (np.full((3, k), p - 2), np.full((k, 4), p - 2)),
                         (rng.integers(0, p, size=(3, k)),
                          rng.integers(0, p, size=(k, 4)))):
                got = _matmul_mod(a, b, p)
                assert got.dtype == np.int64
                assert np.array_equal(got, (a @ b) % p)
                exact = [[sum(int(x) * int(y) for x, y in zip(r, c)) % p
                          for c in b.T] for r in a]
                assert got.tolist() == exact
        # one term past the bound a float64 product is no longer exact
        odd = np.full((1, k_max + 1), p - 2, dtype=np.float64)
        assert int((odd @ odd.T)[0, 0]) != (k_max + 1) * (p - 2) ** 2

    def test_matmul_mod_small_primes(self):
        from modcoh.fplinalg import _matmul_mod
        rng = np.random.default_rng(47)
        for p in DIFF_PRIMES:
            for m, k, n in ((0, 3, 2), (3, 0, 2), (4, 7, 5), (30, 60, 9)):
                a = rng.integers(0, p, size=(m, k))
                b = rng.integers(0, p, size=(k, n))
                assert np.array_equal(_matmul_mod(a, b, p), (a @ b) % p)


class TestPrimeBound:
    def test_max_prime_accepted(self):
        from modcoh.fplinalg import MAX_PRIME
        assert _BIG_PRIME <= MAX_PRIME
        _, r = rref_array([[1, 2], [3, 4]], _BIG_PRIME)
        assert r == 2

    def test_rref_rejects_large_prime(self):
        from modcoh.errors import PrimeTooLarge
        with pytest.raises(PrimeTooLarge):
            rref_array([[1, 2], [3, 4]], 4294967311)
