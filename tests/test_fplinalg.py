import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoh.errors import DimensionMismatch, InvariantViolation
from modcoh.fplinalg import (
    FpSubspace,
    independent_rows,
    kernel,
    pivot_inverse,
    rref_array,
    rref_pivots,
)
from resolution_oracle import solve_batch
from span_oracle import SequentialRowSpan, contains_vector, eager_rref_mod, select

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
        assert FpSubspace(p, n, kernel(a, p)[0]).dim == n - r

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
        rb, pb = _rref_gf2(a.copy())
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
        assert FpSubspace(5, 2, kernel([[1, 2], [3, 4]], 5)[0]).dim == 0

    def test_zero_matrix_full_kernel(self):
        ker = kernel(np.zeros((3, 3), dtype=int), 2)[0]
        assert FpSubspace(2, 3, ker).dim == 3

    def test_sum_vector_gf2(self):
        assert kernel([[1, 1]], 2)[0].tolist() == [[1, 1]]

    @given(matrices())
    @settings(max_examples=100, deadline=None)
    def test_kernel_annihilated(self, M):
        p, a = M
        basis = kernel(a, p)[0]
        if basis.shape[0]:
            assert not ((a @ basis.T) % p).any()


class TestSolve:
    def test_identity(self):
        x = solve_batch(np.eye(3, dtype=int), [[1], [2], [0]], 3)
        assert x.tolist() == [[1], [2], [0]]

    def test_inconsistent(self):
        assert solve_batch([[0, 0]], [[1]], 2) is None

    def test_free_variable_zeroed(self):
        x = solve_batch([[1, 1], [0, 0]], [[1], [0]], 2)
        assert x.tolist() == [[1], [0]]

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_batch([[1, 0]], [[1], [0]], 2)

    @given(matrices(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_solution_substitutes(self, M, data):
        p, a = M
        coeffs = data.draw(st.lists(
            st.integers(0, p - 1), min_size=a.shape[1], max_size=a.shape[1]))
        b = (a @ np.array(coeffs)).reshape(-1, 1) % p
        x = solve_batch(a, b, p)
        assert x is not None
        assert np.array_equal((a @ x) % p, b)


def _full_row_rank(rng, p, m, n):
    """A random m x n matrix over F_p of rank m, with m <= n."""
    while True:
        a = rng.integers(0, p, size=(m, n))
        if rref_array(a, p)[1] == m:
            return a


class TestPivotInverse:
    """pivot_inverse factors a full-row-rank matrix once; every solve through
    it is byte for byte the solve_batch solution, free variables zero."""

    @pytest.mark.parametrize("p", PRIMES)
    def test_solutions_match_solve_batch(self, p):
        rng = np.random.default_rng(16 + p)
        for m, n in ((0, 0), (0, 4), (1, 1), (3, 3), (4, 9), (9, 20), (30, 70), (65, 130)):
            a = _full_row_rank(rng, p, m, n)
            columns, inverse = pivot_inverse(a.astype(np.uint8) if p == 2 else a, p)
            assert columns.tolist() == rref_pivots(a, p).tolist()
            assert inverse.shape == (m, m)
            b = rng.integers(0, p, size=(m, 5))
            x = np.zeros((n, 5), dtype=np.int64)
            x[columns] = (inverse.astype(np.int64) @ b) % p
            want = solve_batch(a, b, p)
            assert x.dtype == want.dtype and x.tobytes() == want.tobytes(), (m, n)

    @pytest.mark.parametrize("p", PRIMES)
    def test_rank_deficient_raises(self, p):
        for a in ([[1, 0], [1, 0]], [[0, 0, 0]], np.ones((3, 2), dtype=np.int64)):
            with pytest.raises(InvariantViolation):
                pivot_inverse(np.asarray(a, dtype=np.int64) * (p - 1), p)


class TestQuotient:
    """dim U/W = dim U - dim W, for W inside U by membership of its basis."""

    @staticmethod
    def _inside(U, W):
        return all(contains_vector(U, w) for w in W.basis)

    def test_equal_spaces(self):
        U = FpSubspace(2, 3, np.eye(3, dtype=int))
        assert self._inside(U, U) and U.dim - U.dim == 0

    def test_full_mod_zero(self):
        U = FpSubspace(2, 3, np.eye(3, dtype=int))
        W = FpSubspace(2, 3, np.zeros((0, 3), dtype=int))
        assert self._inside(U, W) and U.dim - W.dim == 3

    def test_kernel_of_sum_form(self):
        U = FpSubspace(2, 2, kernel([[1, 1]], 2)[0])
        W = FpSubspace(2, 2, np.zeros((0, 2), dtype=int))
        assert self._inside(U, W) and U.dim - W.dim == 1

    def test_not_contained(self):
        U = FpSubspace(2, 2, [[1, 0]])
        W = FpSubspace(2, 2, [[0, 1]])
        assert not self._inside(U, W)


def _contains(span, v):
    """Membership through select on a copy, so span itself does not grow."""
    trial = FpSubspace(span.p, span.ambient_dim)
    trial.add_rows(span.basis)
    return len(select(trial, [v])) == 0


class TestRowSpan:
    """Row spans grown one batch at a time by FpSubspace.add_rows."""

    def test_grows_and_tests_membership(self):
        span = FpSubspace(3, 3)
        assert not _contains(span, [1, 0, 0])
        span.add_rows([[1, 0, 2]])
        assert _contains(span, [2, 0, 1])
        assert not _contains(span, [0, 1, 0])
        span.add_rows([[0, 1, 0], [1, 1, 2]])
        assert span.dim == 2

    def test_select_keeps_rows_outside_span(self):
        span = FpSubspace(3, 3)
        span.add_rows([[1, 0, 2]])
        kept = select(span, [[2, 0, 1], [0, 1, 0], [1, 1, 2], [0, 0, 1]])
        assert kept.tolist() == [1, 3]
        assert span.dim == 3

    @given(matrices())
    @settings(max_examples=60, deadline=None)
    def test_matches_batch_rref(self, M):
        p, a = M
        span = FpSubspace(p, a.shape[1])
        for row in a:
            span.add_rows([row])
        _, r = rref_array(a, p)
        assert span.dim == r


# -- differential checks against the eager elimination ----------------------

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


# GF(2) widths around byte and word boundaries, and past 192 columns
GF2_WIDTHS = (0, 1, 7, 8, 9, 63, 64, 65, 191, 192, 229)


def _spy_gf2(monkeypatch):
    """(asked, reached, scanned, generic, kernels): the p of each `_rref` call,
    the shape of each `_rref_gf2` call, the width of each GF(2) forward scan
    (one per `_rref_gf2` and `_kernel_gf2` call, plus the pivot-only scans),
    the p of each `_rref_mod` call and the shape of each `_kernel_gf2` call."""
    from modcoh import fplinalg
    asked, reached, scanned, generic, kernels = [], [], [], [], []
    rref, gf2, kernel = fplinalg._rref, fplinalg._rref_gf2, fplinalg._kernel_gf2
    forward, mod = fplinalg._forward_gf2, fplinalg._rref_mod
    monkeypatch.setattr(fplinalg, "_rref", lambda a, p: asked.append(p) or rref(a, p))
    monkeypatch.setattr(fplinalg, "_rref_gf2", lambda a: reached.append(a.shape) or gf2(a))
    monkeypatch.setattr(fplinalg, "_forward_gf2",
                        lambda rows, n: scanned.append(n) or forward(rows, n))
    monkeypatch.setattr(fplinalg, "_rref_mod", lambda a, p: generic.append(p) or mod(a, p))
    monkeypatch.setattr(fplinalg, "_kernel_gf2",
                        lambda a: kernels.append(a.shape) or kernel(a))
    return asked, reached, scanned, generic, kernels


class TestLazyElimination:
    def test_lazy_matches_eager(self):
        from modcoh.fplinalg import _rref_mod
        for p, a in _cases(2024):
            ra, pa = _rref_mod(a.copy(), p)
            rb, pb = eager_rref_mod(a.copy(), p)
            assert pa == pb
            assert np.array_equal(ra, rb)

    def test_unreduced_input_matches_eager(self):
        from modcoh.fplinalg import _rref_mod
        rng = np.random.default_rng(5)
        for p in DIFF_PRIMES:
            a = rng.integers(-3 * p, 3 * p, size=(9, 14))
            ra, pa = _rref_mod(a.copy(), p)
            rb, pb = eager_rref_mod(a.copy(), p)
            assert pa == pb
            assert np.array_equal(ra, rb)

    def test_packed_gf2_matches_eager_at_every_width(self, monkeypatch):
        from modcoh import fplinalg
        from modcoh.fplinalg import _rref_mod
        asked, reached, scanned, generic, kernels = _spy_gf2(monkeypatch)
        rng = np.random.default_rng(3)
        for n in GF2_WIDTHS:
            for m in (0, 1, 8, 60, 300):
                for kind in ("full", "deficient", "zero"):
                    a = _random_matrix(rng, 2, (m, n), kind)
                    ra, pa = fplinalg._rref(a.copy(), 2)
                    rb, pb = _rref_mod(a.copy(), 2)
                    rc, pc = eager_rref_mod(a.copy(), 2)
                    assert pa == pb == pc
                    assert ra.dtype == np.int64
                    assert np.array_equal(ra, rb)
                    assert np.array_equal(ra, rc)
        # entries outside {0, 1}, negative ones included, are read mod 2
        for n in GF2_WIDTHS:
            a = rng.integers(-5, 6, size=(20, n))
            ra, pa = fplinalg._rref(a.copy(), 2)
            rc, pc = eager_rref_mod(a.copy(), 2)
            assert pa == pc
            assert np.array_equal(ra, rc)
        assert len(reached) == len(asked) == len(scanned) == 16 * len(GF2_WIDTHS)
        assert generic == []  # the reference calls above bypass the spy

    def test_every_gf2_call_takes_the_bit_row_path(self, monkeypatch):
        """No F_2 entry point reaches the int64 elimination, at any shape."""
        asked, reached, scanned, generic, kernels = _spy_gf2(monkeypatch)
        rng = np.random.default_rng(5)
        shapes = ((0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (9, 8), (2, 65), (70, 4))
        for m, n in shapes:
            a = _random_matrix(rng, 2, (m, n), "full")
            rref_array(a, 2)
            kernel(a, 2)[0]
            solve_batch(a, np.ones((m, 1), dtype=np.int64), 2)
            kept = independent_rows(a[:1], a, 2)
            assert rref_pivots(a, 2).tolist() == eager_rref_mod(a, 2)[1]
            space = FpSubspace(2, n, a)
            span = FpSubspace(2, n)
            span.add_rows(a)
            if not n:  # zero-width rows give the zero space
                assert kept.tolist() == [] and space.dim == span.dim == 0
                assert space.basis.shape == span.basis.shape == (0, 0)
        assert len(reached) == asked.count(2)
        # kernel eliminates each matrix once, on the bit-row kernel path
        assert kernels == [(m, n) for m, n in shapes]
        # rref_pivots scans each matrix, independent_rows each nonempty one
        assert len(scanned) == len(reached) + len(kernels) + 8 + 5 >= 50
        assert generic == []
        rref_array([[1, 2], [3, 4]], 3)
        assert generic == [3]

    @given(st.integers(0, 80), st.integers(0, 300),
           st.sampled_from(("full", "deficient", "zero", "sparse")),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_gf2_matches_eager_property(self, m, n, kind, seed):
        from modcoh.fplinalg import _rref
        rng = np.random.default_rng(seed)
        if kind == "sparse":
            a = (rng.random((m, n)) < 0.03).astype(np.int64)
        else:
            a = _random_matrix(rng, 2, (m, n), kind)
        ra, pa = _rref(a.copy(), 2)
        rc, pc = eager_rref_mod(a.copy(), 2)
        assert pa == pc
        assert np.array_equal(ra, rc)

    @given(st.sampled_from(("tall", "wide", "zero-row", "zero-width")),
           st.integers(1, 90), st.integers(0, 40), st.integers(0, 12),
           st.sampled_from(("full", "deficient", "zero", "sparse")),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_gf2_pivots_and_selection_match_eager(self, shape, big, small, n_span,
                                                  kind, seed):
        """The forward-only scans against the eager RREF's pivots."""
        rng = np.random.default_rng(seed)
        m, n = {"tall": (big + small, big // 3), "wide": (small, big + small),
                "zero-row": (0, big), "zero-width": (big, 0)}[shape]
        if kind == "sparse":
            a = (rng.random((m, n)) < 0.05).astype(np.int64)
        else:
            a = _random_matrix(rng, 2, (m, n), kind)
        assert rref_pivots(a, 2).tolist() == eager_rref_mod(a, 2)[1]
        span = _random_matrix(rng, 2, (n_span, n), "deficient")
        pivots = eager_rref_mod(np.vstack([span, a]).T, 2)[1]
        want = [c - n_span for c in pivots if c >= n_span]
        assert independent_rows(span, a, 2).tolist() == want
        # any integer dtype serves, read mod 2: 255 is odd, as resolutions uses it
        assert independent_rows(span, (a * 255).astype(np.uint8), 2).tolist() == want

    def test_kernel_annihilates_with_complementary_dim(self):
        for p, a in _cases(99):
            ker = kernel(a, p)[0]
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
            reduced, pivots = eager_rref_mod(a % p, p)
            free = [c for c in range(n) if c not in pivots]
            loop = np.zeros((len(free), n), dtype=np.int64)
            for k, fc in enumerate(free):
                loop[k, fc] = 1
                for row_idx, pc in enumerate(pivots):
                    loop[k, pc] = (-int(reduced[row_idx, fc])) % p
            want, _ = eager_rref_mod(loop, p)
            assert np.array_equal(kernel(a, p)[0], want[: len(free)])

    def test_rowspan_pivots_track_basis(self):
        from modcoh.fplinalg import pivot_columns
        rng = np.random.default_rng(17)
        for p in DIFF_PRIMES:
            for width in (5, 23, 250):
                span = FpSubspace(p, width)
                for _ in range(6):
                    k = int(rng.integers(1, 4))
                    span.add_rows(_random_matrix(rng, p, (k, width), "deficient"))
                    basis = span.basis
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
            assert contains_vector(U, member)
            probe = rng.integers(0, p, size=(5, 9))
            assert np.array_equal(residual_rows(probe, U.basis, p),
                                  residual_rows(probe, U.basis, p, U._pivots))


class TestPack:
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    def test_views_pack_as_their_contiguous_copy(self, dtype):
        """Reversed, transposed and both: the same ints as a contiguous copy."""
        from modcoh.fplinalg import _pack, _unpack
        rng = np.random.default_rng(11)
        for n in GF2_WIDTHS:
            for m in (0, 1, 5, 17):
                a = rng.integers(0, 4, size=(m, n)).astype(dtype)
                at = np.ascontiguousarray(a.T)
                views = [a, a[:, ::-1], a[::-1], a[::-1, ::-1], at.T, at.T[:, ::-1],
                         at[::-1].T, at[:, ::-1].T, a[:, ::2], a[:, ::-2]]
                for view in views:
                    want = _pack(np.ascontiguousarray(view))
                    assert _pack(view) == want, (dtype, m, n, view.strides)
                    assert np.array_equal(_unpack(want, view.shape[1]), view % 2)

    def test_peak_memory_is_one_parity_copy(self):
        """A view or an int64 input is read into one uint8 array of parities:
        no contiguous copy first, which doubled the peak."""
        import tracemalloc
        from modcoh.fplinalg import _pack
        m, n = 4000, 3000
        a = np.random.default_rng(5).integers(0, 4, size=(m, n), dtype=np.uint8)
        at = np.ascontiguousarray(a.T)
        for make in (lambda: a[:, ::-1], lambda: at.T, lambda: a.astype(np.int64)):
            view = make()
            tracemalloc.start()
            try:
                _pack(view)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.5 * m * n, (view.dtype, view.strides, peak / (m * n))
            del view


def _shifts(k):
    """Expansion by k cyclic shifts, standing in for group translates."""
    return lambda row: np.stack([np.roll(row, s) for s in range(k)])


def _shifted_double(row):
    """Expansion that does not contain the row itself."""
    return np.stack([np.roll(2 * row, 1), np.roll(row, 3)])


def _two_rref_kernel(a, p):
    """Kernel from the RREF of a, re-canonicalised by a second RREF."""
    n = a.shape[1]
    reduced, pivots = eager_rref_mod(a % p, p)
    free = np.array([c for c in range(n) if c not in pivots], dtype=np.intp)
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-reduced[: len(pivots)][:, free].T) % p
    want, _ = eager_rref_mod(basis, p)
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
                        span, ref = FpSubspace(p, width), SequentialRowSpan(p, width)
                        span.add_rows(seed)
                        ref.add_rows(seed)
                        kept = select(span, rows, expand)
                        assert kept.tolist() == ref.select(rows, expand)
                        assert np.array_equal(span.basis, ref.basis)
                        assert span._pivots.tolist() == ref.pivots

    def test_select_on_empty_span_and_no_rows(self):
        span = FpSubspace(5, 4)
        assert select(span, np.zeros((0, 4), dtype=np.int64)).tolist() == []
        assert select(span, np.zeros((3, 4), dtype=np.int64)).tolist() == []
        assert span.dim == 0
        assert select(span, [[0, 5, 0, 0], [0, 2, 0, 0], [1, 0, 0, 0]]).tolist() == [1, 2]

    def test_add_rows_matches_full_rref(self):
        rng = np.random.default_rng(37)
        for p in DIFF_PRIMES:
            for width in (1, 5, 23, 250):
                span = FpSubspace(p, width)
                added = np.zeros((0, width), dtype=np.int64)
                for step in range(8):
                    k = int(rng.integers(0, 5))
                    kind = ("full", "deficient", "zero")[step % 3]
                    rows = _random_matrix(rng, p, (k, width), kind)
                    if step == 5:
                        rows = np.vstack([rows, added[:2]])  # rows already inside
                    span.add_rows(rows)
                    added = np.vstack([added, rows])
                    reduced, pivots = eager_rref_mod(added, p)
                    assert np.array_equal(span.basis, reduced[: len(pivots)])
                    assert span._pivots.tolist() == pivots

    def test_kernel_matches_two_rref_version(self, monkeypatch):
        asked, reached, scanned, generic, kernels = _spy_gf2(monkeypatch)
        rng = np.random.default_rng(41)
        for p, a in _cases(43):
            assert np.array_equal(kernel(a, p)[0], _two_rref_kernel(a, p))
        for w in GF2_WIDTHS:
            for shape in ((0, w), (5, w), (w, 7), (40, w), (w, w)):
                for kind in ("full", "deficient", "zero"):
                    a = _random_matrix(rng, 2, shape, kind)
                    assert np.array_equal(kernel(a, 2)[0], _two_rref_kernel(a, 2))
        # every p = 2 kernel is one bit-row elimination, with no RREF
        assert reached == [] and 2 not in asked and 2 not in generic
        assert len(kernels) == len(scanned) == 3 * len(DIFF_SHAPES) + 15 * len(GF2_WIDTHS)

    @given(st.sampled_from(("tall", "wide", "zero-row", "square")),
           st.integers(0, 130), st.integers(0, 40),
           st.sampled_from(("full", "deficient", "zero", "sparse")),
           st.sampled_from((np.int64, np.uint8)), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_gf2_kernel_path_matches_two_rref_version(self, shape, n, small, kind,
                                                       dtype, seed):
        """The bit-row kernel, its pivots and its image columns against the
        eager eliminations, at widths on and off byte boundaries."""
        from modcoh.fplinalg import pivot_columns
        rng = np.random.default_rng(seed)
        m = {"tall": n + small + 1, "wide": min(small, n // 2), "zero-row": 0,
             "square": n}[shape]
        if kind == "sparse":
            a = (rng.random((m, n)) < 0.05).astype(np.int64)
        else:
            a = _random_matrix(rng, 2, (m, n), kind)
        # the same matrix mod 2, with entries outside {0, 1}
        if dtype is np.uint8:
            raw = (a + 2 * rng.integers(0, 100, size=a.shape)).astype(np.uint8)
        else:
            raw = a + 2 * rng.integers(-3, 4, size=a.shape)
        want = _two_rref_kernel(a, 2)
        basis, pivots, columns = kernel(raw, 2)
        assert basis.dtype == np.uint8 and np.array_equal(basis, want)
        assert pivots.tolist() == (pivot_columns(want).tolist() if len(want) else [])
        # image columns: the pivots of the column-reversed RREF, read back
        reversed_pivots = eager_rref_mod(a[:, ::-1], 2)[1]
        assert columns.tolist() == [n - 1 - c for c in reversed(reversed_pivots)]
        assert sorted(pivots.tolist() + columns.tolist()) == list(range(n))

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

    @pytest.mark.parametrize("p", [2, 3, 101])
    def test_matmul_mod_at_float32_bound(self, p):
        """float32 up to the last k with k (p - 1)^2 < 2^24, float64 from
        the first k past it, and the int64 product mod p on both sides.
        Entries p - 1 make every partial sum as large as the bound allows."""
        from modcoh.fplinalg import _matmul_mod, _product_dtype
        k_max = (2 ** 24 - 1) // (p - 1) ** 2
        assert _product_dtype(k_max, p) is np.float32
        assert _product_dtype(k_max + 1, p) is np.float64
        rng = np.random.default_rng(p)
        for k in (k_max, k_max + 1):
            for a, b in ((np.full((1, k), p - 1, dtype=np.uint8),
                          np.full((k, 1), p - 1, dtype=np.uint8)),
                         (rng.integers(0, p, size=(1, k), dtype=np.uint8),
                          rng.integers(0, p, size=(k, 1), dtype=np.uint8))):
                want = sum(a[:, i:i + 2 ** 20].astype(np.int64) @ b[i:i + 2 ** 20].astype(np.int64)
                           for i in range(0, k, 2 ** 20)) % p
                got = _matmul_mod(a, b, p)
                assert got.dtype == np.int64 and np.array_equal(got, want), k

    def test_matmul_mod_copies_no_input_in_the_product_dtype(self):
        from modcoh.fplinalg import _matmul_mod
        a = np.ones((3, 4), dtype=np.float32)
        b = np.ones((4, 2), dtype=np.float32)
        seen = []
        real_astype = np.ndarray.astype

        class Spy(np.ndarray):
            def astype(self, dtype, *args, **kwargs):
                out = real_astype(np.asarray(self), dtype, *args, **kwargs)
                seen.append(np.shares_memory(out, self))
                return out

        assert np.array_equal(_matmul_mod(a.view(Spy), b.view(Spy), 5),
                              np.full((3, 2), 4))
        assert seen == [True, True]

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


def _greedy(p, width, span_rows, rows):
    ref = SequentialRowSpan(p, width)
    ref.add_rows(span_rows)
    return ref.select(np.asarray(rows, dtype=np.int64).reshape(-1, width))


class TestIndependentRows:
    """independent_rows against the sequential test-then-add scan."""

    def test_matches_sequential_scan(self):
        rng = np.random.default_rng(53)
        for p in DIFF_PRIMES:
            for width, n_span, n_rows in ((1, 2, 5), (6, 3, 20), (23, 8, 12), (40, 0, 9)):
                for kind in ("full", "deficient", "zero"):
                    span_rows = _random_matrix(rng, p, (n_span, width), "deficient")
                    rows = _random_matrix(rng, p, (n_rows, width), kind)
                    rows = np.vstack([rows, rows[:2], span_rows[:1]])
                    got = independent_rows(span_rows, rows, p)
                    assert got.tolist() == _greedy(p, width, span_rows, rows)

    def test_gf2_packed_path(self, monkeypatch):
        asked, reached, scanned, generic, kernels = _spy_gf2(monkeypatch)
        rng = np.random.default_rng(59)
        cases = ((64, 96, 120), (30, 150, 60), (300, 40, 200),
                 (1, 2, 3), (7, 3, 9), (9, 0, 12), (65, 10, 20))
        for width, n_span, n_rows in cases:
            for kind in ("full", "deficient"):
                span_rows = _random_matrix(rng, 2, (n_span, width), "deficient")
                rows = _random_matrix(rng, 2, (n_rows, width), kind)
                got = independent_rows(span_rows, rows, 2)
                assert got.tolist() == _greedy(2, width, span_rows, rows)
        # one forward scan each, of the stack's rows or of its columns,
        # whichever are fewer (so the scan width is the larger count), and no RREF
        assert asked == reached == generic == kernels == []
        assert scanned == [max(width, n_span + n_rows)
                           for width, n_span, n_rows in cases for _ in range(2)]

    def test_empty_span_no_rows_and_zero_rows(self):
        empty = np.zeros((0, 4), dtype=np.int64)
        assert independent_rows(empty, empty, 5).tolist() == []
        assert independent_rows([[1, 0, 0, 0]], empty, 5).tolist() == []
        assert independent_rows(empty, np.zeros((3, 4), dtype=np.int64), 5).tolist() == []
        rows = [[0, 5, 0, 0], [0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [1, 4, 0, 0]]
        assert independent_rows(empty, rows, 5).tolist() == [1, 2]
        assert independent_rows([[0, 0, 0, 0]], rows, 5).tolist() == [1, 2]
        assert independent_rows([[0, 1, 0, 0]], rows, 5).tolist() == [2]

    def test_zero_width_rows_span_the_zero_space(self):
        for p in (2, 3, 5):
            for rows in ([], np.zeros((0, 0), dtype=np.int64), np.zeros((3, 0), dtype=np.int64)):
                assert independent_rows(rows, np.zeros((2, 0), dtype=np.int64), p).tolist() == []
                assert FpSubspace(p, 0, rows) == FpSubspace(p, 0, [])
                span = FpSubspace(p, 0)
                span.add_rows(rows)
                assert span.dim == 0 and select(span, np.zeros((4, 0), dtype=np.int64)).tolist() == []

    def test_more_rows_than_width(self):
        rng = np.random.default_rng(61)
        empty = np.zeros((0, 4), dtype=np.int64)
        for p in (2, 3, 101):
            rows = rng.integers(0, p, size=(30, 4))
            got = independent_rows(empty, rows, p)
            assert got.tolist() == _greedy(p, 4, empty, rows)
            assert len(got) == rref_array(rows, p)[1] <= 4

    def test_projective_module_resolution_terminates(self):
        """A projective module's minimal resolution stops after P_0: later
        stages meet an empty kernel, (0, 0) for the zero module, and
        selection must not run on it."""
        from modcoh import catalog
        from modcoh.gmodules import GModule, direct_sum, regular_module
        from modcoh.resolutions import complexity, free_resolution, is_projective
        D8 = catalog.get_group("D8")
        zero = GModule(D8, 2, np.zeros((8, 0, 0), dtype=np.int64))
        regular = regular_module(D8, 2)
        for M in (zero, regular, direct_sum(regular, regular)):
            assert is_projective(M)
            assert complexity(M) == 0
            assert free_resolution(M, 4, minimal=True).ranks == [M.dim // 8, 0, 0, 0, 0]
