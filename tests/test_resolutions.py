import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoh import catalog
from modcoh.errors import (
    ElementaryAbelianInput,
    InsufficientData,
    InvariantViolation,
    MinimalityUnavailable,
    SeriesTooShort,
)
from modcoh.gmodules import (
    direct_sum,
    dual_module,
    permutation_module,
    regular_module,
    restrict_module,
    tensor_module,
    trivial_module,
)
from modcoh.groups import center, sylow
from modcoh.resolutions import (
    DimSeries,
    FreeResolution,
    auto_poincare_fit,
    chouinard_projective,
    cohomology_dims,
    complexity,
    complexity_elementary_max,
    ext_dims,
    free_resolution,
    growth_rate,
    is_projective,
    krull_dimension_estimate,
    maximal_subgroup_projectivity,
    minimal_rank_identity_check,
    poincare_fit,
    pole_order_at_one,
    syzygy,
    trivial_resolution,
)

from corpus import build_corpus


class TestConstruction:
    def test_regular_module_resolves_itself(self, D8):
        res = free_resolution(regular_module(D8, 2), 3, minimal=True)
        assert res.ranks == [1, 0, 0, 0]
        res.check_exactness()

    def test_z2_minimal_is_multiplication_by_g_minus_1(self, Z2):
        res = trivial_resolution(Z2, 2, 5)
        assert res.ranks[:6] == [1] * 6
        for i in range(1, 6):
            assert res.boundaries[i - 1].tolist() == [[1], [1]]
            assert res.boundary(i).tolist() == [[1, 1], [1, 1]]
        res.check_exactness()

    def test_odd_p_alternating_ranks(self, Z3):
        res = trivial_resolution(Z3, 3, 6)
        assert res.ranks[:7] == [1] * 7
        # boundary ranks alternate: (t-1) has rank p-1, the norm has rank 1
        from modcoh.fplinalg import rref_array
        got = [rref_array(res.boundary(i), 3)[1] for i in range(1, 7)]
        assert got == [2, 1, 2, 1, 2, 1]
        res.check_exactness()

    def test_exactness_nontrivial_modules(self, Q8):
        M = permutation_module(Q8, center(Q8), 2)
        res = free_resolution(M, 4, minimal=True)
        res.check_exactness()
        assert res.ranks == [1, 1, 1, 1, 1]

    def test_boundary_matches_translation_loop(self, D8, S4):
        cases = [(trivial_module(D8, 2), True, False),
                 (trivial_module(S4, 3), False, False),
                 (permutation_module(S4, sylow(S4, 2), 2), False, True)]
        cases += [(M, M.group.is_p_group(2), False) for _, M in build_corpus(6, seed=5)]
        for M, minimal, pad in cases:
            res = free_resolution(M, 4, minimal=minimal, pad_rank0=pad)
            for i in range(1, res.length + 1):
                assert np.array_equal(res.boundary(i), _boundary_by_loop(res, i))

    def test_corrupted_generator_column_breaks_exactness(self, Q8):
        res = FreeResolution(trivial_module(Q8, 2), minimal=True).extend_to(3)
        res.check_exactness()
        res.boundaries[1][0, 0] ^= 1
        with pytest.raises(InvariantViolation):
            res.check_exactness()

    def test_minimal_images_in_radical(self, D8):
        res = trivial_resolution(D8, 2, 5)
        assert res.minimal
        for i in range(1, res.length + 1):
            assert res.image_in_radical(i)

    def test_padded_stage_zero_image_leaves_radical(self, D8):
        # e_0 - e_1 lies in ker(augmentation) but not in I . F_p[G]^2
        res = free_resolution(trivial_module(D8, 2), 2, pad_rank0=True)
        assert not res.image_in_radical(1)

    def test_prime_above_max_prime_raises(self):
        from modcoh.errors import PrimeTooLarge
        with pytest.raises(PrimeTooLarge):
            cohomology_dims(catalog.get_group("Z5"), 4294967311, 4)

    def test_minimal_rejected_for_non_p_group(self, A4):
        with pytest.raises(MinimalityUnavailable):
            free_resolution(trivial_module(A4, 2), 3, minimal=True)

    def test_deterministic_serialization(self, Q8):
        a = free_resolution(trivial_module(Q8, 2), 4, minimal=True)
        b = free_resolution(trivial_module(Q8, 2), 4, minimal=True)
        assert a.to_text() == b.to_text()

    def test_golden_file_z4(self, Z4):
        import pathlib
        res = free_resolution(trivial_module(Z4, 2), 4, minimal=True)
        golden = pathlib.Path(__file__).parent / "data" / \
            "z4_minimal_resolution.txt"
        assert res.to_text() == golden.read_text()


def _boundary_by_loop(res, i):
    """d_i built generator by generator from its column, as once stored."""
    n = res.group.order
    W = res.boundaries[i - 1]
    D = np.zeros((W.shape[0], W.shape[1] * n), dtype=np.int64)
    for k in range(W.shape[1]):
        shaped = W[:, k].reshape(-1, n)[:, res._take]  # (rank_prev, |G|, n)
        D[:, k * n:(k + 1) * n] = shaped.transpose(1, 0, 2).reshape(n, -1).T
    return D


class TestSyzygy:
    def test_omega_zero(self, D8):
        M = trivial_module(D8, 2)
        assert syzygy(M, 0) is M

    def test_omega_one_of_regular_vanishes(self, Z4):
        assert syzygy(regular_module(Z4, 2), 1).dim == 0

    def test_omega_one_of_trivial_over_z2(self, Z2):
        om = syzygy(trivial_module(Z2, 2), 1)
        assert om.dim == 1
        assert om.is_trivial()

    def test_omega_modules_satisfy_representation(self, Q8):
        for i in (1, 2, 3):
            syzygy(trivial_module(Q8, 2), i).check_representation()


class TestExtDims:
    def test_maschke(self, Z3):
        series = cohomology_dims(Z3, 2, 6)
        assert series.dims == (1, 0, 0, 0, 0, 0, 0)

    def test_q8_series(self, Q8):
        assert cohomology_dims(Q8, 2, 7).dims == (1, 2, 2, 1, 1, 2, 2, 1)

    def test_kunneth_rank_two(self, V4):
        assert cohomology_dims(V4, 2, 4).dims == (1, 2, 3, 4, 5)

    def test_d8_series(self, D8):
        assert cohomology_dims(D8, 2, 4).dims == (1, 2, 3, 4, 5)

    def test_a4_series(self, A4):
        assert cohomology_dims(A4, 2, 7).dims == (1, 0, 1, 2, 1, 2, 3, 2)

    def test_s4_series(self, S4):
        assert cohomology_dims(S4, 2, 6).dims == (1, 1, 2, 3, 3, 4, 5)

    def test_resolution_independence(self, Q8):
        triv = trivial_module(Q8, 2)
        minimal = free_resolution(triv, 6, minimal=True)
        padded = free_resolution(triv, 6, minimal=False, pad_rank0=True)
        assert padded.ranks[0] == minimal.ranks[0] + 1
        a = ext_dims(triv, triv, 5, resolution=minimal)
        b = ext_dims(triv, triv, 5, resolution=padded)
        assert a.dims == b.dims

    def test_resolution_independence_nontrivial_coefficients(self, D8):
        triv = trivial_module(D8, 2)
        N = permutation_module(D8, center(D8), 2)
        minimal = free_resolution(triv, 5, minimal=True)
        padded = free_resolution(triv, 5, minimal=False, pad_rank0=True)
        assert ext_dims(triv, N, 4, resolution=minimal).dims == \
            ext_dims(triv, N, 4, resolution=padded).dims

    def test_kunneth_convolution(self, Z2, V4):
        z2 = cohomology_dims(Z2, 2, 6).dims
        v4 = cohomology_dims(V4, 2, 6).dims
        prod = catalog.make_direct_product(catalog.get_group("Z2"),
                                           catalog.get_group("Z2"))
        got = cohomology_dims(prod, 2, 6).dims
        conv = tuple(sum(z2[j] * z2[i - j] for j in range(i + 1))
                     for i in range(7))
        assert got == conv == v4

    def test_kunneth_convolution_mixed_order(self):
        prod = catalog.make_direct_product(catalog.get_group("Z2"),
                                           catalog.get_group("Z3"))
        assert cohomology_dims(prod, 2, 5).dims == \
            cohomology_dims(catalog.get_group("Z2"), 2, 5).dims

    def test_kunneth_convolution_z4_z2(self):
        prod = catalog.make_direct_product(catalog.get_group("Z4"),
                                           catalog.get_group("Z2"))
        a = cohomology_dims(catalog.get_group("Z4"), 2, 6).dims
        b = cohomology_dims(catalog.get_group("Z2"), 2, 6).dims
        conv = tuple(sum(a[j] * b[i - j] for j in range(i + 1))
                     for i in range(7))
        assert cohomology_dims(prod, 2, 6).dims == conv

    def test_exactness_on_corpus_sample(self):
        for name, M in build_corpus(6, seed=3):
            minimal = M.group.is_p_group(2)
            res = free_resolution(M, 3, minimal=minimal)
            res.check_exactness()
            if minimal:
                for i in range(1, res.length + 1):
                    assert res.image_in_radical(i)

    def test_shapiro_for_center_coset_module(self, Q8):
        # H^*(Q8, F_2[Q8/Z]) = H^*(Z, F_2) by Shapiro: all ones
        triv = trivial_module(Q8, 2)
        M = permutation_module(Q8, center(Q8), 2)
        assert ext_dims(triv, M, 6).dims == (1,) * 7

    def test_minimal_resolution_has_zero_hom_differentials(self, D8, Q8):
        # minimality <=> the Hom complex into the trivial module has zero
        # differentials, so dims equal ranks
        from modcoh.resolutions import _hom_delta
        for P in (D8, Q8):
            triv = trivial_module(P, 2)
            res = free_resolution(triv, 6, minimal=True)
            for i in range(5):
                assert not _hom_delta(res, triv, i).any()
            assert ext_dims(triv, triv, 5, resolution=res).dims == \
                tuple(res.ranks[:6])


class TestMinimalRankIdentity:
    @pytest.mark.parametrize("name", ["Z2", "Z4", "Q8", "D8"])
    def test_trivial_regular_and_center_coset(self, name):
        P = catalog.get_group(name)
        mods = [trivial_module(P, 2), regular_module(P, 2),
                permutation_module(P, center(P), 2)]
        for M in mods:
            assert minimal_rank_identity_check(M, 6)


class TestProjectivity:
    def test_regular_is_projective(self, S4):
        assert is_projective(regular_module(S4, 2))
        assert chouinard_projective(regular_module(S4, 2))

    def test_trivial_is_not(self, D8):
        assert not is_projective(trivial_module(D8, 2))
        assert not chouinard_projective(trivial_module(D8, 2))

    def test_center_coset_module_not_projective(self, Q8):
        M = permutation_module(Q8, center(Q8), 2)
        assert not is_projective(M)
        assert not chouinard_projective(M)
        assert not maximal_subgroup_projectivity(M)

    def test_maximal_subgroup_examples(self, Z4, Q8):
        assert maximal_subgroup_projectivity(regular_module(Z4, 2))
        assert not maximal_subgroup_projectivity(trivial_module(Q8, 2))

    def test_maximal_subgroup_rejects_elementary_abelian(self, V4):
        with pytest.raises(ElementaryAbelianInput):
            maximal_subgroup_projectivity(trivial_module(V4, 2))

    def test_regular_tensor_anything_is_free(self, D8):
        R = regular_module(D8, 2)
        M = permutation_module(D8, center(D8), 2)
        T = tensor_module(R, M)
        assert is_projective(T)
        from modcoh.gmodules import coinvariants
        assert coinvariants(T) == M.dim

    def test_restricted_regular_is_free(self, D8):
        from modcoh.groups import subgroup_closure
        H = subgroup_closure(D8, [D8.generator_indices[0]])
        assert is_projective(restrict_module(regular_module(D8, 2), H))

    def test_triad_agreement_on_corpus(self):
        from modcoh.resolutions import _is_elementary_abelian
        for name, M in build_corpus(20):
            direct = is_projective(M)
            assert chouinard_projective(M) == direct
            G = M.group
            if G.is_p_group(2) and not _is_elementary_abelian(G, 2):
                assert maximal_subgroup_projectivity(M) == direct


class TestGrowthAndComplexity:
    def test_eventually_zero(self):
        assert growth_rate([1, 0, 0, 0, 0, 0, 0]) == 0

    def test_constant(self):
        assert growth_rate([1] * 8) == 1

    def test_linear(self):
        assert growth_rate(list(range(1, 10))) == 2

    def test_quadraticish(self):
        dims = [(i + 1) * (i + 2) // 2 for i in range(10)]
        assert growth_rate(dims) == 3

    def test_periodic_bounded(self):
        assert growth_rate([1, 2, 2, 1] * 4) == 1

    def test_periodic_with_zeros(self):
        assert growth_rate([1, 0, 0, 1] * 4) == 1

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            growth_rate([1, 1, 1])

    def test_aperiodic_series_rejected(self):
        from modcoh.errors import NoFitFound
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
        with pytest.raises(NoFitFound):
            growth_rate(primes)

    def test_maximal_subgroup_test_requires_p_group(self, A4):
        with pytest.raises(MinimalityUnavailable):
            maximal_subgroup_projectivity(trivial_module(A4, 2))

    def test_complexity_projective(self, Q8):
        assert complexity(regular_module(Q8, 2)) == 0

    def test_complexity_trivial_z2(self, Z2):
        assert complexity(trivial_module(Z2, 2)) == 1

    def test_complexity_trivial_d8_and_quillen(self, D8):
        M = trivial_module(D8, 2)
        assert complexity(M) == 2
        assert complexity_elementary_max(M) == 2

    def test_quillen_equality_on_corpus(self):
        for name, M in build_corpus(12, seed=7):
            assert complexity(M) == complexity_elementary_max(M)


class TestPoincareFit:
    def test_all_ones(self):
        fit = poincare_fit([1] * 8, [1])
        assert fit.numerator == (1,)

    def test_q8_denominator_four(self, Q8):
        series = cohomology_dims(Q8, 2, 10)
        fit = poincare_fit(series, [4])
        assert fit.numerator == (1, 2, 2, 1)
        assert fit.verified_through == 10

    def test_trivial_series_empty_denominator(self):
        fit = poincare_fit([1, 0, 0, 0, 0], [])
        assert fit.numerator == (1,)

    def test_no_fit(self, D8):
        series = cohomology_dims(D8, 2, 8)
        assert poincare_fit(series, [4]) is None

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            poincare_fit([1, 1, 1], [1, 2])

    def test_auto_fit_d8(self, D8):
        fit = auto_poincare_fit(cohomology_dims(D8, 2, 10), 16)
        assert pole_order_at_one(fit) == 2

    def test_auto_fit_a4(self, A4):
        fit = auto_poincare_fit(cohomology_dims(A4, 2, 12), 24)
        assert pole_order_at_one(fit) == 2


class TestSeriesProperties:
    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
           st.lists(st.integers(1, 4), min_size=0, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_poincare_fit_roundtrip(self, num, exps):
        # numerator degree must stay within the denominator budget
        total = sum(exps)
        num = num[: total + 1]
        if not num or not any(num):
            num = [1]
        series = catalog.expand_rational(num, exps, total + 6)
        fit = poincare_fit(series, exps)
        assert fit is not None
        want = list(num)
        while want and want[-1] == 0:
            want.pop()
        assert list(fit.numerator) == (want or [0])

    @given(st.integers(0, 2), st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_growth_rate_on_quasi_polynomials(self, degree, period, data):
        coeffs = data.draw(st.lists(
            st.integers(1, 3), min_size=period, max_size=period))
        dims = [coeffs[i % period] * (i + 1) ** degree for i in range(24)]
        assert growth_rate(dims) == degree + 1


class TestKrull:
    @pytest.mark.parametrize("name,p,expected", [
        ("Z2", 2, 1), ("Z3", 3, 1), ("Z4", 2, 1),
        ("D8", 2, 2), ("Q8", 2, 1), ("Z2xZ2", 2, 2),
    ])
    def test_pole_orders(self, name, p, expected):
        G = catalog.get_group(name)
        assert krull_dimension_estimate(G, p) == expected

    def test_maschke_pole_zero(self, Z3):
        assert krull_dimension_estimate(Z3, 2, max_deg=8) == 0


class TestCatalogGolden:
    @pytest.mark.parametrize("name", [n for n in catalog.names()
                                      if catalog.REGISTRY[n].expected])
    def test_dims_match_expected(self, name):
        G = catalog.get_group(name)
        for rec in catalog.REGISTRY[name].expected:
            deg = rec.verified_through
            got = cohomology_dims(G, rec.p, deg).dims
            want = catalog.expected_dims(name, rec.p, deg).dims
            assert got == want, (name, rec.p)

    def test_expected_series_nonnegative(self):
        for name in catalog.names(include_stretch=True):
            for rec in catalog.REGISTRY[name].expected:
                dims = catalog.expand_rational(
                    rec.numerator, rec.denominator_exponents, 12)
                assert all(d >= 0 for d in dims), name

    def test_venkov_rationality(self):
        for name in catalog.names():
            G = catalog.get_group(name)
            for rec in catalog.REGISTRY[name].expected:
                series = cohomology_dims(G, rec.p, 12)
                fit = auto_poincare_fit(series, max_part=2 * G.order)
                assert fit is not None
