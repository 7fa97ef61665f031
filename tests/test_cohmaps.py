import numpy as np
import pytest

from modcoh import catalog
from modcoh.cohmaps import (
    abelian_sylow_check,
    coh_basis,
    conjugation,
    context,
    detection_check,
    double_coset_identity_check,
    restriction,
    stable_subspace,
    transfer,
    trivial_coefficients,
    _coset_sum_cochain,
    _transfer_reps,
)
from modcoh.errors import SylowNotAbelian
from modcoh.groups import (
    Permutation,
    center,
    conjugate_subgroup,
    maximal_subgroups,
    subgroup_closure,
    sylow,
    trivial_subgroup,
    whole_group,
)
from modcoh.resolutions import cohomology_dims


def sub_by_perms(G, perms):
    return subgroup_closure(G, [G.element_index(Permutation(p)) for p in perms])


class TestCohBasis:
    def test_degree_zero_single_constant(self, D8):
        b = coh_basis(D8, trivial_coefficients(D8, 2), 0)
        assert b.dim == 1

    def test_z2_every_degree_one_class(self, Z2):
        M = trivial_coefficients(Z2, 2)
        for i in range(6):
            assert coh_basis(Z2, M, i).dim == 1

    def test_a4_degree_one_empty(self, A4):
        assert coh_basis(A4, trivial_coefficients(A4, 2), 1).dim == 0

    def test_representatives_are_cocycles(self, Q8):
        M = trivial_coefficients(Q8, 2)
        ctx = context(Q8, M, length=5)
        for i in range(4):
            b = ctx.basis(i)
            delta = ctx.differential(i)
            if b.dim:
                assert not ((delta @ b.classes.T) % 2).any()

    def test_subgroup_context_matches_standalone_dims(self, S4, D8, A4):
        cases = [(S4, sylow(S4, 2)), (A4, sylow(A4, 2)),
                 (D8, subgroup_closure(D8, [D8.generator_indices[0]]))]
        for G, H in cases:
            M = trivial_coefficients(G, 2)
            own = cohomology_dims(H.as_group(), 2, 4).dims
            via_ctx = tuple(context(G, M, H, length=i + 1).basis(i).dim
                            for i in range(5))
            assert via_ctx == own

    def test_complex_composes_to_zero(self, S4):
        ctx = context(S4, trivial_coefficients(S4, 2), sylow(S4, 2), length=5)
        ctx.complex_through(4).check_composition(2)


class TestRestriction:
    def test_whole_group_identity(self, D8):
        M = trivial_coefficients(D8, 2)
        r = restriction(D8, whole_group(D8), M, 2)
        assert np.array_equal(r.matrix, np.eye(r.source.dim, dtype=np.int64))

    def test_a4_to_sylow_injective_degree2(self, A4):
        M = trivial_coefficients(A4, 2)
        r = restriction(A4, sylow(A4, 2), M, 2)
        assert r.rank() == 1 == r.source.dim

    def test_z4_to_z2_degree1_zero(self, Z4):
        M = trivial_coefficients(Z4, 2)
        sq = int(Z4.mul[Z4.generator_indices[0], Z4.generator_indices[0]])
        H = subgroup_closure(Z4, [sq])
        r = restriction(Z4, H, M, 1)
        assert r.rank() == 0 and r.source.dim == 1

    def test_transitivity(self, D8, S4):
        # res^K_H res^G_K = res^G_H for chains H <= K <= G
        M = trivial_coefficients(D8, 2)
        K = subgroup_closure(D8, [D8.generator_indices[0]])        # Z4
        sq = int(D8.mul[D8.generator_indices[0], D8.generator_indices[0]])
        H = subgroup_closure(D8, [sq])                             # Z2 center
        for i in range(4):
            via_k = restriction(D8, H, M, i, K=K).matrix @ \
                restriction(D8, K, M, i).matrix
            direct = restriction(D8, H, M, i).matrix
            assert np.array_equal(via_k % 2, direct)
        MS = trivial_coefficients(S4, 2)
        P = sylow(S4, 2)
        V = sub_by_perms(S4, [(1, 0, 3, 2), (2, 3, 0, 1)])
        for i in range(4):
            via_p = restriction(S4, V, MS, i, K=P).matrix @ \
                restriction(S4, P, MS, i).matrix
            assert np.array_equal(via_p % 2, restriction(S4, V, MS, i).matrix)

    def test_cochain_level_chain_map(self, S4):
        M = trivial_coefficients(S4, 2)
        src = context(S4, M, length=4)
        dst = context(S4, M, sylow(S4, 2), length=4)
        for i in range(3):
            phi_i = _coset_sum_cochain(src, dst, i, [0])
            phi_next = _coset_sum_cochain(src, dst, i + 1, [0])
            lhs = (dst.differential(i) @ phi_i) % 2
            rhs = (phi_next @ src.differential(i)) % 2
            assert np.array_equal(lhs, rhs)


class TestTransfer:
    def test_tr_res_is_index_in_intermediate_subgroup(self, S4):
        # H = Z3 < K = A4 < S4 at p = 3: tr^K_H res^K_H is [K:H] = 4 = 1,
        # while the cosets of H in all of S4 would give [S4:H] = 8 = 2
        M = trivial_coefficients(S4, 3)
        K = sub_by_perms(S4, [(1, 2, 0, 3), (1, 0, 3, 2)])
        H = sub_by_perms(S4, [(1, 2, 0, 3)])
        assert (K.order, H.order) == (12, 3)
        for i in range(4):
            comp = (transfer(S4, H, M, i, K=K).matrix @
                    restriction(S4, H, M, i, K=K).matrix) % 3
            assert np.array_equal(comp, np.eye(len(comp), dtype=np.int64)), i

    def test_whole_group_identity(self, Q8):
        M = trivial_coefficients(Q8, 2)
        t = transfer(Q8, whole_group(Q8), M, 3)
        assert np.array_equal(t.matrix, np.eye(t.source.dim, dtype=np.int64))

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_tr_res_is_index_z4(self, Z4, i):
        M = trivial_coefficients(Z4, 2)
        sq = int(Z4.mul[Z4.generator_indices[0], Z4.generator_indices[0]])
        H = subgroup_closure(Z4, [sq])
        comp = (transfer(Z4, H, M, i).matrix @ restriction(Z4, H, M, i).matrix) % 2
        assert not comp.any()  # index 2 = 0 mod 2

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_tr_res_is_index_a4(self, A4, i):
        M = trivial_coefficients(A4, 2)
        V = sylow(A4, 2)
        comp = (transfer(A4, V, M, i).matrix @ restriction(A4, V, M, i).matrix) % 2
        assert np.array_equal(comp, np.eye(comp.shape[0], dtype=np.int64))

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_tr_res_is_index_s4(self, S4, i):
        M = trivial_coefficients(S4, 2)
        P = sylow(S4, 2)
        comp = (transfer(S4, P, M, i).matrix @ restriction(S4, P, M, i).matrix) % 2
        assert np.array_equal(comp, np.eye(comp.shape[0], dtype=np.int64))

    def test_tr_res_odd_prime(self, A4):
        M = trivial_coefficients(A4, 3)
        P = sylow(A4, 3)
        for i in range(4):
            comp = (transfer(A4, P, M, i).matrix @
                    restriction(A4, P, M, i).matrix) % 3
            # index [A4 : Z3] = 4 = 1 mod 3
            assert np.array_equal(comp, np.eye(comp.shape[0], dtype=np.int64))

    def test_cochain_level_chain_map(self, A4):
        M = trivial_coefficients(A4, 2)
        dst = context(A4, M, length=4)
        src = context(A4, M, sylow(A4, 2), length=4)
        for i in range(3):
            reps = _transfer_reps(A4, src.subgroup, dst.subgroup)
            phi_i = _coset_sum_cochain(src, dst, i, reps)
            phi_next = _coset_sum_cochain(src, dst, i + 1, reps)
            lhs = (dst.differential(i) @ phi_i) % 2
            rhs = (phi_next @ src.differential(i)) % 2
            assert np.array_equal(lhs, rhs)


class TestConjugation:
    def test_identity_element(self, D8):
        M = trivial_coefficients(D8, 2)
        H = subgroup_closure(D8, [D8.generator_indices[1]])
        c = conjugation(D8, 0, H, M, 2)
        assert np.array_equal(c.matrix, np.eye(c.source.dim, dtype=np.int64))

    def test_inner_conjugation_trivial(self, S4):
        # g inside H acts as the identity on H^*(H)
        M = trivial_coefficients(S4, 2)
        P = sylow(S4, 2)
        for g in list(P.member_indices)[1:3]:
            for i in range(4):
                c = conjugation(S4, g, P, M, i)
                assert c.source is not None
                assert np.array_equal(
                    c.matrix, np.eye(c.source.dim, dtype=np.int64))

    def test_conjugate_reflection_subgroups(self, D8):
        M = trivial_coefficients(D8, 2)
        H = subgroup_closure(D8, [D8.generator_indices[1]])  # noncentral Z2
        rot = D8.generator_indices[0]
        target = conjugate_subgroup(D8, H, rot)
        assert target != H
        for i in range(1, 4):
            c = conjugation(D8, rot, H, M, i)
            assert c.rank() == 1  # isomorphism in each degree

    def test_cochain_level_chain_map(self, S4):
        M = trivial_coefficients(S4, 2)
        P = sylow(S4, 2)
        g = next(g for g in range(S4.order) if g not in P)
        dst = context(S4, M, conjugate_subgroup(S4, P, g), length=4)
        src = context(S4, M, P, length=4)
        for i in range(3):
            phi_i = _coset_sum_cochain(src, dst, i, [g])
            phi_next = _coset_sum_cochain(src, dst, i + 1, [g])
            lhs = (dst.differential(i) @ phi_i) % 2
            rhs = (phi_next @ src.differential(i)) % 2
            assert np.array_equal(lhs, rhs)


class TestDoubleCoset:
    def test_whole_group_both_sides_identity(self, Q8):
        M = trivial_coefficients(Q8, 2)
        W = whole_group(Q8)
        assert double_coset_identity_check(Q8, W, W, M, 3)

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_z4(self, Z4, i):
        M = trivial_coefficients(Z4, 2)
        sq = int(Z4.mul[Z4.generator_indices[0], Z4.generator_indices[0]])
        H = subgroup_closure(Z4, [sq])
        assert double_coset_identity_check(Z4, H, H, M, i)

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_s4_sylow(self, S4, i):
        M = trivial_coefficients(S4, 2)
        P = sylow(S4, 2)
        assert double_coset_identity_check(S4, P, P, M, i)

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_a4_sylow(self, A4, i):
        M = trivial_coefficients(A4, 2)
        V = sylow(A4, 2)
        assert double_coset_identity_check(A4, V, V, M, i)

    def test_mixed_subgroups(self, D8):
        M = trivial_coefficients(D8, 2)
        H = subgroup_closure(D8, [D8.generator_indices[0]])   # Z4
        K = subgroup_closure(D8, [D8.generator_indices[1]])   # reflection Z2
        for i in range(4):
            assert double_coset_identity_check(D8, H, K, M, i)


class TestStableElements:
    def test_p_group_full_space(self, Q8):
        for i in range(5):
            dim, _ = stable_subspace(Q8, 2, i)
            assert dim == cohomology_dims(Q8, 2, i).dims[i]

    def test_a4_matches_dims(self, A4):
        dims = cohomology_dims(A4, 2, 7).dims
        got = tuple(stable_subspace(A4, 2, i)[0] for i in range(8))
        assert got == dims

    def test_s4_matches_dims(self, S4):
        dims = cohomology_dims(S4, 2, 6).dims
        got = tuple(stable_subspace(S4, 2, i)[0] for i in range(7))
        assert got == dims

    def test_s3_odd_prime(self):
        S3 = catalog.get_group("S3")
        dims = cohomology_dims(S3, 3, 6).dims
        got = tuple(stable_subspace(S3, 3, i)[0] for i in range(7))
        assert got == dims


class TestDetection:
    def test_whole_group_detects(self, S4):
        for i in range(4):
            assert detection_check(S4, 2, [whole_group(S4)], i)

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_s4_two_detectors(self, S4, i):
        V1 = sub_by_perms(S4, [(1, 0, 2, 3), (0, 1, 3, 2)])
        V2 = sub_by_perms(S4, [(1, 0, 3, 2), (2, 3, 0, 1)])
        assert detection_check(S4, 2, [V1, V2], i)

    def test_q8_undetectable_degrees(self, Q8):
        # the reduced classes in degrees 2 and 3 die on every proper subgroup;
        # the degree-4 periodicity class restricts nontrivially
        proper = maximal_subgroups(Q8) + [center(Q8), trivial_subgroup(Q8)]
        got = [detection_check(Q8, 2, proper, i) for i in range(5)]
        assert got == [True, True, False, False, True]


class TestAbelianSylow:
    def test_a4_at_3(self, A4):
        assert abelian_sylow_check(A4, 3, 7)
        assert cohomology_dims(A4, 3, 7).dims == (1,) * 8

    def test_s3_at_3_with_invariant_oracle(self):
        S3 = catalog.get_group("S3")
        assert abelian_sylow_check(S3, 3, 7)
        # oracle: Weyl group Z/2 negates both generators of H^*(Z/3), so the
        # degree-i monomial x^a y^b (a = i mod 2, b = (i - a)/2) survives iff
        # a + b is even
        expected = []
        for i in range(8):
            a = i % 2
            b = (i - a) // 2
            expected.append(1 if (a + b) % 2 == 0 else 0)
        assert cohomology_dims(S3, 3, 7).dims == tuple(expected)

    def test_p_group_trivially_true(self, Q8):
        Z4 = catalog.get_group("Z4")
        assert abelian_sylow_check(Z4, 2, 5)

    def test_rejects_nonabelian_sylow(self, S4):
        with pytest.raises(SylowNotAbelian):
            abelian_sylow_check(S4, 2, 3)


class TestNontrivialCoefficients:
    def test_context_dims_match_ext(self, D8):
        from modcoh.gmodules import permutation_module, trivial_module
        from modcoh.resolutions import ext_dims
        M = permutation_module(D8, center(D8), 2)
        want = ext_dims(trivial_module(D8, 2), M, 4).dims
        got = tuple(context(D8, M, length=i + 1).basis(i).dim
                    for i in range(5))
        assert got == want == (1,) * 5  # Shapiro: H^*(Z/2)

    def test_transfer_restriction_composite(self, D8):
        from modcoh.gmodules import permutation_module
        M = permutation_module(D8, center(D8), 2)
        H = subgroup_closure(D8, [D8.generator_indices[0]])  # Z/4, index 2
        for i in range(4):
            comp = (transfer(D8, H, M, i).matrix @
                    restriction(D8, H, M, i).matrix) % 2
            assert not comp.any()  # index 2 = 0 mod 2

    def test_double_coset_identity_module_coefficients(self, D8):
        from modcoh.gmodules import permutation_module
        M = permutation_module(D8, center(D8), 2)
        H = subgroup_closure(D8, [D8.generator_indices[0]])
        K = subgroup_closure(D8, [D8.generator_indices[1]])
        for i in range(3):
            assert double_coset_identity_check(D8, H, K, M, i)


class TestStableAcrossCatalog:
    @pytest.mark.parametrize("name,p,top", [
        ("D6", 2, 5), ("D6", 3, 5), ("Z6", 3, 4), ("Z12", 2, 4),
        ("Q16", 2, 5), ("S3", 3, 5), ("Z3Q16", 2, 4), ("Z3Q16", 3, 4),
    ])
    def test_dimension_equality(self, name, p, top):
        G = catalog.get_group(name)
        dims = cohomology_dims(G, p, top).dims
        got = tuple(stable_subspace(G, p, i)[0] for i in range(top + 1))
        assert got == dims


class TestExport:
    def test_cohmap_csv_shape(self, A4):
        M = trivial_coefficients(A4, 2)
        r = restriction(A4, sylow(A4, 2), M, 2)
        text = r.to_csv()
        rows = [line.split(",") for line in text.strip().splitlines()]
        assert len(rows) == r.target.dim
        assert all(len(row) == r.source.dim for row in rows)

    def test_cohmap_csv_deterministic(self, A4):
        M = trivial_coefficients(A4, 2)
        a = restriction(A4, sylow(A4, 2), M, 3).to_csv()
        b = restriction(A4, sylow(A4, 2), M, 3).to_csv()
        assert a == b
