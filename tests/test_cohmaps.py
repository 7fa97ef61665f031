import numpy as np
import pytest

from modcoh import catalog, fplinalg
from modcoh.cohmaps import (
    CochainContext,
    MapBuilder,
    context,
    induced_map,
    stable_subspace,
    trivial_coefficients,
    _coset_sum_cochain,
    _transfer_reps,
)
from modcoh.errors import InvariantViolation, SylowNotAbelian
from modcoh.gmodules import permutation_module, regular_module, trivial_module
from modcoh.groups import (
    Permutation,
    center,
    conjugate_subgroup,
    maximal_subgroups,
    prime_factors,
    subgroup_closure,
    sylow,
    trivial_subgroup,
    whole_group,
)
from modcoh.products import CupRing
from modcoh.resolutions import cohomology_dims, trivial_resolution

from cochain_oracle import (
    cochain_differential,
    complex_through,
    coset_sum_block,
    coset_sum_matrix,
    coset_tables,
    densify,
)
from group_oracle import element_index
from maps_oracle import abelian_sylow_check, conjugation_map, detection_check, to_csv
from resolution_oracle import solve_batch


def sub_by_perms(G, perms):
    return subgroup_closure(G, [element_index(G, Permutation(p)) for p in perms])


class TestCohBasis:
    def test_degree_zero_single_constant(self, D8):
        b = context(D8, trivial_coefficients(D8, 2)).basis(0)
        assert b.dim == 1

    def test_z2_every_degree_one_class(self, Z2):
        M = trivial_coefficients(Z2, 2)
        for i in range(6):
            assert context(Z2, M).basis(i).dim == 1

    def test_a4_degree_one_empty(self, A4):
        assert context(A4, trivial_coefficients(A4, 2)).basis(1).dim == 0

    def test_zero_cohomology_rejects_non_cocycles(self, S4):
        ctx = context(S4, trivial_coefficients(S4, 3))
        b = ctx.basis(2)
        cobound = ctx.coboundaries(2)
        assert b.dim == 0 and len(cobound)
        assert b.class_coordinates(cobound.T).shape == (0, len(cobound))
        delta = ctx.differential(2)
        v = np.zeros(ctx.cochain_dim(2), dtype=np.int64)
        v[np.flatnonzero(delta.any(axis=0))[0]] = 4  # 1 mod 3
        with pytest.raises(InvariantViolation):
            b.class_coordinates(v)
        with pytest.raises(InvariantViolation):
            b.class_coordinates(np.column_stack([cobound[0], v]))

    def test_representatives_are_cocycles(self, Q8):
        M = trivial_coefficients(Q8, 2)
        ctx = context(Q8, M)
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
            via_ctx = tuple(context(G, M, H).basis(i).dim
                            for i in range(5))
            assert via_ctx == own

    def test_complex_composes_to_zero(self, S4):
        ctx = context(S4, trivial_coefficients(S4, 2), sylow(S4, 2))
        complex_through(ctx, 4).check_composition(2)


class TestDifferentialOracle:
    """The coset-table differential against the per-coset loop it replaced."""

    # 2^23 entries is 64 MB of int64.  Above it are only the Z3Q16
    # regular-module differentials on the centre (degree 1) and the trivial
    # subgroup (degrees 0 and 1): 127 MB to 510 MB each, the same gather at
    # a larger size, at a cost of seconds per prime.
    MAX_ENTRIES = 1 << 23

    @pytest.mark.parametrize("name,p", [
        ("D8", 2), ("Q8", 2), ("A4", 2), ("A4", 3), ("S4", 2), ("S4", 3),
        ("Z3Q16", 2), ("Z3Q16", 3), ("D6", 2), ("D6", 3),
    ])
    def test_bit_identical_to_loop(self, name, p):
        G = catalog.get_group(name)
        res = trivial_resolution(G, p, 4)
        subgroups = {S.member_indices: S for S in (
            whole_group(G), sylow(G, p), center(G), trivial_subgroup(G))}
        for S in subgroups.values():
            for M, top in ((trivial_module(G, p), 3), (regular_module(G, p), 1)):
                ctx = CochainContext(res, S, M)
                rep_of, s_of = coset_tables(G, S, ctx.transversal)
                assert np.array_equal(ctx._rep_of, rep_of)
                assert np.array_equal(ctx._s_of, s_of)
                for i in range(top + 1):
                    if ctx.cochain_dim(i) * ctx.cochain_dim(i + 1) > self.MAX_ENTRIES:
                        continue
                    got, want = ctx.differential(i), cochain_differential(ctx, i)
                    assert got.dtype == want.dtype, (S.order, M.dim, i)
                    assert np.array_equal(got, want), (S.order, M.dim, i)


class TestCosetSumIndexMap:
    """The index map of each coset sum against the dense block loop it replaced."""

    CASES = [(name, p, None) for name in catalog.names() for p in (2, 3)] + \
        [("D8", 2, "permutation")]

    @pytest.mark.parametrize("name,p,module", CASES,
                             ids=[f"{n}-{p}-{m or 'trivial'}" for n, p, m in CASES])
    def test_densified_matches_block_loop(self, name, p, module):
        G = catalog.get_group(name)
        M = permutation_module(G, center(G), p) if module else trivial_module(G, p)
        found = [whole_group(G), sylow(G, 2), sylow(G, 3), center(G), trivial_subgroup(G)]
        found += [subgroup_closure(G, [g]) for g in G.generator_indices]
        subgroups = list({S.member_indices: S for S in found}.values())

        def check(S, T, C):
            src, dst = context(G, M, S), context(G, M, T)
            cosets, actions = _coset_sum_cochain(src, dst, C)
            assert cosets.shape == actions.shape[:2] == (len(C), len(dst.transversal))
            assert np.array_equal(densify(src, (cosets, actions)),
                                  coset_sum_block(src, dst, C)), (S, T, C)
            return cosets.size

        for S in subgroups:
            for T in subgroups:
                if set(T.member_indices) <= set(S.member_indices):
                    check(S, T, [0])
                if set(S.member_indices) <= set(T.member_indices):
                    # [T : S] [G : T] = [G : S] entries
                    reps = _transfer_reps(G, S, T)
                    assert check(S, T, reps) == G.order // S.order
            for g in range(G.order):
                for T in (conjugate_subgroup(G, S, g), trivial_subgroup(G)):
                    # one entry per coset of the target
                    assert check(S, T, [g]) == G.order // T.order

    @pytest.mark.parametrize("name,p", [("S3", 2), ("A4", 2), ("S4", 2), ("S4", 3)])
    def test_induced_map_matches_block_product(self, name, p):
        """induced_map against the product with the dense block, on a
        permutation module whose action matrices are not symmetric."""
        G = catalog.get_group(name)
        t = next(g for g in range(G.order) if G.element_order(g) == 2)
        M = permutation_module(G, subgroup_closure(G, [t]), p)
        W, P = whole_group(G), sylow(G, p)
        g = next(g for g in range(G.order) if G.element_order(g) == 3)
        cases = [(W, P, [0]), (P, W, _transfer_reps(G, P, W)),
                 (P, conjugate_subgroup(G, P, g), [g])]
        nonzero = 0
        for i in range(4):
            for S, T, C in cases:
                src, dst = context(G, M, S), context(G, M, T)
                got = induced_map(src, dst, _coset_sum_cochain(src, dst, C), i).matrix
                sb, tb = src.basis(i), dst.basis(i)
                if sb.dim == 0:
                    assert got.shape == (tb.dim, 0)
                    continue
                block = coset_sum_block(src, dst, C)
                images = (sb.classes.reshape(-1, block.shape[1]) @ block.T) % p
                want = tb.class_coordinates(images.reshape(sb.dim, -1).T)
                assert np.array_equal(got, want), (S, T, C, i)
                nonzero += bool(got.any())
        assert nonzero


def _check_coordinates(basis, coboundaries, p, rng):
    """class_coordinates against solve_batch on random cocycles of the basis,
    and a rejected vector outside the span of classes and coboundaries."""
    B = np.vstack([basis.classes, coboundaries]) if len(coboundaries) else basis.classes
    x = rng.integers(0, p, size=(4, len(B)))
    x[0] = 0
    v = (x @ B) % p
    got = basis.class_coordinates(v.T)
    want = solve_batch(B.T, v.T, p)
    assert np.array_equal(got, want[: basis.dim])
    assert np.array_equal(got, x[:, : basis.dim].T)
    reduced, rank = fplinalg.rref_array(B, p)
    units = np.eye(B.shape[1], dtype=np.int64)
    outside = fplinalg.residual_rows(units, reduced[:rank], p).any(axis=1).nonzero()[0]
    if len(outside):
        with pytest.raises(InvariantViolation):
            basis.class_coordinates(np.column_stack([v[1], units[outside[0]]]))
    return bool(len(outside))


CATALOG_PRIMES = [(name, p) for name in catalog.names()
                  for p in prime_factors(catalog.get_group(name).order)]


class TestClassCoordinates:
    """The one-elimination class_coordinates against a fresh solve_batch."""

    @pytest.mark.parametrize("name,p", CATALOG_PRIMES)
    def test_contexts_match_solve_batch(self, name, p):
        G = catalog.get_group(name)
        M = trivial_coefficients(G, p)
        rng = np.random.default_rng(G.order * p)
        cyclic = next(subgroup_closure(G, [g]) for g in range(G.order)
                      if G.element_order(g) == p)
        for S in (whole_group(G), sylow(G, p), cyclic):
            ctx = context(G, M, S)
            for i in range(5):
                b = ctx.basis(i)
                rejected = _check_coordinates(b, ctx.coboundaries(i), p, rng)
                # classes and coboundaries span Z^i: a vector lies outside
                # exactly when delta^i is nonzero, and such a vector raises
                delta = ctx.differential(i)
                assert rejected == bool(delta.any())
                if rejected:
                    e = np.zeros(ctx.cochain_dim(i), dtype=np.int64)
                    e[np.flatnonzero(delta.any(axis=0))[0]] = 1
                    with pytest.raises(InvariantViolation):
                        b.class_coordinates(e)

    @pytest.mark.parametrize("name,p", CATALOG_PRIMES)
    def test_cup_ring_bases_match_solve_batch(self, name, p):
        G = catalog.get_group(name)
        ring = CupRing(G, p, 4)
        rng = np.random.default_rng(G.order + p)
        for i in range(5):
            b = ring.basis(i)
            assert ring.basis(i) is b
            width = ring.resolution.ranks[i]
            rejected = _check_coordinates(b, np.zeros((0, width), dtype=np.int64), p, rng)
            assert rejected == (b.dim < width)


class TestRestriction:
    def test_whole_group_identity(self, D8):
        M = trivial_coefficients(D8, 2)
        r = MapBuilder(D8, M).restriction(whole_group(D8), 2)
        assert np.array_equal(r.matrix, np.eye(r.source.dim, dtype=np.int64))

    def test_a4_to_sylow_injective_degree2(self, A4):
        M = trivial_coefficients(A4, 2)
        r = MapBuilder(A4, M).restriction(sylow(A4, 2), 2)
        assert r.rank() == 1 == r.source.dim

    def test_z4_to_z2_degree1_zero(self, Z4):
        M = trivial_coefficients(Z4, 2)
        sq = int(Z4.mul[Z4.generator_indices[0], Z4.generator_indices[0]])
        H = subgroup_closure(Z4, [sq])
        r = MapBuilder(Z4, M).restriction(H, 1)
        assert r.rank() == 0 and r.source.dim == 1

    def test_transitivity(self, D8, S4):
        # res^K_H res^G_K = res^G_H for chains H <= K <= G
        M = trivial_coefficients(D8, 2)
        maps_d8 = MapBuilder(D8, M)
        K = subgroup_closure(D8, [D8.generator_indices[0]])        # Z4
        sq = int(D8.mul[D8.generator_indices[0], D8.generator_indices[0]])
        H = subgroup_closure(D8, [sq])                             # Z2 center
        for i in range(4):
            via_k = maps_d8.restriction(H, i, K).matrix @ \
                maps_d8.restriction(K, i).matrix
            direct = maps_d8.restriction(H, i).matrix
            assert np.array_equal(via_k % 2, direct)
        MS = trivial_coefficients(S4, 2)
        maps_s4 = MapBuilder(S4, MS)
        P = sylow(S4, 2)
        V = sub_by_perms(S4, [(1, 0, 3, 2), (2, 3, 0, 1)])
        for i in range(4):
            via_p = maps_s4.restriction(V, i, P).matrix @ \
                maps_s4.restriction(P, i).matrix
            assert np.array_equal(via_p % 2, maps_s4.restriction(V, i).matrix)

    def test_cochain_level_chain_map(self, S4):
        M = trivial_coefficients(S4, 2)
        src = context(S4, M)
        dst = context(S4, M, sylow(S4, 2))
        for i in range(3):
            phi_i = coset_sum_matrix(src, dst, i, [0])
            phi_next = coset_sum_matrix(src, dst, i + 1, [0])
            lhs = (dst.differential(i) @ phi_i) % 2
            rhs = (phi_next @ src.differential(i)) % 2
            assert np.array_equal(lhs, rhs)


class TestTransfer:
    def test_tr_res_is_index_in_intermediate_subgroup(self, S4):
        # H = Z3 < K = A4 < S4 at p = 3: tr^K_H res^K_H is [K:H] = 4 = 1,
        # while the cosets of H in all of S4 would give [S4:H] = 8 = 2
        M = trivial_coefficients(S4, 3)
        maps = MapBuilder(S4, M)
        K = sub_by_perms(S4, [(1, 2, 0, 3), (1, 0, 3, 2)])
        H = sub_by_perms(S4, [(1, 2, 0, 3)])
        assert (K.order, H.order) == (12, 3)
        for i in range(4):
            comp = (maps.transfer(H, i, K).matrix @
                    maps.restriction(H, i, K).matrix) % 3
            assert np.array_equal(comp, np.eye(len(comp), dtype=np.int64)), i

    def test_whole_group_identity(self, Q8):
        M = trivial_coefficients(Q8, 2)
        t = MapBuilder(Q8, M).transfer(whole_group(Q8), 3)
        assert np.array_equal(t.matrix, np.eye(t.source.dim, dtype=np.int64))

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_tr_res_is_index_z4(self, Z4, i):
        M = trivial_coefficients(Z4, 2)
        maps = MapBuilder(Z4, M)
        sq = int(Z4.mul[Z4.generator_indices[0], Z4.generator_indices[0]])
        H = subgroup_closure(Z4, [sq])
        comp = (maps.transfer(H, i).matrix @ maps.restriction(H, i).matrix) % 2
        assert not comp.any()  # index 2 = 0 mod 2

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_tr_res_is_index_a4(self, A4, i):
        M = trivial_coefficients(A4, 2)
        maps = MapBuilder(A4, M)
        V = sylow(A4, 2)
        comp = (maps.transfer(V, i).matrix @ maps.restriction(V, i).matrix) % 2
        assert np.array_equal(comp, np.eye(comp.shape[0], dtype=np.int64))

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_tr_res_is_index_s4(self, S4, i):
        M = trivial_coefficients(S4, 2)
        maps = MapBuilder(S4, M)
        P = sylow(S4, 2)
        comp = (maps.transfer(P, i).matrix @ maps.restriction(P, i).matrix) % 2
        assert np.array_equal(comp, np.eye(comp.shape[0], dtype=np.int64))

    def test_tr_res_odd_prime(self, A4):
        M = trivial_coefficients(A4, 3)
        maps = MapBuilder(A4, M)
        P = sylow(A4, 3)
        for i in range(4):
            comp = (maps.transfer(P, i).matrix @
                    maps.restriction(P, i).matrix) % 3
            # index [A4 : Z3] = 4 = 1 mod 3
            assert np.array_equal(comp, np.eye(comp.shape[0], dtype=np.int64))

    def test_cochain_level_chain_map(self, A4):
        M = trivial_coefficients(A4, 2)
        dst = context(A4, M)
        src = context(A4, M, sylow(A4, 2))
        for i in range(3):
            reps = _transfer_reps(A4, src.subgroup, dst.subgroup)
            phi_i = coset_sum_matrix(src, dst, i, reps)
            phi_next = coset_sum_matrix(src, dst, i + 1, reps)
            lhs = (dst.differential(i) @ phi_i) % 2
            rhs = (phi_next @ src.differential(i)) % 2
            assert np.array_equal(lhs, rhs)


class TestConjugation:
    def test_identity_element(self, D8):
        M = trivial_coefficients(D8, 2)
        H = subgroup_closure(D8, [D8.generator_indices[1]])
        c = conjugation_map(MapBuilder(D8, M), 0, H, 2)
        assert np.array_equal(c.matrix, np.eye(c.source.dim, dtype=np.int64))

    def test_inner_conjugation_trivial(self, S4):
        # g inside H acts as the identity on H^*(H)
        M = trivial_coefficients(S4, 2)
        P = sylow(S4, 2)
        for g in list(P.member_indices)[1:3]:
            for i in range(4):
                c = conjugation_map(MapBuilder(S4, M), g, P, i)
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
            c = conjugation_map(MapBuilder(D8, M), rot, H, i)
            assert c.rank() == 1  # isomorphism in each degree

    def test_cochain_level_chain_map(self, S4):
        M = trivial_coefficients(S4, 2)
        P = sylow(S4, 2)
        g = next(g for g in range(S4.order) if g not in P)
        dst = context(S4, M, conjugate_subgroup(S4, P, g))
        src = context(S4, M, P)
        for i in range(3):
            phi_i = coset_sum_matrix(src, dst, i, [g])
            phi_next = coset_sum_matrix(src, dst, i + 1, [g])
            lhs = (dst.differential(i) @ phi_i) % 2
            rhs = (phi_next @ src.differential(i)) % 2
            assert np.array_equal(lhs, rhs)


class TestDoubleCoset:
    def test_whole_group_both_sides_identity(self, Q8):
        M = trivial_coefficients(Q8, 2)
        W = whole_group(Q8)
        assert MapBuilder(Q8, M).double_coset_identity(W, W, 3)

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_z4(self, Z4, i):
        M = trivial_coefficients(Z4, 2)
        sq = int(Z4.mul[Z4.generator_indices[0], Z4.generator_indices[0]])
        H = subgroup_closure(Z4, [sq])
        assert MapBuilder(Z4, M).double_coset_identity(H, H, i)

    @pytest.mark.parametrize("i", [0, 1, 2, 3])
    def test_s4_sylow(self, S4, i):
        M = trivial_coefficients(S4, 2)
        P = sylow(S4, 2)
        assert MapBuilder(S4, M).double_coset_identity(P, P, i)

    @pytest.mark.parametrize("i", [0, 1, 2, 3, 4])
    def test_a4_sylow(self, A4, i):
        M = trivial_coefficients(A4, 2)
        V = sylow(A4, 2)
        assert MapBuilder(A4, M).double_coset_identity(V, V, i)

    def test_mixed_subgroups(self, D8):
        M = trivial_coefficients(D8, 2)
        H = subgroup_closure(D8, [D8.generator_indices[0]])   # Z4
        K = subgroup_closure(D8, [D8.generator_indices[1]])   # reflection Z2
        for i in range(4):
            assert MapBuilder(D8, M).double_coset_identity(H, K, i)


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
        got = tuple(context(D8, M).basis(i).dim
                    for i in range(5))
        assert got == want == (1,) * 5  # Shapiro: H^*(Z/2)

    def test_transfer_restriction_composite(self, D8):
        from modcoh.gmodules import permutation_module
        M = permutation_module(D8, center(D8), 2)
        maps = MapBuilder(D8, M)
        H = subgroup_closure(D8, [D8.generator_indices[0]])  # Z/4, index 2
        for i in range(4):
            comp = (maps.transfer(H, i).matrix @
                    maps.restriction(H, i).matrix) % 2
            assert not comp.any()  # index 2 = 0 mod 2

    def test_double_coset_identity_module_coefficients(self, D8):
        from modcoh.gmodules import permutation_module
        M = permutation_module(D8, center(D8), 2)
        H = subgroup_closure(D8, [D8.generator_indices[0]])
        K = subgroup_closure(D8, [D8.generator_indices[1]])
        for i in range(3):
            assert MapBuilder(D8, M).double_coset_identity(H, K, i)


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
        r = MapBuilder(A4, M).restriction(sylow(A4, 2), 2)
        text = to_csv(r)
        rows = [line.split(",") for line in text.strip().splitlines()]
        assert len(rows) == r.target.dim
        assert all(len(row) == r.source.dim for row in rows)

    def test_cohmap_csv_deterministic(self, A4):
        M = trivial_coefficients(A4, 2)
        a = to_csv(MapBuilder(A4, M).restriction(sylow(A4, 2), 3))
        b = to_csv(MapBuilder(A4, M).restriction(sylow(A4, 2), 3))
        assert a == b
