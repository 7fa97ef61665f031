import itertools

import numpy as np
import pytest

from modcoh import catalog, fplinalg
from modcoh.errors import GroupMismatch, RepresentationError
from modcoh.gmodules import (
    GModule,
    ModuleHom,
    coinvariants,
    direct_sum,
    dual_module,
    induce_module,
    invariants,
    module_from_generator_matrices,
    permutation_module,
    regular_module,
    restrict_module,
    tensor_module,
    trivial_module,
)
from modcoh.groups import center, subgroup_closure, sylow, trivial_subgroup, whole_group


def find_equivariant_iso(M, N):
    """Search the hom space for an invertible equivariant matrix.

    Kernel of the stacked equivariance system over the generators, then a
    deterministic scan of small combinations of basis homs.
    """
    assert M.group is N.group and M.p == N.p and M.dim == N.dim
    p, d = M.p, M.dim
    blocks = []
    eye = np.eye(d, dtype=np.int64)
    for g in M.group.generator_indices:
        # X A_g - B_g X = 0  as  (A_g^T (x) I - I (x) B_g) vec(X) = 0
        blocks.append(np.kron(M.action[g].T, eye) - np.kron(eye, N.action[g]))
    basis = fplinalg.kernel_array(np.vstack(blocks) % p, p)
    for r in (1, 2, 3):
        for combo in itertools.combinations(range(len(basis)), r):
            for coeffs in itertools.product(range(1, p), repeat=r):
                vec = sum(c * basis[i] for c, i in zip(coeffs, combo)) % p
                X = vec.reshape(d, d)
                _, rank = fplinalg.rref_array(X, p)
                if rank == d:
                    hom = ModuleHom(M, N, X)
                    assert hom.is_equivariant()
                    return X
    return None


class TestConstructors:
    def test_trivial(self, Q8):
        M = trivial_module(Q8, 2, 3)
        M.check_representation()
        assert invariants(M).dim == 3
        H = subgroup_closure(Q8, [Q8.generator_indices[0]])
        assert restrict_module(M, H).is_trivial()

    def test_regular(self, D8):
        M = regular_module(D8, 2)
        M.check_representation()
        assert M.dim == 8
        assert invariants(M).dim == 1
        assert coinvariants(M) == 1
        # the norm vector spans the invariants
        assert invariants(M).contains_vector(np.ones(8, dtype=int))

    def test_regular_swap_for_z2(self, Z2):
        M = regular_module(Z2, 2)
        assert M.action[1].tolist() == [[0, 1], [1, 0]]

    def test_permutation_module_cosets(self, Q8):
        Z = center(Q8)
        M = permutation_module(Q8, Z, 2)
        M.check_representation()
        assert M.dim == 4
        for z in Z.member_indices:
            assert np.array_equal(M.action[z], np.eye(4, dtype=np.int64))

    def test_permutation_module_extremes(self, D8):
        assert permutation_module(D8, whole_group(D8), 2).dim == 1
        M = permutation_module(D8, trivial_subgroup(D8), 2)
        R = regular_module(D8, 2)
        assert np.array_equal(M.action, R.action)


class TestRestriction:
    def test_restrict_regular_is_free(self, D8):
        M = regular_module(D8, 2)
        H = subgroup_closure(D8, [D8.generator_indices[0]])  # Z/4
        res = restrict_module(M, H)
        res.check_representation()
        # free of rank [G:H]: H-orbits on the basis are free orbits
        assert coinvariants(res) == D8.order // H.order
        assert invariants(res).dim == D8.order // H.order

    def test_restrict_center_coset_module_to_center(self, Q8):
        Z = center(Q8)
        M = permutation_module(Q8, Z, 2)
        res = restrict_module(M, Z)
        assert res.is_trivial()
        assert res.dim == 4


class TestInduction:
    def test_induce_trivial_matches_permutation_module(self, Q8):
        Z = center(Q8)
        M = trivial_module(Z.as_group(), 2, 1)
        ind = induce_module(M, Z)
        perm = permutation_module(Q8, Z, 2)
        assert np.array_equal(ind.action, perm.action)

    def test_induce_from_whole_group(self, D8):
        W = whole_group(D8)
        M = regular_module(W.as_group(), 2)
        ind = induce_module(M, W)
        assert ind.dim == M.dim
        assert np.array_equal(ind.action, M.action)

    def test_induce_regular_z2_to_z4(self, Z4):
        H = subgroup_closure(Z4, [int(Z4.mul[Z4.generator_indices[0],
                                             Z4.generator_indices[0]])])
        M = regular_module(H.as_group(), 2)
        ind = induce_module(M, H)
        ind.check_representation()
        R = regular_module(Z4, 2)
        assert ind.dim == 4
        assert find_equivariant_iso(ind, R) is not None


class TestDualTensor:
    def test_dual_trivial(self, D8):
        assert dual_module(trivial_module(D8, 2, 2)).is_trivial()

    def test_double_dual_identical(self, Q8):
        Z = center(Q8)
        M = permutation_module(Q8, Z, 2)
        assert np.array_equal(dual_module(dual_module(M)).action, M.action)

    def test_dual_regular_isomorphic_to_regular(self, Q8):
        R = regular_module(Q8, 2)
        assert find_equivariant_iso(dual_module(R), R) is not None

    def test_tensor_with_trivial(self, D8):
        Z = center(D8)
        M = permutation_module(D8, Z, 2)
        T = tensor_module(M, trivial_module(D8, 2, 1))
        assert np.array_equal(T.action, M.action)

    def test_tensor_dims_multiply(self, A4):
        M = trivial_module(A4, 2, 2)
        N = permutation_module(A4, sylow(A4, 2), 2)
        assert tensor_module(M, N).dim == 6

    def test_tensor_group_mismatch(self, D8, Q8):
        with pytest.raises(GroupMismatch):
            tensor_module(trivial_module(D8, 2), trivial_module(Q8, 2))


class TestInvariantsCoinvariants:
    def test_trivial_module_full(self, Q8):
        assert invariants(trivial_module(Q8, 2, 4)).dim == 4
        assert coinvariants(trivial_module(Q8, 2, 4)) == 4

    def test_transitive_permutation_module_line(self, D8):
        # transitive G-set: one orbit, so one invariant line and one coinvariant
        M = permutation_module(D8, center(D8), 2)
        assert invariants(M).dim == 1
        assert coinvariants(M) == 1

    def test_free_module_rank(self, Z4):
        R = regular_module(Z4, 2)
        F = direct_sum(R, R)
        assert coinvariants(F) == 2
        assert invariants(F).dim == 2

    def test_duality_dimensions(self, D8):
        Z = center(D8)
        mods = [trivial_module(D8, 2, 2),
                permutation_module(D8, Z, 2),
                regular_module(D8, 2)]
        for M in mods:
            assert invariants(M).dim == coinvariants(dual_module(M))


class TestRepresentationProperty:
    def test_exhaustive_on_catalog_modules(self, D8, Q8, A4):
        Zd, Zq = center(D8), center(Q8)
        mods = [regular_module(D8, 2), permutation_module(D8, Zd, 2),
                dual_module(permutation_module(Q8, Zq, 2)),
                tensor_module(permutation_module(Q8, Zq, 2),
                              permutation_module(Q8, Zq, 2)),
                permutation_module(A4, sylow(A4, 3), 2)]
        for M in mods:
            M.check_representation()

    def test_invalid_action_rejected(self, Z2):
        bad = np.zeros((2, 2, 2), dtype=np.int64)
        bad[0] = np.eye(2)
        bad[1] = np.array([[0, 1], [1, 1]])  # order 3 over F_2, so g^2 != 1
        M = GModule(Z2, 2, bad, validate=False)
        with pytest.raises(RepresentationError):
            M.check_representation()

    def test_large_non_representation_rejected_on_construction(self, S4):
        # dim 24 over S4: |G|^2 dim^3 is about 8e6, so a size budget would
        # skip the check; it must run on every construction
        bad = regular_module(S4, 2).action.copy()
        bad[[1, 2]] = bad[[2, 1]]  # permutation matrices, wrong elements
        with pytest.raises(RepresentationError):
            GModule(S4, 2, bad)

    def test_generator_check_matches_all_pairs(self, D8, Q8, A4):
        """Checking generators only agrees with the check of every pair."""
        def all_pairs_ok(M):
            A, mul, p = M.action, M.group.mul, M.p
            return np.array_equal(A[0], np.eye(M.dim, dtype=np.int64)) and all(
                np.array_equal((A[g] @ A[h]) % p, A[mul[g, h]])
                for g in range(M.group.order) for h in range(M.group.order))

        rng = np.random.default_rng(5)
        mods = [regular_module(D8, 3), permutation_module(Q8, center(Q8), 2),
                permutation_module(A4, sylow(A4, 3), 2)]
        for M in mods:
            n = M.group.order
            cases = [M.action]
            for _ in range(6):
                bad = M.action.copy()
                g, h = rng.choice(n, size=2, replace=False)
                bad[g] = M.action[h]
                cases.append(bad)
            # wrong on a whole coset x<s> but consistent along it, so only
            # the generators other than s can see it
            for s in M.group.generator_indices:
                C = subgroup_closure(M.group, [s])
                x = next(g for g in range(n) if g not in C)
                bad = M.action.copy()
                for c in C.member_indices:
                    bad[M.group.mul[x, c]] = M.action[c]
                cases.append(bad)
            for action in cases:
                trial = GModule(M.group, M.p, action, validate=False)
                try:
                    trial.check_representation()
                    ok = True
                except RepresentationError:
                    ok = False
                assert ok == all_pairs_ok(trial)


class TestFromGeneratorMatrices:
    def test_regular_rebuild(self, Z4):
        R = regular_module(Z4, 2)
        mats = [R.action[i] for i in Z4.generator_indices]
        M = module_from_generator_matrices(Z4, 2, 4, mats)
        assert np.array_equal(M.action, R.action)

    def test_rejects_inconsistent_matrices(self, Z4):
        bad = np.array([[0, 1], [1, 1]])  # order 3 over F_2 breaks g^4 = 1
        with pytest.raises(RepresentationError):
            module_from_generator_matrices(Z4, 2, 2, [bad])
