import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoh.errors import BadParameters, GroupTooLarge, NonPermutation
from modcoh.groups import (
    DoubleCosetDecomposition,
    FiniteGroup,
    Permutation,
    Subgroup,
    center,
    coset_representatives,
    double_cosets,
    elementary_abelian_subgroups,
    frattini_subgroup,
    generate_group,
    is_isomorphic,
    is_p_power,
    maximal_subgroups,
    normalizer,
    p_rank,
    prime_factors,
    right_coset_representatives,
    subgroup_closure,
    sylow,
    trivial_subgroup,
    whole_group,
)

# local constructions so this file does not depend on the catalog module


def cyclic(n):
    return generate_group(n, [Permutation(tuple(range(1, n)) + (0,))], name=f"Z{n}")


def dihedral8():
    rot = Permutation((1, 2, 3, 0))
    flip = Permutation((0, 3, 2, 1))
    return generate_group(4, [rot, flip], name="D8")


QUAT_UNITS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
_QMUL = {}


def _qmul(a, b):
    """Quaternion unit multiplication on the symbols above."""
    def parse(u):
        return (-1 if u.startswith("-") else 1, u.lstrip("-"))

    table = {("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
             ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
             ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
             ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")}
    sa, la = parse(a)
    sb, lb = parse(b)
    if la == "1":
        s, l = sa * sb, lb
    elif lb == "1":
        s, l = sa * sb, la
    else:
        sc, lc = table[(la, lb)]
        s, l = sa * sb * sc, lc
    return ("-" if s < 0 else "") + l if l != "1" or s > 0 else "-1"


def quaternion8():
    def right_translation(u):
        return Permutation(tuple(QUAT_UNITS.index(_qmul(QUAT_UNITS[x], u))
                                 for x in range(8)))

    return generate_group(8, [right_translation("i"), right_translation("j")],
                          name="Q8")


def alternating4():
    return generate_group(4, [Permutation((1, 2, 0, 3)),
                              Permutation((1, 0, 3, 2))], name="A4")


def symmetric4():
    return generate_group(4, [Permutation((1, 2, 3, 0)),
                              Permutation((1, 0, 2, 3))], name="S4")


def brute_closure_size(degree, generators):
    """Independent closure oracle on raw image tuples."""
    seen = {tuple(range(degree))}
    frontier = list(seen)
    gens = [g.images for g in generators]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple(x[i] for i in g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen)


class TestGenerateGroup:
    def test_order_two(self):
        G = generate_group(2, [Permutation((1, 0))])
        assert G.order == 2

    def test_d8_order_matches_brute_closure(self):
        G = dihedral8()
        assert G.order == 8
        assert G.order == brute_closure_size(4, [G.elements[i] for i in G.generator_indices])

    def test_q8_has_unique_involution(self):
        G = quaternion8()
        assert G.order == 8
        involutions = [g for g in range(G.order) if G.element_order(g) == 2]
        assert len(involutions) == 1

    def test_rejects_non_permutation(self):
        with pytest.raises(NonPermutation):
            Permutation((0, 0))

    def test_size_cap(self):
        with pytest.raises(GroupTooLarge):
            generate_group(4, [Permutation((1, 2, 3, 0)),
                               Permutation((1, 0, 2, 3))], cap=10)

    def test_deterministic_rebuild(self):
        a, b = dihedral8(), dihedral8()
        assert [e.images for e in a.elements] == [e.images for e in b.elements]
        assert np.array_equal(a.mul, b.mul)

    def test_mul_table_associativity_spot(self):
        G = alternating4()
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b, c = rng.integers(0, G.order, size=3)
            assert G.mul[G.mul[a, b], c] == G.mul[a, G.mul[b, c]]

    def test_identity_row_and_column(self):
        G = dihedral8()
        assert np.array_equal(G.mul[0], np.arange(G.order))
        assert np.array_equal(G.mul[:, 0], np.arange(G.order))


def dihedral_on(n):
    """Dihedral group of order 2n acting on n points."""
    rot = Permutation(tuple(range(1, n)) + (0,))
    flip = Permutation((0,) + tuple(range(n - 1, 0, -1)))
    return generate_group(n, [rot, flip], name=f"D{2 * n}")


def _loop_tables(G):
    """Reference mul table from a dict of image tuples, inverses row by row."""
    index = {e.images: i for i, e in enumerate(G.elements)}
    mul = np.array([[index[tuple(a.images[y] for y in b.images)]
                     for b in G.elements] for a in G.elements])
    inv = np.array([int(np.nonzero(row == 0)[0][0]) for row in mul])
    return mul, inv


class TestMulTable:
    @pytest.mark.parametrize("make", [
        lambda: cyclic(1), lambda: cyclic(12), lambda: cyclic(48), dihedral8,
        quaternion8, alternating4, symmetric4, lambda: dihedral_on(50)])
    def test_matches_loop_construction(self, make):
        G = make()
        mul, inv = _loop_tables(G)
        assert G.mul.dtype == np.int32 and G.inv.dtype == np.int32
        assert np.array_equal(G.mul, mul)
        assert np.array_equal(G.inv, inv)

    def test_rejects_unclosed_elements(self):
        elements = [Permutation((0, 1, 2)), Permutation((1, 2, 0))]
        with pytest.raises(BadParameters, match="not closed under product"):
            FiniteGroup(3, elements, (1,))

    def test_rejects_non_generating_generators(self):
        # a representation is checked on the generators only, so they must
        # generate; here they span the rotations of D8 and nothing more
        G = dihedral8()
        rot = G.generator_indices[0]
        with pytest.raises(BadParameters, match="do not generate"):
            FiniteGroup(G.degree, G.elements, (rot,))

    def test_rejects_table_without_unique_inverses(self):
        elements = [Permutation((0, 1)), Permutation((1, 0))]
        with pytest.raises(BadParameters, match="not a group table"):
            FiniteGroup(2, elements, (1,), mul_table=[[0, 1], [1, 1]])


class TestSubgroups:
    def test_closure_of_identity(self):
        G = dihedral8()
        assert subgroup_closure(G, [0]).order == 1

    def test_closure_of_central_rotation_is_center(self):
        G = dihedral8()
        rot2 = G.mul[G.generator_indices[0], G.generator_indices[0]]
        S = subgroup_closure(G, [int(rot2)])
        assert S.order == 2
        assert S == center(G)

    def test_closure_of_generators_is_whole_group(self):
        G = symmetric4()
        assert subgroup_closure(G, G.generator_indices).order == 24

    def test_lagrange_on_all_cyclic_subgroups(self):
        G = symmetric4()
        for g in range(G.order):
            assert G.order % subgroup_closure(G, [g]).order == 0

    def test_center_abelian_group(self):
        G = cyclic(6)
        assert center(G).order == 6

    def test_center_q8(self):
        G = quaternion8()
        Z = center(G)
        assert Z.order == 2
        assert G.element_order(Z.member_indices[1]) == 2


class TestPrimeFactors:
    def test_against_naive_definition(self):
        primes = [q for q in range(2, 2001) if all(q % d for d in range(2, q))]
        for n in range(0, 2001):
            want = [q for q in primes if q <= n and n % q == 0]
            assert prime_factors(n) == want, n

    def test_p_power(self):
        powers = {(p ** k, p) for p in (2, 3, 5, 7, 11) for k in range(12)}
        for p in (2, 3, 5, 7, 11):
            for n in range(1, 3000):
                assert is_p_power(n, p) == ((n, p) in powers), (n, p)


class TestSylow:
    def test_z6_at_3(self):
        G = cyclic(6)
        S = sylow(G, 3)
        assert S.order == 3

    def test_a4_at_2_normal(self):
        G = alternating4()
        S = sylow(G, 2)
        assert S.order == 4
        assert S.is_normal()

    def test_s4_at_2_is_dihedral(self):
        G = symmetric4()
        S = sylow(G, 2)
        assert S.order == 8
        assert is_isomorphic(S.as_group(), dihedral8())

    def test_trivial_when_p_does_not_divide(self):
        assert sylow(cyclic(5), 3).order == 1

    def test_deterministic(self):
        G = symmetric4()
        assert sylow(G, 2) == sylow(G, 2)


def oracle_elementary_abelian(G, p):
    """Independent enumeration: closures of small sets of order-p elements."""
    from itertools import combinations
    elems = [g for g in range(1, G.order) if G.element_order(g) == p]
    found = set()
    for r in range(1, 4):
        for combo in combinations(elems, r):
            S = subgroup_closure(G, combo)
            ok = S.is_abelian() and all(
                G.element_order(x) in (1, p) for x in S.member_indices)
            if ok:
                found.add(S.member_indices)
    return found


class TestElementaryAbelian:
    def test_z4(self):
        G = cyclic(4)
        subs = elementary_abelian_subgroups(G, 2)
        assert [s.order for s in subs] == [2]

    def test_d8_counts(self):
        G = dihedral8()
        subs = elementary_abelian_subgroups(G, 2)
        assert [s.order for s in subs].count(2) == 5
        assert [s.order for s in subs].count(4) == 2
        assert {s.member_indices for s in subs} == oracle_elementary_abelian(G, 2)

    def test_q8_unique(self):
        G = quaternion8()
        subs = elementary_abelian_subgroups(G, 2)
        assert len(subs) == 1 and subs[0].order == 2

    def test_p_rank_values(self):
        assert p_rank(quaternion8(), 2) == 1
        assert p_rank(dihedral8(), 2) == 2
        assert p_rank(cyclic(8), 2) == 1
        assert p_rank(cyclic(9), 3) == 1
        assert p_rank(cyclic(5), 2) == 0

    def test_p_rank_consistent_with_enumeration(self):
        G = symmetric4()
        subs = elementary_abelian_subgroups(G, 2)
        biggest = max(s.order for s in subs)
        assert 2 ** p_rank(G, 2) == biggest


class TestNormalizerCosets:
    def test_normal_subgroup_normalizer_is_whole(self):
        G = alternating4()
        V = sylow(G, 2)
        assert normalizer(G, V).order == 12

    def test_a4_sylow3_self_normalizing(self):
        G = alternating4()
        P = sylow(G, 3)
        assert normalizer(G, P).order == 3

    def test_s4_sylow2_self_normalizing(self):
        G = symmetric4()
        P = sylow(G, 2)
        assert normalizer(G, P) == Subgroup(G, P.member_indices)

    def test_coset_reps_whole(self):
        G = cyclic(4)
        assert coset_representatives(G, whole_group(G)) == [0]

    def test_coset_reps_index_two(self):
        G = cyclic(4)
        H = subgroup_closure(G, [G.mul[G.generator_indices[0], G.generator_indices[0]]])
        reps = coset_representatives(G, H)
        assert len(reps) == 2

    def test_coset_reps_partition(self):
        G = alternating4()
        H = sylow(G, 2)
        reps = coset_representatives(G, H)
        assert len(reps) == 3
        seen = set()
        for r in reps:
            coset = {int(G.mul[r, h]) for h in H.member_indices}
            assert not (coset & seen)
            seen |= coset
        assert len(seen) == 12

    def test_right_coset_reps_partition(self):
        G = symmetric4()
        H = sylow(G, 2)
        reps = right_coset_representatives(G, H)
        seen = set()
        for r in reps:
            coset = {int(G.mul[h, r]) for h in H.member_indices}
            assert not (coset & seen)
            seen |= coset
        assert len(seen) == 24


class TestDoubleCosets:
    def test_whole_group(self):
        G = cyclic(6)
        dc = double_cosets(G, whole_group(G), whole_group(G))
        assert len(dc.blocks) == 1

    def test_trivial_subgroups(self):
        G = cyclic(4)
        dc = double_cosets(G, trivial_subgroup(G), trivial_subgroup(G))
        assert len(dc.blocks) == 4
        assert all(len(b) == 1 for b in dc.blocks)

    def test_s4_sylow_blocks(self):
        G = symmetric4()
        H = sylow(G, 2)
        dc = double_cosets(G, H, H)
        assert sum(len(b) for b in dc.blocks) == 24
        union = set()
        for rep, block in zip(dc.reps, dc.blocks):
            assert rep in block
            assert rep == min(block)
            # stability under left H and right H multiplication
            for h in H.member_indices:
                assert all(int(G.mul[h, x]) in block for x in block)
                assert all(int(G.mul[x, h]) in block for x in block)
            union |= block
        assert union == set(range(24))

    def test_block_size_formula(self):
        # |HgK| = |H| |K| / |H^g n K| with H^g = g^{-1} H g
        G = symmetric4()
        H = sylow(G, 2)
        K = subgroup_closure(G, [next(g for g in range(G.order)
                                      if G.element_order(g) == 3)])
        dc = double_cosets(G, H, K)
        for rep, block in zip(dc.reps, dc.blocks):
            conj = Subgroup(G, [G.conjugate(int(G.inv[rep]), x)
                                for x in H.member_indices])
            inter = len(set(conj.member_indices) & set(K.member_indices))
            assert len(block) == H.order * K.order // inter


class TestMaximalSubgroups:
    def test_z4(self):
        G = cyclic(4)
        maxes = maximal_subgroups(G)
        assert [m.order for m in maxes] == [2]

    def test_d8(self):
        G = dihedral8()
        maxes = maximal_subgroups(G)
        assert [m.order for m in maxes] == [4, 4, 4]
        assert all(center(G).member_indices[1] in m for m in maxes)

    def test_q8(self):
        G = quaternion8()
        maxes = maximal_subgroups(G)
        assert [m.order for m in maxes] == [4, 4, 4]
        for m in maxes:
            assert m.as_group().is_abelian()

    def test_frattini_of_q8_is_center(self):
        G = quaternion8()
        assert frattini_subgroup(G, 2) == center(G)


class TestIsomorphism:
    def test_distinguishes_d8_q8(self):
        assert not is_isomorphic(dihedral8(), quaternion8())

    def test_cyclic_relabelings(self):
        a = cyclic(6)
        b = generate_group(6, [Permutation((2, 3, 4, 5, 0, 1)),
                               Permutation((3, 4, 5, 0, 1, 2))], name="Z6b")
        assert is_isomorphic(a, b)


@given(st.integers(2, 10))
@settings(max_examples=9, deadline=None)
def test_cyclic_group_orders(n):
    G = cyclic(n)
    assert G.order == n
    assert G.is_abelian()
    assert G.element_order(G.generator_indices[0]) == n


@given(st.permutations(list(range(5))))
@settings(max_examples=40, deadline=None)
def test_single_generator_closure_is_cyclic(images):
    G = generate_group(5, [Permutation(tuple(images))])
    g = G.generator_indices[0] if G.order > 1 else 0
    assert G.order == G.element_order(g)
