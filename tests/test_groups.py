import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoh import fplinalg
from modcoh.errors import BadParameters, GroupTooLarge, NonPermutation
from modcoh.groups import (
    FiniteGroup,
    Permutation,
    Subgroup,
    center,
    conjugate_subgroup,
    coset_representatives,
    double_cosets,
    elementary_abelian_subgroups,
    extend_from_generators,
    generate_group,
    group_cache,
    homs_to_fp,
    intersect,
    is_p_power,
    mackey_terms,
    maximal_subgroups,
    normalizer,
    p_rank,
    prime_factors,
    require_prime,
    right_coset_table,
    subgroup_closure,
    sylow,
    trivial_subgroup,
    whole_group,
)

import group_oracle
from group_oracle import conjugate, element_index, is_abelian, is_elementary_abelian, is_normal
from corpus import is_isomorphic

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


def bfs_images(degree, generators):
    """Oracle enumeration: image tuples in generate_group's BFS order."""
    order = [tuple(range(degree))]
    seen = set(order)
    for x in order:  # the list grows behind the scan
        for g in generators:
            y = tuple(x[i] for i in g.images)
            if y not in seen:
                seen.add(y)
                order.append(y)
    return order


class TestGenerateGroup:
    def test_order_two(self):
        G = generate_group(2, [Permutation((1, 0))])
        assert G.order == 2

    def test_d8_order_matches_brute_closure(self):
        G = dihedral8()
        assert G.order == 8
        assert G.order == len(bfs_images(4, [G.elements[i] for i in G.generator_indices]))

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
        assert [e.images for e in G.elements] == list(map(tuple, G.images.tolist()))

    @pytest.mark.parametrize("degree,rows", [
        (2, [(0, 1), (1, 1)]), (2, [(0, 1), (1, 2)]), (3, [(0, 1), (1, 0)])])
    def test_rejects_rows_that_are_not_bijections(self, degree, rows):
        with pytest.raises(NonPermutation):
            FiniteGroup(degree, rows, (1,))

    @pytest.mark.parametrize("rows,match", [
        ([(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 2, 0)], "duplicate"),
        ([(1, 2, 0), (0, 1, 2), (2, 0, 1)], "identity")])
    def test_rejects_rows_out_of_group_order(self, rows, match):
        with pytest.raises(BadParameters, match=match):
            FiniteGroup(3, rows, (1,))

    def test_rejects_unclosed_elements(self):
        with pytest.raises(BadParameters, match="not closed under product"):
            FiniteGroup(3, [(0, 1, 2), (1, 2, 0)], (1,))

    def test_rejects_non_generating_generators(self):
        # a representation is checked on the generators only, so they must
        # generate; here they span the rotations of D8 and nothing more
        G = dihedral8()
        rot = G.generator_indices[0]
        with pytest.raises(BadParameters, match="do not generate"):
            FiniteGroup(G.degree, G.images, (rot,))


@st.composite
def generating_lists(draw):
    """Degree 0-7 and 0-3 generators, with the identity and repeats likely."""
    degree = draw(st.integers(0, 7))
    perms = st.permutations(list(range(degree))).map(lambda im: Permutation(tuple(im)))
    pool = draw(st.lists(perms, min_size=1, max_size=3)) + [Permutation.identity(degree)]
    return degree, draw(st.lists(st.sampled_from(pool), max_size=3))


LOOP_ORACLE_MAX_ORDER = 200  # _loop_tables is quadratic in pure Python


@given(generating_lists())
@settings(max_examples=80, deadline=None)
def test_generate_group_matches_loop_tables(case):
    degree, gens = case
    images = bfs_images(degree, gens)
    order = len(images)
    if order > LOOP_ORACLE_MAX_ORDER:
        with pytest.raises(GroupTooLarge):
            generate_group(degree, gens, cap=LOOP_ORACLE_MAX_ORDER)
        return
    G = generate_group(degree, gens, cap=order)
    assert [e.images for e in G.elements] == images
    assert G.generator_indices == tuple(images.index(g.images) for g in gens)
    mul, inv = _loop_tables(G)
    assert G.mul.dtype == np.int32 and G.inv.dtype == np.int32
    assert np.array_equal(G.mul, mul)
    assert np.array_equal(G.inv, inv)
    if order > 1:  # the trivial group never meets its cap
        with pytest.raises(GroupTooLarge):
            generate_group(degree, gens, cap=order - 1)
    if gens:
        with pytest.raises(NonPermutation):
            generate_group(degree + 1, gens)


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

    def test_as_group_rejects_members_not_closed_under_product(self):
        G = dihedral8()
        with pytest.raises(BadParameters, match="not closed under product"):
            Subgroup(G, [0, G.generator_indices[0]]).as_group()

    def test_as_group_is_built_once_per_member_set(self, monkeypatch):
        """sylow returns a new Subgroup on every call; the standalone group
        of its members is built once and kept on G, so every call shares it."""
        G = symmetric4()
        built = []
        standalone = Subgroup._standalone
        monkeypatch.setattr(Subgroup, "_standalone",
                            lambda self: built.append(self) or standalone(self))
        P, Q = sylow(G, 2), sylow(G, 2)
        assert P is not Q and P.as_group() is Q.as_group() is P.as_group()
        assert len(built) == 1
        assert group_cache(G)[("as_group", P.member_indices)] is P.as_group()

    def test_center_q8(self):
        G = quaternion8()
        Z = center(G)
        assert Z.order == 2
        assert G.element_order(Z.member_indices[1]) == 2

    def test_closure_rejects_out_of_range_seeds(self):
        G = dihedral8()
        for seeds in ([8], [1, -1]):
            with pytest.raises(BadParameters, match="out of range"):
                subgroup_closure(G, seeds)


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

    def test_require_prime(self):
        from modcoh.errors import PrimeTooLarge
        for p in (2, 3, 5, 2 ** 21 - 19):
            assert require_prime(p) == p
        for p in (-3, 0, 1, 4, 6, 9, 2 ** 21 - 1):
            with pytest.raises(BadParameters):
                require_prime(p)
        # refused by size before the O(sqrt p) trial division
        with pytest.raises(PrimeTooLarge):
            require_prime(4294967311)


class TestSylow:
    @pytest.mark.parametrize("p", [-2, 0, 1, 4, 6, 8])
    def test_rejects_a_p_that_is_not_prime(self, p):
        """sylow(S4, 4) raised a bare StopIteration, and sylow(S4, 6) and
        sylow(S4, 0) returned all of S4."""
        with pytest.raises(BadParameters, match="not a prime"):
            sylow(symmetric4(), p)

    def test_z6_at_3(self):
        G = cyclic(6)
        S = sylow(G, 3)
        assert S.order == 3

    def test_a4_at_2_normal(self):
        G = alternating4()
        S = sylow(G, 2)
        assert S.order == 4
        assert is_normal(S)

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

    def test_non_prime_caches_nothing(self):
        """A p that is no prime is refused before anything is kept."""
        G = symmetric4()
        with pytest.raises(BadParameters, match="not a prime"):
            sylow(G, 4)
        assert group_cache(G) == {}


def oracle_elementary_abelian(G, p):
    """Independent enumeration: closures of small sets of order-p elements."""
    from itertools import combinations
    elems = [g for g in range(1, G.order) if G.element_order(g) == p]
    found = set()
    for r in range(1, 4):
        for combo in combinations(elems, r):
            S = subgroup_closure(G, combo)
            ok = is_abelian(S) and all(
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

    def test_is_elementary_abelian(self):
        V4 = generate_group(4, [Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))])
        assert is_elementary_abelian(V4, 2) and not is_elementary_abelian(V4, 3)
        assert is_elementary_abelian(cyclic(2), 2)
        assert is_elementary_abelian(cyclic(3), 3)
        assert not is_elementary_abelian(cyclic(1), 2)
        assert not is_elementary_abelian(cyclic(4), 2)
        assert not is_elementary_abelian(dihedral8(), 2)

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

    @pytest.mark.parametrize("right", [False, True])
    def test_coset_reps_least_index_in_scan_order(self, right):
        G = symmetric4()
        H = subgroup_closure(G, [element_index(G, Permutation((1, 0, 2, 3)))])
        assert not is_normal(H)
        cosets = {frozenset(int(G.mul[h, g] if right else G.mul[g, h])
                            for h in H.member_indices) for g in range(G.order)}
        assert coset_representatives(G, H, right=right) == sorted(min(c) for c in cosets)

    def test_right_coset_reps_partition(self):
        G = symmetric4()
        H = sylow(G, 2)
        reps = coset_representatives(G, H, right=True)
        seen = set()
        for r in reps:
            coset = {int(G.mul[h, r]) for h in H.member_indices}
            assert not (coset & seen)
            seen |= coset
        assert len(seen) == 24


def _two_generated_subgroups(G):
    """Every subgroup of G generated by at most two elements, each once."""
    found = {subgroup_closure(G, [a, b]).member_indices
             for a in range(G.order) for b in range(a, G.order)}
    return [Subgroup(G, members) for members in sorted(found)]


class TestMackeyHelpers:
    """right_coset_table and mackey_terms against the formulas they replace."""

    @pytest.mark.parametrize("make", [symmetric4, dihedral8, lambda: cyclic(6)])
    def test_right_coset_table(self, make):
        G = make()
        for S in _two_generated_subgroups(G):
            transversal = coset_representatives(G, S, right=True)
            table = right_coset_table(G, S)
            assert np.array_equal(table, G.mul[np.ix_(S.member_indices, transversal)].T)
            assert table[:, 0].tolist() == transversal
            assert sorted(table.ravel().tolist()) == list(range(G.order))

    @pytest.mark.parametrize("make", [symmetric4, dihedral8])
    def test_mackey_terms(self, make):
        G = make()
        subgroups = _two_generated_subgroups(G)
        for H in subgroups:
            for K in subgroups:
                terms = mackey_terms(G, H, K)
                assert terms == [(g, intersect(H, conjugate_subgroup(G, K, g)))
                                 for g in double_cosets(G, H, K)]
                # |HgK| = |H| |K| / |H n gKg^{-1}|, and the double cosets partition G
                assert sum(H.order * K.order // S.order for _, S in terms) == G.order


def double_coset_blocks(G, H, K, reps):
    """The double coset HgK of each representative g, as a set of elements."""
    return [{int(G.mul[G.mul[h, g], k]) for h in H.member_indices for k in K.member_indices}
            for g in reps]


class TestDoubleCosets:
    def test_whole_group(self):
        G = cyclic(6)
        assert double_cosets(G, whole_group(G), whole_group(G)) == [0]

    def test_trivial_subgroups(self):
        G = cyclic(4)
        H = trivial_subgroup(G)
        reps = double_cosets(G, H, H)
        blocks = double_coset_blocks(G, H, H, reps)
        assert len(blocks) == 4
        assert all(len(b) == 1 for b in blocks)

    def test_s4_sylow_blocks(self):
        G = symmetric4()
        H = sylow(G, 2)
        reps = double_cosets(G, H, H)
        blocks = double_coset_blocks(G, H, H, reps)
        assert sum(len(b) for b in blocks) == 24
        union = set()
        for rep, block in zip(reps, blocks):
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
        reps = double_cosets(G, H, K)
        for rep, block in zip(reps, double_coset_blocks(G, H, K, reps)):
            conj = Subgroup(G, [conjugate(G, int(G.inv[rep]), x)
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
            assert is_abelian(m.as_group())

    def test_rejects_trivial_group(self):
        with pytest.raises(BadParameters, match="trivial group has no maximal subgroups"):
            maximal_subgroups(cyclic(1))

    def test_rejects_non_p_group(self):
        with pytest.raises(BadParameters, match="S4 is not a p-group"):
            maximal_subgroups(symmetric4())

    def test_frattini_of_q8_is_center(self):
        G = quaternion8()
        assert group_oracle.frattini_from_homs(G, 2) == center(G)

    @pytest.mark.parametrize("G", [cyclic(4), cyclic(8), dihedral8(), quaternion8(),
                                   generate_group(6, [Permutation((1, 0, 2, 3, 4, 5)),
                                                      Permutation((0, 1, 3, 2, 4, 5)),
                                                      Permutation((0, 1, 2, 3, 5, 4))])],
                             ids=lambda G: f"order{G.order}")
    def test_frattini_is_the_intersection_of_the_maximal_subgroups(self, G):
        members = set(range(G.order))
        for M in maximal_subgroups(G):
            assert M.order * 2 == G.order and is_normal(M)
            members &= set(M.member_indices)
        assert group_oracle.frattini_from_homs(G, 2) == Subgroup(G, members)

    def test_frattini_of_the_trivial_group(self):
        G = cyclic(1)
        assert group_oracle.frattini_from_homs(G, 3) == whole_group(G)

    @pytest.mark.parametrize("G,p", [(symmetric4(), 2), (quaternion8(), 3), (cyclic(6), 2)],
                             ids=["S4-2", "Q8-3", "Z6-2"])
    def test_frattini_rejects_a_group_that_is_not_a_p_group(self, G, p):
        # the closure of p-th powers and commutators is not Phi(G) here:
        # order 12 in S4 (Phi(S4) = 1), all of Q8, order 3 in Z6 (Phi(Z6) = 1)
        with pytest.raises(BadParameters, match=f"not a {p}-group"):
            group_oracle.frattini_from_homs(G, p)


class TestExtendFromGenerators:
    def test_permutation_products_give_the_elements(self):
        G = symmetric4()
        gens = [G.elements[s] for s in G.generator_indices]
        f = extend_from_generators(G, Permutation.identity(4), gens,
                                   lambda x, s: x * s)
        assert f == list(G.elements)

    def test_first_image_of_a_repeated_generator_wins(self):
        G = generate_group(2, [Permutation((1, 0))] * 2)
        assert G.generator_indices == (1, 1)
        assert extend_from_generators(G, "", ["a", "b"], str.__add__) == ["", "a"]


@given(generating_lists(), st.sampled_from([2, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_homs_to_fp_are_a_basis_of_hom(case, p):
    degree, gens = case
    if len(bfs_images(degree, gens)) > LOOP_ORACLE_MAX_ORDER:
        return
    G = generate_group(degree, gens)
    homs = homs_to_fp(G, p)
    assert homs.shape[1] == G.order and homs.dtype == np.int64
    # each row is a homomorphism G -> F_p, and the rows are independent
    assert np.array_equal(homs[:, G.mul], (homs[:, :, None] + homs[:, None, :]) % p)
    assert len(fplinalg.rref_pivots(homs, p)) == len(homs)
    # for any G, the closure of p-th powers and commutators has index |Hom(G, F_p)|
    assert p ** len(homs) * group_oracle.frattini_subgroup(G, p).order == G.order


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
    assert is_abelian(G)
    assert G.element_order(G.generator_indices[0]) == n


@given(st.permutations(list(range(5))))
@settings(max_examples=40, deadline=None)
def test_single_generator_closure_is_cyclic(images):
    G = generate_group(5, [Permutation(tuple(images))])
    g = G.generator_indices[0] if G.order > 1 else 0
    assert G.order == G.element_order(g)
