"""Sylow-local H^*(G, F_p) against G's own resolution, and its caches.

`cohomology_dims` and `stable_subspace` compute H^*(G, F_p) as the stable
elements of H^*(P, F_p) on the minimal resolution of a Sylow p-subgroup P
(`cohmaps.StableElements`); for a p-group P = G.  The second path to the
same numbers runs on G's own resolution: `ext_dims` of the trivial module,
and the G-resolution stable elements of stable_oracle.py.  Each stable
basis, the image of res^G_P tr^G_P, is checked byte for byte against the
kernel of every double coset's condition on P's resolution, and the
twisted chain maps behind conjugation are checked exactly.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings

from modcoh import catalog, fplinalg, groups
from modcoh.cohmaps import (
    StableElements,
    clear_context_cache,
    context,
    stable_elements,
    stable_subspace,
    trivial_coefficients,
)
from modcoh.errors import BadParameters, InvariantViolation, LiftFailure
from modcoh.gmodules import trivial_module
from modcoh.groups import prime_factors
from modcoh.products import CupRing, product_span_dims
from modcoh.resolutions import FreeResolution, clear_resolution_cache, cohomology_dims, ext_dims

import stable_oracle
from stable_oracle import EveryDoubleCoset
from corpus import small_permutation_groups
from diagonal_oracle import diagonal_approximation, product_span_dim
from resolution_oracle import PaddedResolution, expand, full_boundary, full_boundary_lift, make_twist


def free_dims(G, p, top):
    M = trivial_module(G, p)
    return ext_dims(M, M, top).dims


def oracle_dims(G, p, top):
    return tuple(stable_oracle.stable_subspace(G, p, i)[0] for i in range(top + 1))


def prime_cases(names, p_groups=False):
    return [(name, p) for name in names
            for p in prime_factors(catalog.get_group(name).order)
            if catalog.get_group(name).is_p_group(p) == p_groups]


STRETCH = [n for n in catalog.names(include_stretch=True) if catalog.REGISTRY[n].stretch]


def group(name):
    """A catalog group, or A7: at p = 3 it has pairs with sigma(S_t) != S_t,
    which in the catalog only L3(2) and A6 have, and only at p = 2."""
    return catalog.make_alternating(7) if name == "A7" else catalog.get_group(name)


class TestAgainstGResolution:
    @pytest.mark.parametrize("name,p", prime_cases(catalog.names()))
    def test_catalog_through_degree_8(self, name, p):
        G = catalog.get_group(name)
        got = cohomology_dims(G, p, 8).dims
        assert got == free_dims(G, p, 8) == oracle_dims(G, p, 8)
        assert got == tuple(stable_subspace(G, p, i)[0] for i in range(9))

    @pytest.mark.stretch
    @pytest.mark.parametrize("name,p", prime_cases(STRETCH))
    def test_stretch_through_degree_4(self, name, p):
        G = catalog.get_group(name)
        assert cohomology_dims(G, p, 4).dims == free_dims(G, p, 4) == oracle_dims(G, p, 4)

    def test_prime_not_dividing_the_order(self, S4):
        assert cohomology_dims(S4, 5, 6).dims == free_dims(S4, 5, 6) == (1,) + (0,) * 6

    @pytest.mark.parametrize("p", [0, 1, 4, 6])
    def test_non_prime_p_raises_before_any_work(self, S4, p):
        calls = (lambda: cohomology_dims(S4, p, 3), lambda: stable_subspace(S4, p, 1),
                 lambda: stable_elements(S4, p), lambda: CupRing(S4, p, 2))
        for call in calls:
            clear_resolution_cache()
            with pytest.raises(BadParameters):
                call()
            assert groups.group_cache(S4) == {}

    @pytest.mark.parametrize("name,p", prime_cases(catalog.names(), p_groups=True))
    def test_p_groups_through_degree_8(self, name, p):
        """P = G: the dims are the ranks of G's minimal resolution."""
        G = catalog.get_group(name)
        assert cohomology_dims(G, p, 8).dims == free_dims(G, p, 8)

    @pytest.mark.parametrize("name,p", [(name, p) for name in catalog.names(include_stretch=True)
                                        for p in prime_factors(catalog.get_group(name).order)])
    def test_h1_is_hom_to_fp(self, name, p):
        """H^1(G; F_p) = Hom(G, F_p): the stable elements in degree 1
        against one kernel on G's generators, which reads no resolution."""
        G = catalog.get_group(name)
        assert len(groups.homs_to_fp(G, p)) == cohomology_dims(G, p, 1).dims[1]

    def test_p_group_every_class_stable(self, D8):
        for i in range(5):
            dim, basis = stable_subspace(D8, 2, i)
            assert np.array_equal(basis, np.eye(i + 1, dtype=np.int64))
        assert not stable_elements(D8, 2).pairs


@given(small_permutation_groups())
@settings(max_examples=25, deadline=None)
def test_random_permutation_groups(G):
    for p in prime_factors(G.order):
        assert cohomology_dims(G, p, 3).dims == free_dims(G, p, 3) == oracle_dims(G, p, 3)


@given(small_permutation_groups(cap=24))
@settings(max_examples=25, deadline=None)
def test_random_permutation_group_products(G):
    """CupRing span dims against the diagonal oracle on G's own resolution,
    through degree 3; the oracle is quadratic in |G|, hence the lower cap."""
    for p in prime_factors(G.order):
        ring = CupRing(G, p, 3)
        ctx = context(G, trivial_coefficients(G, p))
        diag = diagonal_approximation(ctx.resolution, 3)
        for i, j in [(1, 1), (1, 2)]:
            assert product_span_dims(G, p, i, j, ring) == product_span_dim(ctx, i, j, diag)


@pytest.mark.parametrize("name,p,top", [
    (name, p, 8) for p_groups in (False, True) for name, p in prime_cases(catalog.names(), p_groups)
] + [pytest.param(name, p, 4, marks=pytest.mark.stretch) for name, p in prime_cases(STRETCH)])
def test_stable_basis_as_with_every_double_coset(name, p, top):
    """The row space of the Mackey matrix M_i, with centralising terms and
    pairs of multiplicity 0 mod p left out, gives each stable basis byte for
    byte as the kernel of every double coset's condition does."""
    G = catalog.get_group(name)
    state, every = stable_elements(G, p), EveryDoubleCoset(G, p)
    assert len(state.pairs) <= len(every.pairs)
    for i in range(top + 1):
        got, want = state.stable(i), every.stable(i)
        assert got.dtype == want.dtype and got.shape == want.shape, (i, got, want)
        assert got.tobytes() == want.tobytes(), i


def test_only_z3q16_at_3_keeps_a_pair():
    """P = Z3 is normal in Z3Q16, with 15 double cosets outside P: 7
    centralise P and 8 invert it.  So n_1 = 8, P itself among them, and the
    inversion is one pair of multiplicity 8 = 2 mod 3.  Every double coset
    of Z6, Z12 and Z3Q16 at p = 2 centralises S_t."""
    Z3Q16 = catalog.get_group("Z3Q16")
    every = EveryDoubleCoset(Z3Q16, 3)
    assert len(every.pairs) == 15
    assert all(ctx_t.subgroup.order == 3 for _, ctx_t, _ in every.pairs)
    inverting = [twist.target[0] for _, ctx_t, twist in every.pairs
                 if twist.target[0].tolist() != list(ctx_t.subgroup.member_indices)]
    assert len(inverting) == 8
    state = stable_elements(Z3Q16, 3)
    assert state.identity_count == 8
    assert [multiplicity for _, _, multiplicity in state.pairs] == [2]
    assert state.pairs[0][1].target[0].tolist() == inverting[0].tolist()
    for name in ("Z6", "Z12", "Z3Q16"):
        assert stable_elements(catalog.get_group(name), 2).pairs == []


def test_corrupted_multiplicity_raises():
    """S4 at p = 3 has n_1 = 1 and one pair, the inversion of P = Z3, of
    multiplicity 1.  Dropped to 0 it leaves M_i = I, and I^2 != [G : P] I
    = 2 I mod 3.  Z6 at p = 2 has no pair, so n_1 = 3 = [G : P]; made 0 mod
    2 it would leave no class stable, even in degree 0."""
    state = StableElements(catalog.get_group("S4"), 3)
    assert state.identity_count == 1 and state.index == 8
    (d, twist, multiplicity), = state.pairs
    assert multiplicity == 1
    for i in range(4):
        M = state._mackey_matrices([i])[0]
        assert np.array_equal(M @ M % 3, 2 * M % 3)
    state.pairs[0] = (d, twist, 0)
    for i in range(4):
        with pytest.raises(InvariantViolation):
            state._mackey_matrices([i])[0]
    state = StableElements(catalog.get_group("Z6"), 2)
    assert not state.pairs and state.identity_count == 3
    assert state.dims(4) == (1, 1, 1, 1, 1)
    state.identity_count, state._stable = 2, {}
    with pytest.raises(InvariantViolation):
        state.stable(0)


class TestOneReductionPerCall:
    """dims reduces every degree not reduced yet in one block-diagonal
    Mackey matrix: one M^2 check and one `fplinalg.rref_array`."""

    @staticmethod
    def spy(monkeypatch):
        reduced, products = [], []
        rref, product = fplinalg.rref_array, fplinalg._matmul_mod
        monkeypatch.setattr(fplinalg, "rref_array",
                            lambda a, p: reduced.append(np.shape(a)) or rref(a, p))
        monkeypatch.setattr(fplinalg, "_matmul_mod",
                            lambda a, b, p: products.append(a.shape) or product(a, b, p))
        return reduced, products

    @pytest.mark.parametrize("name,p", [("S4", 2), ("S4", 3), ("L3_2", 2)])
    def test_dims_reduce_once(self, monkeypatch, name, p):
        G = catalog.get_group(name)
        ranks = StableElements(G, p).resolution.extend_to(8).ranks
        state, before = StableElements(G, p), StableElements(G, p)
        state.lifts(8)  # the lifts' own products are not counted
        reduced, products = self.spy(monkeypatch)
        assert state.dims(8) == catalog.expected_dims(name, p, 8).dims
        width = sum(ranks[:9])
        assert reduced == [(width, width)] and products == [(width, width)]
        # the same bases as one reduction per degree
        for i in range(9):
            M = before._mackey_matrices([i])[0]
            rows, rank = fplinalg.rref_array(M, p)
            assert state.stable(i).tobytes() == rows[:rank].tobytes(), i
            assert state.stable(i).dtype == rows.dtype

    def test_only_missing_degrees_are_reduced(self, monkeypatch):
        G = catalog.get_group("S4")
        ranks = StableElements(G, 2).resolution.extend_to(8).ranks
        reduced, _ = self.spy(monkeypatch)
        state = StableElements(G, 2)
        state.dims(3)
        state.stable(3)
        assert reduced == [(sum(ranks[:4]),) * 2]
        state.dims(8)
        assert reduced[1:] == [(sum(ranks[4:9]),) * 2]
        fresh = StableElements(G, 2)
        fresh.stable(3)
        fresh.dims(8)
        width = sum(ranks[:9]) - ranks[3]
        assert reduced[2:] == [(ranks[3],) * 2, (width, width)]
        assert fresh.dims(8) == state.dims(8) and len(reduced) == 4


def translation(P, r, h):
    """h acting on F_p[P]^r: e_{j, x} -> e_{j, hx}."""
    n = P.order
    L = np.zeros((r * n, r * n), dtype=np.int64)
    for j in range(r):
        L[j * n + P.mul[h], j * n + np.arange(n)] = 1
    return L


@pytest.mark.parametrize("name,p", [
    ("S3", 3), ("A4", 2), ("S4", 2), ("S4", 3), ("Z3Q16", 2), ("Z3Q16", 3),
    ("L3_2", 2), ("L3_2", 7), ("A6", 2), ("A6", 3), ("A7", 2), ("A7", 3), ("A7", 5),
])
def test_conjugation_lifts_are_twisted_chain_maps(name, p):
    """d psi = psi d, over the identity of F_p, and psi(s x) = (d^-1 s d) psi(x),
    for every double coset, skipped by StableElements or not."""
    G = group(name)
    state = EveryDoubleCoset(G, p)
    res, P, top = state.resolution, state.group, 4
    position = {g: k for k, g in enumerate(state.members)}
    assert state.pairs
    for (d, ctx_t, twist), phis in zip(state.pairs, state.lifts(top)):
        full = [expand(res, phi, twist) for phi in phis[: top + 1]]
        assert np.array_equal(res.augmentation @ full[0] % p, res.augmentation)
        for k in range(1, top + 1):
            D = full_boundary(res, k)
            assert np.array_equal(D @ full[k] % p, full[k - 1] @ D % p), (d, k)
        d_inv = int(G.inv[d])
        for s in ctx_t.subgroup.member_indices:
            g = state.members[s]
            image = position[int(G.mul[G.mul[d_inv, g], d])]
            for k, psi in enumerate(full):
                r = res.ranks[k]
                assert np.array_equal(psi @ translation(P, r, s) % p,
                                      translation(P, r, image) @ psi % p), (d, s, k)


def _assert_same_lifts(got, want):
    assert len(got) == len(want)
    for k, (a, b) in enumerate(zip(got, want)):
        assert a.dtype == b.dtype and a.shape == b.shape, k
        assert a.tobytes() == b.tobytes(), k


@pytest.mark.parametrize("name,p,top", [
    (name, p, 6) for name in catalog.names() for p in prime_factors(catalog.get_group(name).order)
] + [("A7", p, 4) for p in (2, 3, 5)] + [
    pytest.param(name, p, 4, marks=pytest.mark.stretch) for name, p in prime_cases(STRETCH)])
def test_lifts_on_pivot_rows_match_full_boundary_lifts(name, p, top):
    """Each Phi_k, solved on the rows of d_k at the pivots of ker d_{k-1},
    is byte for byte the lift solved on all of d_k: the cocycle lifts of
    CupRing (untwisted) and the conjugation lifts of every double coset
    (twisted)."""
    G = group(name)
    ring = CupRing(G, p, top)
    for i in range(top + 1):
        classes = ring.basis(i).classes
        if len(classes):
            got = ring._lift(classes.T, i, top - i)
            _assert_same_lifts(got, full_boundary_lift(ring.resolution, got[:1], i, top - i))
    every = EveryDoubleCoset(G, p)
    for (_, _, twist), psis in zip(every.pairs, every.lifts(top)):
        _assert_same_lifts(psis, full_boundary_lift(every.resolution, psis[:1], 0, top, twist))


def test_corrupted_conjugation_lift_raises(S4):
    """psi_0 must send every coset's generator to an augmentation-1 vector;
    zeroing one of them leaves nothing to lift to."""
    state = StableElements(S4, 2)
    (_, twist, _), = state.pairs
    assert len(twist.source) == 2
    psi0 = state.lifts(0)[0][0].copy()
    psi0[0, 1] = 0
    for lift in (state.resolution.lift, lambda *args: full_boundary_lift(state.resolution, *args)):
        with pytest.raises(LiftFailure):
            lift([psi0], 0, 3, twist)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_corrupted_psi0_raises_at_every_prime(p):
    """On a padded resolution of F_p over Z_p, Phi_0 = identity lifts and
    Phi_0 with one generator sent to 0 does not; over the trivial subgroup,
    psi_0 = (every g . e -> e) lifts and loses that when one g . e -> 0.
    The pivot-row lift and the full-boundary lift agree on each."""
    P = catalog.get_group(f"Z{p}")
    n = P.order
    padded = PaddedResolution(trivial_module(P, p), minimal=False)
    minimal = FreeResolution(trivial_module(P, p), minimal=True)
    plain = np.zeros((2 * n, 2), dtype=np.int64)
    plain[[0, n], [0, 1]] = 1
    over_one = np.zeros((n, n), dtype=np.int64)
    over_one[0] = 1
    trivial_twist = make_twist(P, np.arange(n)[:, None], np.zeros(1, dtype=np.intp))
    for res, phi0, twist in ((padded, plain, None), (minimal, over_one, trivial_twist)):
        got = res.lift([phi0], 0, 4, twist)
        _assert_same_lifts(got, full_boundary_lift(res, [phi0], 0, 4, twist))
        corrupted = phi0.copy()
        corrupted[:, 1] = 0
        for lift in (res.lift, lambda *args: full_boundary_lift(res, *args)):
            with pytest.raises(LiftFailure):
                lift([corrupted], 0, 4, twist)


def test_lifts_resume_where_they_stopped(S4):
    """Lifting one degree at a time keeps the lower degrees already lifted
    and gives the lifts of one call to the top."""
    stepwise, kept = StableElements(S4, 2), []
    for top in range(5):
        lifts = stepwise.lifts(top)
        assert [len(psis) for psis in lifts] == [top + 1] * len(stepwise.pairs)
        kept.append(lifts[0][top])
    assert all(a is b for a, b in zip(kept, stepwise.lifts(4)[0]))
    at_once = StableElements(S4, 2).lifts(4)
    for psis, want in zip(stepwise.lifts(4), at_once):
        assert all(np.array_equal(a, b) for a, b in zip(psis, want))


@pytest.mark.stretch
def test_a7_matches_a6_at_2():
    """H^*(A7; F_2) and H^*(A6; F_2) agree through degree 8 (Adem-Milgram,
    Cohomology of Finite Groups, ch. VIII), both computed Sylow-locally."""
    A7 = catalog.make_alternating(7)
    assert A7.order == 2520
    want = catalog.expected_dims("A6", 2, 8).dims
    assert cohomology_dims(catalog.get_group("A6"), 2, 8).dims == want
    assert cohomology_dims(A7, 2, 8).dims == want


class TestCaches:
    def test_dropped_group_is_collected(self):
        G = catalog.make_symmetric(4)
        cohomology_dims(G, 2, 4)
        stable_subspace(G, 3, 3)
        context(G, trivial_coefficients(G, 2)).basis(2)
        CupRing(G, 2, 3).products_of_bases(1, 2)
        refs = [weakref.ref(G), weakref.ref(stable_elements(G, 2).group)]
        del G
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    @pytest.mark.parametrize("name,p", [("S4", 3), ("D8", 2)])
    def test_cold_dims_leave_no_entries_behind(self, name, p):
        """The Sylow-local state refers back to nothing of G, so dropping G
        frees it by reference counting, with the collector off.  A p-group
        takes the same path."""
        clear_resolution_cache()
        want = catalog.expected_dims(name, p, 6).dims
        G = catalog.REGISTRY[name].builder()
        ref = weakref.ref(G)
        gc.disable()
        try:
            assert cohomology_dims(G, p, 6).dims == want
            assert G._cache
            del G
            assert ref() is None
            assert not list(groups._CACHING)
        finally:
            gc.enable()

    @pytest.mark.parametrize("clear", [clear_resolution_cache, clear_context_cache])
    def test_clear_empties_every_group(self, clear):
        """clear_resolution_cache and clear_context_cache are the one
        groups.clear_group_caches."""
        assert clear is groups.clear_group_caches
        G = catalog.make_symmetric(4)
        cohomology_dims(G, 2, 4)
        stable_subspace(G, 2, 2)
        assert G._cache
        clear()
        assert not list(groups._CACHING)
        assert not G._cache
        # a cold call rebuilds from nothing, and a second clear leaves nothing
        assert cohomology_dims(G, 2, 4).dims == (1, 1, 2, 3, 3)
        clear()
        assert not list(groups._CACHING) and not G._cache
