"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

All tolerances are exact (integer equality); run with -s to see the lines.
Criterion 14b (agreement of the two circulating formulations of the 2p
condition) is stated as is and expected to fail: the central-involution
form and the cyclic-2q form provably diverge on noncyclic elementary
abelian 2-groups, which sit in the catalog closure.  Criterion 14c pins
the exact divergence set.

The stretch checks (L3(2), A6: dimensions through degree 6, cup-product
spans through degree 4) run in the default suite and carry the `stretch`
marker, so `-m "not stretch"` leaves them out.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

from modcoh import catalog
from modcoh.actions import full_report, twop_condition
from modcoh.cohmaps import MapBuilder, stable_subspace, trivial_coefficients
from modcoh.fplinalg import FpSubspace, kernel, rref_array
from modcoh.gmodules import (
    permutation_module,
    regular_module,
    trivial_module,
)
from modcoh.groups import (
    Permutation,
    center,
    maximal_subgroups,
    subgroup_closure,
    sylow,
)
from modcoh.products import (
    CupRing,
    cochain_cohomology_dims,
    find_sphere_splice,
    product_span_dims,
    splice_complex,
)
from modcoh.resolutions import (
    chouinard_projective,
    cohomology_dims,
    complexity,
    ext_dims,
    free_resolution,
    is_projective,
    krull_dimension_estimate,
    poincare_fit,
)

from actions_oracle import (
    mtw_condition,
    p2_condition,
    swan_condition,
    twop_condition_cyclic_form,
    wolf_pq_condition,
)
from corpus import build_corpus, catalog_closure
from diagonal_oracle import cup_coordinates
from group_oracle import element_index, is_elementary_abelian
from maps_oracle import abelian_sylow_check, detection_check
from presentations import PRODUCT_ORACLES, STRETCH_PRODUCT_ORACLES
from resolution_oracle import (
    maximal_subgroup_projectivity,
    minimal_rank_identity_check,
    padded_resolution,
)


@contextmanager
def criterion(cid, desc):
    try:
        yield
    except Exception:
        print(f"[acceptance {cid}] FAIL  {desc}")
        raise
    print(f"[acceptance {cid}] PASS  {desc}")


def test_c01_rank_one_series():
    with criterion(1, "rank-1 groups have all-ones series through degree 10"):
        assert cohomology_dims(catalog.get_group("Z2"), 2, 10).dims == (1,) * 11
        assert cohomology_dims(catalog.get_group("Z3"), 3, 10).dims == (1,) * 11
        assert cohomology_dims(catalog.get_group("Z5"), 5, 10).dims == (1,) * 11


def test_c02_kunneth_binomials():
    with criterion(2, "(Z/2)^n dims are binomial(n+i-1, i) through degree 8"):
        for n, name in ((2, "Z2xZ2"), (3, "Z2xZ2xZ2")):
            got = cohomology_dims(catalog.get_group(name), 2, 8).dims
            want = tuple(math.comb(n + i - 1, i) for i in range(9))
            assert got == want, (name, got)


def test_c03_d8_series():
    with criterion(3, "D8 dims are 1..9 through degree 8"):
        got = cohomology_dims(catalog.get_group("D8"), 2, 8).dims
        assert got == tuple(range(1, 10))


def test_c04_q8_series_and_fit():
    with criterion(4, "Q8 dims have period 4 and fit (1+2t+2t^2+t^3)/(1-t^4)"):
        series = cohomology_dims(catalog.get_group("Q8"), 2, 8)
        assert series.dims == (1, 2, 2, 1, 1, 2, 2, 1, 1)
        fit = poincare_fit(series, [4])
        assert fit is not None and fit.numerator == (1, 2, 2, 1)


def test_c05_a4_both_primes():
    with criterion(5, "A4: mod-2 series and abelian-Sylow mod-3 comparison"):
        A4 = catalog.get_group("A4")
        assert cohomology_dims(A4, 2, 7).dims == (1, 0, 1, 2, 1, 2, 3, 2)
        assert cohomology_dims(A4, 3, 7).dims == (1,) * 8
        assert abelian_sylow_check(A4, 3, 7)


def test_c06_s4_series_and_detection():
    with criterion(6, "S4: mod-2 series and detection by the two four-groups"):
        S4 = catalog.get_group("S4")
        assert cohomology_dims(S4, 2, 6).dims == (1, 1, 2, 3, 3, 4, 5)
        V1 = subgroup_closure(S4, [element_index(S4, Permutation((1, 0, 2, 3))),
                                   element_index(S4, Permutation((0, 1, 3, 2)))])
        V2 = subgroup_closure(S4, [element_index(S4, Permutation((1, 0, 3, 2))),
                                   element_index(S4, Permutation((2, 3, 0, 1)))])
        for i in range(5):
            assert detection_check(S4, 2, [V1, V2], i)


def test_c07_stable_elements():
    with criterion(7, "stable-element dimensions equal H^*(G) for A4 and S4"):
        for name, top in (("A4", 6), ("S4", 6)):
            G = catalog.get_group(name)
            dims = cohomology_dims(G, 2, top).dims
            got = tuple(stable_subspace(G, 2, i)[0] for i in range(top + 1))
            assert got == dims, name


def _index_composite_matches(G, H, p, i):
    M = trivial_coefficients(G, p)
    maps = MapBuilder(G, M)
    comp = (maps.transfer(H, i).matrix @ maps.restriction(H, i).matrix) % p
    index = (G.order // H.order) % p
    want = (index * np.eye(comp.shape[0], dtype=np.int64)) % p
    return np.array_equal(comp, want)


def test_c08_transfer_calculus():
    with criterion(8, "tr.res = [G:H] id and the double-coset identity"):
        Z4 = catalog.get_group("Z4")
        half = subgroup_closure(
            Z4, [int(Z4.mul[Z4.generator_indices[0], Z4.generator_indices[0]])])
        A4 = catalog.get_group("A4")
        S4 = catalog.get_group("S4")
        cases = [(Z4, half), (A4, sylow(A4, 2)), (S4, sylow(S4, 2))]
        for G, H in cases:
            M = trivial_coefficients(G, 2)
            for i in range(5):
                assert _index_composite_matches(G, H, 2, i), (G.name, i)
                assert MapBuilder(G, M).double_coset_identity(H, H, i), (G.name, i)


def test_c09_minimal_rank_identity():
    with criterion(9, "minimal ranks equal dim H^i(P, M*) through degree 6"):
        for name in ("Z2", "Z4", "Q8", "D8"):
            P = catalog.get_group(name)
            mods = [trivial_module(P, 2), regular_module(P, 2),
                    permutation_module(P, center(P), 2)]
            for M in mods:
                assert minimal_rank_identity_check(M, 6), (name, M.dim)


def test_c10_projectivity_triad():
    with criterion(10, "projectivity triad agrees on the 50-module corpus"):
        corpus = build_corpus(50)
        assert len(corpus) == 50
        for name, M in corpus:
            direct = is_projective(M)
            assert chouinard_projective(M) == direct, (name, M.dim)
            G = M.group
            if G.is_p_group(2) and not is_elementary_abelian(G, 2):
                assert maximal_subgroup_projectivity(M) == direct, (name, M.dim)


def test_c11_complexity_rank_pole():
    with criterion(11, "complexity = p-rank = Poincare pole order on the catalog"):
        from modcoh.groups import p_rank, prime_factors
        for name in catalog.names():
            G = catalog.get_group(name)
            for p in prime_factors(G.order):
                cx = complexity(trivial_module(G, p))
                rank = p_rank(G, p)
                pole = krull_dimension_estimate(G, p)
                assert cx == rank == pole, (name, p, cx, rank, pole)


def test_c12_cup_products():
    with criterion(12, "cup products match the presentation-expansion oracles"):
        Z2 = catalog.get_group("Z2")
        ring = CupRing(Z2, 2, 8)
        x = ring.basis(1).classes[0]
        rep = x
        for n in range(2, 9):
            rep = ring.cup(rep, n - 1, x, 1)
            assert ring.basis(n).class_coordinates(rep).any(), n
        Z3 = catalog.get_group("Z3")
        ring3 = CupRing(Z3, 3, 2)
        x3 = ring3.basis(1).classes[0]
        assert not cup_coordinates(ring3, x3, 1, x3, 1).any()
        for name, oracle_factory in sorted(PRODUCT_ORACLES.items()):
            G = catalog.get_group(name)
            oracle = oracle_factory()
            ring = CupRing(G, 2, 6)
            for i in range(1, 6):
                for j in range(i, 7 - i):
                    got = product_span_dims(G, 2, i, j, ring)
                    want = oracle.product_span_dim(i, j)
                    assert got == want, (name, i, j, got, want)
        assert product_span_dims(catalog.get_group("A4"), 2, 3, 3) == 3


def test_c13_splice_spheres():
    with criterion(13, "splice complexes: Z4 gives S^1, a Q8 pair gives S^3"):
        Z4 = catalog.get_group("Z4")
        C = splice_complex(Z4, maximal_subgroups(Z4))
        assert cochain_cohomology_dims(C.as_cochain, 2) == [1, 1]
        hit = find_sphere_splice(catalog.get_group("Q8"), max_len=2, min_len=2)
        assert hit is not None
        assert cochain_cohomology_dims(hit[1].as_cochain, 2) == [1, 0, 0, 1]


def test_c14_sphere_action_conditions():
    with criterion("14a", "Q8 passes, D6/D8 fail, cyclic groups pass"):
        Q8 = catalog.get_group("Q8")
        rep = full_report(Q8)
        assert rep.swan_ok and rep.twop_central_ok and rep.mtw_ok \
            and rep.wolf_pq_ok and rep.periodic_ok
        D6 = catalog.get_group("D6")
        assert swan_condition(D6) and not twop_condition(D6) \
            and not mtw_condition(D6)
        D8 = catalog.get_group("D8")
        assert not p2_condition(D8, 2) and not swan_condition(D8) \
            and not mtw_condition(D8)
        for n in (2, 3, 4, 6, 12):
            Zn = catalog.get_group(f"Z{n}")
            assert swan_condition(Zn) and twop_condition(Zn) \
                and mtw_condition(Zn) and wolf_pq_condition(Zn)


@pytest.mark.xfail(
    strict=True,
    reason="the central-involution and cyclic-2q formulations of the 2p "
    "condition are provably inequivalent: noncyclic elementary abelian "
    "2-groups satisfy the first and refute the second, and they lie in "
    "the catalog closure; the reports carry both booleans instead")
def test_c14b_twop_formulations_agree_on_closure():
    with criterion("14b", "the two 2p formulations agree on the catalog closure"):
        for H in catalog_closure():
            assert twop_condition(H) == twop_condition_cyclic_form(H), \
                (H.name, H.order)


def test_c14c_twop_divergence_is_exactly_elementary_abelian():
    with criterion("14c", "2p-formulation divergence happens exactly on "
                   "elementary abelian 2-groups of rank >= 2"):
        for H in catalog_closure():
            diverges = twop_condition(H) != twop_condition_cyclic_form(H)
            expected = is_elementary_abelian(H, 2) and H.order > 2
            assert diverges == expected, (H.name, H.order)


def test_c15_property_suites():
    with criterion(15, "seeded property suites (independence, Maschke, RREF, cups)"):
        # resolution independence
        Q8 = catalog.get_group("Q8")
        triv = trivial_module(Q8, 2)
        minimal = free_resolution(triv, 5, minimal=True)
        padded = padded_resolution(triv, 5)
        assert ext_dims(triv, triv, 4, resolution=minimal).dims == \
            ext_dims(triv, triv, 4, resolution=padded).dims
        # Maschke vanishing
        assert cohomology_dims(catalog.get_group("Z3"), 2, 6).dims == \
            (1, 0, 0, 0, 0, 0, 0)
        assert cohomology_dims(catalog.get_group("Z5"), 2, 6).dims == \
            (1, 0, 0, 0, 0, 0, 0)
        # RREF canonicity and rank-nullity on seeded random matrices
        rng = np.random.default_rng(20260810)
        for p in (2, 3, 5):
            for _ in range(20):
                m, n = rng.integers(1, 7, size=2)
                a = rng.integers(0, p, size=(m, n))
                reduced, r = rref_array(a, p)
                again, r2 = rref_array(reduced, p)
                assert r == r2 and np.array_equal(reduced, again)
                assert FpSubspace(p, n, kernel(a, p)[0]).dim == n - r
        # cup commutativity at p = 2 and naturality snapshots
        D8 = catalog.get_group("D8")
        ring = CupRing(D8, 2, 4)
        for i, j in [(1, 1), (1, 2), (2, 2)]:
            for a in ring.basis(i).classes:
                for b in ring.basis(j).classes:
                    assert np.array_equal(cup_coordinates(ring, a, i, b, j),
                                          cup_coordinates(ring, b, j, a, i))
        # associativity of degree-1 triples
        for a in ring.basis(1).classes:
            ab = ring.cup(a, 1, a, 1)
            left = cup_coordinates(ring, ab, 2, a, 1)
            right = cup_coordinates(ring, a, 1, ab, 2)
            assert np.array_equal(left, right)


STRETCH_NAMES = [n for n in catalog.names(include_stretch=True)
                 if catalog.REGISTRY[n].stretch]


@pytest.mark.stretch
@pytest.mark.parametrize("name", STRETCH_NAMES)
def test_stretch_simple_groups(name):
    with criterion("S", f"{name} dims match its presentation through degree 6, "
                   "product spans through degree 8"):
        G = catalog.get_group(name)
        rec = catalog.expected_record(name, 2)
        got = cohomology_dims(G, 2, rec.verified_through).dims
        want = catalog.expected_dims(name, 2, rec.verified_through).dims
        assert got == want
        oracle = STRETCH_PRODUCT_ORACLES[name]()
        ring = CupRing(G, 2, 8)
        for i in range(1, 8):
            for j in range(i, 9 - i):
                got = product_span_dims(G, 2, i, j, ring)
                assert got == oracle.product_span_dim(i, j), (name, i, j, got)
