import hashlib
import pathlib

import numpy as np
import pytest

from modcoh import catalog, fplinalg, groups
from modcoh.cohmaps import MapBuilder, context, trivial_coefficients
from modcoh.errors import DegreeMismatch, InvariantViolation, LiftFailure, NotMaximal
from modcoh.gmodules import trivial_module
from modcoh.groups import maximal_subgroups, sylow, whole_group
from modcoh.products import (
    CupRing,
    cochain_cohomology_dims,
    find_sphere_splice,
    product_span_dims,
    splice_complex,
    sphere_cohomology_check,
)
from modcoh.resolutions import FreeResolution, cohomology_dims, trivial_resolution

from cochain_oracle import coset_sum_matrix
from diagonal_oracle import cup, cup_coordinates, diagonal_approximation, product_span_dim
from presentations import PRODUCT_ORACLES
from resolution_oracle import full_boundary_lift

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def rings():
    cache = {}

    def get(name, p=2, max_deg=6):
        key = (name, p, max_deg)
        if key not in cache:
            cache[key] = CupRing(catalog.get_group(name), p, max_deg)
        return cache[key]

    return get


class TestDiagonal:
    def test_counit_component(self, Z2):
        res = trivial_resolution(Z2, 2, 3)
        diag = diagonal_approximation(res, 2)
        comp = diag.components[0][(0, 0)]
        # generator goes to generator (x) generator
        assert comp[:, 0].reshape(2, 2).tolist() == [[1, 0], [0, 0]]

    def test_chain_identity_d8_through_8(self, D8):
        # construction verifies the chain-map identity at every degree and
        # raises LiftFailure otherwise
        diagonal_approximation(trivial_resolution(D8, 2, 9), 8)

    def test_chain_identity_s4_through_6(self, S4):
        diagonal_approximation(trivial_resolution(S4, 2, 7), 6)

    def test_chain_identity_odd_p(self, Z3):
        diagonal_approximation(trivial_resolution(Z3, 3, 7), 6)

    def test_degree_guard(self, Z2):
        diag = diagonal_approximation(trivial_resolution(Z2, 2, 3), 2)
        with pytest.raises(DegreeMismatch):
            cup(np.array([1]), 2, np.array([1]), 1, diag)


# (group, p, max_deg): p = 2 groups through degree 6, odd primes lower; the
# elementary abelian groups at odd p are the cases where the sign matters
ORACLE_CASES = [
    *[(name, 2, 6) for name in ("Z2xZ2", "D8", "Q8", "A4", "S4")],
    ("S3", 3, 4), ("A4", 3, 4), ("Z3xZ3", 3, 4), ("Z5xZ5", 5, 3),
]


def _oracle_group(name):
    if name in ("Z3xZ3", "Z5xZ5"):
        return catalog.make_elementary_abelian(int(name[1]), 2)
    return catalog.get_group(name)


class TestYonedaAgainstDiagonal:
    @pytest.mark.parametrize("name,p,max_deg", ORACLE_CASES)
    def test_every_basis_pair(self, name, p, max_deg):
        ring = CupRing(_oracle_group(name), p, max_deg)
        diag = diagonal_approximation(ring.resolution, max_deg)
        for i in range(max_deg + 1):
            for j in range(max_deg + 1 - i):
                table = ring.products_of_bases(i, j)
                top = ring.basis(i + j)
                pairs = [(a, b) for a in ring.basis(i).classes
                         for b in ring.basis(j).classes]
                assert table.shape == (len(pairs), top.dim)
                for row, (a, b) in zip(table, pairs):
                    want = top.class_coordinates(cup(a, i, b, j, diag)).reshape(-1)
                    assert np.array_equal(row, want), (i, j)
                    assert np.array_equal(cup_coordinates(ring, a, i, b, j), want), (i, j)

    def test_corrupted_generator_column_fails_to_lift(self, Z2):
        ring = CupRing(Z2, 2, 2)
        x = ring.basis(1).classes[0]
        # a fresh resolution: the cached one serves every other test
        res = FreeResolution(trivial_module(Z2, 2), minimal=True).extend_to(3)
        res.boundaries[1][0, 0] ^= 1  # now d_2(e) = g e, outside ker d_1
        ring.resolution = res
        with pytest.raises(LiftFailure):
            ring.cup(x, 1, x, 1)

    def test_degree_guard(self, Z2):
        ring = CupRing(Z2, 2, 2)
        one = np.array([1])
        with pytest.raises(DegreeMismatch):
            ring.cup(one, 2, one, 1)
        with pytest.raises(DegreeMismatch):
            ring.products_of_bases(1, 2)


class TestCup:
    def test_z2_powers_nonzero(self, Z2):
        ring = CupRing(Z2, 2, 8)
        x = ring.basis(1).classes[0]
        rep = x
        for n in range(2, 9):
            rep = ring.cup(rep, n - 1, x, 1)
            assert ring.basis(n).class_coordinates(rep).any()

    def test_z3_exterior_square_vanishes(self, Z3):
        ring = CupRing(Z3, 3, 4)
        x = ring.basis(1).classes[0]
        assert not cup_coordinates(ring, x, 1, x, 1).any()
        y = ring.basis(2).classes[0]
        assert cup_coordinates(ring, y, 2, y, 2).any()

    def test_z4_degree_one_square_vanishes(self, Z4):
        # the Bockstein of the Z/4 class dies, so x^2 = 0 at p = 2
        assert product_span_dims(Z4, 2, 1, 1) == 0

    def test_unit_is_identity(self, D8, Q8):
        for G in (D8, Q8):
            ring = CupRing(G, 2, 5)
            one = ring.basis(0).classes[0]  # H^0 = F_p, spanned by 1
            for i in range(5):
                basis = ring.basis(i)
                for a in basis.classes:
                    left = cup_coordinates(ring, one, 0, a, i)
                    right = cup_coordinates(ring, a, i, one, 0)
                    want = basis.class_coordinates(a).reshape(-1)
                    assert np.array_equal(left, want)
                    assert np.array_equal(right, want)

    def test_commutative_at_p2(self, D8):
        ring = CupRing(D8, 2, 6)
        for i, j in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]:
            for a in ring.basis(i).classes:
                for b in ring.basis(j).classes:
                    ab = cup_coordinates(ring, a, i, b, j)
                    ba = cup_coordinates(ring, b, j, a, i)
                    assert np.array_equal(ab, ba)

    def test_bilinear(self, Q8):
        ring = CupRing(Q8, 2, 4)
        basis1 = ring.basis(1).classes
        a, b = basis1[0], basis1[1]
        c = ring.basis(2).classes[0]
        lhs = cup_coordinates(ring, (a + b) % 2, 1, c, 2)
        rhs = (cup_coordinates(ring, a, 1, c, 2) + cup_coordinates(ring, b, 1, c, 2)) % 2
        assert np.array_equal(lhs, rhs)

    def test_associative(self, D8, V4):
        for G in (D8, V4):
            ring = CupRing(G, 2, 6)
            one_forms = ring.basis(1).classes
            for a in one_forms:
                for b in one_forms:
                    for c in one_forms:
                        ab = ring.cup(a, 1, b, 1)
                        bc = ring.cup(b, 1, c, 1)
                        left = cup_coordinates(ring, ab, 2, c, 1)
                        right = cup_coordinates(ring, a, 1, bc, 2)
                        assert np.array_equal(left, right)

    def test_class_outside_the_stable_subspace_raises(self, S4):
        # H^1(S4) is one of the two dimensions of H^1(D8): some standard
        # basis vector of F_2^2 is not stable, and has no coordinates
        ring = CupRing(S4, 2, 2)
        basis = ring.basis(1)
        outside = 0
        for v in np.eye(ring.resolution.ranks[1], dtype=np.int64):
            try:
                basis.class_coordinates(v)
            except InvariantViolation:
                outside += 1
        assert basis.dim == 1 and outside

    def test_natural_under_restriction(self, S4):
        # res(a cup b) = res(a) cup res(b) on the shared-resolution contexts,
        # both products through the diagonal oracle on G's resolution
        p = 2
        M = trivial_coefficients(S4, p)
        P = sylow(S4, 2)
        ctx = context(S4, M)
        diag = diagonal_approximation(ctx.resolution, 4)
        sub_ctx = context(S4, M, P)
        maps = MapBuilder(S4, M)
        for i, j in [(1, 1), (1, 2), (2, 2)]:
            res_ij = maps.restriction(P, i + j)
            for a in ctx.basis(i).classes:
                for b in ctx.basis(j).classes:
                    top = ctx.basis(i + j).class_coordinates(
                        cup(a, i, b, j, diag)).reshape(-1)
                    lhs = (res_ij.matrix @ top) % p
                    # cup on the restricted context through the diagonal
                    # oracle, cochain coordinates of the restricted cocycles
                    av = _restrict_cochain_vec(a, i, ctx, sub_ctx)
                    bv = _restrict_cochain_vec(b, j, ctx, sub_ctx)
                    prod = _sub_cup(sub_ctx, diag, av, i, bv, j)
                    rhs = sub_ctx.basis(i + j).class_coordinates(prod).reshape(-1)
                    assert np.array_equal(lhs, rhs)


def _restrict_cochain_vec(vec, i, ctx, sub_ctx):
    return (coset_sum_matrix(ctx, sub_ctx, i, [0]) @ vec) % ctx.p


def _sub_cup(sub_ctx, diag, av, i, bv, j):
    """Cup on the restricted context: evaluate (a (x) b) after the diagonal
    on each subgroup generator e_{k, t}."""
    G = sub_ctx.group
    p = diag.p
    n = G.order
    res = diag.resolution
    nt = len(sub_ctx.transversal)
    r_top = res.ranks[i + j]
    ri, rj = res.ranks[i], res.ranks[j]
    # cochain values on free basis vectors of P_i / P_j, trivial coefficients:
    # f(e_{j', g}) = value at the right-coset of g
    def expand(vec, r):
        out = np.zeros(r * n, dtype=np.int64)
        for jj in range(r):
            for g in range(n):
                ti = int(sub_ctx._rep_of[g])
                out[jj * n + g] = vec[jj * nt + ti]
        return out

    abar, bbar = expand(av, ri), expand(bv, rj)
    weights = np.outer(abar, bbar).reshape(-1)
    comp = diag.components[i + j][(i, j)]
    out = np.zeros(r_top * nt, dtype=np.int64)
    for k in range(r_top):
        for ti, t in enumerate(sub_ctx.transversal):
            col = diag._translate_tensor(comp[:, [k]], i, j, t).reshape(-1)
            out[k * nt + ti] = int(weights @ col % p)
    return out


# (group, p, max_deg): span dims of CupRing against G's own resolution
G_RESOLUTION_CASES = [
    ("A4", 2, 6), ("S4", 2, 6), ("S3", 3, 4), ("A4", 3, 4), ("D6", 2, 5),
    ("Z3Q16", 2, 4),
]


class TestAgainstGResolution:
    """CupRing multiplies stable classes on the Sylow subgroup's minimal
    resolution; the diagonal oracle multiplies the G-context classes on
    G's own resolution.  Span dims do not depend on either basis."""

    @pytest.mark.parametrize("name,p,max_deg", G_RESOLUTION_CASES)
    def test_span_dims(self, name, p, max_deg):
        G = catalog.get_group(name)
        ring = CupRing(G, p, max_deg)
        ctx = context(G, trivial_coefficients(G, p))
        diag = diagonal_approximation(ctx.resolution, max_deg)
        for i in range(1, max_deg):
            for j in range(i, max_deg - i + 1):
                assert ring.basis(i + j).dim == ctx.basis(i + j).dim, (i, j)
                assert product_span_dims(G, p, i, j, ring) == \
                    product_span_dim(ctx, i, j, diag), (i, j)


class TestSpanDims:
    @pytest.mark.parametrize("name", sorted(PRODUCT_ORACLES))
    def test_matches_presentation_oracle(self, name, rings):
        ring = rings(name)
        oracle = PRODUCT_ORACLES[name]()
        # independently: Hilbert series of the presentation matches dims
        assert oracle.hilbert_series(6) == list(
            cohomology_dims(catalog.get_group(name), 2, 6).dims)
        for i in range(1, 6):
            for j in range(i, 7 - i):
                got = product_span_dims(catalog.get_group(name), 2, i, j, ring)
                want = oracle.product_span_dim(i, j)
                assert got == want, (name, i, j)

    def test_a4_degree_six_span(self, rings):
        # four monomials u^3, v^2, w^2, vw modulo one relation: dimension 3
        ring = rings("A4")
        assert product_span_dims(catalog.get_group("A4"), 2, 3, 3, ring) == 3
        assert PRODUCT_ORACLES["A4"]().product_span_dim(3, 3) == 3


class TestSplice:
    def test_z4_single_segment_is_s1(self, Z4):
        C = splice_complex(Z4, maximal_subgroups(Z4))
        assert cochain_cohomology_dims(C.as_cochain, 2) == [1, 1]
        assert sphere_cohomology_check(C)

    def test_d8_segment_exactness(self, D8):
        for H in maximal_subgroups(D8):
            C = splice_complex(D8, [H])
            d = C.as_cochain.differentials[0]
            from modcoh.fplinalg import rref_array
            assert rref_array(d, 2)[1] == (D8.order // H.order) - 1

    def test_q8_pair_found_by_search(self, Q8):
        hit = find_sphere_splice(Q8, max_len=2, min_len=2)
        assert hit is not None
        subs, C = hit
        assert len(subs) == 2
        dims = cochain_cohomology_dims(C.as_cochain, 2)
        assert dims == [1, 0, 0, 1]  # H^*(S^3)

    def test_elementary_abelian_still_runs(self, V4):
        C = splice_complex(V4, maximal_subgroups(V4)[:2])
        # no assertion required by the hypothesis; just report
        assert isinstance(sphere_cohomology_check(C), bool)

    def test_empty_list_rejected(self, Q8):
        with pytest.raises(NotMaximal):
            splice_complex(Q8, [])

    def test_non_maximal_rejected(self, Q8):
        from modcoh.groups import center
        with pytest.raises(NotMaximal):
            splice_complex(Q8, [center(Q8)])

    def test_trivial_group_rejected(self):
        # |P| = 1 has no prime divisor; a search for one never ended
        Z1 = catalog.get_group("Z1")
        with pytest.raises(NotMaximal):
            splice_complex(Z1, [whole_group(Z1)])


class TestProductTable:
    def test_csv_matches_oracle(self, D8):
        from modcoh.products import product_table_csv
        text = product_table_csv(D8, 2, 4)
        rows = text.strip().splitlines()
        assert rows[0] == "i,j,span_dim,dim_total"
        table = {(int(a), int(b)): (int(c), int(d))
                 for a, b, c, d in (r.split(",") for r in rows[1:])}
        oracle = PRODUCT_ORACLES["D8"]()
        for (i, j), (span, total) in table.items():
            assert span == oracle.product_span_dim(i, j)
            assert total == oracle.component_dim(i + j)

    def test_d8xd8_table_through_degree_5_traced_peak(self):
        """Untwisted lifts build no expanded tau.  Lifts that expand each
        Phi_{k-1} into tau peak near 238 MiB on D8 x D8's table through
        degree 5; without tau the peak stays well under this bound."""
        import tracemalloc
        from modcoh.fileio import parse_group_file
        from modcoh.products import product_table_csv
        G = parse_group_file((DATA / "D8xD8.grp").read_text())
        tracemalloc.start()
        try:
            product_table_csv(G, 2, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 96 * 2 ** 20, peak / 2 ** 20

    def test_d8xd8_table_through_degree_5_is_pinned(self):
        """The SHA-256 of D8 x D8's product table through total degree 5:
        every lift step of every degree-i class batch on an order-64 group."""
        from modcoh.fileio import parse_group_file
        from modcoh.products import product_table_csv
        G = parse_group_file((pathlib.Path(__file__).parent / "data" / "D8xD8.grp").read_text())
        text = product_table_csv(G, 2, 5)
        assert text.splitlines()[-1] == "2,3,56,56"  # dim H^5 = C(8, 3), Kunneth
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "6fde7903079c5f1537e5674e5bee844b6a62b7b5bbfc62cebb0209ef9d75fbdd"


class TestUntwistedLiftBlocks:
    @pytest.mark.parametrize("per_block", ["one h", "all of P"])
    def test_blocked_lifts_match_full_boundary_lifts(self, monkeypatch, per_block):
        """Each untwisted step multiplies Phi by W gathered at h u^-1, one
        product per block of h under the entry budget `groups._BLOCK`.  On
        D8 x D8's cocycle batches, with the budget set to one h per block
        and to all of P in one block, every Phi_k is byte for byte the lift
        solved on the full d_k, and each step runs as many products as
        blocks, plus the exactness check and the solve."""
        from modcoh.fileio import parse_group_file
        G, top = parse_group_file((DATA / "D8xD8.grp").read_text()), 4
        ring = CupRing(G, 2, top)
        batches = [(i, ring.basis(i).classes) for i in range(top)]
        ring.resolution.extend_to(top)._factor(top)
        blocks = {"one h": G.order, "all of P": 1}[per_block]
        monkeypatch.setattr(groups, "_BLOCK", 1 if blocks > 1 else 1 << 40)
        calls = []
        product = fplinalg._matmul_mod
        monkeypatch.setattr(fplinalg, "_matmul_mod",
                            lambda a, b, p: calls.append(1) or product(a, b, p))
        for i, classes in batches:
            del calls[:]
            got = ring._lift(classes.T, i, top - i)
            assert len(calls) == (top - i) * (blocks + 2)
            want = full_boundary_lift(ring.resolution, got[:1], i, top - i)
            assert [a.dtype for a in got] == [b.dtype for b in want]
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want], i
