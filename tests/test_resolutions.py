import hashlib
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcoh import catalog, fplinalg
from modcoh.cohmaps import stable_elements
from modcoh.errors import (
    ElementaryAbelianInput,
    InsufficientData,
    InvariantViolation,
    MinimalityUnavailable,
    NoFitFound,
    SeriesTooShort,
)
from modcoh.gmodules import (
    GModule,
    direct_sum,
    module_from_generator_matrices,
    dual_module,
    invariants,
    permutation_module,
    regular_module,
    restrict_module,
    tensor_module,
    trivial_module,
)
from modcoh.groups import center, generate_group, prime_factors, sylow
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

from corpus import build_corpus, small_permutation_groups
from resolution_oracle import expand, padded_resolution
from span_oracle import SequentialRowSpan, select


class TestConstruction:
    def test_regular_module_resolves_itself(self, D8):
        res = free_resolution(regular_module(D8, 2), 3, minimal=True)
        assert res.ranks == [1, 0, 0, 0]
        res.check_exactness()

    @pytest.mark.parametrize("name,p", (("D8", 2), ("A4", 2), ("S3", 3)))
    def test_extend_to_leaves_the_newest_kernel_alone(self, name, p, monkeypatch):
        """extend_to(L) eliminates ker d_0 .. ker d_{L-1}, never ker d_L;
        that one is eliminated when read, and is the kernel of the full d_L."""
        shapes = []
        kernel = fplinalg.kernel
        monkeypatch.setattr(fplinalg, "kernel",
                            lambda a, p: shapes.append(a.shape) or kernel(a, p))
        G = catalog.get_group(name)
        res = FreeResolution(trivial_module(G, p), minimal=G.is_p_group(p)).extend_to(4)
        assert len(shapes) == len(res._kernel_pivots) == 4 and res._kernel is None
        K = res._newest_kernel()
        assert len(shapes) == len(res._kernel_pivots) == 5
        res.extend_to(5)
        assert len(shapes) == 5
        assert np.array_equal(K, fplinalg.kernel(res.boundary(4), p)[0])

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
            res = padded_resolution(M, 4) if pad else free_resolution(M, 4, minimal=minimal)
            for i in range(1, res.length + 1):
                assert np.array_equal(res.boundary(i), _boundary_by_loop(res, i))

    def test_expand_gathers_in_c_order(self, D8, S4):
        """expand, and the oracle's twisted expansion, return a C-contiguous
        matrix equal to the column-by-column translation loop: expand on
        boundaries of free and minimal resolutions (r_0 = 1 and wider), the
        twisted one on the conjugation lifts of S4 and L3(2) at p = 2."""
        cases = []
        for res in (free_resolution(trivial_module(D8, 2), 4, minimal=True),
                    free_resolution(trivial_module(S4, 3), 4)):
            cases += [(res, W, None) for W in res.boundaries]
        for name in ("S4", "L3_2"):
            state = stable_elements(catalog.get_group(name), 2)
            for (_, twist, _), phis in zip(state.pairs, state.lifts(3)):
                cases += [(state.resolution, phi, twist) for phi in phis]
        for res, images, twist in cases:
            got = expand(res, images, twist)
            assert got.flags.c_contiguous
            assert np.array_equal(got, _expand_by_loop(res, images, twist))

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
        res = padded_resolution(trivial_module(D8, 2), 2)
        assert not res.image_in_radical(1)

    def test_prime_above_max_prime_raises(self):
        from modcoh.errors import PrimeTooLarge
        with pytest.raises(PrimeTooLarge):
            cohomology_dims(catalog.get_group("Z5"), 4294967311, 4)

    def test_minimal_rejected_for_non_p_group(self, A4):
        with pytest.raises(MinimalityUnavailable):
            free_resolution(trivial_module(A4, 2), 3, minimal=True)

    @pytest.mark.parametrize("name,p", [("S3", 3), ("A4", 2)])
    def test_constructor_rejects_minimal_for_non_p_group(self, name, p):
        """Built directly, a minimal resolution over a non-p-group would
        keep too few generators and not be exact: S3 at p = 3 would have
        ranks 1, 0, 0, ... .  The constructor refuses it, as
        free_resolution does."""
        M = trivial_module(catalog.get_group(name), p)
        with pytest.raises(MinimalityUnavailable):
            FreeResolution(M, minimal=True)
        FreeResolution(M, minimal=False).extend_to(3).check_exactness()

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


# SHA-256 of to_text() through degree 6 of the minimal resolution of F_2 over
# a Sylow 2-subgroup, pinned before generator selection became one elimination
# and I . K came from the generators of P: the generators chosen, and so every
# boundary, must not move.
SYLOW_2_RESOLUTION_SHA256 = {
    "Z2xZ2": "ed713a3773e8cca50590b109f6e37dd7a431c8601ce3f5500be545f971f7d7e1",
    "Z2xZ2xZ2": "838c60b622a6df379d92db2715fe00f76e3c0edb31ad1616f99e7844b47463f7",
    "D8": "a410f3ccd06e32963f7d1792621539624ddd3769a8b19a3e49ad39932d115705",
    "Q8": "f45c892e3803dce3bd4d0aff37f7df2c10c53e6c28a8fe2166c0fdd7f7174758",
    "Q16": "ca594fb99aa6e4c3941c503044250f96d0a7408870fa768fe7b891a9e7798385",
    "A4": "d53522cb58c05c1f5204724c932f5a75b6cad746f7163e67417151f3d5fbec08",
    "S4": "c0575aca806153372c126a4dce58ac10c2da77f0f7e9487596244b255455d3ee",
    "Z3Q16": "456437502c701c17f352b3d6af824b20ea29102eea387d7bd5a1beb0da803d95",
}


class TestMinimalGoldens:
    @pytest.mark.parametrize("name", sorted(SYLOW_2_RESOLUTION_SHA256))
    def test_sylow_resolution_text_is_pinned(self, name):
        P = sylow(catalog.get_group(name), 2).as_group()
        res = free_resolution(trivial_module(P, 2), 6, minimal=True)
        digest = hashlib.sha256(res.to_text().encode()).hexdigest()
        assert digest == SYLOW_2_RESOLUTION_SHA256[name]

    @pytest.mark.parametrize("name", sorted(SYLOW_2_RESOLUTION_SHA256))
    def test_radical_from_generators_spans_i_times_k(self, name):
        P = sylow(catalog.get_group(name), 2).as_group()
        _assert_radical_spans_agree(trivial_module(P, 2), 6)

    @given(small_permutation_groups())
    @settings(max_examples=15, deadline=None)
    def test_radical_from_generators_on_random_sylow_subgroups(self, G):
        for p in prime_factors(G.order):
            _assert_radical_spans_agree(trivial_module(sylow(G, p).as_group(), p), 3)

    @pytest.mark.parametrize("name", sorted(SYLOW_2_RESOLUTION_SHA256))
    def test_kernel_coordinate_selection_matches_full_width(self, name):
        P = sylow(catalog.get_group(name), 2).as_group()
        _assert_kernel_coordinate_selection_agrees(trivial_module(P, 2), 5)

    @given(small_permutation_groups())
    @settings(max_examples=15, deadline=None)
    def test_kernel_coordinate_selection_on_random_groups(self, G):
        for p in prime_factors(G.order):
            _assert_kernel_coordinate_selection_agrees(
                trivial_module(sylow(G, p).as_group(), p), 3)
            _assert_kernel_coordinate_selection_agrees(trivial_module(G, p), 3)


# SHA-256 of to_text() of the greedily pruned free resolution of F_p over
# each catalog group that is not a p-group, at each prime dividing its order,
# through degree 5 (L3(2) at p = 2 through degree 3), pinned before free
# selection moved to the lead test of fplinalg.greedy_generators: the
# generators chosen, and so every boundary, must not move.
FREE_RESOLUTION_SHA256 = {
    ("S3", 2, 5): "62bdba9083a5c74296319e62833ea7b187ed63e478fdbf86a9e6ba78b316b56d",
    ("S3", 3, 5): "5cfc63d5d25b772771560370a2cbb51d15c077889e21dc3f90c240d937e33087",
    ("D6", 2, 5): "d515e8ef5d9aef3cab534d021ce7d8f592f84c0f5086bf58568606341194a111",
    ("D6", 3, 5): "350c6d3f67c6f4a8c5a6aca3113cde1d6258fc3ef8ca21582dd257836cee72e5",
    ("Z6", 2, 5): "929dd60df51733db261ea4b813ae55b3525252574eec4e2bffcaf320f495bb79",
    ("Z6", 3, 5): "72d76bbdeb3f008a86507155a132b8cb0193cce416be8f431bee0b9f80a7c4d7",
    ("Z12", 2, 5): "2e9ebcf0a87c18516b2ccb296732c568f8078607d6732b38c2829eb840b37571",
    ("Z12", 3, 5): "90dac06e6a6094d61ede5079225a566050cd143b3514d1334b527eb7f3431dfe",
    ("A4", 2, 5): "b08abebc13cce100473e383608d0ce5ba885fa2c47ffa4f8983ce18b3d300813",
    ("A4", 3, 5): "2d5ef40278ea1795c1e56abff84f431703f79ec020d0f685d855c83741f825f7",
    ("S4", 2, 5): "d405e4bb4fd125752236cc067677e31cc53bd1b11548c5e973b39c9cf3e38526",
    ("S4", 3, 5): "19625f15f5ee2fad6e1ea12c2f7cc14a92d543b9574abac82357de6ba4a58643",
    ("Z3Q16", 2, 5): "59d5e8ec1c5a5f527624932e33b74d2e5bac5120fa4bafb199b39e51cc8f3028",
    ("Z3Q16", 3, 5): "0db66d7141071cedf5106130f338862089e4092770759dcf555d39fb20946657",
    ("L3_2", 2, 3): "9b7695f0cb5dc243d5fa76e914b552f40330c6b82ffa5c29120ac2d67113f11c",
}


def _every_element_stage_zero(M):
    """Minimal stage zero as it was selected: e_i outside the RREF span of
    (A_g - 1) . M over every element g and of the rows kept before it."""
    eye = np.eye(M.dim, dtype=np.int64)
    every = np.vstack([(M.action[g] - eye).T for g in range(M.group.order)])
    reduced, rank = fplinalg.rref_array(every, M.p)
    return fplinalg.independent_rows(reduced[:rank], eye, M.p)


class TestStageZeroSelection:
    """Minimal stage zero runs the lead test of the later stages on
    (A_s - 1) for the generators s, and keeps the same rows."""

    def test_matches_every_element_selection(self):
        Z3, Z9 = catalog.get_group("Z3"), generate_group(9, [list(range(1, 9)) + [0]])
        shear = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        mods = [M for _, M in build_corpus() if M.group.is_p_group(2)] + [
            regular_module(Z3, 3), tensor_module(regular_module(Z3, 3), regular_module(Z3, 3)),
            module_from_generator_matrices(Z3, 3, 3, [shear]),
            direct_sum(trivial_module(Z3, 3, 2), module_from_generator_matrices(Z3, 3, 3, [shear])),
            regular_module(Z9, 3), regular_module(catalog.get_group("Z5"), 5)]
        assert len(mods) > 20
        for M in mods:
            gens = FreeResolution(M, minimal=True)._stage_zero_generators(M)
            want = np.eye(M.dim, dtype=np.int64)[_every_element_stage_zero(M)]
            assert np.array_equal(np.reshape(gens, (-1, M.dim)), want)


class TestFreeGoldens:
    @pytest.mark.parametrize("name,p,length", sorted(FREE_RESOLUTION_SHA256))
    def test_free_resolution_text_is_pinned(self, name, p, length):
        G = catalog.get_group(name)
        res = free_resolution(trivial_module(G, p), length)
        assert not res.minimal
        digest = hashlib.sha256(res.to_text().encode()).hexdigest()
        assert digest == FREE_RESOLUTION_SHA256[name, p, length]


def _sequential_generators(k, translates, p):
    """The greedy generators by the test-then-add scan of SequentialRowSpan,
    which adds every translate of each kept e_j and re-reduces."""
    eye = np.eye(k, dtype=np.int64)
    return SequentialRowSpan(p, k).select(eye, expand=lambda e: translates(int(e.argmax())))


class TestGreedyGenerators:
    """fplinalg.greedy_generators, as both free-selection sites call it,
    against the sequential scan at p = 2, 3 and 5."""

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_stage_zero_of_corpus_modules(self, p):
        corpus = [M for _, M in build_corpus()]
        # the corpus's permutation matrices act over every F_p; the first
        # syzygies add modules that are not permutation modules
        modules = [GModule(M.group, p, M.action, validate=False) for M in corpus]
        modules += [syzygy(M, 1) for M in modules[:12]]
        for G in {M.group for M in corpus}:
            modules.append(GModule(G, p, np.zeros((G.order, 0, 0), dtype=np.int64)))
        for M in modules:
            eye = np.eye(M.dim, dtype=np.int64)
            want = _sequential_generators(M.dim, lambda j: M.action @ eye[j], p)
            got = FreeResolution(M, minimal=False)._stage_zero_generators(M)
            assert [int(v.argmax()) for v in got] == want
            assert fplinalg.greedy_generators(
                M.dim, lambda j: M.action[:, :, j], p).tolist() == want

    @pytest.mark.parametrize("p", (2, 3, 5))
    @pytest.mark.parametrize("name", [n for n in catalog.names()
                                      if len(prime_factors(catalog.get_group(n).order)) > 1])
    def test_kernel_coordinate_scans_of_catalog_groups(self, name, p):
        """Each stage's scan in K's coordinates, at primes that divide |G|
        and primes that do not."""
        G = catalog.get_group(name)
        res = FreeResolution(trivial_module(G, p), minimal=False)
        for _ in range(4 if G.order < 48 else 3):
            K = res._newest_kernel()
            at = res._translates(res._kernel_pivots[-1])
            want = _sequential_generators(len(K), lambda j: K[j][at], p)
            assert res._kernel_generators(K, at).tolist() == want
            res._append_stage()

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_zero_kernel(self, p):
        """k = 0: nothing is kept and no translate is asked for; the regular
        module's resolution meets k = 0 after stage zero."""
        def translates(j):
            raise AssertionError("no e_j to translate")
        assert fplinalg.greedy_generators(0, translates, p).tolist() == []
        assert _sequential_generators(0, translates, p) == []
        for name in ("S3", "A4"):
            res = free_resolution(regular_module(catalog.get_group(name), p), 2)
            assert res.ranks == [1, 0, 0] and not len(res._newest_kernel())


def _radical_rows(res, rows, rank):
    """(s - 1) . rows for each generator s of G, rows in F_p[G]^rank, at
    full width: the I . K that minimal stages eliminated before selection
    moved into K's coordinates."""
    n = res.group.order
    shaped = rows.reshape(len(rows), rank, n)
    # moved[k, j, s, h] = (s . row_k)[j n + h] = row_k[j n + s^{-1} h]
    moved = shaped[:, :, res._take[list(res.group.generator_indices)]]
    moved = (moved - shaped[:, :, None]) % res.p
    return moved.transpose(2, 0, 1, 3).reshape(-1, rank * n)


def _stage_kernels(res, length):
    """The kernel of the augmentation and of d_1 .. d_length, each from the
    full matrix."""
    kernels = [fplinalg.kernel(res.augmentation, res.p)[0].astype(np.int64)]
    return kernels + [fplinalg.kernel(res.boundary(i), res.p)[0].astype(np.int64)
                      for i in range(1, length + 1)]


def _assert_radical_spans_agree(M, length):
    """sum_s (s - 1) K over the generators s of G, against sum_g (g - 1) K
    over every element g, for the kernel K at each stage of M's minimal
    resolution: equal RREFs."""
    res = free_resolution(M, length, minimal=True)
    p, n = res.p, res.group.order
    for rank, K in zip(res.ranks, _stage_kernels(res, length)):
        if not len(K):
            continue
        every = (res.expand(K.T).T - np.repeat(K, n, axis=0)) % p
        want, r = fplinalg.rref_array(every, p)
        got, s = fplinalg.rref_array(_radical_rows(res, K, rank), p)
        assert s == r and np.array_equal(got[:s], want[:r])


def _assert_kernel_coordinate_selection_agrees(M, length):
    """Selection in K's coordinates keeps the rows that the full-width scans
    keep: independent_rows against (s - 1) . K on a minimal resolution, the
    greedy span_oracle.select over every translate on a free one.  The
    kernels here come from full boundaries, and the kept rows are the
    generators the resolution stored, so its pivot-row kernels are these."""
    p, n = M.p, M.group.order
    for minimal in (True, False) if M.group.is_p_group(p) else (False,):
        res = free_resolution(M, length, minimal=minimal)
        for i, (rank, K) in enumerate(zip(res.ranks, _stage_kernels(res, length))):
            if not len(K):
                continue
            got = res._kernel_generators(K, res._translates(fplinalg.pivot_columns(K)))
            if minimal:
                want = fplinalg.independent_rows(_radical_rows(res, K, rank), K, p)
            else:
                want = select(fplinalg.FpSubspace(p, rank * n), K,
                              expand=lambda row: res.expand(row.reshape(-1, 1)).T)
            assert got.tolist() == want.tolist(), (minimal, i)
            if i < length:
                assert np.array_equal(K[got].T, res.boundaries[i]), (minimal, i)


def _expand_by_loop(res, images, twist=None):
    """expand column by column: column k |G| + g is sigma[s] . images[:, (k, u)]
    for g = s . u, and untwisted (S = G, sigma the identity) g . images[:, k]."""
    n = res.group.order
    cosets, sigma = ((np.arange(n)[None, :], np.arange(n)) if twist is None
                     else (twist.source, twist.target[0]))
    nu = len(cosets)
    out = np.zeros((len(images), images.shape[1] // nu * n), dtype=images.dtype)
    for k in range(images.shape[1] // nu):
        for u in range(nu):
            blocks = images[:, k * nu + u].reshape(-1, n)
            for s, g in enumerate(cosets[u]):
                out[:, k * n + g] = blocks[:, res._take[sigma[s]]].reshape(-1)
    return out


def _boundary_by_loop(res, i):
    """d_i built generator by generator from its column, as once stored."""
    n = res.group.order
    W = res.boundaries[i - 1]
    D = np.zeros((W.shape[0], W.shape[1] * n), dtype=np.int64)
    for k in range(W.shape[1]):
        shaped = W[:, k].reshape(-1, n)[:, res._take]  # (rank_prev, |G|, n)
        D[:, k * n:(k + 1) * n] = shaped.transpose(1, 0, 2).reshape(n, -1).T
    return D


class TestD8xD8:
    """An order-64 Sylow 2-subgroup beyond the catalog: H^*(D8) has
    Poincare series 1/(1 - t)^2, so by Kunneth H^*(D8 x D8) has
    1/(1 - t)^4, dim H^n = C(n + 3, 3)."""

    KUNNETH = (1, 4, 10, 20, 35, 56, 84)
    DATA = pathlib.Path(__file__).parent / "data"

    @staticmethod
    def group():
        D8 = catalog.get_group("D8")
        return catalog.make_direct_product(D8, D8)

    def test_group_file_holds_the_same_generators(self):
        from modcoh.fileio import parse_group_file
        parsed, built = parse_group_file((self.DATA / "D8xD8.grp").read_text()), self.group()
        assert parsed.order == built.order == 64
        assert [parsed.elements[i].images for i in parsed.generator_indices] == \
            [built.elements[i].images for i in built.generator_indices]

    def test_pinned_csv_is_the_kunneth_series(self):
        lines = (self.DATA / "D8xD8_dims.csv").read_text().splitlines()
        assert lines[0] == "i,dim,expected,match"
        assert [line.split(",") for line in lines[1:]] == \
            [[str(i), str(d), "-", "-"] for i, d in enumerate(self.KUNNETH)]

    @pytest.mark.stretch
    def test_ranks_and_dims_follow_kunneth_through_degree_6(self):
        G = self.group()
        d8 = cohomology_dims(catalog.get_group("D8"), 2, 6).dims
        assert self.KUNNETH == tuple(sum(d8[j] * d8[n - j] for j in range(n + 1))
                                     for n in range(7))
        assert cohomology_dims(G, 2, 6).dims == self.KUNNETH
        # P = G: the dims are read off the minimal resolution of G itself
        res = stable_elements(G, 2).resolution
        assert res.minimal and tuple(res.ranks[:7]) == self.KUNNETH


class TestD8xD8xZ2:
    """An order-128 group: D8 x D8 on points 0-7 as in D8xD8.grp, and Z2 as
    the transposition (8 9).  By Kunneth with H^*(Z2) = 1/(1 - t),
    dim H^n = C(n + 4, 4)."""

    DATA = pathlib.Path(__file__).parent / "data"

    def test_order_and_dims_through_degree_3(self):
        from modcoh.fileio import parse_group_file
        G = parse_group_file((self.DATA / "D8xD8xZ2.grp").read_text())
        D8xD8 = parse_group_file((self.DATA / "D8xD8.grp").read_text())
        assert G.order == 128
        gens = [G.elements[i].images for i in G.generator_indices]
        assert [g[:8] for g in gens[:4]] == \
            [D8xD8.elements[i].images for i in D8xD8.generator_indices]
        assert gens[4] == (0, 1, 2, 3, 4, 5, 6, 7, 9, 8)
        assert cohomology_dims(G, 2, 3).dims == (1, 5, 15, 35)


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
        padded = padded_resolution(triv, 6)
        assert padded.ranks[0] == minimal.ranks[0] + 1
        a = ext_dims(triv, triv, 5, resolution=minimal)
        b = ext_dims(triv, triv, 5, resolution=padded)
        assert a.dims == b.dims

    def test_resolution_independence_nontrivial_coefficients(self, D8):
        triv = trivial_module(D8, 2)
        N = permutation_module(D8, center(D8), 2)
        minimal = free_resolution(triv, 5, minimal=True)
        padded = padded_resolution(triv, 5)
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

    def test_ext0_is_the_fixed_space(self, D8, Q8):
        # Ext^0(F_p, N) = N^G, from the generators' fixed space
        for G in (D8, Q8):
            triv = trivial_module(G, 2)
            for N in (triv, regular_module(G, 2),
                      permutation_module(G, center(G), 2)):
                assert ext_dims(triv, N, 1).dims[0] == invariants(N).dim

    def test_ext0_mismatch_raises(self, D8, monkeypatch):
        from modcoh import resolutions
        triv, N = trivial_module(D8, 2), regular_module(D8, 2)
        real = resolutions._hom_delta
        # a zero delta^0 makes Ext^0 all of N, not the one-dimensional N^G
        monkeypatch.setattr(resolutions, "_hom_delta",
                            lambda res, M, i, cosets=None: real(res, M, i, cosets) * (i != 0))
        with pytest.raises(InvariantViolation, match="N\\)\\^G"):
            ext_dims(triv, N, 2)
        # a free source has no delta^0 to zero: Hom_G(F_2[G], N) is all of N
        assert ext_dims(N, N, 0).dims == (8,)

    def test_ext0_is_hom_for_every_corpus_module(self):
        """Ext^0(M, N) = Hom_G(M, N) for the corpus modules, as source and as
        target against the trivial and the regular module: the dimension of
        the X with N(s) X = X M(s) for the generators s, solved apart from
        both the Hom complex and the tensor module the check reads."""
        def hom_dim(M, N):
            eye_m, eye_n = np.eye(M.dim, dtype=np.int64), np.eye(N.dim, dtype=np.int64)
            # column-major vec: vec(N X - X M) = (I (x) N - M^T (x) I) vec(X)
            rows = [np.kron(eye_m, N.action[s]) - np.kron(M.action[s].T, eye_n)
                    for s in M.group.generator_indices]
            return M.dim * N.dim - len(fplinalg.rref_pivots(np.vstack(rows) % M.p, M.p))

        for _, M in build_corpus():
            G = M.group
            for other in (trivial_module(G, 2), regular_module(G, 2)):
                for A, B in ((M, other), (other, M)):
                    assert ext_dims(A, B, 0).dims[0] == hom_dim(A, B)

    def test_ext0_agrees_with_the_tensor_module(self):
        """The check's fixed space of the generators' M*(s) (x) N(s) against
        the invariants of the whole tensor module M* (x) N, kept here as the
        oracle: the corpus at p = 2, and A4 and S3 at p = 3."""
        cases = [(M, other) for _, M in build_corpus()
                 for other in (trivial_module(M.group, 2), regular_module(M.group, 2))]
        for name in ("A4", "S3"):
            G = catalog.get_group(name)
            mods = [trivial_module(G, 3), regular_module(G, 3),
                    permutation_module(G, sylow(G, 2), 3)]
            cases += [(A, B) for A in mods for B in mods]
        for M, other in cases:
            for A, B in ((M, other), (other, M)):
                want = invariants(tensor_module(dual_module(A), B)).dim
                assert ext_dims(A, B, 0).dims[0] == want

    def test_ext0_check_builds_no_tensor_module(self):
        """The check reads the generators' M*(s) (x) N(s) alone: for the
        40-dimensional Q8 corpus module ext_dims(M, M, 0) peaks under three
        stacks of those matrices, where the tensor module over all of Q8
        took six and a half."""
        import tracemalloc
        M = next(M for name, M in build_corpus() if name == "Q8" and M.dim == 40)
        stack = len(M.group.generator_indices) * M.dim ** 4 * 8
        tracemalloc.start()
        try:
            assert ext_dims(M, M, 0).dims == (200,)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * stack, peak / stack

    def test_ext0_mismatch_raises_for_any_source(self, D8):
        """A zeroed d_1 on the resolution of a permutation module makes
        Ext^0(F_2[D8/Z], F_2[D8]) all 8 of P_0's values, not Hom_G's 4."""
        M, N = permutation_module(D8, center(D8), 2), regular_module(D8, 2)
        res = free_resolution(M, 1, minimal=True)
        assert ext_dims(M, N, 0, resolution=res).dims == (4,)
        res.boundaries[0] = np.zeros_like(res.boundaries[0])
        with pytest.raises(InvariantViolation, match="Ext\\^0 has dimension 8"):
            ext_dims(M, N, 0, resolution=res)


class TestMinimalRankIdentity:
    @pytest.mark.parametrize("name", ["Z2", "Z4", "Q8", "D8"])
    def test_trivial_regular_and_center_coset(self, name):
        P = catalog.get_group(name)
        mods = [trivial_module(P, 2), regular_module(P, 2),
                permutation_module(P, center(P), 2)]
        for M in mods:
            assert minimal_rank_identity_check(M, 6)

    @given(small_permutation_groups())
    @settings(max_examples=15, deadline=None)
    def test_free_against_minimal_on_random_sylow_subgroups(self, G):
        """Ext of F_p on the greedily pruned free resolution of a Sylow
        p-subgroup P, as a group of its own, equals the ranks of P's minimal
        resolution through degree 4, at each prime dividing |G|: greedy
        selection (on a growing FpSubspace at odd p) against minimal
        selection, which runs one path at every p."""
        for p in prime_factors(G.order):
            F = trivial_module(sylow(G, p).as_group(), p)
            free = free_resolution(F, 5)
            minimal = free_resolution(F, 5, minimal=True)
            assert not free.minimal
            assert ext_dims(F, F, 4, resolution=free).dims == tuple(minimal.ranks[:5])


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
        for name, M in build_corpus(20):
            direct = is_projective(M)
            assert chouinard_projective(M) == direct
            G = M.group
            if G.is_p_group(2) and not G.is_elementary_abelian(2):
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


# dim H^i(A6; F_3) for i = 0 .. 12
A6_AT_3_THROUGH_12 = (1, 0, 1, 2, 1, 0, 1, 4, 3, 0, 3, 6, 3)


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

    def test_fit_needs_as_many_check_terms_as_its_total(self):
        # (4, 8) fits this series from degree 24 on; through degree 12 only
        # fits of total 11 or more match, each checked by at most one term
        with pytest.raises(NoFitFound):
            auto_poincare_fit(A6_AT_3_THROUGH_12, max_part=720)

    @pytest.mark.stretch
    def test_probe_doubles_until_a_fit_is_verified(self):
        A6 = catalog.get_group("A6")
        assert cohomology_dims(A6, 3, 12).dims == A6_AT_3_THROUGH_12
        assert krull_dimension_estimate(A6, 3) == 2


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
