"""Cup products through a diagonal approximation, and splice complexes.

The diagonal P_* -> P_* (x) P_* is lifted degree by degree.  Rather than
solving a large linear system per degree, a contracting homotopy of P_*
(as a complex of plain vector spaces) is assembled once from deterministic
right inverses of the boundaries; the tensor complex then inherits the
standard homotopy s (x) 1 + (unit.counit) (x) s, and each lift is a matrix
product.  The chain-map identity is checked after every degree, so a
conventions bug cannot slip through silently.

Only trivial coefficients are supported: every product statement with
acceptance data lives in H^*(G, F_p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fplinalg
from .cohmaps import CochainComplex, context, trivial_coefficients
from .errors import DegreeMismatch, LiftFailure, NotMaximal
from .gmodules import permutation_module
from .groups import FiniteGroup, Subgroup, prime_factors
from .resolutions import FreeResolution, trivial_resolution


class DiagonalMap:
    """Chain map P_n -> sum_{i+j=n} P_i (x) P_j lifting the identity.

    components[n][(i, j)] holds the images of the degree-n free generators
    as columns over the flat basis of P_i (x) P_j; images of general basis
    vectors follow by the diagonal translation action.
    """

    def __init__(self, resolution: FreeResolution, max_deg: int) -> None:
        self.resolution = resolution
        self.max_deg = max_deg
        self.p = resolution.p
        self._n = resolution.group.order
        self.components: list[dict[tuple[int, int], np.ndarray]] = []
        self._build()

    # -- contracting homotopy --------------------------------------------

    def _space_dim(self, i: int) -> int:
        return self.resolution.ranks[i] * self._n

    def _build_homotopy(self):
        res, p = self.resolution, self.p
        res.extend_to(self.max_deg + 1)
        aug = res.augmentation
        rho0 = fplinalg.solve_array(aug, np.array([1]), p)
        if rho0 is None:
            raise LiftFailure("augmentation is not surjective")
        rho0 = rho0.reshape(-1, 1)
        E = (rho0 @ aug) % p
        rho_amb = [None]  # index i >= 1: ambient right inverse of d_i on ker d_{i-1}
        kernels = [fplinalg.kernel_array(aug, p)]
        for i in range(1, self.max_deg + 2):
            D = res.boundaries[i - 1]
            Z = kernels[-1]
            if len(Z):
                X = fplinalg.solve_batch(D, Z.T, p)
                if X is None:
                    raise LiftFailure(f"boundary d_{i} does not cover the kernel")
                pivots = fplinalg.pivot_columns(Z)
                amb = np.zeros((self._space_dim(i), self._space_dim(i - 1)),
                               dtype=np.int64)
                amb[:, pivots] = X
            else:
                amb = np.zeros((self._space_dim(i), self._space_dim(i - 1)),
                               dtype=np.int64)
            rho_amb.append(amb)
            kernels.append(fplinalg.kernel_array(D, p))
        s = [None] * (self.max_deg + 1)
        eye0 = np.eye(self._space_dim(0), dtype=np.int64)
        s[0] = (rho_amb[1] @ ((eye0 - E) % p)) % p
        for i in range(1, self.max_deg + 1):
            D = res.boundaries[i - 1]
            eye = np.eye(self._space_dim(i), dtype=np.int64)
            s[i] = (rho_amb[i + 1] @ ((eye - rho_amb[i] @ D) % p)) % p
        self._E = E
        self._s = s

    # -- diagonal lift -----------------------------------------------------

    def _translate_tensor(self, cols: np.ndarray, i: int, j: int, g: int) -> np.ndarray:
        """(g (x) g) applied to tensor columns over P_i (x) P_j."""
        take = self.resolution._take[g]
        di, dj = self._space_dim(i), self._space_dim(j)
        ri, rj = self.resolution.ranks[i], self.resolution.ranks[j]
        n = self._n
        shaped = cols.reshape(ri, n, rj, n, -1)
        return shaped[:, take][:, :, :, take].reshape(di * dj, -1)

    def _full_matrix(self, n_deg: int, i: int, j: int) -> np.ndarray:
        """Diagonal component on all of P_{n_deg}, not just the generators."""
        comp = self.components[n_deg][(i, j)]
        n = self._n
        r = self.resolution.ranks[n_deg]
        out = np.zeros((comp.shape[0], r * n), dtype=np.int64)
        for g in range(n):
            out[:, g::n] = self._translate_tensor(comp, i, j, g)
        # columns were laid down as (generator, g) with stride n
        return out

    def _build(self) -> None:
        self._build_homotopy()
        res, p, n = self.resolution, self.p, self._n
        r0 = res.ranks[0]
        d0 = self._space_dim(0)
        comp0 = np.zeros((d0 * d0, r0), dtype=np.int64)
        for k in range(r0):
            flat = k * n  # e_{k, identity}
            comp0[flat * d0 + flat, k] = 1
        self.components.append({(0, 0): comp0})
        for deg in range(1, self.max_deg + 1):
            W = res.generator_columns(deg)  # (dim P_{deg-1}, r_deg)
            rhs = {}
            for (i, j), _ in self.components[deg - 1].items():
                rhs[(i, j)] = (self._full_matrix(deg - 1, i, j) @ W) % p
            comp = {}
            for (i, j), block in rhs.items():
                di, dj = self._space_dim(i), self._space_dim(j)
                cur = block.reshape(di, dj, -1)
                up = np.tensordot(self._s[i], cur, axes=([1], [0])) % p
                key = (i + 1, j)
                comp[key] = (comp.get(key, 0) + up.reshape(-1, W.shape[1])) % p
                if i == 0:
                    ecur = np.tensordot(self._E, cur, axes=([1], [0])) % p
                    right = np.tensordot(ecur, self._s[j], axes=([1], [1]))
                    right = np.transpose(right, (0, 2, 1)) % p
                    key = (0, j + 1)
                    comp[key] = (comp.get(key, 0) +
                                 right.reshape(-1, W.shape[1])) % p
            comp = {k: v for k, v in comp.items()
                    if k[0] <= self.max_deg and k[1] <= self.max_deg}
            self.components.append(comp)
            self._verify_degree(deg, rhs)

    def _boundary_of_component(self, deg: int, i: int, j: int) -> dict:
        """Apply the tensor differential to stored component columns."""
        res, p = self.resolution, self.p
        di, dj = self._space_dim(i), self._space_dim(j)
        cols = self.components[deg][(i, j)].reshape(di, dj, -1)
        out = {}
        if i > 0:
            D = res.boundaries[i - 1]
            out[(i - 1, j)] = np.tensordot(D, cols, axes=([1], [0])) % p
        if j > 0:
            D = res.boundaries[j - 1]
            term = np.tensordot(cols, D, axes=([1], [1]))
            term = np.transpose(term, (0, 2, 1))
            sign = 1 if i % 2 == 0 else -1
            out[(i, j - 1)] = (sign * term) % p
        return out

    def _verify_degree(self, deg: int, rhs: dict) -> None:
        p = self.p
        total: dict[tuple[int, int], np.ndarray] = {}
        for (i, j) in self.components[deg]:
            for key, val in self._boundary_of_component(deg, i, j).items():
                di, dj = self._space_dim(key[0]), self._space_dim(key[1])
                flat = val.reshape(di * dj, -1)
                total[key] = (total.get(key, 0) + flat) % p
        for key, want in rhs.items():
            got = total.get(key, np.zeros_like(want))
            if not np.array_equal(got % p, want % p):
                raise LiftFailure(f"chain-map identity fails at degree {deg}, "
                                  f"component {key}")
        for key, got in total.items():
            if key not in rhs and got.any():
                raise LiftFailure(f"spurious boundary component {key} "
                                  f"at degree {deg}")


def diagonal_approximation(res: FreeResolution, max_deg: int) -> DiagonalMap:
    """Deterministic diagonal lift for a resolution of the trivial module."""
    if res.target.dim != 1 or not res.target.is_trivial():
        raise LiftFailure("diagonal approximation needs the trivial module")
    return DiagonalMap(res, max_deg)


def cup(a: np.ndarray, i: int, b: np.ndarray, j: int,
        diag: DiagonalMap) -> np.ndarray:
    """Cochain-level cup product of trivial-coefficient cocycles.

    a and b are cochain coordinate vectors (length r_i and r_j); the result
    has length r_{i+j}.
    """
    if i + j > diag.max_deg:
        raise DegreeMismatch(
            f"diagonal computed through degree {diag.max_deg}, need {i + j}")
    res, p, n = diag.resolution, diag.p, diag._n
    comp = diag.components[i + j].get((i, j))
    if comp is None:
        raise DegreeMismatch(f"component ({i}, {j}) not available")
    abar = np.repeat(np.asarray(a, dtype=np.int64) % p, n)
    bbar = np.repeat(np.asarray(b, dtype=np.int64) % p, n)
    weights = np.outer(abar, bbar).reshape(-1)
    return (comp.T @ weights) % p


class CupRing:
    """Cup products on H^*(G, F_p) expressed in the canonical bases."""

    def __init__(self, G: FiniteGroup, p: int, max_deg: int) -> None:
        self.group = G
        self.p = p
        self.max_deg = max_deg
        self.module = trivial_coefficients(G, p)
        self.context = context(G, self.module, length=max_deg + 1)
        self.diagonal = diagonal_approximation(
            trivial_resolution(G, p, max_deg + 1), max_deg)

    def basis(self, i: int):
        return self.context.basis(i)

    def cup_class(self, a: np.ndarray, i: int, b: np.ndarray, j: int) -> np.ndarray:
        """Class coordinates of the product of two cocycle vectors."""
        vec = cup(a, i, b, j, self.diagonal)
        return self.basis(i + j).class_coordinates(vec).reshape(-1)

    def unit(self) -> np.ndarray:
        return self.basis(0).classes[0]

    def products_of_bases(self, i: int, j: int) -> np.ndarray:
        rows = []
        for a in self.basis(i).classes:
            for b in self.basis(j).classes:
                rows.append(self.cup_class(a, i, b, j))
        width = self.basis(i + j).dim
        return np.array(rows, dtype=np.int64).reshape(-1, width)


def product_span_dims(G: FiniteGroup, p: int, i: int, j: int,
                      ring: CupRing | None = None) -> int:
    """Dimension of span{a cup b} inside H^{i+j}(G, F_p)."""
    if ring is None:
        ring = CupRing(G, p, i + j)
    rows = ring.products_of_bases(i, j)
    if rows.size == 0:
        return 0
    return fplinalg.rref_array(rows, p)[1]


def product_table_csv(G: FiniteGroup, p: int, max_total: int) -> str:
    """CSV rows (i, j, span_dim, dim_total) for all 1 <= i <= j, i+j <= max_total."""
    ring = CupRing(G, p, max_total)
    lines = ["i,j,span_dim,dim_total"]
    for i in range(1, max_total):
        for j in range(i, max_total - i + 1):
            span = product_span_dims(G, p, i, j, ring)
            lines.append(f"{i},{j},{span},{ring.basis(i + j).dim}")
    return "\n".join(lines) + "\n"


# -- splice complexes ----------------------------------------------------------

@dataclass(frozen=True)
class SpliceComplex:
    """Concatenated two-step permutation-module segments over a p-group."""

    group: FiniteGroup
    subgroups: tuple[Subgroup, ...]
    as_cochain: CochainComplex


def splice_complex(P: FiniteGroup, maximal: list[Subgroup]) -> SpliceComplex:
    """The 2n-term complex splicing the segments for the listed subgroups.

    Segment maps are multiplication by (t - 1) for the least-index lift t
    of a generator of P/H; seams compose the augmentation with the unit.
    The displayed order runs through the list from its last entry to its
    first.
    """
    if not maximal:
        raise NotMaximal("need at least one maximal subgroup")
    primes = prime_factors(P.order)
    if len(primes) != 1:
        raise NotMaximal("splice complexes are defined over p-groups")
    p = primes[0]
    for H in maximal:
        if H.parent is not P or H.order * p != P.order:
            raise NotMaximal(f"subgroup of order {H.order} is not maximal "
                             f"(index p) in |P| = {P.order}")
    spaces = []
    diffs = []
    prev_dim = None
    for H in reversed(maximal):
        module = permutation_module(P, H, p)
        t = next(g for g in range(P.order) if g not in H)
        tminus1 = (module.action[t] - np.eye(module.dim, dtype=np.int64)) % p
        if prev_dim is not None:
            seam = np.ones((module.dim, prev_dim), dtype=np.int64)
            diffs.append(seam)
        spaces += [module.dim, module.dim]
        diffs.append(tminus1)
        prev_dim = module.dim
    cochain = CochainComplex(tuple(spaces), tuple(diffs))
    cochain.check_composition(p)
    return SpliceComplex(P, tuple(reversed(maximal)), cochain)


def cochain_cohomology_dims(C: CochainComplex, p: int) -> list[int]:
    """Plain vector-space cohomology of a cochain complex."""
    dims = []
    prev_rank = 0
    for k, dim in enumerate(C.spaces):
        if k < len(C.differentials):
            d = C.differentials[k]
            rank = fplinalg.rref_array(d, p)[1] if d.size else 0
        else:
            rank = 0
        dims.append(dim - rank - prev_rank)
        prev_rank = rank
    return dims


def sphere_cohomology_check(C: SpliceComplex) -> bool:
    """Whether H^*(C) is that of an odd sphere S^{2n-1}."""
    p = prime_factors(C.group.order)[0]
    dims = cochain_cohomology_dims(C.as_cochain, p)
    want = [0] * len(dims)
    want[0] = want[-1] = 1
    return dims == want


def find_sphere_splice(P: FiniteGroup, max_len: int = 3, min_len: int = 1):
    """Exhaustive lexicographic search for a sphere-like splice.

    Returns (subgroup tuple, SpliceComplex) for the first tuple of maximal
    subgroups (with repetition, lengths min_len..max_len) whose splice has
    the cohomology of an odd sphere, or None if every tuple fails.
    """
    from itertools import product as iproduct

    from .groups import maximal_subgroups

    maxes = maximal_subgroups(P)
    for length in range(min_len, max_len + 1):
        for combo in iproduct(range(len(maxes)), repeat=length):
            chosen = [maxes[k] for k in combo]
            C = splice_complex(P, chosen)
            if sphere_cohomology_check(C):
                return tuple(chosen), C
    return None
