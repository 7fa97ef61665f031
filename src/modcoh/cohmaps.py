"""Cohomology with explicit cocycle representatives, and the maps between.

All maps for subgroups S <= G are computed on one shared free resolution
P_* of the trivial F_p[G]-module: P_* restricted to S is still free (one
free S-generator per free G-generator and right coset St), so all three
maps are one coset sum on cochains, f |-> sum_{c in C} c . f(c^{-1} . -):
C = {1} re-coordinatizes (restriction), C = {g} conjugates, and a set of
coset representatives transfers.  No chain lifting is ever needed, and
the double-coset identity holds exactly at cochain level.  The differential
of Hom_S(P_*, M) is `resolutions._hom_delta` over the table of right cosets
St, the one differential that `ext_dims` uses with S = G.

Cohomology bases are canonical: RREF cocycle vectors extending the RREF
coboundary space, so maps expressed in these bases are reproducible.
Basis-dependent entries should still never be asserted, only ranks,
dimensions and identities between the maps themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fplinalg
from .errors import BadParameters, GroupMismatch, InvariantViolation, SylowNotAbelian
from .gmodules import GModule, trivial_module
from .groups import (
    FiniteGroup,
    Subgroup,
    conjugate_subgroup,
    coset_representatives,
    double_cosets,
    intersect,
    normalizer,
    sylow,
    whole_group,
)
from .resolutions import FreeResolution, _hom_delta, trivial_resolution


@dataclass(frozen=True)
class CochainComplex:
    spaces: tuple[int, ...]
    differentials: tuple[np.ndarray, ...]

    def check_composition(self, p: int) -> None:
        for a, b in zip(self.differentials, self.differentials[1:]):
            if ((b @ a) % p).any():
                raise InvariantViolation(
                    "consecutive differentials do not compose to zero")


class CohBasis:
    """Canonical basis of H^i with explicit cocycle representatives."""

    def __init__(self, context: "CochainContext", degree: int,
                 reps: np.ndarray, coboundaries: np.ndarray) -> None:
        self.context = context
        self.degree = degree
        self.classes = reps          # rows: cocycle vectors
        self._coboundaries = coboundaries
        if len(reps):
            self._solver = np.vstack([reps, coboundaries]).T
        else:
            self._solver = None

    @property
    def dim(self) -> int:
        return len(self.classes)

    def class_coordinates(self, cols: np.ndarray) -> np.ndarray:
        """Coordinates of cocycle columns in this basis (coboundaries dropped)."""
        p = self.context.p
        cols = np.asarray(cols, dtype=np.int64) % p
        if cols.ndim == 1:
            cols = cols.reshape(-1, 1)
        if self.dim == 0:
            return np.zeros((0, cols.shape[1]), dtype=np.int64)
        sol = fplinalg.solve_batch(self._solver, cols, p)
        if sol is None:
            raise InvariantViolation("vector is not a cocycle of this context")
        return sol[: self.dim]


@dataclass(frozen=True)
class CohMap:
    source: CohBasis
    target: CohBasis
    matrix: np.ndarray

    def rank(self) -> int:
        return fplinalg.rref_array(self.matrix, self.source.context.p)[1]

    def to_csv(self) -> str:
        """Matrix rows as CSV, for golden-file pinning."""
        lines = [",".join(str(int(x)) for x in row) for row in self.matrix]
        return "\n".join(lines) + ("\n" if lines else "")


class CochainContext:
    """Hom_S(P_*, M) for S <= G on the shared G-resolution P_*.

    Coordinates of an S-cochain in degree i: f(e_{j, t}) for j < r_i and t
    running over the right-coset transversal of S\\G, each an M-vector.
    """

    def __init__(self, resolution: FreeResolution, subgroup: Subgroup,
                 module: GModule) -> None:
        G = resolution.group
        if subgroup.parent is not G or module.group is not G:
            raise GroupMismatch("context pieces belong to different groups")
        self.resolution = resolution
        self.subgroup = subgroup
        self.module = module
        self.p = resolution.p
        self.group = G
        self.transversal = coset_representatives(G, subgroup, right=True)
        members = np.asarray(subgroup.member_indices)
        # _cosets[t, s] = s . t; every g is _s_of[g] . transversal[_rep_of[g]]
        self._cosets = G.mul[np.ix_(members, self.transversal)].T
        self._rep_of = np.empty(G.order, dtype=np.int64)
        self._s_of = np.empty(G.order, dtype=np.int64)
        self._rep_of[self._cosets] = np.arange(len(self.transversal))[:, None]
        self._s_of[self._cosets] = members
        self._deltas: dict[int, np.ndarray] = {}
        self._bases: dict[int, CohBasis] = {}

    def cochain_dim(self, i: int) -> int:
        self.resolution.extend_to(max(i, 1))
        return self.resolution.ranks[i] * len(self.transversal) * self.module.dim

    def differential(self, i: int) -> np.ndarray:
        """delta^i : C^i -> C^{i+1}, as a matrix on column vectors."""
        if i not in self._deltas:
            self.resolution.extend_to(i + 1)
            self._deltas[i] = _hom_delta(self.resolution, self.module, i, self._cosets)
        return self._deltas[i]

    def basis(self, i: int) -> CohBasis:
        if i in self._bases:
            return self._bases[i]
        p = self.p
        delta_i = self.differential(i)
        cocycles = fplinalg.kernel_array(delta_i, p) if delta_i.size else \
            np.eye(self.cochain_dim(i), dtype=np.int64)
        if i == 0:
            cobound = np.zeros((0, self.cochain_dim(0)), dtype=np.int64)
        else:
            prev = self.differential(i - 1)
            reduced, r = fplinalg.rref_array(prev.T, p)
            cobound = reduced[:r]
        span = fplinalg.RowSpan(p, self.cochain_dim(i))
        span.add_rows(cobound)
        reps = cocycles[span.select(cocycles)]
        basis = CohBasis(self, i, reps, cobound)
        self._bases[i] = basis
        return basis

    def complex_through(self, max_deg: int) -> CochainComplex:
        spaces = tuple(self.cochain_dim(i) for i in range(max_deg + 1))
        diffs = tuple(self.differential(i) for i in range(max_deg))
        return CochainComplex(spaces, diffs)


# -- context registry ---------------------------------------------------------

_CTX_CACHE: dict[tuple, CochainContext] = {}
_TRIV_COEFF: dict[tuple[int, int], tuple[FiniteGroup, GModule]] = {}


def trivial_coefficients(G: FiniteGroup, p: int) -> GModule:
    key = (id(G), p)
    hit = _TRIV_COEFF.get(key)
    if hit is None or hit[0] is not G:
        _TRIV_COEFF[key] = (G, trivial_module(G, p))
    return _TRIV_COEFF[key][1]


def context(G: FiniteGroup, M: GModule, subgroup: Subgroup | None = None,
            length: int = 1) -> CochainContext:
    """Cochain context for a subgroup (default: G itself) on G's resolution."""
    if subgroup is None:
        subgroup = whole_group(G)
    res = trivial_resolution(G, M.p, max(length, 1))
    key = (id(res), id(M), subgroup.member_indices)
    ctx = _CTX_CACHE.get(key)
    if ctx is None or ctx.module is not M:
        ctx = CochainContext(res, subgroup, M)
        _CTX_CACHE[key] = ctx
    return ctx


def clear_context_cache() -> None:
    _CTX_CACHE.clear()
    _TRIV_COEFF.clear()


# -- cochain-level maps -------------------------------------------------------

def _coset_sum_cochain(src: CochainContext, dst: CochainContext, i: int,
                       C: list[int]) -> np.ndarray:
    """C^i_S -> C^i_{S'}: (phi f)(e_{j, u}) = sum_{c in C} c . f(c^{-1} u . e_j).

    C = {1} gives restriction (S' <= S), C = {g} conjugation by g
    (S' = gSg^{-1}), and the left-coset representatives of S inside S' the
    transfer (S <= S').  Each c^{-1} u splits as s . t with s in S and t in
    src's transversal, where f takes the value s . f(e_{j, t}).
    """
    G = src.group
    nt_src, nt_dst = len(src.transversal), len(dst.transversal)
    src.resolution.extend_to(max(i, 1))
    m, A = src.module.dim, src.module.action
    block = np.zeros((nt_dst, m, nt_src, m), dtype=np.int64)
    for ui, u in enumerate(dst.transversal):
        for c in C:
            x = int(G.mul[int(G.inv[c]), u])
            block[ui, :, src._rep_of[x]] += A[G.mul[c, src._s_of[x]]]
    # the same block acts on every free generator j < r_i
    eye = np.eye(src.resolution.ranks[i], dtype=np.int64)
    return np.kron(eye, block.reshape(nt_dst * m, nt_src * m)) % src.p


def induced_map(src: CochainContext, dst: CochainContext, cochain_matrix,
                i: int) -> CohMap:
    """Map on cohomology induced by a cochain-level chain map."""
    sb, tb = src.basis(i), dst.basis(i)
    if sb.dim == 0:
        return CohMap(sb, tb, np.zeros((tb.dim, 0), dtype=np.int64))
    images = (cochain_matrix @ sb.classes.T) % src.p
    return CohMap(sb, tb, tb.class_coordinates(images))


# -- public operations --------------------------------------------------------

def coh_basis(G: FiniteGroup, M: GModule, i: int) -> CohBasis:
    """Canonical basis of H^i(G, M) with explicit cocycle representatives."""
    return context(G, M, length=i + 1).basis(i)


def restriction(G: FiniteGroup, H: Subgroup, M: GModule, i: int,
                K: Subgroup | None = None) -> CohMap:
    """res: H^i(K, M) -> H^i(H, M) for H <= K <= G (K defaults to G)."""
    src = context(G, M, K, length=i + 1)
    dst = context(G, M, H, length=i + 1)
    _require_nested(H, src.subgroup)
    return induced_map(src, dst, _coset_sum_cochain(src, dst, i, [0]), i)


def transfer(G: FiniteGroup, H: Subgroup, M: GModule, i: int,
             K: Subgroup | None = None) -> CohMap:
    """tr: H^i(H, M) -> H^i(K, M) for H <= K <= G (K defaults to G)."""
    src = context(G, M, H, length=i + 1)
    dst = context(G, M, K, length=i + 1)
    _require_nested(H, dst.subgroup)
    return induced_map(src, dst, _coset_sum_cochain(
        src, dst, i, _transfer_reps(G, H, dst.subgroup)), i)


def conjugation(G: FiniteGroup, g: int, H: Subgroup, M: GModule, i: int) -> CohMap:
    """c_g: H^i(H, M) -> H^i(gHg^{-1}, M)."""
    src = context(G, M, H, length=i + 1)
    dst = context(G, M, conjugate_subgroup(G, H, g), length=i + 1)
    return induced_map(src, dst, _coset_sum_cochain(src, dst, i, [g]), i)


def _transfer_reps(G: FiniteGroup, S: Subgroup, K: Subgroup) -> list[int]:
    """Least-index representatives of the left cosets cS inside K (c in K)."""
    return [c for c in coset_representatives(G, S) if c in K]


def _require_nested(H: Subgroup, K: Subgroup) -> None:
    if not set(H.member_indices) <= set(K.member_indices):
        raise BadParameters("expected nested subgroups H <= K")


def double_coset_identity_check(G: FiniteGroup, H: Subgroup, K: Subgroup,
                                M: GModule, i: int) -> bool:
    """res^G_H tr^G_K = sum over HgK of tr res c_g, as exact matrices."""
    lhs_map = _compose(restriction(G, H, M, i),
                       transfer(G, K, M, i))
    total = np.zeros_like(lhs_map.matrix)
    for g in double_cosets(G, H, K).reps:
        Kg = conjugate_subgroup(G, K, g)
        inter = intersect(H, Kg)
        c = conjugation(G, g, K, M, i)
        r = restriction(G, inter, M, i, K=Kg)
        t = transfer(G, inter, M, i, K=H)
        total = (total + t.matrix @ r.matrix @ c.matrix) % M.p
    return np.array_equal(lhs_map.matrix, total)


def _compose(outer: CohMap, inner: CohMap) -> CohMap:
    if outer.source is not inner.target:
        raise BadParameters("maps are not composable in these bases")
    return CohMap(inner.source, outer.target,
                  (outer.matrix @ inner.matrix) % outer.source.context.p)


def stable_subspace(G: FiniteGroup, p: int, i: int):
    """Cartan-Eilenberg stable classes inside H^i(Syl_p(G), F_p).

    Returns (dimension, coefficient rows) over the canonical basis of
    H^i(P) computed on G's resolution, with stability imposed against all
    Sylow double-coset representatives.
    """
    if G.order % p:
        raise BadParameters(f"p = {p} does not divide |{G.name}| = {G.order}")
    M = trivial_coefficients(G, p)
    P = sylow(G, p)
    base = context(G, M, P, length=i + 1).basis(i)
    if base.dim == 0:
        return 0, np.zeros((0, 0), dtype=np.int64)
    rows = []
    for d in double_cosets(G, P, P).reps:
        if d == 0:
            continue
        S_target = intersect(P, conjugate_subgroup(G, P, d))  # P n dPd^{-1}
        S_source = intersect(P, conjugate_subgroup(G, P, int(G.inv[d])))
        res_t = restriction(G, S_target, M, i, K=P)
        res_s = restriction(G, S_source, M, i, K=P)
        c_d = conjugation(G, d, S_source, M, i)
        rows.append((res_t.matrix - c_d.matrix @ res_s.matrix) % p)
    if not rows:
        basis = np.eye(base.dim, dtype=np.int64)
        return base.dim, basis
    stacked = np.vstack(rows)
    basis = fplinalg.kernel_array(stacked, p)
    return len(basis), basis


def detection_check(G: FiniteGroup, p: int, subgroups, i: int) -> bool:
    """Whether the joint restriction to the subgroups is injective on H^i(G)."""
    M = trivial_coefficients(G, p)
    top = context(G, M, length=i + 1).basis(i)
    if top.dim == 0:
        return True
    blocks = [restriction(G, H, M, i).matrix for H in subgroups]
    stacked = np.vstack(blocks) if blocks else np.zeros((0, top.dim), dtype=np.int64)
    return fplinalg.rref_array(stacked, p)[1] == top.dim


def abelian_sylow_check(G: FiniteGroup, p: int, max_deg: int) -> bool:
    """H^*(G) = H^*(N_G(P)) via restriction, for abelian Sylow P."""
    P = sylow(G, p)
    if not P.is_abelian():
        raise SylowNotAbelian(f"Sylow {p}-subgroup of {G.name} is not abelian")
    N = normalizer(G, P)
    M = trivial_coefficients(G, p)
    for i in range(max_deg + 1):
        dim_g = context(G, M, length=i + 1).basis(i).dim
        dim_n = context(G, M, N, length=i + 1).basis(i).dim
        if dim_g != dim_n:
            return False
        if restriction(G, N, M, i).rank() != dim_g:
            return False
    return True
