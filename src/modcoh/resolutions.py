"""Free and minimal resolutions over F_p[G], and everything built on them.

Free modules F_p[G]^r use the flat basis index j*|G| + g (copy j, group
element g), with g acting by left translation inside each copy.  A boundary
d_i is stored only as its generator columns W_i = d_i(e_{k, 1}), one column
per free generator of P_i (the chosen kernel generators, reduced mod p):
F_p[G]-linearity determines the rest, and `FreeResolution.expand` builds
the full matrix, |G| times wider, only where one is needed (the kernel of
the newest stage, exactness checks, text output, chain-map lifts).

Minimal resolutions are constructed only over p-groups, where the
augmentation ideal is the radical; for other groups a greedily pruned free
resolution is used and all Ext dimensions come out of the Hom complex,
which is resolution-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fplinalg, gmodules, groups
from .errors import (
    GroupMismatch,
    InsufficientData,
    InvariantViolation,
    LengthTooSmall,
    MinimalityUnavailable,
    ElementaryAbelianInput,
    NoFitFound,
    SeriesTooShort,
)
from .fplinalg import RowSpan
from .gmodules import GModule, dual_module, restrict_module, trivial_module
from .groups import FiniteGroup, elementary_abelian_subgroups, sylow


@dataclass(frozen=True)
class DimSeries:
    """Dimensions [dim H^0, dim H^1, ...] at a fixed prime."""

    dims: tuple[int, ...]
    p: int
    label: str = ""

    def __len__(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class PoincareFit:
    """numerator / prod_j (1 - t^{d_j}), verified through a stated degree."""

    numerator: tuple[int, ...]
    denominator_exponents: tuple[int, ...]
    verified_through: int


def _series_entries(series) -> list[int]:
    if isinstance(series, DimSeries):
        return list(series.dims)
    return [int(x) for x in series]


class FreeResolution:
    """Staged free resolution ... -> F_p[G]^{r_1} -> F_p[G]^{r_0} -> M -> 0."""

    def __init__(self, M: GModule, minimal: bool, pad_rank0: bool = False) -> None:
        self.group: FiniteGroup = M.group
        self.p = M.p
        self.target = M
        self.minimal = bool(minimal)
        n = self.group.order
        self._n = n
        # translation index maps: left action of g sends v to v[take[g]] blockwise
        self._take = np.asarray(self.group.mul[self.group.inv], dtype=np.int64)
        gens = self._stage_zero_generators(M, pad_rank0)
        self.ranks: list[int] = [len(gens)]
        self.boundaries: list[np.ndarray] = []
        aug = np.zeros((M.dim, len(gens) * n), dtype=np.int64)
        for j, m in enumerate(gens):
            aug[:, j * n:(j + 1) * n] = np.tensordot(
                M.action, m, axes=([2], [0])).T % self.p
        self.augmentation = aug
        self._kernel = fplinalg.kernel_array(aug, self.p)

    # -- construction ---------------------------------------------------

    def _stage_zero_generators(self, M: GModule, pad_rank0: bool):
        eye = np.eye(M.dim, dtype=np.int64)
        acc = RowSpan(M.p, M.dim)
        if self.minimal:
            acc.add_rows(gmodules.coinvariant_coordinates(M))
            kept = acc.select(eye)
        else:
            kept = acc.select(eye, expand=lambda v: M.action @ v)
        gens = [eye[i] for i in kept]
        if pad_rank0 and gens:
            gens.append(gens[0])
        return gens

    def expand(self, images: np.ndarray) -> np.ndarray:
        """The F_p[G]-linear map sending e_{k, 1} to column k of images.

        images has shape (r' |G|, r); column k |G| + g of the result is
        g . images[:, k], so expand(boundaries[i - 1]) is the full d_i.
        """
        rows, r = images.shape
        n = self._n
        # out[j, h, k, g] = images[j n + g^{-1} h, k]
        out = images.reshape(rows // n, n, r)[
            :, self._take.T[:, None, :], np.arange(r)[None, :, None]]
        return out.reshape(rows, r * n)

    def boundary(self, i: int) -> np.ndarray:
        """The full matrix of d_i, r_{i-1}|G| x r_i|G|."""
        return self.expand(self.boundaries[i - 1])

    def _kernel_generators(self, kernel_rows: np.ndarray, rank_prev: int):
        p, n = self.p, self._n
        acc = RowSpan(p, rank_prev * n)
        if self.minimal:
            if len(kernel_rows):
                translated = self.expand(kernel_rows.T).T
                tiled = np.repeat(kernel_rows, n, axis=0)
                acc.add_rows((translated - tiled) % p)  # spans I . K
            kept = acc.select(kernel_rows)
        else:
            kept = acc.select(kernel_rows,
                              expand=lambda row: self.expand(row.reshape(-1, 1)).T)
        return kernel_rows[kept]

    def _append_stage(self) -> None:
        gens = self._kernel_generators(self._kernel, self.ranks[-1])
        self.ranks.append(len(gens))
        self.boundaries.append(np.ascontiguousarray(gens.T))
        self._kernel = fplinalg.kernel_array(self.boundary(self.length), self.p) \
            if len(gens) else np.zeros((0, 0), dtype=np.int64)

    def extend_to(self, length: int) -> "FreeResolution":
        """Ensure boundaries d_1 .. d_length exist (idempotent, append-only)."""
        if length < 1:
            raise LengthTooSmall("resolution length must be at least 1")
        while len(self.boundaries) < length:
            if self.ranks[-1] == 0 and self.boundaries:
                # resolution has terminated; extend with zero modules
                prev = self.ranks[-1] * self._n
                self.ranks.append(0)
                self.boundaries.append(np.zeros((prev, 0), dtype=np.int64))
                continue
            self._append_stage()
        return self

    @property
    def length(self) -> int:
        return len(self.boundaries)

    # -- verification ---------------------------------------------------

    def check_exactness(self) -> None:
        """image(d_{i+1}) = kernel(d_i) at every computed stage."""
        p = self.p
        upstream = self.augmentation
        for i in range(self.length):
            D = self.boundary(i + 1)
            if ((upstream @ D) % p).any():
                raise InvariantViolation(f"d_{i} . d_{i + 1} != 0")
            up_ker = fplinalg.kernel_array(upstream, p)
            im_rank = fplinalg.rref_array(D, p)[1]
            if im_rank != len(up_ker):
                raise InvariantViolation(
                    f"stage {i}: image rank {im_rank} != kernel dim {len(up_ker)}")
            upstream = D

    def image_in_radical(self, i: int) -> bool:
        """Whether every column of d_i lies in I . F_p[G]^{r_{i-1}}.

        Translation keeps the augmentation sum of each block, so the
        generator columns decide it.
        """
        W = self.boundaries[i - 1]
        sums = W.reshape(self.ranks[i - 1], self._n, W.shape[1]).sum(axis=1)
        return not (sums % self.p).any()

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = ["modcoh-resolution v1",
                 f"p {self.p}",
                 f"group {self.group.name}",
                 f"minimal {int(self.minimal)}",
                 "ranks " + " ".join(str(r) for r in self.ranks)]
        blocks = [("aug", self.augmentation)]
        blocks += [(f"d{i}", self.boundary(i)) for i in range(1, self.length + 1)]
        for tag, arr in blocks:
            lines.append(f"{tag} {arr.shape[0]} {arr.shape[1]}")
            for row in arr:
                lines.append(" ".join(str(int(x)) for x in row))
        return "\n".join(lines) + "\n"


def free_resolution(M: GModule, length: int, minimal: bool = False,
                    pad_rank0: bool = False) -> FreeResolution:
    """Free resolution of M, exact through the requested length."""
    if length < 1:
        raise LengthTooSmall("resolution length must be at least 1")
    if minimal and not M.group.is_p_group(M.p):
        raise MinimalityUnavailable(
            f"{M.group.name} is not a {M.p}-group; minimal resolutions "
            "are only constructed over p-groups")
    res = FreeResolution(M, minimal=minimal, pad_rank0=pad_rank0)
    return res.extend_to(length)


_TRIVIAL_CACHE: dict[tuple[int, int], tuple[FiniteGroup, FreeResolution]] = {}


def trivial_resolution(G: FiniteGroup, p: int, length: int) -> FreeResolution:
    """Cached resolution of the one-dimensional trivial module."""
    key = (id(G), p)
    hit = _TRIVIAL_CACHE.get(key)
    if hit is None or hit[0] is not G:
        res = FreeResolution(trivial_module(G, p), minimal=G.is_p_group(p))
        _TRIVIAL_CACHE[key] = (G, res)
    return _TRIVIAL_CACHE[key][1].extend_to(length)


def clear_resolution_cache() -> None:
    _TRIVIAL_CACHE.clear()


def syzygy(M: GModule, i: int) -> GModule:
    """Omega^i(M): the kernel at stage i of a resolution of M, as a module.

    Omega^1 is the kernel of the augmentation; the basis is the canonical
    RREF kernel basis, with the group acting by free translation.
    """
    if i < 0:
        raise LengthTooSmall("syzygy degree must be nonnegative")
    if i == 0:
        return M
    minimal = M.group.is_p_group(M.p)
    res = FreeResolution(M, minimal=minimal)
    if i > 1:
        res.extend_to(i - 1)
    kernel_rows = res._kernel
    k, n = len(kernel_rows), res._n
    action = np.zeros((n, k, k), dtype=np.int64)
    if k:
        # coordinates against an RREF basis are the pivot-column entries
        pivots = fplinalg.pivot_columns(kernel_rows)
        translates = res.expand(kernel_rows.T)[pivots].reshape(k, k, n)
        action[:] = translates.transpose(2, 0, 1) % M.p
    return GModule(M.group, M.p, action, validate=False)


# -- Hom complex and Ext ------------------------------------------------------

def _hom_delta(res: FreeResolution, N: GModule, i: int) -> np.ndarray:
    """Differential Hom(P_i, N) -> Hom(P_{i+1}, N) in the N^{r} coordinates."""
    p, n = res.p, res._n
    r_next, r_cur = res.ranks[i + 1], res.ranks[i]
    d = N.dim
    W = res.boundaries[i]  # (r_cur * n, r_next)
    delta = np.zeros((r_next * d, r_cur * d), dtype=np.int64)
    if r_next and r_cur:
        coeff = W.T.reshape(r_next, r_cur, n)
        blocks = np.tensordot(coeff, N.action, axes=([2], [0])) % p
        delta = blocks.transpose(0, 2, 1, 3).reshape(r_next * d, r_cur * d)
    return delta


def ext_dims(M: GModule, N: GModule, max_deg: int,
             resolution: FreeResolution | None = None) -> DimSeries:
    """dim Ext^i_{F_p[G]}(M, N) for 0 <= i <= max_deg."""
    if M.group is not N.group or M.p != N.p:
        raise GroupMismatch("Ext arguments live over different algebras")
    if resolution is None:
        if M.is_trivial() and M.dim == 1:
            resolution = trivial_resolution(M.group, M.p, max_deg + 1)
        else:
            resolution = free_resolution(
                M, max_deg + 1, minimal=M.group.is_p_group(M.p))
    else:
        resolution.extend_to(max_deg + 1)
    p = M.p
    dims = []
    prev_rank = 0
    for i in range(max_deg + 1):
        delta = _hom_delta(resolution, N, i)
        cur_dim = resolution.ranks[i] * N.dim
        rank_i = fplinalg.rref_array(delta, p)[1] if delta.size else 0
        dims.append(cur_dim - rank_i - prev_rank)
        prev_rank = rank_i
    return DimSeries(tuple(dims), p,
                     label=f"Ext({M.group.name}; dims {M.dim}->{N.dim})")


def cohomology_dims(G: FiniteGroup, p: int, max_deg: int) -> DimSeries:
    """dim H^i(G, F_p) for 0 <= i <= max_deg."""
    triv = trivial_module(G, p)
    series = ext_dims(triv, triv, max_deg)
    return DimSeries(series.dims, p, label=f"H^*({G.name}; F_{p})")


def minimal_rank_identity_check(M: GModule, max_deg: int) -> bool:
    """ranks of the minimal resolution of M equal dim H^i(P, M*) (p-groups)."""
    res = free_resolution(M, max_deg + 1, minimal=True)
    want = ext_dims(trivial_module(M.group, M.p), dual_module(M), max_deg)
    return tuple(res.ranks[: max_deg + 1]) == want.dims


# -- projectivity -------------------------------------------------------------

def is_projective(M: GModule) -> bool:
    """Projectivity over F_p[G].

    Over a p-group: vanishing of the first minimal-resolution rank (degree 2
    as a guard).  In general: projective iff the Sylow restriction is.
    """
    if M.dim == 0:
        return True
    G = M.group
    if G.is_p_group(M.p):
        res = free_resolution(M, 2, minimal=True)
        first, guard = res.ranks[1] == 0, res.ranks[2] == 0
        if first != guard:
            raise InvariantViolation("minimal resolution rank probe is inconsistent")
        return first
    return is_projective(restrict_module(M, sylow(G, M.p)))


def chouinard_projective(M: GModule) -> bool:
    """Projectivity tested on every elementary abelian p-subgroup."""
    if M.dim == 0:
        return True
    return all(is_projective(restrict_module(M, E))
               for E in elementary_abelian_subgroups(M.group, M.p))


def maximal_subgroup_projectivity(M: GModule) -> bool:
    """Projectivity from the maximal subgroups of a non-elementary-abelian p-group."""
    P = M.group
    if not P.is_p_group(M.p):
        raise MinimalityUnavailable("maximal-subgroup test requires a p-group")
    if _is_elementary_abelian(P, M.p):
        raise ElementaryAbelianInput(
            "the maximal-subgroup criterion excludes elementary abelian groups")
    return all(is_projective(restrict_module(M, K))
               for K in groups.maximal_subgroups(P))


def _is_elementary_abelian(G: FiniteGroup, p: int) -> bool:
    if G.order == 1:
        return False
    return G.is_abelian() and all(
        G.element_order(g) == p for g in range(1, G.order))


# -- growth, complexity, Poincare series --------------------------------------

def growth_rate(series, max_period: int = 6) -> int:
    """Least n with dims_t / t^n -> 0, estimated from finite data.

    The tail is treated as eventually quasi-polynomial: for each candidate
    period s the residue subsequences are tested with exact finite
    differences (a degree-d polynomial has vanishing (d+1)-th differences);
    the estimate is 1 + the largest stable degree.  Eventually-zero series
    give 0.
    """
    dims = _series_entries(series)
    if len(dims) < 6:
        raise SeriesTooShort(f"need at least 6 entries, got {len(dims)}")
    tail_len = -(-len(dims) // 3)
    if not any(dims[-tail_len:]):
        return 0
    for s in range(1, max_period + 1):
        degrees = []
        ok = True
        for r in range(s):
            sub = dims[r::s]
            if len(sub) < 3:
                ok = False
                break
            d = _stable_poly_degree(sub)
            if d == -2:
                ok = False
                break
            if d >= 0:
                degrees.append(d)
        if ok:
            return max(degrees) + 1 if degrees else 0
    raise NoFitFound("series has no stable polynomial tail at periods "
                     f"1..{max_period}; lengthen the probe")


def _stable_poly_degree(u: list[int]) -> int:
    """Eventual polynomial degree of u: d >= 0, -1 for zero tail, -2 unknown."""
    def suffix(x):
        return x[len(x) // 3:]

    if not any(suffix(u)):
        return -1
    cur = list(u)
    for d in range(len(u) - 2):
        cur = [b - a for a, b in zip(cur, cur[1:])]
        sfx = suffix(cur)
        if len(sfx) >= 2 and not any(sfx):
            return d
    return -2


def complexity(M: GModule, probe_deg: int = 12) -> int:
    """Growth rate of the minimal-resolution ranks (via Sylow restriction)."""
    if M.dim == 0:
        return 0
    G = M.group
    if not G.is_p_group(M.p):
        return complexity(restrict_module(M, sylow(G, M.p)), probe_deg)
    res = free_resolution(M, probe_deg, minimal=True)
    return growth_rate(res.ranks[: probe_deg + 1])


def complexity_elementary_max(M: GModule, probe_deg: int = 12) -> int:
    """max over elementary abelian E of the complexity of M restricted to E."""
    subs = elementary_abelian_subgroups(M.group, M.p)
    if not subs:
        return 0
    return max(complexity(restrict_module(M, E), probe_deg) for E in subs)


def poincare_fit(series, denominator_exponents) -> PoincareFit | None:
    """Unique numerator of degree <= sum(d_j) matching the series, or None."""
    dims = _series_entries(series)
    exps = [int(d) for d in denominator_exponents]
    if any(d < 1 for d in exps):
        raise InsufficientData("denominator exponents must be positive")
    total = sum(exps)
    if len(dims) <= total:
        raise InsufficientData(
            f"series length {len(dims)} cannot determine a numerator of "
            f"degree {total}")
    coeffs = list(dims)
    for d in exps:
        coeffs = [c - (coeffs[i - d] if i >= d else 0)
                  for i, c in enumerate(coeffs)]
    if any(coeffs[total + 1:]):
        return None
    numerator = coeffs[: total + 1]
    while numerator and numerator[-1] == 0:
        numerator.pop()
    if not numerator:
        numerator = [0]
    return PoincareFit(tuple(numerator), tuple(sorted(exps)), len(dims) - 1)


def _ascending_partitions(total: int, max_part: int):
    def rec(remaining, min_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min_part, min(remaining, max_part) + 1):
            for rest in rec(remaining - part, part):
                yield (part,) + rest
    return rec(total, 1)


def auto_poincare_fit(series, max_part: int) -> PoincareFit:
    """First fit over denominator multisets ordered by (total degree, lex)."""
    dims = _series_entries(series)
    for total in range(0, len(dims)):
        for exps in _ascending_partitions(total, min(max_part, max(total, 1))):
            fit = poincare_fit(dims, exps)
            if fit is not None:
                return fit
    raise NoFitFound("no rational function with the allowed denominators "
                     "matches the series")


def pole_order_at_one(fit: PoincareFit) -> int:
    """Order of the pole at t = 1: denominator factors minus numerator zeros."""
    r = list(fit.numerator)
    mult = 0
    while any(r) and sum(r) == 0:
        acc, q = 0, []
        for a in r[:-1]:
            acc += a
            q.append(acc)
        r = q
        mult += 1
    return len(fit.denominator_exponents) - mult


def krull_dimension_estimate(G: FiniteGroup, p: int, max_deg: int = 12) -> int:
    """Pole order at t = 1 of the automatically fitted Poincare series."""
    series = cohomology_dims(G, p, max_deg)
    fit = auto_poincare_fit(series, max_part=2 * G.order)
    return pole_order_at_one(fit)
