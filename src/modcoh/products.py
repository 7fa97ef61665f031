"""Cup products by Yoneda lifting, and splice complexes.

Restriction to a Sylow p-subgroup P is an injective ring map onto the
stable elements of H^*(P, F_p), so `CupRing` multiplies the stable classes
of `cohmaps.StableElements` on the minimal resolution X_* of P that gives
the dims.  Its Hom differential is zero: a degree-i cocycle is a vector a
in F_p^{r_i}, and H^i(G) is the span of the stable rows.

a is lifted to a chain map tau: X_{i+*} -> X_*, stored, like the
boundaries, by the images of the free generators: Phi_k holds tau(e_{m, 1})
in column m, of shape (r_k |P|) x r_{i+k}.  Phi_0 is a in row 0 (X_0 has
rank one), and Phi_k solves d_k Phi_k = tau_{k-1} W_{i+k}, where tau_{k-1}
is the F_p[P]-linear map that Phi_{k-1} determines and W_{i+k} are the
generator columns of d_{i+k}: `FreeResolution.lift` untwisted, the case
S = P, sigma the identity and one coset of its one step, which never
expands tau_{k-1} and multiplies Phi_{k-1} by W_{i+k} gathered at h u^{-1}
for each h instead.  A right-hand side outside the image of d_k means the
resolution is not exact there, and raises LiftFailure.  The product is
the composite b . tau_j with the sign of the diagonal-approximation cup
product: a cup b = (-1)^{ij} (b @ S_j), where row m of S_j sums the |P|
rows of block m of Phi_j: repeat(b, |P|) @ Phi_j from a product |P| times
narrower.  A product of stable classes is stable; one outside their span
raises InvariantViolation.

Only trivial coefficients are supported: every product statement with
acceptance data lives in H^*(G, F_p).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fplinalg
from .cohmaps import CochainComplex, CohBasis, stable_elements
from .errors import DegreeMismatch, NotMaximal
from .gmodules import permutation_module
from .groups import FiniteGroup, Subgroup, prime_factors


class CupRing:
    """Cup products on H^*(G, F_p), in the bases of stable classes of H^*(P)."""

    def __init__(self, G: FiniteGroup, p: int, max_deg: int) -> None:
        self.group = G
        self.p = p
        self.max_deg = max_deg
        self.stable_elements = stable_elements(G, p)
        self.resolution = self.stable_elements.resolution
        self._lifts: dict[int, list[np.ndarray]] = {}
        self._bases: dict[int, CohBasis] = {}

    def basis(self, i: int) -> CohBasis:
        """The stable classes of H^i(P), one basis per degree."""
        if i not in self._bases:
            stable = self.stable_elements.stable(i)  # RREF: its own cocycle span
            self._bases[i] = CohBasis(self.p, i, stable, stable[:0], stable,
                                      fplinalg.pivot_columns(stable))
        return self._bases[i]

    def _lift(self, cocycles: np.ndarray, i: int, steps: int) -> list[np.ndarray]:
        """Phi_0 .. Phi_steps for the degree-i cocycles in the columns.

        Entry k has shape (r_k |P|, c r_{i+k}) for c cocycles: column
        a r_{i+k} + m is the image of e_{m, 1} under the lift of cocycle a.
        """
        phi = np.zeros((self.resolution.group.order, cocycles.size), dtype=np.int64)
        phi[0] = cocycles.T.reshape(-1)
        return self.resolution.lift([phi], i, steps)

    def _compose(self, phi: np.ndarray, i: int, bs: np.ndarray, j: int) -> np.ndarray:
        """(a cup b) for every lifted a and every row b of bs, rows in (a, b) order."""
        vals = bs @ phi.reshape(bs.shape[1], self.resolution.group.order, -1).sum(axis=1)
        vals = vals.reshape(len(bs), -1, self.resolution.ranks[i + j])
        sign = -1 if i * j % 2 else 1
        return (sign * vals.transpose(1, 0, 2).reshape(-1, vals.shape[2])) % self.p

    def _check_degree(self, d: int) -> None:
        if d > self.max_deg:
            raise DegreeMismatch(
                f"products built through degree {self.max_deg}, need {d}")

    def cup(self, a: np.ndarray, i: int, b: np.ndarray, j: int) -> np.ndarray:
        """Cochain-level cup product of two cocycle vectors (length r_{i+j})."""
        self._check_degree(i + j)
        phi = self._lift(np.asarray(a, dtype=np.int64).reshape(-1, 1), i, j)[j]
        b = np.asarray(b, dtype=np.int64).reshape(1, -1) % self.p
        return self._compose(phi, i, b, j)[0]

    def cup_class(self, a: np.ndarray, i: int, b: np.ndarray, j: int) -> np.ndarray:
        """Class coordinates of the product of two cocycle vectors."""
        return self.basis(i + j).class_coordinates(self.cup(a, i, b, j)).reshape(-1)

    def unit(self) -> np.ndarray:
        return self.basis(0).classes[0]

    def products_of_bases(self, i: int, j: int) -> np.ndarray:
        """Class coordinates of a cup b, one row per basis pair (a, b).

        The degree-i classes are lifted together once, through max_deg - i.
        """
        self._check_degree(i + j)
        A, B = self.basis(i).classes, self.basis(j).classes
        if not (len(A) and len(B)):
            return np.zeros((len(A) * len(B), self.basis(i + j).dim), dtype=np.int64)
        if i not in self._lifts:
            self._lifts[i] = self._lift(A.T, i, self.max_deg - i)
        prods = self._compose(self._lifts[i][j], i, B, j)
        return self.basis(i + j).class_coordinates(prods.T).T


def product_span_dims(G: FiniteGroup, p: int, i: int, j: int,
                      ring: CupRing | None = None) -> int:
    """Dimension of span{a cup b} inside H^{i+j}(G, F_p)."""
    if ring is None:
        ring = CupRing(G, p, i + j)
    return len(fplinalg.rref_pivots(ring.products_of_bases(i, j), p))


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
        rank = len(fplinalg.rref_pivots(C.differentials[k], p)) if k < len(C.differentials) else 0
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
