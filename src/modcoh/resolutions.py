"""Free and minimal resolutions over F_p[G], and everything built on them.

Free modules F_p[G]^r use the flat basis index j*|G| + g (copy j, group
element g), with g acting by left translation inside each copy.  A boundary
d_i is stored only as its generator columns W_i = d_i(e_{k, 1}), one column
per free generator of P_i (the chosen kernel generators, reduced mod p):
F_p[G]-linearity determines the rest, and `FreeResolution.expand` builds
the full matrix, |G| times wider, only where one is needed (exactness
checks and text output).

Each stage works in the coordinates of the kernel K of the newest stage.
K is held as its canonical RREF basis, with pivot columns piv, so a vector
v of K is v[piv] . K, and the coordinates of g . v are v[at[g]], where
at[g, c] = j n + g^{-1} h for piv[c] = j n + h (`_translates`).  The
generators picked from K's rows are those of a full-width scan, since
taking coordinates is an isomorphism of K onto F_p^k.

Minimal resolutions are constructed only over p-groups, where the
augmentation ideal I is the radical: by Nakayama, a minimal generating set
of K lifts a basis of K / I . K, picked as the rows of K outside I . K and
the rows before them.  I . K is spanned by (s - 1) . K for the generators
s of G alone, not for every element: K is a submodule, and
(gs - 1) k = (g - 1)(s . k) + (s - 1) k, so by induction on word length
every (g - 1) . K lies in that span.  In coordinates, (s - 1) . K is the
column gather K[:, at[s]] - I_k, and row i is e_i.  e_i lies in I . K plus
the span of e_0 .. e_{i-1} exactly when i is the last nonzero coordinate
of some vector of I . K.  Those last coordinates are the pivots of the
g k x k matrix of coordinate rows with its columns reversed: its column
rank profile, which is the row rank profile of its transpose.  At every
p the k columns, last coordinate first and each with g k entries in
(generator, row) order, are gathered from K's coordinates, which K^T
holds contiguously at p = 2, and `rref_pivots` finds the pivots: over
GF(2) one forward pass over the columns as rows, with no
back-substitution.  Row i is kept when i is not one of the pivots.  A
free resolution keeps row i instead when e_i lies outside the F_p[G]-span
S of the rows kept before it.  Every earlier e_h lies in S (a kept one
among its own translates, a dropped one when it was reached), so e_i lies
in S exactly when some vector of S has its last nonzero coordinate at i:
one forward scan in which each kept row adds its |G| translates K_i[at]
to an echelon of S by last coordinates, and no row still to come is
reduced (`fplinalg.greedy_generators`).  Stage zero runs the same
tests on M in its own coordinates: the lead test on I . M, spanned by the
columns of action(s) - 1 (`gmodules.radical_rows`), and the scan on the
columns of M's action matrices.

The next kernel is that of d = d_{L+1} on F_p[G]^{r_{L+1}}.  Its image is
K, and a vector of K is zero exactly when its entries at piv are, so
ker d = ker d[piv, :]: only the k rows at K's pivots are expanded and
eliminated, d[piv[c], k n + g] = W[at[g, c], k] (`_pivot_rows`).  That
matrix has full row rank k, and its canonical kernel is K's successor.
Each kernel is eliminated only when it is read, by the next stage or by
`syzygy` (`_newest_kernel`), so `extend_to(L)` builds d_1 .. d_L and
never eliminates ker d_L.
At p = 2 the rows are gathered as bytes and eliminated as bit rows, and K
stays uint8 (`fplinalg.kernel`); at odd p it is int64.  The elimination
also gives K's pivots, the complement of the image columns, and every
stage's are kept (small index arrays, no matrix), so the pivot rows of any
d_i can be gathered again from W_i.

A computed stage is a function of its input state alone.  Stage L + 1
reads W_L and the pivots of ker d_{L-1}: they give d_L's pivot rows, so
K = ker d_L, its canonical basis and its pivots, so the rows kept, so
W_{L+1}; the group, p and minimality are fixed.  So when a computed stage
L has the state (W_L, pivots of ker d_{L-1}) of an earlier stage j >= 1,
compared exactly (`_find_period`), induction on i gives W_i = W_{i-per}
and equal kernel pivots for every i >= j + per, per = L - j.  Every later
stage is then appended as a copy of stage i - per, sharing its arrays,
and nothing is eliminated (`_append_stage`).  The factor of d_k below is
a function of the same state, so for k >= j + per it is the factor of
k - per (`_factor`); as factors are built lazily, that holds however far
`extend_to` went before one is asked for.  `syzygy` still eliminates the
newest kernel, from a copied d_L as from a computed one.  Periods occur
for the p-groups of p-rank one, cyclic and generalized quaternion, whose
minimal resolutions are periodic (Swan, "Periodic resolutions for finite
groups", 1960; Cartan-Eilenberg XII.11): Z/2 repeats from stage 2 with
period 1, Z/p with period 2, Q8 and Q16 with period 4.  A resolution
that is exact already repeats zero stages, which cost nothing and start
no search.

For other groups a greedily pruned free resolution is used and all Ext
dimensions come out of the Hom complex, which is resolution-independent.
H^*(G, F_p) itself never needs the larger one: every group gets it as the
stable elements of H^*(P, F_p) on the minimal resolution of a Sylow
p-subgroup P (`cohomology_dims`; P = G for a p-group).

`FreeResolution.lift` is the one chain-map lift, stored by generator
images like the boundaries: cup products lift cocycles with it, and
conjugation on a Sylow subgroup lifts the identity of F_p twisted by
d^{-1} (-) d.  Each step solves d_k Phi = rhs on the pivot rows
A = d_k[piv, :] and rhs[piv], for the pivots piv of ker d_{k-1}.  Those
rows have d_k's kernel, hence its row space, so the solution with the free
variables zero is the one the full d_k gives.  A has full row rank, so it
is factored once per stage, when a lift first reaches it, into its pivot
columns c and E = A[:, c]^{-1} (`fplinalg.pivot_inverse`).  Every step of
every lift through that stage, cocycles and conjugations alike, is then
one product, Phi[c] = E rhs[piv] and zero elsewhere, which is byte for
byte the solution an elimination of [A | rhs] gives; no lift eliminates
anything.  The rows see only rhs[piv], so rhs is first checked to lie in
ker d_{k-1} = image d_k: it does exactly when d_{k-1}[piv', :] rhs = 0 for
the pivots piv' of ker d_{k-2} (the augmentation times rhs, for k = 1),
and LiftFailure is raised otherwise.  Those rows are stage k - 1's A, kept
with its factor (`FreeResolution._factor`).

Every step's right-hand side is tau W for W = W_{shift+k} and tau the map
Phi = Phi_{k-1} determines, and tau is never expanded.  A lift is
semilinear over S <= G along sigma: S -> G (`Twist`): cup products lift
with S = G, sigma the identity; conjugation by d on a Sylow subgroup with
S = S_t, sigma = d^{-1} (-) d.  Phi holds tau(w . e_m) in column (a, m, w)
for the representatives w of S's right cosets, column (a, x, t) of tau W
is tau(t . W_x), and with rows read through sigma(S)'s cosets, h = sigma(s) v,

    rhs[(j, sigma(s) v), (a, x, t)]
        = sum_{s', m, w} Phi[(j, sigma(s') v), (a, m, w)] W[(m, t^{-1} s s'^{-1} w), x].

So Phi's rows are relabelled and regrouped once per step, to rows
(j, v, a) and columns (m, s', w); each s is one product with W gathered at
the twist's quotients, and its rows go back to (j, sigma(s) v).  An
untwisted lift is the case of one coset: rhs[(j, h), (a, x)] =
sum_{u, m} Phi[(j, u), (a, m)] W[(m, h u^{-1}), x].  The gathers for a
block of s run as one product of at most `groups._BLOCK` gathered entries,
or one s.  Phi and W are gathered in the dtype of their exact product
(`fplinalg._product_dtype`: float32 while the inner dimension k keeps
k (p - 1)^2 below 2^24), so the product converts no operand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fplinalg, gmodules, groups
from .errors import (
    BadParameters,
    GroupMismatch,
    InsufficientData,
    InvariantViolation,
    LengthTooSmall,
    LiftFailure,
    MinimalityUnavailable,
    ElementaryAbelianInput,
    NoFitFound,
    SeriesTooShort,
)
from .gmodules import GModule, dual_module, restrict_module, trivial_module
from .groups import (
    FiniteGroup,
    _memo,
    clear_group_caches,
    elementary_abelian_subgroups,
    sylow,
)


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


class Twist(NamedTuple):
    """A lift's semilinearity over S <= G along sigma: S -> G, as index maps
    (module docstring): source[w, s] = s . w and target[v, s] = sigma(s) . v
    are the right-coset tables of S and of sigma(S), columns aligned by
    sigma, and quotients[s', w, s, t] = t^{-1} s s'^{-1} w."""

    source: np.ndarray
    target: np.ndarray
    quotients: np.ndarray


def twist_maps(G: FiniteGroup, source: np.ndarray, target: np.ndarray) -> Twist:
    """The Twist of the coset tables source and target, with its quotients."""
    members, reps = source[0], source[:, 0]
    left = G.mul[G.inv[members][:, None], reps]  # [s', w] = s'^{-1} w
    right = G.mul[G.inv[reps], members[:, None]]  # [s, t] = t^{-1} s
    return Twist(source, target, G.mul[right, left[:, :, None, None]])


def untwisted(G: FiniteGroup) -> Twist:
    """S = G and sigma the identity, one coset: built once per group."""
    every = np.arange(G.order)[None, :]
    return _memo(G, ("untwisted",), lambda: twist_maps(G, every, every))


class FreeResolution:
    """Staged free resolution ... -> F_p[G]^{r_1} -> F_p[G]^{r_0} -> M -> 0."""

    def __init__(self, M: GModule, minimal: bool) -> None:
        if minimal and not M.group.is_p_group(M.p):
            raise MinimalityUnavailable(f"{M.group.name} is not a {M.p}-group; minimal "
                                        "resolutions are only constructed over p-groups")
        self.group: FiniteGroup = M.group
        self.p = M.p
        self.target = M
        self.minimal = bool(minimal)
        n = self.group.order
        self._n = n
        # translation index maps: left action of g sends v to v[take[g]] blockwise
        self._take = np.asarray(self.group.mul[self.group.inv], dtype=np.int64)
        gens = self._stage_zero_generators(M)
        self.ranks: list[int] = [len(gens)]
        self.boundaries: list[np.ndarray] = []
        aug = np.zeros((M.dim, len(gens) * n), dtype=np.int64)
        for j, m in enumerate(gens):
            aug[:, j * n:(j + 1) * n] = np.tensordot(
                M.action, m, axes=([2], [0])).T % self.p
        self.augmentation = aug
        # the newest kernel K, uint8 at p = 2, or None until it is read
        # (`_newest_kernel`), and the pivots of every stage's kernel
        # eliminated so far: _kernel_pivots[i] for ker d_i, d_0 the augmentation
        self._kernel: np.ndarray | None = None
        self._kernel_pivots: list[np.ndarray] = []
        # (A, c, E) for d_1, d_2, ...: `_factor`, built when a lift first reaches them
        self._factors: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        # (j, per) once stage j + per repeats stage j: later stages are copies
        self._period: tuple[int, int] | None = None

    # -- construction ---------------------------------------------------

    def _stage_zero_generators(self, M: GModule):
        eye = np.eye(M.dim, dtype=np.int64)
        if self.minimal:  # the lead test of every later stage, on I . M
            kept = _outside_radical(gmodules.radical_rows(M)[:, ::-1], M.p)
        else:  # g . e_j is column j of M's action of g
            kept = fplinalg.greedy_generators(M.dim, lambda j: M.action[:, :, j], M.p)
        return [eye[i] for i in kept]

    def expand(self, images: np.ndarray) -> np.ndarray:
        """The full matrix of the F_p[G]-linear map out of F_p[G]^r that
        sends e_{k, 1} to column k of images, of shape (r' |G|, r): column
        k |G| + g of the result is g . images[:, k], so expand(boundaries[i - 1])
        is the full d_i.
        """
        rows, cols = images.shape
        n = self._n
        # out[j, h, k, g] = images[j n + g^{-1} h, k] = images[j, take[g, h] cols + k]
        # with images viewed as (r', n cols): one gather into each block of n
        # rows, in C order, with a flat index
        at = self._take.T * cols
        out = np.take(images.reshape(rows // n, n * cols),
                      at[:, None, :] + np.arange(cols)[:, None], axis=1)
        return out.reshape(rows, cols * n)

    def boundary(self, i: int) -> np.ndarray:
        """The full matrix of d_i, r_{i-1}|G| x r_i|G|."""
        return self.expand(self.boundaries[i - 1])

    def _translates(self, piv: np.ndarray) -> np.ndarray:
        """at[g, c]: entry piv[c] of g . v is v[at[g, c]], for v in F_p[G]^r.

        With piv the pivots of a submodule's RREF basis, v[at[g]] are the
        coordinates of g . v for v in that submodule.
        """
        n = self._n
        return piv // n * n + self._take[:, piv % n]

    def _kernel_generators(self, kernel_rows: np.ndarray, at: np.ndarray) -> np.ndarray:
        """Indices of the kernel rows kept as the next stage's generators.

        Works in K's coordinates (module docstring): row i is e_i, and
        g . row i is kernel_rows[i, at[g]].
        """
        k, p = len(kernel_rows), self.p
        if self.minimal:
            gens = at[list(self.group.generator_indices)]  # at[s] for the generators s
            # radical[c, s, i]: coordinate k - 1 - c of (s - 1) . row i,
            # gathered from K^T, which the byte kernel holds contiguously
            radical = kernel_rows.T[gens.T[::-1]]
            radical[np.arange(k), :, np.arange(k)[::-1]] -= 1  # in bytes 0 - 1 is 255, odd
            return _outside_radical(radical.reshape(k, -1).T, p)
        return fplinalg.greedy_generators(k, lambda i: kernel_rows[i][at], p)

    def _pivot_rows(self, i: int) -> np.ndarray:
        """The rows of d_i at the pivots piv of ker d_{i-1}, gathered from W_i.

        d_i[piv[c], k n + g] = W_i[at[g, c], k].  image(d_i) = ker d_{i-1},
        where a vector is zero exactly when its entries at piv are, so these
        rows have d_i's kernel and row space (module docstring).
        """
        # over GF(2) gathered as bytes, which the kernel elimination reads
        W = self.boundaries[i - 1].astype(np.uint8 if self.p == 2 else np.int64, copy=False)
        piv = self._kernel_pivots[i - 1]
        rows = W.T[:, self._translates(piv).T]  # rows[k, c, g] = d_i[piv[c], k n + g]
        return rows.transpose(1, 0, 2).reshape(len(piv), W.shape[1] * self._n)

    def _newest_kernel(self) -> np.ndarray:
        """K = ker d_L for L = self.length, eliminated on first use."""
        if self._kernel is None:
            rows = self._pivot_rows(self.length) if self.length else self.augmentation
            self._kernel, pivots, _ = fplinalg.kernel(rows, self.p)
            self._kernel_pivots.append(pivots)
        return self._kernel

    def _append_stage(self) -> None:
        if self._period is not None:  # stage i repeats stage i - per
            per = self._period[1]
            i = self.length + 1
            if self._kernel is None:  # ker d_{i-1} not read yet: its pivots repeat too
                self._kernel_pivots.append(self._kernel_pivots[i - 1 - per])
            self.ranks.append(self.ranks[i - per])
            self.boundaries.append(self.boundaries[i - 1 - per])
            self._kernel = None
            return
        K = self._newest_kernel()
        if not len(K):  # exact already: zero modules, and K stays empty
            self.ranks.append(0)
            self.boundaries.append(np.zeros((self.ranks[-2] * self._n, 0), dtype=np.int64))
            self._kernel_pivots.append(np.zeros(0, dtype=np.intp))
            return
        at = self._translates(self._kernel_pivots[-1])
        W = np.ascontiguousarray(K[self._kernel_generators(K, at)].T, dtype=np.int64)
        self.ranks.append(W.shape[1])
        self.boundaries.append(W)
        self._kernel = None
        self._period = self._find_period()

    def _find_period(self) -> tuple[int, int] | None:
        """(j, L - j) for the stage j < L whose state (W_j, pivots of
        ker d_{j-1}) equals that of the newest stage L, or None."""
        L, ranks = self.length, self.ranks
        W, piv = self.boundaries[L - 1], self._kernel_pivots[L - 1]
        for j in range(1, L):
            if ranks[j - 1:j + 1] == ranks[L - 1:L + 1] and \
                    np.array_equal(self.boundaries[j - 1], W) and \
                    np.array_equal(self._kernel_pivots[j - 1], piv):
                return j, L - j
        return None

    def extend_to(self, length: int) -> "FreeResolution":
        """Ensure boundaries d_1 .. d_length exist (idempotent, append-only)."""
        if length < 1:
            raise LengthTooSmall("resolution length must be at least 1")
        while len(self.boundaries) < length:
            self._append_stage()
        return self

    @property
    def length(self) -> int:
        return len(self.boundaries)

    def lift(self, lifts: list[np.ndarray], shift: int, steps: int,
             twist: Twist | None = None) -> list[np.ndarray]:
        """Chain maps P_{shift + *} -> P_* by their generator images.

        The maps are semilinear along the twist, untwisted by default
        (`untwisted`).  lifts starts with Phi_0 (entries reduced mod p), the
        images in P_0 of the free S-generators w . e_m of P_shift, for c
        maps side by side: shape (r_0 |G|, c r_shift nu) for nu = |G : S|,
        with column (a, m, w) for generator m of map a.  Phi_k solves
        d_k Phi_k = tau_{k-1} d_{shift+k} on the free S-generators, where
        tau_{k-1} is the map that Phi_{k-1} determines; it is never built
        (`_step`).  The list is extended in place through Phi_steps and
        returned, so a caller that needs more degrees later resumes where
        it stopped.  A right-hand side outside the image of d_k, which is
        ker d_{k-1}, raises LiftFailure.  Each step solves on the rows of
        d_k at the pivots of ker d_{k-1} through the factor of those rows
        kept per stage (module docstring).
        """
        p, n = self.p, self._n
        self.extend_to(max(shift + steps, 1))
        twist = untwisted(self.group) if twist is None else twist
        count = lifts[0].shape[1] // max(self.ranks[shift] * len(twist.source), 1)
        for k in range(len(lifts), steps + 1):
            rhs = self._step(lifts[-1], self.boundaries[shift + k - 1], count, twist)
            upstream = self.augmentation if k == 1 else self._factor(k - 1)[0]
            if fplinalg._matmul_mod(upstream, rhs, p).any():
                raise LiftFailure(f"degree-{shift} maps do not lift to "
                                  f"P_{shift + k} -> P_{k}: the resolution is not exact")
            _, columns, inverse = self._factor(k)
            phi = np.zeros((self.ranks[k] * n, rhs.shape[1]), dtype=np.int64)
            phi[columns] = fplinalg._matmul_mod(inverse, rhs[self._kernel_pivots[k - 1]], p)
            lifts.append(phi)
        return lifts

    def _step(self, phi: np.ndarray, W: np.ndarray, count: int, twist: Twist) -> np.ndarray:
        """tau W for the tau that phi determines: one product per block of s,
        gathered in the dtype of the exact product (module docstring)."""
        n, p = self._n, self.p
        target, quotients = twist.target, twist.quotients
        nu, q = target.shape
        r_j, r_m, r_x = len(phi) // n, W.shape[0] // n, W.shape[1]
        W = W.astype(fplinalg._product_dtype(len(W), p)).reshape(r_m, n, r_x)
        left = np.empty((r_j, nu, count, r_m, q, nu), dtype=W.dtype)  # [(j, v, a), (m, s', w)]
        left[...] = np.take(phi.reshape(r_j, n, count, r_m, nu), target, axis=1).transpose(
            0, 1, 3, 4, 2, 5)
        left = left.reshape(r_j * nu * count, r_m * n)
        rhs = np.empty((r_j, n, count, r_x, nu), dtype=np.int64)
        step = max(1, groups._BLOCK // max(W.size * nu, 1))  # a gather per s is W.size nu entries
        for start in range(0, q, step):
            # gathered[m, s', w, s, t, x] = W[(m, t^{-1} s s'^{-1} w), x]
            gathered = np.take(W, quotients[:, :, start:start + step], axis=1)
            sb = gathered.shape[3]
            prod = fplinalg._matmul_mod(left, gathered.reshape(r_m * n, sb * nu * r_x), p)
            rhs[:, target[:, start:start + sb]] = prod.reshape(
                r_j, nu, count, sb, nu, r_x).transpose(0, 1, 3, 2, 5, 4)
        return rhs.reshape(r_j * n, count * r_x * nu)

    def _factor(self, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A, c, E): d_k's pivot rows A and their `fplinalg.pivot_inverse`.

        Computed once per stage, for every stage through k, and kept: the
        step through d_k solves with (c, E), and the step after it checks
        its right-hand side against A.  Past a period (j, per), stage k
        repeats stage k - per for k >= j + per, and so does its factor.
        """
        if self._period is not None:
            j, per = self._period
            if k >= j + per:
                k -= (k - j) // per * per
        while len(self._factors) < k:
            rows = self._pivot_rows(len(self._factors) + 1)
            self._factors.append((rows, *fplinalg.pivot_inverse(rows, self.p)))
        return self._factors[k - 1]

    # -- verification ---------------------------------------------------

    def check_exactness(self) -> None:
        """image(d_{i+1}) = kernel(d_i) at every computed stage."""
        p = self.p
        upstream = self.augmentation
        rank = len(fplinalg.rref_pivots(upstream, p))
        for i in range(self.length):
            D = self.boundary(i + 1)
            if ((upstream @ D) % p).any():
                raise InvariantViolation(f"d_{i} . d_{i + 1} != 0")
            im_rank, ker_dim = len(fplinalg.rref_pivots(D, p)), len(D) - rank
            if im_rank != ker_dim:
                raise InvariantViolation(
                    f"stage {i}: image rank {im_rank} != kernel dim {ker_dim}")
            upstream, rank = D, im_rank

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


def _outside_radical(reversed_rows: np.ndarray, p: int) -> np.ndarray:
    """The rows e_i that a minimal stage keeps: each i that is not the last
    nonzero coordinate of any vector of the radical, spanned by
    reversed_rows with their coordinates reversed (module docstring)."""
    k = reversed_rows.shape[1]
    kept = np.ones(k, dtype=bool)
    kept[k - 1 - fplinalg.rref_pivots(reversed_rows, p)] = False
    return kept.nonzero()[0]


def free_resolution(M: GModule, length: int, minimal: bool = False) -> FreeResolution:
    """Free resolution of M, exact through the requested length."""
    if length < 1:
        raise LengthTooSmall("resolution length must be at least 1")
    return FreeResolution(M, minimal=minimal).extend_to(length)


def trivial_resolution(G: FiniteGroup, p: int, length: int) -> FreeResolution:
    """Cached resolution of the one-dimensional trivial module."""
    return _memo(G, ("resolution", p), lambda: FreeResolution(
        trivial_module(G, p), minimal=G.is_p_group(p))).extend_to(length)


# resolutions, and all that is built on them, live in the groups' caches
clear_resolution_cache = clear_group_caches


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
    kernel_rows = res._newest_kernel()
    k, n = len(kernel_rows), res._n
    action = np.zeros((n, k, k), dtype=np.int64)
    if k:
        # action[g][c, i]: coordinate c of g . row i
        at = res._translates(res._kernel_pivots[-1])
        action[:] = kernel_rows[:, at].transpose(1, 2, 0)
    return GModule(M.group, M.p, action, validate=False)


# -- Hom complex and Ext ------------------------------------------------------

def _hom_delta(res: FreeResolution, N: GModule, i: int,
               cosets: np.ndarray | None = None) -> np.ndarray:
    """Differential Hom_S(P_i, N) -> Hom_S(P_{i+1}, N), for any S <= G.

    The one Hom-complex differential: `ext_dims` uses it with S = G, and
    `cohmaps.CochainContext` with every subgroup, S = G and S < G alike.

    cosets[t, s] is the element s . t for the t-th right-coset
    representative and the s-th member of S, in member order, so column 0
    is the transversal and row 0 is S itself; None means S = G.  An
    S-cochain is coordinatised by its values on e_{j, t}, one N-vector per
    free generator j and representative t, flattened (j, t, N).  Translated
    by u, a generator column w splits along the cosets St as
    sum_{s, t} w(u^{-1} s t) s . e_{j, t}, and s acts on f(e_{j, t}) by N(s).
    """
    p, G = res.p, res.group
    if cosets is None:
        cosets = np.arange(G.order)[None, :]
    r_next, r_cur = res.ranks[i + 1], res.ranks[i]
    nt, d = len(cosets), N.dim
    W = res.boundaries[i].reshape(r_cur, G.order, r_next)
    action = N.action[cosets[0]]
    delta = np.empty((r_next, nt, d, r_cur * nt * d), dtype=np.int64)
    for ui, u in enumerate(cosets[:, 0]):
        v = W[:, G.mul[G.inv[u]][cosets]]  # v[j, t, s, k] = w_k[j](u^{-1} s t)
        delta[:, ui] = (np.einsum("jtsk,sab->kajtb", v, action) % p).reshape(
            r_next, d, r_cur * nt * d)
    return delta.reshape(r_next * nt * d, r_cur * nt * d)


def ext_dims(M: GModule, N: GModule, max_deg: int,
             resolution: FreeResolution | None = None) -> DimSeries:
    """dim Ext^i_{F_p[G]}(M, N) for 0 <= i <= max_deg.

    Post-condition, raising InvariantViolation: Ext^0 = Hom_G(M, N) is the
    fixed space (M* (x) N)^G, computed apart from the Hom complex from the
    generators' matrices M*(s) (x) N(s) alone (`gmodules.fixed_space`).
    """
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
        rank_i = len(fplinalg.rref_pivots(delta, p))
        dims.append(cur_dim - rank_i - prev_rank)
        prev_rank = rank_i
    if dims:
        gens = list(M.group.generator_indices)
        # M*(s) (x) N(s), M*(s) = M(s^-1)^T: entry (a c, b d) is M(s^-1)[b, a] N(s)[c, d]
        mats = np.einsum("sba,scd->sacbd", M.action[M.group.inv[gens]], N.action[gens],
                         order="C").reshape(len(gens), M.dim * N.dim, -1)
        fixed = gmodules.fixed_space(mats, p).dim
        if dims[0] != fixed:
            raise InvariantViolation(f"Ext^0 has dimension {dims[0]}, (M* (x) N)^G {fixed}")
    return DimSeries(tuple(dims), p,
                     label=f"Ext({M.group.name}; dims {M.dim}->{N.dim})")


def cohomology_dims(G: FiniteGroup, p: int, max_deg: int) -> DimSeries:
    """dim H^i(G, F_p) for 0 <= i <= max_deg.

    They are the stable elements of H^*(P, F_p) for a Sylow p-subgroup P
    (`cohmaps.StableElements`), computed on P's minimal resolution, which
    is |G : P| times smaller than a resolution over F_p[G].  For a p-group
    P = G and the dims are the ranks of that resolution.

    Post-conditions, raising InvariantViolation: no dim is negative, and
    H^0 = F_p^G is one-dimensional.  A negative max_deg raises BadParameters.
    """
    from .cohmaps import stable_elements  # cohmaps builds on this module
    if max_deg < 0:
        raise BadParameters(f"max_deg must be nonnegative, got {max_deg}")
    dims = stable_elements(G, p).dims(max_deg)
    if dims and (dims[0] != 1 or min(dims) < 0):
        raise InvariantViolation(
            f"H^*({G.name}; F_{p}) dims {dims}: H^0 must be 1 and no dim negative")
    return DimSeries(dims, p, label=f"H^*({G.name}; F_{p})")


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
    if P.is_elementary_abelian(M.p):
        raise ElementaryAbelianInput(
            "the maximal-subgroup criterion excludes elementary abelian groups")
    return all(is_projective(restrict_module(M, K))
               for K in groups.maximal_subgroups(P))


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
    """First fit over denominator multisets ordered by (total degree, lex).

    The numerator of a fit of total degree T has degree at most T, so it
    matches any first T + 1 terms; only the len - 1 - T terms past it check
    the fit, and it is tried only while there are at least T of them.
    """
    dims = _series_entries(series)
    for total in range(0, (len(dims) + 1) // 2):
        for exps in _ascending_partitions(total, min(max_part, max(total, 1))):
            fit = poincare_fit(dims, exps)
            if fit is not None:
                return fit
    raise NoFitFound("no rational function with the allowed denominators "
                     f"is verified through degree {len(dims) - 1}")


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
    """Pole order at t = 1 of the automatically fitted Poincare series.

    Without a verified fit the probe doubles, through degree 4 max_deg.
    """
    probe = max_deg
    while True:
        try:
            fit = auto_poincare_fit(cohomology_dims(G, p, probe), max_part=2 * G.order)
            return pole_order_at_one(fit)
        except NoFitFound:
            if probe >= 4 * max_deg:
                raise
            probe *= 2
