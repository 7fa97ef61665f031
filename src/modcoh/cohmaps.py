"""Cohomology with explicit cocycle representatives, and the maps between.

All maps for subgroups S <= G are computed on one shared free resolution
P_* of the trivial F_p[G]-module: P_* restricted to S is still free (one
free S-generator per free G-generator and right coset St), so all three
maps are one coset sum on cochains, f |-> sum_{c in C} c . f(c^{-1} . -):
C = {1} re-coordinatizes (restriction), C = {g} conjugates, and a set of
coset representatives transfers.  On G's resolution no chain lifting is
needed, and the double-coset identity holds exactly at cochain level.  The
coset sum never mixes free generators, and each term reads one coset and
acts by one element: it is held as the index map of those cosets and
actions, shared by every generator and degree, and applied to each
generator's slice of the classes (`_coset_sum_cochain`, `induced_map`).
The differential of Hom_S(P_*, M) is `resolutions._hom_delta` over the
table of right cosets St, the one differential that `ext_dims` uses with
S = G.

A report over degrees, such as `modcoh maps`, runs in one pass over a
`MapBuilder`: each context, each index map for each (source, target, C),
each transfer's representatives and each double coset term (g, H n K^g)
is built once, and each degree only applies the index maps and reads
class coordinates.  A term's res^{K^g}_{H n K^g} c_g is one coset sum,
C = {g} from K straight to H n K^g, so no context of K^g is built.
The double coset check reuses the res and tr that the report has already
printed as its left side, and when K = H the term of the double coset H
itself is I_{dim H^i(H)}, since c_1, res^H_H and tr^H_H are identities,
as `StableElements` counts n_1 I; it costs no induced map.
`restriction`, `transfer`, `conjugation` and `double_coset_identity_check`
are one-degree uses of a fresh builder, so there is one code path.

Stable elements (`StableElements`, `stable_subspace`), and with them the
cup products of `products.CupRing`, run on the minimal resolution of a
Sylow p-subgroup P instead, which is |G : P| times smaller: H^i(G) is the
row space of one r_i x r_i Mackey matrix of res^G_P tr^G_P per degree,
summed over the double cosets PdP, and every degree a call needs is
checked and row-reduced in one block-diagonal matrix (`StableElements`).

Cohomology bases are canonical: RREF cocycle vectors extending the RREF
coboundary space, so maps expressed in these bases are reproducible.
Basis-dependent entries should still never be asserted, only ranks,
dimensions and identities between the maps themselves.  A basis's class
coordinates come from the elimination of delta^i that already gave Z^i's
RREF and pivots: only the square matrix of the classes and coboundaries
at those pivots is inverted, once, at its first use (`CohBasis`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import fplinalg
from .errors import BadParameters, GroupMismatch, InvariantViolation, SylowNotAbelian
from .gmodules import GModule, trivial_module
from .groups import (
    FiniteGroup,
    Subgroup,
    _memo,
    conjugate_subgroup,
    coset_representatives,
    mackey_terms,
    normalizer,
    require_prime,
    right_coset_table,
    sylow,
    whole_group,
)
from .resolutions import (
    FreeResolution,
    _hom_delta,
    clear_resolution_cache,
    trivial_resolution,
    twist_maps,
)


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
    """Canonical basis of H^i with explicit cocycle representatives.

    Coordinates drop the coboundaries, an array of rows.  With zero rows (a
    zero Hom differential, as on a minimal resolution with trivial
    coefficients) a vector outside the span of the classes is no cocycle.

    The c rows of B, the classes and then a basis of the coboundaries, are
    independent and span the cocycles Z^i, which come in as their RREF U
    with pivots piv (a context's elimination of delta^i has both; with no
    coboundaries U is the RREF of the classes).  So a cocycle v is x . B
    for exactly one x, and x[:dim] are its coordinates.  v lies in Z^i
    exactly when its residual against U is zero, and then v = v[piv] . U;
    B = B[:, piv] . U likewise, so x = v[piv] . T with T the inverse of the
    c x c matrix B[:, piv].  T is built once, at the first call, and each
    call costs one residual and one product.  When H^i = 0 the span is
    B^i = Z^i: a vector outside it is no cocycle.
    """

    def __init__(self, p: int, degree: int, reps: np.ndarray,
                 coboundaries: np.ndarray, cocycles: np.ndarray,
                 pivots: np.ndarray) -> None:
        self.p = p
        self.degree = degree
        self.classes = reps          # rows: cocycle vectors
        self._coboundaries = coboundaries
        self._cocycles = cocycles    # RREF of Z^i
        self._pivots = pivots

    @property
    def dim(self) -> int:
        return len(self.classes)

    @functools.cached_property
    def _inverse(self) -> np.ndarray:
        """T[:, :dim], T the inverse of B[:, piv]."""
        rows = np.vstack([self.classes, self._coboundaries])
        _, inverse = fplinalg.pivot_inverse(rows[:, self._pivots], self.p)
        return inverse[:, :self.dim].astype(np.int64)

    def class_coordinates(self, cols: np.ndarray) -> np.ndarray:
        """Coordinates of cocycle columns in this basis (coboundaries dropped)."""
        cols = np.asarray(cols, dtype=np.int64) % self.p
        if cols.ndim == 1:
            cols = cols.reshape(-1, 1)
        if fplinalg.residual_rows(cols.T, self._cocycles, self.p, self._pivots).any():
            raise InvariantViolation("vector is not a cocycle of this basis")
        # int64 is exact: c < 2^21 terms below (p - 1)^2 each
        return (self._inverse.T @ cols[self._pivots]) % self.p


@dataclass(frozen=True)
class CohMap:
    source: CohBasis
    target: CohBasis
    matrix: np.ndarray

    def rank(self) -> int:
        return len(fplinalg.rref_pivots(self.matrix, self.source.p))

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
        # _cosets[t, s] = s . t; every g is _s_of[g] . transversal[_rep_of[g]]
        self._cosets = right_coset_table(G, subgroup)
        self.transversal = self._cosets[:, 0].tolist()
        self._rep_of, self._s_of = np.empty((2, G.order), dtype=np.int64)
        self._rep_of[self._cosets] = np.arange(len(self.transversal))[:, None]
        self._s_of[self._cosets] = subgroup.member_indices
        self._eliminated: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._bases: dict[int, CohBasis] = {}

    def cochain_dim(self, i: int) -> int:
        self.resolution.extend_to(max(i, 1))
        return self.resolution.ranks[i] * len(self.transversal) * self.module.dim

    def differential(self, i: int) -> np.ndarray:
        """delta^i : C^i -> C^{i+1}, as a matrix on column vectors, built on
        each call: `_eliminate` keeps all a basis reads, Z^i, pivots, B^{i+1}."""
        self.resolution.extend_to(i + 1)
        return _hom_delta(self.resolution, self.module, i, self._cosets)

    def _eliminate(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(Z^i, its pivots, B^{i+1}) from one elimination of delta^i.

        Z^i is the canonical cocycle basis, in RREF; B^{i+1} is a basis of
        the coboundaries, as rows: the independent columns of delta^i that
        the same elimination finds.
        """
        if i not in self._eliminated:
            delta = self.differential(i)
            if delta.size:
                cocycles, pivots, cols = fplinalg.kernel(delta, self.p)
                self._eliminated[i] = (cocycles.astype(np.int64, order="C"), pivots,
                                       delta[:, cols].T)
            else:
                n = self.cochain_dim(i)
                self._eliminated[i] = (np.eye(n, dtype=np.int64), np.arange(n),
                                       np.zeros((0, len(delta)), dtype=np.int64))
        return self._eliminated[i]

    def coboundaries(self, i: int) -> np.ndarray:
        """A basis of B^i, as rows (independent, not reduced)."""
        if i == 0:
            return np.zeros((0, self.cochain_dim(0)), dtype=np.int64)
        return self._eliminate(i - 1)[2]

    def basis(self, i: int) -> CohBasis:
        """Canonical H^i basis; it depends on the span of B^i, not its basis."""
        if i in self._bases:
            return self._bases[i]
        cocycles, pivots, _ = self._eliminate(i)
        cobound = self.coboundaries(i)
        if len(cocycles) == len(cobound):  # bases of B^i <= Z^i: H^i = 0
            reps = cocycles[:0]
        else:
            reps = cocycles[fplinalg.independent_rows(cobound, cocycles, self.p)]
        basis = CohBasis(self.p, i, reps, cobound, cocycles, pivots)
        self._bases[i] = basis
        return basis

    def complex_through(self, max_deg: int) -> CochainComplex:
        spaces = tuple(self.cochain_dim(i) for i in range(max_deg + 1))
        diffs = tuple(self.differential(i) for i in range(max_deg))
        return CochainComplex(spaces, diffs)


# -- context registry ---------------------------------------------------------

# Kept on the group (groups.group_cache), beside its resolutions, and
# emptied with them: a context never outlives the resolution it is built on.

def trivial_coefficients(G: FiniteGroup, p: int) -> GModule:
    return _memo(G, ("coefficients", p), lambda: trivial_module(G, p))


def context(G: FiniteGroup, M: GModule, subgroup: Subgroup | None = None) -> CochainContext:
    """Cochain context for a subgroup (default: G itself) on G's resolution,
    which `cochain_dim` and `differential` extend as far as they read."""
    if subgroup is None:
        subgroup = whole_group(G)
    res = trivial_resolution(G, M.p, 1)
    return _memo(G, ("context", M, subgroup.member_indices),
                 lambda: CochainContext(res, subgroup, M))


# One clear function serves both names: contexts live beside resolutions.
clear_context_cache = clear_resolution_cache


# -- cochain-level maps -------------------------------------------------------

def _coset_sum_cochain(src: CochainContext, dst: CochainContext,
                       C: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """C^i_S -> C^i_{S'}: (phi f)(e_{j, u}) = sum_{c in C} c . f(c^{-1} u . e_j).

    C = {1} gives restriction (S' <= S), C = {g} conjugation by g followed
    by restriction to any S' <= gSg^{-1} (g^{-1} S' g lies in S, so the map
    is S'-equivariant), and the left-coset representatives of S inside S'
    the transfer (S <= S').  Each c^{-1} u splits as s . t with s in S and
    t in src's transversal, where f takes the value s . f(e_{j, t}).  These are
    the maps of contexts on G's resolution; `StableElements` restricts
    trivial-coefficient classes on P's resolution without a coset sum.

    The map does not mix free generators.  It is returned as the index map
    that determines it in every degree, cosets[c, u] = t and actions[c, u] =
    M(c . s) for c in C and u in dst's transversal: |dst transversal| entries
    for C = {g}, and [S' : S] [G : S'] = [G : S] for a transfer S -> S'.
    """
    G = src.group
    C = np.asarray(C, dtype=np.intp)
    x = G.mul[G.inv[C][:, None], dst.transversal]  # x[c, u] = c^{-1} u
    return src._rep_of[x], src.module.action[G.mul[C[:, None], src._s_of[x]]]


def induced_map(src: CochainContext, dst: CochainContext,
                coset_sum: tuple[np.ndarray, np.ndarray], i: int) -> CohMap:
    """Map on cohomology induced by a coset sum, given by its index map."""
    sb, tb = src.basis(i), dst.basis(i)
    if sb.dim == 0:
        return CohMap(sb, tb, np.zeros((tb.dim, 0), dtype=np.int64))
    cosets, actions = coset_sum
    k, nt, m = actions.shape[:3]
    # a cochain is flattened (j, t, M); per u, one product of each slice's
    # values at cosets[:, u] with actions[:, u] side by side sums over C and M
    values = sb.classes.reshape(-1, len(src.transversal), m).take(cosets.T, axis=1)
    stacked = actions.transpose(1, 2, 0, 3).reshape(nt, m, k * m)
    # exact in int64, reduced by class_coordinates: the c in C read distinct
    # cosets, so |C| dim M <= |src transversal| dim M < 2^21 terms below (p - 1)^2
    images = stacked @ values.reshape(-1, nt, k * m, 1)
    return CohMap(sb, tb, tb.class_coordinates(images.reshape(sb.dim, -1).T))


# -- one pass per report -------------------------------------------------------

class MapBuilder:
    """Restriction, transfer, conjugation and the double coset formula on G's
    resolution with coefficients M, for one report that runs over degrees.

    Each coset sum's index map for each (source, target, C), each
    transfer's coset representatives and each pair's double coset terms
    (g, H n K^g) is built once, at its first use, and each map once per
    degree; `context` keeps one context per subgroup (module docstring).
    """

    def __init__(self, G: FiniteGroup, M: GModule) -> None:
        self.group = G
        self.module = M
        self.p = M.p
        self._whole = whole_group(G)
        self._sums: dict[tuple[Subgroup, Subgroup, tuple[int, ...]], tuple] = {}
        self._maps: dict[tuple[Subgroup, Subgroup, tuple[int, ...], int], CohMap] = {}
        self._transfer_reps: dict[tuple[Subgroup, Subgroup], tuple[int, ...]] = {}
        self._terms: dict[tuple[Subgroup, Subgroup], list] = {}

    def _map(self, src: Subgroup, dst: Subgroup, C: tuple[int, ...], i: int) -> CohMap:
        """The map that the coset sum over C induces in degree i."""
        key = (src, dst, C, i)
        found = self._maps.get(key)
        if found is None:
            s = context(self.group, self.module, src)
            d = context(self.group, self.module, dst)
            coset_sum = self._sums.get(key[:3])
            if coset_sum is None:
                coset_sum = self._sums[key[:3]] = _coset_sum_cochain(s, d, list(C))
            found = self._maps[key] = induced_map(s, d, coset_sum, i)
        return found

    def restriction(self, H: Subgroup, i: int, K: Subgroup | None = None) -> CohMap:
        """res: H^i(K, M) -> H^i(H, M) for H <= K <= G (K defaults to G)."""
        K = self._whole if K is None else K
        _require_nested(H, K)
        return self._map(K, H, (0,), i)

    def transfer(self, H: Subgroup, i: int, K: Subgroup | None = None) -> CohMap:
        """tr: H^i(H, M) -> H^i(K, M) for H <= K <= G (K defaults to G)."""
        K = self._whole if K is None else K
        reps = self._transfer_reps.get((H, K))
        if reps is None:
            _require_nested(H, K)
            reps = self._transfer_reps[H, K] = tuple(_transfer_reps(self.group, H, K))
        return self._map(H, K, reps, i)

    def conjugation(self, g: int, H: Subgroup, i: int) -> CohMap:
        """c_g: H^i(H, M) -> H^i(gHg^{-1}, M)."""
        return self._map(H, conjugate_subgroup(self.group, H, g), (g,), i)

    def _double_coset_terms(self, H: Subgroup, K: Subgroup) -> list:
        """(g, H n K^g) for each double coset HgK, K^g = gKg^{-1}.

        When K is H the double coset H itself is left out: its term
        tr^H_H res^H_H c_1 is the identity (`double_coset_identity`).
        """
        if (H, K) not in self._terms:
            self._terms[H, K] = [(g, inter) for g, inter in mackey_terms(self.group, H, K)
                                 if g or H != K]
        return self._terms[H, K]

    def double_coset_identity(self, H: Subgroup, K: Subgroup, i: int) -> bool:
        """res^G_H tr^G_K = sum over HgK of tr^H_{H n K^g} res^{K^g}_{H n K^g} c_g.

        Both sides are exact matrices in degree i.  In each term res c_g is
        one coset sum, C = {g} from K straight to H n K^g, so no context of
        K^g is built.  When K is H the g = 1 term is I_{dim H^i(H)}: c_1,
        res^H_H and tr^H_H are identities on the classes, as
        `StableElements` counts n_1 I.
        """
        res, tr = self.restriction(H, i), self.transfer(K, i)
        if res.source is not tr.target:
            raise BadParameters("maps are not composable in these bases")
        lhs = (res.matrix @ tr.matrix) % self.p
        total = np.eye(len(lhs), dtype=np.int64) if H == K else np.zeros_like(lhs)
        for g, inter in self._double_coset_terms(H, K):
            rc = self._map(K, inter, (g,), i)
            t = self.transfer(inter, i, H)
            total = (total + t.matrix @ rc.matrix) % self.p
        return np.array_equal(lhs, total)


def _transfer_reps(G: FiniteGroup, S: Subgroup, K: Subgroup) -> list[int]:
    """Least-index representatives of the left cosets cS inside K (c in K)."""
    return [c for c in coset_representatives(G, S) if c in K]


def _require_nested(H: Subgroup, K: Subgroup) -> None:
    if not set(H.member_indices) <= set(K.member_indices):
        raise BadParameters("expected nested subgroups H <= K")


# -- public operations --------------------------------------------------------

def restriction(G: FiniteGroup, H: Subgroup, M: GModule, i: int,
                K: Subgroup | None = None) -> CohMap:
    """res: H^i(K, M) -> H^i(H, M) for H <= K <= G (K defaults to G)."""
    return MapBuilder(G, M).restriction(H, i, K)


def transfer(G: FiniteGroup, H: Subgroup, M: GModule, i: int,
             K: Subgroup | None = None) -> CohMap:
    """tr: H^i(H, M) -> H^i(K, M) for H <= K <= G (K defaults to G)."""
    return MapBuilder(G, M).transfer(H, i, K)


def conjugation(G: FiniteGroup, g: int, H: Subgroup, M: GModule, i: int) -> CohMap:
    """c_g: H^i(H, M) -> H^i(gHg^{-1}, M)."""
    return MapBuilder(G, M).conjugation(g, H, i)


def double_coset_identity_check(G: FiniteGroup, H: Subgroup, K: Subgroup,
                                M: GModule, i: int) -> bool:
    """res^G_H tr^G_K = sum over HgK of tr res c_g, as exact matrices."""
    return MapBuilder(G, M).double_coset_identity(H, K, i)


class StableElements:
    """H^*(G, F_p) as the stable elements of H^*(P, F_p): the image of res^G_P tr^G_P.

    Everything runs on the minimal resolution X_* of a Sylow p-subgroup P
    (Cartan-Eilenberg, Homological Algebra, XII.10).  Its Hom complex with
    trivial coefficients has zero differential, so H^i(P) = F_p^{r_i}, a
    class is a row x, and the standard basis is the canonical one.  The
    stable classes are the image of res^G_P tr^G_P: res is injective onto
    them, and tr is onto, since tr res = [G : P] is a unit mod p.  By the
    Mackey formula,

        res^G_P tr^G_P = sum over PdP of tr^P_{S_t} c_d res^P_{S_s},

    where S_t = P n dPd^{-1} and S_s = d^{-1} S_t d, both subgroups of P.
    Each term is x -> x T, so the stable classes are the row space of
    M_i = sum T, and `stable(i)` is its RREF, the canonical basis.

    - c_d res_s x composes x, a cochain with the value x_m on every g e_m,
      with a chain map psi: X_* -> X_* over the identity of F_p with
      psi(s x) = (d^{-1} s d) psi(x) for s in S_t, lifted by
      `FreeResolution.lift` with that twist: the same step as a cup
      product's, over S_t instead of P, with the rows of psi read through
      the right cosets of S_s = sigma(S_t).  Both coset tables, columns
      aligned by sigma, and the step's quotients are built once per pair
      (`resolutions.Twist`).  psi's value on the free S_t-generator
      u . e_m is x times column (m, u) of psi summed over P.
    - tr^P_{S_t} of an S_t-cochain y is, with trivial coefficients, the sum
      of its values over S_t's right transversal: tr y (e_m) = sum_u
      y(u . e_m).  That holds exactly at cochain level, and tr sends
      S_t-coboundaries to 0, because P's Hom differential is zero:
      tr delta y = delta tr y = 0.  So T is psi_i summed over P and over
      the transversal, and no S_t-coboundary is ever eliminated.

    A term depends on d only through (S_t, sigma), sigma = d^{-1} (-) d on
    S_t, so each distinct pair is lifted once and weighted by its
    multiplicity mod p; a pair of multiplicity 0 mod p needs no lift.  A d
    that centralises S_t (sigma the identity) contributes tr res =
    [P : S_t] I, as psi is then an S_t-chain map over the identity of F_p,
    homotopic to the identity.  That term is zero mod p unless S_t = P
    (S_t = 1 among the zero ones); the double cosets with S_t = P and
    sigma the identity, P itself among them, are counted in n_1.  So

        M_i = n_1 I + sum over the pairs k of n_k T_k.

    Two cheap invariants raise InvariantViolation.  (res tr)^2 =
    res (tr res) tr = [G : P] res tr, so M_i^2 = [G : P] M_i mod p.  With
    no pairs M_i = n_1 I, and n_1 must not be 0 mod p.  For a p-group
    P = G, n_1 = 1, there is no pair, and H^i(G) is all of F_p^{r_i}.

    Each call reduces every degree it needs that is not reduced yet at
    once: their M_i are the blocks of one block-diagonal matrix, whose
    square is checked with one product and whose RREF, one
    `fplinalg.rref_array`, is the blocks' RREFs in block order (`_reduce`).
    `dims(n)` reduces the missing degrees through n, `stable(i)` degree i.

    `products.CupRing` multiplies the stable classes on the same X_*:
    restriction to P is an injective ring map onto them.  P is kept as a
    standalone group with its own resolution, and nothing here refers back
    to G: cached on G, this state goes with G by reference counting alone.
    """

    def __init__(self, G: FiniteGroup, p: int) -> None:
        P = sylow(G, p)
        self.p = p
        self.members = P.member_indices
        self.index = G.order // P.order
        self.group = P.as_group()
        self.module = trivial_module(self.group, p)
        self.resolution = FreeResolution(self.module, minimal=True)
        self.identity_count, self.pairs = self._double_coset_pairs(G, P)
        # psi_0 per pair: u . e_0 -> 1, over the identity of F_p
        self._lifts = []
        for _, twist, _ in self.pairs:
            psi0 = np.zeros((self.group.order, len(twist.source)), dtype=np.int64)
            psi0[0] = 1
            self._lifts.append([psi0])
        self._stable: dict[int, np.ndarray] = {}

    def _double_coset_pairs(self, G: FiniteGroup, P: Subgroup):
        """(n_1, pairs): the double cosets PdP, counted by (S_t, sigma).

        n_1 counts those with S_t = P and sigma the identity.  pairs holds
        (d, twist, multiplicity) for every other (S_t, sigma) whose sigma is
        not the identity, in the order of their first d: the multiplicity
        is their count mod p, and the pairs where it is 0 are dropped.  The
        twist (`resolutions.Twist`) holds the right-coset tables of S_t and
        of S_s = sigma(S_t), whose column s is sigma[s] = d^{-1} s d in P's
        indices for the s-th member of S_t (class docstring).
        """
        if P.order == 1:  # every double coset is one d, with S_t = P = 1
            return G.order, []
        everything = tuple(range(P.order))
        counts: dict[tuple[tuple[int, ...], tuple[int, ...]], list[int]] = {}
        identity_count = 1  # the double coset P itself
        for d, target in mackey_terms(G, P, P)[1:]:
            # positions in P's sorted members, of S_t and of sigma[s] = d^{-1} s d
            conjugates = G.mul[G.mul[G.inv[d], target.member_indices], d]
            members = tuple(np.searchsorted(self.members, target.member_indices).tolist())
            sigma = tuple(np.searchsorted(self.members, conjugates).tolist())
            if sigma != members or members == everything:  # else [P : S_t] I = 0
                counts.setdefault((members, sigma), []).append(d)
        identity_count += len(counts.pop((everything, everything), ()))
        pairs = []
        for (members, sigma), ds in counts.items():
            if len(ds) % self.p:
                image = Subgroup(self.group, sigma)
                source = right_coset_table(self.group, Subgroup(self.group, members))
                target = right_coset_table(self.group, image)[
                    :, np.searchsorted(image.member_indices, sigma)]
                twist = twist_maps(self.group, source, target)
                pairs.append((ds[0], twist, len(ds) % self.p))
        return identity_count, pairs

    def lifts(self, top: int) -> list[list[np.ndarray]]:
        """psi_0 .. psi_top for every pair, by their free S_t-generator images.

        Each call resumes the lifts from the highest degree reached so far.
        """
        for (_, twist, _), psis in zip(self.pairs, self._lifts):
            if len(psis) <= top:
                self.resolution.lift(psis, 0, top, twist)
        return self._lifts

    def mackey_matrix(self, i: int) -> np.ndarray:
        """M_i = n_1 I + sum_k n_k T_k, res^G_P tr^G_P on H^i(P) as x -> x M_i.

        Raises InvariantViolation when M_i^2 != [G : P] M_i mod p, or when
        there is no pair and n_1 is 0 mod p (class docstring).
        """
        return self._mackey_matrices([i])[0]

    def _mackey_matrices(self, degrees: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """(M, offsets): the M_i of the degrees as the blocks of one
        block-diagonal M, block k in rows and columns offsets[k]:offsets[k + 1].

        One product checks M^2 = [G : P] M mod p, which holds for M exactly
        when it holds for every block; a failure names the first degree
        whose block fails.
        """
        p, n = self.p, self.group.order
        ranks = self.resolution.extend_to(max(max(degrees), 1)).ranks
        offsets = np.cumsum([0] + [ranks[i] for i in degrees])
        M = self.identity_count * np.eye(offsets[-1], dtype=np.int64)
        if offsets[-1] and self.pairs:
            for (_, _, count), psis in zip(self.pairs, self.lifts(max(degrees))):
                for i, lo, hi in zip(degrees, offsets, offsets[1:]):
                    if hi > lo:
                        r = hi - lo
                        M[lo:hi, lo:hi] += count * psis[i].reshape(r, n, r, -1).sum(axis=(1, 3))
        M %= p
        if not self.pairs and self.identity_count % p == 0:
            raise InvariantViolation(f"no pair, and n_1 = {self.identity_count} is 0 mod {p}")
        bad = (fplinalg._matmul_mod(M, M, p) != self.index * M % p).any(axis=1)
        if bad.any():
            i = degrees[np.searchsorted(offsets, bad.argmax(), side="right") - 1]
            raise InvariantViolation(f"M_{i}^2 != [G : P] M_{i} mod {p}: res tr is not "
                                     "[G : P] times an idempotent")
        return M, offsets

    def _reduce(self, degrees) -> None:
        """Reduce the stable classes of every degree not reduced yet, at once.

        Their M_i form one block-diagonal M (`_mackey_matrices`), checked
        and row-reduced once.  M's row space is the direct sum of the
        blocks' row spaces, so its RREF rows are those of the blocks, in
        block order: the rows with pivots in block k are M_k's RREF.  With
        no pair M_i = n_1 I, and the checks of `_mackey_matrices` together
        read n_1 = [G : P] mod p, a unit: every class is stable.
        """
        degrees = [i for i in degrees if i not in self._stable]
        if not degrees:
            return
        if not self.pairs:
            if (self.identity_count - self.index) % self.p:
                raise InvariantViolation(f"no pair, and n_1 = {self.identity_count} "
                                         f"!= [G : P] = {self.index} mod {self.p}")
            ranks = self.resolution.extend_to(max(max(degrees), 1)).ranks
            for i in degrees:
                self._stable[i] = np.eye(ranks[i], dtype=np.int64)
            return
        M, offsets = self._mackey_matrices(degrees)
        reduced, rank = fplinalg.rref_array(M, self.p)
        ends = np.searchsorted(fplinalg.pivot_columns(reduced[:rank]), offsets)
        for i, lo, hi, first, last in zip(degrees, offsets, offsets[1:], ends, ends[1:]):
            self._stable[i] = reduced[first:last, lo:hi].copy()

    def stable(self, i: int) -> np.ndarray:
        """Canonical basis (rows) of the stable classes in H^i(P): M_i's row space."""
        self._reduce([i])
        return self._stable[i]

    def dims(self, max_deg: int) -> tuple[int, ...]:
        """dim H^i(G) for i <= max_deg, every degree not reduced yet at once."""
        self._reduce(range(max_deg + 1))
        return tuple(len(self._stable[i]) for i in range(max_deg + 1))


def stable_elements(G: FiniteGroup, p: int) -> StableElements:
    """G's cached Sylow-local state at p."""
    require_prime(p)
    return _memo(G, ("stable", p), lambda: StableElements(G, p))


def stable_subspace(G: FiniteGroup, p: int, i: int):
    """Cartan-Eilenberg stable classes inside H^i(Syl_p(G), F_p).

    Returns (dimension, coefficient rows) over the canonical basis of
    H^i(P) on P's minimal resolution (see `StableElements`).  For a p-group
    P = G and every class is stable.
    """
    require_prime(p)
    if G.order % p:
        raise BadParameters(f"p = {p} does not divide |{G.name}| = {G.order}")
    basis = stable_elements(G, p).stable(i)
    return len(basis), basis


def detection_check(G: FiniteGroup, p: int, subgroups, i: int) -> bool:
    """Whether the joint restriction to the subgroups is injective on H^i(G)."""
    M = trivial_coefficients(G, p)
    top = context(G, M).basis(i)
    if top.dim == 0:
        return True
    blocks = [restriction(G, H, M, i).matrix for H in subgroups]
    stacked = np.vstack(blocks) if blocks else np.zeros((0, top.dim), dtype=np.int64)
    return len(fplinalg.rref_pivots(stacked, p)) == top.dim


def abelian_sylow_check(G: FiniteGroup, p: int, max_deg: int) -> bool:
    """H^*(G) = H^*(N_G(P)) via restriction, for abelian Sylow P."""
    P = sylow(G, p)
    if not P.is_abelian():
        raise SylowNotAbelian(f"Sylow {p}-subgroup of {G.name} is not abelian")
    N = normalizer(G, P)
    maps = MapBuilder(G, trivial_coefficients(G, p))
    for i in range(max_deg + 1):
        res = maps.restriction(N, i)
        dim_g = res.source.dim
        if res.target.dim != dim_g or res.rank() != dim_g:
            return False
    return True
