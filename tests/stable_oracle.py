"""Cartan-Eilenberg stable elements as the kernel of conditions: two oracles.

`modcoh.cohmaps.StableElements` computes H^*(G, F_p) as the image of
res^G_P tr^G_P on the minimal resolution of a Sylow p-subgroup P (the
Mackey formula).  The computations it replaced are kept here, each as an
independent oracle, as `cochain_oracle.py` keeps the cochain differential
loop.  Both impose a condition per double coset PdP, d outside P, and take
the stable classes as the kernel of the stacked conditions.

`stable_subspace` runs on G's resolution: P is a subgroup of G, every
cochain lives on G's free resolution, and conjugation is the coset sum
with C = {d}, so no chain map is lifted.

`EveryDoubleCoset` runs on P's minimal resolution, as `StableElements`
did before: for every double coset with S_t = P n dPd^{-1} nontrivial, the
condition res_t x = c_d res_s x in H^i(S_t), with c_d from the twisted
chain-map lift and the difference reduced modulo the coboundaries of an
S_t-context on P's resolution.  No pair is skipped for centralising S_t or
for repeating an earlier (S_t, sigma).
"""

from __future__ import annotations

import numpy as np

from modcoh import fplinalg
from modcoh.cohmaps import (
    CochainContext,
    conjugation,
    context,
    restriction,
    trivial_coefficients,
)
from modcoh.errors import BadParameters
from modcoh.gmodules import trivial_module
from modcoh.groups import (
    FiniteGroup,
    Subgroup,
    conjugate_subgroup,
    double_cosets,
    intersect,
    sylow,
)
from modcoh.resolutions import FreeResolution

from resolution_oracle import make_twist


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
    base = context(G, M, P).basis(i)
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
    basis = fplinalg.kernel(stacked, p)[0].astype(np.int64)
    return len(basis), basis


class EveryDoubleCoset:
    """Stable classes of H^*(P) on P's minimal resolution X_*, as the kernel
    of one condition per double coset PdP with d outside P and S_t nontrivial.

    pairs holds (d, S_t context, twist) per double coset; the twist
    (`resolution_oracle.make_twist`) is built from S_t's coset table and
    sigma[s] = d^{-1} s d in P's indices for the s-th member of S_t, as
    `FreeResolution.lift` takes it.
    """

    def __init__(self, G: FiniteGroup, p: int) -> None:
        P = sylow(G, p)
        self.p = p
        self.members = P.member_indices
        self.group = P.as_group()
        self.module = trivial_module(self.group, p)
        self.resolution = FreeResolution(self.module, minimal=True)
        position = {g: k for k, g in enumerate(self.members)}
        self.pairs = []
        for d in double_cosets(G, P, P).reps if P.order > 1 else ():
            target = intersect(P, conjugate_subgroup(G, P, d))
            if d in P or target.order == 1:
                continue
            members = tuple(position[g] for g in target.member_indices)
            ctx_t = CochainContext(self.resolution, Subgroup(self.group, members),
                                   self.module)
            sigma = np.array([position[G.conjugate(int(G.inv[d]), s)]
                              for s in target.member_indices], dtype=np.intp)
            self.pairs.append((d, ctx_t, make_twist(self.group, ctx_t._cosets, sigma)))
        # psi_0 per pair: u . e_0 -> 1, over the identity of F_p
        self._lifts = []
        for _, ctx_t, _ in self.pairs:
            psi0 = np.zeros((self.group.order, len(ctx_t.transversal)), dtype=np.int64)
            psi0[0] = 1
            self._lifts.append([psi0])

    def lifts(self, top: int) -> list[list[np.ndarray]]:
        """psi_0 .. psi_top for every pair, by their free S_t-generator images."""
        for (_, _, twist), psis in zip(self.pairs, self._lifts):
            if len(psis) <= top:
                self.resolution.lift(psis, 0, top, twist)
        return self._lifts

    def condition(self, k: int, i: int) -> np.ndarray:
        """(res_t - c_d res_s) on H^i(P), reduced modulo B^i(S_t): rows per class.

        res_t x is x repeated over S_t's transversal, and c_d res_s x sums
        each column of psi_i over P, weighted by x.
        """
        r = self.resolution.ranks[i]
        _, ctx_t, _ = self.pairs[k]
        res_t = np.repeat(np.eye(r, dtype=np.int64), len(ctx_t.transversal), axis=1)
        c_d = self._lifts[k][i].reshape(r, self.group.order, -1).sum(axis=1)
        reduced, rank = fplinalg.rref_array(ctx_t.coboundaries(i), self.p)
        return fplinalg.residual_rows((res_t - c_d) % self.p, reduced[:rank], self.p)

    def stable(self, i: int) -> np.ndarray:
        """Canonical basis (rows) of the classes of H^i(P) that meet every condition."""
        r = self.resolution.extend_to(max(i, 1)).ranks[i]
        if not (i and r and self.pairs):
            return np.eye(r, dtype=np.int64)
        self.lifts(i)
        rows = [self.condition(k, i) for k in range(len(self.pairs))]
        return fplinalg.kernel(np.hstack(rows).T, self.p)[0].astype(np.int64)
