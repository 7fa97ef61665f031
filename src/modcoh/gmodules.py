"""Finite-dimensional modules over the group algebra F_p[G].

A module stores one invertible dim x dim matrix per group element, indexed
by the group's element order.  Basis conventions for permutation and
induced modules are pinned to coset_representatives order so that rebuilt
modules are entry-identical.
"""

from __future__ import annotations

import numpy as np

from . import fplinalg
from .errors import BadParameters, GroupMismatch, RepresentationError
from .fplinalg import FpSubspace
from .groups import FiniteGroup, Subgroup, coset_representatives


class GModule:
    """Module over F_p[G] given by an action matrix per group element."""

    def __init__(self, group: FiniteGroup, p: int, action, validate=True) -> None:
        self.group = group
        self.p = int(p)
        fplinalg.check_prime_size(self.p)
        arr = np.mod(np.asarray(action, dtype=np.int64), self.p)
        if arr.ndim != 3 or arr.shape[0] != group.order or arr.shape[1] != arr.shape[2]:
            raise BadParameters(f"action tensor has shape {arr.shape}")
        self.action = arr
        self.dim = int(arr.shape[1])
        if validate:
            self.check_representation()

    def check_representation(self) -> None:
        """Identity at 0, and action(g) action(s) = action(gs) for every g and
        every generator s.

        Every element is a word in the group's generators, so induction on
        the length of the word for h gives action(g) action(h) = action(gh)
        for all pairs.  One batched product per generator.
        """
        if not np.array_equal(self.action[0], np.eye(self.dim, dtype=np.int64) % self.p):
            raise RepresentationError("identity does not act as the identity")
        mul = self.group.mul
        for s in self.group.generator_indices:
            prod = np.matmul(self.action, self.action[s]) % self.p
            bad = (prod != self.action[mul[:, s]]).any(axis=(1, 2)).nonzero()[0]
            if bad.size:
                raise RepresentationError(
                    f"representation property fails at g={int(bad[0])}, s={s}")

    def is_trivial(self) -> bool:
        eye = np.eye(self.dim, dtype=np.int64) % self.p
        return all(np.array_equal(self.action[g], eye)
                   for g in range(self.group.order))

    def __repr__(self) -> str:
        return f"GModule({self.group.name}, p={self.p}, dim={self.dim})"


class ModuleHom:
    """Equivariant linear map between two modules over the same group."""

    def __init__(self, source: GModule, target: GModule, matrix) -> None:
        if source.group is not target.group or source.p != target.p:
            raise GroupMismatch("source and target live over different algebras")
        self.source = source
        self.target = target
        self.matrix = np.mod(np.asarray(matrix, dtype=np.int64), source.p)
        if self.matrix.shape != (target.dim, source.dim):
            raise BadParameters("hom matrix has wrong shape")

    def is_equivariant(self) -> bool:
        p = self.source.p
        for g in range(self.source.group.order):
            lhs = (self.matrix @ self.source.action[g]) % p
            rhs = (self.target.action[g] @ self.matrix) % p
            if not np.array_equal(lhs, rhs):
                return False
        return True


def trivial_module(G: FiniteGroup, p: int, dim: int = 1) -> GModule:
    eye = np.eye(dim, dtype=np.int64)
    action = np.broadcast_to(eye, (G.order, dim, dim)).copy()
    return GModule(G, p, action, validate=False)


def regular_module(G: FiniteGroup, p: int) -> GModule:
    """F_p[G] with the left translation action."""
    n = G.order
    action = np.zeros((n, n, n), dtype=np.int64)
    for g in range(n):
        action[g, G.mul[g], np.arange(n)] = 1
    return GModule(G, p, action, validate=False)


def permutation_module(G: FiniteGroup, H: Subgroup, p: int) -> GModule:
    """F_p[G/H]: basis the left cosets in coset_representatives order."""
    reps = coset_representatives(G, H)
    coset_of = {}
    for k, r in enumerate(reps):
        for h in H.member_indices:
            coset_of[int(G.mul[r, h])] = k
    m = len(reps)
    action = np.zeros((G.order, m, m), dtype=np.int64)
    for g in range(G.order):
        for k, r in enumerate(reps):
            action[g, coset_of[int(G.mul[g, r])], k] = 1
    return GModule(G, p, action, validate=False)


def restrict_module(M: GModule, H: Subgroup) -> GModule:
    """Same space, action reindexed by H's own enumeration."""
    if H.parent is not M.group:
        raise GroupMismatch("subgroup of a different group")
    Hgrp = H.as_group()
    embedding = list(H.parent_embedding())
    return GModule(Hgrp, M.p, M.action[embedding], validate=False)


def induce_module(M: GModule, H: Subgroup) -> GModule:
    """Induced module F_p[G] (x)_{F_p[H]} M, cosets in pinned order.

    M must be a module over H.as_group().
    """
    G = H.parent
    if M.group is not H.as_group():
        raise GroupMismatch("module is not over H.as_group()")
    reps = coset_representatives(G, H)
    pos_in_H = {idx: k for k, idx in enumerate(H.parent_embedding())}
    m = len(reps)
    d = M.dim
    dim = m * d
    action = np.zeros((G.order, dim, dim), dtype=np.int64)
    for g in range(G.order):
        for i, t in enumerate(reps):
            gt = int(G.mul[g, t])
            # find the coset of gt and the H-part: gt = t' h
            for j, t2 in enumerate(reps):
                h = int(G.mul[int(G.inv[t2]), gt])
                if h in pos_in_H:
                    action[g, j * d:(j + 1) * d, i * d:(i + 1) * d] = \
                        M.action[pos_in_H[h]]
                    break
    return GModule(G, M.p, action, validate=False)


def dual_module(M: GModule) -> GModule:
    """Contragredient: g acts by the transpose of action(g^{-1})."""
    inv = M.group.inv
    action = np.transpose(M.action[inv], (0, 2, 1))
    return GModule(M.group, M.p, action, validate=False)


def tensor_module(M: GModule, N: GModule) -> GModule:
    """Tensor over F_p with the diagonal action (Kronecker blocks)."""
    if M.group is not N.group or M.p != N.p:
        raise GroupMismatch("tensor factors over different algebras")
    n = M.group.order
    dim = M.dim * N.dim
    action = np.zeros((n, dim, dim), dtype=np.int64)
    for g in range(n):
        action[g] = np.kron(M.action[g], N.action[g]) % M.p
    return GModule(M.group, M.p, action, validate=False)


def direct_sum(M: GModule, N: GModule) -> GModule:
    if M.group is not N.group or M.p != N.p:
        raise GroupMismatch("summands over different algebras")
    n = M.group.order
    dim = M.dim + N.dim
    action = np.zeros((n, dim, dim), dtype=np.int64)
    action[:, :M.dim, :M.dim] = M.action
    action[:, M.dim:, M.dim:] = N.action
    return GModule(M.group, M.p, action, validate=False)


def invariants(M: GModule) -> FpSubspace:
    """Fixed subspace M^G, the kernel of the stacked (action(g) - 1)."""
    eye = np.eye(M.dim, dtype=np.int64)
    stacked = np.vstack([M.action[g] - eye for g in range(M.group.order)])
    basis = fplinalg.kernel_array(stacked, M.p)
    return FpSubspace(M.p, M.dim, basis)


def coinvariants(M: GModule) -> int:
    """dim M/IM where I is the augmentation ideal."""
    eye = np.eye(M.dim, dtype=np.int64)
    stacked = np.hstack([M.action[g] - eye for g in range(M.group.order)])
    _, r = fplinalg.rref_array(stacked, M.p)
    return M.dim - r


def coinvariant_coordinates(M: GModule):
    """Rows spanning IM (RREF) for reuse by generator-selection loops."""
    eye = np.eye(M.dim, dtype=np.int64)
    stacked = np.vstack([(M.action[g] - eye).T for g in range(M.group.order)])
    reduced, r = fplinalg.rref_array(stacked, M.p)
    return reduced[:r]


def module_from_generator_matrices(G: FiniteGroup, p: int, dim: int, mats) -> GModule:
    """Build a module from one matrix per group generator.

    The full action table is completed by word evaluation along the BFS
    spanning tree and then checked as a representation; failure is a hard
    error.
    """
    mats = [np.mod(np.asarray(m, dtype=np.int64), p) for m in mats]
    if len(mats) != len(G.generator_indices):
        raise BadParameters(
            f"need {len(G.generator_indices)} matrices, got {len(mats)}")
    for m in mats:
        if m.shape != (dim, dim):
            raise BadParameters(f"matrix shape {m.shape} != ({dim}, {dim})")
    action = np.full((G.order, dim, dim), -1, dtype=np.int64)
    action[0] = np.eye(dim, dtype=np.int64)
    gen_of = dict(zip(G.generator_indices, mats))
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for s, mat in gen_of.items():
                y = int(G.mul[x, s])
                if action[y, 0, 0] < 0:
                    action[y] = (action[x] @ mat) % p
                    nxt.append(y)
        frontier = nxt
    return GModule(G, p, action)
