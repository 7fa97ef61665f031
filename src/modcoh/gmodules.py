"""Finite-dimensional modules over the group algebra F_p[G].

A module stores one invertible dim x dim matrix per group element, indexed
by the group's element order.  Basis conventions for induced modules, of
which regular and permutation modules are the trivial ones, are pinned to
coset_representatives order so that rebuilt modules are entry-identical.
"""

from __future__ import annotations

import numpy as np

from . import fplinalg
from .errors import BadParameters, GroupMismatch, RepresentationError
from .fplinalg import FpSubspace
from .groups import (
    FiniteGroup,
    Subgroup,
    coset_representatives,
    extend_from_generators,
    require_prime,
    trivial_subgroup,
)


class GModule:
    """Module over F_p[G] given by an action matrix per group element."""

    def __init__(self, group: FiniteGroup, p: int, action, validate=True) -> None:
        """validate=False is for builders whose action is already reduced
        mod p: it is kept as it is, neither reduced nor checked."""
        self.group = group
        self.p = require_prime(int(p))
        arr = np.asarray(action, dtype=np.int64)
        if validate:
            arr = np.mod(arr, self.p)
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


def trivial_module(G: FiniteGroup, p: int, dim: int = 1) -> GModule:
    eye = np.eye(dim, dtype=np.int64)
    action = np.broadcast_to(eye, (G.order, dim, dim)).copy()
    return GModule(G, p, action, validate=False)


def regular_module(G: FiniteGroup, p: int) -> GModule:
    """F_p[G] with the left translation action."""
    return permutation_module(G, trivial_subgroup(G), p)


def permutation_module(G: FiniteGroup, H: Subgroup, p: int) -> GModule:
    """F_p[G/H]: basis the left cosets in coset_representatives order."""
    return induce_module(trivial_module(H.as_group(), p), H)


def restrict_module(M: GModule, H: Subgroup) -> GModule:
    """Same space, action reindexed by H's own enumeration."""
    if H.parent is not M.group:
        raise GroupMismatch("subgroup of a different group")
    Hgrp = H.as_group()
    embedding = list(H.member_indices)
    return GModule(Hgrp, M.p, M.action[embedding], validate=False)


def induce_module(M: GModule, H: Subgroup) -> GModule:
    """Induced module F_p[G] (x)_{F_p[H]} M, cosets in pinned order.

    M must be a module over H.as_group().  With t_i the coset
    representatives, g t_i = t_j h for one j and one h in H, and g sends
    block i to block j by the action of h.
    """
    G = H.parent
    if M.group is not H.as_group():
        raise GroupMismatch("module is not over H.as_group()")
    reps = coset_representatives(G, H)
    m, d = len(reps), M.dim
    # t_j h, for h the k-th member of H, lies in coset j at H-position k
    coset, position = np.empty((2, G.order), dtype=np.intp)
    cosets = G.mul[np.ix_(reps, H.member_indices)]
    coset[cosets] = np.arange(m)[:, None]
    position[cosets] = np.arange(H.order)
    moved = G.mul[:, reps]  # moved[g, i] = g t_i
    action = np.zeros((G.order, m, d, m, d), dtype=np.int64)
    action[np.arange(G.order)[:, None], coset[moved], :, np.arange(m), :] = \
        M.action[position[moved]]
    return GModule(G, M.p, action.reshape(G.order, m * d, m * d), validate=False)


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
    """Fixed subspace M^G: a vector fixed by the generators is fixed by G."""
    gens = np.asarray(M.group.generator_indices, dtype=np.intp)
    return fixed_space(M.action[gens], M.p)


def fixed_space(mats: np.ndarray, p: int) -> FpSubspace:
    """The vectors that every matrix of the stack fixes: the kernel of the
    stacked (mats[s] - 1), built in one copy of mats."""
    stacked = np.array(mats, dtype=np.int64)
    dim = stacked.shape[-1]
    stacked[:, np.arange(dim), np.arange(dim)] -= 1
    basis, pivots, _ = fplinalg.kernel(stacked.reshape(-1, dim), p)
    return FpSubspace.from_rref(p, basis, pivots)


def radical_rows(M: GModule) -> np.ndarray:
    """Rows (action(s) - 1) e_i, in (s, i) order, for the generators s: they
    span I . M, I the augmentation ideal, as (gs - 1) = (g - 1) s + (s - 1)."""
    gens = np.asarray(M.group.generator_indices, dtype=np.intp)
    radical = M.action[gens] - np.eye(M.dim, dtype=np.int64)
    return radical.transpose(0, 2, 1).reshape(len(gens) * M.dim, M.dim) % M.p


def module_from_generator_matrices(G: FiniteGroup, p: int, dim: int, mats) -> GModule:
    """Build a module from one matrix per group generator.

    The matrices are multiplied along a word for each element
    (`extend_from_generators`) and the result is checked as a
    representation, as is each generator's matrix against its action:
    failure is a hard error, as is a p that is not a prime.
    """
    require_prime(p)
    mats = [np.mod(np.asarray(m, dtype=np.int64), p) for m in mats]
    if len(mats) != len(G.generator_indices):
        raise BadParameters(
            f"need {len(G.generator_indices)} matrices, got {len(mats)}")
    for m in mats:
        if m.shape != (dim, dim):
            raise BadParameters(f"matrix shape {m.shape} != ({dim}, {dim})")
    action = np.array(extend_from_generators(
        G, np.eye(dim, dtype=np.int64), mats, lambda a, b: a @ b % p))
    for s, m in zip(G.generator_indices, mats):
        if not np.array_equal(action[s], m):
            raise RepresentationError(f"generator {s} is given two different matrices")
    return GModule(G, p, action)
