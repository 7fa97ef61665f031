"""Oracles for group constructions, kept from the algorithms they replaced.

`Subgroup.as_group` builds its group from its members' image rows, with
generators picked by growing closures in the parent's table, and so checks
every entry of its table against the composed images.  `subgroup_table` is
the construction it replaced: the parent's table restricted to the members,
its inverses, and generators grown by closures on that sub-table.
`greedy_generators` is the scan before that: it closes each candidate
generating set with Python `Permutation` products and never reads a table.

`groups.subgroup_closure` grows the words in its seeds with `_closure`.
`subgroup_closure` here is the worklist it replaced, which multiplies each
new element by every member found so far, on both sides.

`groups.maximal_subgroups` reads the kernels of Hom(P, F_p), and
`frattini_from_homs` their intersection.  `maximal_subgroups` and
`frattini_subgroup` here are the earlier construction: the Frattini subgroup
as the closure of p-th powers and commutators, and the maximal subgroups as
preimages of the hyperplanes of hand-built F_p coordinates on P / Phi(P).

The predicates on groups and subgroups that only tests ask (`is_abelian`,
`is_elementary_abelian`, `is_normal`, `conjugate`, `element_index`) and
`make_direct_product`, which builds test groups, are functions here.
"""

from __future__ import annotations

import numpy as np

from modcoh.errors import BadParameters
from modcoh.groups import (
    FiniteGroup,
    Permutation,
    Subgroup,
    _closure,
    coset_representatives,
    generate_group,
    homs_to_fp,
    prime_factors,
    require_prime,
)


def element_index(G: FiniteGroup, perm: Permutation) -> int:
    """The index of perm among G's elements."""
    if perm not in G.elements:
        raise BadParameters(f"{perm.images} is not an element of {G.name}")
    return G.elements.index(perm)


def conjugate(G: FiniteGroup, g: int, x: int) -> int:
    """g x g^{-1} as element indices."""
    return int(G.mul[G.mul[g, x], G.inv[g]])


def is_abelian(H) -> bool:
    """Whether the elements of a FiniteGroup, or a Subgroup's members, commute."""
    if isinstance(H, Subgroup):
        block = H.parent.mul[np.ix_(H.member_indices, H.member_indices)]
    else:
        block = H.mul
    return bool(np.array_equal(block, block.T))


def is_elementary_abelian(G: FiniteGroup, p: int) -> bool:
    """Nontrivial, abelian and of exponent p."""
    return G.order > 1 and is_abelian(G) and all(
        G.element_order(g) == p for g in range(1, G.order))


def is_normal(S: Subgroup) -> bool:
    """Whether every conjugate of every member of S lies in S."""
    G = S.parent
    return all(conjugate(G, g, x) in S
               for g in range(G.order) for x in S.member_indices)


def frattini_from_homs(G: FiniteGroup, p: int) -> Subgroup:
    """Frattini subgroup of a p-group: the intersection of its maximal
    subgroups, so the elements that every homomorphism G -> F_p kills."""
    if not G.is_p_group(require_prime(p)):
        raise BadParameters(f"{G.name} is not a {p}-group")
    return Subgroup(G, (~homs_to_fp(G, p).any(axis=0)).nonzero()[0])


def make_direct_product(A: FiniteGroup, B: FiniteGroup, name=None) -> FiniteGroup:
    """A x B on the disjoint union of the two point sets."""
    degree = A.degree + B.degree
    gens = []
    for i in A.generator_indices:
        imgs = A.elements[i].images + tuple(range(A.degree, degree))
        gens.append(Permutation(imgs))
    for i in B.generator_indices:
        imgs = tuple(range(A.degree)) + tuple(x + A.degree
                                              for x in B.elements[i].images)
        gens.append(Permutation(imgs))
    return generate_group(degree, gens,
                          name=name or f"{A.name}x{B.name}")


def closure_images(identity, gens) -> set[tuple[int, ...]]:
    """Images of every word in gens, grown breadth first from the identity."""
    frontier = [identity]
    seen = {identity.images}
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = x * s
                if y.images not in seen:
                    seen.add(y.images)
                    nxt.append(y)
        frontier = nxt
    return seen


def greedy_generators(elements) -> tuple[int, ...]:
    """Small generating set: scan elements, keep those enlarging the closure."""
    chosen: list[int] = []
    closure = {elements[0].images}
    for i, e in enumerate(elements[1:], start=1):
        if e.images in closure:
            continue
        chosen.append(i)
        closure = closure_images(elements[0], [elements[j] for j in chosen])
        if len(closure) == len(elements):
            break
    return tuple(chosen) if chosen else (0,)


def subgroup_table(S: Subgroup) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The multiplication table, inverses and generator indices of S as a
    standalone group, read off the parent's table: entry (a, b) is the
    position among S's members of the product of its a-th and b-th."""
    G = S.parent
    members = np.array(S.member_indices)
    pos = np.full(G.order, -1, dtype=np.int32)
    pos[members] = np.arange(S.order)
    table = pos[G.mul[np.ix_(members, members)]]
    if (table < 0).any():
        raise BadParameters("members are not closed under product")
    chosen: list[int] = []
    reached = np.arange(S.order) == 0
    for i in range(1, S.order):
        if not reached[i]:
            chosen.append(i)
            if _closure(table, chosen, reached).all():
                break
    return table, (table == 0).argmax(axis=1), tuple(chosen) or (0,)


def subgroup_closure(G: FiniteGroup, seeds) -> Subgroup:
    """Smallest subgroup of G containing the seed element indices."""
    seeds = [int(s) for s in seeds]
    for s in seeds:
        if s < 0 or s >= G.order:
            raise BadParameters(f"seed {s} out of range")
    members = {0}
    work = list(seeds)
    while work:
        x = work.pop()
        if x in members:
            continue
        members.add(x)
        for m in list(members):
            for c in (int(G.mul[x, m]), int(G.mul[m, x])):
                if c not in members:
                    work.append(c)
    return Subgroup(G, members)


def frattini_subgroup(G: FiniteGroup, p: int) -> Subgroup:
    """Closure of p-th powers and commutators (p-group Frattini subgroup)."""
    seeds = set()
    for a in range(G.order):
        pw = 0
        for _ in range(p):
            pw = int(G.mul[pw, a])
        seeds.add(pw)  # a^p
        for b in range(G.order):
            comm = G.mul[G.mul[a, b], G.mul[int(G.inv[a]), int(G.inv[b])]]
            seeds.add(int(comm))
    return subgroup_closure(G, seeds)


def maximal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Index-p subgroups of a p-group, via hyperplanes of the Frattini quotient."""
    primes = prime_factors(G.order)
    if not primes:
        raise BadParameters("trivial group has no maximal subgroups")
    if len(primes) > 1:
        raise BadParameters(f"{G.name} is not a p-group")
    p = primes[0]
    phi = frattini_subgroup(G, p)
    phi_members = list(phi.member_indices)

    def coset_id(g: int) -> int:
        return int(np.min(G.mul[g, phi_members]))

    # F_p coordinates on the elementary abelian quotient G/phi.
    coords: dict[int, tuple[int, ...]] = {0: ()}
    chosen: list[int] = []
    for g in coset_representatives(G, phi):
        if coset_id(g) in coords:
            continue
        chosen.append(g)
        new_coords: dict[int, tuple[int, ...]] = {}
        for cid, vec in coords.items():
            cur = cid
            for e in range(p):
                new_coords[coset_id(cur)] = vec + (e,)
                cur = int(G.mul[cur, g])
        coords = new_coords
    k = len(chosen)
    maximals = []
    for functional in _hyperplane_functionals(p, k):
        members: set[int] = set()
        for cid, vec in coords.items():
            if sum(f * v for f, v in zip(functional, vec)) % p == 0:
                members.update(int(x) for x in G.mul[cid, phi_members])
        maximals.append(Subgroup(G, members))
    uniq = {S.member_indices: S for S in maximals}
    return sorted(uniq.values(), key=lambda s: s.member_indices)


def _hyperplane_functionals(p, k):
    """One functional per hyperplane of F_p^k (first nonzero coord = 1)."""
    from itertools import product as iproduct
    seen = set()
    for vec in iproduct(range(p), repeat=k):
        if all(v == 0 for v in vec):
            continue
        lead = next(v for v in vec if v)
        inv = pow(lead, p - 2, p)
        canon = tuple((v * inv) % p for v in vec)
        if canon not in seen:
            seen.add(canon)
            yield canon
