"""Finite permutation groups with full element enumeration.

Groups are stored as an explicit ordered element list plus a complete
multiplication table; all downstream homological algebra indexes free
modules by group elements, so the enumeration order is pinned: breadth
first over generator words, extending words on the right, scanning known
elements and generators in index order.  The identity is always index 0.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, GroupTooLarge, NonPermutation
from .fplinalg import check_prime_size

DEFAULT_SIZE_CAP = 2000


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n in ascending order (empty for n < 2)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def require_prime(p: int) -> int:
    """p itself, or BadParameters when p is not a prime (PrimeTooLarge above MAX_PRIME)."""
    check_prime_size(p)  # before trial division, which is O(sqrt p)
    if prime_factors(p) != [p]:
        raise BadParameters(f"p = {p} is not a prime")
    return p


def is_p_power(n: int, p: int) -> bool:
    """Whether n >= 1 is a power of the prime p (p^0 = 1 included)."""
    return prime_factors(n) in ([], [p])


@dataclass(frozen=True)
class Permutation:
    """Bijection of [0, n), stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise NonPermutation(f"images {self.images} are not a bijection")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(x) = self(other(x))
        if other.degree != self.degree:
            raise NonPermutation("degrees differ")
        return Permutation(tuple(self.images[i] for i in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def from_cycles(n: int, cycles) -> "Permutation":
        images = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                images[a] = b
        return Permutation(tuple(images))


class FiniteGroup:
    """Fully enumerated permutation group with a multiplication table."""

    def __init__(self, degree, elements, generator_indices, name="G",
                 mul_table=None):
        self.degree = int(degree)
        self.elements: tuple[Permutation, ...] = tuple(elements)
        self.generator_indices: tuple[int, ...] = tuple(generator_indices)
        self.name = str(name)
        self._index = {e.images: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise BadParameters("duplicate elements")
        if self.elements[0].images != tuple(range(self.degree)):
            raise BadParameters("element 0 must be the identity")
        if mul_table is None:
            mul_table = self._build_mul_table()
        self.mul = np.asarray(mul_table, dtype=np.int32)
        is_identity = self.mul == 0
        if (is_identity.sum(axis=1) != 1).any():
            raise BadParameters("multiplication table is not a group table")
        self.inv = is_identity.argmax(axis=1).astype(np.int32)
        self._orders: np.ndarray | None = None
        self._cache: dict = {}
        # GModule.check_representation tests only the generators, so they
        # must generate: grow the set of words in them until it stops.
        reached = np.zeros(self.order, dtype=bool)
        reached[0] = True
        frontier = np.zeros(1, dtype=np.intp)
        while frontier.size:
            fresh = np.zeros(self.order, dtype=bool)
            fresh[self.mul[frontier][:, self.generator_indices]] = True
            frontier = (fresh & ~reached).nonzero()[0]
            reached |= fresh
        if not reached.all():
            raise BadParameters("generator_indices do not generate the group")

    def _build_mul_table(self) -> np.ndarray:
        n, d = len(self.elements), self.degree
        if d == 0:  # only the empty permutation: the trivial group
            return np.zeros((n, n), dtype=np.int32)
        imgs = np.array([e.images for e in self.elements], dtype=np.int32)
        # Each image row as one opaque key: exact at any degree, where an
        # integer mixed-radix key would overflow int64.
        key = np.dtype((np.void, imgs.itemsize * d))
        keys = imgs.view(key).ravel()
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        table = np.empty((n, n), dtype=np.int32)
        block = max(1, (1 << 20) // (n * d))  # rows composed at once
        for start in range(0, n, block):
            # composed[i, j] = elements[start + i] * elements[j]
            composed = imgs[start:start + block][:, imgs]
            flat = composed.reshape(-1, d).view(key).ravel()
            pos = np.searchsorted(sorted_keys, flat)
            idx = order[np.minimum(pos, n - 1)].reshape(composed.shape[:2])
            if not np.array_equal(imgs[idx], composed):
                raise BadParameters("elements are not closed under product")
            table[start:start + block] = idx
        return table

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_index(self, perm: Permutation) -> int:
        idx = self._index.get(perm.images)
        if idx is None:
            raise BadParameters(f"{perm.images} is not an element of {self.name}")
        return idx

    def element_order(self, i: int) -> int:
        if self._orders is None:
            orders = np.empty(self.order, dtype=np.int32)
            for j in range(self.order):
                k, cur = 1, j
                while cur != 0:
                    cur = int(self.mul[cur, j])
                    k += 1
                orders[j] = k
            self._orders = orders
        return int(self._orders[i])

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def is_p_group(self, p: int) -> bool:
        return is_p_power(self.order, p)

    def is_elementary_abelian(self, p: int) -> bool:
        """Nontrivial, abelian and of exponent p."""
        return self.order > 1 and self.is_abelian() and all(
            self.element_order(g) == p for g in range(1, self.order))

    def conjugate(self, g: int, x: int) -> int:
        """g x g^{-1} as element indices."""
        return int(self.mul[self.mul[g, x], self.inv[g]])

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order}, degree={self.degree})"


# Groups whose memo tables may hold entries.  Weak, so it keeps none alive.
_CACHING: "weakref.WeakSet[FiniteGroup]" = weakref.WeakSet()


def group_cache(G: FiniteGroup) -> dict:
    """G's memo table: resolutions, coefficient modules, cochain contexts
    and Sylow-local data, keyed by what they depend on besides G.

    Its entries reference G, so they live on G, not in a module-level
    table: a dropped group takes them with it, and no id() key can serve
    one group's results to another.
    """
    _CACHING.add(G)
    return G._cache


def clear_group_caches() -> None:
    """Empty the memo table of every group."""
    while _CACHING:
        _CACHING.pop()._cache.clear()


def generate_group(degree, generators, name="G", cap=DEFAULT_SIZE_CAP) -> FiniteGroup:
    """Enumerate the closure of the generators under composition.

    Deterministic BFS: known elements are scanned in discovery order, each
    extended on the right by the generators in input order.
    """
    gens = list(generators)
    for g in gens:
        if not isinstance(g, Permutation):
            g = Permutation(tuple(g))
        if g.degree != degree:
            raise NonPermutation(f"generator degree {g.degree} != {degree}")
    gens = [g if isinstance(g, Permutation) else Permutation(tuple(g)) for g in gens]
    identity = Permutation.identity(degree)
    elements = [identity]
    seen = {identity.images: 0}
    frontier = [identity]
    while frontier:
        next_frontier = []
        for x in frontier:
            for s in gens:
                y = x * s
                if y.images not in seen:
                    if len(elements) >= cap:
                        raise GroupTooLarge(
                            f"closure exceeds size cap {cap}")
                    seen[y.images] = len(elements)
                    elements.append(y)
                    next_frontier.append(y)
        frontier = next_frontier
    generator_indices = tuple(seen[g.images] for g in gens)
    return FiniteGroup(degree, elements, generator_indices, name=name)


def from_elements(degree, perms, name="G") -> FiniteGroup:
    """Group from an explicit closed element set (identity forced first)."""
    perms = sorted(set(perms), key=lambda q: q.images)
    identity = Permutation.identity(degree)
    if identity not in perms:
        raise BadParameters("element set lacks the identity")
    perms.remove(identity)
    elements = [identity] + perms
    gen_idx = _greedy_generators(elements)
    return FiniteGroup(degree, elements, gen_idx, name=name)


def _greedy_generators(elements) -> tuple[int, ...]:
    """Small generating set: scan elements, keep those enlarging the closure."""
    index = {e.images: i for i, e in enumerate(elements)}
    chosen: list[int] = []
    closure = {elements[0].images}
    for i, e in enumerate(elements[1:], start=1):
        if e.images in closure:
            continue
        chosen.append(i)
        closure = _closure_images(elements, index, [elements[j] for j in chosen])
        if len(closure) == len(elements):
            break
    return tuple(chosen) if chosen else (0,)


def _closure_images(elements, index, gens):
    frontier = [elements[0]]
    seen = {elements[0].images}
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


class Subgroup:
    """Subgroup of a FiniteGroup, held as a sorted set of element indices."""

    def __init__(self, parent: FiniteGroup, member_indices) -> None:
        self.parent = parent
        self.member_indices: tuple[int, ...] = tuple(sorted(set(int(i) for i in member_indices)))
        if 0 not in self.member_indices:
            raise BadParameters("subgroup must contain the identity")
        self._member_set = frozenset(self.member_indices)
        self._as_group: FiniteGroup | None = None

    @property
    def order(self) -> int:
        return len(self.member_indices)

    def __contains__(self, idx: int) -> bool:
        return int(idx) in self._member_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent is other.parent and self.member_indices == other.member_indices

    def __hash__(self) -> int:
        return hash((id(self.parent), self.member_indices))

    def is_abelian(self) -> bool:
        mul = self.parent.mul
        mem = self.member_indices
        return all(mul[a, b] == mul[b, a] for a in mem for b in mem)

    def is_normal(self) -> bool:
        G = self.parent
        return all(G.conjugate(g, x) in self._member_set
                   for g in range(G.order) for x in self.member_indices)

    def as_group(self) -> FiniteGroup:
        """The subgroup re-enumerated as a standalone group.

        Elements keep their parent-index order (identity stays first); the
        parent indices are recoverable through parent_embedding().
        """
        if self._as_group is None:
            G = self.parent
            perms = [G.elements[i] for i in self.member_indices]
            pos = {idx: k for k, idx in enumerate(self.member_indices)}
            table = [[pos[int(G.mul[a, b])] for b in self.member_indices]
                     for a in self.member_indices]
            gens = _greedy_generators(perms)
            self._as_group = FiniteGroup(
                G.degree, perms, gens,
                name=f"{G.name}:sub{self.order}", mul_table=table)
        return self._as_group

    def parent_embedding(self) -> tuple[int, ...]:
        """parent index of each as_group element, in as_group order."""
        return self.member_indices

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


def whole_group(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, range(G.order))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, [0])


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


def center(G: FiniteGroup) -> Subgroup:
    mul = G.mul
    members = [g for g in range(G.order) if np.array_equal(mul[g], mul[:, g])]
    return Subgroup(G, members)


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    mem = H._member_set
    members = [g for g in range(G.order)
               if all(G.conjugate(g, x) in mem for x in H.member_indices)]
    return Subgroup(G, members)


def conjugate_subgroup(G: FiniteGroup, H: Subgroup, g: int) -> Subgroup:
    return Subgroup(G, [G.conjugate(g, x) for x in H.member_indices])


def intersect(H: Subgroup, K: Subgroup) -> Subgroup:
    if H.parent is not K.parent:
        raise BadParameters("subgroups of different parents")
    return Subgroup(H.parent, set(H.member_indices) & set(K.member_indices))


def sylow(G: FiniteGroup, p: int) -> Subgroup:
    """A deterministic Sylow p-subgroup.

    Grown from the least-index p-element by normalizer steps, always
    absorbing the least-index usable element, so repeated calls agree.
    """
    # the p-part of |G|: p^k exceeds |G| once k is its bit length
    target = math.gcd(G.order, p ** G.order.bit_length())
    if target == 1:
        return trivial_subgroup(G)
    if target == G.order:
        return whole_group(G)
    start = next(g for g in range(1, G.order)
                 if is_p_power(G.element_order(g), p))
    S = subgroup_closure(G, [start])
    while S.order < target:
        N = normalizer(G, S)
        grown = False
        for y in N.member_indices:
            if y in S or not is_p_power(G.element_order(y), p):
                continue
            T = subgroup_closure(G, list(S.member_indices) + [y])
            if is_p_power(T.order, p) and T.order > S.order:
                S = T
                grown = True
                break
        if not grown:
            raise BadParameters("sylow growth stalled")  # unreachable on groups
    return S


def elementary_abelian_subgroups(G: FiniteGroup, p: int) -> list[Subgroup]:
    """All subgroups isomorphic to (Z/p)^k, k >= 1, each listed once."""
    order_p = [g for g in range(1, G.order) if G.element_order(g) == p]
    found: dict[tuple[int, ...], Subgroup] = {}
    frontier: list[Subgroup] = []
    for g in order_p:
        S = subgroup_closure(G, [g])
        if S.member_indices not in found:
            found[S.member_indices] = S
            frontier.append(S)
    while frontier:
        nxt = []
        for S in frontier:
            for y in order_p:
                if y in S:
                    continue
                if not all(G.mul[y, x] == G.mul[x, y] for x in S.member_indices):
                    continue
                T = subgroup_closure(G, list(S.member_indices) + [y])
                if T.order != S.order * p:
                    continue
                if T.member_indices not in found:
                    found[T.member_indices] = T
                    nxt.append(T)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.member_indices))


def p_rank(G: FiniteGroup, p: int) -> int:
    subs = elementary_abelian_subgroups(G, p)
    if not subs:
        return 0
    best = max(s.order for s in subs)
    k = 0
    while best > 1:
        best //= p
        k += 1
    return k


def coset_representatives(G: FiniteGroup, H: Subgroup, right: bool = False) -> list[int]:
    """Least-index representatives of the left cosets gH (right: Hg), in scan order."""
    reps = []
    covered = np.zeros(G.order, dtype=bool)
    members = list(H.member_indices)
    for g in range(G.order):
        if covered[g]:
            continue
        reps.append(g)
        covered[G.mul[members, g] if right else G.mul[g, members]] = True
    return reps


@dataclass(frozen=True)
class DoubleCosetDecomposition:
    reps: tuple[int, ...]
    blocks: tuple[frozenset[int], ...]


def double_cosets(G: FiniteGroup, H: Subgroup, K: Subgroup) -> DoubleCosetDecomposition:
    """Partition of G into double cosets HgK with least-index representatives."""
    reps: list[int] = []
    blocks: list[frozenset[int]] = []
    covered = np.zeros(G.order, dtype=bool)
    hk_members = (list(H.member_indices), list(K.member_indices))
    for g in range(G.order):
        if covered[g]:
            continue
        hg = G.mul[hk_members[0], g]
        block = np.unique(G.mul[np.ix_(hg, hk_members[1])])
        covered[block] = True
        reps.append(g)
        blocks.append(frozenset(int(x) for x in block))
    return DoubleCosetDecomposition(tuple(reps), tuple(blocks))


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
