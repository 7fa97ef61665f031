"""Finite permutation groups with full element enumeration.

A group is its elements' permutation images, one row per element, plus
its complete multiplication table, and `FiniteGroup` is built one way, from
those rows.  All downstream homological algebra indexes free modules by
group elements, so the enumeration order is pinned: breadth first over
generator words, extending words on the right, scanning known elements and
generators in index order.  The identity is always index 0.  A subgroup
built as a group keeps its members' rows in the parent's order.

The table is read off the Cayley graph of the generators, not found by
composing and searching all |G|^2 pairs.  One dict lookup per element x
and generator s gives the index of s x; since (s x) y = s (x y), the row of
s x is the row of x mapped through left multiplication by s, so a
breadth-first search from the identity fills each row in place from its
parent's row.  Every entry is still checked against the composed images,
and an element list that is not closed under product is refused.

A homomorphism out of G is fixed by its values on the generators, and
`extend_from_generators` is the one walk that extends them along words.
Hom(G, F_p) = H^1(G; F_p) is one kernel on the generators (`homs_to_fp`),
which gives the maximal subgroups of a p-group.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, GroupTooLarge, NonPermutation
from .fplinalg import check_prime_size, kernel

DEFAULT_SIZE_CAP = 2000
_BLOCK = 1 << 16  # entries a blockwise pass over a table holds at once


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
    """Fully enumerated permutation group: its elements' image rows and
    their multiplication table, checked entry by entry against the rows."""

    def __init__(self, degree, images, generator_indices, name="G"):
        self.degree = int(degree)
        rows = np.asarray(images)
        if rows.shape[1:] != (self.degree,):
            raise NonPermutation(f"image rows must have {self.degree} entries")
        if (np.sort(rows, axis=1) != np.arange(self.degree)).any():
            raise NonPermutation("an image row is not a bijection")
        self.images = rows.astype(np.int32)
        self.generator_indices: tuple[int, ...] = tuple(generator_indices)
        self.name = str(name)
        index = {row: i for i, row in enumerate(map(tuple, self.images.tolist()))}
        if len(index) != self.order:
            raise BadParameters("duplicate elements")
        if self.order == 0 or (self.images[0] != np.arange(self.degree)).any():
            raise BadParameters("element 0 must be the identity")
        # _cayley_table also checks that the generators generate:
        # GModule.check_representation tests only the generators.
        self.mul = _cayley_table(self.images, index, self.generator_indices)
        # each row of a checked table is a permutation of 0 .. |G| - 1
        self.inv = self.mul.argmin(axis=1).astype(np.int32)
        self._orders: np.ndarray | None = None
        self._cache: dict = {}

    @functools.cached_property
    def elements(self) -> tuple[Permutation, ...]:
        return tuple(Permutation(row) for row in map(tuple, self.images.tolist()))

    @property
    def order(self) -> int:
        return len(self.images)

    def element_order(self, i: int) -> int:
        if self._orders is None:
            # powers[j] = j^k: j has order k at the first k where it is 1
            every = np.arange(self.order)
            orders = np.zeros(self.order, dtype=np.int32)
            powers, k = every, 1
            while not orders.all():
                orders[(powers == 0) & (orders == 0)] = k
                powers, k = self.mul[powers, every], k + 1
            self._orders = orders
        return int(self._orders[i])

    def is_p_group(self, p: int) -> bool:
        return is_p_power(self.order, p)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order}, degree={self.degree})"


def _cayley_table(imgs: np.ndarray, index: dict, gens) -> np.ndarray:
    """Multiplication table of the elements with image rows imgs, read off
    the left Cayley graph of gens (module docstring): left[k, x] = s_k x."""
    n, d = imgs.shape
    left = np.empty((len(gens), n), dtype=np.int32)
    for k, s in enumerate(gens):
        products = [index.get(t) for t in map(tuple, imgs[s][imgs].tolist())]
        if None in products:
            raise BadParameters("elements are not closed under product")
        left[k] = products
    # Every index is in range, so mode="clip" only spares numpy the buffered
    # copy it makes for out= otherwise.
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n)
    queue, reached = [0], {0}
    for x in queue:  # the queue grows behind the scan
        for k, sx in enumerate(left[:, x].tolist()):
            if sx not in reached:
                reached.add(sx)
                queue.append(sx)
                left[k].take(table[x], out=table[sx], mode="clip")
    if len(queue) < n:
        raise BadParameters("generator_indices do not generate the group")
    # Buffers reused across blocks: malloc would map and unmap fresh ones.
    step = max(1, min(n, _BLOCK // max(1, n * d)))
    composed, found = np.empty((2, step, n, d), dtype=imgs.dtype)
    same = np.empty((step, n, d), dtype=bool)
    for start in range(0, n, step):
        k = min(step, n - start)
        imgs[start:start + k].take(imgs, axis=1, out=composed[:k], mode="clip")
        imgs.take(table[start:start + k], axis=0, out=found[:k], mode="clip")
        if not np.equal(found[:k], composed[:k], out=same[:k]).all():
            raise BadParameters("elements are not closed under product")
    return table


def _closure(mul: np.ndarray, gens, reached: np.ndarray) -> np.ndarray:
    """reached, grown in place by right multiplication by gens until it stops."""
    by_gens = mul.take(gens, axis=1)  # by_gens[x, k] = x . gens[k]
    frontier = reached.nonzero()[0]
    while frontier.size:
        fresh = np.zeros(len(reached), dtype=bool)
        fresh.put(by_gens.take(frontier, axis=0), True)
        frontier = (fresh > reached).nonzero()[0]  # fresh and not reached
        reached |= fresh
    return reached


def extend_from_generators(G: FiniteGroup, identity, images, compose) -> list:
    """The map f on G's elements with f(1) = identity and f(s_k) = images[k]
    for the k-th generator s_k, extended along words: a breadth-first walk
    of the right Cayley graph sets f(x s_k) = compose(f(x), images[k]) where
    it first reaches x s_k.

    f depends on the words the walk picks.  Only when every edge agrees is
    it a homomorphism, with f(s_k) = images[k] also for a generator listed
    twice or for the identity; callers check that.
    """
    f = [None] * G.order
    f[0] = identity
    queue = [0]
    gens = list(G.generator_indices)
    for x in queue:  # the queue grows behind the scan
        for y, image in zip(G.mul[x, gens].tolist(), images):
            if f[y] is None:
                f[y] = compose(f[x], image)
                queue.append(y)
    return f


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


def _memo(G: FiniteGroup, key, build):
    """G's memo entry for key, made by build() at its first use."""
    cache = group_cache(G)
    if key not in cache:
        cache[key] = build()
    return cache[key]


def clear_group_caches() -> None:
    """Empty the memo table of every group."""
    while _CACHING:
        _CACHING.pop()._cache.clear()


def generate_group(degree, generators, name="G", cap=DEFAULT_SIZE_CAP) -> FiniteGroup:
    """Enumerate the closure of the generators under composition.

    Deterministic BFS: known elements are scanned in discovery order, each
    extended on the right by the generators in input order.
    """
    gens = []
    for g in generators:
        g = g if isinstance(g, Permutation) else Permutation(tuple(g))
        if g.degree != degree:
            raise NonPermutation(f"generator degree {g.degree} != {degree}")
        gens.append(g)
    gen_imgs = np.array([g.images for g in gens], dtype=np.intp).reshape(len(gens), degree)
    identity = tuple(range(degree))
    index = {identity: 0}  # images -> index, in discovery order
    level = [identity]
    while level:
        # x s = x[s] for each x of the level, and for each x each s in turn
        words = np.array(level, dtype=np.intp).reshape(len(level), degree)
        products = words[:, gen_imgs].reshape(len(level) * len(gens), degree)
        level = []
        for y in map(tuple, products.tolist()):
            if y not in index:
                if len(index) >= cap:
                    raise GroupTooLarge(f"closure exceeds size cap {cap}")
                index[y] = len(index)
                level.append(y)
    generator_indices = tuple(index[g.images] for g in gens)
    return FiniteGroup(degree, list(index), generator_indices, name=name)


def _greedy_generators(G: FiniteGroup, members: np.ndarray) -> tuple[int, ...]:
    """Small generating set of the subgroup with the given members, as
    positions in members: scan them, keep those enlarging the closure in G."""
    chosen: list[int] = []
    reached = np.arange(G.order) == 0
    for k in range(1, len(members)):
        if not reached[members[k]]:
            chosen.append(k)
            if _closure(G.mul, members[chosen], reached)[members].all():
                break
    return tuple(chosen) or (0,)


class Subgroup:
    """Subgroup of a FiniteGroup, held as a sorted set of element indices."""

    def __init__(self, parent: FiniteGroup, member_indices) -> None:
        self.parent = parent
        self.member_indices: tuple[int, ...] = tuple(sorted(set(int(i) for i in member_indices)))
        if 0 not in self.member_indices:
            raise BadParameters("subgroup must contain the identity")
        self._member_set = frozenset(self.member_indices)

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

    def as_group(self) -> FiniteGroup:
        """The subgroup re-enumerated as a standalone group.

        Element k is the parent's member_indices[k] (identity stays first).
        It is built once per member set and kept in the parent's memo table,
        so every Subgroup object with these members shares it; it refers to
        nothing of the parent.
        """
        return _memo(self.parent, ("as_group", self.member_indices), self._standalone)

    def _standalone(self) -> FiniteGroup:
        G = self.parent
        members = np.array(self.member_indices)
        return FiniteGroup(G.degree, G.images[members], _greedy_generators(G, members),
                           name=f"{G.name}:sub{self.order}")

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.name})"


def whole_group(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, range(G.order))


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, [0])


def subgroup_closure(G: FiniteGroup, seeds) -> Subgroup:
    """Smallest subgroup of G containing the seed element indices: the words
    in the seeds, grown from 1 by `_closure` (s^{-1} is a power of s)."""
    seeds = [int(s) for s in seeds]
    for s in seeds:
        if s < 0 or s >= G.order:
            raise BadParameters(f"seed {s} out of range")
    reached = np.zeros(G.order, dtype=bool)
    reached[[0] + seeds] = True  # the words of length 0 and 1
    return Subgroup(G, _closure(G.mul, seeds, reached).nonzero()[0])


def center(G: FiniteGroup) -> Subgroup:
    """Z(G), found once per group: G's cache keeps its members, as it keeps
    `sylow`'s."""
    mul = G.mul
    return Subgroup(G, _memo(G, ("center",), lambda: tuple(
        g for g in range(G.order) if np.array_equal(mul[g], mul[:, g]))))


def normalizer(G: FiniteGroup, H: Subgroup) -> Subgroup:
    in_H = np.zeros(G.order, dtype=bool)
    in_H[list(H.member_indices)] = True
    # conjugates[g, j] = g x_j g^{-1} for the j-th member x_j of H
    conjugates = G.mul[G.mul[:, H.member_indices], G.inv[:, None]]
    return Subgroup(G, in_H[conjugates].all(axis=1).nonzero()[0])


def conjugate_subgroup(G: FiniteGroup, H: Subgroup, g: int) -> Subgroup:
    return Subgroup(G, G.mul[G.mul[g, H.member_indices], G.inv[g]])


def intersect(H: Subgroup, K: Subgroup) -> Subgroup:
    if H.parent is not K.parent:
        raise BadParameters("subgroups of different parents")
    return Subgroup(H.parent, set(H.member_indices) & set(K.member_indices))


def sylow(G: FiniteGroup, p: int) -> Subgroup:
    """A deterministic Sylow p-subgroup, grown once per group and prime.

    Grown from the least-index p-element by normalizer steps, always
    absorbing the least-index usable element, so repeated calls agree.
    G's cache keeps its members, so a repeated call does not grow it
    again.  No Subgroup is kept there: its parent is G, and G must go by
    reference counting alone.  BadParameters when p is not a prime.
    """
    return Subgroup(G, _memo(G, ("sylow", require_prime(p)), lambda: _grow_sylow(G, p)))


def _grow_sylow(G: FiniteGroup, p: int) -> tuple[int, ...]:
    """The members of `sylow(G, p)`."""
    # the p-part of |G|: p^k exceeds |G| once k is its bit length
    target = math.gcd(G.order, p ** G.order.bit_length())
    if target == 1:
        return trivial_subgroup(G).member_indices
    if target == G.order:
        return whole_group(G).member_indices
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
    return S.member_indices


def elementary_abelian_subgroups(G: FiniteGroup, p: int) -> list[Subgroup]:
    """All subgroups isomorphic to (Z/p)^k, k >= 1, each listed once.

    They are enumerated once per group and prime: G's cache keeps their
    members, as it keeps `sylow`'s.
    """
    return [Subgroup(G, members) for members in _memo(
        G, ("elementary_abelian", p), lambda: _enumerate_elementary_abelian(G, p))]


def _enumerate_elementary_abelian(G: FiniteGroup, p: int) -> tuple[tuple[int, ...], ...]:
    order_p = [g for g in range(1, G.order) if G.element_order(g) == p]
    found: set[tuple[int, ...]] = set()
    frontier: list[Subgroup] = []
    for g in order_p:
        S = subgroup_closure(G, [g])
        if S.member_indices not in found:
            found.add(S.member_indices)
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
                    found.add(T.member_indices)
                    nxt.append(T)
        frontier = nxt
    return tuple(sorted(found, key=lambda members: (len(members), members)))


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


def right_coset_table(G: FiniteGroup, S: Subgroup) -> np.ndarray:
    """cosets[t, s] = s . t for the t-th representative t of the right cosets
    St (`coset_representatives` order) and the s-th member s of S: column 0
    is the transversal and row 0 is S itself."""
    transversal = coset_representatives(G, S, right=True)
    return G.mul[np.ix_(S.member_indices, transversal)].T


def double_cosets(G: FiniteGroup, H: Subgroup, K: Subgroup) -> list[int]:
    """The least-index representative of each double coset HgK, in scan order."""
    reps: list[int] = []
    covered = np.zeros(G.order, dtype=bool)
    hk_members = (list(H.member_indices), list(K.member_indices))
    for g in range(G.order):
        if covered[g]:
            continue
        covered[G.mul[G.mul[hk_members[0], g][:, None], hk_members[1]]] = True
        reps.append(g)
    return reps


def mackey_terms(G: FiniteGroup, H: Subgroup, K: Subgroup) -> list[tuple[int, Subgroup]]:
    """(g, H n gKg^{-1}) for the representative g of each double coset HgK,
    in `double_cosets` order: one term of the Mackey double coset formula
    res^G_H tr^G_K = sum over HgK of tr^H_{H n gKg^{-1}} res c_g."""
    return [(g, intersect(H, conjugate_subgroup(G, K, g)))
            for g in double_cosets(G, H, K)]


def homs_to_fp(G: FiniteGroup, p: int) -> np.ndarray:
    """A basis of Hom(G, F_p) = H^1(G; F_p): one row per homomorphism, its
    values on G's elements.

    With words[x] counting the generators in the word for x that
    `extend_from_generators` picks, values v on the generators give
    f(x) = words[x] . v.  That f is a homomorphism exactly when
    f(x s) = f(x) + f(s) for every x and every generator s (induction on
    word length), that is when (words[x s] - words[x] - e_s) . v = 0 mod p,
    so the v form one kernel.
    """
    gens = list(G.generator_indices)
    k = len(gens)
    unit = np.eye(k, dtype=np.int64)
    words = np.array(extend_from_generators(G, np.zeros(k, dtype=np.int64), unit, np.add))
    relations = words[G.mul[:, gens]] - words[:, None] - unit
    basis = kernel(relations.reshape(G.order * k, k) % p, p)[0]
    return basis.astype(np.int64) @ words.T % p


def maximal_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """Maximal subgroups of a p-group: normal of index p, they are the
    kernels of the nonzero homomorphisms G -> F_p, each given by p - 1 of
    the p^d - 1 nonzero points of Hom(G, F_p)."""
    primes = prime_factors(G.order)
    if not primes:
        raise BadParameters("trivial group has no maximal subgroups")
    if len(primes) > 1:
        raise BadParameters(f"{G.name} is not a p-group")
    p = primes[0]
    homs = homs_to_fp(G, p)
    d = len(homs)
    combinations = np.indices((p,) * d).reshape(d, -1).T[1:]
    kernels = {tuple((row == 0).nonzero()[0].tolist())
               for row in combinations @ homs % p}
    return [Subgroup(G, members) for members in sorted(kernels)]
