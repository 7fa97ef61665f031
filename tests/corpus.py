"""Seeded random module corpus shared by property and acceptance tests.

Modules are direct sums and tensors of catalog building blocks (trivial,
regular, permutation and dual-permutation modules), generated with a fixed
seed so every run sees the same 50 modules.  Also shared: the catalog's
closure under 2-generated subgroups, a Hypothesis strategy for small
permutation groups, and a brute-force isomorphism test.
"""

import functools
import itertools
import random

from hypothesis import strategies as st

from modcoh import catalog
from modcoh.errors import GroupTooLarge
from modcoh.gmodules import (
    direct_sum,
    dual_module,
    permutation_module,
    regular_module,
    tensor_module,
    trivial_module,
)
from modcoh.groups import Permutation, center, generate_group, subgroup_closure, sylow

CORPUS_SEED = 20260810
CORPUS_GROUPS = ("Z4", "Q8", "D8", "A4")
_DIM_CAP = 40


def _atoms(G, p=2):
    out = [trivial_module(G, p), regular_module(G, p)]
    Z = center(G)
    if 1 < Z.order < G.order:
        out.append(permutation_module(G, Z, p))
    g = next(g for g in range(1, G.order) if G.element_order(g) == p)
    C = subgroup_closure(G, [g])
    if C.order < G.order:
        out.append(dual_module(permutation_module(G, C, p)))
    P = sylow(G, p)
    if P.order < G.order:
        out.append(permutation_module(G, P, p))
    return out


def build_corpus(count=50, seed=CORPUS_SEED):
    """Deterministic list of (group name, GModule) pairs."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        name = rng.choice(CORPUS_GROUPS)
        G = catalog.get_group(name)
        atoms = _atoms(G)
        kind = rng.choice(("sum2", "sum3", "tensor", "mixed"))
        if kind == "sum2":
            M = direct_sum(rng.choice(atoms), rng.choice(atoms))
        elif kind == "sum3":
            M = direct_sum(direct_sum(rng.choice(atoms), rng.choice(atoms)),
                           rng.choice(atoms))
        elif kind == "tensor":
            M = tensor_module(rng.choice(atoms), rng.choice(atoms))
        else:
            M = direct_sum(tensor_module(rng.choice(atoms), rng.choice(atoms)),
                           rng.choice(atoms))
        if M.dim <= _DIM_CAP:
            out.append((name, M))
    return out


def two_generated_subgroups(G, max_order=100):
    """G's proper subgroups generated by two elements, of order at most
    max_order, each listed once."""
    subs = {}
    for g in range(G.order):
        for h in range(g, G.order):
            S = subgroup_closure(G, [g, h])
            if S.order <= max_order and S.order < G.order:
                subs[S.member_indices] = S
    return list(subs.values())


@functools.lru_cache(maxsize=None)
def catalog_closure(max_order=100):
    """Catalog groups plus their 2-generated subgroups, as standalone groups."""
    out = []
    for name in catalog.names():
        G = catalog.get_group(name)
        if G.order <= max_order:
            out.append(G)
        out.extend(S.as_group() for S in two_generated_subgroups(G, max_order))
    return tuple(out)


def is_isomorphic(A, B):
    """Brute-force isomorphism test by generator-image search."""
    if A.order != B.order:
        return False
    if A.order == 1:
        return True
    gens = A.generator_indices
    candidates = [[b for b in range(B.order) if B.element_order(b) == A.element_order(g)]
                  for g in gens]

    def try_assignment(images):
        phi = {0: 0}
        frontier = [0]
        gen_map = dict(zip(gens, images))
        while frontier:
            nxt = []
            for a in frontier:
                for g, img in gen_map.items():
                    ag = int(A.mul[a, g])
                    target = int(B.mul[phi[a], img])
                    if ag in phi:
                        if phi[ag] != target:
                            return False
                    else:
                        phi[ag] = target
                        nxt.append(ag)
            frontier = nxt
        return len(set(phi.values())) == A.order

    return any(try_assignment(images) for images in itertools.product(*candidates))


@st.composite
def small_permutation_groups(draw, cap=72):
    """A group on at most 6 points, of order at most cap (72 by default).

    Generators are added while the closure stays within the cap, so the
    draw never builds A6 or S6.
    """
    degree = draw(st.integers(2, 6))
    perms = draw(st.lists(st.permutations(list(range(degree))), min_size=1, max_size=3))
    G = None
    for k in range(1, len(perms) + 1):
        try:
            G = generate_group(degree, [Permutation(tuple(q)) for q in perms[:k]], cap=cap)
        except GroupTooLarge:
            break
    return G
