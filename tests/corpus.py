"""Seeded random module corpus shared by property and acceptance tests.

Modules are direct sums and tensors of catalog building blocks (trivial,
regular, permutation and dual-permutation modules), generated with a fixed
seed so every run sees the same 50 modules.
"""

import functools
import random

from modcoh import catalog
from modcoh.gmodules import (
    direct_sum,
    dual_module,
    permutation_module,
    regular_module,
    tensor_module,
    trivial_module,
)
from modcoh.groups import center, subgroup_closure, sylow

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


@functools.lru_cache(maxsize=None)
def catalog_closure(max_order=100):
    """Catalog groups plus their 2-generated subgroups, as standalone groups."""
    out = []
    for name in catalog.names():
        G = catalog.get_group(name)
        if G.order <= max_order:
            out.append(G)
        subs = {}
        for g in range(G.order):
            for h in range(g, G.order):
                S = subgroup_closure(G, [g, h])
                if S.order <= max_order and S.order < G.order:
                    subs[S.member_indices] = S
        out.extend(S.as_group() for S in subs.values())
    return tuple(out)
