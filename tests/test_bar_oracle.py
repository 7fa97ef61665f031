"""Independent cross-check of cohomology dimensions via the bar complex.

Inhomogeneous cochains C^n = maps(G^n, F_p) with the standard differential
assembled directly from the multiplication table: a second route to
H^*(G, F_p) that shares nothing with the resolution pipeline except the
rank routine.  Degrees are capped by |G|^n growth.
"""

import functools
import random

import numpy as np
import pytest

from modcoh import catalog
from modcoh.errors import GroupTooLarge
from modcoh.fplinalg import rref_array
from modcoh.groups import generate_group, prime_factors
from modcoh.resolutions import cohomology_dims


def bar_differential(G, p, n):
    """delta^n : C^n -> C^{n+1} for trivial F_p coefficients."""
    order = G.order
    rows = order ** (n + 1)
    cols = order ** n
    delta = np.zeros((rows, cols), dtype=np.int64)

    def decode(idx, length):
        out = []
        for _ in range(length):
            out.append(idx % order)
            idx //= order
        return out

    def encode(tup):
        idx = 0
        for g in reversed(tup):
            idx = idx * order + g
        return idx

    for row in range(rows):
        gs = decode(row, n + 1)
        # drop the first argument
        delta[row, encode(gs[1:])] += 1
        # contract adjacent arguments
        for i in range(n):
            merged = gs[:i] + [int(G.mul[gs[i], gs[i + 1]])] + gs[i + 2:]
            delta[row, encode(merged)] += (-1) ** (i + 1)
        # drop the last argument
        delta[row, encode(gs[:-1])] += (-1) ** (n + 1)
    return delta % p


def bar_cohomology_dims(G, p, max_deg):
    dims = []
    prev_rank = 0
    for n in range(max_deg + 1):
        delta = bar_differential(G, p, n)
        rank = rref_array(delta, p)[1]
        dims.append(G.order ** n - rank - prev_rank)
        prev_rank = rank
    return tuple(dims)


CASES = [
    ("Z2", 2, 6),
    ("Z3", 3, 5),
    ("Z3", 2, 4),
    ("Z4", 2, 5),
    ("Z2xZ2", 2, 4),
    ("Z6", 3, 4),
    ("S3", 3, 3),
    ("S3", 2, 3),
    ("D8", 2, 3),
    ("Q8", 2, 3),
    ("A4", 2, 2),
    ("A4", 3, 2),
]


@pytest.mark.parametrize("name,p,max_deg", CASES)
def test_bar_complex_agrees(name, p, max_deg):
    G = catalog.get_group(name)
    assert bar_cohomology_dims(G, p, max_deg) == \
        cohomology_dims(G, p, max_deg).dims


RANDOM_GROUPS = 12


@functools.cache
def random_groups(seed=20261020, cap=16):
    """Groups generated by two seeded random permutations of degree 2 to 6:
    no trivial group, no closure larger than cap, and at most two groups of
    each order, which random pairs would otherwise fill with Z2 and S3.
    Random generators order the elements as no catalog group does."""
    rng = random.Random(seed)
    found = []
    while len(found) < RANDOM_GROUPS:
        degree = rng.randint(2, 6)
        gens = [rng.sample(range(degree), degree) for _ in range(2)]
        try:
            G = generate_group(degree, gens, name=f"R{len(found)}", cap=cap)
        except GroupTooLarge:
            continue
        if G.order > 1 and sum(H.order == G.order for H in found) < 2:
            found.append(G)
    return tuple(found)


@pytest.mark.parametrize("k", range(RANDOM_GROUPS))
def test_random_group_agrees_with_bar_complex(k):
    """Resolution dims against the bar complex through degree 2, at each
    prime dividing the order (Sylow-local for non-p-groups)."""
    G = random_groups()[k]
    for p in prime_factors(G.order):
        assert cohomology_dims(G, p, 2).dims == bar_cohomology_dims(G, p, 2), (G.order, p)
