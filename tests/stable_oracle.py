"""Cartan-Eilenberg stable elements on G's resolution: the reference oracle.

`modcoh.cohmaps.stable_subspace` and `modcoh.resolutions.cohomology_dims`
now compute H^*(G, F_p) as stable elements on the minimal resolution of a
Sylow p-subgroup P (`modcoh.cohmaps.StableElements`).  This is the
G-resolution computation they replaced, kept as an independent oracle, as
`cochain_oracle.py` keeps the cochain differential loop: here P is a
subgroup of G, every cochain lives on G's free resolution, and conjugation
is the coset sum with C = {d}, so no chain map is lifted.
"""

from __future__ import annotations

import numpy as np

from modcoh import fplinalg
from modcoh.cohmaps import (
    conjugation,
    context,
    restriction,
    trivial_coefficients,
)
from modcoh.errors import BadParameters
from modcoh.groups import FiniteGroup, conjugate_subgroup, double_cosets, intersect, sylow


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
    base = context(G, M, P, length=i + 1).basis(i)
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
    basis = fplinalg.kernel_array(stacked, p)
    return len(basis), basis
