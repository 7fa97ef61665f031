"""The subgroup cochain differential as an explicit loop: the reference oracle.

`modcoh.cohmaps.CochainContext.differential` now calls the one Hom-complex
differential `modcoh.resolutions._hom_delta` over a table of right cosets.
This is the per-generator, per-coset loop it replaced, kept as an
independent oracle, as `diagonal_oracle.py` keeps the diagonal for cup
products.  It reads only the context's resolution, module and transversal;
the coset tables it needs come from `coset_tables`, the per-element loop
that filled `_rep_of` and `_s_of`.
"""

from __future__ import annotations

import numpy as np


def coset_tables(G, subgroup, transversal):
    """(rep_of, s_of): g = s_of[g] . transversal[rep_of[g]] for every g."""
    n = G.order
    members = list(subgroup.member_indices)
    rep_of = np.empty(n, dtype=np.int64)
    s_of = np.empty(n, dtype=np.int64)
    for ti, t in enumerate(transversal):
        for s in members:
            g = int(G.mul[s, t])
            rep_of[g] = ti
            s_of[g] = s
    return rep_of, s_of


def _flat(m: int, j: int, ti: int, nt: int) -> slice:
    base = (j * nt + ti) * m
    return slice(base, base + m)


def cochain_differential(ctx, i: int) -> np.ndarray:
    """delta^i : C^i -> C^{i+1} of a CochainContext, as a matrix on column vectors."""
    G, p = ctx.group, ctx.p
    ctx.resolution.extend_to(i + 1)
    rep_of, s_of = coset_tables(G, ctx.subgroup, ctx.transversal)
    n = G.order
    nt = len(ctx.transversal)
    m = ctx.module.dim
    r_cur, r_next = ctx.resolution.ranks[i], ctx.resolution.ranks[i + 1]
    A = ctx.module.action
    W = ctx.resolution.boundaries[i]  # (r_cur * n, r_next)
    delta = np.zeros((r_next * nt * m, r_cur * nt * m), dtype=np.int64)
    inv = G.inv
    for k in range(r_next):
        w = W[:, k].reshape(r_cur, n)
        for ui, u in enumerate(ctx.transversal):
            # translate w by u, then split coordinates along right cosets
            v = w[:, G.mul[int(inv[u])]]  # (r_cur, n): v[j, g] = w[j, u^{-1} g]
            row = _flat(m, k, ui, nt)
            for j in range(r_cur):
                coeffs = v[j]
                nz = np.nonzero(coeffs)[0]
                if nz.size == 0:
                    continue
                blocks = np.zeros((nt, m, m), dtype=np.int64)
                np.add.at(blocks, rep_of[nz],
                          coeffs[nz, None, None] * A[s_of[nz]])
                for ti in range(nt):
                    if blocks[ti].any():
                        col = _flat(m, j, ti, nt)
                        delta[row, col] = (delta[row, col] + blocks[ti]) % p
    delta %= p
    return delta
