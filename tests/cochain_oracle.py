"""Cochain-level maps as explicit loops: the reference oracles.

`modcoh.cohmaps.CochainContext.differential` now calls the one Hom-complex
differential `modcoh.resolutions._hom_delta` over a table of right cosets.
`cochain_differential` is the per-generator, per-coset loop it replaced,
kept as an independent oracle, as `diagonal_oracle.py` keeps the diagonal
for cup products.  It reads only the context's resolution, module and
transversal; the coset tables it needs come from `coset_tables`, the
per-element loop that filled `_rep_of` and `_s_of`.

`coset_sum_block` is the dense per-generator block of a coset sum, the loop
that `modcoh.cohmaps._coset_sum_cochain` ran before it returned the index
map (cosets, actions) that determines the block; `densify` expands such an
index map back into the block, so tests can compare the two and use the
production map as a matrix.

`complex_through` assembles a context's cochain complex through a degree,
for the d o d = 0 check of `CochainComplex.check_composition`.
"""

from __future__ import annotations

import numpy as np

from modcoh.cohmaps import CochainComplex, _coset_sum_cochain


def complex_through(ctx, max_deg: int) -> CochainComplex:
    """The context's cochain spaces C^0 .. C^max_deg and differentials."""
    spaces = tuple(ctx.cochain_dim(i) for i in range(max_deg + 1))
    diffs = tuple(ctx.differential(i) for i in range(max_deg))
    return CochainComplex(spaces, diffs)


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


def coset_sum_block(src, dst, C) -> np.ndarray:
    """The block of (phi f)(e_{j, u}) = sum_{c in C} c . f(c^{-1} u . e_j),
    of shape (|dst transversal| dim M, |src transversal| dim M)."""
    G = src.group
    nt_src, nt_dst = len(src.transversal), len(dst.transversal)
    m, A = src.module.dim, src.module.action
    block = np.zeros((nt_dst, m, nt_src, m), dtype=np.int64)
    for ui, u in enumerate(dst.transversal):
        for c in C:
            x = int(G.mul[int(G.inv[c]), u])
            block[ui, :, src._rep_of[x]] += A[G.mul[c, src._s_of[x]]]
    return block.reshape(nt_dst * m, nt_src * m) % src.p


def densify(src, coset_sum) -> np.ndarray:
    """The block of an index map: actions[c, u] at row u, column cosets[c, u]."""
    cosets, actions = coset_sum
    k, nt_dst, m = actions.shape[:3]
    block = np.zeros((nt_dst, m, len(src.transversal), m), dtype=np.int64)
    for c in range(k):
        for ui in range(nt_dst):
            block[ui, :, cosets[c, ui]] += actions[c, ui]
    return block.reshape(nt_dst * m, -1) % src.p


def coset_sum_matrix(src, dst, i: int, C) -> np.ndarray:
    """The degree-i cochain map of the production index map: the densified
    block on each free generator."""
    eye = np.eye(src.resolution.extend_to(i + 1).ranks[i], dtype=np.int64)
    return np.kron(eye, densify(src, _coset_sum_cochain(src, dst, C)))
