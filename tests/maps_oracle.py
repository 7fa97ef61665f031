"""The per-degree `modcoh maps` report, and the map checks only tests ask.

`cli.cmd_maps` builds a report in one pass over a `cohmaps.MapBuilder`:
coset-sum blocks, double-coset terms and contexts once per report, the
double coset check's left side taken from the printed maps, and the
identity term of H g H with g = 1 counted as the identity matrix.  Before
that, each degree rebuilt everything, and the check recomputed its left
side and took the identity term as three induced maps.  That loop is kept
here, each degree and each check on a fresh `MapBuilder`, so that tests
compare the two reports byte for byte.  c_g is `conjugation_map`, the
builder's coset sum over C = {g}.

`detection_check` (Quillen detection: is the joint restriction to a set of
subgroups injective?) and `abelian_sylow_check` (Swan: for abelian Sylow P,
res^G_{N_G(P)} is an isomorphism) are checks of the lectures' theorems that
tests run on catalog groups.  `to_csv` prints a map's matrix for pinning.
"""

from __future__ import annotations

import numpy as np

from modcoh import fplinalg
from modcoh.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    _emit_table,
    _load_group,
    _require_prime,
    _resolve_subgroup,
)
from modcoh.cohmaps import CohMap, MapBuilder, context, trivial_coefficients
from modcoh.errors import BadParameters, SylowNotAbelian
from modcoh.groups import conjugate_subgroup, double_cosets, intersect, normalizer, sylow

from group_oracle import is_abelian


def conjugation_map(maps: MapBuilder, g: int, H, i: int) -> CohMap:
    """c_g: H^i(H, M) -> H^i(gHg^{-1}, M), the coset sum over C = {g}."""
    return maps._map(H, conjugate_subgroup(maps.group, H, g), (g,), i)


def double_coset_identity_check(G, H, K, M, i) -> bool:
    """res^G_H tr^G_K = sum over HgK of tr res c_g, every term three induced maps."""
    maps = MapBuilder(G, M)
    lhs_map = _compose(maps.restriction(H, i), maps.transfer(K, i))
    total = np.zeros_like(lhs_map.matrix)
    for g in double_cosets(G, H, K):
        Kg = conjugate_subgroup(G, K, g)
        inter = intersect(H, Kg)
        c = conjugation_map(maps, g, K, i)
        r = maps.restriction(inter, i, Kg)
        t = maps.transfer(inter, i, H)
        total = (total + t.matrix @ r.matrix @ c.matrix) % M.p
    return np.array_equal(lhs_map.matrix, total)


def _compose(outer: CohMap, inner: CohMap) -> CohMap:
    if outer.source is not inner.target:
        raise BadParameters("maps are not composable in these bases")
    return CohMap(inner.source, outer.target,
                  (outer.matrix @ inner.matrix) % outer.source.p)


def cmd_maps(args, out) -> int:
    """`modcoh maps` with every degree built from scratch (module docstring)."""
    _require_prime(args.p)
    G, _ = _load_group(args.group, args.size_cap)
    H = _resolve_subgroup(G, args.sub)
    M = trivial_coefficients(G, args.p)
    index_mod_p = (G.order // H.order) % args.p
    rows = []
    for i in range(args.max_deg + 1):
        maps = MapBuilder(G, M)
        res = maps.restriction(H, i)
        tr = maps.transfer(H, i)
        comp = (tr.matrix @ res.matrix) % args.p
        want = (index_mod_p * np.eye(comp.shape[0], dtype=np.int64)) % args.p
        ok = bool(np.array_equal(comp, want))
        row = [i, res.rank(), tr.rank(), "yes" if ok else "NO"]
        if args.dcheck:
            row.append("yes" if double_coset_identity_check(G, H, H, M, i)
                       else "NO")
        rows.append(tuple(row))
    header = ["i", "rank_res", "rank_tr", f"tr.res=[G:H]({index_mod_p})"]
    if args.dcheck:
        header.append("double_coset_ok")
    _emit_table(tuple(header), rows, args.format, out)
    bad = any("NO" in row for row in rows)
    return EXIT_MISMATCH if bad else EXIT_OK


def detection_check(G, p: int, subgroups, i: int) -> bool:
    """Whether the joint restriction to the subgroups is injective on H^i(G)."""
    M = trivial_coefficients(G, p)
    top = context(G, M).basis(i)
    if top.dim == 0:
        return True
    maps = MapBuilder(G, M)
    blocks = [maps.restriction(H, i).matrix for H in subgroups]
    stacked = np.vstack(blocks) if blocks else np.zeros((0, top.dim), dtype=np.int64)
    return len(fplinalg.rref_pivots(stacked, p)) == top.dim


def abelian_sylow_check(G, p: int, max_deg: int) -> bool:
    """H^*(G) = H^*(N_G(P)) via restriction, for abelian Sylow P."""
    P = sylow(G, p)
    if not is_abelian(P):
        raise SylowNotAbelian(f"Sylow {p}-subgroup of {G.name} is not abelian")
    N = normalizer(G, P)
    maps = MapBuilder(G, trivial_coefficients(G, p))
    for i in range(max_deg + 1):
        res = maps.restriction(N, i)
        dim_g = res.source.dim
        if res.target.dim != dim_g or res.rank() != dim_g:
            return False
    return True


def to_csv(m: CohMap) -> str:
    """Matrix rows as CSV, for golden-file pinning."""
    lines = [",".join(str(int(x)) for x in row) for row in m.matrix]
    return "\n".join(lines) + ("\n" if lines else "")
