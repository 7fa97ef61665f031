"""The per-degree `modcoh maps` report, kept as an oracle for the one-pass one.

`cli.cmd_maps` builds a report in one pass over a `cohmaps.MapBuilder`:
coset-sum blocks, double-coset terms and contexts once per report, the
double coset check's left side taken from the printed maps, and the
identity term of H g H with g = 1 counted as the identity matrix.  Before
that, each degree rebuilt everything through the public `restriction`,
`transfer` and `conjugation`, and the check recomputed its left side and
took the identity term as three induced maps.  That loop is kept here as
it was, with the check it called, so that tests compare the two reports
byte for byte.
"""

from __future__ import annotations

import numpy as np

from modcoh.cli import (
    EXIT_MISMATCH,
    EXIT_OK,
    _emit_table,
    _load_group,
    _require_prime,
    _resolve_subgroup,
)
from modcoh.cohmaps import (
    CohMap,
    conjugation,
    restriction,
    transfer,
    trivial_coefficients,
)
from modcoh.errors import BadParameters
from modcoh.groups import conjugate_subgroup, double_cosets, intersect


def double_coset_identity_check(G, H, K, M, i) -> bool:
    """res^G_H tr^G_K = sum over HgK of tr res c_g, every term three induced maps."""
    lhs_map = _compose(restriction(G, H, M, i),
                       transfer(G, K, M, i))
    total = np.zeros_like(lhs_map.matrix)
    for g in double_cosets(G, H, K).reps:
        Kg = conjugate_subgroup(G, K, g)
        inter = intersect(H, Kg)
        c = conjugation(G, g, K, M, i)
        r = restriction(G, inter, M, i, K=Kg)
        t = transfer(G, inter, M, i, K=H)
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
        res = restriction(G, H, M, i)
        tr = transfer(G, H, M, i)
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
