"""The sphere-action conditions one at a time, to check `full_report` against.

`modcoh.actions.full_report` computes every printed boolean from one scan of
the nonabelian subgroups of order pq and the p-ranks.  The conditions here
are the same statements as standalone predicates, each read off the group
on its own, which tests compare with brute-force closures and with the
report's fields.
"""

from modcoh.actions import _nonabelian_pq_orders, twop_condition
from modcoh.groups import p_rank, prime_factors


def p2_condition(G, p: int) -> bool:
    """No Z/p x Z/p subgroup, i.e. p-rank at most one."""
    return p_rank(G, p) <= 1


def twop_condition_cyclic_form(G) -> bool:
    """Every subgroup of order 2q (q prime, q = 2 included) is cyclic."""
    return p2_condition(G, 2) and not any(
        n % 2 == 0 for n in _nonabelian_pq_orders(G))


def swan_condition(G) -> bool:
    """Every abelian subgroup cyclic: p-rank at most one at every prime."""
    return all(p2_condition(G, p) for p in prime_factors(G.order))


def mtw_condition(G) -> bool:
    """Swan's condition together with the 2p condition."""
    return swan_condition(G) and twop_condition(G)


def wolf_pq_condition(G) -> bool:
    """Every subgroup of order pq (p, q prime, possibly equal) is cyclic."""
    return swan_condition(G) and not _nonabelian_pq_orders(G)
