"""Sphere-action feasibility conditions and rank invariants.

Pure group-theoretic checks: the p^2 and 2p conditions, Swan's and the
Madsen-Thomas-Wall criteria, Wolf's pq clause, dimension-level periodicity
evidence, and the assembled per-group report with the Quillen pole-order
cross-check.

The 2p condition is computed in both of its circulating guises: "every
involution is central" and "every subgroup of order 2q (q prime) is
cyclic".  They are not equivalent in general (any noncyclic elementary
abelian 2-group is central-involution but has a noncyclic order-4
subgroup), so the report carries both booleans instead of choosing.

The subgroup conditions need no subgroup enumeration.  A noncyclic group
of order p^2 is Z/p x Z/p, so one exists iff the p-rank is at least 2.  A
noncyclic group of order pq with p != q primes is nonabelian, since an
abelian one is cyclic.  Such a subgroup exists iff some h of prime order q
and some g of prime order p != q have g h g^-1 in <h> but not equal to h.
If p < q, a nonabelian group of order pq has a normal Sylow q-subgroup
<h>, and some element g of order p does not commute with h, else the
group would be abelian.  Conversely such a g normalizes <h>, so
<h><g> = <g, h> is a subgroup of order pq, nonabelian since g h != h g.
`_nonabelian_pq_orders` scans those pairs once, and each condition is a
filter over its result and the p-ranks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import BadParameters, InvariantViolation
from .groups import FiniteGroup, center, p_rank, prime_factors
from .resolutions import cohomology_dims, krull_dimension_estimate


def _nonabelian_pq_orders(G: FiniteGroup) -> set[int]:
    """The orders pq (p != q primes) of the nonabelian subgroups of G.

    The module docstring gives the pair criterion this scan applies.
    """
    primes = prime_factors(G.order)
    orders = np.array([G.element_order(g) for g in range(G.order)])
    by_prime = {p: np.flatnonzero(orders == p) for p in primes}
    found: set[int] = set()
    for q in primes:
        for h in by_prime[q].tolist():
            powers = np.zeros(G.order, dtype=bool)
            x = h
            for _ in range(q):
                powers[x] = True
                x = int(G.mul[x, h])
            for p in primes:
                if p == q or p * q in found:
                    continue
                g = by_prime[p]
                moved = G.mul[G.mul[g, h], G.inv[g]]
                if (powers[moved] & (moved != h)).any():
                    found.add(p * q)
    return found


def twop_condition(G: FiniteGroup) -> bool:
    """Milnor's form: every element of order 2 is central."""
    Z = center(G)
    return all(G.element_order(g) != 2 or g in Z for g in range(G.order))


def periodicity_report(G: FiniteGroup, p: int, max_deg: int = 10):
    """(Artin-Tate style boolean, observed dimension-level period or None).

    The boolean is the rank condition r_p <= 1.  When it holds, the least
    d >= 1 with dims[i] = dims[i+d] on 1 <= i <= max_deg - d is reported as
    dimension-level evidence; the true cohomological period is invisible at
    dimension level (all-ones series report 1, not 2), hence the caveat in
    the field name.
    """
    if G.order % p:
        raise BadParameters(f"p = {p} does not divide |{G.name}|")
    periodic = p_rank(G, p) <= 1
    if not periodic:
        return False, None
    dims = cohomology_dims(G, p, max_deg).dims
    for d in range(1, max_deg):
        if all(dims[i] == dims[i + d] for i in range(1, max_deg - d + 1)):
            return True, d
    return True, None


@dataclass(frozen=True)
class PrimeReport:
    p: int
    p2_ok: bool
    twop_cyclic_ok: bool
    p_rank: int
    duflot_z: int
    krull_pole: int
    periodic_ok: bool
    observed_dim_period: int | None


@dataclass(frozen=True)
class ConditionReport:
    group: str
    order: int
    r_of_G: int
    swan_ok: bool
    twop_central_ok: bool
    twop_cyclic_ok: bool
    mtw_ok: bool
    wolf_pq_ok: bool
    periodic_ok: bool
    primes: tuple[PrimeReport, ...]

    def as_dict(self) -> dict:
        """The fields as plain data, primes keyed by str(p) and without p."""
        out = asdict(self)
        out["primes"] = {str(pr.pop("p")): pr for pr in out["primes"]}
        return out


def _twop_cyclic_at(p: int, rank: int, pq_orders: set[int]) -> bool:
    """Order-2p subgroups cyclic at one prime p of p-rank `rank`.

    Order 4 when p = 2, where only Z/2 x Z/2 is noncyclic.
    """
    return rank <= 1 if p == 2 else 2 * p not in pq_orders


def full_report(G: FiniteGroup, max_deg: int = 10) -> ConditionReport:
    """All section-level conditions plus per-prime rank invariants.

    A negative max_deg raises BadParameters: no degree would be evidence.
    """
    if max_deg < 0:
        raise BadParameters(f"max_deg must be nonnegative, got {max_deg}")
    pq_orders = _nonabelian_pq_orders(G)
    prime_reports = []
    Z = center(G)
    for p in prime_factors(G.order):
        rank = p_rank(G, p)
        periodic, observed = periodicity_report(G, p, max_deg)
        zr = p_rank(Z.as_group(), p) if Z.order > 1 else 0
        pole = krull_dimension_estimate(G, p, max_deg=max(max_deg, 12))
        prime_reports.append(PrimeReport(
            p=p,
            p2_ok=rank <= 1,
            twop_cyclic_ok=_twop_cyclic_at(p, rank, pq_orders),
            p_rank=rank,
            duflot_z=zr,
            krull_pole=pole,
            periodic_ok=periodic,
            observed_dim_period=observed,
        ))
    r_of_g = max((pr.p_rank for pr in prime_reports), default=0)
    swan = all(pr.p2_ok for pr in prime_reports)
    twop_central = twop_condition(G)
    report = ConditionReport(
        group=G.name,
        order=G.order,
        r_of_G=r_of_g,
        swan_ok=swan,
        twop_central_ok=twop_central,
        # the 2q clauses at every prime q dividing |G| are the whole condition
        twop_cyclic_ok=all(pr.twop_cyclic_ok for pr in prime_reports),
        mtw_ok=swan and twop_central,
        wolf_pq_ok=swan and not pq_orders,
        periodic_ok=swan,
        primes=tuple(prime_reports),
    )
    for pr in report.primes:
        if pr.krull_pole != pr.p_rank:
            raise InvariantViolation(
                f"Quillen cross-check failed for {G.name} at p={pr.p}: "
                f"pole order {pr.krull_pole} != p-rank {pr.p_rank}")
        if pr.duflot_z > pr.krull_pole:
            raise InvariantViolation(
                f"Duflot bound violated for {G.name} at p={pr.p}")
    return report
