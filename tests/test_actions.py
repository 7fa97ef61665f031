import pytest

from modcoh import catalog, groups
from modcoh.actions import (
    _nonabelian_pq_orders,
    _twop_cyclic_at,
    full_report,
    periodicity_report,
    twop_condition,
)
from modcoh.groups import clear_group_caches, p_rank, prime_factors, subgroup_closure

from actions_oracle import (
    mtw_condition,
    p2_condition,
    swan_condition,
    twop_condition_cyclic_form,
    wolf_pq_condition,
)
from corpus import catalog_closure
from group_oracle import is_abelian, is_elementary_abelian


def oracle_all_abelian_subgroups_cyclic(G):
    """Brute force: an abelian noncyclic subgroup exists iff a 2-generated
    one does (it contains Z/p x Z/p)."""
    for g in range(1, G.order):
        for h in range(g, G.order):
            S = subgroup_closure(G, [g, h])
            if is_abelian(S):
                if not any(G.element_order(x) == S.order
                           for x in S.member_indices):
                    return False
    return True


def _is_prime(n):
    return n >= 2 and all(n % d for d in range(2, n))


def oracle_noncyclic_prime_product_orders(G):
    """Brute force: orders pq (p, q prime, possibly equal) of the noncyclic
    subgroups, from the closure of every pair of elements.  Every group of
    order pq is generated by two elements, so none is missed."""
    found = set()
    for g in range(1, G.order):
        for h in range(g, G.order):
            S = subgroup_closure(G, [g, h])
            if any(_is_prime(d) and _is_prime(S.order // d)
                   for d in range(2, S.order) if S.order % d == 0) \
                    and not any(G.element_order(x) == S.order
                                for x in S.member_indices):
                found.add(S.order)
    return found


class TestSubgroupConditionsAgainstPairScans:
    """The closure-free filters against brute-force subgroup closures."""

    def test_catalog_closure(self):
        for H in catalog_closure():
            noncyclic = oracle_noncyclic_prime_product_orders(H)
            primes = [p for p in range(2, H.order + 1)
                      if H.order % p == 0 and _is_prime(p)]
            key = (H.name, H.order)
            assert twop_condition_cyclic_form(H) == \
                (not any(n % 2 == 0 for n in noncyclic)), key
            assert wolf_pq_condition(H) == (not noncyclic), key
            pq = _nonabelian_pq_orders(H)
            for p in primes:
                assert _twop_cyclic_at(p, p_rank(H, p), pq) == \
                    (2 * p not in noncyclic), (key, p)

    @pytest.mark.parametrize("name, twop_cyclic", [
        ("L3_2", {2: False, 3: False, 7: True}),
        ("A6", {2: False, 3: False, 5: False}),
    ])
    def test_stretch_groups_pinned(self, name, twop_cyclic):
        G = catalog.get_group(name)
        pq = _nonabelian_pq_orders(G)
        assert {p: _twop_cyclic_at(p, p_rank(G, p), pq)
                for p in twop_cyclic} == twop_cyclic
        assert not wolf_pq_condition(G)
        assert not twop_condition_cyclic_form(G)


class TestP2:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 12])
    def test_cyclic_all_primes(self, n):
        G = catalog.get_group(f"Z{n}")
        for p in (2, 3):
            assert p2_condition(G, p)

    def test_q8(self, Q8):
        assert p2_condition(Q8, 2)

    def test_d8(self, D8):
        assert not p2_condition(D8, 2)


class TestTwoP:
    def test_odd_order_vacuous(self, Z3):
        assert twop_condition(Z3)
        assert twop_condition_cyclic_form(Z3)

    def test_dihedral_2p_fails(self):
        D6 = catalog.get_group("D6")
        assert not twop_condition(D6)
        assert not twop_condition_cyclic_form(D6)

    def test_q16_unique_central_involution(self):
        Q16 = catalog.get_group("Q16")
        assert twop_condition(Q16)
        assert twop_condition_cyclic_form(Q16)

    def test_documented_divergence_on_elementary_abelian(self, V4):
        # central-involution form holds for any abelian group; the
        # order-4-cyclic clause fails: the report keeps both booleans
        assert twop_condition(V4)
        assert not twop_condition_cyclic_form(V4)

    def test_agreement_away_from_elementary_abelian(self):
        for name in catalog.names():
            G = catalog.get_group(name)
            if G.order > 60 or is_elementary_abelian(G, 2):
                continue
            assert twop_condition(G) == twop_condition_cyclic_form(G), name


class TestSwanMtwWolf:
    def test_swan_examples(self, Q8, A4):
        assert swan_condition(Q8)
        assert not swan_condition(A4)
        assert swan_condition(catalog.get_group("Z12"))

    def test_swan_matches_abelian_subgroup_oracle(self):
        for name in ["Z2", "Z4", "Z6", "Z12", "D6", "D8", "Q8", "Q16", "A4",
                     "S4", "Z2xZ2"]:
            G = catalog.get_group(name)
            assert swan_condition(G) == oracle_all_abelian_subgroups_cyclic(G), name

    def test_mtw_examples(self, Q8):
        assert mtw_condition(catalog.get_group("Z6"))
        assert mtw_condition(Q8)
        assert not mtw_condition(catalog.get_group("S3"))

    def test_wolf_examples(self, Q8):
        assert wolf_pq_condition(catalog.get_group("Z12"))
        assert wolf_pq_condition(Q8)
        assert not wolf_pq_condition(catalog.get_group("S3"))


class TestPeriodicity:
    def test_z3_dim_level_caveat(self, Z3):
        ok, period = periodicity_report(Z3, 3)
        assert ok and period == 1  # true period 2 invisible at dim level

    def test_q8(self, Q8):
        assert periodicity_report(Q8, 2) == (True, 4)

    def test_d8(self, D8):
        assert periodicity_report(D8, 2) == (False, None)

    def test_requires_dividing_prime(self, Q8):
        from modcoh.errors import BadParameters
        with pytest.raises(BadParameters):
            periodicity_report(Q8, 3)


class TestFullReport:
    def test_q8_all_green(self, Q8):
        rep = full_report(Q8)
        assert rep.r_of_G == 1
        assert rep.swan_ok and rep.mtw_ok and rep.wolf_pq_ok and rep.periodic_ok
        assert rep.primes[0].krull_pole == rep.primes[0].p_rank == 1

    def test_a4(self, A4):
        rep = full_report(A4, max_deg=8)
        assert not rep.swan_ok
        assert rep.r_of_G == 2
        by_p = {pr.p: pr for pr in rep.primes}
        assert (by_p[2].krull_pole, by_p[2].p_rank) == (2, 2)
        assert (by_p[3].krull_pole, by_p[3].p_rank) == (1, 1)

    def test_duflot_bound_on_catalog(self):
        for name in ["Z2", "Z4", "Z6", "D6", "D8", "Q8", "Q16", "A4", "S4",
                     "Z2xZ2"]:
            rep = full_report(catalog.get_group(name))
            for pr in rep.primes:
                assert pr.duflot_z <= pr.krull_pole, (name, pr.p)

    def test_semidirect_smoke(self):
        # order-48 Z/3 x| Q16 entry: the report runs; no period assertion
        rep = full_report(catalog.get_group("Z3Q16"))
        assert rep.order == 48
        assert rep.swan_ok and rep.twop_central_ok

    @pytest.mark.parametrize("name", ["S4", "Q16", "Z3Q16", "D6", "Z12", "A4"])
    def test_each_elementary_abelian_enumeration_runs_once(self, name, monkeypatch):
        """A report enumerates the elementary abelian subgroups of each
        (group, prime) once, G's and its centre's, and finds Z(G) once."""
        G = catalog.get_group(name)
        clear_group_caches()
        want = full_report(G)
        clear_group_caches()
        enumerated, built = [], []
        enumerate_ = groups._enumerate_elementary_abelian
        monkeypatch.setattr(groups, "_enumerate_elementary_abelian",
                            lambda H, p: enumerated.append((id(H), p)) or enumerate_(H, p))
        memo = groups._memo
        monkeypatch.setattr(groups, "_memo", lambda H, key, build: memo(
            H, key, lambda: built.append(key) or build()))
        assert full_report(G) == want
        assert len(enumerated) == len(set(enumerated))
        assert {p for _, p in enumerated} == set(prime_factors(G.order))
        assert built.count(("center",)) == 1

    def test_dict_shape_stable(self, Q8):
        d = full_report(Q8).as_dict()
        assert set(d) == {"group", "order", "r_of_G", "swan_ok",
                          "twop_central_ok", "twop_cyclic_ok", "mtw_ok",
                          "wolf_pq_ok", "periodic_ok", "primes"}
        assert set(d["primes"]["2"]) == {
            "p2_ok", "twop_cyclic_ok", "p_rank", "duflot_z", "krull_pole",
            "periodic_ok", "observed_dim_period"}


def test_report_booleans_equal_the_condition_helpers():
    """full_report computes its booleans from one pq scan and the p-ranks;
    on every nontrivial catalog group, stretch groups included, they equal
    the condition helpers, which test_catalog_closure checks against
    brute-force closures."""
    groups_checked = [catalog.get_group(name) for name in catalog.names(include_stretch=True)
                      if catalog.get_group(name).order > 1]
    assert len(groups_checked) == 18
    for G in groups_checked:
        rep = full_report(G)
        assert rep.swan_ok == swan_condition(G), G.name
        assert rep.mtw_ok == mtw_condition(G), G.name
        assert rep.wolf_pq_ok == wolf_pq_condition(G), G.name
        assert rep.twop_cyclic_ok == twop_condition_cyclic_form(G), G.name
