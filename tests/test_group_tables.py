"""Group tables pinned byte for byte; Subgroup.as_group, subgroup_closure,
maximal_subgroups and the Frattini subgroup from Hom(P, F_p) against their
oracles; and one
Sylow growth per group and prime.

The SHA-256 pins cover each group's element images, generator indices,
multiplication table and inverses.  They were taken while the table was
still found by sorting and searching all |G|^2 composed images, before it
was read off the Cayley graph of the generators: the element order, the
generators and every table entry must not move.
"""

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from modcoh import catalog
from modcoh.errors import BadParameters
from modcoh.fileio import parse_group_file
from modcoh.groups import (
    Subgroup,
    center,
    elementary_abelian_subgroups,
    maximal_subgroups,
    prime_factors,
    subgroup_closure,
    sylow,
)

from modcoh.resolutions import clear_resolution_cache

import group_oracle
from corpus import two_generated_subgroups
from group_oracle import greedy_generators, make_direct_product, subgroup_table

DATA = Path(__file__).parent / "data"

# "NAME" is a catalog group, "NAME:sylowP" its sylow(G, P).as_group()
GROUP_TABLE_SHA256 = {
    "Z1": "c0902251ee4f9e9366fe2951d0bce903b881efd780a3872b2786707bf48e199d",
    "Z2": "a27d886acfbf3d65eaaa6a98dff6e602fd9faae805610aa70550f942f6dd2dba",
    "Z2:sylow2": "a27d886acfbf3d65eaaa6a98dff6e602fd9faae805610aa70550f942f6dd2dba",
    "Z3": "9f8703e4bad00bd01af295d64d3644c6a9d29913c491e72895637aa8e0fbf02f",
    "Z3:sylow3": "9f8703e4bad00bd01af295d64d3644c6a9d29913c491e72895637aa8e0fbf02f",
    "Z4": "c056f0e52086d28b3c0238a65384d4425ebc90edef8d51a42af6db301d4494c0",
    "Z4:sylow2": "c056f0e52086d28b3c0238a65384d4425ebc90edef8d51a42af6db301d4494c0",
    "Z5": "7c2379b11ca6c266eb78c52124119585005f466b83e2a428c4d436690d6e64b4",
    "Z5:sylow5": "7c2379b11ca6c266eb78c52124119585005f466b83e2a428c4d436690d6e64b4",
    "Z6": "faf1228137bdeed7294e52ec3d184c8f5559ec20b2d3806d1b03b4ddde186e20",
    "Z6:sylow2": "d302240669ce01203e8d28577b5a96328d81b9f46d15299bf7b9aa97251f807c",
    "Z6:sylow3": "26250b6de63daa450f1b84e949737f7d32aeaed5cd37d8a1212acd09cd6e2a4f",
    "Z12": "e6b0e707310924d957afaef51170ad553543efa64a2b611ac2eb0b875fa048ec",
    "Z12:sylow2": "375efe6b6e42b9b4b8eb394a56a108fd9dc2bf2fa505f60cea1f0a69e5a88768",
    "Z12:sylow3": "70d8105e8f66732afdb712c0f726b10b24fef892309cb86be46a3884e86a467c",
    "Z2xZ2": "cb53b7a83ffa201e382d3d545efd7f3c6109f7ef02e6790c92ad0aaf8e94d35a",
    "Z2xZ2:sylow2": "cb53b7a83ffa201e382d3d545efd7f3c6109f7ef02e6790c92ad0aaf8e94d35a",
    "Z2xZ2xZ2": "153e7f889a06112b22fdbc3e58cc91471eb58d7cc408ad9f758dff042499d1c6",
    "Z2xZ2xZ2:sylow2": "153e7f889a06112b22fdbc3e58cc91471eb58d7cc408ad9f758dff042499d1c6",
    "D6": "b8fd4695c6b6c87057050ea1b1125a87390e6302b5f7a34c3814fe2c59f6e07e",
    "D6:sylow2": "5a1206530d2d1d9d4d012f379df0229aca77009a229aff05273045d669cbe6f7",
    "D6:sylow3": "9f8703e4bad00bd01af295d64d3644c6a9d29913c491e72895637aa8e0fbf02f",
    "S3": "f507811ca282cff53424dd9416480d7afb7bb53847af9774cf6fdb4918205459",
    "S3:sylow2": "92dc9b4f0282bcad2d6db5610ac295c2ed886f087d8903251076c87a516f239b",
    "S3:sylow3": "9f8703e4bad00bd01af295d64d3644c6a9d29913c491e72895637aa8e0fbf02f",
    "D8": "d736d3866009307250a6074332ff7ebaccab57cf73df85b970abace6378fa2d6",
    "D8:sylow2": "d736d3866009307250a6074332ff7ebaccab57cf73df85b970abace6378fa2d6",
    "Q8": "8f422552c177c4930e254b95de5a7b0e3436da818ad161d64ac9d9fafe490a03",
    "Q8:sylow2": "8f422552c177c4930e254b95de5a7b0e3436da818ad161d64ac9d9fafe490a03",
    "Q16": "dbf03405b7264f9eedb2761ddebed92e5a9d84de1e197a75ed1bd874cb86ca32",
    "Q16:sylow2": "dbf03405b7264f9eedb2761ddebed92e5a9d84de1e197a75ed1bd874cb86ca32",
    "A4": "77c3037a5d040df7dd722022e58e2130b31b267737c23d6ac2b07a10aae76b27",
    "A4:sylow2": "4196d26683bc92a0b481a628e4d71cc3704674cb47f7d9498b1103e018520512",
    "A4:sylow3": "cb615515a261bf915bec55f51b3d70525d337c888d656cdfd9a2d04b34a3f1b9",
    "S4": "e8fe496b6a0302be60d8d132b1fcdc50ebe7560d90f04a8c03ea5b61e0388bcd",
    "S4:sylow2": "cdbd1d7c80fa5cb728e559c54dcbac03381212204416ebd7025275c3efcdabb1",
    "S4:sylow3": "cac3e1b2e78b953c5f59ee1dcd5b10f9906f38816d3ecf65114f0da0bc63b879",
    "Z3Q16": "8c53c25d0f379011e4f399c15d1c5c441d7c47d9651ffadf39d12414efbf420f",
    "Z3Q16:sylow2": "2154719b1265943e6f8d1111bc2b97f699d8855b9efc88053a8ad255461d6c23",
    "Z3Q16:sylow3": "54efdd7ff26352b738c94b72fe1333cd3b439fde0f8960af33810ed48ddd2623",
    "L3_2": "a10354384bccfedf659223119e0b90bdbd2c18d044c22bafdfb3bb59c7757034",
    "L3_2:sylow2": "1a4afc33ce785439e3461922aff375da1a15d272973cb31903096822de8d81b1",
    "L3_2:sylow3": "439f13cc25bd98ac219f6c7785a2fba44dc6bea7ef5dfb9b3262559ce4dab628",
    "L3_2:sylow7": "48d503cd08c67977f1ba8e2b4991d27ecc19a33dfdf917ed6dffe832cb3fae95",
    "A6": "ff1ae203193e3517fe909dcda90d04251d94346a57bd8a53b4ee4756ddfb9bcb",
    "A6:sylow2": "d809a6458f16c8c6b5f10e3fd6ee031a6c6ca4917d85d7910181bc8221617aea",
    "A6:sylow3": "ec07bd7105daf0b282143d3a5a9ab58e620dea07e364b5049c43a4767628632e",
    "A6:sylow5": "0983c83e8a2de85af44512d8fbc9818a56e8def037cb9df12c20e8f93e4708c3",
    "A7": "39073e80a08f5ea1e6e9a590e20a374317c47ba7cabf4a6f9603deedee1bdef2",
    "D8xD8.grp": "f71bff50955a897206dc355b23944c12edc1b5b7c7325c95cefa22255a0eacec",
}


def table_digest(G) -> str:
    h = hashlib.sha256()
    h.update(repr((G.degree, G.order, tuple(G.generator_indices))).encode())
    h.update(np.array([e.images for e in G.elements], dtype="<i4").tobytes())
    h.update(np.ascontiguousarray(G.mul, dtype="<i4").tobytes())
    h.update(np.ascontiguousarray(G.inv, dtype="<i4").tobytes())
    return h.hexdigest()


def pinned_group(key: str):
    if key == "A7":
        return catalog.make_alternating(7)
    if key == "D8xD8.grp":
        return parse_group_file((DATA / key).read_text())
    name, _, p = key.partition(":sylow")
    G = catalog.get_group(name)
    return sylow(G, int(p)).as_group() if p else G


def test_pins_cover_every_catalog_group_and_sylow_subgroup():
    keys = {"A7", "D8xD8.grp"}
    for name in catalog.names(include_stretch=True):
        keys.add(name)
        keys.update(f"{name}:sylow{p}"
                    for p in prime_factors(catalog.get_group(name).order))
    assert keys == set(GROUP_TABLE_SHA256)


@pytest.mark.parametrize("key", sorted(GROUP_TABLE_SHA256))
def test_group_table_is_pinned(key):
    assert table_digest(pinned_group(key)) == GROUP_TABLE_SHA256[key]


def oracle_subgroups(G):
    """The Sylow and elementary abelian subgroups, the centre and four
    seeded random closures of G."""
    rng = random.Random(G.order)
    primes = prime_factors(G.order)
    subs = [sylow(G, p) for p in primes] + [center(G)]
    subs += [E for p in primes for E in elementary_abelian_subgroups(G, p)]
    for _ in range(4):
        seeds = [rng.randrange(G.order) for _ in range(rng.randint(1, 2))]
        subs.append(subgroup_closure(G, seeds))
    return subs


@pytest.mark.parametrize("name", catalog.names(include_stretch=True))
def test_as_group_matches_the_permutation_closure_oracle(name):
    G = catalog.get_group(name)
    for S in oracle_subgroups(G):
        H = S.as_group()
        assert [e.images for e in H.elements] == [
            G.elements[i].images for i in S.member_indices]
        assert H.generator_indices == greedy_generators(H.elements)
        assert_matches_sub_table(S)


def assert_matches_sub_table(S):
    """S.as_group(), built from its members' rows and checked against
    their composed images, against the parent's table restricted to S."""
    H = S.as_group()
    mul, inv, generators = subgroup_table(S)
    assert np.array_equal(H.mul, mul)
    assert np.array_equal(H.inv, inv)
    assert H.generator_indices == generators


@pytest.mark.parametrize("name", catalog.names())
def test_as_group_matches_the_sub_table_on_two_generated_subgroups(name):
    """Every subgroup that `corpus.catalog_closure` builds as a group."""
    for S in two_generated_subgroups(catalog.get_group(name)):
        assert_matches_sub_table(S)


@pytest.mark.parametrize("members", [[0, 1], [0, 1, 2, 3, 4]])
def test_as_group_refuses_members_not_closed_under_product(members):
    # D8's elements 1 and 2 are its generators (a 4-cycle and a flip)
    S = Subgroup(catalog.get_group("D8"), members)
    with pytest.raises(BadParameters):
        S.as_group()
    with pytest.raises(BadParameters, match="not closed"):
        subgroup_table(S)


def oracle_p_groups():
    """(P, p) for every nontrivial Sylow subgroup of the catalog, stretch
    groups included, and for p-groups with more maximal subgroups."""
    out = []
    for name in catalog.names(include_stretch=True):
        for p in prime_factors(catalog.get_group(name).order):
            out.append(pytest.param(pinned_group(f"{name}:sylow{p}"), p, id=f"{name}:sylow{p}"))
    D8, Q8, Z4 = (catalog.get_group(n) for n in ("D8", "Q8", "Z4"))
    for G in (parse_group_file((DATA / "D8xD8.grp").read_text()),
              parse_group_file((DATA / "D8xD8xZ2.grp").read_text()),
              catalog.make_elementary_abelian(2, 6), catalog.make_elementary_abelian(3, 4),
              make_direct_product(catalog.make_cyclic(9), catalog.make_cyclic(3)),
              make_direct_product(D8, Z4),
              make_direct_product(Q8, catalog.get_group("Z2xZ2")),
              catalog.make_cyclic(25), catalog.make_elementary_abelian(5, 2)):
        out.append(pytest.param(G, prime_factors(G.order)[0], id=G.name))
    return out


@pytest.mark.parametrize("P,p", oracle_p_groups())
def test_maximal_and_frattini_subgroups_match_the_oracle(P, p):
    """The kernels of Hom(P, F_p) against the hyperplanes of hand-built
    coordinates on P / Phi(P), and their intersection against the closure
    of p-th powers and commutators."""
    assert maximal_subgroups(P) == group_oracle.maximal_subgroups(P)
    assert group_oracle.frattini_from_homs(P, p) == group_oracle.frattini_subgroup(P, p)


@pytest.mark.parametrize("name", [
    pytest.param(n, marks=pytest.mark.stretch) if n in ("L3_2", "A6") else n
    for n in catalog.names(include_stretch=True)])
def test_subgroup_closure_matches_the_worklist_oracle(name):
    """Every single seed, 20 random seed pairs and no seed at all."""
    G = catalog.get_group(name)
    rng = np.random.default_rng(7)
    seed_sets = [[g] for g in range(G.order)] + \
        rng.integers(0, G.order, size=(20, 2)).tolist() + [[]]
    for seeds in seed_sets:
        assert subgroup_closure(G, seeds) == group_oracle.subgroup_closure(G, seeds), seeds


def test_sylow_grown_once_per_group_and_prime(monkeypatch):
    """G's cache keeps the members of one Sylow subgroup per prime, and a
    cleared cache grows it afresh, with the same members."""
    from modcoh import groups
    real, grown = groups._grow_sylow, []

    def spy(G, p):
        grown.append(p)
        return real(G, p)

    monkeypatch.setattr(groups, "_grow_sylow", spy)
    clear_resolution_cache()
    G = catalog.get_group("Z3Q16")
    P = sylow(G, 2)
    assert sylow(G, 2) == P and sylow(G, 3) != P and sylow(G, 3) == sylow(G, 3)
    assert grown == [2, 3]
    clear_resolution_cache()
    assert sylow(G, 2) == P and grown == [2, 3, 2]
