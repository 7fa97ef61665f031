import numpy as np
import pytest

from modcoh import catalog
from modcoh.errors import BadParameters, NoExpectedData, NotAnAutomorphism
from modcoh.groups import (
    center,
    p_rank,
    subgroup_closure,
)

from corpus import is_isomorphic
from group_oracle import is_abelian, make_direct_product


def manifest_text() -> str:
    """The shipped text manifest: one block per entry, machine-greppable."""
    lines = ["# modcoh catalog manifest",
             "# entry NAME ORDER [stretch]",
             "# expect p=P num=[...] den=[...] through=N  # source"]
    for entry in catalog._ENTRIES:
        G = catalog.get_group(entry.name)
        tag = " stretch" if entry.stretch else ""
        lines.append(f"entry {entry.name} {G.order}{tag}")
        for rec in entry.expected:
            num = ",".join(str(c) for c in rec.numerator)
            den = ",".join(str(d) for d in rec.denominator_exponents)
            lines.append(f"expect p={rec.p} num=[{num}] den=[{den}] "
                         f"through={rec.verified_through}  # {rec.source}")
    return "\n".join(lines) + "\n"


class TestConstructors:
    def test_cyclic(self):
        assert catalog.make_cyclic(2).order == 2
        assert catalog.make_cyclic(12).order == 12
        with pytest.raises(BadParameters):
            catalog.make_cyclic(0)

    def test_quaternion_census(self):
        Q8 = catalog.make_quaternion(8)
        assert Q8.order == 8
        assert sum(1 for g in range(8) if Q8.element_order(g) == 2) == 1
        assert p_rank(Q8, 2) == 1
        Q16 = catalog.make_quaternion(16)
        assert Q16.order == 16
        assert sum(1 for g in range(16) if Q16.element_order(g) == 2) == 1

    def test_dihedral(self):
        D8 = catalog.make_dihedral(8)
        assert D8.order == 8
        assert not is_abelian(D8)

    def test_elementary_abelian(self):
        E = catalog.make_elementary_abelian(2, 3)
        assert E.order == 8
        assert is_abelian(E)
        assert p_rank(E, 2) == 3

    def test_direct_product(self):
        G = make_direct_product(catalog.make_cyclic(2), catalog.make_cyclic(3))
        assert G.order == 6
        assert is_abelian(G)

    def test_semidirect_gives_a4(self):
        V = catalog.make_elementary_abelian(2, 2)
        Z3 = catalog.make_cyclic(3)
        # the 3-cycle permutes the three involutions of V
        invs = [g for g in range(V.order) if V.element_order(g) == 2]
        a, b, c = invs
        images = list(range(V.order))
        images[a], images[b], images[c] = b, c, a
        action = {Z3.generator_indices[0]: tuple(images)}
        G = catalog.make_semidirect(V, Z3, action, name="VxZ3")
        assert G.order == 12
        # no subgroup of order 6: census over pair closures
        orders = {subgroup_closure(G, [g, h]).order
                  for g in range(G.order) for h in range(G.order)}
        assert 6 not in orders
        assert is_isomorphic(G, catalog.get_group("A4"))

    def test_semidirect_rejects_non_automorphism(self):
        V = catalog.make_elementary_abelian(2, 2)
        Z3 = catalog.make_cyclic(3)
        bad = tuple([0, 2, 1, 3])  # swap of two involutions: order 2, not 3
        with pytest.raises(NotAnAutomorphism):
            catalog.make_semidirect(V, Z3, {Z3.generator_indices[0]: bad})

    def test_semidirect_rejects_an_automorphism_for_the_identity(self):
        # Z1's one generator is the identity, which must act trivially
        N, H = catalog.make_cyclic(3), catalog.make_cyclic(1)
        assert H.generator_indices == (0,)
        inversion = tuple(int(x) for x in N.inv)
        with pytest.raises(NotAnAutomorphism, match="do not extend"):
            catalog.make_semidirect(N, H, {0: inversion})

    def test_z3_q16(self):
        S = catalog.get_group("Z3Q16")
        assert S.order == 48
        assert sum(1 for g in range(48) if S.element_order(g) == 2) == 1

    def test_deterministic_rebuild(self):
        for name in ["D8", "Q8", "A4", "S4", "Z3Q16"]:
            a = catalog.REGISTRY[name].builder()
            b = catalog.REGISTRY[name].builder()
            assert [e.images for e in a.elements] == [e.images for e in b.elements]
            assert np.array_equal(a.mul, b.mul)

    def test_center_of_q16(self):
        Q16 = catalog.get_group("Q16")
        assert center(Q16).order == 2

    def test_l3_2_order(self):
        G = catalog.make_psl_3_2()
        assert G.order == 168
        assert p_rank(G, 2) == 2


class TestExpectedSeries:
    def test_expand_rational(self):
        assert catalog.expand_rational((1,), (1,), 5) == [1] * 6
        assert catalog.expand_rational((1, 2, 2, 1), (4,), 7) == \
            [1, 2, 2, 1, 1, 2, 2, 1]
        assert catalog.expand_rational((1,), (1, 1), 4) == [1, 2, 3, 4, 5]

    def test_expected_dims_known(self):
        assert catalog.expected_dims("D8", 2, 8).dims == \
            (1, 2, 3, 4, 5, 6, 7, 8, 9)
        assert catalog.expected_dims("A4", 2, 7).dims == \
            (1, 0, 1, 2, 1, 2, 3, 2)
        assert catalog.expected_dims("S4", 2, 6).dims == \
            (1, 1, 2, 3, 3, 4, 5)
        assert catalog.expected_dims("Z2", 2, 0).dims == (1,)

    def test_missing_data(self):
        with pytest.raises(NoExpectedData):
            catalog.expected_dims("Q8", 3, 4)

    def test_unknown_group(self):
        with pytest.raises(BadParameters):
            catalog.get_group("M11")

    def test_shipped_manifest_in_sync(self):
        import pathlib
        shipped = pathlib.Path(__file__).parent.parent / "CATALOG.txt"
        assert shipped.read_text() == manifest_text()
