"""Built-in group constructors and expected cohomology series.

Expected answers are stored as rational-function data (numerator
coefficients over products of (1 - t^d) factors) derived from named ring
presentations, never as inlined dimension lists, so each record's origin
stays auditable via its source tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BadParameters, NoExpectedData, NotAnAutomorphism
from .groups import FiniteGroup, Permutation, extend_from_generators, generate_group

# -- permutation realizations ------------------------------------------------


def make_cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise BadParameters("cyclic order must be positive")
    if n == 1:
        return generate_group(1, [Permutation((0,))], name="Z1")
    return generate_group(n, [Permutation(tuple(range(1, n)) + (0,))],
                          name=f"Z{n}")


def make_elementary_abelian(p: int, k: int) -> FiniteGroup:
    if k < 1:
        raise BadParameters("rank must be at least 1")
    gens = []
    for i in range(k):
        images = list(range(p * k))
        block = list(range(i * p, (i + 1) * p))
        for a, b in zip(block, block[1:] + block[:1]):
            images[a] = b
        gens.append(Permutation(tuple(images)))
    name = "x".join([f"Z{p}"] * k)
    return generate_group(p * k, gens, name=name)


def make_dihedral(order: int) -> FiniteGroup:
    if order < 4 or order % 2:
        raise BadParameters("dihedral order must be even and at least 4")
    n = order // 2
    rot = Permutation(tuple(range(1, n)) + (0,))
    flip = Permutation(tuple((n - i) % n for i in range(n)))
    return generate_group(n, [rot, flip], name=f"D{order}")


_QUAT_UNITS = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
_QUAT_TABLE = {("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
               ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
               ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
               ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
               ("k", "k"): (-1, "1")}


def _quat_mul(a: str, b: str) -> str:
    sa, la = (-1, a[1:]) if a.startswith("-") else (1, a)
    sb, lb = (-1, b[1:]) if b.startswith("-") else (1, b)
    if la == "1":
        s, l = sa * sb, lb
    elif lb == "1":
        s, l = sa * sb, la
    else:
        sc, lc = _QUAT_TABLE[(la, lb)]
        s, l = sa * sb * sc, lc
    if l == "1":
        return "1" if s > 0 else "-1"
    return l if s > 0 else "-" + l


def make_quaternion(order: int) -> FiniteGroup:
    """Q_8 on its units by right translation; Q_16 from the 2,4 presentation."""
    if order == 8:
        def right_by(u):
            return Permutation(tuple(
                _QUAT_UNITS.index(_quat_mul(x, u)) for x in _QUAT_UNITS))

        return generate_group(8, [right_by("i"), right_by("j")], name="Q8")
    if order == 16:
        # elements a^m b^e, m < 8, e < 2; b^2 = a^4, b a b^-1 = a^-1
        def mul(x, y):
            m, e = x
            n, f = y
            if e == 0:
                return ((m + n) % 8, f)
            return ((m - n + (4 if f else 0)) % 8, 1 - f)

        elems = [(m, e) for e in range(2) for m in range(8)]
        index = {x: i for i, x in enumerate(elems)}

        def right_by(u):
            return Permutation(tuple(index[mul(x, u)] for x in elems))

        return generate_group(16, [right_by((1, 0)), right_by((0, 1))],
                              name="Q16")
    raise BadParameters("only Q8 and Q16 are provided")


def make_alternating(n: int) -> FiniteGroup:
    """A4, A6 or A7 (order 2520, above the default size cap)."""
    if n == 4:
        return generate_group(4, [Permutation((1, 2, 0, 3)),
                                  Permutation((1, 0, 3, 2))], name="A4")
    if n == 6:
        threecycle = Permutation.from_cycles(6, [(0, 1, 2)])
        fivecycle = Permutation.from_cycles(6, [(1, 2, 3, 4, 5)])
        return generate_group(6, [threecycle, fivecycle], name="A6")
    if n == 7:
        threecycle = Permutation.from_cycles(7, [(0, 1, 2)])
        fivecycle = Permutation.from_cycles(7, [(2, 3, 4, 5, 6)])
        return generate_group(7, [threecycle, fivecycle], name="A7", cap=2520)
    raise BadParameters("only A4, A6 and A7 are provided")


def make_symmetric(n: int) -> FiniteGroup:
    if n == 3:
        return generate_group(3, [Permutation((1, 2, 0)),
                                  Permutation((1, 0, 2))], name="S3")
    if n == 4:
        return generate_group(4, [Permutation((1, 2, 3, 0)),
                                  Permutation((1, 0, 2, 3))], name="S4")
    raise BadParameters("only S3 and S4 are provided")


def make_psl_3_2() -> FiniteGroup:
    """L_3(2) = GL_3(F_2) acting on the seven nonzero vectors of F_2^3."""
    vecs = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)][1:]
    index = {v: i for i, v in enumerate(vecs)}

    def perm_of(matrix):
        out = []
        for v in vecs:
            w = tuple(int(sum(matrix[r][c] * v[c] for c in range(3)) % 2)
                      for r in range(3))
            out.append(index[w])
        return Permutation(tuple(out))

    cycle = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    transvection = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    G = generate_group(7, [perm_of(cycle), perm_of(transvection)], name="L3_2")
    if G.order != 168:
        raise BadParameters("L3(2) construction failed")
    return G


def make_semidirect(N: FiniteGroup, H: FiniteGroup, action, name=None) -> FiniteGroup:
    """N x| H acting on the element set N x H by left translation.

    `action` maps each H generator index to a permutation of N's element
    indices; each must be an automorphism of N, and their extension along
    words (`extend_from_generators`) must take those values on the
    generators and be a homomorphism H -> Aut(N), checked on every pair.
    """
    auts = []
    for h_gen in H.generator_indices:
        phi = tuple(int(x) for x in action[h_gen])
        _check_automorphism(N, phi)
        auts.append(phi)
    full = extend_from_generators(H, tuple(range(N.order)), auts,
                                  lambda f, phi: tuple(f[i] for i in phi))
    if any(full[s] != phi for s, phi in zip(H.generator_indices, auts)):
        raise NotAnAutomorphism("generator images do not extend to H -> Aut(N)")
    for a in range(H.order):
        for b in range(H.order):
            ab = int(H.mul[a, b])
            composed = tuple(full[a][full[b][i]] for i in range(N.order))
            if full[ab] != composed:
                raise NotAnAutomorphism("action map is not a homomorphism")

    elems = [(n, h) for h in range(H.order) for n in range(N.order)]
    index = {x: i for i, x in enumerate(elems)}

    def mul(x, y):
        n1, h1 = x
        n2, h2 = y
        return (int(N.mul[n1, full[h1][n2]]), int(H.mul[h1, h2]))

    def left_by(u):
        return Permutation(tuple(index[mul(u, x)] for x in elems))

    gens = [left_by((N.generator_indices[k], 0))
            for k in range(len(N.generator_indices))]
    gens += [left_by((0, H.generator_indices[k]))
             for k in range(len(H.generator_indices))]
    return generate_group(len(elems), gens,
                          name=name or f"{N.name}:{H.name}")


def _check_automorphism(N: FiniteGroup, phi) -> None:
    if sorted(phi) != list(range(N.order)):
        raise NotAnAutomorphism("image list is not a permutation of N")
    if phi[0] != 0:
        raise NotAnAutomorphism("automorphism must fix the identity")
    for a in range(N.order):
        for b in range(N.order):
            if phi[int(N.mul[a, b])] != int(N.mul[phi[a], phi[b]]):
                raise NotAnAutomorphism("image map is not multiplicative")


def _inversion(N: FiniteGroup):
    return tuple(int(N.inv[i]) for i in range(N.order))


def make_z3_q16() -> FiniteGroup:
    """Z/3 x| Q_16 with the order-8 generator inverting Z/3."""
    N = make_cyclic(3)
    H = make_quaternion(16)
    action = {H.generator_indices[0]: _inversion(N),
              H.generator_indices[1]: tuple(range(N.order))}
    return make_semidirect(N, H, action, name="Z3Q16")


# -- expected-series records --------------------------------------------------


@dataclass(frozen=True)
class ExpectedSeries:
    p: int
    numerator: tuple[int, ...]
    denominator_exponents: tuple[int, ...]
    verified_through: int
    source: str


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    builder: object
    expected: tuple[ExpectedSeries, ...]
    stretch: bool = False


def expand_rational(numerator, denominator_exponents, max_deg: int) -> list[int]:
    """Power-series coefficients of numerator / prod (1 - t^d), degrees 0..max_deg."""
    coeffs = np.zeros(max_deg + 1, dtype=np.int64)
    for i, c in enumerate(numerator):
        if i <= max_deg:
            coeffs[i] = c
    for d in denominator_exponents:
        for i in range(d, max_deg + 1):
            coeffs[i] += coeffs[i - d]
    return [int(c) for c in coeffs]


_POLY_EXT = "exterior(1) (x) polynomial(2) presentation"

_ENTRIES = [
    CatalogEntry("Z1", lambda: make_cyclic(1), ()),
    CatalogEntry("Z2", lambda: make_cyclic(2), (
        ExpectedSeries(2, (1,), (1,), 10, "polynomial ring on one degree-1 class"),)),
    CatalogEntry("Z3", lambda: make_cyclic(3), (
        ExpectedSeries(3, (1, 1), (2,), 10, _POLY_EXT),)),
    CatalogEntry("Z4", lambda: make_cyclic(4), (
        ExpectedSeries(2, (1, 1), (2,), 10, _POLY_EXT),)),
    CatalogEntry("Z5", lambda: make_cyclic(5), (
        ExpectedSeries(5, (1, 1), (2,), 10, _POLY_EXT),)),
    CatalogEntry("Z6", lambda: make_cyclic(6), (
        ExpectedSeries(2, (1,), (1,), 10, "2-part Z/2; odd part invisible mod 2"),
        ExpectedSeries(3, (1, 1), (2,), 10, "3-part Z/3; " + _POLY_EXT),)),
    CatalogEntry("Z12", lambda: make_cyclic(12), (
        ExpectedSeries(2, (1, 1), (2,), 10, "2-part Z/4; " + _POLY_EXT),
        ExpectedSeries(3, (1, 1), (2,), 10, "3-part Z/3; " + _POLY_EXT),)),
    CatalogEntry("Z2xZ2", lambda: make_elementary_abelian(2, 2), (
        ExpectedSeries(2, (1,), (1, 1), 8, "Kunneth: rank-2 polynomial ring"),)),
    CatalogEntry("Z2xZ2xZ2", lambda: make_elementary_abelian(2, 3), (
        ExpectedSeries(2, (1,), (1, 1, 1), 8, "Kunneth: rank-3 polynomial ring"),)),
    CatalogEntry("D6", lambda: make_dihedral(6), (
        ExpectedSeries(2, (1,), (1,), 8, "abelian Sylow Z/2, trivial Weyl action"),
        ExpectedSeries(3, (1, 0, 0, 1), (4,), 8,
                       "Z/2-invariants of exterior(1) (x) polynomial(2)"),)),
    CatalogEntry("S3", lambda: make_symmetric(3), (
        ExpectedSeries(2, (1,), (1,), 8, "abelian Sylow Z/2, trivial Weyl action"),
        ExpectedSeries(3, (1, 0, 0, 1), (4,), 8,
                       "Z/2-invariants of exterior(1) (x) polynomial(2)"),)),
    CatalogEntry("D8", lambda: make_dihedral(8), (
        ExpectedSeries(2, (1, 0, -1), (1, 1, 2), 8,
                       "F2[x1, e1, y2]/(x1 e1)"),)),
    CatalogEntry("Q8", lambda: make_quaternion(8), (
        ExpectedSeries(2, (1, 2, 2, 1), (4,), 8,
                       "free F2[u4]-module on 1 + 2t + 2t^2 + t^3"),)),
    CatalogEntry("Q16", lambda: make_quaternion(16), (
        ExpectedSeries(2, (1, 2, 2, 1), (4,), 8,
                       "period-4 generalized quaternion pattern (derived)"),)),
    CatalogEntry("A4", lambda: make_alternating(4), (
        ExpectedSeries(2, (1, 0, 0, 0, 0, 0, -1), (2, 3, 3), 7,
                       "F2[u2, v3, w3]/(u2^3 + v3^2 + w3^2 + v3 w3)"),
        ExpectedSeries(3, (1, 1), (2,), 7,
                       "self-normalizing abelian Sylow Z/3"),)),
    CatalogEntry("S4", lambda: make_symmetric(4), (
        ExpectedSeries(2, (1, 0, 0, 0, -1), (1, 2, 3), 6,
                       "F2[x1, y2, c3]/(x1 c3)"),
        ExpectedSeries(3, (1, 0, 0, 1), (4,), 8,
                       "abelian Sylow Z/3 with Weyl group Z/2"),)),
    CatalogEntry("Z3Q16", make_z3_q16, ()),
    CatalogEntry("L3_2", make_psl_3_2, (
        ExpectedSeries(2, (1, 0, 0, 0, 0, 0, -1), (2, 3, 3), 6,
                       "F2[u2, v3, w3]/(v3 w3)"),), stretch=True),
    CatalogEntry("A6", lambda: make_alternating(6), (
        ExpectedSeries(2, (1, 0, 0, 0, 0, 0, -1), (2, 3, 3), 6,
                       "F2[sigma2, sigma3, c3]/(c3 sigma3)"),), stretch=True),
]

REGISTRY: dict[str, CatalogEntry] = {e.name: e for e in _ENTRIES}


def names(include_stretch=False) -> list[str]:
    return [e.name for e in _ENTRIES if include_stretch or not e.stretch]


@lru_cache(maxsize=None)
def get_group(name: str) -> FiniteGroup:
    entry = REGISTRY.get(name)
    if entry is None:
        raise BadParameters(f"unknown catalog group {name!r}; "
                            f"known: {', '.join(sorted(REGISTRY))}")
    return entry.builder()


def expected_record(name: str, p: int) -> ExpectedSeries:
    entry = REGISTRY.get(name)
    if entry is None:
        raise BadParameters(f"unknown catalog group {name!r}")
    for rec in entry.expected:
        if rec.p == p:
            return rec
    raise NoExpectedData(f"{name} has no expected series at p={p}")


def expected_dims(name: str, p: int, max_deg: int):
    """Expansion of the stored rational function through max_deg."""
    from .resolutions import DimSeries
    rec = expected_record(name, p)
    dims = expand_rational(rec.numerator, rec.denominator_exponents, max_deg)
    return DimSeries(tuple(dims), p)
