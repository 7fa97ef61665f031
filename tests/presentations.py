"""Graded-ring oracle: expand a commutative F_p presentation degree by degree.

Used to predict cohomology dimensions and cup-product span dimensions
independently of the resolution and product machinery.  Monomials of each
degree are enumerated, the ideal's graded piece is spanned by monomial
multiples of the relations, and everything reduces to ranks over F_p.
"""

from itertools import product as iproduct

import numpy as np

from modcoh.fplinalg import rref_array


class GradedPresentation:
    """F_p[g_1..g_r] / (relations), generators with positive degrees.

    Relations are dicts {exponent tuple: coefficient}.  Only what the
    tests need: homogeneous component dimensions and product spans.
    """

    def __init__(self, p, degrees, relations):
        self.p = p
        self.degrees = tuple(degrees)
        self.relations = [dict(r) for r in relations]
        self._monomials = {}

    def monomials(self, d):
        """All exponent tuples of total degree d, lexicographic order."""
        if d in self._monomials:
            return self._monomials[d]
        out = []

        def rec(idx, remaining, prefix):
            if idx == len(self.degrees):
                if remaining == 0:
                    out.append(tuple(prefix))
                return
            step = self.degrees[idx]
            for e in range(remaining // step + 1):
                rec(idx + 1, remaining - e * step, prefix + [e])

        rec(0, d, [])
        out.sort()
        self._monomials[d] = out
        return out

    def _ideal_rows(self, d):
        monos = self.monomials(d)
        index = {m: k for k, m in enumerate(monos)}
        rows = []
        for rel in self.relations:
            rel_deg = self._poly_degree(rel)
            if rel_deg > d:
                continue
            for mult in self.monomials(d - rel_deg):
                row = np.zeros(len(monos), dtype=np.int64)
                for expo, coeff in rel.items():
                    shifted = tuple(a + b for a, b in zip(expo, mult))
                    row[index[shifted]] = (row[index[shifted]] + coeff) % self.p
                rows.append(row)
        if not rows:
            return np.zeros((0, len(monos)), dtype=np.int64)
        return np.array(rows, dtype=np.int64)

    def _poly_degree(self, rel):
        degs = {sum(e * d for e, d in zip(expo, self.degrees))
                for expo in rel}
        if len(degs) != 1:
            raise ValueError("relations must be homogeneous")
        return degs.pop()

    def component_dim(self, d):
        monos = self.monomials(d)
        _, rank = rref_array(self._ideal_rows(d), self.p)
        return len(monos) - rank

    def hilbert_series(self, max_deg):
        return [self.component_dim(d) for d in range(max_deg + 1)]

    def product_span_dim(self, i, j):
        """dim of the image of multiplication R_i (x) R_j -> R_{i+j}."""
        d = i + j
        monos = self.monomials(d)
        index = {m: k for k, m in enumerate(monos)}
        ideal = self._ideal_rows(d)
        _, ideal_rank = rref_array(ideal, self.p)
        rows = [r for r in ideal]
        for ma in self.monomials(i):
            for mb in self.monomials(j):
                prod = tuple(a + b for a, b in zip(ma, mb))
                row = np.zeros(len(monos), dtype=np.int64)
                row[index[prod]] = 1
                rows.append(row)
        stacked = np.array(rows, dtype=np.int64).reshape(-1, len(monos))
        _, total_rank = rref_array(stacked, self.p)
        return total_rank - ideal_rank


def _e(k, n):
    v = [0] * n
    v[k] = 1
    return tuple(v)


# the catalog presentations, p = 2 throughout
def ring_z2xz2():
    return GradedPresentation(2, (1, 1), [])


def ring_d8():
    # F2[x1, e1, y2] / (x1 e1)
    return GradedPresentation(2, (1, 1, 2), [{(1, 1, 0): 1}])


def ring_q8():
    # F2[x1, y1, u4] / (x^2 + xy + y^2, x^2 y + x y^2)
    return GradedPresentation(
        2, (1, 1, 4),
        [{(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): 1},
         {(2, 1, 0): 1, (1, 2, 0): 1}])


def ring_a4():
    # F2[u2, v3, w3] / (u^3 + v^2 + w^2 + vw)
    return GradedPresentation(
        2, (2, 3, 3),
        [{(3, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1, (0, 1, 1): 1}])


def ring_s4():
    # F2[x1, y2, c3] / (x1 c3)
    return GradedPresentation(2, (1, 2, 3), [{(1, 0, 1): 1}])


def ring_u2_v3_w3():
    # F2[u2, v3, w3] / (v3 w3): the catalog's presentation for L3(2) and A6
    return GradedPresentation(2, (2, 3, 3), [{(0, 1, 1): 1}])


PRODUCT_ORACLES = {
    "Z2xZ2": ring_z2xz2,
    "D8": ring_d8,
    "Q8": ring_q8,
    "A4": ring_a4,
    "S4": ring_s4,
}

STRETCH_PRODUCT_ORACLES = {
    "L3_2": ring_u2_v3_w3,
    "A6": ring_u2_v3_w3,
}
