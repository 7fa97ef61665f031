"""Cup products through a diagonal approximation: the reference oracle.

The product path of `modcoh.products` lifts cocycles to chain maps (Yoneda
products).  This is the construction it replaced, kept as an independent
oracle, as `test_bar_oracle.py` keeps the bar complex for dimensions.

The diagonal P_* -> P_* (x) P_* is lifted degree by degree.  Rather than
solving a large linear system per degree, a contracting homotopy of P_*
(as a complex of plain vector spaces) is assembled once from deterministic
right inverses of the boundaries; the tensor complex then inherits the
standard homotopy s (x) 1 + (unit.counit) (x) s, and each lift is a matrix
product.  The chain-map identity is checked after every degree, so a
conventions bug cannot slip through silently.  Its tensor components have
(r_i |G|)(r_j |G|) rows, so it is quadratic in |G|: small groups only.

`cup_coordinates` reads a `products.CupRing` product in class coordinates,
as the tests compare it with presentations and with this oracle.
"""

from __future__ import annotations

import numpy as np

from modcoh import fplinalg
from modcoh.errors import DegreeMismatch, LiftFailure
from modcoh.resolutions import FreeResolution

from resolution_oracle import full_boundary, solve_batch


class DiagonalMap:
    """Chain map P_n -> sum_{i+j=n} P_i (x) P_j lifting the identity.

    components[n][(i, j)] holds the images of the degree-n free generators
    as columns over the flat basis of P_i (x) P_j; images of general basis
    vectors follow by the diagonal translation action.
    """

    def __init__(self, resolution: FreeResolution, max_deg: int) -> None:
        self.resolution = resolution
        self.max_deg = max_deg
        self.p = resolution.p
        self._n = resolution.group.order
        self.components: list[dict[tuple[int, int], np.ndarray]] = []
        self._build()

    # -- contracting homotopy --------------------------------------------

    def _space_dim(self, i: int) -> int:
        return self.resolution.ranks[i] * self._n

    def _build_homotopy(self):
        res, p = self.resolution, self.p
        res.extend_to(self.max_deg + 1)
        aug = res.augmentation
        rho0 = solve_batch(aug, np.array([[1]]), p)
        if rho0 is None:
            raise LiftFailure("augmentation is not surjective")
        E = (rho0 @ aug) % p
        rho_amb = [None]  # index i >= 1: ambient right inverse of d_i on ker d_{i-1}
        kernels = [fplinalg.kernel(aug, p)[0].astype(np.int64)]
        for i in range(1, self.max_deg + 2):
            D = full_boundary(res, i)
            Z = kernels[-1]
            if len(Z):
                X = solve_batch(D, Z.T, p)
                if X is None:
                    raise LiftFailure(f"boundary d_{i} does not cover the kernel")
                pivots = fplinalg.pivot_columns(Z)
                amb = np.zeros((self._space_dim(i), self._space_dim(i - 1)),
                               dtype=np.int64)
                amb[:, pivots] = X
            else:
                amb = np.zeros((self._space_dim(i), self._space_dim(i - 1)),
                               dtype=np.int64)
            rho_amb.append(amb)
            kernels.append(fplinalg.kernel(D, p)[0].astype(np.int64))
        s = [None] * (self.max_deg + 1)
        eye0 = np.eye(self._space_dim(0), dtype=np.int64)
        s[0] = (rho_amb[1] @ ((eye0 - E) % p)) % p
        for i in range(1, self.max_deg + 1):
            D = full_boundary(res, i)
            eye = np.eye(self._space_dim(i), dtype=np.int64)
            s[i] = (rho_amb[i + 1] @ ((eye - rho_amb[i] @ D) % p)) % p
        self._E = E
        self._s = s

    # -- diagonal lift -----------------------------------------------------

    def _translate_tensor(self, cols: np.ndarray, i: int, j: int, g: int) -> np.ndarray:
        """(g (x) g) applied to tensor columns over P_i (x) P_j."""
        take = self.resolution._take[g]
        di, dj = self._space_dim(i), self._space_dim(j)
        ri, rj = self.resolution.ranks[i], self.resolution.ranks[j]
        n = self._n
        shaped = cols.reshape(ri, n, rj, n, -1)
        return shaped[:, take][:, :, :, take].reshape(di * dj, -1)

    def _full_matrix(self, n_deg: int, i: int, j: int) -> np.ndarray:
        """Diagonal component on all of P_{n_deg}, not just the generators."""
        comp = self.components[n_deg][(i, j)]
        n = self._n
        r = self.resolution.ranks[n_deg]
        out = np.zeros((comp.shape[0], r * n), dtype=np.int64)
        for g in range(n):
            out[:, g::n] = self._translate_tensor(comp, i, j, g)
        # columns were laid down as (generator, g) with stride n
        return out

    def _build(self) -> None:
        self._build_homotopy()
        res, p, n = self.resolution, self.p, self._n
        r0 = res.ranks[0]
        d0 = self._space_dim(0)
        comp0 = np.zeros((d0 * d0, r0), dtype=np.int64)
        for k in range(r0):
            flat = k * n  # e_{k, identity}
            comp0[flat * d0 + flat, k] = 1
        self.components.append({(0, 0): comp0})
        for deg in range(1, self.max_deg + 1):
            W = res.boundaries[deg - 1]  # (dim P_{deg-1}, r_deg)
            rhs = {}
            for (i, j), _ in self.components[deg - 1].items():
                rhs[(i, j)] = (self._full_matrix(deg - 1, i, j) @ W) % p
            comp = {}
            for (i, j), block in rhs.items():
                di, dj = self._space_dim(i), self._space_dim(j)
                cur = block.reshape(di, dj, -1)
                up = np.tensordot(self._s[i], cur, axes=([1], [0])) % p
                key = (i + 1, j)
                comp[key] = (comp.get(key, 0) + up.reshape(-1, W.shape[1])) % p
                if i == 0:
                    ecur = np.tensordot(self._E, cur, axes=([1], [0])) % p
                    right = np.tensordot(ecur, self._s[j], axes=([1], [1]))
                    right = np.transpose(right, (0, 2, 1)) % p
                    key = (0, j + 1)
                    comp[key] = (comp.get(key, 0) +
                                 right.reshape(-1, W.shape[1])) % p
            comp = {k: v for k, v in comp.items()
                    if k[0] <= self.max_deg and k[1] <= self.max_deg}
            self.components.append(comp)
            self._verify_degree(deg, rhs)

    def _boundary_of_component(self, deg: int, i: int, j: int) -> dict:
        """Apply the tensor differential to stored component columns."""
        res, p = self.resolution, self.p
        di, dj = self._space_dim(i), self._space_dim(j)
        cols = self.components[deg][(i, j)].reshape(di, dj, -1)
        out = {}
        if i > 0:
            D = full_boundary(res, i)
            out[(i - 1, j)] = np.tensordot(D, cols, axes=([1], [0])) % p
        if j > 0:
            D = full_boundary(res, j)
            term = np.tensordot(cols, D, axes=([1], [1]))
            term = np.transpose(term, (0, 2, 1))
            sign = 1 if i % 2 == 0 else -1
            out[(i, j - 1)] = (sign * term) % p
        return out

    def _verify_degree(self, deg: int, rhs: dict) -> None:
        p = self.p
        total: dict[tuple[int, int], np.ndarray] = {}
        for (i, j) in self.components[deg]:
            for key, val in self._boundary_of_component(deg, i, j).items():
                di, dj = self._space_dim(key[0]), self._space_dim(key[1])
                flat = val.reshape(di * dj, -1)
                total[key] = (total.get(key, 0) + flat) % p
        for key, want in rhs.items():
            got = total.get(key, np.zeros_like(want))
            if not np.array_equal(got % p, want % p):
                raise LiftFailure(f"chain-map identity fails at degree {deg}, "
                                  f"component {key}")
        for key, got in total.items():
            if key not in rhs and got.any():
                raise LiftFailure(f"spurious boundary component {key} "
                                  f"at degree {deg}")


def diagonal_approximation(res: FreeResolution, max_deg: int) -> DiagonalMap:
    """Deterministic diagonal lift for a resolution of the trivial module."""
    if res.target.dim != 1 or not res.target.is_trivial():
        raise LiftFailure("diagonal approximation needs the trivial module")
    return DiagonalMap(res, max_deg)


def cup(a: np.ndarray, i: int, b: np.ndarray, j: int,
        diag: DiagonalMap) -> np.ndarray:
    """Cochain-level cup product of trivial-coefficient cocycles.

    a and b are cochain coordinate vectors (length r_i and r_j); the result
    has length r_{i+j}.
    """
    if i + j > diag.max_deg:
        raise DegreeMismatch(
            f"diagonal computed through degree {diag.max_deg}, need {i + j}")
    res, p, n = diag.resolution, diag.p, diag._n
    comp = diag.components[i + j].get((i, j))
    if comp is None:
        raise DegreeMismatch(f"component ({i}, {j}) not available")
    abar = np.repeat(np.asarray(a, dtype=np.int64) % p, n)
    bbar = np.repeat(np.asarray(b, dtype=np.int64) % p, n)
    weights = np.outer(abar, bbar).reshape(-1)
    return (comp.T @ weights) % p


def cup_coordinates(ring, a: np.ndarray, i: int, b: np.ndarray, j: int) -> np.ndarray:
    """Class coordinates of ring.cup(a, i, b, j) in ring's degree-(i + j) basis."""
    return ring.basis(i + j).class_coordinates(ring.cup(a, i, b, j)).reshape(-1)


def product_span_dim(ctx, i: int, j: int, diag: DiagonalMap) -> int:
    """dim span{a cup b} in H^{i+j}, over the basis classes a and b of a
    trivial-coefficient cochain context on diag's resolution."""
    top = ctx.basis(i + j)
    rows = [top.class_coordinates(cup(a, i, b, j, diag)).reshape(-1)
            for a in ctx.basis(i).classes for b in ctx.basis(j).classes]
    return fplinalg.rref_array(np.array(rows), diag.p)[1] if rows and top.dim else 0
