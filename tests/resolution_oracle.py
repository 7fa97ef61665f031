"""Test-side resolutions and lifts to check `modcoh.resolutions` against.

`PaddedResolution` is a free resolution that is deliberately not minimal:
its P_0 repeats the first generator, so e_0 - e_1 lies in the kernel of the
augmentation but not in I . F_p[G]^2.  Ext dimensions must not notice.

`full_boundary_lift` is `FreeResolution.lift` as it solved before lifts
moved onto the pivot rows: each Phi_k from the whole expanded d_k beside
the right-hand sides, and LiftFailure when a right-hand side is outside the
image of d_k.  The solution with free variables zero depends only on d_k's
row space, so both must give the same Phi_k, byte for byte.

`AperiodicResolution` never looks for a period, so it eliminates every
stage and factors every stage's pivot rows.  A resolution that copies
stages past a period must agree with it byte for byte: ranks, boundaries,
kernel pivots, factors, lifts and syzygies.

`solve_batch` is the solve it ran, one elimination of [a | rhs] per call;
lifts now solve through `fplinalg.pivot_inverse`, a factor kept per
stage, and must agree with it byte for byte.
"""

import numpy as np

from modcoh import fplinalg
from modcoh.errors import DimensionMismatch, LiftFailure
from modcoh.resolutions import FreeResolution


class PaddedResolution(FreeResolution):
    """A free resolution whose stage zero repeats its first generator."""

    def _stage_zero_generators(self, M):
        gens = super()._stage_zero_generators(M)
        return gens + gens[:1]


class AperiodicResolution(FreeResolution):
    """A free resolution that computes every stage: it finds no period."""

    def _find_period(self):
        return None


def padded_resolution(M, length):
    """The padded free resolution of M, exact through length."""
    return PaddedResolution(M, minimal=False).extend_to(length)


def solve_batch(a, rhs_cols, p: int):
    """Solve a @ X = rhs for many right-hand sides at once.

    rhs_cols has one rhs per column.  Returns X, one solution per column
    with the free variables zero, or None if any column is inconsistent.
    """
    a = np.asarray(a, dtype=np.int64) % p
    rhs = np.asarray(rhs_cols, dtype=np.int64) % p
    if rhs.shape[0] != a.shape[0]:
        raise DimensionMismatch("rhs row count does not match matrix")
    n = a.shape[1]
    aug = np.hstack([a, rhs])
    reduced, pivots = fplinalg._rref(aug, p)
    rank_a = sum(1 for c in pivots if c < n)
    if rank_a != len(pivots):
        return None
    x = np.zeros((n, rhs.shape[1]), dtype=np.int64)
    for row_idx, pc in enumerate(pivots):
        x[pc] = reduced[row_idx, n:]
    return x


def full_boundary_lift(res, lifts, shift, steps, twist=None):
    """Phi_0 .. Phi_steps as `FreeResolution.lift` gives them, solved on full d_k."""
    p, n = res.p, res.group.order
    res.extend_to(max(shift + steps, 1))
    transversal = [0] if twist is None else twist[0][:, 0]
    nu = len(transversal)
    count = lifts[0].shape[1] // max(res.ranks[shift] * nu, 1)
    for k in range(len(lifts), steps + 1):
        phi = lifts[-1]
        r_src = res.ranks[shift + k - 1]
        tau = res.expand(phi, twist).reshape(len(phi), count, r_src * n)
        W = res.boundaries[shift + k - 1].reshape(r_src, n, -1)
        W = W[:, res._take[transversal]].transpose(0, 2, 3, 1)
        rhs = (tau @ W.reshape(r_src * n, -1)) % p
        phi = solve_batch(res.boundary(k), rhs.reshape(len(phi), -1), p)
        if phi is None:
            raise LiftFailure(f"degree-{shift} maps do not lift to P_{shift + k} -> P_{k}")
        lifts.append(phi)
    return lifts
