"""Module-level checks that only tests ask, beside `modcoh.gmodules`.

`is_equivariant` tests a matrix against the actions of every group
element, not only the generators.  `coinvariants` is dim M / I M from the
radical rows that a minimal resolution's stage zero reads
(`gmodules.radical_rows`).
"""

import numpy as np

from modcoh import fplinalg
from modcoh.gmodules import radical_rows


def is_equivariant(source, target, matrix) -> bool:
    """Whether matrix (target.dim x source.dim) commutes with every g."""
    p = source.p
    matrix = np.mod(np.asarray(matrix, dtype=np.int64), p)
    for g in range(source.group.order):
        lhs = (matrix @ source.action[g]) % p
        rhs = (target.action[g] @ matrix) % p
        if not np.array_equal(lhs, rhs):
            return False
    return True


def coinvariants(M) -> int:
    """dim M/IM where I is the augmentation ideal."""
    return M.dim - len(fplinalg.rref_pivots(radical_rows(M), M.p))
