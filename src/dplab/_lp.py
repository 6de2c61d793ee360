"""The one route to a linear program.

Every dplab LP (transport, the constrained D(P) oracle, the augmented
objective) is solved here with the same HiGHS tolerances, over nonnegative
variables. Their equality constraints are all built from two shapes on a
row-major r-by-c block of variables x[i, j]: its row sums and its (weighted)
column sums. The builders emit those blocks straight from index arrays;
callers place them with sparse.bmat.
"""
from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


def row_sums(r: int, c: int) -> sparse.csr_matrix:
    """(r, r*c) block whose row i is Σ_j x[i, j]; equals kron(I_r, 1_c^T)."""
    return sparse.csr_matrix(
        (np.ones(r * c), (np.repeat(np.arange(r), c), np.arange(r * c))), shape=(r, r * c)
    )


def col_sums(r: int, c: int, weights=None) -> sparse.csr_matrix:
    """(c, r*c) block whose row j is Σ_i weights[i] x[i, j]; equals kron(w^T, I_c).

    Unit weights by default. Zero weights store no entry.
    """
    w = np.ones(r) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    block = sparse.csr_matrix(
        (np.repeat(w, c), (np.tile(np.arange(c), r), np.arange(r * c))), shape=(c, r * c)
    )
    block.eliminate_zeros()
    return block


def solve(c, a_eq, b_eq, a_ub=None, b_ub=None):
    """min c·x s.t. a_eq x = b_eq, a_ub x <= b_ub, x >= 0, by the HiGHS solver.

    Returns scipy's OptimizeResult; callers map a nonzero status to their own
    error.
    """
    return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                   method="highs", options=HIGHS_OPTIONS)
