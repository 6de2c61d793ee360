"""Exact optimal transport between finite discrete distributions.

w1_exact and w2sq_exact solve the coupling linear program with Euclidean /
squared-Euclidean ground cost; w_1d_closed_form is a deliberately independent
1-D oracle (CDF area for order 1, quantile pairing for order 2) used to check
the LP route. Only the cost is contract-bearing when the optimal plan is
degenerate. Ties among plans are broken by the solver's deterministic pivots,
except in two kinds of LP above _lp.SHARED_MAX_COLS, which start from an
optimal basis that HiGHS confirms without a pivot:
- 1-D laws: sorted 1-D supports make both costs Monge arrays, so the
  north-west-corner staircase is an optimal basis (Hoffman 1963), and the
  plan returned is the monotone (quantile) coupling;
- other laws of equal size n with uniform masses: some permutation is optimal
  (Birkhoff 1946). linear_sum_assignment finds one, and shortest paths over
  its alternating arcs complete it to a tree of 2n - 1 tight cells. The plan
  returned is that permutation over n; where several permutations tie, it
  may differ from a cold start's, at the same cost up to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lp
from .distcore import DiscreteDistribution, sq_dists

SIZE_CAP = 512
# _assignment_tree's least relaxation step, relative to n·max|c|: above the
# few-ulp negative cycles that tied costs leave, and below HiGHS's 1e-10 dual
# tolerance while n·max|c| stays under about 4e5 (beyond that HiGHS may pivot
# away from the start).
_TIE_RTOL = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """An optimal coupling with its realized cost."""

    pi: np.ndarray
    cost: float


def solve_transport_lp(cost, row_probs, col_probs, *, _monge: bool = False) -> TransportPlan:
    """Exact transportation LP: min Σ pi*cost s.t. fixed marginals, pi >= 0.

    Solved with the HiGHS simplex at 1e-10 feasibility/optimality tolerances,
    which returns an optimal basic solution. Marginal totals may differ by at
    most 1e-9; the column side is rescaled to close that drift before solving.
    HiGHS starts from its own basis, except in an LP above
    _lp.SHARED_MAX_COLS that is one of two kinds:
    - w1_exact and w2sq_exact say (_monge, internal to this module) that the
      cost is a Monge array, on sorted 1-D supports: it starts from the
      north-west-corner staircase over the rescaled marginals;
    - otherwise, nr == nc and each marginal is uniform: it starts from
      _assignment_tree(c), an optimal permutation completed to a spanning
      tree of tight cells, or cold if tied costs keep that tree from forming.
    """
    c = np.asarray(cost, dtype=np.float64)
    a = np.asarray(row_probs, dtype=np.float64).reshape(-1)
    b = np.asarray(col_probs, dtype=np.float64).reshape(-1)
    nr, nc = a.shape[0], b.shape[0]
    if c.shape != (nr, nc):
        raise ValueError(f"cost matrix shape {c.shape} does not match marginals ({nr}, {nc})")
    if not np.isfinite(c).all():
        raise ValueError("cost matrix must be finite")
    if (a < 0).any() or (b < 0).any():
        raise ValueError("negative prob in marginals")
    if nr > SIZE_CAP or nc > SIZE_CAP:
        raise ValueError(f"size cap exceeded: {nr}x{nc} > {SIZE_CAP}x{SIZE_CAP}")
    sa, sb = float(a.sum()), float(b.sum())
    if abs(sa - sb) > 1e-9:
        raise ValueError(f"infeasible marginals: totals {sa!r} and {sb!r} differ by more than 1e-9")
    if sb > 0:
        b = b * (sa / sb)

    # pi[i, j] sits in row-marginal row i and column-marginal row nr + j; one
    # equality is redundant but consistent, which HiGHS handles with presolve
    # (small LPs) or without it (above _lp.SHARED_MAX_COLS). A start makes
    # the last row's slack basic beside a tree's nr + nc - 1 cells.
    cells = None
    if nr * nc > _lp.SHARED_MAX_COLS:
        if _monge:
            cells = _staircase(a, b)
        elif nr == nc and (a == a[0]).all() and (b == b[0]).all():
            cells = _assignment_tree(c)
    start = None if cells is None else (cells, [nr + nc - 1])
    res = _lp.solve(c.reshape(-1), _lp.marginals(nr, nc), np.concatenate([a, b]), start=start)
    if res.status != 0:
        raise ValueError(f"transport LP failed: {res.message}")
    pi = np.maximum(res.x.reshape(nr, nc), 0.0)
    realized = float((pi * c).sum())
    return TransportPlan(pi=pi, cost=realized)


def _staircase(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat indices of the north-west-corner basis for masses a and b: the
    nr + nc - 1 cells from (0, 0) to (nr - 1, nc - 1), one index advancing
    per step.

    Step k advances the row if the k-th smallest inner cumulative mass,
    cumsum(a)[:-1] merged stably with cumsum(b)[:-1], is a row's; rows go
    first on ties, so a tie adds a basic cell at zero mass instead of
    skipping a corner.
    """
    nr, nc = len(a), len(b)
    merged = np.concatenate([np.cumsum(a)[:-1], np.cumsum(b)[:-1]])
    col_step = np.argsort(merged, kind="stable") >= nr - 1
    rows = np.concatenate([[0], np.cumsum(~col_step)])
    cols = np.concatenate([[0], np.cumsum(col_step)])
    return rows * nc + cols


def _assignment_tree(c: np.ndarray):
    """Flat indices of an optimal basis for the n x n cost c under uniform
    marginals, the 2n - 1 cells of a tree whose every cell is tight; None if
    no tree was found.

    Some permutation is optimal (Birkhoff 1946): linear_sum_assignment gives
    one, σ. Row potentials u are shortest-path distances from row 0 over the
    arcs k -> i of length c[i, σk] - c[k, σk], which has no negative cycle
    because σ is optimal; with column potentials c[k, σk] - u_k every reduced
    cost is nonnegative. Bellman-Ford passes over the rows whose distance
    fell last pass find u and each row's predecessor. The cells (i, σi) and,
    for each row i but row 0, (i, σ(pred i)) are then tight and connect all
    2n rows and columns, so the basis is primal and dual feasible.

    Tied costs make cycles of a few ulps below zero; relaxing on those would
    loop until the pass limit and leave cycles among the predecessors. So a
    distance falls only by more than n·eps·max|c|, every reduced cost is then
    at least minus that, and predecessors that do not all lead to row 0 (or
    a pass limit reached) give None, a cold start.
    """
    from scipy.optimize import linear_sum_assignment  # only these LPs need it

    n = len(c)
    sigma = linear_sum_assignment(c)[1]
    arc = c[:, sigma].T
    arc -= c[np.arange(n), sigma][:, None]  # arc[k, i]: from row k to row i
    tol = _TIE_RTOL * n * np.abs(c).max()
    dist, pred = arc[0].copy(), np.zeros(n, dtype=np.intp)
    changed = np.arange(1, n)
    for _ in range(n):
        via = arc[changed]
        via += dist[changed, None]
        best = via.min(axis=0)
        fell = np.flatnonzero(best < dist - tol)
        if not len(fell):
            break
        dist[fell] = best[fell]
        pred[fell] = changed[via[:, fell].argmin(axis=0)]
        changed = fell
    else:
        return None
    root = pred.copy()
    for _ in range(n.bit_length()):
        root = root[root]
    if pred[0] != 0 or root.any():
        return None
    rows = np.arange(n)
    return np.concatenate([rows * n + sigma, rows[1:] * n + sigma[pred[1:]]])


def _w_exact(a: DiscreteDistribution, b: DiscreteDistribution, order: int) -> TransportPlan:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    cost = sq_dists(a.points, b.points)
    if order == 1:
        np.sqrt(cost, out=cost)  # in place: the array is this call's own
    # on sorted 1-D supports both |x - y| and (x - y)^2 are Monge arrays
    return solve_transport_lp(cost, a.probs, b.probs, _monge=a.dim == 1)


def w1_exact(a: DiscreteDistribution, b: DiscreteDistribution) -> TransportPlan:
    """Exact Wasserstein-1 distance (Euclidean ground cost) with its plan."""
    return _w_exact(a, b, 1)


def w2sq_exact(a: DiscreteDistribution, b: DiscreteDistribution) -> TransportPlan:
    """Exact squared Wasserstein-2: min Σ pi·‖·‖². No square root is taken."""
    return _w_exact(a, b, 2)


def w_1d_closed_form(a: DiscreteDistribution, b: DiscreteDistribution, order: int) -> float:
    """Closed-form 1-D Wasserstein cost, independent of the LP route.

    order 1: area between the two step CDFs over the merged breakpoint grid.
    order 2: squared quantile-function gap integrated over merged probability
    breakpoints (the monotone coupling). Both are exact piecewise sums.
    """
    if a.dim != 1 or b.dim != 1:
        raise ValueError("w_1d_closed_form requires dimension 1")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    xa, xb = a.points[:, 0], b.points[:, 0]

    if order == 1:
        xs = np.unique(np.concatenate([xa, xb]))
        pref_a = np.concatenate([[0.0], np.cumsum(a.probs)])
        pref_b = np.concatenate([[0.0], np.cumsum(b.probs)])
        fa = pref_a[np.searchsorted(xa, xs, side="right")]
        fb = pref_b[np.searchsorted(xb, xs, side="right")]
        return float(np.sum(np.abs(fa - fb)[:-1] * np.diff(xs)))

    ca, cb = np.cumsum(a.probs), np.cumsum(b.probs)
    ia = ib = 0
    u = 0.0
    total = 0.0
    while ia < ca.shape[0] and ib < cb.shape[0]:
        target = min(ca[ia], cb[ib])
        step = target - u
        if step > 0:
            total += step * (xa[ia] - xb[ib]) ** 2
        u = target
        if ca[ia] <= target:
            ia += 1
        if ib < cb.shape[0] and cb[ib] <= target:
            ib += 1
    return float(total)
