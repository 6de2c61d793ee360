"""Exact optimal transport between finite discrete distributions.

w1_exact and w2sq_exact solve the coupling linear program with Euclidean /
squared-Euclidean ground cost; w_1d_closed_form is a deliberately independent
1-D oracle (CDF area for order 1, quantile pairing for order 2) used to check
the LP route. Only the cost is contract-bearing when the optimal plan is
degenerate. Ties among plans are broken by the solver's deterministic pivots,
except in two kinds of LP above _lp.SHARED_MAX_COLS, whose optimum is built
here with its duals and certified by _lp.certify, else solved cold:
- 1-D laws: sorted 1-D supports make both costs Monge arrays, so the
  north-west-corner staircase is optimal (Hoffman 1963), and the plan
  returned is the monotone (quantile) coupling;
- other laws of equal size n with uniform masses: some permutation is optimal
  (Birkhoff 1946). linear_sum_assignment finds one, and shortest paths over
  its alternating arcs give its duals. The plan returned is that permutation
  over n; where several permutations tie, it may differ from a cold solve's,
  at the same cost up to rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _lp
from .distcore import DiscreteDistribution, sq_dists

SIZE_CAP = 512
# _assignment_tree's least relaxation step, relative to n·max|c|: above the
# few-ulp negative cycles that tied costs leave, and at SIZE_CAP points still
# far below CERT_TOL·max(1, ‖c‖∞), the certificate's bound on the negative
# reduced costs it leaves (n·eps ≤ 1.2e-13 against 1e-9).
_TIE_RTOL = float(np.finfo(np.float64).eps)


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """An optimal coupling with its realized cost."""

    pi: np.ndarray
    cost: float


def _check_size(nr: int, nc: int) -> None:
    if nr > SIZE_CAP or nc > SIZE_CAP:
        raise ValueError(f"size cap exceeded: {nr}x{nc} > {SIZE_CAP}x{SIZE_CAP}")


def solve_transport_lp(cost, row_probs, col_probs, *, _monge: bool = False) -> TransportPlan:
    """Exact transportation LP: min Σ pi*cost s.t. fixed marginals, pi >= 0.

    Solved with the HiGHS simplex at 1e-10 feasibility/optimality tolerances,
    which returns an optimal basic solution. Marginal totals may differ by at
    most 1e-9; the column side is rescaled to close that drift before solving.
    Above _lp.SHARED_MAX_COLS a structured LP is certified, else solved cold:
    _staircase(a, b, c) where w1_exact or w2sq_exact say (_monge, internal to
    this module) that the cost is a Monge array on sorted 1-D supports, else
    _assignment_tree(c, a[0]) where nr == nc and each marginal is uniform. An
    optimum that fails _lp.certify, or duals that do not settle, go to the
    cold solve, so every plan returned passes the same certificate.
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
    _check_size(nr, nc)
    sa, sb = float(a.sum()), float(b.sum())
    if abs(sa - sb) > 1e-9:
        raise ValueError(f"infeasible marginals: totals {sa!r} and {sb!r} differ by more than 1e-9")
    if sb > 0:
        b = b * (sa / sb)

    # pi[i, j] sits in row-marginal row i and column-marginal row nr + j; one
    # equality is redundant but consistent, which HiGHS handles with presolve
    # (small LPs) or without it (above _lp.SHARED_MAX_COLS).
    flat, a_eq, b_eq = c.reshape(-1), _lp.marginals(nr, nc), np.concatenate([a, b])
    optimum = None
    if nr * nc > _lp.SHARED_MAX_COLS:
        if _monge:
            optimum = _staircase(a, b, c)
        elif nr == nc and (a == a[0]).all() and (b == b[0]).all():
            optimum = _assignment_tree(c, a[0])
    res = None if optimum is None else _lp.certify(a_eq, flat, b_eq, np.empty(0), *optimum)
    if res is None or res.status != 0:
        res = _lp.solve(flat, a_eq, b_eq)
    if res.status != 0:
        raise ValueError(f"transport LP failed: {res.message}")
    pi = np.maximum(res.x.reshape(nr, nc), 0.0)
    realized = float((pi * c).sum())
    return TransportPlan(pi=pi, cost=realized)


def _staircase(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """The north-west-corner plan for masses a and b and its duals, as the
    flat x and y = (u, v) of the transport LP with cost c.

    The staircase runs over nr + nc - 1 cells from (0, 0) to (nr - 1, nc - 1).
    Step k advances the row if the k-th smallest inner cumulative mass,
    cumsum(a)[:-1] merged stably with cumsum(b)[:-1], is a row's, else the
    column; rows go first on ties, so a tie puts zero mass on a cell instead
    of skipping a corner. Each cell carries the step between consecutive
    merged cumulative masses. With u_0 = 0 and v_0 = c[0, 0], a row step adds
    its cost difference to u and a column step to v, so every staircase cell
    is tight; on a Monge cost every other reduced cost is nonnegative.
    """
    nr, nc = len(a), len(b)
    ca = np.cumsum(a)
    merged = np.concatenate([ca[:-1], np.cumsum(b)[:-1]])
    order = np.argsort(merged, kind="stable")
    col_step = order >= nr - 1
    rows = np.concatenate([[0], np.cumsum(~col_step)])
    cols = np.concatenate([[0], np.cumsum(col_step)])
    x = np.zeros(nr * nc)
    x[rows * nc + cols] = np.diff(np.concatenate([[0.0], merged[order], ca[-1:]]))
    rise = np.diff(c[rows, cols])
    u = np.concatenate([[0.0], np.cumsum(rise[~col_step])])
    v = np.concatenate([[0.0], np.cumsum(rise[col_step])]) + c[0, 0]
    return x, np.concatenate([u, v])


def _assignment_tree(c: np.ndarray, mass: float):
    """An optimal plan for the n x n cost c under uniform marginals of the
    given mass, and its duals, as the flat x and y = (u, v) of the transport
    LP; None if the duals did not settle.

    Some permutation is optimal (Birkhoff 1946): linear_sum_assignment gives
    one, σ, and x puts mass on each cell (k, σk). Row potentials u are
    shortest-path distances from row 0 over the arcs k -> i of length
    c[i, σk] - c[k, σk], which has no negative cycle because σ is optimal;
    Bellman-Ford passes over the rows whose distance fell last pass find
    them. With column potentials v[σk] = c[k, σk] - u_k the cells (k, σk)
    are tight and every reduced cost c[i, σk] - u_i - v[σk] is the arc's
    slack, nonnegative at the shortest paths.

    Tied costs make cycles of a few ulps below zero; relaxing on those would
    loop until the pass limit. So a distance falls only by more than
    n·eps·max|c|, every reduced cost is then at least minus that, and a pass
    limit reached gives None, a cold solve.
    """
    from scipy.optimize import linear_sum_assignment  # only these LPs need it

    n = len(c)
    sigma = linear_sum_assignment(c)[1]
    matched = c[np.arange(n), sigma]
    arc = c[:, sigma].T
    arc -= matched[:, None]  # arc[k, i]: from row k to row i
    tol = _TIE_RTOL * n * np.abs(c).max()
    dist = arc[0].copy()
    changed = np.arange(1, n)
    for _ in range(n):
        via = arc[changed]
        via += dist[changed, None]
        best = via.min(axis=0)
        fell = np.flatnonzero(best < dist - tol)
        if not len(fell):
            break
        dist[fell] = best[fell]
        changed = fell
    else:
        return None
    x = np.zeros(n * n)
    x[np.arange(n) * n + sigma] = mass
    v = np.empty(n)
    v[sigma] = matched - dist
    return x, np.concatenate([dist, v])


def _w_exact(a: DiscreteDistribution, b: DiscreteDistribution, order: int) -> TransportPlan:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    _check_size(a.n, b.n)  # before the (n, m, d) work array of sq_dists
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
