"""Exact optimal transport between finite discrete distributions.

w1_exact and w2sq_exact solve the coupling linear program with Euclidean /
squared-Euclidean ground cost; w_1d_closed_form is a deliberately independent
1-D oracle (CDF area for order 1, quantile pairing for order 2) used to check
the LP route. Only the cost is contract-bearing when the optimal plan is
degenerate; ties among plans are broken by the solver's deterministic pivots.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _lp
from .distcore import DiscreteDistribution, sq_dists

SIZE_CAP = 512


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """An optimal coupling with its realized cost.

    row/col are the coupled distributions when the plan was built from point
    geometry (w1_exact / w2sq_exact) and None for raw cost-matrix solves;
    order is the ground-cost exponent (1 or 2) or None for raw solves.
    """

    pi: np.ndarray
    cost: float
    order: Optional[int] = None
    row: Optional[DiscreteDistribution] = None
    col: Optional[DiscreteDistribution] = None

    def to_jsonable(self) -> dict:
        out = {"pi": self.pi.tolist(), "cost": self.cost, "order": self.order}
        if self.row is not None:
            out["row_points"] = self.row.points.tolist()
            out["row_probs"] = self.row.probs.tolist()
        if self.col is not None:
            out["col_points"] = self.col.points.tolist()
            out["col_probs"] = self.col.probs.tolist()
        return out


def solve_transport_lp(cost, row_probs, col_probs) -> TransportPlan:
    """Exact transportation LP: min Σ pi*cost s.t. fixed marginals, pi >= 0.

    Solved with the HiGHS simplex at 1e-10 feasibility/optimality tolerances,
    which returns an optimal basic solution. Marginal totals may differ by at
    most 1e-9; the column side is rescaled to close that drift before solving.
    """
    c = np.asarray(cost, dtype=np.float64)
    a = np.asarray(row_probs, dtype=np.float64).reshape(-1)
    b = np.asarray(col_probs, dtype=np.float64).reshape(-1)
    nr, nc = a.shape[0], b.shape[0]
    if c.shape != (nr, nc):
        raise ValueError(f"cost matrix shape {c.shape} does not match marginals ({nr}, {nc})")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix must be finite")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("negative prob in marginals")
    if nr > SIZE_CAP or nc > SIZE_CAP:
        raise ValueError(f"size cap exceeded: {nr}x{nc} > {SIZE_CAP}x{SIZE_CAP}")
    sa, sb = float(a.sum()), float(b.sum())
    if abs(sa - sb) > 1e-9:
        raise ValueError(f"infeasible marginals: totals {sa!r} and {sb!r} differ by more than 1e-9")
    if sb > 0:
        b = b * (sa / sb)

    # Row-sum block stacked over column-sum block; one equality is redundant
    # but consistent, which HiGHS presolve handles.
    res = _lp.solve(c.reshape(-1), _lp.marginals(nr, nc), np.concatenate([a, b]))
    if res.status != 0:
        raise ValueError(f"transport LP failed: {res.message}")
    pi = np.maximum(res.x.reshape(nr, nc), 0.0)
    realized = float(np.sum(pi * c))
    return TransportPlan(pi=pi, cost=realized)


def _w_exact(a: DiscreteDistribution, b: DiscreteDistribution, order: int) -> TransportPlan:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    sq = sq_dists(a.points, b.points)
    cost = np.sqrt(sq) if order == 1 else sq
    plan = solve_transport_lp(cost, a.probs, b.probs)
    return TransportPlan(pi=plan.pi, cost=plan.cost, order=order, row=a, col=b)


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
