"""The benchmark's own reference computations and output checkers.

Nothing here calls dplab: each checker compares a program output with a
value computed independently (quantile coupling, assignment solver, dynamic
program, partition enumeration) or with a property the method must have.
A checker returns None when the output is right and raises CheckFailure
when it is not.
"""
from __future__ import annotations

import json
import math
import re

import numpy as np
from scipy.optimize import linear_sum_assignment

PLAN_MARGINAL_TOL = 1e-9
VALUE_REL_TOL = 1e-9
ORACLE_REL_TOL = 1e-6  # the tolerance `dplab verify` applies to oracle tightness
PHASE_TOL = 1e-8


class CheckFailure(Exception):
    """An output disagrees with the benchmark's own computation."""


def _close(got: float, want: float, rel: float, what: str, abs_tol: float = 1e-12) -> None:
    if not (math.isfinite(got) and abs(got - want) <= rel * abs(want) + abs_tol):
        raise CheckFailure(f"{what}: got {got!r}, expected {want!r} (rel tol {rel:g})")


# --- own computations -------------------------------------------------------


def gaussian_grid_law(mean: float, std: float, n: int, halfwidth: float):
    """Points and probabilities of the gaussian-grid source spec."""
    xs = np.linspace(mean - halfwidth * std, mean + halfwidth * std, n)
    w = np.exp(-0.5 * ((xs - mean) / std) ** 2)
    return xs, w / w.sum()


def w2sq_quantile(xa, pa, xb, pb) -> float:
    """Squared W2 in 1-D from the monotone (quantile) coupling."""
    oa, ob = np.argsort(xa), np.argsort(xb)
    xa, pa, xb, pb = xa[oa], pa[oa], xb[ob], pb[ob]
    ca, cb = np.cumsum(pa), np.cumsum(pb)
    u = np.union1d(ca, cb)
    u = u[u < min(ca[-1], cb[-1])]
    u = np.concatenate([[0.0], u, [1.0]])
    mid = 0.5 * (u[:-1] + u[1:])
    ia = np.minimum(np.searchsorted(ca, mid), len(xa) - 1)
    ib = np.minimum(np.searchsorted(cb, mid), len(xb) - 1)
    return float(np.sum(np.diff(u) * (xa[ia] - xb[ib]) ** 2))


def w1_uniform_assignment(pa, pb) -> float:
    """W1 between two uniform n-point laws in R^d: an optimal assignment."""
    n = pa.shape[0]
    diff = pa[:, None, :] - pb[None, :, :]
    cost = np.sqrt((diff * diff).sum(axis=2))
    r, c = linear_sum_assignment(cost)
    return float(cost[r, c].sum() / n)


def optimal_mse_1d(x, p, k: int) -> float:
    """Minimum MSE of a k-cell scalar quantizer: O(k n^2) DP over interval cells."""
    order = np.argsort(x)
    x, p = np.asarray(x, float)[order], np.asarray(p, float)[order]
    x = x - p @ x / p.sum()  # centring keeps the prefix-sum differences accurate
    s0 = np.concatenate([[0.0], np.cumsum(p)])
    s1 = np.concatenate([[0.0], np.cumsum(p * x)])
    s2 = np.concatenate([[0.0], np.cumsum(p * x * x)])
    m = s0[None, :] - s0[:, None]
    s = s1[None, :] - s1[:, None]
    q = s2[None, :] - s2[:, None]
    n = x.shape[0]
    upper = np.triu(np.ones((n + 1, n + 1), dtype=bool), 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cell = np.where(upper, np.maximum(q - s * s / np.where(upper, m, 1.0), 0.0), np.inf)
    best = cell[0].copy()  # one cell covering points [0, j)
    for _ in range(k - 1):
        best = np.min(best[:, None] + cell, axis=0)
    return float(best[n])


def _set_partitions(n: int, k: int) -> np.ndarray:
    """Every partition of n labelled points into at most k blocks, as
    restricted growth strings (first point in block 0, new blocks in order)."""
    out = []
    rgs = [0] * n

    def grow(i: int, blocks: int) -> None:
        if i == n:
            out.append(list(rgs))
            return
        for b in range(min(blocks + 1, k)):
            rgs[i] = b
            grow(i + 1, max(blocks, b + 1))

    grow(1, 1)
    return np.asarray(out, dtype=np.int64)


def optimal_mse_enumerated(points, probs, k: int) -> float:
    """Minimum MSE over every partition into at most k cells (any dimension)."""
    pts = np.asarray(points, float)
    p = np.asarray(probs, float)
    pts = pts - p @ pts / p.sum()
    parts = _set_partitions(pts.shape[0], k)
    onehot = (parts[:, :, None] == np.arange(k)[None, None, :]).astype(np.float64)
    m = np.einsum("bik,i->bk", onehot, p)
    s = np.einsum("bik,i,id->bkd", onehot, p, pts)
    explained = np.where(m > 0, (s * s).sum(axis=2) / np.where(m > 0, m, 1.0), 0.0)
    total = float(p @ (pts * pts).sum(axis=1))
    return float(np.min(total - explained.sum(axis=1)))


def assignment_mse(points, probs, assignment) -> float:
    """MSE of an encoder's cells under their conditional means, computed directly."""
    pts = np.asarray(points, float)
    p = np.asarray(probs, float)
    a = np.asarray(assignment)
    total = 0.0
    for z in np.unique(a):
        sel = a == z
        w = p[sel]
        centre = w @ pts[sel] / w.sum()
        d = pts[sel] - centre
        total += float(w @ (d * d).sum(axis=1))
    return total


# --- checkers ---------------------------------------------------------------


def check_plan(pi, row_probs, col_probs, cost_matrix, cost: float) -> None:
    """A transport plan is nonnegative, has the input marginals and its cost."""
    pi = np.asarray(pi)
    if pi.shape != (len(row_probs), len(col_probs)):
        raise CheckFailure(f"plan shape {pi.shape} does not match the marginals")
    if not np.all(pi >= 0):
        raise CheckFailure(f"plan has a negative entry {pi.min()!r}")
    gap = max(np.abs(pi.sum(axis=1) - row_probs).max(), np.abs(pi.sum(axis=0) - col_probs).max())
    if not gap <= PLAN_MARGINAL_TOL:
        raise CheckFailure(f"plan marginal gap {gap!r} exceeds {PLAN_MARGINAL_TOL:g}")
    _close(cost, float(np.sum(pi * cost_matrix)), VALUE_REL_TOL, "plan cost vs its own plan")


def check_w2sq_1d(cost: float, xa, pa, xb, pb) -> None:
    _close(cost, w2sq_quantile(xa, pa, xb, pb), VALUE_REL_TOL, "W2^2 vs quantile coupling")


def check_w1_uniform(cost: float, pa, pb) -> None:
    _close(cost, w1_uniform_assignment(pa, pb), VALUE_REL_TOL, "W1 vs optimal assignment")


def check_optimal_dd(d_d: float, want: float, assignment, points, probs, k: int) -> None:
    """D_d is the optimum, and the returned encoder attains it."""
    a = np.asarray(assignment)
    if a.shape != (len(probs),) or a.min() < 0 or a.max() >= k:
        raise CheckFailure(f"assignment {a.tolist()} is not a map into {k} codes")
    _close(d_d, want, VALUE_REL_TOL, "D_d vs own optimum")
    _close(assignment_mse(points, probs, a), d_d, VALUE_REL_TOL, "encoder MSE vs reported D_d")


def check_lloyd(trace, optimum: float) -> None:
    """The MSE trace does not increase and ends at or above the optimum."""
    if not trace:
        raise CheckFailure("empty Lloyd trace")
    rises = [b - a for a, b in zip(trace, trace[1:]) if b > a * (1 + 1e-12)]
    if rises:
        raise CheckFailure(f"Lloyd MSE rose by {max(rises)!r}")
    if not trace[-1] >= optimum * (1 - VALUE_REL_TOL):
        raise CheckFailure(f"Lloyd final MSE {trace[-1]!r} is below the optimum {optimum!r}")


def check_oracle(stdout: str, perception: float, d_d: float) -> None:
    """D_star = (1 + (1 - alpha)^2) D_d with alpha = min(sqrt(P / D_d), 1)."""
    out = json.loads(stdout)
    _close(out["D_d"], d_d, VALUE_REL_TOL, "oracle D_d vs own optimum")
    alpha = min(math.sqrt(perception / d_d), 1.0)
    _close(out["D_star"], (1 + (1 - alpha) ** 2) * d_d, ORACLE_REL_TOL, "oracle D_star")


def check_theorem2(stdout: str, d_d: float) -> None:
    """mse is 2 D_d for every lambda below 1 and D_d above it."""
    lines = stdout.splitlines()
    head = lines[0].split(",")
    col_l, col_mse = head.index("lambda"), head.index("mse")
    rows = [ln.split(",") for ln in lines[1:]]
    if not rows:
        raise CheckFailure("theorem2 printed no rows")
    for r in rows:
        lam, mse = float(r[col_l]), float(r[col_mse])
        if lam == 1.0:
            continue
        want = 2 * d_d if lam < 1 else d_d
        if not abs(mse - want) <= PHASE_TOL * max(1.0, d_d):
            raise CheckFailure(f"theorem2 mse {mse!r} at lambda {lam!r}, expected {want!r}")


_DD_RE = re.compile(r"D_d=([-+0-9.eEinfa]+)")
# checks that `dplab verify` fails on a valid lossless scenario (see CHANGES.md)
KNOWN_FAULTS = ("conditioning_dichotomy", "canonical_support")


def verify_verdict(rc: int, stdout: str, d_d: float, known_faults_ok: bool = False) -> str:
    """'ok' for a clean `dplab verify`; 'known-fault' when known_faults_ok is
    set and every FAIL line is one of KNOWN_FAULTS; CheckFailure for anything
    else."""
    lines = stdout.splitlines()
    if not lines:
        raise CheckFailure(f"verify printed nothing (exit {rc})")
    checks = lines[:-1]
    failed = [ln for ln in checks if not ln.startswith(("PASS ", "SKIP "))]
    m = _DD_RE.search(stdout)
    if m is None:
        raise CheckFailure("verify report carries no D_d")
    got = float(m.group(1))
    # the report prints D_d with 6 significant digits
    half_digit = 0.5 * 10.0 ** (math.floor(math.log10(abs(d_d))) - 5) if d_d else 0.0
    if not abs(got - d_d) <= half_digit * (1 + 1e-9):
        raise CheckFailure(f"verify reports D_d={got!r}, own value {d_d!r}")
    if rc == 0 and not failed:
        return "ok"
    known = tuple(f"FAIL {name}:" for name in KNOWN_FAULTS)
    if known_faults_ok and rc == 1 and failed and all(ln.startswith(known) for ln in failed):
        return "known-fault"
    raise CheckFailure(f"verify exit {rc}, failing lines: {failed}")
