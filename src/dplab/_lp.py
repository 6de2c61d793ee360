"""The one route to a linear program.

Every dplab LP (transport, which the augmented objective reduces to, and the
constrained D(P) oracle) is solved here by one direct call into scipy's HiGHS
binding, with options built once, over nonnegative variables. In both, each
variable sits in exactly two equality rows: a mass row with coefficient 1 and
a marginal row below it with a weight (1, or minus a cell's mass). `incidence`
writes every equality matrix in CSC form from those row indices and weights,
which may broadcast; `marginals`, the transport pair, is cached per shape for
the shapes the shared solver runs.

The model goes to HiGHS as the CSC arrays themselves. LPs of at most
SHARED_MAX_COLS columns share one solver instance: passing a model clears the
previous model, basis and solution, so no solve sees another's state
(tests/test_lp.py solves the same LPs in several orders and after failures).
A larger LP gets a fresh instance, dropped as soon as its solution is read:
its work arrays do not stay resident, and x, y and the certificate's
temporaries are never allocated beside them. Each solve is then checked by a
primal/dual certificate instead of linprog's looser feasibility check. With
no optimum, the status is 2 if HiGHS proved the LP infeasible, else 4: no
solver limit is set and every LP is bounded, so linprog's 1 and 3 never arise.
HiGHS's tolerances are absolute and the certificate's scales floor at 1, so a
cost vector, or a `<=` row with its bound, whose largest magnitude is below 1
is first lifted by the exact power of two that brings it into [1, 2).

The same size gate picks the options. The shared instance holds exactly the
options `linprog(method="highs", options=HIGHS_OPTIONS)` would pass, and a
fresh one those of `options={**HIGHS_OPTIONS, "presolve": False}`, so the
returned x is the same to the bit as linprog's with the matching options
(tests/test_lp.py holds both). On a transport LP presolve removes only the
one redundant marginal row (both marginals sum to one mass), then postsolves
and finishes on the original LP; above the gate that round trip costs about
half of run()'s time and memory. Small LPs keep presolve, as every pinned
output was solved that way; the largest pinned LP, the oracle's on gauss33 at
rate 2, has 5,032 columns. Outputs whose LPs exceed the gate (transport
between sources of about 91 points and more) move in their last digits, or
pick another optimum where the LP has several.

`certify` is the one verdict on a primal/dual pair, whoever produced it:
`solve` applies it to HiGHS's solution, and transport to the optimum it
builds itself for a structured LP above the gate.
"""
from __future__ import annotations

import functools
import math
import threading
from typing import NamedTuple, Optional

import numpy as np
from scipy import sparse
from scipy.optimize._highspy import _core as _highs

HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# Certificate tolerance: on each row's residual relative to the size of the
# terms it sums (see certificate), and relative to max(1, ‖c‖∞) on the dual side.
CERT_TOL = 1e-9
# LPs up to this many columns run on the shared solver with presolve; larger
# ones get a fresh instance without it (_LARGE_OPTIONS). verify on gauss33 at
# rate 2 solves LPs of up to 5,032 columns (median 20), where building an
# instance is a visible share of each solve. Measured on 128-256 point
# transport LPs before structured optima skipped HiGHS, so now true of cold
# LPs above the gate only (non-uniform or unequal-size laws, large oracles):
# sharing the instance raised a 20-s run's peak RSS from 146 to 171 MB, and
# presolve off took 256x256 planar W1 LPs' run() from 0.35-0.72 s to
# 0.13-0.39 s and peak RSS from 138 to 112 MB (2-core x86-64, scipy 1.17.1).
# On small LPs presolve off would move pinned outputs' last digits. The same
# bound decides which transport shapes `marginals` keeps cached.
SHARED_MAX_COLS = 8192


def _highs_options() -> _highs.HighsOptions:
    """The options linprog(method="highs") sets for HIGHS_OPTIONS."""
    opts = _highs.HighsOptions()
    opts.presolve = "on"
    opts.simplex_strategy = _highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    opts.highs_debug_level = _highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.log_to_console = False
    opts.output_flag = False
    for key, value in HIGHS_OPTIONS.items():
        setattr(opts, key, value)
    return opts


def _pass_options(highs: _highs._Highs, options: _highs.HighsOptions) -> None:
    if highs.passOptions(options) != _highs.HighsStatus.kOk:
        raise RuntimeError("HiGHS rejected dplab's solver options")


def _solver() -> _highs._Highs:
    """A HiGHS instance holding _OPTIONS."""
    highs = _highs._Highs()
    _pass_options(highs, _OPTIONS)
    return highs


_OPTIONS = _highs_options()
# A fresh instance's options: linprog's for {**HIGHS_OPTIONS, "presolve": False}.
_LARGE_OPTIONS = _highs_options()
_LARGE_OPTIONS.presolve = "off"
_LARGE_MATRIX_VALUE = _OPTIONS.large_matrix_value
_INFINITE_COST = _OPTIONS.infinite_cost
_SHARED = _solver()
_SHARED_LOCK = threading.Lock()


class LPResult(NamedTuple):
    """x is None unless status is 0; 2 is proven infeasibility, 4 any other failure."""

    x: Optional[np.ndarray]
    status: int
    message: str


def incidence(first, second, weight, n_rows: int) -> sparse.csc_array:
    """(n_rows, N) matrix, one column per entry of the shape that first,
    second and weight broadcast to, in C order: column j holds 1 at row
    first[j] and weight[j] at row second[j] > first[j].

    So 1-D arguments (weight may be a scalar) give len(first) columns, and an
    (r, 1) first against a (c,) second gives column i*c + j. A zero weight
    (either sign) stores no entry, so every column holds one or two entries,
    the 1 first; indices are int32.
    """
    shape = np.broadcast_shapes(np.shape(first), np.shape(second), np.shape(weight)) + (2,)
    indices = np.empty(shape, dtype=np.int32)
    indices[..., 0], indices[..., 1] = first, second
    data = np.ones(shape)
    data[..., 1] = weight
    a = sparse.csc_array((data.reshape(-1), indices.reshape(-1),
                          np.arange(0, data.size + 1, 2, dtype=np.int32)),
                         shape=(n_rows, data.size // 2))
    if (np.asarray(weight) == 0).any():
        a.eliminate_zeros()
    return a


def marginals(r: int, c: int) -> sparse.csc_array:
    """(r+c, r*c) row sums stacked over column sums, in CSC form.

    Column i*c + j holds two unit entries, at rows i and r + j; equals
    kron(I_r, 1_c^T) stacked over kron(1_r^T, I_c): `incidence` of a column
    of row indices against a row of them. Its arrays are read-only. Shapes the
    shared solver runs (r*c at most SHARED_MAX_COLS) are built once and shared
    by every caller, the 64 most recently used kept; a larger shape is built
    per call, in 0.2-0.4 ms at 256x256 against its LP's tens of
    milliseconds, so it is freed with its LP.
    """
    return (_marginals_cached if r * c <= SHARED_MAX_COLS else _build_marginals)(r, c)


def _build_marginals(r: int, c: int) -> sparse.csc_array:
    a = incidence(np.arange(r)[:, None], np.arange(r, r + c), 1.0, r + c)
    for part in (a.indices, a.indptr, a.data):
        part.flags.writeable = False
    return a


_marginals_cached = functools.lru_cache(maxsize=64)(_build_marginals)


def solve(c, a_eq, b_eq, a_ub=None, b_ub=None) -> LPResult:
    """min c·x s.t. a_eq x = b_eq, a_ub x <= b_ub, x >= 0, by the HiGHS solver.

    The size gate, SHARED_MAX_COLS columns, picks the instance and the
    options. LPs at or below it run on one shared solver instance with
    presolve. Larger ones run on a fresh instance each without presolve,
    freed once its solution is read and before x and y are copied out and
    certified. Passing the model resets the solver, so no basis carries over
    between solves. Non-finite data, a constraint entry reaching HiGHS's
    large_matrix_value or a cost reaching its infinite_cost raise ValueError:
    HiGHS would refuse the model or treat the cost as infinite. Then c and
    each <= row below 1 are lifted (module docstring), a lifted bound capped
    at HiGHS's infinite_bound; only x moves, for callers to price. Status 2 is
    infeasibility HiGHS proved, 4 any other failure, `certify`'s included;
    callers map a nonzero status to their own error.
    """
    c = np.asarray(c, dtype=np.float64)
    b_eq = np.asarray(b_eq, dtype=np.float64)
    b_ub = np.asarray([] if b_ub is None else b_ub, dtype=np.float64)
    a = a_eq.tocsc() if a_ub is None else sparse.vstack([a_ub, a_eq], format="csc")
    # a largest magnitude is NaN or inf exactly when some entry is
    top_c, top_a = np.abs(c).max(initial=0.0), np.abs(a.data).max(initial=0.0)
    for name, finite in (("c", math.isfinite(top_c)), ("b_eq", np.isfinite(b_eq).all()),
                         ("b_ub", np.isfinite(b_ub).all()),
                         ("constraint matrix", math.isfinite(top_a))):
        if not finite:
            raise ValueError(f"LP {name} must be finite")
    for name, top, limit, bound in (
            ("constraint matrix entry", top_a, "large_matrix_value", _LARGE_MATRIX_VALUE),
            ("cost", top_c, "infinite_cost", _INFINITE_COST)):
        if top >= bound:
            raise ValueError(f"LP {name} {top:.3g} reaches HiGHS {limit} {bound:.3g}")
    if 0.0 < top_c < 1.0:  # the lift below 1 (module docstring)
        c = np.ldexp(c, 1 - math.frexp(top_c)[1])
    if len(b_ub):  # a holds vstack's own arrays, never marginals' read-only ones
        ub, top_ub = a.indices < len(b_ub), np.zeros(len(b_ub))
        np.maximum.at(top_ub, a.indices[ub], np.abs(a.data[ub]))
        k = np.where((top_ub > 0) & (top_ub < 1), 1 - np.frexp(top_ub)[1], 0)
        a.data[ub] = np.ldexp(a.data[ub], k[a.indices[ub]])
        cap = np.ldexp(_OPTIONS.infinite_bound, -k)  # HiGHS reads a bound there as none
        b_ub = np.ldexp(np.clip(b_ub, -cap, cap), k)
    n_row, n_col = a.shape
    if n_col <= SHARED_MAX_COLS:
        highs = _SHARED
    else:
        highs = _solver()
        _pass_options(highs, _LARGE_OPTIONS)
    row_lower = np.concatenate([np.full(len(b_ub), -np.inf), b_eq])
    row_upper = np.concatenate([b_ub, b_eq])
    with _SHARED_LOCK:  # the shared instance serves one solve at a time
        rejected = highs.passModel(
            n_col, n_row, a.nnz, _highs.MatrixFormat.kColwise, _highs.ObjSense.kMinimize,
            0.0, c, np.zeros(n_col), np.full(n_col, np.inf), row_lower, row_upper,
            a.indptr, a.indices, a.data, np.zeros(n_col, dtype=np.int32),
        ) == _highs.HighsStatus.kError
        if (rejected or highs.run() == _highs.HighsStatus.kError
                or highs.getModelStatus() != _highs.HighsModelStatus.kOptimal):
            status = highs.getModelStatus()  # "Not Set" after a rejected model
            primal = highs.solutionStatusToString(highs.getInfo().primal_solution_status)
            return LPResult(None, 2 if status == _highs.HighsModelStatus.kInfeasible else 4,
                            f"HiGHS {'rejected the model' if rejected else 'found no optimum'}: "
                            f"model_status is {highs.modelStatusToString(status)}; "
                            f"primal_status is {primal}")
        solution = highs.getSolution()
    # A fresh instance's working set is freed here, before x, y and the
    # certificate are allocated beside it; _SHARED keeps the shared one.
    del highs
    x = np.array(solution.col_value)
    y = np.array(solution.row_dual)
    del solution

    return certify(a, c, b_eq, b_ub, x, y)


def certify(a, c, b_eq, b_ub, x, y) -> LPResult:
    """x as an optimum (status 0) if the pair (x, y) passes the certificate,
    else status 4: a scaled primal residual or bound violation above
    CERT_TOL, or a reduced cost or duality gap beyond CERT_TOL·max(1, ‖c‖∞).
    The arguments are certificate's.
    """
    primal, dual, gap = certificate(a, c, b_eq, b_ub, x, y)
    scale = max(1.0, float(np.abs(c).max(initial=0.0)))
    if not (primal <= CERT_TOL and dual <= CERT_TOL * scale and gap <= CERT_TOL * scale):
        return LPResult(None, 4, f"LP certificate failed: primal residual {primal:.3g}, "
                                 f"dual infeasibility {dual:.3g}, duality gap {gap:.3g} "
                                 f"(scale {scale:.3g})")
    return LPResult(x, 0, "Optimization terminated successfully.")


def certificate(a, c, b_eq, b_ub, x, y) -> tuple:
    """(primal residual, dual infeasibility, duality gap) of a primal/dual pair.

    a is CSC and stacks the b_ub rows over the b_eq rows. The primal residual
    is the worst equality residual, <= row violation or negative x; each row's
    residual is taken relative to max(1, Σ_j |a_ij x_j|), so rows of
    probabilities are held to an absolute bound. The dual infeasibility is the
    worst negative reduced cost c - Aᵀy or positive multiplier on a <= row
    (with both, b·y bounds c·x from below); the gap is |c·x - b·y|. Any
    non-finite entry makes all three NaN, which fails every comparison.
    """
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        return (np.nan,) * 3
    m_ub = len(b_ub)
    n_row, n_col = a.shape
    rhs = np.concatenate([b_ub, b_eq])
    col = np.repeat(np.arange(n_col), a.indptr[1:] - a.indptr[:-1])  # a is CSC
    terms = a.data * x[col]
    ax = np.bincount(a.indices, weights=terms, minlength=n_row)
    residual = (ax - rhs) / np.maximum(
        1.0, np.bincount(a.indices, weights=np.abs(terms, out=terms), minlength=n_row))
    primal = max(np.abs(residual[m_ub:]).max(initial=0.0),
                 residual[:m_ub].max(initial=0.0), -x.min(initial=0.0))
    aty = np.bincount(col, weights=a.data * y[a.indices], minlength=n_col)
    dual = max(-(c - aty).min(initial=0.0), y[:m_ub].max(initial=0.0))
    gap = abs(c @ x - rhs @ y)
    return float(primal), float(dual), float(gap)
