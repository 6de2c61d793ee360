import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.optimize._highspy import _core as _highs

from dplab import _lp, transport
from dplab._lp import CERT_TOL, HIGHS_OPTIONS, certificate, incidence, marginals
from dplab.augmented import solve_augmented
from dplab.codec import (Encoder, decoder_output_dist, exhaustive_optimal_encoder,
                         perceptual_decoder_for)
from dplab.distcore import (builtin_source, gaussian_grid, joint_from_encoder, make_distribution,
                            sq_dists)
from dplab.tradeoff import constrained_oracle, default_oracle_support, interpolate
from dplab.transport import _assignment_tree, _staircase, w1_exact, w2sq_exact, w_1d_closed_form

U4 = builtin_source("u4")
GAUSS33 = builtin_source("gauss33")


def _dense_incidence(first, second, weight, n_rows):
    """incidence by its definition: column j is e_first[j] + weight[j] e_second[j]."""
    weight = np.broadcast_to(np.asarray(weight, dtype=np.float64), (len(first),))
    dense = np.zeros((n_rows, len(first)))
    for j, (f, s, w) in enumerate(zip(first, second, weight)):
        dense[f, j] = 1.0
        dense[s, j] = w
    return dense


@pytest.mark.parametrize("weight", [np.array([0.5, 0.0, -0.25, 1.0, -0.0]), 1.0, -0.5],
                         ids=["array", "unit", "scalar"])
def test_incidence_matches_dense_definition(weight):
    first, second = np.array([0, 0, 1, 2, 3]), np.array([4, 1, 5, 4, 5])
    built = incidence(first, second, weight, 6)
    dense = _dense_incidence(first, second, weight, 6)
    assert built.shape == (6, 5) and built.format == "csc"
    assert np.array_equal(built.toarray(), dense)
    # zero weights (of either sign) store no entry; the 1 comes first in each column
    assert built.nnz == np.count_nonzero(dense)
    assert np.array_equal(built.data[built.indptr[:-1]], np.ones(5))
    assert built.has_sorted_indices
    for name in ("indptr", "indices"):
        assert getattr(built, name).dtype == np.int32, name


@pytest.mark.parametrize("weight", [-0.5, np.array([[0.5], [-0.25], [1.0], [2.0]]),
                                    np.array([[0.5], [0.0], [-0.0], [-1.5]])],
                         ids=["scalar", "column", "zeros"])
def test_incidence_broadcasts_like_flat_columns(weight):
    # an (r, 1) row index against a (c,) one gives column i*c + j, exactly as
    # the same call on the flattened broadcast arrays does
    first, second = np.array([[0], [1], [2], [3]]), np.array([4, 6, 5])
    built = incidence(first, second, weight, 7)
    flat = [np.ravel(x) for x in np.broadcast_arrays(first, second, weight)]
    ref = incidence(*flat, 7)
    assert built.shape == ref.shape == (7, 12) and built.format == "csc"
    for name in ("data", "indices", "indptr"):
        part, ref_part = getattr(built, name), getattr(ref, name)
        assert part.dtype == ref_part.dtype and part.tobytes() == ref_part.tobytes(), name
    assert np.array_equal(built.toarray(), _dense_incidence(*flat, 7))


@pytest.mark.parametrize("r, c", [(1, 1), (1, 5), (4, 1), (3, 4), (6, 6), (33, 20), (96, 90)])
def test_marginals_match_stacked_blocks(r, c):
    cached = _lp._marginals_cached.cache_info().currsize
    built = marginals(r, c)
    ref = sparse.csc_array(np.vstack([np.kron(np.eye(r), np.ones((1, c))),
                                      np.kron(np.ones((1, r)), np.eye(c))]))
    assert built.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(built, name), getattr(ref, name)), name
        assert getattr(built, name).dtype == getattr(ref, name).dtype, name
    if r * c > _lp.SHARED_MAX_COLS:
        # a shape the shared solver does not run is built per call, read-only
        # like a cached one, and never held by the cache
        assert marginals(r, c) is not built
        assert _lp._marginals_cached.cache_info().currsize == cached
        for name in ("indptr", "indices", "data"):
            assert not getattr(built, name).flags.writeable, name


def test_marginals_built_once_per_shape_and_read_only():
    built = marginals(3, 4)
    assert marginals(3, 4) is built
    assert marginals(4, 3) is not built
    for name in ("indptr", "indices", "data"):
        part = getattr(built, name)
        assert not part.flags.writeable, name
        with pytest.raises(ValueError):
            part[0] = part[0]


def _recorded_lps(monkeypatch, run):
    """Arguments of every _lp.solve call made by run(). Only the recorder is
    undone afterwards: the test's own patches stay."""
    calls = []
    solve = _lp.solve

    def record(*args):
        calls.append(args)
        return solve(*args)

    with monkeypatch.context() as m:
        m.setattr(_lp, "solve", record)
        try:
            run()
        except ValueError:
            pass
    return calls


def _reference(c, a_eq, b_eq, a_ub=None, b_ub=None):
    """linprog with the options _lp.solve uses at this size: presolve is off
    above the gate, read at call time so a monkeypatched gate moves it too."""
    options = HIGHS_OPTIONS
    if np.size(c) > _lp.SHARED_MAX_COLS:
        options = {**HIGHS_OPTIONS, "presolve": False}
    return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                   method="highs", options=options)


def _planar(seed, n):
    rng = np.random.default_rng(seed)
    w = rng.random(n)
    return make_distribution(rng.normal(size=(n, 2)), w / w.sum())


def _uniform(points):
    return make_distribution(points, np.full(len(points), 1 / len(points)))


def _lp_cases():
    enc, gd, _ = exhaustive_optimal_encoder(U4, 2)
    enc33 = exhaustive_optimal_encoder(GAUSS33, 4)[0]
    # at 1e5 coordinates the perception row's terms are ~1e10, so its rounding
    # error is far above an absolute 1e-9; the certificate must scale with them
    rng = np.random.default_rng(0)
    wide = make_distribution(rng.normal(size=(12, 1)) * 1e5, np.full(12, 1 / 12))
    enc_w, gd_w, d_w = exhaustive_optimal_encoder(wide, 2)
    sup_w = default_oracle_support(wide, gd_w, perceptual_decoder_for(wide, enc_w))
    return {
        "transport-1d": lambda: w2sq_exact(GAUSS33, U4),
        "transport-2d": lambda: w2sq_exact(_planar(1, 7), _planar(2, 7)),
        "transport-rect": lambda: w1_exact(_planar(3, 9), _planar(4, 4)),
        "oracle": lambda: constrained_oracle(GAUSS33, enc33, 0.05, GAUSS33.points),
        "augmented": lambda: solve_augmented(U4, enc, gd, 0.5),
        "oracle-wide": lambda: constrained_oracle(wide, enc_w, 0.5 * d_w, sup_w),
        "oracle-infeasible": lambda: constrained_oracle(U4, enc, 0.0, np.array([0.5, 2.5])),
    }


@pytest.mark.parametrize("case", sorted(_lp_cases()))
def test_solve_bit_identical_to_linprog(monkeypatch, case):
    # the direct HiGHS call must hand HiGHS the model linprog would, so the
    # optimal basis, and x, agree to the last bit
    args = _recorded_lps(monkeypatch, _lp_cases()[case])[0]
    ref = _reference(*args)
    res = _lp.solve(*args)
    assert res.status == ref.status
    if case == "oracle-infeasible":
        assert res.status == 2 and res.x is None
    else:
        assert res.status == 0
        assert res.x.tobytes() == ref.x.tobytes()
    if case.startswith("oracle"):
        assert len(args) == 5  # the perception row is an inequality


def test_equality_columns_hold_a_unit_and_a_weight(monkeypatch):
    # every dplab variable sits in two equality rows: 1 at the smaller row, and
    # a weight below it unless that weight is zero
    for name, run in sorted(_lp_cases().items()):
        for args in _recorded_lps(monkeypatch, run):
            a = args[1].tocsc()
            counts = np.diff(a.indptr)
            assert set(counts.tolist()) <= {1, 2}, name
            assert np.array_equal(a.data[a.indptr[:-1]], np.ones(a.shape[1])), name
            two = np.flatnonzero(counts == 2)
            assert (a.indices[a.indptr[two]] < a.indices[a.indptr[two] + 1]).all(), name


def _row_sums(r, c):
    """(r, r*c) block whose row i is Σ_j x[i, j]: the reference assemblies' block."""
    return sparse.csr_matrix(
        (np.ones(r * c), (np.repeat(np.arange(r), c), np.arange(r * c))), shape=(r, r * c)
    )


def _col_sums(r, c, weights=None):
    """(c, r*c) block whose row j is Σ_i weights[i] x[i, j]; zero weights store no entry."""
    w = np.ones(r) if weights is None else np.asarray(weights, dtype=np.float64).reshape(-1)
    block = sparse.csr_matrix(
        (np.repeat(w, c), (np.tile(np.arange(c), r), np.arange(r * c))), shape=(c, r * c)
    )
    block.eliminate_zeros()
    return block


def _oracle_reference(source, enc, b_eq):
    """constrained_oracle's equality block, stitched from blocks with sparse.bmat."""
    n, k = source.n, enc.K
    m = len(b_eq) - k - n
    pz = joint_from_encoder(source, enc).sum(axis=1)
    return sparse.bmat([[_row_sums(k, m), None],
                        [None, _row_sums(n, m)],
                        [-_col_sums(k, m, pz), _col_sums(n, m)]], format="csr")


def _augmented_reference(source, gd):
    """solve_augmented's LP, the n × nv transport reduction: source atoms'
    row sums stacked over the gd values' column sums, with sparse.vstack."""
    nv, n = np.unique(gd.table, axis=0).shape[0], source.n
    return sparse.vstack([_row_sums(n, nv), _col_sums(n, nv)], format="csr")


def _handed_to_highs(a_eq, a_ub=None):
    """The CSC matrix _lp.solve passes to HiGHS for these constraint blocks."""
    return a_eq.tocsc() if a_ub is None else sparse.vstack([a_ub, a_eq], format="csc")


def _assert_same_csc(got, ref):
    assert got.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        part, want = getattr(got, name), getattr(ref, name)
        assert part.dtype == want.dtype, name
        assert part.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("scenario", ["u4-r1", "gauss33-r2", "planar6-r1", "u4-empty-cell"])
def test_oracle_and_augmented_matrices_match_block_assembly(monkeypatch, scenario):
    source = {"u4-r1": U4, "gauss33-r2": GAUSS33, "planar6-r1": _planar(6, 6),
              "u4-empty-cell": U4}[scenario]
    if scenario == "u4-empty-cell":
        enc = Encoder(np.array([0, 0, 2, 2]), 3)
        gd = None
        runs = [lambda p=p: constrained_oracle(U4, enc, p, U4.points) for p in (0.0, 0.1, 1.0)]
    else:
        enc, gd, d_d = exhaustive_optimal_encoder(source, 2 if scenario.endswith("r1") else 4)
        sup = default_oracle_support(source, gd, perceptual_decoder_for(source, enc))
        runs = [lambda f=f: constrained_oracle(source, enc, f * d_d, sup) for f in (0.0, 0.5)]
        runs += [lambda lam=lam: solve_augmented(source, enc, gd, lam) for lam in (0.5, 2.0)]
    for run in runs:
        # the first LP is the oracle's or the augmented transport reduction;
        # W1 LPs follow the latter
        _, a_eq, b_eq, *ineq = _recorded_lps(monkeypatch, run)[0]
        if ineq:  # the oracle, whose perception row is the one inequality
            ref = _oracle_reference(source, enc, b_eq)
        else:
            ref = _augmented_reference(source, gd)
        _assert_same_csc(a_eq.tocsc(), ref.tocsc())
        _assert_same_csc(_handed_to_highs(a_eq, *ineq[:1]), _handed_to_highs(ref, *ineq[:1]))
    if scenario == "u4-empty-cell":
        # the empty cell's decoder row sits in its pmf row alone
        assert (np.diff(a_eq.tocsc().indptr) == 1).sum() == U4.points.shape[0]


def _small_transport():
    rng = np.random.default_rng(5)
    a, b = rng.random(4), rng.random(3)
    a, b = a / a.sum(), b / b.sum()
    cost = rng.random((4, 3))
    return cost.reshape(-1), marginals(4, 3), np.concatenate([a, b]), a, b


def test_certificate_accepts_optimal_pair_and_rejects_perturbations():
    c, a_eq, b_eq, a, b = _small_transport()
    ref = _reference(c, a_eq, b_eq)
    x, y = ref.x, ref.eqlin.marginals
    none = np.zeros(0)
    primal, dual, gap = certificate(a_eq, c, b_eq, none, x, y)
    assert primal <= CERT_TOL and dual <= CERT_TOL and gap <= CERT_TOL
    # a perturbed x breaks a marginal
    xp = x.copy()
    xp[0] += 1e-6
    assert certificate(a_eq, c, b_eq, none, xp, y)[0] > CERT_TOL
    # a feasible but suboptimal x (the independent coupling) leaves a gap
    assert certificate(a_eq, c, b_eq, none, np.outer(a, b).reshape(-1), y)[2] > CERT_TOL
    # raising one row price makes a basic column's reduced cost negative
    yp = y.copy()
    yp[0] += 1e-6
    assert certificate(a_eq, c, b_eq, none, x, yp)[1] > CERT_TOL
    # a positive multiplier on a <= row is no dual certificate
    a_both = sparse.vstack([sparse.csr_array(c[None, :]), a_eq], format="csc")
    b_ub = np.array([c @ x + 1.0])
    assert certificate(a_both, c, b_eq, b_ub, x, np.concatenate([[1e-6], y]))[1] > CERT_TOL
    # non-finite entries fail every comparison
    xn = x.copy()
    xn[1] = np.nan
    assert not any(v <= CERT_TOL for v in certificate(a_eq, c, b_eq, none, xn, y))


def test_failed_certificate_is_status_4(monkeypatch):
    c, a_eq, b_eq, _, _ = _small_transport()
    assert _lp.solve(c, a_eq, b_eq).status == 0
    monkeypatch.setattr(_lp, "CERT_TOL", -1.0)
    res = _lp.solve(c, a_eq, b_eq)
    assert res.status == 4 and res.x is None
    assert "certificate" in res.message
    with pytest.raises(ValueError, match="transport LP failed: LP certificate failed"):
        w2sq_exact(U4, U4)


class _FailingHighs(_highs._Highs):
    """A solver holding dplab's options whose passModel or run, as `fail`
    names, reports kError: passModel hands HiGHS a row index past the last
    row, which HiGHS itself rejects; run does not start. fail=None solves."""

    def __init__(self, fail):
        super().__init__()
        assert self.passOptions(_lp._OPTIONS) == _highs.HighsStatus.kOk
        self.fail = fail

    def passModel(self, *args):
        if self.fail == "passModel":
            # args[1] is the row count, args[12] the CSC row indices
            args = args[:12] + (np.full_like(args[12], args[1]),) + args[13:]
        return super().passModel(*args)

    def run(self):
        return _highs.HighsStatus.kError if self.fail == "run" else super().run()


@pytest.mark.parametrize("gate", ["shared", "fresh"])
@pytest.mark.parametrize("fail", ["passModel", "run"])
def test_failed_highs_call_is_status_4(monkeypatch, fail, gate):
    # a rejected model and a failed run give status 4, not the infeasibility
    # status 2, and the same instance then solves an LP as linprog does
    args = _small_transport()[:3] if gate == "shared" else _wide_transport()
    assert (args[0].size <= _lp.SHARED_MAX_COLS) == (gate == "shared")
    highs = _FailingHighs(fail)
    if gate == "shared":
        monkeypatch.setattr(_lp, "_SHARED", highs)
    else:
        monkeypatch.setattr(_lp, "_solver", lambda: highs)
    res = _lp.solve(*args)
    assert res.status == 4 and res.x is None
    assert res.message == ("HiGHS rejected the model" if fail == "passModel"
                           else "HiGHS found no optimum") + (
        ": model_status is Not Set; primal_status is None")
    highs.fail = None
    res = _lp.solve(*args)
    assert res.status == 0 and res.x.tobytes() == _reference(*args).x.tobytes()


def test_oracle_reports_a_rejected_model_as_an_lp_failure(monkeypatch):
    # HiGHS proved nothing about the support, so the oracle must not call the
    # perception constraint infeasible
    enc = exhaustive_optimal_encoder(U4, 2)[0]
    monkeypatch.setattr(_lp, "_SHARED", _FailingHighs("passModel"))
    with pytest.raises(ValueError, match="oracle LP failed: HiGHS rejected the model"):
        constrained_oracle(U4, enc, 0.05, U4.points)


@pytest.mark.parametrize("bad", ["c", "b_eq", "b_ub", "matrix"])
def test_solve_refuses_non_finite_data(bad):
    c, a_eq, b_eq, _, _ = _small_transport()
    a_ub, b_ub = sparse.csr_array(np.ones((1, c.size))), np.array([10.0])
    if bad == "c":
        c = np.where(np.arange(c.size) == 2, np.nan, c)
    elif bad == "b_eq":
        b_eq = np.where(np.arange(b_eq.size) == 0, np.inf, b_eq)
    elif bad == "b_ub":
        b_ub = np.array([np.inf])
    else:
        a_ub = sparse.csr_array(np.full((1, c.size), -np.inf))
    with pytest.raises(ValueError, match="must be finite"):
        _lp.solve(c, a_eq, b_eq, a_ub, b_ub)


def _wide_transport():
    # 96 x 90 = 8,640 columns: above SHARED_MAX_COLS, so a fresh solver
    rng = np.random.default_rng(7)
    a, b = rng.random(96), rng.random(90)
    a, b = a / a.sum(), b / b.sum()
    cost = rng.random((96, 90))
    return cost.reshape(-1), marginals(96, 90), np.concatenate([a, b])


@pytest.mark.parametrize("gate", ["default", "split"])
def test_shared_solver_carries_no_state(monkeypatch, gate):
    # every LP's x must equal linprog's (a fresh HiGHS each time) to the bit,
    # whatever the shared solver ran before it: other LPs in either order, an
    # infeasible LP, a solve whose certificate was rejected
    lps = [args for name in sorted(_lp_cases())
           for args in _recorded_lps(monkeypatch, _lp_cases()[name])]
    # runs of one shape with new data, where a kept basis would show: oracle
    # budgets along a sweep and random transport instances
    enc33 = exhaustive_optimal_encoder(GAUSS33, 4)[0]
    for budget in (0.02, 0.03, 0.05, 0.08):
        lps += _recorded_lps(monkeypatch,
                             lambda: constrained_oracle(GAUSS33, enc33, budget, GAUSS33.points))
    for seed in range(6):
        lps += _recorded_lps(monkeypatch, lambda: w2sq_exact(_planar(10 + seed, 6),
                                                             _planar(20 + seed, 6)))
    lps.append(_wide_transport())
    if gate == "split":
        # half the recorded LPs above the gate, interleaved with the others
        monkeypatch.setattr(_lp, "SHARED_MAX_COLS", int(np.median([a[0].size for a in lps])))
    assert any(a[0].size > _lp.SHARED_MAX_COLS for a in lps)
    assert any(a[0].size <= _lp.SHARED_MAX_COLS for a in lps)
    refs = [_reference(*args) for args in lps]
    infeasible = next(a for a, ref in zip(lps, refs) if ref.status == 2)
    small = _small_transport()[:3]

    def check(i):
        res = _lp.solve(*lps[i])
        assert res.status == refs[i].status
        if res.status == 0:
            assert res.x.tobytes() == refs[i].x.tobytes()

    fresh = []
    solver = _lp._solver
    monkeypatch.setattr(_lp, "_solver", lambda: fresh.append(1) or solver())
    order = list(range(len(lps)))
    for i in order + order[::-1]:
        check(i)
    for i in order:
        assert _lp.solve(*infeasible).status == 2
        check(i)
    for i in order:
        with monkeypatch.context() as m:
            m.setattr(_lp, "CERT_TOL", -1.0)
            assert _lp.solve(*small).status == 4
        check(i)
    # each solve above the gate, and only those, built its own instance
    solved = 4 * lps + len(order) * [infeasible, small]
    assert len(fresh) == sum(a[0].size > _lp.SHARED_MAX_COLS for a in solved)


class _LoggedHighs(_highs._Highs):
    """A solver holding dplab's options that logs each run and its own deletion."""

    def __init__(self, log, name):
        super().__init__()
        assert self.passOptions(_lp._OPTIONS) == _highs.HighsStatus.kOk
        self.log, self.name = log, name

    def run(self):
        self.log.append(f"run {self.name}")
        return super().run()

    def __del__(self):
        self.log.append(f"del {self.name}")


def _log_certificate(monkeypatch, log):
    certificate = _lp.certificate
    monkeypatch.setattr(_lp, "certificate",
                        lambda *args: log.append("certificate") or certificate(*args))


def test_fresh_solver_freed_before_certificate(monkeypatch):
    # a fresh instance's working set is released before dplab copies the
    # solution out and certifies it, so the two never sit side by side
    log = []
    monkeypatch.setattr(_lp, "_solver", lambda: _LoggedHighs(log, "fresh"))
    _log_certificate(monkeypatch, log)
    args = _wide_transport()
    assert args[0].size > _lp.SHARED_MAX_COLS
    res = _lp.solve(*args)
    assert log == ["run fresh", "del fresh", "certificate"]
    assert res.status == 0 and res.x.tobytes() == _reference(*args).x.tobytes()


def test_shared_solver_never_freed(monkeypatch):
    log = []
    # the module global is the instance's only reference
    monkeypatch.setattr(_lp, "_SHARED", _LoggedHighs(log, "shared"))
    _log_certificate(monkeypatch, log)
    small = _small_transport()[:3]
    assert small[0].size <= _lp.SHARED_MAX_COLS
    for _ in range(3):
        assert _lp.solve(*small).status == 0
    with monkeypatch.context() as m:
        m.setattr(_lp, "CERT_TOL", -1.0)
        assert _lp.solve(*small).status == 4
    assert log == 4 * ["run shared", "certificate"]


@pytest.mark.parametrize("bad", ["matrix", "cost"])
def test_solve_refuses_values_at_highs_limits(bad):
    # HiGHS refuses a model with a matrix entry at large_matrix_value and treats
    # a cost at infinite_cost as infinite; both are one-line errors naming it
    c, a_eq, b_eq, _, _ = _small_transport()
    a_ub, b_ub = sparse.csr_array(np.ones((1, c.size))), np.array([10.0])
    limit = {"matrix": "large_matrix_value", "cost": "infinite_cost"}[bad]
    value = getattr(_lp._OPTIONS, limit)
    below = np.nextafter(value, 0.0)
    if bad == "matrix":
        ok, over = (sparse.csr_array(np.full((1, c.size), v)) for v in (below, value))
        assert _lp.solve(c, a_eq, b_eq, ok, np.array([2 * value])).status == 0
        args = (c, a_eq, b_eq, over, b_ub)
    else:
        assert _lp.solve(np.where(np.arange(c.size) == 1, below, c), a_eq, b_eq).status == 0
        args = (np.where(np.arange(c.size) == 1, value, c), a_eq, b_eq, a_ub, b_ub)
    with pytest.raises(ValueError, match=f"reaches HiGHS {limit}") as err:
        _lp.solve(*args)
    assert "\n" not in str(err.value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_lift_below_one_is_exact(monkeypatch):
    # the u4 oracle LP with its cost, and its perception row with the budget,
    # normalized to a largest magnitude in [1, 2): scaled down by 2^-k, each
    # reaches HiGHS lifted back to the same bits, so x is bit-identical
    enc, gd, _ = exhaustive_optimal_encoder(U4, 2)
    sup = default_oracle_support(U4, gd, perceptual_decoder_for(U4, enc))
    c, a_eq, b_eq, a_ub, b_ub = _recorded_lps(
        monkeypatch, lambda: constrained_oracle(U4, enc, 0.0625, sup))[0]

    def unit(v):
        return 1 - np.frexp(np.abs(v).max())[1]

    e = unit(a_ub)
    c, a_ub, b_ub = np.ldexp(c, unit(c)), np.ldexp(a_ub, e), np.ldexp(b_ub, e)
    x = _lp.solve(c, a_eq, b_eq, a_ub, b_ub).x
    for k in (1, 17, 40):
        lifted = _lp.solve(np.ldexp(c, -k), a_eq, b_eq, np.ldexp(a_ub, -k), np.ldexp(b_ub, -k))
        assert lifted.status == 0 and lifted.x.tobytes() == x.tobytes(), k


# --- above the gate: presolve off, checked against independent oracles ------


def _assert_above_gate(monkeypatch, run):
    lps = _recorded_lps(monkeypatch, run)
    assert lps and min(args[0].size for args in lps) > _lp.SHARED_MAX_COLS


def _verdicts(monkeypatch):
    """(columns, status) of every _lp.certify call from now on, in order."""
    verdicts = []
    certify = _lp.certify

    def record(*args):
        res = certify(*args)
        verdicts.append((args[1].size, res.status))
        return res

    monkeypatch.setattr(_lp, "certify", record)
    return verdicts


def _certified(monkeypatch, run):
    """run()'s value, where run() solves one LP above the gate: its own
    optimum passes the certificate, and HiGHS is never called."""
    with monkeypatch.context() as m:
        verdicts = _verdicts(m)
        m.setattr(_lp, "solve", lambda *args: pytest.fail("the structured LP was solved by HiGHS"))
        m.setattr(_lp, "_solver", lambda: pytest.fail("a HiGHS instance was built"))
        value = run()
    assert len(verdicts) == 1 and verdicts[0][0] > _lp.SHARED_MAX_COLS
    assert verdicts[0][1] == 0
    return value


def _line(points, seed):
    w = np.random.default_rng(seed).random(len(points))
    return make_distribution(points, w / w.sum())


@pytest.mark.parametrize("case", ["random", "integer-ties"])
def test_large_1d_costs_match_closed_form(monkeypatch, case):
    rng = np.random.default_rng(41)
    if case == "random":
        a, b = _line(rng.normal(size=96), 1), _line(3 * rng.random(100) - 1, 2)
        orders = (2,)
    else:
        # shared integer atoms: equal points, equal distances, degenerate plans
        a, b = _line(np.arange(96.0), 3), _line(np.arange(-2.0, 98.0), 4)
        orders = (1, 2)
    for order in orders:
        exact = w1_exact if order == 1 else w2sq_exact
        plan = _certified(monkeypatch, lambda: exact(a, b))
        assert plan.cost == pytest.approx(w_1d_closed_form(a, b, order), rel=1e-12), order


def test_large_planar_w1_matches_assignment(monkeypatch):
    # uniform laws of equal size: an optimal plan is a permutation (Birkhoff)
    rng = np.random.default_rng(42)
    pa, pb = rng.normal(size=(96, 2)), rng.normal(size=(96, 2)) + 0.5
    a, b = (make_distribution(p, np.full(96, 1 / 96)) for p in (pa, pb))
    plan = _certified(monkeypatch, lambda: w1_exact(a, b))
    dist = np.sqrt(((a.points[:, None, :] - b.points[None, :, :]) ** 2).sum(axis=2))
    rows, cols = linear_sum_assignment(dist)
    assert plan.cost == pytest.approx(dist[rows, cols].sum() / 96, rel=1e-12)


def test_large_oracle_matches_interpolation_distortion(monkeypatch):
    # at P = α² D_d the oracle attains (1 + (1 - α)²) D_d on the default support
    source = gaussian_grid(0, 1, 50, 4)
    enc, gd, d_d = exhaustive_optimal_encoder(source, 4)
    sup = default_oracle_support(source, gd, perceptual_decoder_for(source, enc))
    alpha = 0.5
    _assert_above_gate(monkeypatch, lambda: constrained_oracle(source, enc, alpha ** 2 * d_d, sup))
    d_star, _ = constrained_oracle(source, enc, alpha ** 2 * d_d, sup)
    assert d_star == pytest.approx((1 + (1 - alpha) ** 2) * d_d, rel=1e-9)


def test_gate_sides_agree_on_a_large_lp(monkeypatch):
    # the same LP on the shared solver (gate raised above it, presolve on) and
    # on a fresh one (default gate, presolve off): each side matches its own
    # linprog reference to the bit and the two optima agree
    args = _wide_transport()
    n = args[0].size
    assert n > _lp.SHARED_MAX_COLS
    fresh = _lp.solve(*args)
    with monkeypatch.context() as m:
        m.setattr(_lp, "SHARED_MAX_COLS", n)
        m.setattr(_lp, "_solver", lambda: pytest.fail("the shared solver was bypassed"))
        shared = _lp.solve(*args)
        shared_ref = _reference(*args)
    assert fresh.status == shared.status == 0
    assert shared.x.tobytes() == shared_ref.x.tobytes()
    assert fresh.x.tobytes() == _reference(*args).x.tobytes()
    assert args[0] @ fresh.x == pytest.approx(args[0] @ shared.x, rel=1e-13)


# --- above the gate, 1-D: the north-west-corner staircase, certified --------


def _sweep_law(alpha):
    """A 128-point gaussian grid and its rate-2 interpolated decoder's output
    law: the self-similar pair of a sweep, whose cumulative masses tie."""
    source = gaussian_grid(0, 1, 128, 4)
    enc, gd, _ = exhaustive_optimal_encoder(source, 2)
    dec = interpolate(gd, perceptual_decoder_for(source, enc), alpha)
    return source, decoder_output_dist(source, enc, dec)


def _start_cases():
    rng = np.random.default_rng(43)
    random = _line(rng.normal(size=96), 5), _line(3 * rng.random(100) - 1, 6)
    ties = _line(np.arange(96.0), 7), _line(np.arange(-2.0, 98.0), 8)
    return {
        "w2-random": (w2sq_exact, *random),
        "w1-random": (w1_exact, *random),
        "w2-integer-ties": (w2sq_exact, *ties),
        "w1-integer-ties": (w1_exact, *ties),
        "w2-interpolated": (w2sq_exact, *_sweep_law(0.5)),
        "w1-interpolated": (w1_exact, *_sweep_law(0.25)),
    }


def _quantile_coupling(a, b):
    """pi[i, j]: the overlap of row i's and column j's cumulative-mass intervals."""
    ca, cb = (np.concatenate([[0.0], np.cumsum(p)]) for p in (a, b))
    overlap = (np.minimum(ca[1:, None], cb[None, 1:]) - np.maximum(ca[:-1, None], cb[None, :-1]))
    return np.maximum(overlap, 0.0)


@pytest.mark.parametrize("case", sorted(_start_cases()))
def test_large_1d_lp_starts_at_the_staircase(monkeypatch, case):
    # the staircase and its potentials pass the certificate as they stand:
    # no HiGHS call, the closed-form cost and the quantile coupling
    exact, a, b = _start_cases()[case]
    plan = _certified(monkeypatch, lambda: exact(a, b))
    assert plan.cost == pytest.approx(w_1d_closed_form(a, b, 1 if exact is w1_exact else 2),
                                      rel=1e-12)
    assert np.allclose(plan.pi, _quantile_coupling(a.probs, b.probs), rtol=0, atol=1e-12)


def test_staircase_has_one_cell_per_step():
    # on a generic (random) cost the staircase's potentials are tight on
    # exactly nr + nc - 1 cells, a monotone path from the first cell to the
    # last with one index advancing per step, ties included; x holds the
    # marginals and sits on that path
    rng = np.random.default_rng(9)
    rand_a, rand_b = rng.random(7), rng.random(5)
    for a, b in ((np.full(4, 0.25), np.full(8, 0.125)),
                 (np.array([0.5, 0.0, 0.5]), np.array([0.25, 0.25, 0.5])),
                 (rand_a / rand_a.sum(), rand_b / rand_b.sum())):
        c = rng.random((len(a), len(b)))
        x, y = _staircase(a, b, c)
        pi, u, v = x.reshape(len(a), len(b)), y[:len(a)], y[len(a):]
        if (a * 8).tolist() == np.round(a * 8).tolist():  # dyadic masses: no rounding
            assert np.array_equal(pi.sum(axis=1), a) and np.array_equal(pi.sum(axis=0), b)
        else:
            assert np.abs(pi.sum(axis=1) - a).max() <= 4 * np.finfo(float).eps
            assert np.abs(pi.sum(axis=0) - b).max() <= 4 * np.finfo(float).eps
        tight = np.abs(c - u[:, None] - v[None, :]) <= 1e-15
        rows, cols = np.nonzero(tight)  # row-major order is the path's order
        assert len(rows) == len(a) + len(b) - 1
        assert rows[0] == cols[0] == 0 and (rows[-1], cols[-1]) == (len(a) - 1, len(b) - 1)
        assert np.array_equal(np.diff(rows) + np.diff(cols), np.ones(len(rows) - 1))
        assert (pi[~tight] == 0).all() and (pi >= 0).all()
    # on a tie the row advances first, through a cell of zero mass
    c = rng.random((2, 2))
    x, y = _staircase(np.full(2, 0.5), np.full(2, 0.5), c)
    assert x.tolist() == [0.5, 0.0, 0.0, 0.5]
    assert np.nonzero(np.abs(c - y[:2, None] - y[None, 2:]) <= 1e-15)[0].tolist() == [0, 1, 1]


def test_no_start_off_the_1d_large_path(monkeypatch):
    # a non-uniform 2-D LP above the gate, uniform 2-D laws of unequal size
    # or beside a non-uniform one, and every LP at or below it build no
    # structured optimum: each goes straight to _lp.solve. The gate is read
    # at call time
    for name in ("_staircase", "_assignment_tree"):
        monkeypatch.setattr(transport, name, lambda *args: pytest.fail(f"{name} was called"))
    pa, pb = _planar(11, 96), _planar(12, 96)
    _assert_above_gate(monkeypatch, lambda: w1_exact(pa, pb))
    rng = np.random.default_rng(46)
    u96, u100 = _uniform(rng.normal(size=(96, 2))), _uniform(rng.normal(size=(100, 2)))
    for a, b in ((u96, u100), (u96, pb), (pa, u96)):
        for exact in (w1_exact, w2sq_exact):
            _assert_above_gate(monkeypatch, lambda: exact(a, b))
    for name, run in sorted(_lp_cases().items()):
        try:
            run()
        except ValueError:
            assert name == "oracle-infeasible"
    a, b = _line(np.arange(64.0), 13), _line(np.arange(128.0), 14)  # 8,192 columns
    for exact in (w1_exact, w2sq_exact):
        assert len(_recorded_lps(monkeypatch, lambda: exact(a, b))) == 1
    a, b = _line(np.arange(96.0), 15), _line(np.arange(100.0), 16)
    monkeypatch.setattr(_lp, "SHARED_MAX_COLS", 96 * 100)
    assert len(_recorded_lps(monkeypatch, lambda: w2sq_exact(a, b))) == 1


def _staircase_lp(n, seed):
    """Two n-point 1-D laws with sorted supports and their W2 cost matrix."""
    rng = np.random.default_rng(seed)
    a, b = _line(rng.normal(size=n), seed), _line(rng.normal(size=n), seed + 1)
    return a, b, (a.points - b.points.T) ** 2


def _cold(monkeypatch, run):
    """run()'s value, where run() solves one transport LP above the gate whose
    structured optimum fails the certificate: the verdicts are that failure
    and the cold solve's pass, and the plan is linprog's x to the byte."""
    out = []
    with monkeypatch.context() as m:
        verdicts = _verdicts(m)
        lps = _recorded_lps(m, lambda: out.append(run()))
    assert [status for _, status in verdicts] == [4, 0]
    assert len(lps) == 1 and lps[0][0].size > _lp.SHARED_MAX_COLS
    ref = _reference(*lps[0])
    assert ref.status == 0
    assert out[0].pi.tobytes() == np.maximum(ref.x, 0.0).reshape(out[0].pi.shape).tobytes()
    return out[0]


def test_start_on_a_non_monge_cost_is_only_a_hint(monkeypatch):
    # -(x - y)^2 is optimal on the anti-monotone coupling, far from the
    # staircase: sent as Monge, the staircase fails the certificate and the
    # LP is solved cold
    a, b, cost = _staircase_lp(96, 17)
    plan = _cold(monkeypatch,
                 lambda: transport.solve_transport_lp(-cost, a.probs, b.probs, _monge=True))
    assert plan.cost < -w_1d_closed_form(a, b, 2)


@pytest.mark.parametrize("route", ["staircase", "tree"])
def test_refused_start_solves_cold(monkeypatch, route):
    # one row potential raised by 1e-6 of the cost scale leaves reduced costs
    # of -1e-6 times that scale in its row, 1000 times the certificate's bound
    name, (exact, a, b) = {"staircase": ("_staircase", _start_cases()["w2-random"]),
                           "tree": ("_assignment_tree", _assignment_cases()["w2-random"])}[route]
    optimum = exact(a, b).cost
    build, scale = getattr(transport, name), max(1.0, _cost(exact, a, b).max())

    def corrupted(*args):
        x, y = build(*args)
        y[3] += 1e-6 * scale
        return x, y

    monkeypatch.setattr(transport, name, corrupted)
    plan = _cold(monkeypatch, lambda: exact(a, b))
    assert plan.cost == pytest.approx(optimum, rel=1e-12)


@pytest.mark.parametrize("n", [128, 144])
def test_large_1d_plan_is_the_quantile_coupling(n):
    a, b, _ = _staircase_lp(n, n)
    plan = w2sq_exact(a, b)
    assert np.allclose(plan.pi, _quantile_coupling(a.probs, b.probs), rtol=0, atol=1e-12)
    assert plan.cost == pytest.approx(w_1d_closed_form(a, b, 2), rel=1e-12)


# --- above the gate, uniform laws of equal size: the assignment, certified --


def _lattice_laws():
    """A 12 x 8 integer lattice and the same lattice scaled by 2: tied W1
    costs whose rounding leaves negative cycles of a few ulps."""
    grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(8.0), indexing="ij"), -1)
    return _uniform(grid.reshape(-1, 2)), _uniform(2 * grid.reshape(-1, 2))


def _assignment_cases():
    rng = np.random.default_rng(44)
    random = _uniform(rng.normal(size=(96, 2))), _uniform(rng.normal(size=(96, 2)) + 0.5)
    return {
        "w2-random": (w2sq_exact, *random),
        "w1-random": (w1_exact, *random),
        "w2-lattice-ties": (w2sq_exact, *_lattice_laws()),
        "w1-lattice-ties": (w1_exact, *_lattice_laws()),
    }


def _cost(exact, a, b):
    cost = sq_dists(a.points, b.points)
    return np.sqrt(cost) if exact is w1_exact else cost


@pytest.mark.parametrize("case", sorted(_assignment_cases()))
def test_large_assignment_lp_starts_at_its_tree(monkeypatch, case):
    # the permutation and its shortest-path duals pass the certificate: no
    # HiGHS call, linear_sum_assignment's cost, and a permutation plan over n
    exact, a, b = _assignment_cases()[case]
    plan = _certified(monkeypatch, lambda: exact(a, b))
    cost, n = _cost(exact, a, b), len(a.probs)
    rows, cols = linear_sum_assignment(cost)
    assert plan.cost == pytest.approx(cost[rows, cols].sum() / n, rel=1e-12)
    perm = plan.pi.argmax(axis=1)
    assert sorted(perm) == list(range(n))
    assert np.allclose(plan.pi, np.eye(n)[perm] / n, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["random", "lattice-ties", "duplicated-points"])
def test_assignment_tree_duals_are_feasible(case):
    # x is a permutation at the given mass, every reduced cost is at least
    # minus twice the relaxation tolerance, and the permutation's cells are
    # tight
    rng = np.random.default_rng(45)
    if case == "random":
        c = sq_dists(rng.normal(size=(96, 2)), rng.normal(size=(96, 2)))
    elif case == "lattice-ties":
        a, b = _lattice_laws()
        c = np.sqrt(sq_dists(a.points, b.points))
    else:
        pa, pb = rng.normal(size=(48, 2)), rng.integers(0, 3, size=(48, 2)).astype(float)
        c = np.sqrt(sq_dists(np.repeat(pa, 2, axis=0), np.tile(pb, (2, 1))))
    n = len(c)
    x, y = _assignment_tree(c, 1 / n)
    rows, cols = np.nonzero(x.reshape(n, n))
    assert rows.tolist() == list(range(n)) and sorted(cols) == list(range(n))
    assert (x[rows * n + cols] == 1 / n).all()
    tol = transport._TIE_RTOL * n * np.abs(c).max()
    reduced = c - y[:n, None] - y[None, n:]
    assert reduced.min() >= -2 * tol
    assert np.abs(reduced[rows, cols]).max() <= tol


def test_tie_guard_keeps_the_lattice_tree(monkeypatch):
    # without the relaxation tolerance, the lattice's few-ulp negative cycles
    # keep distances falling until the pass limit: no duals, a cold solve
    # through _lp.solve at the same cost
    a, b = _lattice_laws()
    c = np.sqrt(sq_dists(a.points, b.points))
    n = len(c)
    assert _assignment_tree(c, 1 / n) is not None
    certified = _certified(monkeypatch, lambda: w1_exact(a, b))
    monkeypatch.setattr(transport, "_TIE_RTOL", 0.0)
    assert _assignment_tree(c, 1 / n) is None
    out = []
    lps = _recorded_lps(monkeypatch, lambda: out.append(w1_exact(a, b)))
    assert len(lps) == 1 and lps[0][0].size > _lp.SHARED_MAX_COLS
    rows, cols = linear_sum_assignment(c)
    assert out[0].cost == pytest.approx(c[rows, cols].sum() / n, rel=1e-12)
    assert out[0].cost == pytest.approx(certified.cost, rel=1e-12)
