import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from dplab import _lp
from dplab._lp import CERT_TOL, HIGHS_OPTIONS, certificate, col_sums, marginals, row_sums
from dplab.augmented import solve_augmented
from dplab.codec import exhaustive_optimal_encoder, perceptual_decoder_for
from dplab.distcore import builtin_source, make_distribution
from dplab.tradeoff import constrained_oracle, default_oracle_support
from dplab.transport import w1_exact, w2sq_exact

U4 = builtin_source("u4")
GAUSS33 = builtin_source("gauss33")


def test_blocks_match_kron_definitions():
    r, c = 3, 4
    assert np.array_equal(row_sums(r, c).toarray(), np.kron(np.eye(r), np.ones((1, c))))
    assert np.array_equal(col_sums(r, c).toarray(), np.kron(np.ones((1, r)), np.eye(c)))
    w = np.array([0.5, 0.0, 0.25])
    block = col_sums(r, c, w)
    assert np.array_equal(block.toarray(), np.kron(w[None, :], np.eye(c)))
    assert block.nnz == 2 * c  # zero weights store no entry


@pytest.mark.parametrize("r, c", [(1, 1), (1, 5), (4, 1), (3, 4), (6, 6), (33, 20)])
def test_marginals_match_stacked_blocks(r, c):
    built = marginals(r, c)
    ref = sparse.csc_array(sparse.bmat([[row_sums(r, c)], [col_sums(r, c)]]))
    assert built.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(built, name), getattr(ref, name)), name


def _recorded_lps(monkeypatch, run):
    """Arguments of every _lp.solve call made by run()."""
    calls = []
    solve = _lp.solve

    def record(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(_lp, "solve", record)
    try:
        run()
    except ValueError:
        pass
    monkeypatch.undo()
    return calls


def _reference(c, a_eq, b_eq, a_ub=None, b_ub=None):
    return linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                   method="highs", options=HIGHS_OPTIONS)


def _planar(seed, n):
    rng = np.random.default_rng(seed)
    w = rng.random(n)
    return make_distribution(rng.normal(size=(n, 2)), w / w.sum())


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
