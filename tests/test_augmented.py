import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from dplab.augmented import (
    PHASE_COLUMNS,
    augmented_objective,
    beta_to_lambda,
    conditioning_equivalence,
    matched_pair_floor,
    phase_sweep,
    phase_to_csv,
    solve_augmented,
)
from dplab.codec import (
    DeterministicDecoder,
    Encoder,
    StochasticDecoder,
    exhaustive_optimal_encoder,
    mmse_decoder_for,
    perceptual_decoder_for,
)
from dplab.distcore import builtin_source, make_distribution, sq_dists

U4 = builtin_source("u4")


@pytest.fixture(scope="module")
def u4_pair():
    enc, gd, d_d = exhaustive_optimal_encoder(U4, 2)
    gp = perceptual_decoder_for(U4, enc)
    copy = StochasticDecoder(gd.table, np.eye(2))
    return enc, gd, gp, copy, d_d


def test_objective_resampler(u4_pair):
    enc, gd, gp, _, _ = u4_pair
    # per-cell E|X_p - X_d| = 0.5 on both cells
    assert abs(augmented_objective(U4, enc, gd, gp, 0.5) - 0.25) <= 1e-9
    assert augmented_objective(U4, enc, gd, gp, 0.0) <= 1e-9


def test_objective_copy_decoder(u4_pair):
    enc, gd, _, copy, _ = u4_pair
    floor = matched_pair_floor(U4, enc, gd)
    assert abs(floor - 0.5) <= 1e-9
    for lam in (0.0, 0.5, 2.0):
        assert abs(augmented_objective(U4, enc, gd, copy, lam) - floor) <= 1e-9


def test_objective_validation(u4_pair):
    enc, gd, gp, _, _ = u4_pair
    with pytest.raises(ValueError, match="lambda must be >= 0"):
        augmented_objective(U4, enc, gd, gp, -0.5)
    enc1 = Encoder(np.zeros(4, dtype=int), 1)
    gd1 = DeterministicDecoder(np.array([1.5]))
    gp1 = perceptual_decoder_for(U4, enc1)
    with pytest.raises(ValueError, match="does not match"):
        augmented_objective(U4, enc, gd1, gp1, 0.5)


@pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.9])
def test_solve_matching_phase(u4_pair, lam):
    enc, gd, _, _, d_d = u4_pair
    sol = solve_augmented(U4, enc, gd, lam)
    assert sol.flag == "ok"
    assert sol.w1_gap <= 1e-9
    assert abs(sol.mse - 2 * d_d) <= 1e-8
    assert abs(sol.mean_dev - 0.5) <= 1e-8
    assert abs(sol.objective - lam * 0.5) <= 1e-8


@pytest.mark.parametrize("lam", [1.1, 1.5, 2.0])
def test_solve_collapse_phase(u4_pair, lam):
    enc, gd, _, _, d_d = u4_pair
    sol = solve_augmented(U4, enc, gd, lam)
    assert sol.flag == "ok"
    assert sol.mean_dev <= 1e-9
    assert abs(sol.mse - d_d) <= 1e-8
    assert abs(sol.w1_gap - 0.5) <= 1e-8
    # rows concentrate on the gd value itself
    for z in range(2):
        idx = int(np.nonzero((sol.decoder.out_support == gd.table[z]).all(axis=1))[0][0])
        assert abs(sol.decoder.table[z, idx] - 1.0) <= 1e-9


def test_solve_boundary_flagged(u4_pair):
    enc, gd, _, _, _ = u4_pair
    sol = solve_augmented(U4, enc, gd, 1.0)
    assert sol.flag == "indeterminate"
    assert abs(sol.objective - 0.5) <= 1e-8


def test_solver_consistency(u4_pair):
    enc, gd, _, _, _ = u4_pair
    for lam in (0.25, 1.5):
        sol = solve_augmented(U4, enc, gd, lam)
        recomputed = augmented_objective(U4, enc, gd, sol.decoder, lam)
        assert abs(recomputed - sol.objective) <= 1e-9
        assert abs(sol.objective - (sol.w1_gap + lam * sol.mean_dev)) <= 1e-12
        assert sol.w1_gap >= 0 and sol.mean_dev >= 0


def test_sandwich_bound(u4_pair):
    enc, gd, _, _, _ = u4_pair
    floor = matched_pair_floor(U4, enc, gd)
    for lam in (0.25, 0.5, 0.9):
        sol = solve_augmented(U4, enc, gd, lam)
        assert sol.objective >= lam * floor - 1e-9
        assert abs(sol.objective - lam * floor) <= 1e-8


def test_solve_validation(u4_pair, monkeypatch):
    enc, gd, _, _, _ = u4_pair
    with pytest.raises(ValueError, match="lambda must be >= 0"):
        solve_augmented(U4, enc, gd, -1.0)
    with pytest.raises(ValueError, match="empty cell"):
        solve_augmented(U4, Encoder(np.zeros(4, dtype=int), 2), gd, 0.5)
    with pytest.raises(ValueError, match="decoder K does not match encoder K"):
        solve_augmented(U4, enc, DeterministicDecoder(np.array([1.5])), 0.5)
    monkeypatch.setattr("dplab.augmented.LP_VARIABLE_CAP", 10)
    with pytest.raises(ValueError, match="size cap"):
        solve_augmented(U4, enc, gd, 0.5)


def test_phase_sweep_order(u4_pair):
    enc, gd, _, _, _ = u4_pair
    grid = [0.0, 0.5, 1.0, 1.5]
    sols = phase_sweep(U4, enc, gd, grid)
    assert [s.lam for s in sols] == grid
    assert [s.flag for s in sols] == ["ok", "ok", "indeterminate", "ok"]
    with pytest.raises(ValueError, match="sorted ascending"):
        phase_sweep(U4, enc, gd, [1.0, 0.5])


def test_phase_csv_layout(u4_pair):
    enc, gd, _, _, _ = u4_pair
    text = phase_to_csv(phase_sweep(U4, enc, gd, [0.5, 2.0]))
    lines = text.split("\n")
    assert lines[0] == ",".join(PHASE_COLUMNS)
    assert lines[0] == "lambda,w1_gap,mean_dev,mse,objective,flag"
    assert lines[1].startswith("0.5,") and lines[1].endswith(",ok")
    assert lines[2].startswith("2,") and lines[2].endswith(",ok")
    assert len(lines) == 4 and lines[3] == ""


def test_beta_map():
    assert beta_to_lambda(0.5) == 1.0
    assert beta_to_lambda(1.0) == 0.0
    assert abs(beta_to_lambda(0.2) - 4.0) <= 1e-12
    grid = [0.1, 0.25, 0.5, 0.75, 1.0]
    lams = [beta_to_lambda(b) for b in grid]
    assert all(b < a for a, b in zip(lams, lams[1:]))
    with pytest.raises(ValueError, match="beta must be > 0"):
        beta_to_lambda(0.0)
    with pytest.raises(ValueError, match="out of range"):
        beta_to_lambda(1.5)


def test_conditioning_equivalence_dichotomy(u4_pair):
    enc, gd, gp, copy, _ = u4_pair
    gap_xd, gap_zd = conditioning_equivalence(U4, enc, gd, gp)
    assert gap_xd <= 1e-10 and gap_zd <= 1e-10
    gap_xd, gap_zd = conditioning_equivalence(U4, enc, gd, copy)
    assert abs(gap_xd - 0.5) <= 1e-9
    assert abs(gap_zd - 0.5) <= 1e-9


def test_conditioning_requires_bijective_gd(u4_pair):
    enc, _, gp, _, _ = u4_pair
    with pytest.raises(ValueError, match="not bijective"):
        conditioning_equivalence(U4, enc, DeterministicDecoder(np.array([1.5, 1.5])), gp)


def test_conditioning_decoder_k_mismatch(u4_pair):
    enc, gd, _, _, _ = u4_pair
    gp3 = StochasticDecoder(U4.points, np.full((3, 4), 0.25))
    with pytest.raises(ValueError, match="decoder K does not match encoder K"):
        conditioning_equivalence(U4, enc, gd, gp3)


def test_objective_tags_k_mismatch(u4_pair):
    # the pair laws index both the tags and the decoder rows by code
    enc, _, gp, _, _ = u4_pair
    with pytest.raises(ValueError, match="decoder K does not match encoder K"):
        augmented_objective(U4, enc, DeterministicDecoder(np.array([0.0, 1.5, 3.0])), gp, 0.5)


def test_phase_on_gaussian_grid():
    src = builtin_source("gauss33")
    enc, gd, d_d = exhaustive_optimal_encoder(src, 2)
    lo = solve_augmented(src, enc, gd, 0.5)
    hi = solve_augmented(src, enc, gd, 1.5)
    assert lo.w1_gap <= 1e-8 and abs(lo.mse - 2 * d_d) <= 1e-8
    assert hi.mean_dev <= 1e-8 and abs(hi.mse - d_d) <= 1e-8


@st.composite
def _augmented_cases(draw):
    """A 1-D or 2-D source of K..7 atoms, a K-cell encoder (K in 2..4) with
    every cell filled, its conditional-mean gd (sometimes with two cells
    sharing one value) and a lambda."""
    dim = draw(st.sampled_from([1, 2]))
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(min_value=k, max_value=7))
    lattice = st.tuples(*[st.integers(min_value=-6, max_value=6)] * dim)
    pts = draw(st.lists(lattice, min_size=n, max_size=n, unique=True))
    w = np.asarray(draw(st.lists(st.integers(min_value=1, max_value=9),
                                 min_size=n, max_size=n)), dtype=np.float64)
    source = make_distribution(np.asarray(pts, dtype=np.float64) / 2.0, w / w.sum())
    cells = draw(st.permutations(range(k)))
    rest = draw(st.lists(st.integers(min_value=0, max_value=k - 1),
                         min_size=n - k, max_size=n - k))
    enc = Encoder(np.asarray(list(cells) + rest), k)
    gd = mmse_decoder_for(source, enc)
    if draw(st.booleans()):
        table = gd.table.copy()
        table[1] = table[0]
        gd = DeterministicDecoder(table)
    lam = draw(st.sampled_from([0.0, 0.3, 1.0, 1.01, 3.0]))
    return source, enc, gd, lam


def _full_lp_optimum(source, enc, gd, sup, lam):
    """Optimum of the augmented LP over (q, gamma), built in full: pmf rows of
    q, Ŷ-law rows pv[v] q(v, m) = Σ_i gamma((v, m), i), Y-law rows."""
    values, val_of_z = np.unique(gd.table, axis=0, return_inverse=True)
    sup = np.unique(sup, axis=0)
    pv = np.zeros(len(values))
    np.add.at(pv, val_of_z.reshape(-1), np.bincount(enc.assignment, source.probs, enc.K))
    nv, m, n = len(values), len(sup), source.n
    nq = nv * m
    dev = np.sqrt(sq_dists(values, sup))
    hat = np.hstack([np.tile(sup, (nv, 1)), np.repeat(values, m, axis=0)])
    y_pts = np.hstack([source.points, gd.table[enc.assignment]])
    c = np.concatenate([(lam * pv[:, None] * dev).ravel(), np.sqrt(sq_dists(hat, y_pts)).ravel()])
    def row_sums(r, k):
        return sparse.kron(sparse.eye(r), np.ones((1, k)))

    a_eq = sparse.bmat([[row_sums(nv, m), None],
                        [sparse.diags(-np.repeat(pv, m)), row_sums(nq, n)],
                        [None, sparse.kron(np.ones((1, nq)), sparse.eye(n))]], format="csr")
    b_eq = np.concatenate([np.ones(nv), np.zeros(nq), source.probs])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


@given(_augmented_cases())
@settings(max_examples=60, deadline=None)
def test_transport_reduction_matches_full_lp(case):
    # the n × nv transport LP solve_augmented runs has the full LP's optimum,
    # over supp X ∪ gd, and its decoder attains it
    source, enc, gd, lam = case
    ref = _full_lp_optimum(source, enc, gd, np.vstack([source.points, gd.table]), lam)
    sol = solve_augmented(source, enc, gd, lam)
    assert sol.objective == pytest.approx(ref, rel=1e-12, abs=1e-14)
    recomputed = augmented_objective(source, enc, gd, sol.decoder, lam)
    assert recomputed == pytest.approx(ref, rel=1e-12, abs=1e-14)
    assert np.allclose(sol.decoder.table.sum(axis=1), 1.0, rtol=0, atol=1e-12)
