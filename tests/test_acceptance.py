"""Acceptance suite: one test per release criterion, at the stated tolerance.

Each test prints a single summary line with the measured gap and elapsed time,
and enforces the criterion's runtime budget where one is stated. Sources are
built in; nothing here reads fixtures or caches intermediate results.
"""
import time

import numpy as np

from dplab.augmented import solve_augmented
from dplab.codec import (
    decoder_output_dist,
    distortion,
    exhaustive_optimal_encoder,
    perceptual_decoder_for,
)
from dplab.distcore import builtin_source, joint_from_encoder, make_distribution
from dplab.tradeoff import (
    constrained_oracle,
    default_oracle_support,
    sweep,
    universal_encoder_check,
)
from dplab.transport import w1_exact, w2sq_exact, w_1d_closed_form

U4 = builtin_source("u4")
TWO_CLUSTER = make_distribution([0.0, 1.0, 4.0, 5.0], np.full(4, 0.25))


def _eight_point_source():
    rng = np.random.default_rng(2024)
    pts = np.sort(rng.choice(np.arange(-8, 9), size=8, replace=False)).astype(np.float64) / 2
    probs = np.array([4, 8, 8, 8, 8, 8, 8, 12]) / 64.0  # dyadic masses
    return make_distribution(pts, probs)


def _optimal_kit(source, k):
    enc, gd, d_d = exhaustive_optimal_encoder(source, k)
    gp = perceptual_decoder_for(source, enc)
    p_d = w2sq_exact(source, decoder_output_dist(source, enc, gd)).cost
    return enc, gd, gp, d_d, p_d


def test_criterion_1_endpoint_doubling():
    t0 = time.perf_counter()
    enc, gd, gp, d_d, _ = _optimal_kit(U4, 2)
    d0 = sweep(U4, enc, gd, gp, [0.0])[0].d_measured
    gap = abs(d0 - 2 * d_d)
    elapsed = time.perf_counter() - t0
    assert abs(d_d - 0.25) <= 1e-12
    assert gap <= 1e-8
    assert elapsed < 1.0
    print(f"criterion 1 PASS: D_d={d_d}, D(0)={d0}, |D(0)-2D_d|={gap:.3g} "
          f"<= 1e-8 ({elapsed:.2f} s < 1 s)")


def test_criterion_2_interpolation_identities():
    t0 = time.perf_counter()
    grid = [i / 20 for i in range(21)]
    worst_d = worst_p = 0.0
    for source in (U4, builtin_source("gauss33")):
        for rate in (1, 2):
            enc, gd, gp, d_d, p_d = _optimal_kit(source, 2 ** rate)
            for pt in sweep(source, enc, gd, gp, grid):
                a = pt.alpha
                worst_d = max(worst_d, abs(pt.d_measured - (1 + (1 - a) ** 2) * d_d))
                worst_p = max(worst_p, abs(pt.p_measured - a * a * p_d))
    elapsed = time.perf_counter() - t0
    assert worst_d <= 1e-8
    assert worst_p <= 1e-8
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 21-point sweeps, u4+gauss33, R in {{1,2}}: "
          f"max D gap {worst_d:.3g}, max P gap {worst_p:.3g} <= 1e-8 "
          f"({elapsed:.1f} s < 30 s)")


def test_criterion_3_oracle_tightness():
    t0 = time.perf_counter()
    worst = 0.0
    for source in (U4, TWO_CLUSTER, _eight_point_source()):
        enc, gd, gp, d_d, p_d = _optimal_kit(source, 2)
        sup = default_oracle_support(source, gd, gp)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            target = sweep(source, enc, gd, gp, [alpha])[0].d_measured
            d_star, _ = constrained_oracle(source, enc, alpha * alpha * p_d, sup)
            worst = max(worst, abs(d_star - target) / max(abs(target), 1e-300))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 120.0
    print(f"criterion 3 PASS: constrained oracle vs interpolation on 3 sources x "
          f"5 alphas: max rel gap {worst:.3g} <= 1e-6 ({elapsed:.1f} s < 2 min)")


def test_criterion_4_encoder_universality():
    t0 = time.perf_counter()
    worst = 0.0
    scoreboard = []
    for source in (U4, TWO_CLUSTER, _eight_point_source()):
        p_d = _optimal_kit(source, 2)[4]
        grid = [p_d * f for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
        report = universal_encoder_check(source, 2, grid)
        worst = max(worst, report.max_rel_gap)
        scoreboard.append(f"{source.n}pt:{report.max_rel_gap:.2g}")
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6
    assert elapsed < 300.0
    print(f"criterion 4 PASS: MMSE encoder never beaten over all 2^n assignments, "
          f"5-point P grids ({', '.join(scoreboard)}), max rel gap {worst:.3g} "
          f"<= 1e-6 ({elapsed:.1f} s < 5 min)")


def test_criterion_5_phase_transition():
    t0 = time.perf_counter()
    worst_w1 = worst_dev = worst_mse = 0.0
    for source in (U4, builtin_source("gauss33")):
        enc, gd, d_d = exhaustive_optimal_encoder(source, 2)
        for lam in (0.0, 0.25, 0.5, 0.9):
            sol = solve_augmented(source, enc, gd, lam)
            worst_w1 = max(worst_w1, sol.w1_gap)
            worst_mse = max(worst_mse, abs(sol.mse - 2 * d_d))
        for lam in (1.1, 1.5, 2.0):
            sol = solve_augmented(source, enc, gd, lam)
            worst_dev = max(worst_dev, sol.mean_dev)
            worst_mse = max(worst_mse, abs(sol.mse - d_d))
    elapsed = time.perf_counter() - t0
    assert worst_w1 <= 1e-8
    assert worst_dev <= 1e-8
    assert worst_mse <= 1e-8
    assert elapsed < 60.0
    print(f"criterion 5 PASS: lambda<1 w1_gap max {worst_w1:.3g}, lambda>1 "
          f"mean_dev max {worst_dev:.3g}, MSE step gap max {worst_mse:.3g} "
          f"<= 1e-8 ({elapsed:.1f} s < 1 min)")


def test_criterion_6_derivative_consistency():
    t0 = time.perf_counter()
    enc, gd, gp, d_d, p_d = _optimal_kit(U4, 2)
    grid = [i / 100 for i in range(101)]
    pts = sweep(U4, enc, gd, gp, grid)
    d_col = np.array([p.d_measured for p in pts])
    p_col = np.array([p.p_measured for p in pts])
    worst_rel = 0.0
    for i in range(1, 100):
        slope = (p_col[i + 1] - p_col[i - 1]) / (d_col[i + 1] - d_col[i - 1])
        a = grid[i]
        predicted = a / (a - 1.0)
        worst_rel = max(worst_rel, abs(slope - predicted) / abs(predicted))
        assert slope < 0
    # curvature from consecutive measured slopes: P convex in D
    slopes = np.diff(p_col) / np.diff(d_col)
    assert np.all(np.diff(slopes) <= 1e-9)  # D decreasing, so slopes fall with index
    elapsed = time.perf_counter() - t0
    assert worst_rel <= 1e-3
    print(f"criterion 6 PASS: central-difference dP/dD vs alpha/(alpha-1): "
          f"max rel err {worst_rel:.3g} <= 1e-3; slopes negative, curve convex "
          f"({elapsed:.1f} s)")


def test_criterion_7_transport_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7777)

    def random_1d(max_n=16):
        n = int(rng.integers(1, max_n + 1))
        pts = rng.choice(np.arange(-20, 21), size=n, replace=False) / 4.0
        w = rng.random(n) + 0.05
        return make_distribution(pts, w / w.sum())

    worst = 0.0
    for _ in range(50):
        a, b = random_1d(), random_1d()
        worst = max(worst, abs(w1_exact(a, b).cost - w_1d_closed_form(a, b, 1)))
        worst = max(worst, abs(w2sq_exact(a, b).cost - w_1d_closed_form(a, b, 2)))
    assert worst <= 1e-10

    worst_sym = worst_tri = worst_self = 0.0
    for _ in range(100):
        a, b, c = random_1d(6), random_1d(6), random_1d(6)
        ab, ba = w1_exact(a, b).cost, w1_exact(b, a).cost
        worst_sym = max(worst_sym, abs(ab - ba))
        worst_tri = max(worst_tri, w1_exact(a, c).cost - ab - w1_exact(b, c).cost)
        worst_self = max(worst_self, w1_exact(a, a).cost)
    elapsed = time.perf_counter() - t0
    assert worst_sym <= 1e-10
    assert worst_tri <= 1e-10
    assert worst_self <= 1e-12
    print(f"criterion 7 PASS: LP vs closed form on 50 instances: max gap "
          f"{worst:.3g} <= 1e-10; axioms on 100 triples: symmetry {worst_sym:.3g}, "
          f"triangle excess {worst_tri:.3g}, self-distance {worst_self:.3g} "
          f"({elapsed:.1f} s)")


def test_criterion_8_structural_identities():
    t0 = time.perf_counter()
    dyadic = (
        builtin_source("u2"),
        U4,
        TWO_CLUSTER,
        _eight_point_source(),
    )
    for source in dyadic:
        enc, _, _ = exhaustive_optimal_encoder(source, 2)
        out = decoder_output_dist(source, enc, perceptual_decoder_for(source, enc))
        assert np.array_equal(out.points, source.points)
        assert np.array_equal(out.probs, source.probs)  # bit-exact marginal

    worst_cross = worst_pd = 0.0
    for source in dyadic + (builtin_source("gauss33"),):
        enc, gd, gp, d_d, p_d = _optimal_kit(source, 2)
        pz = joint_from_encoder(source, enc).sum(axis=1)
        diff = gd.table[:, None, :] - gp.out_support[None, :, :]
        sq = np.einsum("zmd,zmd->zm", diff, diff)
        cross = float(np.einsum("z,zm,zm->", pz, gp.table, sq))
        worst_cross = max(worst_cross, abs(cross - d_d))
        worst_pd = max(worst_pd, abs(p_d - d_d))
    elapsed = time.perf_counter() - t0
    assert worst_cross <= 1e-10
    assert worst_pd <= 1e-9
    print(f"criterion 8 PASS: resampler marginal bit-exact on 4 dyadic sources; "
          f"max |E||Xd-Xp||^2 - D_d| = {worst_cross:.3g} <= 1e-10; "
          f"max |P_d - D_d| = {worst_pd:.3g} <= 1e-9 ({elapsed:.1f} s)")
