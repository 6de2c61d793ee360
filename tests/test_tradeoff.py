import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dplab.tradeoff
from dplab.augmented import solve_augmented
from dplab.codec import (
    DeterministicDecoder,
    Encoder,
    decoder_output_dist,
    distortion,
    exhaustive_optimal_encoder,
    mmse_decoder_for,
    perceptual_decoder_for,
)
from dplab.distcore import builtin_source, make_distribution
from dplab.tradeoff import (
    SWEEP_COLUMNS,
    TradeoffPoint,
    alpha_for_perception,
    constrained_oracle,
    default_oracle_support,
    dp_derivatives,
    interpolate,
    predicted_distortion,
    predicted_perception,
    sweep,
    sweep_to_csv,
    universal_encoder_check,
)
from dplab.transport import w2sq_exact
from test_acceptance import TWO_CLUSTER, _eight_point_source

U4 = builtin_source("u4")


@pytest.fixture(scope="module")
def u4_pair():
    enc, gd, d_d = exhaustive_optimal_encoder(U4, 2)
    gp = perceptual_decoder_for(U4, enc)
    return enc, gd, gp, d_d


def test_interpolate_endpoints(u4_pair):
    enc, gd, gp, _ = u4_pair
    top = interpolate(gd, gp, 1.0)
    assert np.array_equal(np.unique(top.out_support, axis=0), gd.table)
    bottom = interpolate(gd, gp, 0.0)
    assert np.array_equal(bottom.out_support, U4.points)
    assert np.array_equal(bottom.table, gp.table)


def test_interpolate_midpoint_cell0(u4_pair):
    enc, gd, gp, _ = u4_pair
    mid = interpolate(gd, gp, 0.5)
    assert mid.out_support.ravel().tolist() == [0.25, 0.75, 2.25, 2.75]
    assert mid.table[0].tolist() == [0.5, 0.5, 0.0, 0.0]
    assert mid.table[1].tolist() == [0.0, 0.0, 0.5, 0.5]


def test_interpolate_validation(u4_pair):
    enc, gd, gp, _ = u4_pair
    with pytest.raises(ValueError, match="alpha out of range"):
        interpolate(gd, gp, -0.1)
    with pytest.raises(ValueError, match="alpha out of range"):
        interpolate(gd, gp, 1.1)
    enc1 = Encoder(np.zeros(4, dtype=int), 1)
    with pytest.raises(ValueError, match="K mismatch"):
        interpolate(mmse_decoder_for(U4, enc1), gp, 0.5)
    with pytest.raises(ValueError, match="dimension mismatch between decoder tables"):
        interpolate(DeterministicDecoder(np.zeros((2, 2))), gp, 0.5)


def test_alpha_for_perception():
    assert alpha_for_perception(0.25, 0.25) == 1.0
    assert alpha_for_perception(0.0, 0.25) == 0.0
    assert alpha_for_perception(0.0625, 0.25) == 0.5
    assert alpha_for_perception(9.0, 0.25) == 1.0
    with pytest.raises(ValueError, match="perception must be ≥ 0"):
        alpha_for_perception(-0.1, 0.25)
    with pytest.raises(ValueError, match="P_d must be ≥ 0"):
        alpha_for_perception(0.1, -0.25)
    # a lossless codec already meets every budget
    assert alpha_for_perception(0.1, 0.0) == 1.0


def test_prediction_formulas():
    assert predicted_distortion(1.0, 0.25) == 0.25
    assert predicted_distortion(0.0, 0.25) == 0.5
    assert predicted_distortion(0.5, 0.25) == 0.3125
    assert predicted_perception(0.0, 0.25) == 0.0
    assert predicted_perception(1.0, 0.25) == 0.25
    assert predicted_perception(0.5, 0.25) == 0.0625
    with pytest.raises(ValueError, match="alpha out of range"):
        predicted_distortion(1.2, 0.25)
    with pytest.raises(ValueError, match="alpha out of range"):
        predicted_perception(-0.2, 0.25)


def test_dp_derivatives():
    slope, curv = dp_derivatives(0.5, 0.25)
    assert slope == -1.0
    assert curv == 16.0
    for alpha in (0.1, 0.3, 0.7, 0.9):
        s, c = dp_derivatives(alpha, 0.25)
        assert s < 0 and c > 0
    with pytest.raises(ValueError, match="strictly inside"):
        dp_derivatives(0.0, 0.25)
    with pytest.raises(ValueError, match="strictly inside"):
        dp_derivatives(1.0, 0.25)
    with pytest.raises(ValueError, match="D_d"):
        dp_derivatives(0.5, 0.0)


def test_evaluate_point_examples(u4_pair):
    enc, gd, gp, _ = u4_pair
    mid = sweep(U4, enc, gd, gp, [0.5])[0]
    assert mid.d_measured == 0.3125
    assert abs(mid.p_measured - 0.0625) <= 1e-9
    assert mid.d_predicted == 0.3125 and mid.p_predicted == 0.0625

    lo = sweep(U4, enc, gd, gp, [0.0])[0]
    assert lo.d_measured == 0.5 and lo.p_measured <= 1e-9

    hi = sweep(U4, enc, gd, gp, [1.0])[0]
    assert hi.d_measured == 0.25 and abs(hi.p_measured - 0.25) <= 1e-9


def test_tradeoff_point_invariants():
    TradeoffPoint(0.5, 0.3125, 0.0625, 0.3125, 0.0625, 0.25, 0.25)
    with pytest.raises(ValueError, match="exceeds"):
        TradeoffPoint(0.5, 0.3125, 0.3, 0.3125, 0.0625, 0.25, 0.25)
    with pytest.raises(ValueError, match="undercuts"):
        TradeoffPoint(0.5, 0.1, 0.0625, 0.3125, 0.0625, 0.25, 0.25)
    with pytest.raises(ValueError, match="alpha"):
        TradeoffPoint(1.5, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25)
    with pytest.raises(ValueError, match="nonnegative"):
        TradeoffPoint(0.5, -0.1, 0.0625, 0.3125, 0.0625, 0.25, 0.25)


def test_sweep_five_point_grid(u4_pair):
    enc, gd, gp, _ = u4_pair
    pts = sweep(U4, enc, gd, gp, [0.0, 0.25, 0.5, 0.75, 1.0])
    d_col = [p.d_measured for p in pts]
    p_col = [p.p_measured for p in pts]
    assert d_col == [0.5, 0.390625, 0.3125, 0.265625, 0.25]
    assert np.allclose(p_col, [0.0, 0.015625, 0.0625, 0.140625, 0.25], atol=1e-9)
    assert all(p.d_d == 0.25 for p in pts)
    assert all(abs(p.p_d - 0.25) <= 1e-9 for p in pts)


def test_sweep_solves_p_d_once(u4_pair, monkeypatch):
    # one W2 LP per alpha plus one for P_d, which depends on the codec alone
    enc, gd, gp, _ = u4_pair
    calls = []
    w2 = dplab.tradeoff.w2sq_exact
    monkeypatch.setattr(dplab.tradeoff, "w2sq_exact",
                        lambda *args: calls.append(args) or w2(*args))
    sweep(U4, enc, gd, gp, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(calls) == 6


def test_sweep_validation_and_empty(u4_pair):
    enc, gd, gp, _ = u4_pair
    assert sweep(U4, enc, gd, gp, []) == []
    with pytest.raises(ValueError, match="sorted ascending"):
        sweep(U4, enc, gd, gp, [0.5, 0.25])
    with pytest.raises(ValueError, match="alpha out of range"):
        sweep(U4, enc, gd, gp, [0.5, 1.25])


def test_sweep_csv_layout(u4_pair):
    enc, gd, gp, _ = u4_pair
    text = sweep_to_csv(sweep(U4, enc, gd, gp, [0.0, 1.0]))
    lines = text.split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 4 and lines[3] == ""
    assert lines[1].startswith("0,0.5,")
    assert lines[2].startswith("1,0.25,")


def test_curve_monotone_convex(u4_pair):
    enc, gd, gp, _ = u4_pair
    pts = sweep(U4, enc, gd, gp, [i / 20 for i in range(21)])
    d_col = [p.d_measured for p in pts]
    p_col = [p.p_measured for p in pts]
    assert all(b <= a + 1e-9 for a, b in zip(d_col, d_col[1:]))
    assert all(b >= a - 1e-9 for a, b in zip(p_col, p_col[1:]))
    slopes = [(d2 - d1) / (p2 - p1)
              for (d1, p1), (d2, p2) in zip(zip(d_col, p_col), zip(d_col[1:], p_col[1:]))]
    assert all(s2 >= s1 - 1e-6 for s1, s2 in zip(slopes, slopes[1:]))


def test_default_oracle_support(u4_pair):
    enc, gd, gp, _ = u4_pair
    sup = default_oracle_support(U4, gd, gp)
    assert sup.shape == (18, 1)
    merged = np.unique(np.vstack([sup, U4.points, gd.table]), axis=0)
    assert merged.shape[0] == sup.shape[0]


def test_signed_zero_support_is_canonical(u4_pair):
    # −0.0 and +0.0 are one support point whichever comes first, so the
    # returned support has the same bytes for all four spellings of zero
    enc, gd, _, _ = u4_pair
    rest = [1.0, 2.0, 3.0, *gd.table[:, 0]]
    for solve in (lambda sup: constrained_oracle(U4, enc, 0.1, sup)[1],
                  lambda sup: solve_augmented(U4, enc, gd, 0.5, out_support=sup).decoder):
        got = {solve(np.array(zeros + rest)[:, None]).out_support.tobytes()
               for zeros in ([0.0], [-0.0], [0.0, -0.0], [-0.0, 0.0])}
        assert len(got) == 1


def test_oracle_perfect_perception(u4_pair):
    enc, _, _, _ = u4_pair
    d_star, dec = constrained_oracle(U4, enc, 0.0, U4.points)
    assert abs(d_star - 0.5) <= 1e-9
    from dplab.codec import decoder_output_dist
    out = decoder_output_dist(U4, enc, dec)
    assert np.array_equal(out.points, U4.points)
    assert np.allclose(out.probs, U4.probs, atol=1e-9)


def test_oracle_inactive_budget(u4_pair):
    enc, gd, gp, _ = u4_pair
    sup = default_oracle_support(U4, gd, gp)
    d_star, _ = constrained_oracle(U4, enc, 0.25, sup)
    assert abs(d_star - 0.25) <= 1e-9
    d_star_loose, _ = constrained_oracle(U4, enc, 100.0, sup)
    assert abs(d_star_loose - 0.25) <= 1e-9


def test_oracle_midpoint_budget(u4_pair):
    enc, gd, gp, _ = u4_pair
    sup = default_oracle_support(U4, gd, gp)
    d_star, _ = constrained_oracle(U4, enc, 0.0625, sup)
    assert abs(d_star - 0.3125) <= 1e-8


def test_oracle_monotone_in_budget(u4_pair):
    enc, gd, gp, _ = u4_pair
    sup = default_oracle_support(U4, gd, gp)
    values = [constrained_oracle(U4, enc, p, sup)[0]
              for p in (0.0, 0.01, 0.0625, 0.15, 0.25)]
    assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_perception_refused(u4_pair, p):
    enc, _, _, _ = u4_pair
    with pytest.raises(ValueError, match="perception must be finite"):
        constrained_oracle(U4, enc, p, U4.points)
    with pytest.raises(ValueError, match="perception must be finite"):
        alpha_for_perception(p, 0.25)
    with pytest.raises(ValueError, match="perception must be finite"):
        universal_encoder_check(U4, 2, [0.1, p])


def test_oracle_validation(u4_pair):
    enc, _, _, _ = u4_pair
    with pytest.raises(ValueError, match="perception must be ≥ 0"):
        constrained_oracle(U4, enc, -0.1, U4.points)
    with pytest.raises(ValueError, match="non-empty"):
        constrained_oracle(U4, enc, 0.0, np.zeros((0, 1)))
    with pytest.raises(ValueError, match="dimension mismatch"):
        constrained_oracle(U4, enc, 0.0, np.zeros((3, 2)))
    # a scalar and a 3-D array are no list of points either
    for bad in (1.5, np.zeros((3, 1, 1))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            constrained_oracle(U4, enc, 0.0, bad)
    with pytest.raises(ValueError, match="infeasible"):
        constrained_oracle(U4, enc, 0.0, np.array([0.5, 2.5]))


def test_universality_u4():
    report = universal_encoder_check(U4, 2, [0.0, 0.0625, 0.25])
    assert report.ok(1e-6)
    assert report.max_rel_gap <= 1e-6
    assert [r.p_budget for r in report.rows] == [0.0, 0.0625, 0.25]
    for r in report.rows:
        assert r.d_star_mmse <= r.d_star_best * (1 + 1e-6) + 1e-12


def _first_occurrence_labelings(n, k):
    """Each partition of range(n) into at most k cells as its smallest labeling."""
    return [a for a in itertools.product(range(k), repeat=n)
            if all(a[i] <= max(a[:i], default=-1) + 1 for i in range(n))]


def test_universality_one_encoder_per_partition(monkeypatch):
    # 8 partitions of 4 points into at most 2 cells, 2 budgets; relabelings of
    # a partition are not re-solved. Only the MMSE partition runs the oracle,
    # once per budget, over 5 support images plus each budget's alpha image;
    # every partition solves one W2 LP for its P_d.
    calls = []
    oracle = dplab.tradeoff.constrained_oracle
    monkeypatch.setattr(dplab.tradeoff, "constrained_oracle",
                        lambda *args: calls.append(args) or oracle(*args))
    interpolations = []
    interp = dplab.tradeoff.interpolate
    monkeypatch.setattr(dplab.tradeoff, "interpolate",
                        lambda *args: interpolations.append(args) or interp(*args))
    w2_calls = []
    w2 = dplab.tradeoff.w2sq_exact
    monkeypatch.setattr(dplab.tradeoff, "w2sq_exact",
                        lambda *args: w2_calls.append(args) or w2(*args))
    rivals = []
    decoder = dplab.tradeoff.mmse_decoder_for
    monkeypatch.setattr(dplab.tradeoff, "mmse_decoder_for",
                        lambda src, enc: rivals.append(tuple(enc.assignment.tolist()))
                        or decoder(src, enc))
    report = universal_encoder_check(U4, 2, [0.0, 0.25])
    assert len(calls) == 2
    assert len(interpolations) == 7
    assert len(w2_calls) == 8
    assert report.ok(1e-6)

    # every other partition into at most K cells is a rival exactly once
    rng = np.random.default_rng(4)
    for n in range(1, 7):
        w = rng.uniform(0.1, 1.0, n)
        for src in (make_distribution(rng.normal(size=n), w / w.sum()),
                    make_distribution(rng.normal(size=(n, 2)), w / w.sum())):
            for k in range(1, min(n, 4) + 1):
                mmse = tuple(exhaustive_optimal_encoder(src, k)[0].assignment.tolist())
                expected = _first_occurrence_labelings(n, k)
                assert mmse in expected
                expected.remove(mmse)
                rivals.clear()
                universal_encoder_check(src, k, [0.0])
                assert sorted(rivals) == expected, (src.dim, n, k)


def test_universality_two_cluster():
    report = universal_encoder_check(TWO_CLUSTER, 2, [0.0, 0.25])
    assert report.ok(1e-6)


def _universality_on_p_d_grid(src):
    """universal_encoder_check at K = 2 on the budgets f·P_d, f ∈ {0, .25, .5, .75, 1}."""
    enc, gd, _ = exhaustive_optimal_encoder(src, 2)
    p_d = w2sq_exact(src, decoder_output_dist(src, enc, gd)).cost
    return universal_encoder_check(src, 2, [p_d * f for f in (0.0, 0.25, 0.5, 0.75, 1.0)])


# float.hex of each UniversalityRow's (p_budget, d_star_mmse, d_star_best),
# captured when every rival partition still ran the oracle on its own support
PINNED_ROWS = {
    "two_cluster": [
        ("0x0.0p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-1"),
        ("0x1.0000000000000p-4", "0x1.4000000000000p-2", "0x1.4000000000000p-2"),
        ("0x1.0000000000000p-3", "0x1.15f619980c435p-2", "0x1.15f619980c435p-2"),
        ("0x1.8000000000000p-3", "0x1.0498517a7b356p-2", "0x1.0498517a7b356p-2"),
        ("0x1.0000000000000p-2", "0x1.0000000000000p-2", "0x1.0000000000000p-2"),
    ],
    "eight_point": [
        ("0x0.0p+0", "0x1.76db6db6db6dcp+0", "0x1.76db6db6db6dcp+0"),
        ("0x1.76db6db6db6dcp-3", "0x1.d492492492490p-1", "0x1.d492492492490p-1"),
        ("0x1.76db6db6db6dcp-2", "0x1.9703ca0c5b193p-1", "0x1.9703ca0c5b193p-1"),
        ("0x1.1924924924925p-1", "0x1.7d95e505a2206p-1", "0x1.7d95e505a2206p-1"),
        ("0x1.76db6db6db6dcp-1", "0x1.76db6db6db6dcp-1", "0x1.76db6db6db6dcp-1"),
    ],
}


@pytest.mark.parametrize("name, src, best", [
    ("two_cluster", TWO_CLUSTER, (0, 0, 1, 1)),
    ("eight_point", _eight_point_source(), (0, 0, 0, 0, 1, 1, 1, 1)),
])
def test_universality_rows_pinned(name, src, best):
    # the MMSE partition, which every row's zero gap says no rival beats
    assert tuple(exhaustive_optimal_encoder(src, 2)[0].assignment.tolist()) == best
    report = _universality_on_p_d_grid(src)
    got = [(r.p_budget.hex(), r.d_star_mmse.hex(), r.d_star_best.hex()) for r in report.rows]
    assert got == PINNED_ROWS[name]
    for r in report.rows:
        assert r.rel_gap.hex() == "0x0.0p+0"


@pytest.mark.parametrize("src", [
    make_distribution([0.0, 1.0, 2.0], np.full(3, 1 / 3)),
    make_distribution([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]], np.full(4, 0.25)),
], ids=["uniform3", "unit_square"])
def test_universality_tied_rival_scores_its_exact_value(src):
    # a mirror-image partition ties the MMSE one in exact arithmetic, so its
    # closed-form score may undercut the MMSE oracle value only by rounding
    assert _universality_on_p_d_grid(src).max_rel_gap <= 1e-14


def _planar6():
    rng = np.random.default_rng(6)
    w = rng.uniform(0.05, 1, 6)
    return make_distribution(rng.normal(size=(6, 2)), w / w.sum())


def _dense_support(src, gd):
    """supp(X) ∪ gd table ∪ a grid over the bounding box (33 points in 1-D, 9x9 in 2-D)."""
    lo, hi = src.points.min(axis=0), src.points.max(axis=0)
    axes = [np.linspace(a, b, 33 if src.dim == 1 else 9) for a, b in zip(lo, hi)]
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes)], axis=1)
    return np.vstack([grid, src.points, gd.table])


@pytest.mark.parametrize("src", [U4, TWO_CLUSTER, _planar6()], ids=["u4", "two_cluster", "planar6"])
def test_rival_bound_is_a_lower_bound(src):
    # D_d + (sqrt(P_d) - sqrt(P))_+^2 is each encoder's exact optimum over all
    # decoders, so the oracle on any finite support sits at or above it; the
    # MMSE partition attains it on its own interpolation images.
    mmse = tuple(exhaustive_optimal_encoder(src, 2)[0].assignment)
    for assign in _first_occurrence_labelings(src.n, 2):
        enc = Encoder(np.asarray(assign), max(assign) + 1)
        gd = mmse_decoder_for(src, enc)
        gp = perceptual_decoder_for(src, enc)
        d_d = distortion(src, enc, gd)
        p_d = w2sq_exact(src, decoder_output_dist(src, enc, gd)).cost
        for f in (0.0, 0.1, 0.3, 0.6, 1.0):
            p = f * p_d
            bound = d_d + max(np.sqrt(p_d) - np.sqrt(p), 0.0) ** 2
            image = interpolate(gd, gp, alpha_for_perception(p, p_d)).out_support
            d_star, _ = constrained_oracle(src, enc, p, np.vstack([_dense_support(src, gd), image]))
            assert d_star >= bound * (1 - 1e-12), (assign, f)
            if assign == mmse:
                assert abs(d_star - bound) <= 1e-12 * bound, f


def test_universality_lossless_rate():
    report = universal_encoder_check(U4, 4, [0.0, 0.1])
    for r in report.rows:
        assert r.d_star_mmse <= 1e-9
        assert r.rel_gap <= 1e-6


def test_universality_validation():
    rng = np.random.default_rng(9)
    src = make_distribution(rng.normal(size=24), np.full(24, 1 / 24))
    with pytest.raises(ValueError, match="cap exceeded"):
        universal_encoder_check(src, 2, [0.0])
    with pytest.raises(ValueError, match="perception must be ≥ 0"):
        universal_encoder_check(U4, 2, [-0.5])


@st.composite
def _small_sources(draw):
    n = draw(st.integers(min_value=3, max_value=5))
    pts = draw(st.lists(st.integers(min_value=-4, max_value=4),
                        min_size=n, max_size=n, unique=True))
    w = draw(st.lists(st.integers(min_value=1, max_value=6), min_size=n, max_size=n))
    w = np.asarray(w, dtype=np.float64)
    alpha = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    return make_distribution(np.asarray(pts, dtype=np.float64) / 2.0, w / w.sum()), alpha


@given(_small_sources())
@settings(max_examples=25, deadline=None)
def test_interpolation_identities_random_sources(case):
    src, alpha = case
    enc, gd, d_d = exhaustive_optimal_encoder(src, 2)
    gp = perceptual_decoder_for(src, enc)
    pt = sweep(src, enc, gd, gp, [alpha])[0]
    assert abs(pt.d_measured - (1 + (1 - alpha) ** 2) * d_d) <= 1e-8
    assert abs(pt.p_measured - alpha ** 2 * pt.p_d) <= 1e-8
    assert abs(pt.p_d - d_d) <= 1e-9
