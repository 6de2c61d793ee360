import numpy as np
import pytest

from dplab import codec
from dplab.codec import (
    DeterministicDecoder,
    Encoder,
    StochasticDecoder,
    check_zd_xd_bijective,
    codec_to_json,
    decoder_output_dist,
    distortion,
    exhaustive_optimal_encoder,
    lloyd_train,
    mmse_decoder_for,
    perceptual_decoder_for,
)
from dplab.distcore import builtin_source, gaussian_grid, make_distribution
from dplab.tradeoff import universal_encoder_check

U4 = builtin_source("u4")
ENC_HALVES = Encoder(np.array([0, 0, 1, 1]), 2)


def test_encoder_validation():
    with pytest.raises(ValueError, match="out of range"):
        Encoder(np.array([0, 2]), 2)
    with pytest.raises(ValueError, match="out of range"):
        Encoder(np.array([-1, 0]), 2)
    with pytest.raises(ValueError, match="K must be"):
        Encoder(np.array([0]), 0)
    with pytest.raises(ValueError, match="flat"):
        Encoder(np.zeros((2, 2), dtype=int), 2)


def test_decoder_validation():
    with pytest.raises(ValueError, match="finite"):
        DeterministicDecoder(np.array([[np.nan]]))
    with pytest.raises(ValueError, match="sum to 1"):
        StochasticDecoder(np.array([0.0, 1.0]), np.array([[0.6, 0.6]]))
    with pytest.raises(ValueError, match="negative"):
        StochasticDecoder(np.array([0.0, 1.0]), np.array([[1.5, -0.5]]))
    with pytest.raises(ValueError, match="align"):
        StochasticDecoder(np.array([0.0, 1.0]), np.array([[0.5, 0.25, 0.25]]))


def test_mmse_decoder_examples():
    gd = mmse_decoder_for(U4, ENC_HALVES)
    assert gd.table.ravel().tolist() == [0.5, 2.5]

    gd1 = mmse_decoder_for(U4, Encoder(np.zeros(4, dtype=int), 1))
    assert gd1.table.ravel().tolist() == [1.5]

    u2 = builtin_source("u2")
    gid = mmse_decoder_for(u2, Encoder(np.array([0, 1]), 2))
    assert gid.table.ravel().tolist() == [0.0, 1.0]


def test_mmse_decoder_empty_cell():
    with pytest.raises(ValueError, match="empty cell"):
        mmse_decoder_for(U4, Encoder(np.zeros(4, dtype=int), 2))


def test_perceptual_decoder_rows():
    gp = perceptual_decoder_for(U4, ENC_HALVES)
    assert np.array_equal(gp.out_support, U4.points)
    expected = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]])
    assert np.array_equal(gp.table, expected)

    gp1 = perceptual_decoder_for(U4, Encoder(np.zeros(4, dtype=int), 1))
    assert np.array_equal(gp1.table, np.full((1, 4), 0.25))

    ident = perceptual_decoder_for(U4, Encoder(np.arange(4), 4))
    assert np.array_equal(ident.table, np.eye(4))


def test_distortion_examples():
    gd = mmse_decoder_for(U4, ENC_HALVES)
    gp = perceptual_decoder_for(U4, ENC_HALVES)
    assert distortion(U4, ENC_HALVES, gd) == 0.25
    assert distortion(U4, ENC_HALVES, gp) == 0.5
    ident = Encoder(np.arange(4), 4)
    assert distortion(U4, ident, mmse_decoder_for(U4, ident)) == 0.0


def test_distortion_k_mismatch():
    gd = mmse_decoder_for(U4, ENC_HALVES)
    with pytest.raises(ValueError, match="does not match"):
        distortion(U4, Encoder(np.zeros(4, dtype=int), 1), gd)


def test_output_dist_examples():
    gd = mmse_decoder_for(U4, ENC_HALVES)
    gp = perceptual_decoder_for(U4, ENC_HALVES)
    out_d = decoder_output_dist(U4, ENC_HALVES, gd)
    assert out_d.points.ravel().tolist() == [0.5, 2.5]
    assert out_d.probs.tolist() == [0.5, 0.5]
    out_p = decoder_output_dist(U4, ENC_HALVES, gp)
    assert np.array_equal(out_p.points, U4.points)
    assert np.array_equal(out_p.probs, U4.probs)
    enc1 = Encoder(np.zeros(4, dtype=int), 1)
    out1 = decoder_output_dist(U4, enc1, mmse_decoder_for(U4, enc1))
    assert out1.points.ravel().tolist() == [1.5] and out1.probs.tolist() == [1.0]


def test_bijectivity_probe():
    assert check_zd_xd_bijective(ENC_HALVES, DeterministicDecoder(np.array([0.5, 2.5])))
    assert not check_zd_xd_bijective(ENC_HALVES, DeterministicDecoder(np.array([1.5, 1.5])))
    assert check_zd_xd_bijective(Encoder(np.zeros(4, dtype=int), 1),
                                 DeterministicDecoder(np.array([1.5])))


def test_orthogonality_of_conditional_means():
    rng = np.random.default_rng(3)
    w = rng.random(7) + 0.1
    src = make_distribution(rng.normal(size=7), w / w.sum())
    enc, gd, _ = exhaustive_optimal_encoder(src, 3)
    resid = src.points - gd.table[enc.assignment]
    for _ in range(20):
        f = rng.normal(size=(3, 1))
        val = float(np.einsum("i,id,id->", src.probs, resid, f[enc.assignment]))
        assert abs(val) <= 1e-10


def test_lloyd_u4_reaches_global_optimum():
    trace: list = []
    enc, gd = lloyd_train(U4, 2, mse_trace=trace)
    assert enc.assignment.tolist() == [0, 0, 1, 1]
    assert gd.table.ravel().tolist() == [0.5, 2.5]
    assert abs(trace[-1] - 0.25) <= 1e-12


def test_lloyd_k1_gives_global_mean():
    enc, gd = lloyd_train(U4, 1)
    assert gd.table.ravel().tolist() == [1.5]
    assert abs(distortion(U4, enc, gd) - 1.25) <= 1e-12


def test_lloyd_lossless_rate():
    enc, gd = lloyd_train(U4, 4)
    assert distortion(U4, enc, gd) == 0.0
    assert sorted(gd.table.ravel().tolist()) == [0.0, 1.0, 2.0, 3.0]


@pytest.mark.parametrize("seed", range(8))
def test_lloyd_trace_monotone(seed):
    rng = np.random.default_rng(100 + seed)
    # two tight clusters plus stragglers: stresses the empty-cell repair
    pts = np.concatenate([rng.normal(0, 0.05, 6), rng.normal(5, 0.05, 4), [12.0, -7.0]])
    w = rng.random(12) + 0.05
    src = make_distribution(pts, w / w.sum())
    trace: list = []
    enc, gd = lloyd_train(src, 4, seed=seed, mse_trace=trace)
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    assert np.bincount(enc.assignment, minlength=4).min() >= 1
    assert abs(distortion(src, enc, gd) - trace[-1]) <= 1e-12


def test_lloyd_not_below_exhaustive():
    rng = np.random.default_rng(11)
    w = rng.random(6) + 0.1
    src = make_distribution(rng.normal(size=6), w / w.sum())
    _, _, d_d = exhaustive_optimal_encoder(src, 2)
    for seed in range(5):
        enc, gd = lloyd_train(src, 2, seed=seed)
        assert distortion(src, enc, gd) >= d_d - 1e-12


def test_lloyd_validation():
    with pytest.raises(ValueError, match="K > n"):
        lloyd_train(U4, 5)


def test_exhaustive_u4():
    enc, gd, d_d = exhaustive_optimal_encoder(U4, 2)
    assert enc.assignment.tolist() == [0, 0, 1, 1]
    assert gd.table.ravel().tolist() == [0.5, 2.5]
    assert d_d == 0.25


def test_exhaustive_two_cluster_source():
    src = make_distribution([0.0, 1.0, 4.0, 5.0], np.full(4, 0.25))
    enc, _, d_d = exhaustive_optimal_encoder(src, 2)
    assert enc.assignment.tolist() == [0, 0, 1, 1]
    assert d_d == 0.25


def test_exhaustive_tie_break_lexicographic():
    u2 = builtin_source("u2")
    enc, gd, d_d = exhaustive_optimal_encoder(u2, 2)
    assert enc.assignment.tolist() == [0, 1]
    assert gd.table.ravel().tolist() == [0.0, 1.0]
    assert d_d == 0.0


def test_exhaustive_lossless_rate():
    enc, _, d_d = exhaustive_optimal_encoder(U4, 4)
    assert d_d == 0.0
    assert sorted(enc.assignment.tolist()) == [0, 1, 2, 3]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_interval_fallback_matches_full_enumeration(seed, k):
    rng = np.random.default_rng(seed)
    w = rng.random(10) + 0.1
    src = make_distribution(rng.normal(size=10), w / w.sum())
    enc_int, _, d_int = exhaustive_optimal_encoder(src, k)
    full = Encoder(codec._exhaustive_full(src, k), k)
    assert abs(distortion(src, full, mmse_decoder_for(src, full)) - d_int) <= 1e-12
    assert enc_int.assignment.tolist() == full.assignment.tolist()


@pytest.mark.parametrize("n, k, want", [
    (5, 2, [0, 0, 1, 1, 1]),
    (7, 2, [0, 0, 0, 1, 1, 1, 1]),
    (9, 4, [0, 0, 1, 1, 2, 2, 2, 3, 3]),
    (10, 3, [0, 0, 0, 1, 1, 1, 1, 2, 2, 2]),
], ids=["n5-k2", "n7-k2", "n9-k4", "n10-k3"])
def test_interval_search_tie_break(n, k, want):
    # mirror-image optima tie in exact arithmetic; the interval search's float
    # sums decide, then its smallest-assignment rule at an exact float tie
    src = make_distribution(np.arange(float(n)), np.full(n, 1.0 / n))
    assert exhaustive_optimal_encoder(src, k)[0].assignment.tolist() == want


@pytest.mark.parametrize("n, k, want", [
    (7, 4, [0, 0, 1, 2, 2, 3, 3]),
    (14, 8, [0, 0, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 7]),
], ids=["n7-k4-cap1", "n14-k8"])
def test_interval_search_tie_through_absorbed_prefix(n, k, want):
    # Cells {0,1},{2} and {0},{1,2} have equal MSE in exact arithmetic, but the
    # second prefix sums one ulp lower; adding the next cell rounds both to one
    # total, so the tie is settled by the larger break tuple, whose prefix was
    # not the least.
    src = make_distribution(np.arange(n) * 0.1, np.full(n, 1.0 / n))
    assert exhaustive_optimal_encoder(src, k)[0].assignment.tolist() == want


def test_interval_search_masses_lost_in_rounding():
    # the tail masses, near exp(-50), vanish in the running total of the prefix
    # sums; a cell of them must not rank as s² / 0 = -inf, which made
    # [0] * 59 + [1] look optimal at D = 1
    src = gaussian_grid(0.0, 1.0, 60, 10.0)
    enc, _, d_d = exhaustive_optimal_encoder(src, 2)
    splits = [Encoder(np.arange(60) >= b, 2) for b in range(1, 60)]
    best = min(distortion(src, e, mmse_decoder_for(src, e)) for e in splits)
    assert enc.assignment.tolist() == [0] * 30 + [1] * 30
    assert abs(d_d - best) <= 1e-12 * best


def test_interval_search_gauss33_rate3():
    enc, _, _ = exhaustive_optimal_encoder(builtin_source("gauss33"), 8)
    assert enc.assignment.tolist() == (
        [0] * 10 + [1] * 3 + [2] * 2 + [3] * 2 + [4] * 2 + [5] * 2 + [6] * 3 + [7] * 9)


def test_one_d_search_never_enumerates(monkeypatch):
    def refuse(source, K):
        raise AssertionError("K^n enumeration reached")

    monkeypatch.setattr(codec, "_exhaustive_full", refuse)
    u2 = builtin_source("u2")
    assert exhaustive_optimal_encoder(u2, 2)[0].assignment.tolist() == [0, 1]
    assert exhaustive_optimal_encoder(U4, 2)[0].assignment.tolist() == [0, 0, 1, 1]
    assert exhaustive_optimal_encoder(U4, 4)[0].assignment.tolist() == [0, 1, 2, 3]
    enc, _, _ = exhaustive_optimal_encoder(gaussian_grid(0.0, 1.0, 22, 3.0), 2)
    assert enc.assignment.tolist() == [0] * 11 + [1] * 11
    assert exhaustive_optimal_encoder(gaussian_grid(0.0, 1.0, 600, 4.0), 1)[2] > 0
    planar = make_distribution(np.arange(8.0).reshape(4, 2), np.full(4, 0.25))
    with pytest.raises(AssertionError, match="enumeration reached"):
        exhaustive_optimal_encoder(planar, 2)


@pytest.mark.parametrize("k", [0, -1])
@pytest.mark.parametrize("search", [
    lambda k: exhaustive_optimal_encoder(U4, k),
    lambda k: lloyd_train(U4, k),
    lambda k: universal_encoder_check(U4, k, [0.1]),
], ids=["exhaustive", "lloyd", "universality"])
def test_code_count_below_one_refused(search, k):
    with pytest.raises(ValueError, match="K must be >= 1"):
        search(k)


def test_exhaustive_cap_error_multidim():
    # 2^24 assignments pass ENUMERATION_CAP; a planar source has no interval DP
    rng = np.random.default_rng(5)
    src = make_distribution(rng.normal(size=(24, 2)), np.full(24, 1 / 24))
    with pytest.raises(ValueError, match="cap exceeded"):
        exhaustive_optimal_encoder(src, 2)
    with pytest.raises(ValueError, match="K > n"):
        exhaustive_optimal_encoder(U4, 5)


def test_codec_json_partial_and_errors():
    enc, _, _ = exhaustive_optimal_encoder(U4, 2)
    assert codec_to_json(enc) == {"K": 2, "assignment": [0, 0, 1, 1]}
