import itertools
import tracemalloc

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
    with pytest.raises(ValueError, match="decoder entries must be finite"):
        StochasticDecoder(np.array([0.0, 1.0]), np.array([[np.nan, 1.0]]))


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


def test_planar_search_tiny_mass_cell():
    # ranked as E‖X‖² − Σ explained, the 1e-300 cell's error is lost in the
    # 0.5-scale total and [0, 1, 0] (D = 4e-300) ties the optimum; per-cell
    # MSE sums keep it
    src = make_distribution([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [0.5, 0.5, 1e-300])
    enc, _, d_d = exhaustive_optimal_encoder(src, 2)
    cands = [Encoder(np.array(a), 2) for a in ([0, 0, 1], [0, 1, 0], [0, 1, 1])]
    best = min(distortion(src, e, mmse_decoder_for(src, e)) for e in cands)
    assert enc.assignment.tolist() == [0, 1, 1]
    assert d_d == best == 1e-300


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


def _stirling2(n, k):
    row = [1] + [0] * k  # S(0, j)
    for _ in range(n):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, k + 1)]
    return row[k]


@pytest.mark.parametrize("n", range(1, 9))
def test_first_occurrence_blocks(n):
    for k in range(1, min(n, 5) + 1):
        every = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)
        top = np.maximum.accumulate(every, axis=1)
        first = ((every[:, 0] == 0) & (every[:, 1:] <= top[:, :-1] + 1).all(axis=1)
                 & (top[:, -1] == k - 1))
        want = every[first]  # product order is lexicographic
        assert len(want) == _stirling2(n, k)
        for rows in (1, 2, 5, 64, 10**6):
            blocks = list(codec._first_occurrence_blocks(n, k, rows))
            assert all(1 <= len(b) <= rows for b in blocks)
            assert np.array_equal(np.concatenate(blocks), want), (n, k, rows)


def _first_minimum_over_all_labelings(src, k):
    # the search's score, taken over all K^n labelings in product order
    moments = np.column_stack([src.probs, src.probs[:, None] * src.points,
                               src.probs * np.einsum("id,id->i", src.points, src.points)])
    every = np.array(list(itertools.product(range(k), repeat=src.n)), dtype=np.int64)
    scores = []
    for assigns in np.array_split(every, max(1, len(every) // 50_000)):
        cells = (assigns[:, None, :] == np.arange(k)[None, :, None]).astype(np.float64) @ moments
        m, s = cells[..., 0], cells[..., 1:-1]
        with np.errstate(divide="ignore", invalid="ignore"):
            cell_mse = np.where(m > 0, cells[..., -1] - np.einsum("bkd,bkd->bk", s, s) / m, np.inf)
        cell_mse.sort(axis=1)
        scores.append(cell_mse.sum(axis=1))
    return every[int(np.argmin(np.concatenate(scores)))]


_HEXAGON = [[np.cos(a), np.sin(a)] for a in np.arange(6) * np.pi / 3] + [[0.0, 0.0]]


@pytest.mark.parametrize("points, probs", [
    (_HEXAGON, np.full(7, 1 / 7)),
    ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.full(4, 0.25)),
    (list(itertools.product([0.0, 1.0], repeat=3)), np.full(8, 1 / 8)),
    (list(itertools.product([0.0, 1.0, 2.0], repeat=2)), np.full(9, 1 / 9)),
    ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [0.5, 0.5, 1e-300]),
], ids=["hexagon-centre", "unit-square", "unit-cube", "lattice-3x3", "tiny-mass"])
@pytest.mark.parametrize("rows", [None, 3], ids=["default-blocks", "3-row-blocks"])
def test_partition_search_matches_all_labelings(monkeypatch, points, probs, rows):
    # exact ties between relabelings and between mirror partitions: only a walk
    # in lexicographic order keeps the first minimum of all K^n labelings
    if rows is not None:
        blocks = codec._first_occurrence_blocks
        monkeypatch.setattr(codec, "_first_occurrence_blocks",
                            lambda n, k, _: blocks(n, k, rows))
    src = make_distribution(points, probs)
    for k in range(1, min(src.n, 4) + 1):
        want = _first_minimum_over_all_labelings(src, k)
        assert codec._exhaustive_full(src, k).tolist() == want.tolist(), k


def _lloyd_all_cells(source, K, seed, tol=1e-10, mse_trace=None, repairs=None):
    # Reference Lloyd: every iteration visits every code for the repair and
    # recomputes every centroid, one cell at a time. `repairs` collects the
    # repaired codes.
    n = source.n
    pts, probs = source.points, source.probs
    rng = np.random.default_rng(seed)
    levels = (np.arange(K) + rng.random(K)) / K
    raw = np.searchsorted(np.cumsum(probs), levels, side="left")
    used: set = set()
    init = []
    for i in raw:
        i = int(min(i, n - 1))
        while i in used:
            i = (i + 1) % n
        used.add(i)
        init.append(i)
    centroids = pts[np.array(init)]
    prev_mse = None
    for _ in range(codec.LLOYD_MAX_ITER):
        assign = np.argmin(codec.sq_dists(pts, centroids), axis=1)
        counts = np.bincount(assign, minlength=K)
        for z in range(K):
            if counts[z] == 0:
                own = np.einsum("id,id->i", pts - centroids[assign], pts - centroids[assign])
                own[counts[assign] <= 1] = -np.inf
                i = int(np.argmax(own))
                counts[assign[i]] -= 1
                assign[i] = z
                counts[z] += 1
                if repairs is not None:
                    repairs.append(z)
        for z in range(K):
            sel = assign == z
            w = probs[sel]
            centroids[z] = (w @ pts[sel]) / w.sum()
        diff = pts - centroids[assign]
        mse = float(np.einsum("i,id,id->", probs, diff, diff))
        if mse_trace is not None:
            mse_trace.append(mse)
        if prev_mse is not None and prev_mse - mse <= tol * max(prev_mse, 1e-300):
            break
        prev_mse = mse
    return assign, codec.mmse_decoder_for(source, Encoder(assign, K)).table


def _assert_lloyd_matches_all_cells(src, k, seed, repairs=None):
    trace, want_trace = [], []
    enc, gd = lloyd_train(src, k, seed=seed, mse_trace=trace)
    want, table = _lloyd_all_cells(src, k, seed, mse_trace=want_trace, repairs=repairs)
    assert enc.assignment.tobytes() == want.tobytes(), (k, seed)
    assert gd.table.tobytes() == table.tobytes(), (k, seed)
    assert repr(trace) == repr(want_trace), (k, seed)


@pytest.mark.parametrize("k", [16, 32, 64])
def test_lloyd_keeps_unmoved_centroids_bit_exact(k):
    src = gaussian_grid(0.3, 1.7, 512, 4.0)
    for seed in range(4):
        _assert_lloyd_matches_all_cells(src, k, seed)


def test_lloyd_repair_visits_only_empty_cells_bit_exact():
    # Squared distances under 2^-1074 round to 0, so points this close tie
    # with every centroid near them, go to the lowest code and leave the
    # other cells empty: every run below repairs at least one cell.
    rng = np.random.default_rng(7)
    tiny = 2.0**-550
    sources = [
        make_distribution(rng.normal(0, 1, 9) * tiny, np.full(9, 1 / 9)),
        make_distribution(np.concatenate([rng.normal(0, tiny, 5), 1 + rng.normal(0, 1e-3, 4)]),
                          np.full(9, 1 / 9)),
        make_distribution(np.arange(10.0) * tiny, np.full(10, 0.1)),
        make_distribution([[i * tiny, j * tiny] for i in range(3) for j in range(3)],
                          np.full(9, 1 / 9)),
        make_distribution([[i * tiny, j * 1.0] for i in range(3) for j in range(2)],
                          np.full(6, 1 / 6)),
    ]
    for src in sources:
        for k in (src.n, src.n - 1):
            for seed in range(3):
                repairs: list = []
                _assert_lloyd_matches_all_cells(src, k, seed, repairs)
                assert repairs, (src.points.ravel().tolist(), k, seed)


def test_lloyd_planar_and_clustered_bit_exact():
    rng = np.random.default_rng(8)
    for d, n in ((2, 40), (2, 90), (3, 50)):
        w = rng.random(n) + 0.05
        src = make_distribution(rng.normal(size=(n, d)), w / w.sum())
        for k in (2, 5, 8, 16):
            _assert_lloyd_matches_all_cells(src, k, seed=d * n + k)
    pts = np.concatenate([rng.normal(0, 0.05, 30), rng.normal(5, 0.05, 20), [12.0, -7.0]])
    src = make_distribution(pts, np.full(52, 1 / 52))
    for k in (4, 8, 26, 52):
        for seed in range(3):
            _assert_lloyd_matches_all_cells(src, k, seed)


def _interval_dp_per_row(source, K):
    # Reference interval DP: one array op per last break j of each stage and
    # per break b of each cap stage
    x, p, n = source.points[:, 0], source.probs, source.n
    pref_p, pref_x, pref_xx = (np.concatenate([[0.0], np.cumsum(v)])
                               for v in (p, p * x, p * x * x))

    def cell(i, j):
        s, m = pref_x[j] - pref_x[i], pref_p[j] - pref_p[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(m > 0, (pref_xx[j] - pref_xx[i]) - s * s / m, 0.0)

    best = np.full(n + 1, np.inf)
    best[1:] = cell(0, np.arange(1, n + 1))
    for t in range(2, K + 1):
        prev, best = best, np.full(n + 1, np.inf)
        for j in [n] if t == K else range(t, n - K + t + 1):
            i = np.arange(t - 1, j)
            best[j] = (prev[i] + cell(i, j)).min()
    caps = np.full((K + 1, n + 1), -np.inf)
    b = np.arange(K - 1, n)
    caps[1, b] = codec._sum_bound(cell(b, n), best[n])
    for r in range(2, K):
        for b in range(K - r, n - r + 1):
            j = np.arange(b + 1, n - r + 2)
            caps[r, b] = codec._sum_bound(cell(b, j), caps[r - 1, j]).max()
    b, v, breaks = 0, 0.0, []
    for r in range(K - 1, 0, -1):
        j = np.arange(b + 1, n - r + 1)
        w = v + cell(b, j)
        k = np.flatnonzero(w <= caps[r, j])[-1]
        b, v = int(j[k]), w[k]
        breaks.append(b)
    return np.searchsorted(breaks, np.arange(n), side="right")


def _dp_cases():
    rng = np.random.default_rng(9)
    yield "gauss33", builtin_source("gauss33"), range(1, 34)
    yield "tiny-mass", make_distribution([0.0, 1.0, 2.0], [0.5, 0.5, 1e-300]), (1, 2, 3)
    yield "tail-mass", gaussian_grid(0.0, 1.0, 60, 10.0), (2, 3, 10, 30)
    for n in (2, 3, 5, 8, 13, 21, 40, 64, 100, 200):
        ks = {min(n, k) for k in (1, 2, 3, 4, 8, 16)}
        if n <= 64:  # K near n/2 costs the per-row loops O(n^2) calls
            ks |= {max(1, n // 2), n - 1, n}
        # uniform grids tie exactly between mirror images; the 0.1 steps tie
        # only through prefix sums absorbed by rounding
        yield f"uniform{n}", make_distribution(np.arange(float(n)), np.full(n, 1 / n)), sorted(ks)
        yield f"tenths{n}", make_distribution(np.arange(n) * 0.1, np.full(n, 1 / n)), sorted(ks)
        w = rng.random(n) + 0.01
        yield f"random{n}", make_distribution(rng.normal(size=n), w / w.sum()), sorted(ks)


def test_interval_dp_stage_arrays_bit_exact(monkeypatch):
    # the default blocks and, on small sources, blocks of one and a few rows:
    # the seams between row blocks must not matter
    blocks = (codec.BLOCK_ELEMENTS, 1, 7)
    for name, src, ks in _dp_cases():
        for k in ks:
            want = _interval_dp_per_row(src, k).tobytes()
            for block in blocks[:1 if src.n > 21 else 3]:
                monkeypatch.setattr(codec, "BLOCK_ELEMENTS", block)
                assert codec._interval_dp(src, k).tobytes() == want, (name, k, block)


def test_interval_dp_block_bound_memory():
    # one unblocked 2000 x 2000 stage grid held about 190 MB of temporaries
    tracemalloc.start()
    try:
        exhaustive_optimal_encoder(gaussian_grid(0, 1, 2000, 4), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20, peak
