"""Rate-constrained encoders and the two canonical decoders.

An Encoder partitions the source support into K = 2^R cells. The
conditional-mean decoder minimizes squared error for a fixed encoder; the
conditional resampler reproduces the source law exactly at the decoder output.
These are the two endpoints every tradeoff construction interpolates between.

Decoders are tables, never sampled: deterministic decoders map code -> point,
stochastic decoders map code -> pmf over a finite output support, so every
expectation downstream is an exact finite sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .distcore import (
    MASS_TOL,
    DiscreteDistribution,
    _readonly,
    _unique_rows,
    as_points,
    joint_from_encoder,
    make_distribution,
    sq_dists,
)

ENUMERATION_CAP = 10**7
# the 1-D interval DP takes about 2·(K−2)·(n−K+1)² element steps; 2^30 is ~40 s
DP_CAP = 1 << 30
# entries per block of the exact searches' array work: score rows are grouped
# so that no block temporary exceeds this many elements
BLOCK_ELEMENTS = 1 << 18
LLOYD_MAX_ITER = 1000


@dataclass(frozen=True, eq=False)
class Encoder:
    """Deterministic map from source-support index to code index in [0, K)."""

    assignment: np.ndarray
    K: int

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("assignment must be a flat index list")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if a.size and (a.min() < 0 or a.max() >= self.K):
            raise ValueError(f"code index out of range [0, {self.K})")
        object.__setattr__(self, "assignment", _readonly(a))


@dataclass(frozen=True, eq=False)
class DeterministicDecoder:
    """Code -> output point table, one row per code."""

    table: np.ndarray

    def __post_init__(self):
        t = as_points(self.table)
        if t.ndim != 2 or not np.all(np.isfinite(t)):
            raise ValueError("decoder table must be a finite K-by-d matrix")
        object.__setattr__(self, "table", _readonly(t))

    @property
    def K(self) -> int:
        return self.table.shape[0]


@dataclass(frozen=True, eq=False)
class StochasticDecoder:
    """Code -> pmf over a shared finite output support."""

    out_support: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        s = as_points(self.out_support)
        t = np.asarray(self.table, dtype=np.float64)
        if s.ndim != 2 or t.ndim != 2 or t.shape[1] != s.shape[0]:
            raise ValueError("table columns must align with out_support")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(t))):
            raise ValueError("decoder entries must be finite")
        if np.any(t < 0):
            raise ValueError("negative prob in decoder row")
        gap = np.abs(t.sum(axis=1) - 1.0)
        if gap.size and gap.max() > MASS_TOL:
            raise ValueError("decoder rows must each sum to 1 within 1e-12")
        object.__setattr__(self, "out_support", _readonly(s))
        object.__setattr__(self, "table", _readonly(t))

    @property
    def K(self) -> int:
        return self.table.shape[0]


Decoder = Union[DeterministicDecoder, StochasticDecoder]


def _check_code_count(K: int, n: int) -> None:
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > n:
        raise ValueError(f"K > n: {K} codes for {n} support points")


def _check_enumeration(K: int, n: int) -> None:
    if K ** n > ENUMERATION_CAP:
        raise ValueError(f"enumeration cap exceeded: K^n = {K}^{n} > {ENUMERATION_CAP}")


def _require_finite_mse(source: DiscreteDistribution) -> None:
    """Refuse a source whose E‖X‖² overflows: every candidate MSE is inf or nan,
    so no search can rank encoders on it."""
    ex2 = float(np.einsum("i,id,id->", source.probs, source.points, source.points))
    if not math.isfinite(ex2):
        raise ValueError("no encoder has a finite MSE: E‖X‖² overflows float64")


def _code_law(source: DiscreteDistribution, enc: Encoder, *tables) -> Tuple[np.ndarray, np.ndarray]:
    """(joint mass, p(z)) of a code; each table given must have one row per code."""
    mass = joint_from_encoder(source, enc)
    if any(len(t) != enc.K for t in tables):
        raise ValueError("decoder K does not match encoder K")
    return mass, mass.sum(axis=1)


def _filled_cells(source: DiscreteDistribution, enc: Encoder, *tables) -> Tuple[np.ndarray, np.ndarray]:
    """(joint mass, p(z)) of a code; a cell with no mass is an error."""
    mass, pz = _code_law(source, enc, *tables)
    if np.any(pz <= 0):
        raise ValueError(f"empty cell {int(np.argmin(pz))}")
    return mass, pz


def mmse_decoder_for(source: DiscreteDistribution, enc: Encoder) -> DeterministicDecoder:
    """Conditional-mean decoder: table[z] = E[X | Z=z]."""
    mass, pz = _filled_cells(source, enc)
    table = (mass @ source.points) / pz[:, None]
    return DeterministicDecoder(table)


def perceptual_decoder_for(source: DiscreteDistribution, enc: Encoder) -> StochasticDecoder:
    """Conditional resampler: row z is p_{X|Z=z} over the source support.

    Its output marginal is the source law itself, which is what makes it the
    perfect-perception endpoint.
    """
    mass, pz = _filled_cells(source, enc)
    return StochasticDecoder(source.points.copy(), mass / pz[:, None])


def distortion(source: DiscreteDistribution, enc: Encoder, dec: Decoder) -> float:
    """Exact E‖X − X̂‖² under the joint law p(x, z) and the decoder rows."""
    _code_law(source, enc, dec.table)
    if isinstance(dec, DeterministicDecoder):
        diff = source.points - dec.table[enc.assignment]
        return float(np.einsum("i,id,id->", source.probs, diff, diff))
    sq = sq_dists(source.points, dec.out_support)
    rows = dec.table[enc.assignment]
    return float(np.einsum("i,im,im->", source.probs, rows, sq))


def decoder_output_dist(
    source: DiscreteDistribution, enc: Encoder, dec: Decoder
) -> DiscreteDistribution:
    """Exact output marginal p_{X̂} = Σ_z p(z) q(.|z)."""
    _, pz = _code_law(source, enc, dec.table)
    if isinstance(dec, DeterministicDecoder):
        return make_distribution(dec.table, pz)
    return make_distribution(dec.out_support, pz @ dec.table)


def check_zd_xd_bijective(enc: Encoder, dec: DeterministicDecoder) -> bool:
    """True iff the decoder table has K pairwise distinct rows (bit-exact,
    −0.0 read as +0.0)."""
    return _unique_rows(dec.table)[0].shape[0] == enc.K


def lloyd_train(
    source: DiscreteDistribution,
    K: int,
    seed: int = 0,
    tol: float = 1e-10,
    mse_trace: Optional[list] = None,
) -> Tuple[Encoder, DeterministicDecoder]:
    """Alternating nearest-centroid / conditional-mean training.

    Initial centroids are K distinct support points drawn by seeded choice
    from the support quantiles (one draw per probability stratum). Points
    equidistant to two centroids go to the lower code index; an empty cell is
    repaired by stealing the point currently farthest from its own centroid.
    Each iteration recomputes only the centroids of cells that gained or lost
    a point; a cell whose members did not move keeps its centroid, the same
    value a recomputation would give. Stops when the relative MSE improvement
    drops to tol or after LLOYD_MAX_ITER iterations. The per-iteration MSE
    sequence (nonincreasing) is appended to mse_trace when a list is supplied.
    """
    n = source.n
    _check_code_count(K, n)
    _require_finite_mse(source)
    pts, probs = source.points, source.probs

    rng = np.random.default_rng(seed)
    levels = (np.arange(K) + rng.random(K)) / K
    cum = np.cumsum(probs)
    raw = np.searchsorted(cum, levels, side="left")
    used: set = set()
    init = []
    for i in raw:
        i = int(min(i, n - 1))
        while i in used:
            i = (i + 1) % n
        used.add(i)
        init.append(i)
    centroids = pts[np.array(init)]

    assign = np.zeros(n, dtype=np.int64)
    prev_assign = None
    prev_mse = None
    for _ in range(LLOYD_MAX_ITER):
        assign = np.argmin(sq_dists(pts, centroids), axis=1)  # first minimum -> lower code wins ties

        counts = np.bincount(assign, minlength=K)
        # a repair never empties another cell, so the empty cells are known up front
        for z in np.flatnonzero(counts == 0):
            own = np.einsum("id,id->i", pts - centroids[assign], pts - centroids[assign])
            own[counts[assign] <= 1] = -np.inf  # never empty another cell
            i = int(np.argmax(own))
            counts[assign[i]] -= 1
            assign[i] = z
            counts[z] += 1

        if prev_assign is None:  # the initial centroids are support points, not means
            stale = range(K)
        else:
            moved = assign != prev_assign
            stale = np.union1d(assign[moved], prev_assign[moved])
        for z in stale:
            sel = assign == z
            w = probs[sel]
            centroids[z] = (w @ pts[sel]) / w.sum()
        prev_assign = assign

        diff = pts - centroids[assign]
        mse = float(np.einsum("i,id,id->", probs, diff, diff))
        if mse_trace is not None:
            mse_trace.append(mse)
        if prev_mse is not None and prev_mse - mse <= tol * max(prev_mse, 1e-300):
            break
        prev_mse = mse

    enc = Encoder(assign, K)
    return enc, mmse_decoder_for(source, enc)


def _sum_bound(c, h):
    """Largest doubles v with fl(v + c) <= h, elementwise.

    fl(v + c) is monotone in v, so single-ulp steps reach v from the rounding
    boundary (halfway from h to the next double) minus c. They are an ulp or
    two: wherever v is small beside h, c is close to h and h - c is exact.
    """
    v = (h - c) + (np.nextafter(h, np.inf) - h) / 2
    while (over := v + c > h).any():
        v = np.where(over, np.nextafter(v, -np.inf), v)
    while (fits := np.nextafter(v, np.inf) + c <= h).any():
        v = np.where(fits, np.nextafter(v, np.inf), v)
    return v


def _interval_dp(source, K):
    # For scalar squared error some optimal quantizer has interval cells
    # [b_{t-1}, b_t), 0 = b_0 < ... < b_K = n. Of all C(n-1, K-1) break tuples
    # this returns the least left-to-right float sum of cell MSEs and, among
    # exact ties, the lexicographically largest tuple: the smallest assignment.
    x, p, n = source.points[:, 0], source.probs, source.n
    pref_p, pref_x, pref_xx = (np.concatenate([[0.0], np.cumsum(v)])
                               for v in (p, p * x, p * x * x))

    def cell(i, j):  # MSE of points [i, j); 0, not s²/0 = -inf, where their mass rounds away
        s, m = pref_x[j] - pref_x[i], pref_p[j] - pref_p[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(m > 0, (pref_xx[j] - pref_xx[i]) - s * s / m, 0.0)

    def row_blocks(rows, width):
        # Each stage scores a grid of rows by at most `width` columns, in row
        # blocks of at most BLOCK_ELEMENTS entries: the grid-sized temporaries
        # of cell() and _sum_bound stay a few MB at any n.
        step = max(1, BLOCK_ELEMENTS // width)
        for k in range(0, len(rows), step):
            yield rows[k:k + step, None]

    # best[j]: least MSE of points [0, j) in t cells. Rounding is monotone, so
    # extending the least prefix sum gives the least total. Row j of stage t
    # scores every last break i < j at once; entries i >= j are masked out.
    best = np.full(n + 1, np.inf)
    best[1:] = cell(0, np.arange(1, n + 1))
    for t in range(2, K + 1):
        prev, best = best, np.full(n + 1, np.inf)
        js = np.array([n]) if t == K else np.arange(t, n - K + t + 1)
        for j in row_blocks(js, js[-1] - t + 1):
            i = np.arange(t - 1, j[-1, 0])
            best[j[:, 0]] = np.where(i < j, prev[i] + cell(i, j), np.inf).min(axis=1)
    # A tied tuple may pass through a larger prefix sum that rounding absorbs
    # later, so ties are settled on caps[r, b]: the largest running sum at
    # break b from which r more cells still end on the least total. Row b of
    # stage r bounds every next break j > b at once.
    caps = np.full((K + 1, n + 1), -np.inf)
    b = np.arange(K - 1, n)
    caps[1, b] = _sum_bound(cell(b, n), best[n])
    for r in range(2, K):
        for b in row_blocks(np.arange(K - r, n - r + 1), n - K + 1):
            j = np.arange(b[0, 0] + 1, n - r + 2)
            bound = _sum_bound(cell(b, j), caps[r - 1, j])
            caps[r, b[:, 0]] = np.where(j > b, bound, -np.inf).max(axis=1)
    # Take each break as late as a tie allows, summing left to right.
    b, v, breaks = 0, 0.0, []
    for r in range(K - 1, 0, -1):
        j = np.arange(b + 1, n - r + 1)
        w = v + cell(b, j)
        k = np.flatnonzero(w <= caps[r, j])[-1]
        b, v = int(j[k]), w[k]
        breaks.append(b)
    return np.searchsorted(breaks, np.arange(n), side="right")


def _first_occurrence_blocks(n, K, rows):
    """Every labeling of range(n) onto exactly K codes by first occurrence, in
    lexicographic order and in blocks of at most `rows` rows.

    Point 0 has code 0 and each new cell takes the next free code, which makes
    this a partition's lexicographically smallest labeling: each partition into
    K cells comes once, S(n, K) rows against the K^n labeled assignments.
    """
    # heads of n - t points, then each head's tail as one block of <= K^t rows
    t = 0
    while t < n - 1 and K ** (t + 1) <= rows:
        t += 1

    def grow(a, top, start, stop):
        # fill columns start..stop-1 with codes in increasing order under each
        # row, which keeps the rows lexicographic; drop prefixes too short to
        # still reach code K - 1
        for i in range(start, stop):
            z = np.tile(np.arange(K), len(a))
            prev = np.repeat(top, K)
            top = np.maximum(prev, z)
            keep = np.flatnonzero((z <= prev + 1) & (top >= K - n + i))
            a, top = a[keep // K], top[keep]
            a[:, i] = z[keep]
        return a, top

    heads, tops = grow(np.zeros((1, n), dtype=np.int64), np.zeros(1, dtype=np.int64), 1, n - t)
    for head, top in zip(heads, tops):
        yield grow(head[None, :], top[None], n - t, n)[0]


def _exhaustive_full(source, K):
    n = source.n
    pts, probs = source.points, source.probs
    # per point: p, p·x, p·‖x‖², so one product gives every cell's moments
    moments = np.column_stack([probs, probs[:, None] * pts, probs * np.einsum("id,id->i", pts, pts)])
    codes = np.arange(K)
    best_mse = np.inf
    best_assign = None
    # A partition's score below does not depend on how its cells are labeled,
    # and its first-occurrence labeling is its smallest one, so the first
    # minimum over these rows is the first minimum over all K^n assignments.
    for assigns in _first_occurrence_blocks(n, K, max(1, BLOCK_ELEMENTS // (n * K))):
        # (b, K, n) one-hot @ (n, d + 2) moments; the one-hot is a temporary,
        # freed before the next block grows
        cells = (assigns[:, None, :] == codes[None, :, None]).astype(np.float64) @ moments
        m, s = cells[..., 0], cells[..., 1:-1]
        # Cell MSE Σp‖x‖² − ‖Σpx‖²/m, as in the interval DP: summing per-cell
        # terms keeps a tiny cell's error from cancelling against E‖X‖². A
        # zero-mass cell scores +inf.
        with np.errstate(divide="ignore", invalid="ignore"):
            cell_mse = np.where(m > 0, cells[..., -1] - np.einsum("bkd,bkd->bk", s, s) / m, np.inf)
        # summing cells in sorted order makes relabeled partitions tie bit-exactly
        cell_mse.sort(axis=1)
        mse = cell_mse.sum(axis=1)
        j = int(np.argmin(mse))
        if mse[j] < best_mse:
            best_mse = float(mse[j])
            best_assign = assigns[j].copy()
    return best_assign


def exhaustive_optimal_encoder(
    source: DiscreteDistribution, K: int
) -> Tuple[Encoder, DeterministicDecoder, float]:
    """Globally MSE-optimal encoder, its conditional-mean decoder, and D_d.

    Both searches are exact. A 1-D source takes an O(K·n²) dynamic program
    over interval cells, which some optimal scalar quantizer has. A source in
    d >= 2 has each partition into K cells scored once while
    K^n <= ENUMERATION_CAP and is refused above it. Exact float ties go to the
    smallest assignment.
    """
    _check_code_count(K, source.n)
    _require_finite_mse(source)
    if source.dim == 1:
        if (steps := (K - 2) * (source.n - K + 1) ** 2) > DP_CAP:
            raise ValueError(f"interval DP cap exceeded: (K-2)(n-K+1)^2 = {steps} > {DP_CAP}")
        assign = _interval_dp(source, K)
    else:
        _check_enumeration(K, source.n)
        assign = _exhaustive_full(source, K)
    enc = Encoder(assign, K)
    gd = mmse_decoder_for(source, enc)
    return enc, gd, distortion(source, enc, gd)


def codec_to_json(enc: Encoder, gd: Optional[DeterministicDecoder] = None,
                  gp: Optional[StochasticDecoder] = None) -> dict:
    """JSON-ready codec description; floats survive a round-trip bit-exactly."""
    out: dict = {"K": int(enc.K), "assignment": [int(z) for z in enc.assignment]}
    if gd is not None:
        out["gd"] = gd.table.tolist()
    if gp is not None:
        out["gp"] = {"support": gp.out_support.tolist(), "rows": gp.table.tolist()}
    return out

