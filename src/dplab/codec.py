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

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .distcore import (
    MASS_TOL,
    DiscreteDistribution,
    JointXZ,
    _readonly,
    joint_from_encoder,
    make_distribution,
    sq_dists,
)

ENUMERATION_CAP = 10**7


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

    @property
    def rate(self) -> float:
        """Rate in bits, log2(K)."""
        return math.log2(self.K)

    def cells(self) -> list:
        return [np.nonzero(self.assignment == z)[0] for z in range(self.K)]


@dataclass(frozen=True, eq=False)
class DeterministicDecoder:
    """Code -> output point table, one row per code."""

    table: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.table, dtype=np.float64)
        if t.ndim == 1:
            t = t.reshape(-1, 1)
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
        s = np.asarray(self.out_support, dtype=np.float64)
        if s.ndim == 1:
            s = s.reshape(-1, 1)
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


def _require_finite_mse(source: DiscreteDistribution) -> None:
    """Refuse a source whose E‖X‖² overflows: every candidate MSE is inf or nan,
    so no search can rank encoders on it."""
    ex2 = float(np.einsum("i,id,id->", source.probs, source.points, source.points))
    if not math.isfinite(ex2):
        raise ValueError("no encoder has a finite MSE: E‖X‖² overflows float64")


def mmse_decoder_for(source: DiscreteDistribution, enc: Encoder) -> DeterministicDecoder:
    """Conditional-mean decoder: table[z] = E[X | Z=z]."""
    j = joint_from_encoder(source, enc)
    pz = j.z_marginal()
    if np.any(pz <= 0):
        raise ValueError(f"empty cell {int(np.argmin(pz))}")
    table = (j.mass @ source.points) / pz[:, None]
    return DeterministicDecoder(table)


def perceptual_decoder_for(source: DiscreteDistribution, enc: Encoder) -> StochasticDecoder:
    """Conditional resampler: row z is p_{X|Z=z} over the source support.

    Its output marginal is the source law itself, which is what makes it the
    perfect-perception endpoint.
    """
    j = joint_from_encoder(source, enc)
    pz = j.z_marginal()
    if np.any(pz <= 0):
        raise ValueError(f"empty cell {int(np.argmin(pz))}")
    return StochasticDecoder(source.points.copy(), j.mass / pz[:, None])


def distortion(source: DiscreteDistribution, enc: Encoder, dec: Decoder) -> float:
    """Exact E‖X − X̂‖² under the joint law p(x, z) and the decoder rows."""
    j = joint_from_encoder(source, enc)
    assignment = enc.assignment
    if isinstance(dec, DeterministicDecoder):
        if dec.K != enc.K:
            raise ValueError("decoder K does not match encoder K")
        diff = source.points - dec.table[assignment]
        return float(np.einsum("i,id,id->", source.probs, diff, diff))
    if dec.K != enc.K:
        raise ValueError("decoder K does not match encoder K")
    sq = sq_dists(source.points, dec.out_support)
    rows = dec.table[assignment]
    return float(np.einsum("i,im,im->", source.probs, rows, sq))


def decoder_output_dist(
    source: DiscreteDistribution, enc: Encoder, dec: Decoder
) -> DiscreteDistribution:
    """Exact output marginal p_{X̂} = Σ_z p(z) q(.|z)."""
    pz = joint_from_encoder(source, enc).z_marginal()
    if isinstance(dec, DeterministicDecoder):
        return make_distribution(dec.table, pz)
    return make_distribution(dec.out_support, pz @ dec.table)


def check_zd_xd_bijective(enc: Encoder, dec: DeterministicDecoder) -> bool:
    """True iff the decoder table has K pairwise distinct rows (bit-exact)."""
    return np.unique(dec.table, axis=0).shape[0] == enc.K


def lloyd_train(
    source: DiscreteDistribution,
    K: int,
    seed: int = 0,
    max_iter: int = 1000,
    tol: float = 1e-10,
    mse_trace: Optional[list] = None,
) -> Tuple[Encoder, DeterministicDecoder]:
    """Alternating nearest-centroid / conditional-mean training.

    Initial centroids are K distinct support points drawn by seeded choice
    from the support quantiles (one draw per probability stratum). Points
    equidistant to two centroids go to the lower code index; an empty cell is
    repaired by stealing the point currently farthest from its own centroid.
    Stops when the relative MSE improvement drops to tol or at max_iter. The
    per-iteration MSE sequence (nonincreasing) is appended to mse_trace when a
    list is supplied.
    """
    n = source.n
    if K > n:
        raise ValueError(f"K > n: {K} codes for {n} support points")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
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
    prev_mse = None
    for _ in range(max_iter):
        assign = np.argmin(sq_dists(pts, centroids), axis=1)  # first minimum -> lower code wins ties

        counts = np.bincount(assign, minlength=K)
        for z in range(K):
            if counts[z] == 0:
                own = np.einsum("id,id->i", pts - centroids[assign], pts - centroids[assign])
                own[counts[assign] <= 1] = -np.inf  # never empty another cell
                i = int(np.argmax(own))
                counts[assign[i]] -= 1
                assign[i] = z
                counts[z] += 1

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

    enc = Encoder(assign, K)
    return enc, mmse_decoder_for(source, enc)


def _interval_mse(pref_p, pref_x, pref_xx, lo, hi) -> float:
    m = pref_p[hi] - pref_p[lo]
    s = pref_x[hi] - pref_x[lo]
    q = pref_xx[hi] - pref_xx[lo]
    return q - s * s / m


def _assignment_from_breaks(breaks, n: int) -> np.ndarray:
    a = np.zeros(n, dtype=np.int64)
    edges = list(breaks) + [n]
    lo = 0
    for z, hi in enumerate(edges):
        a[lo:hi] = z
        lo = hi
    return a


def _exhaustive_1d_intervals(source, K):
    # For scalar squared error some globally optimal quantizer has interval
    # cells, so searching the C(n-1, K-1) ordered partitions attains the
    # global minimum without touching the K^n assignment space.
    x = source.points[:, 0]
    p = source.probs
    pref_p = np.concatenate([[0.0], np.cumsum(p)])
    pref_x = np.concatenate([[0.0], np.cumsum(p * x)])
    pref_xx = np.concatenate([[0.0], np.cumsum(p * x * x)])
    best_mse = np.inf
    best_breaks = None
    for breaks in itertools.combinations(range(1, source.n), K - 1):
        edges = (0,) + breaks + (source.n,)
        mse = sum(
            _interval_mse(pref_p, pref_x, pref_xx, edges[i], edges[i + 1]) for i in range(K)
        )
        if mse < best_mse:
            best_mse = mse
            best_breaks = breaks
        elif mse == best_mse and best_breaks is not None:
            a_new = _assignment_from_breaks(breaks, source.n)
            a_old = _assignment_from_breaks(best_breaks, source.n)
            if tuple(a_new) < tuple(a_old):
                best_breaks = breaks
    return _assignment_from_breaks(best_breaks, source.n)


def _exhaustive_full(source, K):
    n = source.n
    pts, probs = source.points, source.probs
    ex2 = float(np.einsum("i,id,id->", probs, pts, pts))
    total = K**n
    chunk = max(1, min(total, 4_000_000 // max(1, n * K)))
    codes = np.arange(K)
    best_mse = np.inf
    best_assign = None
    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        # base-K digits of idx, most significant first; unlike np.unravel_index
        # this has no 64-dimension limit, which K = 1 reaches at n > 64
        assigns = idx[:, None] // K ** np.arange(n - 1, -1, -1, dtype=np.int64) % K
        onehot = (assigns[:, :, None] == codes[None, None, :]).astype(np.float64)
        m = np.einsum("bik,i->bk", onehot, probs)
        s = np.einsum("bik,i,id->bkd", onehot, probs, pts)
        safe_m = np.where(m > 0, m, 1.0)
        # An empty cell explains -inf, so its assignment scores MSE +inf: with
        # K <= n distinct points some optimum fills every cell, and cancellation
        # in ex2 - Σ explained could otherwise rank an empty cell first.
        explained = np.where(m > 0, np.einsum("bkd,bkd->bk", s, s) / safe_m, -np.inf)
        # summing cells in sorted order makes relabeled partitions tie bit-exactly,
        # so the first minimum really is the lexicographically smallest assignment
        explained.sort(axis=1)
        mse = ex2 - explained.sum(axis=1)
        j = int(np.argmin(mse))
        if mse[j] < best_mse:
            best_mse = float(mse[j])
            best_assign = assigns[j].copy()
    return best_assign


def exhaustive_optimal_encoder(
    source: DiscreteDistribution, K: int, cap: int = ENUMERATION_CAP
) -> Tuple[Encoder, DeterministicDecoder, float]:
    """Globally MSE-optimal encoder, its conditional-mean decoder, and D_d.

    Enumerates all K^n assignments (lexicographic tie-break) when that fits
    under the cap; 1-D sources above the cap fall back to interval-partition
    enumeration, which still certifies the global optimum for squared error.
    """
    if K > source.n:
        raise ValueError(f"K > n: {K} codes for {source.n} support points")
    _require_finite_mse(source)
    if K ** source.n <= cap:
        assign = _exhaustive_full(source, K)
    elif source.dim == 1:
        assign = _exhaustive_1d_intervals(source, K)
    else:
        raise ValueError(f"enumeration cap exceeded: K^n = {K}^{source.n} > {cap}")
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


def codec_from_json(obj: dict):
    """Inverse of codec_to_json -> (Encoder, gd or None, gp or None)."""
    if not isinstance(obj, dict) or "K" not in obj or "assignment" not in obj:
        raise ValueError("codec JSON needs 'K' and 'assignment'")
    enc = Encoder(np.asarray(obj["assignment"], dtype=np.int64), int(obj["K"]))
    gd = DeterministicDecoder(np.asarray(obj["gd"], dtype=np.float64)) if "gd" in obj else None
    gp = None
    if "gp" in obj:
        gp = StochasticDecoder(
            np.asarray(obj["gp"]["support"], dtype=np.float64),
            np.asarray(obj["gp"]["rows"], dtype=np.float64),
        )
    return enc, gd, gp
