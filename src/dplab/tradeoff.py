"""The alpha-interpolation decoder family and the constrained D(P) oracle.

interpolate() realizes the decoder that blends the conditional-mean table
with the conditional resampler; for a globally MSE-optimal pair its measured
distortion and perception obey the closed forms

    D(alpha) = (1 + (1-alpha)^2) * D_d        P(alpha) = alpha^2 * P_d

with alpha = min(sqrt(P/P_d), 1). constrained_oracle() solves the constrained
problem directly as one LP over stochastic decoder rows plus a coupling, so
those identities can be checked against an optimizer that knows nothing about
the interpolation construction. universal_encoder_check() sets the MMSE
encoder's attained oracle value against every rival partition's exact optimum
D_d + (sqrt(P_d) - sqrt(P))_+^2 (Freirich, Michaeli & Meir 2021).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np
from scipy import sparse

from . import _lp
from ._format import csv_text
from .codec import (
    ENUMERATION_CAP,
    DeterministicDecoder,
    Encoder,
    StochasticDecoder,
    decoder_output_dist,
    distortion,
    exhaustive_optimal_encoder,
    mmse_decoder_for,
    perceptual_decoder_for,
)
from .distcore import DiscreteDistribution, joint_from_encoder, sq_dists
from .transport import w2sq_exact

SWEEP_COLUMNS = ("alpha", "D_measured", "P_measured", "D_predicted", "P_predicted", "D_d", "P_d")


@dataclass(frozen=True)
class TradeoffPoint:
    alpha: float
    d_measured: float
    p_measured: float
    d_predicted: float
    p_predicted: float
    d_d: float
    p_d: float

    def __post_init__(self):
        vals = (self.d_measured, self.p_measured, self.d_predicted,
                self.p_predicted, self.d_d, self.p_d)
        if any(v < 0 for v in vals) or not 0 <= self.alpha <= 1:
            raise ValueError("tradeoff point values must be nonnegative with alpha in [0,1]")
        # 1e-12 absolute guard keeps exact-zero cases (lossless rate) alive.
        if self.p_measured > self.p_d * (1 + 1e-6) + 1e-12:
            raise ValueError("measured perception exceeds the MMSE endpoint")
        if self.d_measured < self.d_d * (1 - 1e-6) - 1e-12:
            raise ValueError("measured distortion undercuts the MMSE optimum")

    def row(self) -> tuple:
        return (self.alpha, self.d_measured, self.p_measured,
                self.d_predicted, self.p_predicted, self.d_d, self.p_d)


def interpolate(gd: DeterministicDecoder, gp: StochasticDecoder, alpha: float) -> StochasticDecoder:
    """Decoder emitting alpha*gd[z] + (1-alpha)*x with x drawn from gp's row z."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha out of range [0, 1]")
    if gd.K != gp.K:
        raise ValueError(f"K mismatch: gd has {gd.K} rows, gp has {gp.K}")
    if gd.table.shape[1] != gp.out_support.shape[1]:
        raise ValueError("dimension mismatch between decoder tables")
    blocks = []
    weights = []
    for z in range(gd.K):
        mask = gp.table[z] > 0
        blocks.append(alpha * gd.table[z][None, :] + (1.0 - alpha) * gp.out_support[mask])
        weights.append(gp.table[z][mask])
    big = np.vstack(blocks)
    uniq, inverse = np.unique(big, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    table = np.zeros((gd.K, uniq.shape[0]))
    offset = 0
    for z in range(gd.K):
        w = weights[z]
        np.add.at(table[z], inverse[offset:offset + w.shape[0]], w)
        offset += w.shape[0]
    return StochasticDecoder(uniq, table)


def check_budget(p: float) -> None:
    """Refuse a perception budget that is not a finite P >= 0."""
    if not math.isfinite(p):
        raise ValueError("perception must be finite")
    if p < 0:
        raise ValueError("perception must be ≥ 0")


def alpha_for_perception(p: float, p_d: float) -> float:
    """min(sqrt(P/P_d), 1): the interpolation weight exhausting budget P."""
    check_budget(p)
    if p_d <= 0:
        raise ValueError("P_d must be > 0 (lossless codec leaves nothing to interpolate)")
    return min(math.sqrt(p / p_d), 1.0)


def predicted_distortion(alpha: float, d_d: float) -> float:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha out of range [0, 1]")
    return (1.0 + (1.0 - alpha) ** 2) * d_d


def predicted_perception(alpha: float, p_d: float) -> float:
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha out of range [0, 1]")
    return alpha * alpha * p_d


def dp_derivatives(alpha: float, d_d: float) -> Tuple[float, float]:
    """(dP/dD, d²P/dD²) along the bound; negative slope, positive curvature."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("derivatives defined for alpha strictly inside (0, 1)")
    if d_d <= 0:
        raise ValueError("D_d must be > 0")
    return alpha / (alpha - 1.0), 1.0 / (2.0 * (1.0 - alpha) ** 3 * d_d)


def evaluate_point(source: DiscreteDistribution, enc: Encoder, gd: DeterministicDecoder,
                   gp: StochasticDecoder, alpha: float) -> TradeoffPoint:
    """Measure (D, P) of the realized decoder and pair with the predictions."""
    return sweep(source, enc, gd, gp, [alpha])[0]


def sweep(source: DiscreteDistribution, enc: Encoder, gd: DeterministicDecoder,
          gp: StochasticDecoder, alphas: Sequence[float]) -> list:
    """One TradeoffPoint per grid value, emitted in grid order.

    The endpoint D_d and P_d depend on the codec alone, so each is solved once
    per grid; every alpha then costs one distortion sum and one W2 LP.
    """
    alphas = [float(a) for a in alphas]
    if any(not 0.0 <= a <= 1.0 for a in alphas):
        raise ValueError("alpha out of range [0, 1]")
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha grid must be sorted ascending")
    d_d = distortion(source, enc, gd)
    p_d = w2sq_exact(source, decoder_output_dist(source, enc, gd)).cost
    points = []
    for a in alphas:
        realized = interpolate(gd, gp, a)
        points.append(TradeoffPoint(
            alpha=a,
            d_measured=distortion(source, enc, realized),
            p_measured=w2sq_exact(source, decoder_output_dist(source, enc, realized)).cost,
            d_predicted=predicted_distortion(a, d_d),
            p_predicted=predicted_perception(a, p_d),
            d_d=d_d,
            p_d=p_d,
        ))
    return points


def sweep_to_csv(points: Sequence[TradeoffPoint]) -> str:
    return csv_text(SWEEP_COLUMNS, (p.row() for p in points))


def default_oracle_support(source: DiscreteDistribution, gd: DeterministicDecoder,
                           gp: StochasticDecoder) -> np.ndarray:
    """supp(X) ∪ gd table ∪ the images on a five-point alpha grid, deduplicated."""
    parts = [source.points, gd.table]
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(interpolate(gd, gp, a).out_support)
    return np.unique(np.vstack(parts), axis=0)


def constrained_oracle(source: DiscreteDistribution, enc: Encoder, p_budget: float,
                       out_support) -> Tuple[float, StochasticDecoder]:
    """Exact minimum distortion at perception budget P over a finite support.

    One LP over decoder rows q(x̂|z) and a coupling pi(x, x̂):

        min  Σ p(x,z) q(x̂|z) ‖x−x̂‖²
        s.t. rows of q are pmfs;  pi >= 0;  Σ_x̂ pi = p_X;
             Σ_x pi(x, x̂) = Σ_z p(z) q(x̂|z);  Σ pi ‖x−x̂‖² <= P.

    The coupling certifies that the decoder's output law sits within W2²-budget
    P of the source law.
    """
    check_budget(p_budget)
    sup = np.asarray(out_support, dtype=np.float64)
    if sup.ndim == 1:
        sup = sup.reshape(-1, 1)
    if sup.size == 0:
        raise ValueError("out_support must be non-empty")
    if sup.shape[1] != source.dim:
        raise ValueError("dimension mismatch between out_support and source")
    sup = np.unique(sup, axis=0)

    j = joint_from_encoder(source, enc)
    pz = j.z_marginal()
    n, k, m = source.n, enc.K, sup.shape[0]
    sqx = sq_dists(source.points, sup)  # (n, m)
    cq = j.mass @ sqx                   # (k, m)

    nq = k * m
    c = np.concatenate([cq.reshape(-1), np.zeros(n * m)])
    a_eq = sparse.bmat(
        [
            # each decoder row a pmf
            [_lp.row_sums(k, m), None],
            # coupling rows reproduce p_X
            [None, _lp.row_sums(n, m)],
            # coupling columns reproduce the decoder's output law
            [-_lp.col_sums(k, m, pz), _lp.col_sums(n, m)],
        ],
        format="csr",
    )
    b_eq = np.concatenate([np.ones(k), source.probs, np.zeros(m)])
    a_ub = sparse.csr_matrix(np.concatenate([np.zeros(nq), sqx.reshape(-1)])[None, :])
    res = _lp.solve(c, a_eq, b_eq, a_ub, [p_budget])
    if res.status != 0:
        raise ValueError(
            "perception constraint infeasible on the given out_support"
            " (include supp(X) to make P=0 reachable)" if res.status == 2
            else f"oracle LP failed: {res.message}"
        )
    q = np.maximum(res.x[:nq].reshape(k, m), 0.0)
    q = q / q.sum(axis=1, keepdims=True)
    dec = StochasticDecoder(sup, q)
    return distortion(source, enc, dec), dec


@dataclass(frozen=True)
class UniversalityRow:
    p_budget: float
    d_star_mmse: float
    d_star_best: float
    best_assignment: tuple
    rel_gap: float


@dataclass(frozen=True)
class UniversalityReport:
    k: int
    rows: Tuple[UniversalityRow, ...]

    @property
    def max_rel_gap(self) -> float:
        return max((r.rel_gap for r in self.rows), default=0.0)

    def ok(self, tol: float = 1e-6) -> bool:
        return self.max_rel_gap <= tol


def _set_partitions(n: int, k: int, prefix: tuple = (0,)):
    """Every partition of range(n) into at most k cells, once each.

    A partition is labeled by first occurrence (point 0 has code 0, and each
    new cell takes the next free code), which is its lexicographically
    smallest labeling; partitions come in lexicographic order of that labeling.
    """
    if len(prefix) == n:
        yield prefix
        return
    for z in range(min(max(prefix) + 2, k)):
        yield from _set_partitions(n, k, prefix + (z,))


def universal_encoder_check(source: DiscreteDistribution, k: int,
                            p_grid: Sequence[float]) -> UniversalityReport:
    """Certify that no encoder beats the MMSE partition at any budget P.

    The MMSE row is the value constrained_oracle attains over
    default_oracle_support plus the image at alpha(P). Every other partition
    into at most K cells scores its exact optimum D_d + (sqrt(P_d) - sqrt(P))_+^2
    from one W2 LP: any decoder's error is D_d + E||Xd - X̂||² by orthogonality,
    the W2 triangle inequality bounds the second term below, and the OT
    interpolation attains it (Freirich, Michaeli & Meir 2021). Relabelings
    share a value, so each partition is visited once; ENUMERATION_CAP still
    bounds the K^n labeled assignments.
    """
    n = source.n
    if k**n > ENUMERATION_CAP:
        raise ValueError(f"enumeration cap exceeded: K^n = {k}^{n} > {ENUMERATION_CAP}")
    p_grid = [float(p) for p in p_grid]
    for p in p_grid:
        check_budget(p)

    # the MMSE encoder fills every cell with first-occurrence labels, so it is
    # one of the enumerated partitions
    mmse_assign = tuple(int(z) for z in exhaustive_optimal_encoder(source, k)[0].assignment)
    enc = Encoder(np.asarray(mmse_assign, dtype=np.int64), max(mmse_assign) + 1)
    gd = mmse_decoder_for(source, enc)
    gp = perceptual_decoder_for(source, enc)
    p_d = w2sq_exact(source, decoder_output_dist(source, enc, gd)).cost
    base = default_oracle_support(source, gd, gp)
    d_mmse = []
    for p in p_grid:
        a = alpha_for_perception(p, p_d) if p_d > 0 else 1.0
        sup = np.vstack([base, interpolate(gd, gp, a).out_support])
        d_mmse.append(constrained_oracle(source, enc, p, sup)[0])

    best = [(d0, mmse_assign) for d0 in d_mmse]
    for assign in _set_partitions(n, k):
        if assign == mmse_assign:
            continue
        enc = Encoder(np.asarray(assign, dtype=np.int64), max(assign) + 1)
        gd = mmse_decoder_for(source, enc)
        d_d = distortion(source, enc, gd)
        root_p_d = math.sqrt(w2sq_exact(source, decoder_output_dist(source, enc, gd)).cost)
        for i, p in enumerate(p_grid):
            bound = d_d + max(root_p_d - math.sqrt(p), 0.0) ** 2
            if bound < best[i][0]:
                best[i] = (bound, assign)

    rows = []
    for p, d0, (d_best, arg) in zip(p_grid, d_mmse, best):
        gap = (d0 - d_best) / max(abs(d_best), 1e-300)
        rows.append(UniversalityRow(p, d0, d_best, arg, max(gap, 0.0)))
    return UniversalityReport(k, tuple(rows))
