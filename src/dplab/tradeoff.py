"""The alpha-interpolation decoder family and the constrained D(P) oracle.

measure() scores every decoder by the same pair, D = E‖X − X̂‖² and
P = W2²(p_X, p_X̂). interpolate() realizes the decoder that blends the
conditional-mean table with the conditional resampler; for a globally
MSE-optimal pair its measured distortion and perception obey the closed forms

    D(alpha) = (1 + (1-alpha)^2) * D_d        P(alpha) = alpha^2 * P_d

with alpha = min(sqrt(P/P_d), 1). constrained_oracle() solves the constrained
problem directly as one LP over stochastic decoder rows plus a coupling, over
a finite output support: default_oracle_support holds the interpolation images
at alpha in {0, .25, .5, .75, 1}, and between them the oracle's value lies
above the curve (u4 at rate 1: +4.9% at P = 0.01, +2.2% at 0.1).
universal_encoder_check() sets the MMSE encoder's attained oracle value against
every rival partition's exact optimum D_d + (sqrt(P_d) - sqrt(P))_+^2
(Freirich, Michaeli & Meir 2021).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import _lp
from ._format import csv_text
from .codec import (
    BLOCK_ELEMENTS,
    Decoder,
    DeterministicDecoder,
    Encoder,
    StochasticDecoder,
    _check_enumeration,
    _code_law,
    _first_occurrence_blocks,
    decoder_output_dist,
    distortion,
    exhaustive_optimal_encoder,
    mmse_decoder_for,
    perceptual_decoder_for,
)
from .distcore import (
    DiscreteDistribution,
    _unique_rows,
    as_support,
    sq_dists,
)
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

    @classmethod
    def measured(cls, alpha: float, d_measured: float, p_measured: float,
                 d_d: float, p_d: float) -> "TradeoffPoint":
        """The point at alpha, its predictions taken from the endpoint (D_d, P_d)."""
        return cls(alpha, d_measured, p_measured, predicted_distortion(alpha, d_d),
                   predicted_perception(alpha, p_d), d_d, p_d)

    def row(self) -> tuple:
        return (self.alpha, self.d_measured, self.p_measured,
                self.d_predicted, self.p_predicted, self.d_d, self.p_d)


def interpolate(gd: DeterministicDecoder, gp: StochasticDecoder, alpha: float) -> StochasticDecoder:
    """Decoder emitting alpha*gd[z] + (1-alpha)*x with x drawn from gp's row z.

    Equal atoms share one support point, −0.0 read as +0.0."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha out of range [0, 1]")
    if gd.K != gp.K:
        raise ValueError(f"K mismatch: gd has {gd.K} rows, gp has {gp.K}")
    if gd.table.shape[1] != gp.out_support.shape[1]:
        raise ValueError("dimension mismatch between decoder tables")
    # one atom per positive entry of gp, in row-major (code, column) order
    z, m = np.nonzero(gp.table > 0)
    atoms = alpha * gd.table[z] + (1.0 - alpha) * gp.out_support[m]
    uniq, inverse = _unique_rows(atoms)
    table = np.zeros((gd.K, uniq.shape[0]))
    np.add.at(table, (z, inverse), gp.table[z, m])
    return StochasticDecoder(uniq, table)


def check_budget(p: float) -> None:
    """Refuse a perception budget that is not a finite P >= 0."""
    if not math.isfinite(p):
        raise ValueError("perception must be finite")
    if p < 0:
        raise ValueError("perception must be ≥ 0")


def alpha_for_perception(p: float, p_d: float) -> float:
    """min(sqrt(P/P_d), 1): the interpolation weight exhausting budget P.

    A lossless codec (P_d = 0) already meets every budget, so it gets 1.
    """
    check_budget(p)
    if p_d < 0:
        raise ValueError("P_d must be ≥ 0")
    if p_d == 0:
        return 1.0
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


def measure(source: DiscreteDistribution, enc: Encoder, dec: Decoder) -> Tuple[float, float]:
    """(D, P) of a decoder: its distortion and its output law's W2² to the
    source law. For the MMSE decoder gd this is the endpoint (D_d, P_d)."""
    return distortion(source, enc, dec), w2sq_exact(source, decoder_output_dist(source, enc, dec)).cost


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
    d_d, p_d = measure(source, enc, gd)
    return [TradeoffPoint.measured(a, *measure(source, enc, interpolate(gd, gp, a)), d_d, p_d)
            for a in alphas]


def sweep_to_csv(points: Sequence[TradeoffPoint]) -> str:
    return csv_text(SWEEP_COLUMNS, (p.row() for p in points))


def default_oracle_support(source: DiscreteDistribution, gd: DeterministicDecoder,
                           gp: StochasticDecoder) -> np.ndarray:
    """supp(X) ∪ gd table ∪ the images on a five-point alpha grid, deduplicated."""
    parts = [source.points, gd.table]
    for a in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(interpolate(gd, gp, a).out_support)
    return _unique_rows(np.vstack(parts))[0]


def constrained_oracle(source: DiscreteDistribution, enc: Encoder, p_budget: float,
                       out_support) -> Tuple[float, StochasticDecoder]:
    """Exact minimum distortion at perception budget P over a finite support.

    One LP over decoder rows q(x̂|z) and a coupling pi(x, x̂):

        min  Σ p(x,z) q(x̂|z) ‖x−x̂‖²
        s.t. rows of q are pmfs;  pi >= 0;  Σ_x̂ pi = p_X;
             Σ_x pi(x, x̂) = Σ_z p(z) q(x̂|z);  Σ pi ‖x−x̂‖² <= P.

    The coupling certifies that the decoder's output law sits within W2²-budget
    P of the source law. The value is a minimum over out_support only, above
    the interpolation curve where out_support lacks the image at alpha(P).
    """
    check_budget(p_budget)
    sup = as_support(out_support, source.dim)

    mass, pz = _code_law(source, enc)
    n, k, m = source.n, enc.K, sup.shape[0]
    sqx = sq_dists(source.points, sup)  # (n, m)
    cq = mass @ sqx                     # (k, m)

    nq = k * m
    c = np.concatenate([cq.reshape(-1), np.zeros(n * m)])
    # q(z, j) sits in pmf row z and in output-law row k + n + j with weight
    # -p(z); pi(i, j) in p_X row k + i and in output-law row k + n + j
    a_eq = _lp.incidence(np.arange(k + n)[:, None], np.arange(k + n, k + n + m),
                         np.concatenate([-pz, np.ones(n)])[:, None], k + n + m)
    b_eq = np.concatenate([np.ones(k), source.probs, np.zeros(m)])
    a_ub = np.concatenate([np.zeros(nq), sqx.reshape(-1)])[None, :]
    # HiGHS drops entries at or below its small_matrix_value: such a row and its
    # budget are scaled exactly, by a power of two, to a largest entry in [1, 2).
    # The coupling has mass 1, so the budget is first capped at twice that entry,
    # where it cannot bind, and the scaled budget stays finite.
    top = float(sqx.max())
    if 0.0 < top <= _lp._OPTIONS.small_matrix_value:
        shift = 1 - math.frexp(top)[1]
        a_ub, p_budget = np.ldexp(a_ub, shift), np.ldexp(min(p_budget, 2.0 * top), shift)
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
    rel_gap: float


@dataclass(frozen=True)
class UniversalityReport:
    rows: Tuple[UniversalityRow, ...]

    @property
    def max_rel_gap(self) -> float:
        return max((r.rel_gap for r in self.rows), default=0.0)

    def ok(self, tol: float = 1e-6) -> bool:
        return self.max_rel_gap <= tol


def universal_encoder_check(source: DiscreteDistribution, k: int,
                            p_grid: Sequence[float]) -> UniversalityReport:
    """Certify that no encoder beats the MMSE partition at any budget P.

    The MMSE row is the value constrained_oracle attains over
    default_oracle_support plus the image at alpha(P). Every other partition
    into at most K cells scores its exact optimum D_d + (sqrt(P_d) - sqrt(P))_+^2
    from one W2 LP: any decoder's error is D_d + E||Xd - X̂||² by orthogonality,
    the W2 triangle inequality bounds the second term below, and the OT
    interpolation attains it (Freirich, Michaeli & Meir 2021). Relabelings
    share a value, so each partition is visited once, by its first-occurrence
    labeling; ENUMERATION_CAP still bounds the K^n labeled assignments.
    """
    n = source.n
    _check_enumeration(k, n)
    p_grid = [float(p) for p in p_grid]
    for p in p_grid:
        check_budget(p)

    enc, gd, _ = exhaustive_optimal_encoder(source, k)
    gp = perceptual_decoder_for(source, enc)
    _, p_d = measure(source, enc, gd)
    base = default_oracle_support(source, gd, gp)
    d_mmse = []
    for p in p_grid:
        sup = np.vstack([base, interpolate(gd, gp, alpha_for_perception(p, p_d)).out_support])
        d_mmse.append(constrained_oracle(source, enc, p, sup)[0])

    # the MMSE encoder fills every cell with first-occurrence labels, so it is
    # one of the walked partitions and is skipped there
    best = list(d_mmse)
    for kk in range(1, k + 1):
        for block in _first_occurrence_blocks(n, kk, max(1, BLOCK_ELEMENTS // n)):
            for assign in block:
                if np.array_equal(assign, enc.assignment):
                    continue
                rival = Encoder(assign, kk)
                rival_d, rival_p = measure(source, rival, mmse_decoder_for(source, rival))
                root_p = math.sqrt(rival_p)
                for i, p in enumerate(p_grid):
                    best[i] = min(best[i], rival_d + max(root_p - math.sqrt(p), 0.0) ** 2)

    rows = []
    for p, d0, d_best in zip(p_grid, d_mmse, best):
        gap = (d0 - d_best) / max(abs(d_best), 1e-300)
        rows.append(UniversalityRow(p, d0, d_best, max(gap, 0.0)))
    return UniversalityReport(tuple(rows))
