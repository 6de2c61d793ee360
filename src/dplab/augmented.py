"""Exact solver for the joint-law-matching objective with a mean-deviation penalty.

For a fixed encoder and conditional-mean table gd, a stochastic decoder q is
scored by

    L(q) = W1(p_{X̂,Xd}, p_{X,Xd}) + lambda * E‖X̂ − Xd‖

where the pair laws live on concatenated (x̂, x_d) vectors with Euclidean
ground cost. Both terms are linear in q once the W1 coupling is made a
variable, so the exact minimizer comes out of a single LP. The optimal
structure flips at lambda = 1: below it the decoder reproduces the joint law
of (X, Xd) exactly (MSE doubles), above it the decoder collapses onto Xd
(MSE minimal). phase_sweep traces that step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import _lp
from ._format import csv_text
from .codec import (
    DeterministicDecoder,
    Encoder,
    StochasticDecoder,
    _filled_cells,
    check_zd_xd_bijective,
    distortion,
)
from .distcore import (
    DiscreteDistribution,
    _unique_rows,
    as_points,
    joint_from_encoder,
    make_distribution,
    sq_dists,
)
from .transport import SIZE_CAP, w1_exact
LP_VARIABLE_CAP = 2_000_000
INDETERMINATE_BAND = 1e-9

PHASE_COLUMNS = ("lambda", "w1_gap", "mean_dev", "mse", "objective", "flag")


@dataclass(frozen=True, eq=False)
class AugmentedSolution:
    lam: float
    decoder: StochasticDecoder
    w1_gap: float
    mean_dev: float
    mse: float
    objective: float
    flag: str

    def row(self) -> tuple:
        return (self.lam, self.w1_gap, self.mean_dev, self.mse, self.objective, self.flag)


def _pair_laws(source: DiscreteDistribution, enc: Encoder, tags: np.ndarray,
               dec: StochasticDecoder):
    """Laws of (X̂, T) and (X, T) as distributions on concatenated vectors.

    T = tags[Z]: the gd table gives the Xd pairs, a code-index column the Zd
    pairs.
    """
    pz = joint_from_encoder(source, enc).sum(axis=1)
    # one atom per positive entry of a row whose cell carries mass, row-major
    z, m = np.nonzero((dec.table > 0) & (pz > 0)[:, None])
    out_joint = make_distribution(np.hstack([dec.out_support[m], tags[z]]),
                                  pz[z] * dec.table[z, m])
    src_joint = make_distribution(
        np.hstack([source.points, tags[enc.assignment]]), source.probs
    )
    return out_joint, src_joint


def _mean_deviation(source: DiscreteDistribution, enc: Encoder, gd: DeterministicDecoder,
                    dec: StochasticDecoder) -> float:
    pz = joint_from_encoder(source, enc).sum(axis=1)
    norms = np.sqrt(sq_dists(gd.table, dec.out_support))
    return float(np.einsum("z,zm,zm->", pz, dec.table, norms))


def augmented_objective(source: DiscreteDistribution, enc: Encoder, gd: DeterministicDecoder,
                        dec: StochasticDecoder, lam: float) -> float:
    """W1 joint-law gap plus lambda times the exact mean deviation from Xd."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if dec.K != enc.K or gd.K != enc.K:
        raise ValueError("decoder K does not match encoder K")
    out_joint, src_joint = _pair_laws(source, enc, gd.table, dec)
    return w1_exact(out_joint, src_joint).cost + lam * _mean_deviation(source, enc, gd, dec)


def solve_augmented(source: DiscreteDistribution, enc: Encoder, gd: DeterministicDecoder,
                    lam: float, out_support=None) -> AugmentedSolution:
    """Exact minimizer of the augmented objective over stochastic decoders.

    Decoder rows are keyed by distinct gd values (the decoder sees Xd), then
    expanded back to code-indexed rows; with a bijective gd the two views
    coincide. Variables are the row pmfs q(x̂|xd) together with a coupling
    between the (X̂, Xd) law (linear in q) and the fixed (X, Xd) law.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    if gd.K != enc.K:
        raise ValueError("decoder K does not match encoder K")
    # the W1 gap of the solution couples n source atoms, so refuse before the LP
    if source.n > SIZE_CAP:
        raise ValueError(f"size cap exceeded: {source.n} support points > {SIZE_CAP}")
    _, pz = _filled_cells(source, enc)

    required = _unique_rows(np.vstack([source.points, gd.table]))[0]
    if out_support is None:
        sup = required
    else:
        sup = _unique_rows(as_points(out_support))[0]
        merged = _unique_rows(np.vstack([sup, required]))[0]
        if merged.shape[0] != sup.shape[0]:
            raise ValueError("out_support must contain supp(X) and the gd table")

    values, val_of_z = _unique_rows(gd.table)
    nv, m, n = values.shape[0], sup.shape[0], source.n
    pv = np.zeros(nv)
    np.add.at(pv, val_of_z, pz)

    if nv * m * n + nv * m > LP_VARIABLE_CAP:
        raise ValueError("LP size cap exceeded")

    # Y atoms: (x_i, gd[z(x_i)]) with the source mass.
    y_pts = np.hstack([source.points, gd.table[enc.assignment]])
    # Ŷ atoms: (out_m, value_v) carrying mass pv[v] * q[v, m].
    dev = np.sqrt(sq_dists(values, sup))
    # gamma cost: distance between Ŷ atom (m, v) and Y atom y on R^{2d}.
    hat_x = np.repeat(sup[None, :, :], nv, axis=0).reshape(nv * m, -1)
    hat_v = np.repeat(values[:, None, :], m, axis=1).reshape(nv * m, -1)
    gamma_cost = np.sqrt(sq_dists(np.hstack([hat_x, hat_v]), y_pts))

    nq = nv * m
    c = np.concatenate([(lam * pv[:, None] * dev).reshape(-1), gamma_cost.reshape(-1)])
    # q(v, j) sits in pmf row v and in Ŷ-law row nv + v*m + j with weight
    # -p(v); gamma(t, i) in Ŷ-law row nv + t and in Y-law row nv + nq + i
    a_eq = _lp.incidence(
        np.concatenate([np.repeat(np.arange(nv), m), nv + np.repeat(np.arange(nq), n)]),
        np.concatenate([nv + np.arange(nq), np.tile(np.arange(nv + nq, nv + nq + n), nq)]),
        np.concatenate([-np.repeat(pv, m), np.ones(nq * n)]),
        nv + nq + n,
    )
    b_eq = np.concatenate([np.ones(nv), np.zeros(nq), source.probs])
    res = _lp.solve(c, a_eq, b_eq)
    if res.status != 0:
        raise ValueError(f"augmented LP failed: {res.message}")

    qv = np.maximum(res.x[:nq].reshape(nv, m), 0.0)
    qv = qv / qv.sum(axis=1, keepdims=True)
    dec = StochasticDecoder(sup, qv[val_of_z])

    out_joint, src_joint = _pair_laws(source, enc, gd.table, dec)
    w1_gap = w1_exact(out_joint, src_joint).cost
    mean_dev = _mean_deviation(source, enc, gd, dec)
    return AugmentedSolution(
        lam=float(lam),
        decoder=dec,
        w1_gap=w1_gap,
        mean_dev=mean_dev,
        mse=distortion(source, enc, dec),
        objective=w1_gap + lam * mean_dev,
        flag="indeterminate" if abs(lam - 1.0) <= INDETERMINATE_BAND else "ok",
    )


def phase_sweep(source: DiscreteDistribution, enc: Encoder, gd: DeterministicDecoder,
                lambdas: Sequence[float]) -> list:
    """One AugmentedSolution per lambda, in grid order; lambda=1 rows are
    flagged indeterminate rather than asserted to either phase."""
    lams = [float(v) for v in lambdas]
    if any(b < a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda grid must be sorted ascending")
    return [solve_augmented(source, enc, gd, v) for v in lams]


def phase_to_csv(solutions: Sequence[AugmentedSolution]) -> str:
    return csv_text(PHASE_COLUMNS, (s.row() for s in solutions))


def beta_to_lambda(beta: float) -> float:
    """(1-beta)/beta, the penalty weight hiding behind the balance parameter."""
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if beta > 1:
        raise ValueError("beta out of range (0, 1]")
    return (1.0 - beta) / beta


def matched_pair_floor(source: DiscreteDistribution, enc: Encoder,
                       gd: DeterministicDecoder) -> float:
    """W1(p_{Yd}, p_Y) with Yd = (Xd, Xd): the sandwich lower bound scale for lambda < 1."""
    copy_xd = StochasticDecoder(gd.table, np.eye(enc.K))
    return w1_exact(*_pair_laws(source, enc, gd.table, copy_xd)).cost


def conditioning_equivalence(source: DiscreteDistribution, enc: Encoder,
                             gd: DeterministicDecoder,
                             dec: StochasticDecoder) -> Tuple[float, float]:
    """W1 gaps of the output-vs-source joint laws taken with Xd and with Zd.

    The code index enters the Zd version as one extra real coordinate; any
    embedding separating distinct codes gives the same zero/positive verdict,
    which is the contract-bearing part. Errors if gd is not code-bijective.
    """
    if not check_zd_xd_bijective(enc, gd):
        raise ValueError("gd table is not bijective over codes")
    gap_xd = w1_exact(*_pair_laws(source, enc, gd.table, dec)).cost
    codes = np.arange(enc.K, dtype=np.float64)[:, None]
    gap_zd = w1_exact(*_pair_laws(source, enc, codes, dec)).cost
    return gap_xd, gap_zd
