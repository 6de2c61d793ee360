"""Exact solver for the joint-law-matching objective with a mean-deviation penalty.

For a fixed encoder and conditional-mean table gd, a stochastic decoder q is
scored by

    L(q) = W1(p_{X̂,Xd}, p_{X,Xd}) + lambda * E‖X̂ − Xd‖

where the pair laws live on concatenated (x̂, x_d) vectors with Euclidean
ground cost. Both terms are linear in q once the W1 coupling is made a
variable, so the exact minimizer comes out of a single LP, solved as the
transport LP it reduces to: between source atoms and distinct gd values, each
pair taking its cheapest output x̂, which sits in no constraint. The optimal
structure flips at lambda = 1: below it the decoder reproduces the joint law
of (X, Xd) exactly (MSE doubles), above it the decoder collapses onto Xd
(MSE minimal). phase_sweep traces that step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ._format import csv_text
from .codec import (
    DeterministicDecoder,
    Encoder,
    StochasticDecoder,
    _code_law,
    _filled_cells,
    check_zd_xd_bijective,
    distortion,
)
from .distcore import (
    DiscreteDistribution,
    _unique_rows,
    as_support,
    make_distribution,
    sq_dists,
)
from .transport import SIZE_CAP, solve_transport_lp, w1_exact

# Bounds the nv*m*n entries of solve_augmented's (nv, m, n) cost array.
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
    pairs. Both tags and the decoder must have one row per code.
    """
    _, pz = _code_law(source, enc, tags, dec.table)
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
    _, pz = _code_law(source, enc)
    norms = np.sqrt(sq_dists(gd.table, dec.out_support))
    return float(np.einsum("z,zm,zm->", pz, dec.table, norms))


def augmented_objective(source: DiscreteDistribution, enc: Encoder, gd: DeterministicDecoder,
                        dec: StochasticDecoder, lam: float) -> float:
    """W1 joint-law gap plus lambda times the exact mean deviation from Xd."""
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    out_joint, src_joint = _pair_laws(source, enc, gd.table, dec)
    return w1_exact(out_joint, src_joint).cost + lam * _mean_deviation(source, enc, gd, dec)


def solve_augmented(source: DiscreteDistribution, enc: Encoder, gd: DeterministicDecoder,
                    lam: float, out_support=None) -> AugmentedSolution:
    """Exact minimizer of the augmented objective over stochastic decoders.

    Decoder rows are keyed by distinct gd values (the decoder sees Xd), then
    expanded back to code-indexed rows; with a bijective gd the two views
    coincide. The LP's variables are the row pmfs q(x̂|xd) together with a
    coupling between the (X̂, Xd) law (linear in q) and the fixed (X, Xd)
    law; it is solved as its n × nv transport reduction.
    """
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    # the W1 gap of the solution couples n source atoms, so refuse before the LP
    if source.n > SIZE_CAP:
        raise ValueError(f"size cap exceeded: {source.n} support points > {SIZE_CAP}")
    _, pz = _filled_cells(source, enc, gd.table)

    required = _unique_rows(np.vstack([source.points, gd.table]))[0]
    if out_support is None:
        sup = required
    else:
        sup = as_support(out_support, source.dim)
        merged = _unique_rows(np.vstack([sup, required]))[0]
        if merged.shape[0] != sup.shape[0]:
            raise ValueError("out_support must contain supp(X) and the gd table")

    values, val_of_z = _unique_rows(gd.table)
    nv, m, n = values.shape[0], sup.shape[0], source.n
    pv = np.zeros(nv)
    np.add.at(pv, val_of_z, pz)

    if nv * m * n > LP_VARIABLE_CAP:
        raise ValueError("LP size cap exceeded")

    # Y atoms: (x_i, gd[z(x_i)]) with the source mass; Ŷ atoms: (out_m,
    # value_v) carrying mass pv[v] * q[v, m], v-major.
    y_pts = np.hstack([source.points, gd.table[enc.assignment]])
    hat = np.hstack([np.tile(sup, (nv, 1)), np.repeat(values, m, axis=0)])
    dev = np.sqrt(sq_dists(values, sup))
    # The Ŷ-law rows pin pv[v] q(v, m) = Σ_i gamma((v, m), i). Substituted,
    # gamma(v, m, i) costs lam dev[v, m] plus the R^{2d} distance from Ŷ atom
    # (m, v) to Y atom i, and m sits in no constraint, so each (i, v) sends
    # its mass through its cheapest m.
    cost3 = lam * dev[:, :, None] + np.sqrt(sq_dists(hat, y_pts)).reshape(nv, m, n)
    best = cost3.argmin(axis=1)
    pi = solve_transport_lp(cost3.min(axis=1).T, source.probs, pv).pi
    # each atom carries exactly p_i, split over v as its plan row is
    rows = pi.sum(axis=1, keepdims=True)
    mass = source.probs[:, None] * np.divide(pi, rows, out=np.zeros_like(pi), where=rows > 0)
    qv = np.zeros((nv, m))
    np.add.at(qv, (np.arange(nv)[None, :], best.T), mass)
    qv /= pv[:, None]
    # a value whose mass the LP cannot resolve goes to its cheapest output
    empty = qv.sum(axis=1) <= 0
    qv[empty, (lam * dev[empty]).argmin(axis=1)] = 1.0
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
