"""Runtime invariant suite behind `dplab verify`.

Every check re-measures its quantity from scratch on the scenario's source and
rate, so a passing report certifies the installed build on this machine, not a
cached fixture. Checks that need an enumeration too large for the source are
reported as skipped rather than silently dropped.
"""
from __future__ import annotations

import functools
import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .augmented import (
    INDETERMINATE_BAND,
    augmented_objective,
    beta_to_lambda,
    conditioning_equivalence,
    matched_pair_floor,
    phase_sweep,
)
from .codec import (
    StochasticDecoder,
    _code_law,
    check_zd_xd_bijective,
    decoder_output_dist,
    exhaustive_optimal_encoder,
    lloyd_train,
    perceptual_decoder_for,
)
from .distcore import (
    DiscreteDistribution,
    conditional_x_given_z,
    make_distribution,
    sq_dists,
)
from .tradeoff import (
    TradeoffPoint,
    constrained_oracle,
    default_oracle_support,
    dp_derivatives,
    interpolate,
    measure,
    universal_encoder_check,
)
from .transport import w1_exact, w2sq_exact, w_1d_closed_form

UNIVERSALITY_CAP = 1024  # K^n above this -> the brute-force check is skipped
_PHASE_LAMBDAS = (0.0, 0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0)
_PAIRS = 50  # transport_agreement's 1-D pairs; transport_axioms' triples follow them
_ALPHAS = [i / 100 for i in range(101)]  # the sweep behind the interpolation checks


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    skipped: bool = False

    @property
    def label(self) -> str:
        if self.skipped:
            return "SKIP"
        return "PASS" if self.passed else "FAIL"

    def line(self) -> str:
        return f"{self.label} {self.name}: {self.detail}"


class _Ctx:
    """Shared scenario state so each check re-derives only what it asserts."""

    def __init__(self, source: DiscreteDistribution, k: int, seed: int, rel_tol: float,
                 codec: tuple, trials: _SharedTrials):
        self._trials = trials
        self.source = source
        self.k = k
        self.seed = seed
        self.rel_tol = rel_tol
        self.enc, self.gd, self.d_d, self.gp = codec
        # sweep() on _ALPHAS, its points measured by the first 101 trials
        d_d, self.p_d = measure(source, self.enc, self.gd)
        self.points101 = [TradeoffPoint.measured(a, d, p, d_d, self.p_d)
                          for a, (d, p, _) in zip(_ALPHAS, trials.collect(range(len(_ALPHAS))))]
        # i/100 and (i/5)/20 are the same double for i = 0, 5, ..., 100
        self.points21 = self.points101[::5]
        self.phase = phase_sweep(source, self.enc, self.gd, _PHASE_LAMBDAS)

    @functools.cached_property
    def transport(self) -> list:
        """Each seed-only transport trial's values, in draw order."""
        return list(self._trials.collect(range(len(_ALPHAS), len(self._trials.trials))))


def _check_canonical_support(ctx: _Ctx) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 1)
    pts = rng.integers(0, 5, size=(12, 2)).astype(np.float64)
    probs = rng.random(12) + 0.1
    probs /= probs.sum()
    d = make_distribution(pts, probs)
    again = make_distribution(d.points, d.probs)
    perm = rng.permutation(12)
    shuffled = make_distribution(pts[perm], probs[perm])
    stable = (np.array_equal(d.points, again.points)
              and np.array_equal(d.probs, again.probs)
              and np.array_equal(d.points, shuffled.points)
              and np.array_equal(d.probs, shuffled.probs))
    mass_gap = abs(float(d.probs.sum()) - 1.0)
    uniq = np.unique(d.points, axis=0).shape[0] == d.n
    ok = stable and uniq and mass_gap <= 1e-12
    return CheckResult(
        "canonical_support", ok,
        f"rebuild bit-stable={stable}, unique support={uniq}, mass gap {mass_gap:.3g} (tol 1e-12)",
    )


def _check_conditional_reassembly(ctx: _Ctx) -> CheckResult:
    mass, pz = _code_law(ctx.source, ctx.enc)
    mix = np.zeros(ctx.source.n)
    for z in range(ctx.enc.K):
        cond = conditional_x_given_z(ctx.source, mass, z)
        for pt, pr in zip(cond.points, cond.probs):
            i = int(np.nonzero((ctx.source.points == pt).all(axis=1))[0][0])
            mix[i] += pz[z] * pr
    gap = float(np.max(np.abs(mix - ctx.source.probs)))
    return CheckResult(
        "conditional_reassembly", gap <= 1e-12,
        f"max |Σ_z p(z)p(x|z) − p(x)| = {gap:.3g} (tol 1e-12)",
    )


def _check_resampler_marginal(ctx: _Ctx) -> CheckResult:
    out = decoder_output_dist(ctx.source, ctx.enc, ctx.gp)
    same_support = np.array_equal(out.points, ctx.source.points)
    gap = (float(np.max(np.abs(out.probs - ctx.source.probs)))
           if same_support and out.n == ctx.source.n else math.inf)
    # ulp-level bound: each entry is pz*(p/pz), exact for dyadic masses
    return CheckResult(
        "resampler_marginal", same_support and gap <= 1e-15,
        f"support match={same_support}, max prob gap {gap:.3g} (tol 1e-15)",
    )


def _check_orthogonality(ctx: _Ctx) -> CheckResult:
    rng = np.random.default_rng(ctx.seed + 2)
    resid = ctx.source.points - ctx.gd.table[ctx.enc.assignment]
    worst = 0.0
    for _ in range(20):
        f = rng.normal(size=(ctx.enc.K, ctx.source.dim))
        val = float(np.einsum("i,id,id->", ctx.source.probs, resid, f[ctx.enc.assignment]))
        worst = max(worst, abs(val))
    return CheckResult(
        "mean_residual_orthogonality", worst <= 1e-10,
        f"max |E[(X−Xd)·f(Xd)]| over 20 draws = {worst:.3g} (tol 1e-10)",
    )


def _check_cross_term(ctx: _Ctx) -> CheckResult:
    # E‖Xd−Xp‖² with Xd, Xp conditionally independent given Z
    _, pz = _code_law(ctx.source, ctx.enc, ctx.gd.table, ctx.gp.table)
    sq = sq_dists(ctx.gd.table, ctx.gp.out_support)
    lhs = float(np.einsum("z,zm,zm->", pz, ctx.gp.table, sq))
    gap = abs(lhs - ctx.d_d)
    return CheckResult(
        "cross_term_identity", gap <= 1e-10,
        f"|E‖Xd−Xp‖² − E‖X−Xd‖²| = {gap:.3g} (tol 1e-10)",
    )


def _check_training_monotonicity(ctx: _Ctx) -> CheckResult:
    trace: list = []
    lloyd_train(ctx.source, ctx.k, seed=ctx.seed, mse_trace=trace)
    drops = [b - a for a, b in zip(trace, trace[1:])]
    worst = max(drops, default=0.0)
    above_opt = trace[-1] >= ctx.d_d - 1e-12
    ok = worst <= 1e-12 and above_opt
    return CheckResult(
        "training_monotonicity", ok,
        f"max MSE increase along trace = {worst:.3g} (tol 1e-12), "
        f"final {trace[-1]:.6g} ≥ exhaustive {ctx.d_d:.6g}",
    )


def _check_endpoint_doubling(ctx: _Ctx) -> CheckResult:
    d0 = ctx.points21[0].d_measured
    gap = abs(d0 - 2.0 * ctx.d_d)
    return CheckResult(
        "endpoint_doubling", gap <= 1e-8,
        f"|D(0) − 2·D_d| = {gap:.3g} with D(0)={d0:.6g}, D_d={ctx.d_d:.6g} (tol 1e-8)",
    )


def _check_interpolation_identities(ctx: _Ctx) -> CheckResult:
    dgap = max(abs(p.d_measured - p.d_predicted) for p in ctx.points21)
    pgap = max(abs(p.p_measured - p.p_predicted) for p in ctx.points21)
    return CheckResult(
        "interpolation_identities", dgap <= 1e-8 and pgap <= 1e-8,
        f"21-point grid: max |D−(1+(1−α)²)D_d| = {dgap:.3g}, "
        f"max |P−α²P_d| = {pgap:.3g} (tol 1e-8)",
    )


def _check_oracle_tightness(ctx: _Ctx) -> CheckResult:
    sup = default_oracle_support(ctx.source, ctx.gd, ctx.gp)
    worst = 0.0
    for i in (0, 5, 10, 15, 20):
        pt = ctx.points21[i]
        d_star, _ = constrained_oracle(ctx.source, ctx.enc, pt.p_measured, sup)
        rel = abs(d_star - pt.d_measured) / max(abs(pt.d_measured), 1e-300)
        worst = max(worst, rel)
    return CheckResult(
        "oracle_tightness", worst <= ctx.rel_tol,
        f"max rel |D* − D(α)| over α∈{{0,.25,.5,.75,1}} = {worst:.3g} (tol {ctx.rel_tol:g})",
    )


def _check_universality(ctx: _Ctx) -> CheckResult:
    total = ctx.k ** ctx.source.n
    if total > UNIVERSALITY_CAP:
        return CheckResult(
            "encoder_universality", True,
            f"skipped: K^n = {ctx.k}^{ctx.source.n} exceeds {UNIVERSALITY_CAP}",
            skipped=True,
        )
    p_grid = [f * ctx.p_d for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    report = universal_encoder_check(ctx.source, ctx.k, p_grid)
    return CheckResult(
        "encoder_universality", report.ok(ctx.rel_tol),
        f"max rel MMSE-encoder gap over {total} assignments x 5 budgets = "
        f"{report.max_rel_gap:.3g} (tol {ctx.rel_tol:g})",
    )


def _check_phase_transition(ctx: _Ctx) -> CheckResult:
    worst = 0.0
    consistency = 0.0
    flags_ok = True
    for s in ctx.phase:
        recomputed = augmented_objective(ctx.source, ctx.enc, ctx.gd, s.decoder, s.lam)
        consistency = max(consistency, abs(recomputed - s.objective))
        if abs(s.lam - 1.0) <= INDETERMINATE_BAND:
            flags_ok = flags_ok and s.flag == "indeterminate"
            continue
        flags_ok = flags_ok and s.flag == "ok"
        if s.lam < 1.0:
            worst = max(worst, s.w1_gap, abs(s.mse - 2.0 * ctx.d_d))
        else:
            worst = max(worst, s.mean_dev, abs(s.mse - ctx.d_d))
    ok = worst <= 1e-8 and consistency <= 1e-9 and flags_ok
    return CheckResult(
        "phase_transition", ok,
        f"max branch residual {worst:.3g} (tol 1e-8), "
        f"objective recompute gap {consistency:.3g} (tol 1e-9), flags ok={flags_ok}",
    )


def _check_objective_floor(ctx: _Ctx) -> CheckResult:
    floor = matched_pair_floor(ctx.source, ctx.enc, ctx.gd)
    worst_under = 0.0
    worst_eq = 0.0
    for s in ctx.phase:
        if s.lam in (0.25, 0.5, 0.9):
            worst_under = max(worst_under, s.lam * floor - s.objective)
            worst_eq = max(worst_eq, abs(s.objective - s.lam * floor))
    ok = worst_under <= 1e-9 and worst_eq <= 1e-8
    return CheckResult(
        "objective_floor", ok,
        f"max (λ·W₁ − objective) = {worst_under:.3g} (tol 1e-9), "
        f"max |objective − λ·W₁| = {worst_eq:.3g} (tol 1e-8)",
    )


def _check_beta_map(ctx: _Ctx) -> CheckResult:
    betas = [i / 10 for i in range(1, 11)]
    vals = [beta_to_lambda(b) for b in betas]
    decreasing = all(a > b for a, b in zip(vals, vals[1:]))
    at_one = vals[-1] == 0.0
    mid = abs(beta_to_lambda(0.5) - 1.0)
    ok = decreasing and at_one and mid == 0.0
    return CheckResult(
        "beta_map", ok,
        f"strictly decreasing={decreasing}, λ(1)=0 {at_one}, |λ(0.5)−1| = {mid:.3g}",
    )


def _check_conditioning_dichotomy(ctx: _Ctx) -> CheckResult:
    if ctx.d_d <= 0:
        return CheckResult(
            "conditioning_dichotomy", True,
            "skipped: D_d = 0 makes the copy-Xd decoder the resampler", skipped=True,
        )
    gaps_p = conditioning_equivalence(ctx.source, ctx.enc, ctx.gd, ctx.gp)
    copy_dec = StochasticDecoder(ctx.gd.table, np.eye(ctx.enc.K))
    gaps_c = conditioning_equivalence(ctx.source, ctx.enc, ctx.gd, copy_dec)
    resampler_zero = max(gaps_p) <= 1e-10
    copy_positive = min(gaps_c) > 1e-9
    ok = resampler_zero and copy_positive
    return CheckResult(
        "conditioning_dichotomy", ok,
        f"resampler gaps ({gaps_p[0]:.3g}, {gaps_p[1]:.3g}) ≤ 1e-10; "
        f"copy-Xd gaps ({gaps_c[0]:.3g}, {gaps_c[1]:.3g}) both positive",
    )


def _check_derivative_consistency(ctx: _Ctx) -> CheckResult:
    if ctx.d_d <= 0 or ctx.p_d <= 0:
        return CheckResult(
            "derivative_consistency", True,
            "skipped: D_d = 0 leaves no curve to differentiate", skipped=True,
        )
    alphas = _ALPHAS
    d = [p.d_measured for p in ctx.points101]
    p = [p.p_measured for p in ctx.points101]
    worst = 0.0
    slopes = []
    flat = 0  # steps the LPs cannot resolve: D did not move at all
    for i in range(1, 100):
        step = d[i + 1] - d[i - 1]
        if step == 0:
            flat += 1
            continue
        est = (p[i + 1] - p[i - 1]) / step
        ref, _ = dp_derivatives(alphas[i], ctx.d_d)
        worst = max(worst, abs(est - ref) / abs(ref))
        slopes.append(est)
    negative = all(s < 0 for s in slopes)
    # slope decreases in alpha, hence increases in D: convexity
    convex = all(b < a for a, b in zip(slopes, slopes[1:]))
    curvature_pos = all(dp_derivatives(a, ctx.d_d)[1] > 0 for a in alphas[1:-1])
    ok = flat == 0 and worst <= 1e-3 and negative and convex and curvature_pos
    return CheckResult(
        "derivative_consistency", ok,
        f"max rel |ΔP/ΔD − α/(α−1)| = {worst:.3g} (tol 1e-3), "
        f"slopes negative={negative}, convex in D={convex and curvature_pos}"
        + (f"; ΔD = 0 at {flat} of 99 steps" if flat else ""),
    )


def _check_transport_agreement(ctx: _Ctx) -> CheckResult:
    worst = max((0.0, *(gap for t in ctx.transport[:_PAIRS] for gap in t[:2])))
    return CheckResult(
        "transport_agreement", worst <= 1e-10,
        f"max |LP − closed form| over 50 seeded pairs, both orders = {worst:.3g} (tol 1e-10)",
    )


def _check_transport_axioms(ctx: _Ctx) -> CheckResult:
    triples = ctx.transport[_PAIRS:]
    worst_sym, worst_tri, worst_id = (max((0.0, *(t[j] for t in triples))) for j in range(3))
    ok = worst_sym <= 1e-10 and worst_tri <= 1e-10 and worst_id <= 1e-12
    return CheckResult(
        "transport_axioms", ok,
        f"100 triples: max symmetry gap {worst_sym:.3g}, max triangle excess "
        f"{worst_tri:.3g} (tol 1e-10), max W₁(a,a) {worst_id:.3g} (tol 1e-12)",
    )


def _check_optimal_pair_structure(ctx: _Ctx) -> CheckResult:
    gap_pd = abs(ctx.p_d - ctx.d_d)
    bij = check_zd_xd_bijective(ctx.enc, ctx.gd)
    closed_ok = True
    detail_extra = ""
    if ctx.source.dim == 1:
        out_law = decoder_output_dist(ctx.source, ctx.enc, ctx.gd)
        closed = w_1d_closed_form(ctx.source, out_law, 2)
        closed_gap = abs(closed - ctx.p_d)
        closed_ok = closed_gap <= 1e-10
        detail_extra = f", LP vs closed-form P_d gap {closed_gap:.3g} (tol 1e-10)"
    ok = gap_pd <= 1e-9 and bij and closed_ok
    return CheckResult(
        "optimal_pair_structure", ok,
        f"|P_d − D_d| = {gap_pd:.3g} (tol 1e-9), gd bijective={bij}{detail_extra}",
    )


_CHECKS = (
    _check_canonical_support,
    _check_conditional_reassembly,
    _check_resampler_marginal,
    _check_orthogonality,
    _check_cross_term,
    _check_training_monotonicity,
    _check_endpoint_doubling,
    _check_interpolation_identities,
    _check_oracle_tightness,
    _check_universality,
    _check_phase_transition,
    _check_objective_floor,
    _check_beta_map,
    _check_conditioning_dichotomy,
    _check_derivative_consistency,
    _check_transport_agreement,
    _check_transport_axioms,
    _check_optimal_pair_structure,
)


def _sweep_point(source, enc, gd, gp, alpha) -> tuple:
    """D(α) and P(α) of the interpolated decoder, and an unused 0."""
    return (*measure(source, enc, interpolate(gd, gp, alpha)), 0.0)


def _agreement_pair(xa, pa, xb, pb) -> tuple:
    """|LP − closed form| for W₁ and for W₂² on one pair of 1-D laws."""
    a, b = make_distribution(xa, pa), make_distribution(xb, pb)
    return (abs(w1_exact(a, b).cost - w_1d_closed_form(a, b, 1)),
            abs(w2sq_exact(a, b).cost - w_1d_closed_form(a, b, 2)), 0.0)


def _axiom_triple(*laws) -> tuple:
    """W₁ symmetry gap, triangle excess and W₁(a, a) on one triple of planar laws."""
    a, b, c = (make_distribution(x, p) for x, p in zip(laws[::2], laws[1::2]))
    ab, ba = w1_exact(a, b).cost, w1_exact(b, a).cost
    bc, ac = w1_exact(b, c).cost, w1_exact(a, c).cost
    return abs(ab - ba), ac - (ab + bc), w1_exact(a, a).cost


def _transport_trials(seed: int) -> list:
    """The seed-only transport checks as (function, arrays) trials, in draw order:
    transport_agreement's pairs from seed + 3, then transport_axioms' 100
    triples from seed + 4."""
    trials = []
    rng = np.random.default_rng(seed + 3)
    for _ in range(_PAIRS):
        na, nb = int(rng.integers(2, 17)), int(rng.integers(2, 17))
        wa, wb = rng.random(na) + 0.05, rng.random(nb) + 0.05
        trials.append((_agreement_pair, (rng.normal(size=na), wa / wa.sum(),
                                         rng.normal(size=nb), wb / wb.sum())))
    rng = np.random.default_rng(seed + 4)
    for _ in range(100):
        laws = []
        for _ in range(3):
            m = int(rng.integers(2, 7))
            w = rng.random(m) + 0.05
            laws += [rng.normal(size=(m, 2)), w / w.sum()]
        trials.append((_axiom_triple, laws))
    return trials


class _SharedTrials:
    """Trials run on two cores: a forked helper runs every trial not yet done,
    front to back, while the caller works, and `collect` takes its ranges
    from the back.

    The two processes share one anonymous mmap: three values per trial and a
    done flag per trial, which is the whole protocol. The helper passes over
    the trials the caller has finished; a trial both start at a crossing is
    computed twice, to the same bits. Without os.fork, when it fails, or while
    another Python thread is alive (it could hold a lock, such as the shared
    solver's, across the fork), there is no helper and `collect` runs every
    trial. The caller reads each range's values in draw order, so the split
    never changes a result.
    """

    def __init__(self, trials: list):
        self.trials = trials
        n = len(trials)
        buf = mmap.mmap(-1, 25 * n)
        self.values = np.frombuffer(buf, np.float64, 3 * n).reshape(n, 3)
        self.done = np.frombuffer(buf, np.bool_, n, 24 * n)
        self.pid = 0
        if not hasattr(os, "fork") or threading.active_count() > 1:
            return
        try:
            self.pid = os.fork()
        except OSError:
            return
        if self.pid == 0:  # the helper: it never returns, prints or runs exit handlers
            try:
                for i in range(n):
                    if not self.done[i]:
                        self._run(i)
            finally:
                os._exit(0)

    def _run(self, i) -> None:
        fn, args = self.trials[i]
        self.values[i] = fn(*args)
        self.done[i] = True

    def collect(self, order: range):
        """Yield the values of the trials in `order`, in draw order. Runs them
        from the back until it meets a trial done, then each trial still
        undone just before its values are due, so the first error raised, by
        a trial or by the caller between trials, is the one a serial run
        would raise."""
        try:
            for i in reversed(order):
                if self.done[i]:
                    break
                self._run(i)
        except Exception:
            pass  # this trial stays undone and raises again below, in draw order
        for i in order:
            if not self.done[i]:
                self._run(i)
            yield self.values[i].tolist()

    def reap(self) -> None:
        """Stop and reap the helper, if one is still unreaped."""
        if self.pid:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = 0


def run_checks(source: DiscreteDistribution, k: int, seed: int = 0,
               rel_tol: float = 1e-6) -> list:
    """Full invariant suite on one scenario; returns CheckResults in a fixed order.

    Once the codec is built, one list of trials, the 101 sweep points and then
    the 150 seed-only transport trials, is shared with a forked helper
    process (see _SharedTrials), which is reaped before this returns or raises.
    """
    transport = _transport_trials(seed)
    enc, gd, d_d = exhaustive_optimal_encoder(source, k)
    gp = perceptual_decoder_for(source, enc)
    trials = _SharedTrials([(_sweep_point, (source, enc, gd, gp, a)) for a in _ALPHAS]
                           + transport)
    try:
        ctx = _Ctx(source, k, seed, rel_tol, (enc, gd, d_d, gp), trials)
        return [fn(ctx) for fn in _CHECKS]
    finally:
        trials.reap()


def report_text(results) -> str:
    lines = [r.line() for r in results]
    failed = sum(1 for r in results if not r.passed)
    skipped = sum(1 for r in results if r.skipped)
    ran = len(results) - skipped
    lines.append(f"{ran - failed}/{ran} checks passed"
                 + (f", {skipped} skipped" if skipped else ""))
    return "\n".join(lines) + "\n"
