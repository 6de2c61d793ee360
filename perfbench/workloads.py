"""The benchmark's three workloads, each a fixed mix of operation kinds.

An operation kind makes fresh inputs from a seeded generator, runs one call
into dplab's public API (or `dplab.cli.main` in-process), checks the output
against reference.py, and gives a byte fingerprint of the output so traced
and untraced runs can be compared. dplab is always reached through module
attributes at call time, so the tracer's bindings are the ones called.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import types
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dplab
import dplab.checks
import dplab.cli
import reference as ref

ALPHAS = (0.25, 0.5, 0.75)  # oracle budgets P = alpha^2 D_d: alphas the default support holds
# Transport LP sizes. HiGHS dominates linprog from n ~ 136 up. Simplex
# iteration counts of one size vary about twofold between random inputs, so
# the sizes stay small enough for a run to hold some 15-20 rounds and steady
# medians; one 2-D size reaches 256, where memory grows with n^2.
SIZES_1D = (128, 144)
SIZES_2D = (128, 256)
# Draws allowed for a verify seed with the wanted canonical_support verdict;
# about 4% of seeds fail it, so 400 draws miss with odds below 1e-7.
SEED_DRAWS = 400


@dataclass(frozen=True)
class Kind:
    name: str
    make: Callable  # (rng, path_stem) -> input
    run: Callable  # input -> output
    check: Callable  # (input, output) -> "ok" | "known-fault", or raises CheckFailure
    fingerprint: Callable  # output -> bytes
    # The work is the same on every input (a fixed enumeration), so the time
    # varies only with the host and the run keeps its fastest round.
    fixed_work: bool = False


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = dplab.cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _cli_fingerprint(out) -> bytes:
    rc, stdout, stderr = out
    return f"{rc}\0{stdout}\0{stderr}".encode()


def _write(stem: str, spec: dict) -> str:
    path = stem + ".json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    return path


def _probs(rng, n: int) -> np.ndarray:
    w = rng.uniform(0.05, 1.0, n)
    return w / w.sum()


def _gauss_spec(rng, n: int) -> dict:
    return {"kind": "gaussian-grid", "mean": float(rng.uniform(-1, 1)),
            "std": float(rng.uniform(0.5, 2.0)), "n": n, "halfwidth": 4.0}


def _gauss_dd(spec: dict, k: int) -> float:
    xs, p = ref.gaussian_grid_law(spec["mean"], spec["std"], spec["n"], spec["halfwidth"])
    return ref.optimal_mse_1d(xs, p, k)


def _cli_ok(rc: int, stderr: str) -> None:
    if rc != 0:
        raise ref.CheckFailure(f"exit {rc}: {stderr.strip()}")


# --- verify -----------------------------------------------------------------


def _canonical_support_fails(seed: int) -> bool:
    """Whether dplab's own canonical_support check fails at this --seed.

    That check draws its inputs from the seed alone, never from the source,
    so its verdict is a function of the seed. A check that no longer exists
    or takes more than the seed screens nothing.
    """
    check = getattr(dplab.checks, "_check_canonical_support", None)
    try:
        return check is not None and not check(types.SimpleNamespace(seed=seed)).passed
    except AttributeError:
        return False


def _verify_seed(rng, canonical_fails: bool) -> int:
    """A fresh `dplab verify --seed` for one operation.

    The seed sets the inputs of verify's transport checks (600 LPs), so each
    operation solves new LPs. It alone also decides whether verify's
    canonical_support check fails (about 4% of seeds, see the FOUND line in
    CHANGES.md). The seed is drawn from those with the wanted verdict: that
    fault shows on the lossless operation, which fails every time anyway, and
    every run fails the same share of operations. Once no seed makes the
    check fail, any seed serves.
    """
    for _ in range(SEED_DRAWS):
        seed = int(rng.integers(2**32))
        if _canonical_support_fails(seed) == canonical_fails:
            break
    return seed


def _verify_kind(name: str, make_source, k: int, own_dd, lossless: bool = False) -> Kind:
    """make_source(rng, stem) -> the --source argument. Only the lossless
    scenario may show the known faults."""
    rate = k.bit_length() - 1

    def make(rng, stem):
        source = make_source(rng, stem)
        seed = _verify_seed(rng, canonical_fails=lossless)
        argv = ["verify", "--source", source, "--rate", str(rate), "--seed", str(seed)]
        return {"argv": argv, "source": source}

    def check(inp, out):
        rc, stdout, _ = out
        return ref.verify_verdict(rc, stdout, own_dd(inp["source"]), known_faults_ok=lossless)

    return Kind(name, make, lambda inp: _cli(inp["argv"]), check, _cli_fingerprint)


def _spec_of(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _verify_kinds():
    def planar_source(rng, stem):
        return _write(stem, {"points": rng.normal(size=(6, 2)).tolist(),
                             "probs": _probs(rng, 6).tolist()})

    def planar_dd(path):
        spec = _spec_of(path)
        return ref.optimal_mse_enumerated(spec["points"], spec["probs"], 2)

    def lossless_dd(_):
        return ref.optimal_mse_enumerated([[0.0], [1.0]], [0.5, 0.5], 2)

    return [
        _verify_kind("verify-gauss33-r2", lambda rng, stem: _write(stem, _gauss_spec(rng, 33)), 4,
                     lambda path: _gauss_dd(_spec_of(path), 4)),
        _verify_kind("verify-planar6-r1", planar_source, 2, planar_dd),
        # dplab verify fails on this source at every seed (known fault)
        _verify_kind("verify-lossless-u2-r1", lambda rng, stem: "builtin:u2", 2, lossless_dd,
                     lossless=True),
    ]


# --- large-lp ---------------------------------------------------------------


def _plan_fingerprint(plan) -> bytes:
    return plan.pi.tobytes() + float(plan.cost).hex().encode()


def _w2sq_kind(n: int) -> Kind:
    def make(rng, stem):
        return tuple(dplab.make_distribution(rng.normal(size=n), _probs(rng, n)) for _ in "ab")

    def check(inp, plan):
        a, b = inp
        xa, xb = a.points[:, 0], b.points[:, 0]
        ref.check_w2sq_1d(plan.cost, xa, a.probs, xb, b.probs)
        ref.check_plan(plan.pi, a.probs, b.probs, (xa[:, None] - xb[None, :]) ** 2, plan.cost)
        return "ok"

    return Kind(f"w2sq-1d-n{n}", make, lambda inp: dplab.w2sq_exact(*inp), check,
                _plan_fingerprint)


def _w1_kind(n: int) -> Kind:
    def make(rng, stem):
        return tuple(dplab.make_distribution(rng.normal(size=(n, 2)), np.full(n, 1.0 / n))
                     for _ in "ab")

    def check(inp, plan):
        a, b = inp
        ref.check_w1_uniform(plan.cost, a.points, b.points)
        diff = a.points[:, None, :] - b.points[None, :, :]
        ref.check_plan(plan.pi, a.probs, b.probs, np.sqrt((diff * diff).sum(axis=2)), plan.cost)
        return "ok"

    return Kind(f"w1-2d-n{n}", make, lambda inp: dplab.w1_exact(*inp), check, _plan_fingerprint)


def _oracle_kind() -> Kind:
    def make(rng, stem):
        spec = _gauss_spec(rng, 33)
        d_d = _gauss_dd(spec, 4)
        p = ALPHAS[int(rng.integers(len(ALPHAS)))] ** 2 * d_d
        argv = ["oracle", "--source", _write(stem, spec), "--rate", "2", "--perception", repr(p)]
        return {"argv": argv, "perception": p, "d_d": d_d}

    def check(inp, out):
        rc, stdout, stderr = out
        _cli_ok(rc, stderr)
        ref.check_oracle(stdout, inp["perception"], inp["d_d"])
        return "ok"

    return Kind("oracle-gauss33-r2", make, lambda inp: _cli(inp["argv"]), check, _cli_fingerprint)


def _theorem2_kind() -> Kind:
    def make(rng, stem):
        spec = _gauss_spec(rng, 33)
        return {"argv": ["theorem2", "--source", _write(stem, spec), "--rate", "2"], "spec": spec}

    def check(inp, out):
        rc, stdout, stderr = out
        _cli_ok(rc, stderr)
        ref.check_theorem2(stdout, _gauss_dd(inp["spec"], 4))
        return "ok"

    return Kind("theorem2-gauss33-r2", make, lambda inp: _cli(inp["argv"]), check,
                _cli_fingerprint)


# --- quantize ---------------------------------------------------------------


def _codec_fingerprint(out) -> bytes:
    enc, gd, d_d = out
    return enc.assignment.tobytes() + gd.table.tobytes() + float(d_d).hex().encode()


def _exhaustive_kind(dim: int, n: int, k: int) -> Kind:
    def make(rng, stem):
        if dim == 1:  # an equally spaced grid
            pts = rng.uniform(-1, 1) + rng.uniform(0.1, 1.0) * np.arange(n)
        else:
            pts = rng.normal(size=(n, dim))
        return dplab.make_distribution(pts, _probs(rng, n))

    def check(src, out):
        enc, _, d_d = out
        want = (ref.optimal_mse_1d(src.points[:, 0], src.probs, k) if dim == 1
                else ref.optimal_mse_enumerated(src.points, src.probs, k))
        ref.check_optimal_dd(d_d, want, enc.assignment, src.points, src.probs, k)
        return "ok"

    rate = k.bit_length() - 1
    return Kind(f"exhaustive-{dim}d-n{n}-r{rate}", make,
                lambda src: dplab.exhaustive_optimal_encoder(src, k), check, _codec_fingerprint,
                fixed_work=True)


def _lloyd_kind(n: int, rate: int) -> Kind:
    k = 2**rate

    def make(rng, stem):
        spec = _gauss_spec(rng, n)
        xs, p = ref.gaussian_grid_law(spec["mean"], spec["std"], n, spec["halfwidth"])
        return dplab.make_distribution(xs, p), int(rng.integers(2**32))

    def run(inp):
        src, seed = inp
        trace: list = []
        enc, gd = dplab.lloyd_train(src, k, seed=seed, mse_trace=trace)
        return enc, gd, trace

    def check(inp, out):
        src, _ = inp
        ref.check_lloyd(out[2], ref.optimal_mse_1d(src.points[:, 0], src.probs, k))
        return "ok"

    def fingerprint(out):
        enc, gd, trace = out
        return enc.assignment.tobytes() + gd.table.tobytes() + repr(trace).encode()

    return Kind(f"lloyd-grid{n}-r{rate}", make, run, check, fingerprint)


WORKLOADS = {
    "verify": _verify_kinds,
    "large-lp": lambda: [*(_w2sq_kind(n) for n in SIZES_1D), *(_w1_kind(n) for n in SIZES_2D),
                         _oracle_kind(), _theorem2_kind()],
    "quantize": lambda: [*(_exhaustive_kind(1, n, 8) for n in (18, 19, 20)),
                         *(_exhaustive_kind(2, n, 4) for n in (7, 8, 9)),
                         *(_lloyd_kind(512, r) for r in (4, 5, 6))],
}


def kinds(workload: str) -> list:
    return WORKLOADS[workload]()


def make_round(kind_list, seed: int, round_no: int, workdir: str) -> list:
    """Inputs of one round; round 0 is the warm-up."""
    inputs = []
    for i, kind in enumerate(kind_list):
        rng = np.random.default_rng([seed, round_no, i])
        inputs.append(kind.make(rng, os.path.join(workdir, f"{kind.name}-{round_no}")))
    return inputs
