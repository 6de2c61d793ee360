"""Each checker accepts dplab's real output and rejects a perturbed copy.

Run from the repository root: python3 -m pytest perfbench/test_reference.py
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import dplab  # noqa: E402
import dplab.cli  # noqa: E402
import reference as ref  # noqa: E402
from reference import CheckFailure  # noqa: E402


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = dplab.cli.main(argv)
    return rc, out.getvalue()


def _law(rng, n, dim=1, uniform=False):
    pts = rng.normal(size=(n, dim))
    w = np.full(n, 1.0 / n) if uniform else rng.uniform(0.05, 1.0, n)
    return dplab.make_distribution(pts, w / w.sum())


def test_references_agree_with_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a, b = _law(rng, 7), _law(rng, 5)
        cost = (a.points[:, 0][:, None] - b.points[:, 0][None, :]) ** 2
        a_eq = np.vstack([np.kron(np.eye(7), np.ones(5)), np.kron(np.ones(7), np.eye(5))])
        lp = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([a.probs, b.probs]))
        w2 = ref.w2sq_quantile(a.points[:, 0], a.probs, b.points[:, 0], b.probs)
        assert w2 == pytest.approx(lp.fun, rel=1e-9, abs=1e-12)
        src = _law(rng, 9)
        dp = ref.optimal_mse_1d(src.points[:, 0], src.probs, 3)
        assert dp == pytest.approx(ref.optimal_mse_enumerated(src.points, src.probs, 3), rel=1e-12)


def test_plan_and_transport_checkers():
    rng = np.random.default_rng(1)
    a, b = _law(rng, 40), _law(rng, 30)
    plan = dplab.w2sq_exact(a, b)
    xa, xb = a.points[:, 0], b.points[:, 0]
    cost = (xa[:, None] - xb[None, :]) ** 2
    ref.check_w2sq_1d(plan.cost, xa, a.probs, xb, b.probs)
    ref.check_plan(plan.pi, a.probs, b.probs, cost, plan.cost)
    with pytest.raises(CheckFailure, match="quantile"):
        ref.check_w2sq_1d(plan.cost * (1 + 1e-6), xa, a.probs, xb, b.probs)
    with pytest.raises(CheckFailure, match="own plan"):
        ref.check_plan(plan.pi, a.probs, b.probs, cost, plan.cost * (1 + 1e-6))
    shifted = plan.pi.copy()
    shifted[0, 0] += 1e-8
    with pytest.raises(CheckFailure, match="marginal"):
        ref.check_plan(shifted, a.probs, b.probs, cost, plan.cost)
    negative = plan.pi.copy()
    negative[0, 0] = -1e-15
    with pytest.raises(CheckFailure, match="negative"):
        ref.check_plan(negative, a.probs, b.probs, cost, plan.cost)

    u, v = _law(rng, 25, dim=2, uniform=True), _law(rng, 25, dim=2, uniform=True)
    w1 = dplab.w1_exact(u, v).cost
    ref.check_w1_uniform(w1, u.points, v.points)
    with pytest.raises(CheckFailure, match="assignment"):
        ref.check_w1_uniform(w1 * (1 + 1e-6), u.points, v.points)


def test_codec_checkers():
    rng = np.random.default_rng(2)
    for dim, n, k, optimum in ((1, 12, 4, ref.optimal_mse_1d), (2, 7, 3, ref.optimal_mse_enumerated)):
        src = _law(rng, n, dim)
        enc, _, d_d = dplab.exhaustive_optimal_encoder(src, k)
        want = optimum(src.points[:, 0] if dim == 1 else src.points, src.probs, k)
        ref.check_optimal_dd(d_d, want, enc.assignment, src.points, src.probs, k)
        with pytest.raises(CheckFailure, match="own optimum"):
            ref.check_optimal_dd(d_d * (1 + 1e-6), want, enc.assignment, src.points, src.probs, k)
        worse = np.array(enc.assignment)
        worse[0] = (worse[0] + 1) % k
        with pytest.raises(CheckFailure, match="encoder MSE"):
            ref.check_optimal_dd(d_d, want, worse, src.points, src.probs, k)

    src = _law(rng, 64)
    trace: list = []
    dplab.lloyd_train(src, 8, seed=3, mse_trace=trace)
    opt = ref.optimal_mse_1d(src.points[:, 0], src.probs, 8)
    ref.check_lloyd(trace, opt)
    with pytest.raises(CheckFailure, match="rose"):
        ref.check_lloyd(trace[:1] + [trace[0] * (1 + 1e-9)] + trace[1:], opt)
    with pytest.raises(CheckFailure, match="below the optimum"):
        ref.check_lloyd(trace, trace[-1] * (1 + 1e-6))


def _gauss_file(tmp_path):
    spec = {"kind": "gaussian-grid", "mean": 0.2, "std": 1.3, "n": 33, "halfwidth": 4.0}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    xs, p = ref.gaussian_grid_law(0.2, 1.3, 33, 4.0)
    return str(path), ref.optimal_mse_1d(xs, p, 4)


def test_oracle_and_theorem2_checkers(tmp_path):
    path, d_d = _gauss_file(tmp_path)
    p = 0.5**2 * d_d
    rc, out = _cli(["oracle", "--source", path, "--rate", "2", "--perception", repr(p)])
    assert rc == 0
    ref.check_oracle(out, p, d_d)
    bad = json.loads(out)
    bad["D_star"] *= 1 + 1e-5
    with pytest.raises(CheckFailure, match="D_star"):
        ref.check_oracle(json.dumps(bad), p, d_d)

    rc, out = _cli(["theorem2", "--source", path, "--rate", "2"])
    assert rc == 0
    ref.check_theorem2(out, d_d)
    with pytest.raises(CheckFailure, match="theorem2 mse"):
        ref.check_theorem2(out, d_d * (1 + 1e-6))


def test_verify_verdicts():
    rc, out = _cli(["verify", "--source", "builtin:u4", "--rate", "1"])
    d_d = ref.optimal_mse_enumerated([[0.0], [1.0], [2.0], [3.0]], [0.25] * 4, 2)
    assert ref.verify_verdict(rc, out, d_d) == "ok"
    with pytest.raises(CheckFailure, match="own value"):
        ref.verify_verdict(rc, out, d_d * (1 + 1e-4))
    flipped = out.replace("PASS endpoint_doubling", "FAIL endpoint_doubling")
    with pytest.raises(CheckFailure, match="endpoint_doubling"):
        ref.verify_verdict(1, flipped, d_d)

    rc, out = _cli(["verify", "--source", "builtin:u2", "--rate", "1"])
    lossless = ref.verify_verdict(rc, out, 0.0, known_faults_ok=True)
    # the lossless-rate FAILs are the tolerated faults; a fixed build passes cleanly
    assert lossless in ("known-fault", "ok")
    fixed = out
    for name in ref.KNOWN_FAULTS:
        fixed = fixed.replace(f"FAIL {name}", f"SKIP {name}")
    assert ref.verify_verdict(0, fixed, 0.0, known_faults_ok=True) == "ok"
    with pytest.raises(CheckFailure):
        ref.verify_verdict(2, "", 0.0, known_faults_ok=True)


def test_known_faults_only_tolerated_where_flagged():
    rc, out = _cli(["verify", "--source", "builtin:u4", "--rate", "1"])
    assert rc == 0
    d_d = ref.optimal_mse_enumerated([[0.0], [1.0], [2.0], [3.0]], [0.25] * 4, 2)
    for name in ref.KNOWN_FAULTS:
        faulty = out.replace(f"PASS {name}", f"FAIL {name}")
        assert faulty != out
        assert ref.verify_verdict(1, faulty, d_d, known_faults_ok=True) == "known-fault"
        with pytest.raises(CheckFailure, match=name):
            ref.verify_verdict(1, faulty, d_d)
    with pytest.raises(CheckFailure, match="endpoint_doubling"):
        ref.verify_verdict(1, out.replace("PASS endpoint_doubling", "FAIL endpoint_doubling"),
                           d_d, known_faults_ok=True)


def test_verify_seed_draw_matches_verify():
    import workloads

    for seed in (0, 10):
        rc, out = _cli(["verify", "--source", "builtin:u4", "--rate", "1", "--seed", str(seed)])
        assert ("FAIL canonical_support" in out) == workloads._canonical_support_fails(seed)
    rng = np.random.default_rng(7)
    assert not workloads._canonical_support_fails(workloads._verify_seed(rng, False))
    fault_exists = any(workloads._canonical_support_fails(s) for s in range(40))
    assert workloads._canonical_support_fails(workloads._verify_seed(rng, True)) == fault_exists
