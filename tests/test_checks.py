"""verify's α-sweep points and seed-only transport trials, shared with a
forked helper process.

With the helper, without it, and with a helper that dies part way, every
`verify` run prints the same bytes and exits the same way, and no child
process outlives `run_checks`.
"""
import json
import os
import threading
import time

import numpy as np
import pytest

from dplab import checks, tradeoff
from dplab.cli import main
from dplab.codec import decoder_output_dist, exhaustive_optimal_encoder, perceptual_decoder_for
from dplab.distcore import builtin_source, make_distribution
from dplab.transport import TransportPlan
from test_cli import VERIFY_U4_GOLDEN

SEEDS = (0, 7, 2**64 - 1)
N_SWEEP = 101  # the sweep's points at α = 0, 0.01, ..., 1
N_TRIALS = N_SWEEP + 150  # then 50 agreement pairs and 100 axiom triples


def _planar6(tmp_path):
    path = tmp_path / "planar6.json"
    pts = np.random.default_rng(6).normal(size=(6, 2)).round(6)
    path.write_text(json.dumps({"points": pts.tolist(), "probs": [1 / 6] * 6}))
    return str(path)


SCENARIOS = {
    "u4-r1": lambda tmp_path: ("builtin:u4", "1"),
    "u2-r1": lambda tmp_path: ("builtin:u2", "1"),
    "gauss33-r2": lambda tmp_path: ("builtin:gauss33", "2"),
    "planar6-r1": lambda tmp_path: (_planar6(tmp_path), "1"),
}


def _refuse_fork():
    raise OSError("fork refused")


def _no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _verify(capsys, argv):
    rc = main(["verify", *argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _serial(capsys, monkeypatch, argv):
    """verify with no helper: the parent runs every trial."""
    with monkeypatch.context() as m:
        m.setattr(checks.os, "fork", _refuse_fork)
        return _verify(capsys, argv)


@pytest.fixture
def parent_runs(monkeypatch):
    """Count the trials the calling process runs; the helper's stay uncounted."""
    parent = os.getpid()
    ran = []
    run = checks._SharedTrials._run

    def counted(self, i):
        if os.getpid() == parent:
            ran.append(int(i))
        run(self, i)

    monkeypatch.setattr(checks._SharedTrials, "_run", counted)
    return ran


@pytest.fixture
def helper_first(monkeypatch):
    """Build _Ctx only once the helper, if any, has exited, so its share of
    the work is certain and not a matter of timing."""
    init = checks._Ctx.__init__

    def waiting(self, *args):
        trials = args[-1]
        deadline = time.monotonic() + 60
        # WNOWAIT leaves the exited helper for run_checks to reap
        while trials.pid and os.waitid(os.P_PID, trials.pid,
                                       os.WEXITED | os.WNOWAIT | os.WNOHANG) is None:
            assert time.monotonic() < deadline, "helper still running after 60 s"
            time.sleep(0.001)
        init(self, *args)

    monkeypatch.setattr(checks._Ctx, "__init__", waiting)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_helper_output_bit_identical(capsys, monkeypatch, tmp_path, scenario, seed, parent_runs):
    source, rate = SCENARIOS[scenario](tmp_path)
    argv = ["--source", source, "--rate", rate, "--seed", str(seed)]
    serial = _serial(capsys, monkeypatch, argv)
    # all of them, each segment from the back
    assert parent_runs == [*range(N_SWEEP - 1, -1, -1), *range(N_TRIALS - 1, N_SWEEP - 1, -1)]
    parent_runs.clear()
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(checks.os, "fork", counting_fork)
    assert _verify(capsys, argv) == serial
    assert len(forks) == 1
    _no_children()
    if scenario == "u4-r1" and seed == 0:
        assert serial == (0, VERIFY_U4_GOLDEN, "")


def test_helper_takes_a_share(parent_runs, helper_first):
    # a helper that finishes before the parent starts claiming leaves it none
    results = checks.run_checks(builtin_source("u4"), 2)
    assert parent_runs == []
    assert all(r.passed for r in results)
    _no_children()


@pytest.mark.parametrize("how", ["exit", "raise"])
@pytest.mark.parametrize("k", [0, 3, N_SWEEP + 3])
def test_dead_helper_trials_rerun(capsys, monkeypatch, parent_runs, helper_first, how, k):
    # the helper stops after k trials, leaving the trial it claimed next
    # undone; the parent computes every missing trial and prints the golden
    parent = os.getpid()
    helper_runs = []
    run = checks._SharedTrials._run

    def dying(self, i):
        if os.getpid() != parent:
            if len(helper_runs) == k:
                if how == "exit":
                    os._exit(0)
                raise RuntimeError("helper fault")
            helper_runs.append(i)
        run(self, i)

    monkeypatch.setattr(checks._SharedTrials, "_run", dying)
    assert _verify(capsys, ["--source", "builtin:u4", "--rate", "1"]) == (0, VERIFY_U4_GOLDEN, "")
    assert sorted(parent_runs) == list(range(k, N_TRIALS))
    _no_children()


def test_no_helper_while_thread_alive(capsys, monkeypatch):
    # a live thread could hold a lock across the fork, so verify runs serially
    def forbidden():
        pytest.fail("forked while another thread was alive")

    monkeypatch.setattr(checks.os, "fork", forbidden)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        result = _verify(capsys, ["--source", "builtin:u4", "--rate", "1"])
    finally:
        stop.set()
        waiter.join()
    assert result == (0, VERIFY_U4_GOLDEN, "")
    _no_children()


def test_no_child_after_run_checks():
    results = checks.run_checks(builtin_source("u2"), 2, seed=3)
    assert len(results) == 18
    _no_children()


def test_no_child_after_ctx_raises(capsys, tmp_path):
    # 2^24 assignments pass ENUMERATION_CAP: the codec raises before any fork
    # (test_sweep_error_same_as_serial raises while the helper runs)
    path = tmp_path / "planar24.json"
    pts = np.random.default_rng(5).normal(size=(24, 2))
    path.write_text(json.dumps({"points": pts.tolist(), "probs": [1 / 24] * 24}))
    rc, out, err = _verify(capsys, ["--source", str(path), "--rate", "1"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: enumeration cap exceeded")
    _no_children()


def _first_law(dim):
    """The first law verify --seed 0 hands W1 in that dimension: the first
    agreement pair's a, or the first axiom triple's a."""
    if dim == 1:
        rng = np.random.default_rng(3)
        na, nb = int(rng.integers(2, 17)), int(rng.integers(2, 17))
        w = rng.random(na) + 0.05
        rng.random(nb)
        return make_distribution(rng.normal(size=na), w / w.sum())
    rng = np.random.default_rng(4)
    m = int(rng.integers(2, 7))
    w = rng.random(m) + 0.05
    return make_distribution(rng.normal(size=(m, 2)), w / w.sum())


@pytest.mark.parametrize("dim", [1, 2], ids=["agreement", "axioms"])
def test_trial_error_same_as_serial(capsys, monkeypatch, dim):
    # every W1 LP on laws of this dimension raises, naming its first law, so
    # the exit-2 line tells which trial raised first: the first in draw order
    w1_exact = checks.w1_exact

    def faulty(a, b):
        if a.dim == dim:
            raise ValueError(f"injected at {float(a.points.sum()):.17g}")
        return w1_exact(a, b)

    monkeypatch.setattr(checks, "w1_exact", faulty)
    argv = ["--source", "builtin:u4", "--rate", "1"]
    serial = _serial(capsys, monkeypatch, argv)
    first = float(_first_law(dim).points.sum())
    assert serial == (2, "", f"error: injected at {first:.17g}\n")
    assert _verify(capsys, argv) == serial
    _no_children()


@pytest.mark.parametrize("faults", [
    {0.37: "raise"},
    {0.37: "raise", 0.9: "raise"},
    {0.37: "inflate", 0.9: "raise"},
], ids=["one", "two", "point-first"])
def test_sweep_error_same_as_serial(capsys, monkeypatch, faults):
    # the W2 LP at each listed α raises, naming its α, or returns a cost above
    # P_d, which TradeoffPoint refuses; the exit-2 line is the error a serial
    # sweep meets first, although the helper and the parent's walk from the
    # back meet the others first
    source = builtin_source("u4")
    enc, gd, _ = exhaustive_optimal_encoder(source, 2)
    gp = perceptual_decoder_for(source, enc)
    law_alpha = {decoder_output_dist(source, enc, tradeoff.interpolate(gd, gp, a)).points.tobytes(): a
                 for a in faults}
    w2sq_exact = tradeoff.w2sq_exact

    def faulty(a, b):
        alpha = law_alpha.get(b.points.tobytes())
        if alpha is None:
            return w2sq_exact(a, b)
        if faults[alpha] == "raise":
            raise ValueError(f"injected at alpha {alpha}")
        return TransportPlan(w2sq_exact(a, b).pi, 1.0)

    monkeypatch.setattr(tradeoff, "w2sq_exact", faulty)
    argv = ["--source", "builtin:u4", "--rate", "1"]
    serial = _serial(capsys, monkeypatch, argv)
    first = ("measured perception exceeds the MMSE endpoint" if faults[0.37] == "inflate"
             else "injected at alpha 0.37")
    assert serial == (2, "", f"error: {first}\n")
    assert _verify(capsys, argv) == serial
    _no_children()
