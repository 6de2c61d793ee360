"""dplab benchmark: end-to-end metrics per workload, or per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Each run sets up (imports, seeded inputs, one untimed warm-up of every
operation kind), then repeats whole rounds of the workload's operation kinds,
each round on fresh seeded inputs, until --seconds have passed. Outputs are
checked against the benchmark's own computations outside the timed region.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports setup_s, wall_s and peak_rss_mb. --trace 1 runs each round
twice on the same inputs, once untraced and once with layer spans (layers.py),
checks that both give byte-identical outputs, and reports the per-layer
metrics plus the tracer's own bookkeeping time.
"""
from __future__ import annotations

import os

# Single-threaded numerics, fixed before numpy is imported; dplab runs at its
# default thread count.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DPLAB_THREADS", None)

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
DEFAULT_SEED = 20220621


def _process_start() -> float:
    """Boot-clock time at which this process started (10 ms resolution)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return time.clock_gettime(time.CLOCK_BOOTTIME)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("verify", "large-lp", "quantize"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def _import_dplab():
    """Import dplab from this checkout's src/, never from an installed copy."""
    if not (SRC / "dplab" / "__init__.py").is_file():
        raise SystemExit(f"error: no dplab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dplab

    if Path(dplab.__file__).resolve().parent != SRC / "dplab":
        raise SystemExit(f"error: dplab imported from {dplab.__file__}, not {SRC}")


def _wall(kinds, times: dict) -> float:
    """Sum over operation kinds of the kind's time across rounds: the median,
    or the minimum for a kind whose work does not depend on its input."""
    return sum((min if k.fixed_work else statistics.median)(times[k.name]) for k in kinds)


class Runner:
    """Runs and checks rounds of one workload, counting attempted and failed
    operations. A failed operation raised, gave a wrong output, or hit a
    known fault."""

    def __init__(self, workloads, workload: str, seed: int, workdir: str):
        self.workloads = workloads
        self.kinds = workloads.kinds(workload)
        self.seed = seed
        self.workdir = workdir
        self.correct = True
        self.attempted = 0
        self.failed = 0

    def note(self, msg: str) -> None:
        print(msg, file=sys.stderr)

    def inputs(self, round_no: int) -> list:
        return self.workloads.make_round(self.kinds, self.seed, round_no, self.workdir)

    def run_round(self, inputs, times: dict) -> list:
        """Time each operation of one round; None stands for a raised error."""
        outs = []
        for kind, inp in zip(self.kinds, inputs):
            t0 = time.perf_counter()
            try:
                out = kind.run(inp)
            except Exception as exc:  # an operation that raises is a failed operation
                out = None
                self.note(f"{kind.name}: raised {type(exc).__name__}: {exc}")
            times.setdefault(kind.name, []).append(time.perf_counter() - t0)
            outs.append(out)
        return outs

    def check(self, inputs, outs, counted: bool) -> None:
        from reference import CheckFailure

        for kind, inp, out in zip(self.kinds, inputs, outs):
            if out is None:
                verdict = "raised"
            else:
                try:
                    verdict = kind.check(inp, out)
                except CheckFailure as exc:
                    verdict = "wrong"
                    self.correct = False
                    self.note(f"{kind.name}: wrong output: {exc}")
            if verdict == "known-fault":
                self.note(f"{kind.name}: known fault (see CHANGES.md)")
            if counted:
                self.attempted += 1
                self.failed += verdict != "ok"

    def same_outputs(self, a, b) -> None:
        for kind, x, y in zip(self.kinds, a, b):
            if (x is None) != (y is None) or (
                    x is not None and kind.fingerprint(x) != kind.fingerprint(y)):
                self.correct = False
                self.note(f"{kind.name}: output differs with tracing on")


def main(argv=None) -> int:
    t_start = _process_start()
    args = _parse(argv)
    _import_dplab()
    import workloads
    from layers import Tracer

    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workloads, args.workload, args.seed, str(workdir))
        warm_inputs = runner.inputs(0)
        warm_outs = runner.run_round(warm_inputs, {})
        setup_s = time.clock_gettime(time.CLOCK_BOOTTIME) - t_start

        times: dict = {}
        tracers = []
        loop_start = time.perf_counter()
        round_no = 1
        while True:
            inputs = runner.inputs(round_no)
            if not args.trace:
                outs = runner.run_round(inputs, times)
            else:
                # alternate which of the pair runs first, so warm caches favour neither
                tracer = Tracer()
                if round_no % 2:
                    outs = runner.run_round(inputs, times)
                with tracer:
                    t_outs = runner.run_round(inputs, {})
                if not round_no % 2:
                    outs = runner.run_round(inputs, times)
                tracers.append(tracer)
                runner.same_outputs(outs, t_outs)
                runner.check(inputs, t_outs, counted=True)
            runner.check(inputs, outs, counted=True)
            round_no += 1
            if time.perf_counter() - loop_start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        runner.check(warm_inputs, warm_outs, counted=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {}
        for name, value in tracers[0].layer_counts().items():
            metrics[name] = (value, "ratio" if name.endswith("_ratio") else "count")
        per_round = [t.layer_times() for t in tracers]
        for name in per_round[0]:
            metrics[name] = (statistics.median(r[name] for r in per_round), "s")
        overhead = metrics["trace.overhead_s"][0]
        metrics["trace.overhead_pct"] = (100.0 * overhead / _wall(runner.kinds, times), "%")
    else:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (_wall(runner.kinds, times), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    result = {
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {"result": result, "op_seconds": times}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
