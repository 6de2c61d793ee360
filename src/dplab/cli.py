"""Command-line front end.

Subcommands: mmse, perceptual, sweep, oracle, theorem2, verify. Artifacts are
deterministic: floats carry 17 significant digits, CSV uses LF line endings,
and rows follow grid order, so identical argv + seed reproduce files byte for
byte.

Each cmd_* handler only computes (text, exit code); `main` alone loads the
source, writes the artifact and maps every ValueError to exit 2.

Exit codes: 0 success, 1 failed verification, 2 usage error.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Tuple

import numpy as np

from ._format import json_text
from .augmented import PHASE_COLUMNS, phase_sweep, phase_to_csv
from .checks import report_text, run_checks
from .codec import (
    codec_to_json,
    exhaustive_optimal_encoder,
    lloyd_train,
    perceptual_decoder_for,
    decoder_output_dist,
)
from .distcore import DiscreteDistribution, builtin_source, source_from_json
from .tradeoff import (
    SWEEP_COLUMNS,
    alpha_for_perception,
    check_budget,
    constrained_oracle,
    default_oracle_support,
    measure,
    predicted_distortion,
    sweep,
    sweep_to_csv,
)
from .transport import w2sq_exact

# each alpha costs an interpolation and a W2 LP; 0:1:1e-4 is the finest grid on [0, 1]
MAX_ALPHA_POINTS = 10_001


def load_source(text: str) -> DiscreteDistribution:
    """builtin:<name>, or a path to a JSON source spec."""
    if text.startswith("builtin:"):
        return builtin_source(text[len("builtin:"):])
    try:
        with open(text, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read source file {text!r}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ValueError(f"cannot read source file {text!r}: not UTF-8 text") from None
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed source JSON in {text!r}: {exc}") from None
    except RecursionError:
        raise ValueError(f"malformed source JSON in {text!r}: nesting too deep") from None
    return source_from_json(obj)


def parse_alpha_range(text: str) -> Tuple[float, ...]:
    """a:b:step, inclusive of b when the step lands on it."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("alphas must be formatted a:b:step")
    try:
        a, b, step = (float(p) for p in parts)
    except ValueError:
        raise ValueError("alphas must be formatted a:b:step with numeric fields") from None
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(step)):
        raise ValueError("alpha range must be finite")
    if step <= 0:
        raise ValueError("alpha step must be > 0")
    if b < a:
        raise ValueError("alpha range needs a <= b")
    span = (b - a) / step + 1e-9  # +inf when step underflows the quotient
    if span >= MAX_ALPHA_POINTS:
        raise ValueError(f"alpha grid exceeds {MAX_ALPHA_POINTS} points")
    count = int(span) + 1
    if abs(a + (count - 1) * step - b) <= 1e-9 * max(1.0, abs(b)):
        # endpoint lands on the grid: linspace keeps the values exact
        alphas = tuple(float(v) for v in np.linspace(a, b, count))
    else:
        alphas = tuple(a + i * step for i in range(count))
    if any(not 0.0 <= v <= 1.0 for v in alphas):
        raise ValueError("alpha out of range [0, 1]")
    return alphas


def parse_lambda_list(text: str) -> Tuple[float, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("lambdas must be a comma-separated list")
    try:
        vals = tuple(float(t) for t in items)
    except ValueError:
        raise ValueError("lambdas must be numeric") from None
    if any(not math.isfinite(v) or v < 0 for v in vals):
        raise ValueError("lambda must be >= 0 and finite")
    if any(b < a for a, b in zip(vals, vals[1:])):
        raise ValueError("lambda grid must be sorted ascending")
    return vals


def build_codec(args: argparse.Namespace, source: DiscreteDistribution):
    """(encoder, conditional-mean decoder) by --method at K = 2^--rate."""
    k = 2 ** args.rate
    if args.method == "exhaustive":
        enc, gd, _ = exhaustive_optimal_encoder(source, k)
        return enc, gd
    kwargs = {} if args.tol is None else {"tol": args.tol}
    return lloyd_train(source, k, seed=args.seed, **kwargs)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {out!r}: {exc.strerror}") from None


def _json_artifact(obj) -> str:
    return json_text(obj) + "\n"


def _rows_json(columns, rows) -> str:
    return _json_artifact([dict(zip(columns, r)) for r in rows])


def cmd_mmse(args: argparse.Namespace, source: DiscreteDistribution) -> Tuple[str, int]:
    enc, gd = build_codec(args, source)
    payload = codec_to_json(enc, gd=gd)
    return _json_artifact(payload), 0


def cmd_perceptual(args: argparse.Namespace, source: DiscreteDistribution) -> Tuple[str, int]:
    enc, _ = build_codec(args, source)
    payload = codec_to_json(enc, gp=perceptual_decoder_for(source, enc))
    return _json_artifact(payload), 0


def cmd_sweep(args: argparse.Namespace, source: DiscreteDistribution) -> Tuple[str, int]:
    alphas = parse_alpha_range(args.alphas)
    enc, gd = build_codec(args, source)
    gp = perceptual_decoder_for(source, enc)
    points = sweep(source, enc, gd, gp, list(alphas))
    if args.format == "csv":
        return sweep_to_csv(points), 0
    return _rows_json(SWEEP_COLUMNS, (p.row() for p in points)), 0


def cmd_theorem2(args: argparse.Namespace, source: DiscreteDistribution) -> Tuple[str, int]:
    lambdas = parse_lambda_list(args.lambdas)
    enc, gd = build_codec(args, source)
    solutions = phase_sweep(source, enc, gd, list(lambdas))
    if args.format == "csv":
        return phase_to_csv(solutions), 0
    return _rows_json(PHASE_COLUMNS, (s.row() for s in solutions)), 0


def cmd_oracle(args: argparse.Namespace, source: DiscreteDistribution) -> Tuple[str, int]:
    p_budget = args.perception
    check_budget(p_budget)
    enc, gd = build_codec(args, source)
    gp = perceptual_decoder_for(source, enc)
    d_d, p_d = measure(source, enc, gd)
    sup = default_oracle_support(source, gd, gp)
    d_star, dec = constrained_oracle(source, enc, p_budget, sup)
    alpha = alpha_for_perception(p_budget, p_d)
    payload = {
        "perception": p_budget,
        "D_star": d_star,
        "alpha": alpha,
        "D_predicted": predicted_distortion(alpha, d_d),
        "D_d": d_d,
        "P_d": p_d,
        "out_support_size": int(sup.shape[0]),
    }
    if args.dump_plan:
        out_law = decoder_output_dist(source, enc, dec)
        plan = w2sq_exact(source, out_law)
        payload["plan"] = {
            "pi": plan.pi.tolist(),
            "cost": plan.cost,
            "order": 2,
            "row_points": source.points.tolist(),
            "row_probs": source.probs.tolist(),
            "col_points": out_law.points.tolist(),
            "col_probs": out_law.probs.tolist(),
        }
    return _json_artifact(payload), 0


def cmd_verify(args: argparse.Namespace, source: DiscreteDistribution) -> Tuple[str, int]:
    results = run_checks(source, 2 ** args.rate, seed=args.seed)
    return report_text(results), 0 if all(r.passed for r in results) else 1


def _rate(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("rate must be an integer") from None
    if v < 0:
        raise argparse.ArgumentTypeError("rate must be ≥ 0")
    if v > 62:  # code indices are int64
        raise argparse.ArgumentTypeError("rate must be ≤ 62")
    return v


def _seed(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be an integer") from None
    if not 0 <= v < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must be a 64-bit unsigned value")
    return v


def _tol(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("tol must be a number") from None
    if not (v > 0 and math.isfinite(v)):
        raise argparse.ArgumentTypeError("tol must be > 0")
    return v


def _common(method: bool) -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--source", default="builtin:u4",
                        help="builtin:{u2,u4,gauss33} or path to a JSON source spec")
    common.add_argument("--rate", type=_rate, default=1, help="rate in bits; K = 2^rate")
    if method:  # verify always certifies the exact search
        common.add_argument("--method", choices=("exhaustive", "lloyd"), default="exhaustive",
                            help="codec construction")
        common.add_argument("--tol", type=_tol, default=None, help="training stop tolerance")
    common.add_argument("--seed", type=_seed, default=0, help="64-bit unsigned seed")
    common.add_argument("--out", default=None, help="write the artifact here instead of stdout")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common(method=True)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="artifact format for row-oriented reports")

    parser = argparse.ArgumentParser(
        prog="dplab",
        description="Exact distortion/perception codec analysis on finite sources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mmse", parents=[common],
                       help="write the minimum-MSE codec (encoder + conditional means) as JSON")
    p.set_defaults(handler=cmd_mmse)

    p = sub.add_parser("perceptual", parents=[common],
                       help="write the codec with the conditional resampler decoder as JSON")
    p.set_defaults(handler=cmd_perceptual)

    p = sub.add_parser("sweep", parents=[common, fmt],
                       help="measure the decoder interpolation family over an alpha grid")
    p.add_argument("--alphas", default="0:1:0.05", help="grid as a:b:step, inclusive")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("oracle", parents=[common],
                       help="minimum distortion at a perception budget, over a support holding"
                            " the images at alpha = 0, .25, .5, .75, 1: between them it can"
                            " lie above the curve")
    p.add_argument("--perception", type=float, required=True, help="perception budget P")
    p.add_argument("--dump-plan", action="store_true",
                   help="include the optimal transport plan certifying P")
    p.set_defaults(handler=cmd_oracle)

    p = sub.add_parser("theorem2", parents=[common, fmt],
                       help="phase transition sweep of the penalized joint-law objective")
    p.add_argument("--lambdas", default="0,0.25,0.5,0.9,1.1,1.5,2",
                   help="comma-separated ascending penalty weights")
    p.set_defaults(handler=cmd_theorem2)

    p = sub.add_parser("verify", parents=[_common(method=False)],
                       help="run the full invariant suite; exit 0 iff every check passes")
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text, code = args.handler(args, load_source(args.source))
        _emit(text, args.out)
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
