import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dplab
from dplab.cli import (
    build_parser,
    load_source,
    main,
    parse_alpha_range,
    parse_lambda_list,
)
from dplab.codec import exhaustive_optimal_encoder, perceptual_decoder_for
from dplab.distcore import builtin_source

SWEEP_GOLDEN = (
    "alpha,D_measured,P_measured,D_predicted,P_predicted,D_d,P_d\n"
    "0,0.5,0,0.5,0,0.25,0.25\n"
    "0.25,0.390625,0.015625,0.390625,0.015625,0.25,0.25\n"
    "0.5,0.3125,0.0625,0.3125,0.0625,0.25,0.25\n"
    "0.75,0.265625,0.140625,0.265625,0.140625,0.25,0.25\n"
    "1,0.25,0.25,0.25,0.25,0.25,0.25\n"
)

THEOREM2_GAUSS33_GOLDEN = (
    "lambda,w1_gap,mean_dev,mse,objective,flag\n"
    "0,0,0.48320193894392066,0.72649447147063528,0,ok\n"
    "0.25,0,0.48320193894392066,0.72649447147063528,0.12080048473598017,ok\n"
    "0.5,0,0.48320193894392066,0.72649447147063528,0.24160096947196033,ok\n"
    "0.90000000000000002,0,0.48320193894392066,0.72649447147063528,0.43488174504952859,ok\n"
    "1.1000000000000001,0.48320193894392061,0,0.36324723573531748,0.48320193894392061,ok\n"
    "1.5,0.48320193894392061,0,0.36324723573531748,0.48320193894392061,ok\n"
    "2,0.48320193894392061,0,0.36324723573531748,0.48320193894392061,ok\n"
)

ORACLE_GAUSS33_GOLDEN = (
    "{\n"
    '  "perception": 0.050000000000000003,\n'
    '  "D_star": 0.12778748362907305,\n'
    '  "alpha": 0.66170819669002734,\n'
    '  "D_predicted": 0.12726066580207168,\n'
    '  "D_d": 0.11419234082251571,\n'
    '  "P_d": 0.11419234082251573,\n'
    '  "out_support_size": 136\n'
    "}\n"
)

VERIFY_U4_GOLDEN = (
    "PASS canonical_support: rebuild bit-stable=True, unique support=True, mass gap 0 (tol 1e-12)\n"
    "PASS conditional_reassembly: max |Σ_z p(z)p(x|z) − p(x)| = 0 (tol 1e-12)\n"
    "PASS resampler_marginal: support match=True, max prob gap 0 (tol 1e-15)\n"
    "PASS mean_residual_orthogonality: max |E[(X−Xd)·f(Xd)]| over 20 draws = 0 (tol 1e-10)\n"
    "PASS cross_term_identity: |E‖Xd−Xp‖² − E‖X−Xd‖²| = 0 (tol 1e-10)\n"
    "PASS training_monotonicity: max MSE increase along trace = 0 (tol 1e-12), final 0.25 ≥ exhaustive 0.25\n"
    "PASS endpoint_doubling: |D(0) − 2·D_d| = 0 with D(0)=0.5, D_d=0.25 (tol 1e-8)\n"
    "PASS interpolation_identities: 21-point grid: max |D−(1+(1−α)²)D_d| = 1.11e-16, max |P−α²P_d| = 8.33e-17 (tol 1e-8)\n"
    "PASS oracle_tightness: max rel |D* − D(α)| over α∈{0,.25,.5,.75,1} = 0 (tol 1e-06)\n"
    "PASS encoder_universality: max rel MMSE-encoder gap over 16 assignments x 5 budgets = 0 (tol 1e-06)\n"
    "PASS phase_transition: max branch residual 0 (tol 1e-8), objective recompute gap 0 (tol 1e-9), flags ok=True\n"
    "PASS objective_floor: max (λ·W₁ − objective) = 0 (tol 1e-9), max |objective − λ·W₁| = 0 (tol 1e-8)\n"
    "PASS beta_map: strictly decreasing=True, λ(1)=0 True, |λ(0.5)−1| = 0\n"
    "PASS conditioning_dichotomy: resampler gaps (0, 0) ≤ 1e-10; copy-Xd gaps (0.5, 0.5) both positive\n"
    "PASS derivative_consistency: max rel |ΔP/ΔD − α/(α−1)| = 1.13e-13 (tol 1e-3), slopes negative=True, convex in D=True\n"
    "PASS transport_agreement: max |LP − closed form| over 50 seeded pairs, both orders = 1.17e-15 (tol 1e-10)\n"
    "PASS transport_axioms: 100 triples: max symmetry gap 8.88e-16, max triangle excess 0 (tol 1e-10), max W₁(a,a) 0 (tol 1e-12)\n"
    "PASS optimal_pair_structure: |P_d − D_d| = 0 (tol 1e-9), gd bijective=True, LP vs closed-form P_d gap 0 (tol 1e-10)\n"
    "18/18 checks passed\n"
)


def _json_source(path, points):
    path.write_text(json.dumps({"points": points, "probs": [1.0 / len(points)] * len(points)}))
    return str(path)


def _grid_source(path, **fields):
    spec = {"kind": "gaussian-grid", "mean": 0.0, "std": 1.0, "n": 9, "halfwidth": 4.0}
    path.write_text(json.dumps({**spec, **fields}))
    return str(path)


def test_parse_alpha_range_exact_grid():
    assert parse_alpha_range("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert parse_alpha_range("0:0:1") == (0.0,)
    vals = parse_alpha_range("0:1:0.05")
    assert len(vals) == 21 and vals[0] == 0.0 and vals[-1] == 1.0
    ragged = parse_alpha_range("0:1:0.3")
    assert len(ragged) == 4 and ragged[-1] < 1.0


def test_parse_alpha_range_errors():
    with pytest.raises(ValueError, match="a:b:step"):
        parse_alpha_range("0:1")
    with pytest.raises(ValueError, match="numeric"):
        parse_alpha_range("x:1:0.1")
    with pytest.raises(ValueError, match="step must be > 0"):
        parse_alpha_range("0:1:0")
    with pytest.raises(ValueError, match="a <= b"):
        parse_alpha_range("1:0:0.1")


def test_parse_lambda_list():
    assert parse_lambda_list("0,0.5, 2") == (0.0, 0.5, 2.0)
    with pytest.raises(ValueError, match="sorted ascending"):
        parse_lambda_list("1,0.5")
    with pytest.raises(ValueError, match=">= 0"):
        parse_lambda_list("-1,0")
    with pytest.raises(ValueError, match="numeric"):
        parse_lambda_list("a,b")
    with pytest.raises(ValueError, match="comma-separated"):
        parse_lambda_list(" , ")


def test_load_source_builtin_and_file(tmp_path):
    assert load_source("builtin:u2").n == 2
    spec = tmp_path / "src.json"
    spec.write_text(json.dumps({"points": [[0.0], [2.0]], "probs": [0.5, 0.5]}))
    d = load_source(str(spec))
    assert d.points.ravel().tolist() == [0.0, 2.0]
    with pytest.raises(ValueError, match="cannot read source file"):
        load_source(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="malformed source JSON"):
        load_source(str(bad))


def test_sweep_golden_csv(capsys):
    assert main(["sweep", "--alphas", "0:1:0.25"]) == 0
    assert capsys.readouterr().out == SWEEP_GOLDEN


def test_lp_artifacts_golden(capsys):
    assert main(["theorem2", "--source", "builtin:gauss33", "--rate", "1"]) == 0
    assert capsys.readouterr().out == THEOREM2_GAUSS33_GOLDEN
    assert main(["oracle", "--source", "builtin:gauss33", "--rate", "2",
                 "--perception", "0.05", "--format", "json"]) == 0
    assert capsys.readouterr().out == ORACLE_GAUSS33_GOLDEN


def test_sweep_json_rows(capsys):
    assert main(["sweep", "--alphas", "0:1:0.5", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["alpha"] for r in rows] == [0.0, 0.5, 1.0]
    assert rows[1]["D_measured"] == 0.3125
    assert abs(rows[1]["P_measured"] - 0.0625) <= 1e-9


def test_artifacts_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["sweep", "--alphas", "0:1:0.05", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()

    ta, tb = tmp_path / "ta.csv", tmp_path / "tb.csv"
    for path in (ta, tb):
        assert main(["theorem2", "--out", str(path)]) == 0
    assert ta.read_bytes() == tb.read_bytes()


def test_mmse_round_trip(tmp_path):
    out = tmp_path / "codec.json"
    assert main(["mmse", "--rate", "1", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    enc, gd, _ = exhaustive_optimal_encoder(builtin_source("u4"), 2)
    assert obj["K"] == 2 and np.array_equal(np.asarray(obj["assignment"]), enc.assignment)
    assert np.array_equal(np.asarray(obj["gd"]), gd.table)
    assert "gp" not in obj


def test_perceptual_round_trip(tmp_path):
    out = tmp_path / "codec.json"
    assert main(["perceptual", "--source", "builtin:gauss33", "--rate", "2",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    src = builtin_source("gauss33")
    enc, _, _ = exhaustive_optimal_encoder(src, 4)
    gp = perceptual_decoder_for(src, enc)
    assert "gd" not in obj
    assert obj["K"] == 4 and np.array_equal(np.asarray(obj["assignment"]), enc.assignment)
    assert np.array_equal(np.asarray(obj["gp"]["support"]), gp.out_support)
    assert np.array_equal(np.asarray(obj["gp"]["rows"]), gp.table)


def test_oracle_payload(capsys):
    assert main(["oracle", "--perception", "0.0625", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["perception"] == 0.0625
    assert abs(payload["D_star"] - 0.3125) <= 1e-8
    assert payload["alpha"] == 0.5
    assert payload["D_predicted"] == 0.3125
    assert payload["D_d"] == 0.25
    assert abs(payload["P_d"] - 0.25) <= 1e-9
    assert payload["out_support_size"] == 18
    assert "plan" not in payload


def test_oracle_dump_plan(capsys):
    assert main(["oracle", "--perception", "0.0625", "--dump-plan",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    plan = payload["plan"]
    assert plan["order"] == 2
    pi = np.asarray(plan["pi"])
    assert np.all(pi >= 0)
    assert abs(plan["cost"] - 0.0625) <= 1e-9
    assert np.allclose(pi.sum(axis=1), plan["row_probs"], atol=1e-9)
    assert np.allclose(pi.sum(axis=0), plan["col_probs"], atol=1e-9)


def test_theorem2_numeric(capsys):
    assert main(["theorem2", "--lambdas", "0,0.5,1,1.5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "lambda,w1_gap,mean_dev,mse,objective,flag"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[5] for r in rows] == ["ok", "ok", "indeterminate", "ok"]
    for r in rows[:2]:
        assert float(r[1]) <= 1e-8 and abs(float(r[3]) - 0.5) <= 1e-8
    last = rows[3]
    assert float(last[2]) <= 1e-8 and abs(float(last[3]) - 0.25) <= 1e-8


def test_verify_passes_on_u4(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[-1] == "18/18 checks passed"
    assert len(lines) == 19
    assert all(ln.startswith("PASS ") for ln in lines[:-1])


def test_verify_golden_report(capsys):
    assert main(["verify", "--source", "builtin:u4", "--rate", "1"]) == 0
    assert capsys.readouterr().out == VERIFY_U4_GOLDEN


def test_verify_skips_dichotomy_at_lossless_rate(capsys):
    # K = n: the copy-Xd decoder is the resampler, so the dichotomy has no
    # second branch to test.
    assert main(["verify", "--source", "builtin:u2", "--rate", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1] == "16/16 checks passed, 2 skipped"
    assert any(ln.startswith("SKIP conditioning_dichotomy:") for ln in lines)


def test_verify_fails_at_absurd_tolerance(capsys):
    rc = main(["verify", "--source", "builtin:gauss33", "--tol", "1e-300"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "skipped" in out.strip().split("\n")[-1]


def test_lloyd_method_from_cli(capsys):
    assert main(["mmse", "--method", "lloyd", "--seed", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["assignment"] == [0, 0, 1, 1]
    assert payload["gd"] == [[0.5], [2.5]]


def test_usage_errors_exit_2(capsys, tmp_path):
    huge = _json_source(tmp_path / "huge.json", [[1e155], [2e155], [3e155], [4e155]])
    cases = [
        ["sweep", "--no-such-flag"],
        ["frobnicate"],
        [],
        ["sweep", "--rate", "-1"],
        ["sweep", "--rate", "x"],
        ["sweep", "--seed", "-5"],
        ["sweep", "--tol", "0"],
        ["sweep", "--alphas", "1:0:0.1"],
        # a grid past MAX_ALPHA_POINTS is refused before any LP or allocation
        ["sweep", "--source", "builtin:u4", "--alphas", "0:1:1e-6"],
        ["sweep", "--source", "builtin:u4", "--alphas", "0:1:1e-15"],
        ["theorem2", "--lambdas", "2,1"],
        ["mmse", "--source", "builtin:nope"],
        ["mmse", "--source", str(tmp_path / "missing.json")],
        ["oracle", "--perception", "-0.1"],
        ["oracle", "--perception", "nan"],
        ["oracle", "--perception", "inf"],
        ["sweep", "--out", str(tmp_path / "no_dir" / "x.csv")],
        # squared coordinates overflow: no encoder has a finite MSE, whether
        # all K^n assignments or only interval partitions are searched, or
        # Lloyd iterations rank the points
        ["mmse", "--source", huge],
        ["mmse", "--source", _json_source(tmp_path / "huge30.json",
                                          [[(i + 1) * 1e155] for i in range(30)])],
        ["mmse", "--method", "lloyd", "--rate", "1", "--source", huge],
        ["sweep", "--method", "lloyd", "--source", huge],
        ["mmse", "--source", _grid_source(tmp_path / "null_mean.json", mean=None)],
        ["mmse", "--source", _grid_source(tmp_path / "list_n.json", n=[9])],
        ["mmse", "--source", _grid_source(tmp_path / "huge_n.json", n=1e15)],
        # numeric fields must be JSON numbers, and n integral
        ["mmse", "--source", _grid_source(tmp_path / "frac_n.json", n=9.7)],
        ["mmse", "--source", _grid_source(tmp_path / "bool_n.json", n=True)],
        ["mmse", "--source", _grid_source(tmp_path / "str_n.json", n="9")],
        ["mmse", "--source", _grid_source(tmp_path / "str_mean.json", mean="0")],
        ["mmse", "--source", _grid_source(tmp_path / "bool_mean.json", mean=True)],
        ["mmse", "--source", _json_source(tmp_path / "str_pts.json", [["1"], ["2"]])],
        ["mmse", "--source", _json_source(tmp_path / "bool_pts.json", [[True], [False]])],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()


def test_mmse_near_duplicate_points_fill_every_cell(capsys, tmp_path):
    # ex2 − Σ explained cancels at 1e-17 scale; an empty-cell assignment must
    # not win on rounding.
    src = _json_source(tmp_path / "near.json", [[0.0], [1e-17], [1.0], [2.0]])
    assert main(["mmse", "--source", src, "--rate", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload["assignment"]) == [0, 1, 2, 3]


def test_rate_zero_on_more_than_64_points(capsys, tmp_path):
    # K = 1 passes the enumeration cap at any n (K^n = 1); the search must not
    # build an n-dimensional index
    spec = tmp_path / "grid600.json"
    spec.write_text(json.dumps({"kind": "gaussian-grid", "mean": 0.0, "std": 1.0,
                                "n": 600, "halfwidth": 4.0}))
    assert main(["mmse", "--source", str(spec), "--rate", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["assignment"] == [0] * 600
    # above the cap the 1-D search is polynomial in n, and the transport size
    # cap refuses the LPs at once instead of after a long solve
    assert main(["mmse", "--source", str(spec), "--rate", "2"]) == 0
    assignment = json.loads(capsys.readouterr().out)["assignment"]
    assert len(assignment) == 600 and sorted(assignment) == assignment
    assert set(assignment) == {0, 1, 2, 3}
    assert main(["oracle", "--source", str(spec), "--rate", "2", "--perception", "0.01"]) == 2
    assert "size cap exceeded" in capsys.readouterr().err
    assert main(["theorem2", "--source", str(spec), "--rate", "1"]) == 2
    assert "size cap exceeded" in capsys.readouterr().err


def test_perception_error_message(capsys):
    assert main(["oracle", "--perception", "-0.1"]) == 2
    assert "perception must be ≥ 0" in capsys.readouterr().err


def test_source_error_messages(capsys, tmp_path):
    main(["mmse", "--source", "builtin:nope"])
    assert "unknown builtin source" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    main(["mmse", "--source", str(bad)])
    assert "malformed source JSON" in capsys.readouterr().err


def test_parser_defaults():
    args = build_parser().parse_args(["sweep"])
    assert args.source == "builtin:u4"
    assert args.rate == 1 and args.method == "exhaustive"
    assert args.seed == 0 and args.tol is None
    assert args.format == "csv" and args.alphas == "0:1:0.05"


def test_installed_entry_point():
    # the console script when installed, else the same main() as a module; a
    # fresh process either way
    if shutil.which("dplab"):
        cmd, env = ["dplab"], None
    else:
        src = str(Path(dplab.__file__).resolve().parents[1])
        cmd = [sys.executable, "-m", "dplab.cli"]
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(cmd + ["sweep", "--alphas", "0:1:0.25"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert proc.stdout == SWEEP_GOLDEN
