import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import dplab
from dplab.augmented import solve_augmented
from dplab.cli import (
    build_parser,
    load_source,
    main,
    parse_alpha_range,
    parse_lambda_list,
)
from dplab.codec import exhaustive_optimal_encoder, perceptual_decoder_for
from dplab.distcore import builtin_source, make_distribution

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

MMSE_GAUSS33_GOLDEN = (
    "{\n"
    '  "K": 4,\n'
    '  "assignment": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3],\n'
    '  "gd": [\n'
    "    [-1.6324185094105257],\n"
    "    [-0.57770280749105551],\n"
    "    [0.34650278570028015],\n"
    "    [1.4312229558368534]\n"
    "  ]\n"
    "}\n"
)

# the plan certifying P: the coupling of the source (rows) with the oracle
# decoder's output law (columns)
ORACLE_PLAN_U4_GOLDEN = (
    "{\n"
    '  "perception": 0.0625,\n'
    '  "D_star": 0.3125,\n'
    '  "alpha": 0.5,\n'
    '  "D_predicted": 0.3125,\n'
    '  "D_d": 0.25,\n'
    '  "P_d": 0.25,\n'
    '  "out_support_size": 18,\n'
    '  "plan": {\n'
    '    "pi": [\n'
    "      [0.25, 0, 0, 0],\n"
    "      [0, 0.25, 0, 0],\n"
    "      [0, 0, 0.25, 0],\n"
    "      [0, 0, 0, 0.25]\n"
    "    ],\n"
    '    "cost": 0.0625,\n'
    '    "order": 2,\n'
    '    "row_points": [\n'
    "      [0],\n"
    "      [1],\n"
    "      [2],\n"
    "      [3]\n"
    "    ],\n"
    '    "row_probs": [0.25, 0.25, 0.25, 0.25],\n'
    '    "col_points": [\n'
    "      [0.25],\n"
    "      [0.75],\n"
    "      [2.25],\n"
    "      [2.75]\n"
    "    ],\n"
    '    "col_probs": [0.25, 0.25, 0.25, 0.25]\n'
    "  }\n"
    "}\n"
)

PERCEPTUAL_U4_GOLDEN = (
    "{\n"
    '  "K": 2,\n'
    '  "assignment": [0, 0, 1, 1],\n'
    '  "gp": {\n'
    '    "support": [\n'
    "      [0],\n"
    "      [1],\n"
    "      [2],\n"
    "      [3]\n"
    "    ],\n"
    '    "rows": [\n'
    "      [0.5, 0.5, 0, 0],\n"
    "      [0, 0, 0.5, 0.5]\n"
    "    ]\n"
    "  }\n"
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
                 "--perception", "0.05"]) == 0
    assert capsys.readouterr().out == ORACLE_GAUSS33_GOLDEN


def test_oracle_dump_plan_golden(capsys):
    assert main(["oracle", "--perception", "0.0625", "--dump-plan"]) == 0
    assert capsys.readouterr().out == ORACLE_PLAN_U4_GOLDEN


def test_oracle_dump_plan_sha256(capsys):
    # a 33 x 34 plan: the full JSON bytes, pinned by digest
    assert main(["oracle", "--source", "builtin:gauss33", "--rate", "2",
                 "--perception", "0.05", "--dump-plan"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6138b58e2e991792594a59053d02fb6d6f581929f366289a19d6f283d96edad5")


def test_codec_artifacts_golden(capsys):
    assert main(["mmse", "--source", "builtin:gauss33", "--rate", "2"]) == 0
    assert capsys.readouterr().out == MMSE_GAUSS33_GOLDEN
    assert main(["perceptual", "--source", "builtin:u4", "--rate", "1"]) == 0
    assert capsys.readouterr().out == PERCEPTUAL_U4_GOLDEN


@pytest.mark.parametrize("argv, n, sha256", [
    (["mmse", "--method", "lloyd", "--rate", "6", "--seed", "3"], 512,
     "964559b01896f5700a46caa3904a7ad128cd9fed13e9db5300eeadbb9f2d1b65"),
    (["mmse", "--rate", "4"], 200,
     "07d792245844b818ba8e1f13030726f358d827d6e716d026f55b00fde96979b5"),
], ids=["lloyd-grid512-r6", "exhaustive-grid200-r4"])
def test_codec_stdout_sha256(capsys, tmp_path, argv, n, sha256):
    # Lloyd at K = 64 and the interval DP at K = 16: the full JSON bytes,
    # pinned by digest
    src = _grid_source(tmp_path / f"grid{n}.json", n=n)
    assert main([*argv, "--source", src]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("rate", [1, 2])
def test_theorem2_json_rows(capsys, rate):
    # the JSON rows carry the CSV artifact's fields: at rate 1 the golden,
    # at rate 2 the CSV of the same run; floats by value, flag a JSON string
    argv = ["theorem2", "--source", "builtin:gauss33", "--rate", str(rate)]
    if rate == 1:
        csv = THEOREM2_GAUSS33_GOLDEN
    else:
        assert main(argv) == 0
        csv = capsys.readouterr().out
    header, *lines = csv.splitlines()
    columns = header.split(",")
    assert main(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == len(lines) == 7
    for row, line in zip(rows, lines):
        assert list(row) == columns
        *numbers, flag = line.split(",")
        assert [row[c] for c in columns[:-1]] == [float(v) for v in numbers]
        assert isinstance(row["flag"], str) and row["flag"] == flag == "ok"


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
    assert main(["oracle", "--perception", "0.0625"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["perception"] == 0.0625
    assert abs(payload["D_star"] - 0.3125) <= 1e-8
    assert payload["alpha"] == 0.5
    assert payload["D_predicted"] == 0.3125
    assert payload["D_d"] == 0.25
    assert abs(payload["P_d"] - 0.25) <= 1e-9
    assert payload["out_support_size"] == 18
    assert "plan" not in payload


@pytest.mark.parametrize("budget, d_star", [
    ("0", 5e-11), ("6.25e-12", 3.125e-11), ("2.5e-11", 2.5e-11), ("1e300", 2.5e-11),
], ids=["P0", "Pd-quarter", "Pd", "P1e300"])
def test_oracle_sees_a_perception_row_below_highs_resolution(capsys, tmp_path, budget, d_star):
    # u4 scaled by 1e-5: every entry of the perception row is at most 9e-10,
    # where HiGHS drops matrix entries (small_matrix_value 1e-9); exact values
    # are (1 + (1 - alpha)^2)·D_d with D_d = P_d = 2.5e-11, and a budget far
    # past P_d still scales to a finite one
    src = _json_source(tmp_path / "u4_tiny.json", [[0], [1e-5], [2e-5], [3e-5]])
    assert main(["oracle", "--source", src, "--rate", "1", "--perception", budget]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["D_star"] - d_star) <= 1e-12 * d_star
    assert abs(payload["D_d"] - 2.5e-11) <= 1e-12 * 2.5e-11


def test_oracle_dump_plan(capsys):
    assert main(["oracle", "--perception", "0.0625", "--dump-plan"]) == 0
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
        # K = 2^rate must fit the int64 code indices
        ["mmse", "--rate", "14000"],
        ["mmse", "--rate", "1000000"],
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
        ["oracle", "--perception", "0.1", "--format", "csv"],
        ["verify", "--method", "lloyd"],
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
        # a point with no coordinates is not a point in R^d
        ["mmse", "--rate", "0", "--source", _json_source(tmp_path / "r0.json", [[]])],
        ["sweep", "--rate", "0", "--source", str(tmp_path / "r0.json")],
        ["verify", "--rate", "0", "--source", str(tmp_path / "r0.json")],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        capsys.readouterr()


@pytest.mark.parametrize("argv, err", [
    # a bad source or flag is refused before the codec is built (K > n)
    (["sweep", "--alphas", "0:2:0.5", "--rate", "5"], "alpha out of range [0, 1]"),
    (["theorem2", "--lambdas", "2,1", "--source", "builtin:nope"],
     "unknown builtin source 'nope' (have: u2, u4, gauss33)"),
    (["oracle", "--perception", "nan", "--rate", "9"], "perception must be finite"),
    (["theorem2", "--lambdas", "2,1", "--rate", "9"], "lambda grid must be sorted ascending"),
    (["sweep", "--alphas", "nan:1:0.1", "--rate", "9"], "alpha range must be finite"),
], ids=["sweep-alphas", "theorem2-source", "oracle-budget", "theorem2-lambdas",
        "sweep-alphas-nan"])
def test_first_error_wins(capsys, argv, err):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("flag, err", [
    ("--seed", "argument --seed: seed must be an integer"),
    ("--tol", "argument --tol: tol must be a number"),
])
def test_non_numeric_seed_and_tol(capsys, flag, err):
    assert main(["sweep", flag, "abc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip("\n").split("\n")[-1].endswith(err)


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


@pytest.mark.parametrize("scale, argv, err", [
    (1e8, ["verify", "--rate", "1"],
     "LP constraint matrix entry 3.38e+16 reaches HiGHS large_matrix_value 1e+15"),
    (1e8, ["oracle", "--rate", "1", "--perception", "1e15"],
     "LP constraint matrix entry 3.38e+16 reaches HiGHS large_matrix_value 1e+15"),
    (1e10, ["sweep", "--rate", "1", "--alphas", "0:1:0.5"],
     "LP cost 2.25e+20 reaches HiGHS infinite_cost 1e+20"),
    (1e11, ["sweep", "--rate", "1", "--alphas", "0:1:0.5"],
     "LP cost 2.25e+22 reaches HiGHS infinite_cost 1e+20"),
], ids=["verify-1e8", "oracle-1e8", "sweep-1e10", "sweep-1e11"])
def test_highs_numeric_limits_named(capsys, tmp_path, scale, argv, err):
    # the perception row's squared distances or the transport costs reach a
    # HiGHS limit: a one-line error naming it, not "infeasible" or an unknown
    # HiGHS status
    points = np.random.default_rng(0).normal(size=(8, 1)) * scale
    src = _json_source(tmp_path / "wide.json", points.tolist())
    assert main(argv + ["--source", src]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


@pytest.mark.parametrize("rate", ["14000", "1000000"])
def test_rate_above_62_message(capsys, rate):
    # argparse prints its usage line first; the error must name the bound, not
    # a K with thousands of digits or Python's int-to-str digit limit
    assert main(["mmse", "--rate", rate]) == 2
    assert "rate must be ≤ 62" in capsys.readouterr().err


# D_d ≈ 1e-58 and masses down to 7e-49: below what the LPs can resolve
FLAT_SOURCE = {
    "points": [[7.701003116608736e-13, -1.639743927473182e-13],
               [7.701003116608744e-13, -1.6397439274731838e-13],
               [-1.0497298581965886e-12, -1.619902676466445e-12],
               [-7.810775372671155e-14, 1.0766378175254604e-13],
               [-1.2551643220875788e-13, 6.125551576693115e-13],
               [-1.9776704938669993e-12, 5.594844877840935e-13]],
    "probs": [0.02335861653118443, 6.1116469338897e-08, 2.1411157476106878e-15,
              0.559606706850548, 7.266667144097955e-49, 0.4170346155017961]}


def test_verify_flat_distortion_steps_fail_without_traceback(capsys, tmp_path):
    # the LPs cannot resolve this source (D_d ≈ 1e-58, measured P_d ≈ 3e-24),
    # so D(α) repeats between sweep points and a finite difference has
    # ΔD = 0: derivative_consistency must FAIL and count those steps
    src = tmp_path / "flat.json"
    src.write_text(json.dumps(FLAT_SOURCE))
    assert main(["verify", "--source", str(src), "--rate", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    line = next(ln for ln in captured.out.split("\n")
                if ln.startswith("FAIL derivative_consistency:"))
    assert re.search(r"; ΔD = 0 at [1-9]\d* of 99 steps$", line), line


def test_augmented_rows_stay_pmfs_on_unresolved_mass(capsys, tmp_path):
    # a gd value may get no mass from the transport plan on this source; its
    # decoder row must still be a pmf, with no 0/0, and verify must still
    # reach the ΔD = 0 FAIL line
    source = make_distribution(FLAT_SOURCE["points"], FLAT_SOURCE["probs"])
    enc, gd, _ = exhaustive_optimal_encoder(source, 4)
    src = tmp_path / "flat.json"
    src.write_text(json.dumps(FLAT_SOURCE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lam in (0.0, 0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0):
            table = solve_augmented(source, enc, gd, lam).decoder.table
            assert np.isfinite(table).all()
            assert np.allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-12), lam
        assert main(["verify", "--source", str(src), "--rate", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert re.search(r"^FAIL derivative_consistency: .*; ΔD = 0 at [1-9]\d* of 99 steps$",
                     captured.out, re.M), captured.out


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
    # json.loads recurses once per level; the depth must not escape as a
    # RecursionError traceback, nor bytes that are not UTF-8 unnamed
    deep = tmp_path / "deep.json"
    deep.write_text('{"points": ' + "[" * 1000 + "]" * 1000 + ', "probs": [1.0]}')
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"points": [[0.0]], "probs": [1.0], "name": "\xff"}')
    for path, err in [(deep, f"malformed source JSON in {str(deep)!r}: nesting too deep"),
                      (latin, f"cannot read source file {str(latin)!r}: not UTF-8 text")]:
        assert main(["mmse", "--source", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {err}\n"


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
