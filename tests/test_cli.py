"""Command-line interface: manifests, exit codes, determinism, file export."""

import contextlib
import copy
import csv
import datetime
import io
import json
import types

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from failprob import __version__, cli, smc
from failprob.bench import CASES
from failprob.cli import _run_to_manifest, main
from failprob.expr import ExprError, compile_limit_state


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


FOUR_BRANCH_EXPR = (
    "min(3 + 0.1*(x1-x2)^2 - (x1+x2)/sqrt(2),"
    " 3 + 0.1*(x1-x2)^2 + (x1+x2)/sqrt(2),"
    " (x1-x2) + 6/sqrt(2), (x2-x1) + 6/sqrt(2))"
)


class TestExpressionLanguage:
    def test_four_branch_expression_matches_builtin(self):
        from failprob.bench import _four_branch_f

        fn = compile_limit_state(FOUR_BRANCH_EXPR, 2)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((500, 2))
        np.testing.assert_allclose(fn(X), _four_branch_f(X), atol=1e-12)

    def test_supported_functions(self):
        fn = compile_limit_state("abs(sin(x1)) + exp(-x2) + log(x2) + max(x1, x2, 1.0)", 2)
        X = np.array([[0.5, 2.0]])
        want = abs(np.sin(0.5)) + np.exp(-2.0) + np.log(2.0) + 2.0
        assert fn(X)[0] == pytest.approx(want, rel=1e-12)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ExprError):
            compile_limit_state("x3 + 1", 2)

    def test_dangerous_syntax_rejected(self):
        for bad in ("__import__('os')", "x1.real", "lambda: 0", "[1,2]", "x1 if 1 else 0",
                    "True * x1"):
            with pytest.raises(ExprError):
                compile_limit_state(bad, 1)

    def test_constant_broadcasts(self):
        fn = compile_limit_state("3.5", 2)
        np.testing.assert_array_equal(fn(np.zeros((4, 2))), np.full(4, 3.5))


class TestEstimateCommand:
    def test_manifest_contract(self, capsys):
        code, out, _ = _run(capsys, [
            "estimate", "--method", "bss", "--problem", "four-branch",
            "--m", "500", "--seed", "42",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        res = doc["result"]
        for key in ("alpha_hat", "delta_hat", "n_total", "stages"):
            assert key in res
        assert res["alpha_hat"] > 0
        assert len(res["stages"]) >= 1

    def test_byte_identical_except_timestamps(self, capsys):
        argv = ["estimate", "--method", "ss", "--problem", "cantilever",
                "--m", "500", "--seed", "7"]
        _, out1, _ = _run(capsys, argv)
        _, out2, _ = _run(capsys, argv)
        d1, d2 = json.loads(out1), json.loads(out2)
        d1.pop("timestamps")
        d2.pop("timestamps")
        assert json.dumps(d1) == json.dumps(d2)

    def test_numeric_round_trip(self, capsys):
        _, out, _ = _run(capsys, [
            "estimate", "--method", "bss", "--problem", "cantilever",
            "--m", "400", "--seed", "3",
        ])
        doc = json.loads(out)
        # shortest-repr floats survive a parse/serialize cycle unchanged
        assert json.loads(json.dumps(doc)) == doc

    def test_p0_validation_exit_2(self, capsys):
        code, _, err = _run(capsys, [
            "estimate", "--method", "bss", "--problem", "four-branch",
            "--m", "100", "--p0", "1.5", "--seed", "1",
        ])
        assert code == 2
        assert "p0" in err

    def test_unknown_flag_exit_2(self, capsys):
        code, _, _ = _run(capsys, ["estimate", "--nope", "1"])
        assert code == 2

    def test_missing_required_flags_exit_2(self, capsys):
        code, _, err = _run(capsys, ["estimate", "--method", "mc", "--seed", "1"])
        assert code == 2 and "required" in err

    def test_unknown_problem_exit_2(self, capsys):
        code, _, _ = _run(capsys, [
            "estimate", "--method", "mc", "--problem", "unknown", "--m", "10", "--seed", "0",
        ])
        assert code == 2

    def test_custom_problem_file(self, capsys, tmp_path):
        spec = {
            "marginals": [{"normal": {"mean": 0.0, "sd": 1.0}}] * 2,
            "threshold": -4.0,
            "direction": "below",
            "limit_state": FOUR_BRANCH_EXPR,
        }
        path = tmp_path / "fb.json"
        path.write_text(json.dumps(spec))
        code, out, _ = _run(capsys, [
            "estimate", "--method", "ss", "--problem", f"file:{path}",
            "--m", "2000", "--seed", "5",
        ])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["alpha_hat"] == pytest.approx(5.596e-9, rel=3.0)

    def test_zero_sd_exit_2(self, capsys, tmp_path):
        spec = {
            "marginals": [{"normal": {"mean": 0.0, "sd": 1.0}}, {"normal": {"mean": 0.0, "sd": 0}}],
            "threshold": 2.0,
            "limit_state": "x1 + x2",
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        code, out, err = _run(capsys, [
            "estimate", "--method", "mc", "--problem", f"file:{path}", "--m", "10", "--seed", "0",
        ])
        assert code == 2 and out == ""
        assert "config error: marginals[1].normal.sd must be a finite number > 0, not 0" in err

    def test_non_string_direction_exit_2(self, capsys, tmp_path):
        spec = {
            "marginals": [{"normal": {"mean": 0.0, "sd": 1.0}}],
            "threshold": 2.0,
            "limit_state": "x1",
            "direction": 5,
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        code, out, err = _run(capsys, [
            "estimate", "--method", "mc", "--problem", f"file:{path}", "--m", "10", "--seed", "0",
        ])
        assert code == 2 and out == ""
        assert "config error: direction must be 'above' or 'below', in any case, not 5" in err

    @pytest.mark.parametrize("limit_state", [5, None])
    def test_non_string_limit_state_exit_2(self, capsys, tmp_path, limit_state):
        spec = {
            "marginals": [{"normal": {"mean": 0.0, "sd": 1.0}}],
            "threshold": 2.0,
            "limit_state": limit_state,
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        code, out, err = _run(capsys, [
            "estimate", "--method", "mc", "--problem", f"file:{path}", "--m", "10", "--seed", "0",
        ])
        assert code == 2 and out == ""
        assert f"config error: limit_state must be an expression string, not {limit_state!r}" in err

    def test_bad_expression_exit_2(self, capsys, tmp_path):
        spec = {
            "marginals": [{"normal": {"mean": 0.0, "sd": 1.0}}],
            "threshold": 0.0,
            "limit_state": "__import__('os')",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, _, err = _run(capsys, [
            "estimate", "--method", "mc", "--problem", f"file:{path}",
            "--m", "10", "--seed", "0",
        ])
        assert code == 2
        assert "config error: limit_state: only min, max, abs" in err

    @pytest.mark.parametrize("expression", [
        "+".join(["x1"] * 1500),  # too deep for the compiler
        "+".join(["x1"] * 3001),  # too deep for the parser
        "-" * 100_000 + "x1",  # the parser runs out of memory
    ], ids=["sum-of-1500", "sum-of-3001", "100000-minus-signs"])
    def test_deep_expression_exit_2(self, capsys, tmp_path, expression):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"marginals": [{"normal": {"mean": 0.0, "sd": 1.0}}],
                                    "threshold": 0.0, "limit_state": expression}))
        code, out, err = _run(capsys, [
            "estimate", "--method", "mc", "--problem", f"file:{path}", "--m", "10", "--seed", "0",
        ])
        assert code == 2 and out == ""
        assert "config error: limit_state: expression is nested too deeply to compile" in err

    def test_expression_error_names_the_manifest_key(self, capsys, tmp_path):
        spec = {"marginals": [{"normal": {"mean": 0.0, "sd": 1.0}}], "threshold": 0.0,
                "limit_state": "x1"}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        manifest = tmp_path / "m.json"
        assert main(["estimate", "--method", "mc", "--problem", f"file:{path}", "--m", "10",
                     "--seed", "0", "--out", str(manifest)]) == 0
        capsys.readouterr()
        doc = json.loads(manifest.read_text())
        doc["problem"]["custom"]["limit_state"] = "x2"
        manifest.write_text(json.dumps(doc))
        code, out, err = _run(capsys, ["estimate", "--replay", str(manifest)])
        assert code == 2 and out == ""
        assert ("config error: problem.custom.limit_state: unknown variable 'x2' (expected x1..x1)"
                in err)

    def test_out_and_trace_files(self, capsys, tmp_path):
        out_path = tmp_path / "manifest.json"
        trace_path = tmp_path / "trace.csv"
        code, out, _ = _run(capsys, [
            "estimate", "--method", "bss", "--problem", "cantilever",
            "--m", "400", "--seed", "2",
            "--out", str(out_path), "--trace", str(trace_path),
        ])
        assert code == 0
        assert json.loads(out_path.read_text())["result"]["alpha_hat"] > 0
        lines = trace_path.read_text().strip().splitlines()
        assert lines[0] == "n,x1,x2,criterion,u_t,stage"
        assert len(lines) > 1

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unwritable_output_path_exit_2_before_the_run(self, capsys, tmp_path, flag):
        # a directory, and a file in a directory that does not exist
        for path, message in ((tmp_path, f"{tmp_path} is a directory"),
                              (tmp_path / "no" / "f", f"directory {tmp_path / 'no'} does not exist")):
            code, out, err = _run(capsys, [
                "estimate", "--method", "bss", "--problem", "cantilever",
                "--m", "400", "--seed", "2", flag, str(path),
            ])
            assert code == 2 and out == ""  # no manifest: the run did not start
            assert f"config error: {flag}: {message}" in err

    @pytest.mark.parametrize("method", ["mc", "ss"])
    def test_trace_without_bss_exit_2_before_the_run(self, capsys, tmp_path, method):
        trace_path = tmp_path / "trace.csv"
        code, out, err = _run(capsys, [
            "estimate", "--method", method, "--problem", "four-branch",
            "--m", "1000", "--seed", "2", "--trace", str(trace_path),
        ])
        assert code == 2 and out == ""  # no manifest: the run did not start
        assert f"config error: --trace: only bss records a SUR trace, not {method}" in err
        assert not trace_path.exists()

    def test_replay_reproduces(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        _run(capsys, [
            "estimate", "--method", "bss", "--problem", "cantilever",
            "--m", "400", "--seed", "11", "--out", str(out_path),
        ])
        code, _, err = _run(capsys, ["estimate", "--replay", str(out_path)])
        assert code == 0
        assert "replay ok" in err

    def test_host_records_draw_ahead_replay_ignores_it(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        _run(capsys, [
            "estimate", "--method", "bss", "--problem", "cantilever",
            "--m", "400", "--seed", "11", "--out", str(out_path),
        ])
        doc = json.loads(out_path.read_text())
        assert set(doc["host"]) == {"platform", "python", "draw_ahead"}
        assert doc["host"]["draw_ahead"] is smc.DRAW_AHEAD
        doc["host"]["draw_ahead"] = not smc.DRAW_AHEAD  # results do not depend on it
        out_path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, ["estimate", "--replay", str(out_path)])
        assert code == 0
        assert "replay ok" in err

    def test_manifest_with_the_old_host_fields_replays(self, capsys, tmp_path):
        # manifests written before `draw_ahead` recorded a thread count
        out_path = tmp_path / "m.json"
        _run(capsys, ["estimate", "--method", "ss", "--problem", "cantilever",
                      "--m", "1000", "--seed", "5", "--out", str(out_path)])
        doc = json.loads(out_path.read_text())
        doc["host"] = {"platform": doc["host"]["platform"], "python": doc["host"]["python"],
                       "kernel_threads": 2}
        out_path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, ["estimate", "--replay", str(out_path)])
        assert code == 0
        assert "replay ok" in err

    @pytest.mark.parametrize("extra", [
        ["--method", "ss"], ["--problem", "four-branch"], ["--m", "99"], ["--seed", "3"],
        ["--p0", "0.1"], ["--out", "OUT"], ["--trace", "OUT"],
    ])
    def test_replay_with_a_run_flag_exit_2(self, capsys, tmp_path, extra):
        manifest = tmp_path / "m.json"
        _run(capsys, ["estimate", "--method", "mc", "--problem", "cantilever",
                      "--m", "100", "--seed", "1", "--out", str(manifest)])
        extra = [str(tmp_path / "written") if v == "OUT" else v for v in extra]
        code, out, err = _run(capsys, ["estimate", "--replay", str(manifest), *extra])
        assert code == 2 and out == ""  # nothing ran
        assert f"remove {extra[0]}" in err
        assert not (tmp_path / "written").exists()

    def test_replay_names_every_run_flag_given(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["estimate", "--replay", str(tmp_path / "absent.json"),
                                     "--m", "5", "--out", str(tmp_path / "o.json")])
        assert code == 2 and "remove --m, --out" in err

    def test_ss_manifest_records_move_evaluations(self, capsys):
        # each stage's move evaluations and per-sweep acceptance interval
        code, out, _ = _run(capsys, ["estimate", "--method", "ss", "--problem", "cantilever",
                                     "--m", "500", "--seed", "7"])
        res = json.loads(out)["result"]
        assert code == 0
        assert res["n_total"] == 500 + sum(s["n_evals"] for s in res["stages"])
        for stage in res["stages"][:-1]:
            assert len(stage["acceptance"]) == 10
            assert all(len(pair) == 2 and pair[0] <= pair[1] for pair in stage["acceptance"])

    def test_default_p0_is_recorded(self, capsys):
        code, out, _ = _run(capsys, ["estimate", "--method", "mc", "--problem", "cantilever",
                                     "--m", "100", "--seed", "1"])
        assert code == 0 and json.loads(out)["config"]["p0"] == 0.1

    def test_replay_manifest_without_problem_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"schema": 1, "command": "estimate"}))
        code, out, err = _run(capsys, ["estimate", "--replay", str(path)])
        assert code == 2
        assert "config error" in err and "'problem'" in err
        assert out == ""

    def test_replay_manifest_not_an_object_exit_2(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps([{"schema": 1, "command": "estimate"}]))
        code, out, err = _run(capsys, ["estimate", "--replay", str(path)])
        assert code == 2
        assert "config error" in err and "JSON object" in err and "list" in err
        assert out == ""

    @pytest.mark.parametrize("path, value, key", [
        (("problem", "case"), 5, "problem.case"),
        (("config", "m"), "abc", "config.m"),
        (("problem",), {"custom": [1, 2]}, "problem.custom"),
        (("method",), ["bss"], "method"),
        (("config", "m"), True, "config.m"),
        (("config", "p0"), "0.1", "config.p0"),
        (("seed",), 1.5, "seed"),
        (("config",), [400, 0.1], "config"),
    ], ids=["case-int", "m-str", "custom-list", "method-list", "m-bool", "p0-str", "seed-float",
            "config-list"])
    def test_replay_wrongly_typed_value_exit_2(self, capsys, tmp_path, path, value, key):
        doc = {"schema": 1, "command": "estimate", "method": "bss",
               "problem": {"case": "cantilever"}, "config": {"m": 400, "p0": 0.1},
               "seed": 11, "result": {"alpha_hat": 1e-3}}
        *parents, last = path
        target = doc
        for k in parents:
            target = target[k]
        target[last] = value
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps(doc))
        code, out, err = _run(capsys, ["estimate", "--replay", str(manifest)])
        assert code == 2
        assert f"config error: {key} must be" in err
        assert out == ""

    @pytest.mark.parametrize("method,m,message", [("ss", "5", "need 1 <= m0 < m"),
                                                  ("bss", "1", "m must be >= 2")])
    def test_rejected_estimator_config_exit_2(self, capsys, method, m, message):
        code, out, err = _run(capsys, [
            "estimate", "--method", method, "--problem", "cantilever", "--m", m, "--seed", "1",
        ])
        assert code == 2
        assert f"config error: {message}" in err and out == ""

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("method,message", [("bss", "limit state returned nan at x = ")])
    def test_error_raised_mid_run_exit_3(self, capsys, tmp_path, method, message):
        # log(x1) is NaN for half the inputs: the run starts and then fails
        spec = {
            "marginals": [{"normal": {"mean": 0.0, "sd": 1.0}}] * 2,
            "threshold": 2.0,
            "limit_state": "log(x1) + x2",
        }
        path = tmp_path / "log.json"
        path.write_text(json.dumps(spec))
        code, _, err = _run(capsys, [
            "estimate", "--method", method, "--problem", f"file:{path}",
            "--m", "1000", "--seed", "1",
        ])
        assert code == 3
        assert f"estimator error: {message}" in err

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("limit_state, threshold, code, error", [
        ("log(x1) + x2", 2.0, 0, None),  # NaN for half the inputs: in no level
        ("0 * x1 + 0", 1.0, 3, "no particle lies above the level u_t = 0.0"),
    ], ids=["nan-for-half-the-inputs", "constant-below-u"])
    def test_ss_nan_values_rank_below_every_level(self, capsys, tmp_path, limit_state,
                                                  threshold, code, error):
        # a level that keeps no particle ends the run with its error recorded
        spec = {"marginals": [{"normal": {"mean": 0.0, "sd": 1.0}}] * 2,
                "threshold": threshold, "limit_state": limit_state}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(spec))
        got, out, _ = _run(capsys, [
            "estimate", "--method", "ss", "--problem", f"file:{path}", "--m", "1000", "--seed", "1",
        ])
        result = json.loads(out)["result"]
        assert (got, result["error"]) == (code, error)
        assert (result["alpha_hat"] > 0.0) == (error is None)

    @pytest.mark.usefixtures("setulb_of_another_scipy")
    def test_setulb_of_another_scipy_exit_3(self, capsys):
        # the first ReML fit meets a scipy whose L-BFGS-B routine takes other
        # arguments: the run stops and the message names the scipy version
        code, _, err = _run(capsys, [
            "estimate", "--method", "bss", "--problem", "four-branch",
            "--m", "100", "--seed", "0",
        ])
        assert code == 3
        assert f"estimator error: scipy {scipy.__version__}: " in err
        assert "scipy >= 1.15" in err

    def test_problem_file_not_utf8_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe")
        code, _, err = _run(capsys, [
            "estimate", "--method", "mc", "--problem", f"file:{path}", "--m", "10", "--seed", "0",
        ])
        assert code == 2 and "not UTF-8" in err

    def test_directory_as_input_file_exit_2(self, capsys, tmp_path):
        for argv, flag in (
                (["--method", "mc", "--problem", f"file:{tmp_path}", "--m", "10", "--seed", "0"],
                 "--problem"),
                (["--replay", str(tmp_path)], "--replay")):
            code, out, err = _run(capsys, ["estimate", *argv])
            assert code == 2 and out == ""
            assert f"config error: {flag}: {tmp_path} is not a file" in err

    @pytest.mark.parametrize("method,m", [("mc", 1000), ("ss", 500), ("bss", 400)])
    def test_manifest_is_plain_json(self, method, m):
        # a numpy scalar in a result would make json.dumps raise here
        manifest, _ = _run_to_manifest(method, CASES["cantilever"]().problem,
                                       {"case": "cantilever"}, m, 0.1, 1)
        json.dumps(manifest)

    @pytest.mark.parametrize("method", ["mc", "bss"])
    def test_timestamps_span_the_run_alone(self, monkeypatch, method):
        # the estimator is configured, and for bss its modules imported,
        # before the start timestamp is taken
        events = []
        configure = cli._estimator

        def recorded_configure(*args):
            events.append("configure")
            estimate = configure(*args)

            def run(problem, seed):
                events.append("run")
                return estimate(problem, seed=seed)

            return run

        class Clock(datetime.datetime):
            @classmethod
            def now(cls, tz=None):
                events.append("clock")
                return datetime.datetime.now(tz)

        monkeypatch.setattr(cli, "_estimator", recorded_configure)
        monkeypatch.setattr(cli, "datetime",
                            types.SimpleNamespace(datetime=Clock, timezone=datetime.timezone))
        manifest, result = _run_to_manifest(method, CASES["cantilever"]().problem,
                                            {"case": "cantilever"}, 300, 0.1, 1)
        assert events == ["configure", "clock", "run", "clock"]
        assert result.error is None
        assert manifest["timestamps"]["start"] <= manifest["timestamps"]["end"]

    def test_negative_seed_exit_2(self, capsys):
        code, _, err = _run(capsys, [
            "estimate", "--method", "mc", "--problem", "cantilever", "--m", "10", "--seed", "-1",
        ])
        assert code == 2 and "seed must be an integer >= 0" in err


class TestBenchmarkCommand:
    def test_row_count_contract(self, capsys, tmp_path):
        code, out, _ = _run(capsys, [
            "benchmark", "--case", "cantilever", "--methods", "bss",
            "--m-list", "300,500", "--runs", "2", "--seed", "1",
            "--out-dir", str(tmp_path / "b"),
        ])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + 2 rows
        assert (tmp_path / "b" / "rmse.csv").exists()
        assert (tmp_path / "b" / "runs.csv").exists()
        # runs.csv is the one per-run record
        assert not (tmp_path / "b" / "manifests").exists()

    def test_method_without_usable_runs_keeps_its_row(self, capsys, tmp_path):
        # plain Monte Carlo at m = 300 sees no failure of a 3.9e-6 event: both
        # runs are degenerate, and the summary says so instead of dropping mc
        code, out, _ = _run(capsys, [
            "benchmark", "--case", "cantilever", "--methods", "mc,ss",
            "--m-list", "300", "--runs", "2", "--out-dir", str(tmp_path / "b"),
        ])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["method"] for r in rows] == ["mc", "ss"]
        mc, ss = rows
        assert (mc["runs"], mc["failures"]) == ("0", "2")
        assert mc["mean_est"] == mc["rel_rmse"] == mc["wall_ms_median"] == ""
        assert int(ss["runs"]) + int(ss["failures"]) == 2
        runs = list(csv.DictReader(io.StringIO((tmp_path / "b" / "runs.csv").read_text())))
        assert [r["error"] for r in runs if r["method"] == "mc"] == ["degenerate"] * 2

    def test_jobs_determinism(self, capsys, tmp_path):
        argv = lambda d, j: [
            "benchmark", "--case", "cantilever", "--methods", "mc",
            "--m-list", "5000", "--runs", "4", "--seed", "3",
            "--out-dir", str(tmp_path / d), "--jobs", str(j),
        ]
        code1, out1, _ = _run(capsys, argv("a", 1))
        code2, out2, _ = _run(capsys, argv("b", 2))
        assert code1 == code2 == 0
        # identical statistics; the trailing wall-clock column may differ
        strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
        assert strip(out1) == strip(out2)

    @pytest.mark.parametrize("flag,value,repeated", [("--m-list", "1000,500,1000", "1000"),
                                                     ("--methods", "mc,ss,mc", "mc")])
    def test_repeated_value_exit_2(self, capsys, tmp_path, flag, value, repeated):
        argv = {"--methods": "mc", "--m-list": "1000", flag: value}
        code, out, err = _run(capsys, [
            "benchmark", "--case", "cantilever", "--runs", "3", "--out-dir", str(tmp_path / "r"),
            *(item for pair in argv.items() for item in pair),
        ])
        assert code == 2 and out == ""
        assert f"config error: {flag} repeats {repeated}" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("methods", ["", ","], ids=["empty", "comma"])
    def test_empty_method_list_exit_2(self, capsys, tmp_path, methods):
        code, out, err = _run(capsys, [
            "benchmark", "--case", "cantilever", "--methods", methods,
            "--m-list", "1000", "--runs", "2", "--out-dir", str(tmp_path / "e"),
        ])
        assert code == 2 and out == ""
        assert "config error: --methods must name at least one of mc, ss, bss" in err
        assert not (tmp_path / "e").exists()

    def test_missing_case_exit_2(self, capsys):
        code, _, _ = _run(capsys, ["benchmark", "--methods", "bss"])
        assert code == 2

    def test_jobs_below_one_exit_2(self, capsys, tmp_path):
        code, _, err = _run(capsys, [
            "benchmark", "--case", "cantilever", "--methods", "mc",
            "--m-list", "1000", "--runs", "2", "--out-dir", str(tmp_path / "c"),
            "--jobs", "0",
        ])
        assert code == 2
        assert "--jobs" in err
        assert not (tmp_path / "c").exists()

    def test_replay_case_naming_a_file_exit_2(self, capsys, tmp_path):
        # problem.case names a benchmark case; a custom problem is recorded
        # under problem.custom, so a "file:" case is not read as a path
        spec = {"marginals": [{"normal": {"mean": 0.0, "sd": 1.0}}], "threshold": 3.0,
                "limit_state": "x1"}
        problem = tmp_path / "p.json"
        problem.write_text(json.dumps(spec))
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({
            "schema": 1, "command": "estimate", "method": "mc",
            "problem": {"case": f"file:{problem}"}, "config": {"m": 100, "p0": 0.1},
            "seed": 0, "result": {"alpha_hat": 0.0}}))
        code, out, err = _run(capsys, ["estimate", "--replay", str(manifest)])
        assert code == 2 and out == ""
        assert ("config error: problem.case must be one of four-branch, cantilever, oscillator"
                in err)
        assert f"not 'file:{problem}'" in err

    def test_replay_rejects_benchmark_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "benchmark.json"
        manifest.write_text(json.dumps({
            "schema": 1, "tool": "failprob", "command": "benchmark", "case": "cantilever",
            "method": "mc", "seed": 0, "m": 1000, "run": 0, "alpha_hat": 0.0,
        }))
        code, _, err = _run(capsys, ["estimate", "--replay", str(manifest)])
        assert code == 2
        assert "failprob estimate" in err and "'benchmark'" in err

    def test_out_dir_is_a_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "f"
        path.write_text("")
        code, out, err = _run(capsys, [
            "benchmark", "--case", "cantilever", "--methods", "mc",
            "--m-list", "1000", "--runs", "2", "--out-dir", str(path),
        ])
        assert code == 2 and out == ""
        assert f"config error: --out-dir: cannot make directory {path}" in err


def _main_quietly(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _key_path(path):
    """A key path as the error messages write it: marginals[0].normal.sd."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def _names(err, path):
    """Whether a configuration error message names the key at `path`."""
    return f"{_key_path(path)!r}" in err or f"error: {_key_path(path)} must be" in err


def _walk(doc, path=()):
    """(path, value) of `doc` and of everything inside it, at any depth."""
    yield path, doc
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _walk(value, path + (key,))


def _json_type(value):
    return "number" if type(value) in (int, float) else type(value).__name__


_VALUES = [None, True, False, 0, 1, -1, 2.5, float("nan"), "", "x", "above", "mc", [], [1], {},
           {"a": 1}]
_NEW_KEYS = ["extra", "x", "", "Threshold", "normal ", "m"]


@st.composite
def _mutations(draw, doc):
    """One mutation of a JSON object `doc`: a key dropped, renamed or given a
    value of another JSON type, or a key added to an object, at any depth.
    Returns (kind, path, new document, path of the renamed or added key)."""
    nodes = list(_walk(doc))
    kind = draw(st.sampled_from(["drop", "rename", "retype", "add"]))
    if kind == "add":
        path = draw(st.sampled_from([p for p, v in nodes if isinstance(v, dict)]))
    else:
        path = draw(st.sampled_from([p for p, _ in nodes if p and isinstance(p[-1], str)]))
    new = copy.deepcopy(doc)
    target = new  # the object that holds the key, or gets the new one
    for key in path if kind == "add" else path[:-1]:
        target = target[key]
    new_path = None
    if kind == "drop":
        del target[path[-1]]
    elif kind == "retype":
        old_type = _json_type(target[path[-1]])
        target[path[-1]] = draw(st.sampled_from([v for v in _VALUES if _json_type(v) != old_type]))
    else:
        name = draw(st.sampled_from([k for k in _NEW_KEYS if k not in target]))
        if kind == "rename":
            target[name] = target.pop(path[-1])
            new_path = path[:-1] + (name,)
        else:
            target[name] = draw(st.sampled_from(_VALUES))
            new_path = path + (name,)
    return kind, path, new, new_path


_SPEC = {
    "marginals": [{"normal": {"mean": 0, "sd": 1.0}}, {"normal": {"mean": 0.5, "sd": 2}}],
    "threshold": 1,
    "direction": "below",
    "limit_state": "x1 + 0.5*x2",
}


class TestDeclaredShapes:
    """Each JSON document is declared once and checked by one walker: an
    error exits 2 and names the key path; a valid document runs as before."""

    @pytest.mark.parametrize("change, message", [
        ({"threshold": True}, "threshold must be a finite number, not True"),
        ({"threshold": "3"}, "threshold must be a finite number, not '3'"),
        ({"threshold": float("nan")}, "threshold must be a finite number, not nan"),
        ({"direciton": "below"}, "unknown key 'direciton'"),
        ({"marginals": [{"normal": {"mean": 0.0, "sd": 1.0}, "uniform": {}}]},
         "unknown key 'marginals[0].uniform'"),
        ({"marginals": {"a": 1}}, "marginals must be a non-empty JSON array, not dict"),
        ({"marginals": []}, "marginals must be a non-empty JSON array, not []"),
        ({"marginals": [{"normal": {"mean": 0, "sd": 1}}, {"normal": {"mean": True, "sd": 1}}]},
         "marginals[1].normal.mean must be a finite number, not True"),
        ({"marginals": [{"normal": {"mean": 10 ** 400, "sd": 1}}]},
         "marginals[0].normal.mean must be a finite number"),
        ({"direction": "sideways"}, "direction must be 'above' or 'below', in any case"),
    ], ids=["threshold-bool", "threshold-str", "threshold-nan", "misspelled-key",
            "two-laws", "marginals-object", "marginals-empty", "mean-bool", "mean-too-big",
            "direction-value"])
    def test_problem_file_departure_exit_2(self, capsys, tmp_path, change, message):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**_SPEC, **change}))
        code, out, err = _run(capsys, ["estimate", "--method", "mc", "--problem", f"file:{path}",
                                       "--m", "10", "--seed", "0"])
        assert code == 2 and out == ""
        assert f"config error: {message}" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(confg=d.pop("config")), "missing key 'config'"),
        (lambda d: d["config"].update(extra=1), "unknown key 'config.extra'"),
        (lambda d: d.update(extra=1), "unknown key 'extra'"),
        (lambda d: d["problem"].update(custom=_SPEC),
         "problem must hold one key: 'problem.case' or 'problem.custom'"),
        (lambda d: d.update(problem={}),
         "problem must hold one key: 'problem.case' or 'problem.custom'"),
        (lambda d: d.update(problem={"custom": {**_SPEC, "threshold": True}}),
         "problem.custom.threshold must be a finite number, not True"),
        (lambda d: d.update(schema=True), "schema must be 1, not True"),
        (lambda d: d["result"].update(alpha_hat="0.0"), "result.alpha_hat must be a number"),
        (lambda d: d["result"].update(trace=[]), "unknown key 'result.trace'"),
        (lambda d: d.pop("result"), "missing key 'result'"),
        (lambda d: d["config"].update(p0=float("nan")), "config.p0 must be a number in (0, 1)"),
    ], ids=["config-renamed", "config-extra", "extra", "case-and-custom", "no-problem-key",
            "custom-threshold-bool", "schema-bool", "alpha-str", "result-trace", "no-result",
            "p0-nan"])
    def test_manifest_departure_exit_2(self, capsys, tmp_path, edit, message):
        manifest = tmp_path / "m.json"
        _run(capsys, ["estimate", "--method", "mc", "--problem", "cantilever", "--m", "100",
                      "--seed", "0", "--out", str(manifest)])
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        code, out, err = _run(capsys, ["estimate", "--replay", str(manifest)])
        assert code == 2 and out == ""
        assert f"config error: {message}" in err

    @pytest.mark.parametrize("flag, text, key", [
        ("--problem", '{"marginals": [{"normal": {"mean": 0, "sd": 1}}], "threshold": 3,'
                      ' "threshold": -50, "limit_state": "x1"}', "threshold"),
        ("--problem", '{"marginals": [{"normal": {"mean": 0, "sd": 1, "sd": 2}}], "threshold": 3,'
                      ' "limit_state": "x1"}', "sd"),
        ("--replay", '{"schema": 1, "command": "estimate", "method": "mc", "seed": 1, "seed": 2,'
                     ' "problem": {"case": "cantilever"}, "config": {"m": 100, "p0": 0.1},'
                     ' "result": {"alpha_hat": 0.0}}', "seed"),
        ("--replay", '{"schema": 1, "command": "estimate", "method": "mc", "seed": 1,'
                     ' "problem": {"case": "cantilever"}, "config": {"m": 100, "p0": 0.1},'
                     ' "host": {"python": "3", "python": "4"}, "result": {"alpha_hat": 0.0}}',
         "python"),
    ], ids=["problem-top", "problem-nested", "manifest-top", "manifest-program-written"])
    def test_repeated_key_exit_2(self, capsys, tmp_path, flag, text, key):
        path = tmp_path / "doc.json"
        path.write_text(text)
        argv = (["--replay", str(path)] if flag == "--replay" else
                ["--method", "mc", "--problem", f"file:{path}", "--m", "10", "--seed", "0"])
        code, out, err = _run(capsys, ["estimate", *argv])
        assert code == 2 and out == ""
        assert f"config error: repeated key {key!r}" in err

    def test_valid_problem_file_gives_the_same_manifest(self, capsys, tmp_path):
        # integer-valued mean, sd and threshold and an upper-case direction
        # stay valid, and are recorded as written; the expected manifest is
        # the one the hand-written checks produced, apart from timestamps and host
        path = tmp_path / "p.json"
        path.write_text('{"marginals": [{"normal": {"mean": 0, "sd": 1}}, {"normal": {"mean": 1,'
                        ' "sd": 2.5}}], "threshold": -3, "direction": "BELOW",'
                        ' "limit_state": "x1 - 0.5*x2"}')
        manifest = tmp_path / "m.json"
        code, out, _ = _run(capsys, ["estimate", "--method", "mc", "--problem", f"file:{path}",
                                     "--m", "2000", "--seed", "3", "--out", str(manifest)])
        assert code == 0
        doc = json.loads(out)
        assert set(doc["timestamps"]) == {"start", "end"}
        assert set(doc["host"]) == {"platform", "python", "draw_ahead"}
        doc["timestamps"] = doc["host"] = None
        assert json.dumps(doc, indent=2) == json.dumps({
            "schema": 1, "tool": "failprob", "version": __version__, "command": "estimate",
            "method": "mc",
            "problem": {"custom": {
                "marginals": [{"normal": {"mean": 0, "sd": 1}}, {"normal": {"mean": 1, "sd": 2.5}}],
                "threshold": -3, "direction": "BELOW", "limit_state": "x1 - 0.5*x2"}},
            "config": {"m": 2000, "p0": 0.1}, "seed": 3, "timestamps": None, "host": None,
            "result": {"method": "mc", "alpha_hat": 0.056, "delta_hat": 0.09180725150319788,
                       "std_err": 0.005141206084179081, "n_total": 2000, "n_reported": 2000.0,
                       "n_initial": 2000, "n_intermediate": 0, "n_final": 0, "degenerate": False,
                       "error": None, "underflow_floors": 0, "stages": []},
        }, indent=2)
        code, _, err = _run(capsys, ["estimate", "--replay", str(manifest)])
        assert code == 0 and "replay ok" in err

    @pytest.mark.parametrize("methods,m_list,message", [
        ("mc", "0", "method mc at m = 0: m must be >= 1"),
        ("ss", "5", "method ss at m = 5: need 1 <= m0 < m"),
        ("bss", "1", "method bss at m = 1: m must be >= 2"),
        ("mc,bss", "1000,1", "method bss at m = 1: m must be >= 2"),
    ])
    def test_benchmark_rejected_configuration_exit_2(self, capsys, tmp_path, methods, m_list,
                                                     message):
        code, out, err = _run(capsys, [
            "benchmark", "--case", "cantilever", "--methods", methods, "--m-list", m_list,
            "--runs", "2", "--out-dir", str(tmp_path / "b"),
        ])
        assert code == 2 and out == ""
        assert f"config error: {message}" in err
        assert not (tmp_path / "b").exists()

    def test_benchmark_rejected_configuration_leaves_no_out_dir(self, capsys, tmp_path):
        # the directories the command made are removed; one that was there stays
        (tmp_path / "kept").mkdir()
        for out_dir in (tmp_path / "od" / "sub", tmp_path / "kept" / "sub"):
            code, _, err = _run(capsys, [
                "benchmark", "--case", "four-branch", "--methods", "ss", "--m-list", "5",
                "--runs", "2", "--out-dir", str(out_dir),
            ])
            assert code == 2 and "method ss at m = 5" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]
        assert list((tmp_path / "kept").iterdir()) == []

    @pytest.mark.parametrize("flag, value, message", [
        ("--methods", "mc,nope", "--methods[1] must be one of mc, ss, bss, not 'nope'"),
        ("--jobs", "0", "--jobs must be an integer >= 1, not 0"),
    ])
    def test_benchmark_flag_departure_exit_2(self, capsys, tmp_path, flag, value, message):
        argv = {"--methods": "mc", "--jobs": "1", flag: value}
        code, out, err = _run(capsys, [
            "benchmark", "--case", "cantilever", "--m-list", "100", "--runs", "2",
            "--out-dir", str(tmp_path / "b"), *(item for pair in argv.items() for item in pair)])
        assert code == 2 and out == ""
        assert f"config error: {message}" in err

    def test_problem_flag_names_its_forms(self, capsys):
        code, _, err = _run(capsys, ["estimate", "--method", "mc", "--problem", "p.json",
                                     "--m", "10", "--seed", "0"])
        assert code == 2
        assert ("config error: --problem must be file:<path> or one of four-branch, cantilever,"
                " oscillator, not 'p.json'") in err

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_problem_file_runs_or_names_the_key(self, tmp_path_factory, data):
        # only dropping the optional direction leaves a valid file, which
        # then estimates the upper tail, as a file with "direction": "above"
        kind, path, spec, new_path = data.draw(_mutations(_SPEC))
        directory = tmp_path_factory.mktemp("mutated")
        (directory / "p.json").write_text(json.dumps(spec))
        code, out, err = _main_quietly(["estimate", "--method", "mc", "--problem",
                                        f"file:{directory / 'p.json'}", "--m", "200",
                                        "--seed", "1"])
        if (kind, path) == ("drop", ("direction",)):
            (directory / "above.json").write_text(json.dumps({**_SPEC, "direction": "above"}))
            _, above, _ = _main_quietly(["estimate", "--method", "mc", "--problem",
                                         f"file:{directory / 'above.json'}", "--m", "200",
                                         "--seed", "1"])
            assert code == 0
            assert json.loads(out)["problem"] == {"custom": spec}
            assert json.loads(out)["result"] == json.loads(above)["result"]
        else:
            assert code == 2, (kind, path, spec, err)
            assert out == ""
            assert _names(err, path) or (new_path and _names(err, new_path)), (kind, path, err)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), case=st.booleans())
    def test_mutated_manifest_replays_or_names_the_key(self, tmp_path_factory, data, case):
        # the run's keys are closed; keys the program writes and does not read
        # back (tool, version, timestamps, host and the result but alpha_hat)
        # may be dropped or hold anything. The custom problem states the
        # default direction, so dropping it leaves the same run
        directory = tmp_path_factory.mktemp("manifest")
        (directory / "p.json").write_text(json.dumps({**_SPEC, "direction": "above"}))
        problem = "cantilever" if case else f"file:{directory / 'p.json'}"
        _main_quietly(["estimate", "--method", "mc", "--problem", problem, "--m", "200",
                       "--seed", "1", "--out", str(directory / "m.json")])
        kind, path, doc, new_path = data.draw(_mutations(
            json.loads((directory / "m.json").read_text())))
        (directory / "m.json").write_text(json.dumps(doc))
        code, out, err = _main_quietly(["estimate", "--replay", str(directory / "m.json")])

        def free(p):  # a value the program wrote and does not read back, or inside one
            return len(p) >= 1 and p[0] in ("tool", "version", "timestamps", "host") or (
                len(p) >= 2 and p[0] == "result" and p[1] != "alpha_hat")

        runs = {"drop": free(path) or path == ("problem", "custom", "direction"),
                "retype": free(path), "rename": free(path[:-1]), "add": free(path)}[kind]
        if runs:
            assert code == 0 and "replay ok" in err, (kind, path, err)
        else:
            assert code == 2, (kind, path, doc, err)
            assert out == ""
            assert _names(err, path) or (new_path and _names(err, new_path)), (kind, path, err)
