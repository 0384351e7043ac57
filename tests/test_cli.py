"""Command-line interface: manifests, exit codes, determinism, file export."""

import csv
import io
import json

import numpy as np
import pytest
import scipy

from failprob.bench import CASES
from failprob.cli import _run_to_manifest, main
from failprob.core import kernel_threads
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
        assert "config error: invalid problem file: normal marginal needs sd > 0" in err

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
        assert "config error: invalid problem file: direction must be" in err

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
        assert "config error: invalid problem file: limit_state must be" in err

    def test_bad_expression_exit_2(self, capsys, tmp_path):
        spec = {
            "marginals": [{"normal": {"mean": 0.0, "sd": 1.0}}],
            "threshold": 0.0,
            "limit_state": "__import__('os')",
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        code, _, _ = _run(capsys, [
            "estimate", "--method", "mc", "--problem", f"file:{path}",
            "--m", "10", "--seed", "0",
        ])
        assert code == 2

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

    def test_replay_reproduces(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        _run(capsys, [
            "estimate", "--method", "bss", "--problem", "cantilever",
            "--m", "400", "--seed", "11", "--out", str(out_path),
        ])
        code, _, err = _run(capsys, ["estimate", "--replay", str(out_path)])
        assert code == 0
        assert "replay ok" in err

    def test_host_records_kernel_threads_replay_ignores_them(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        _run(capsys, [
            "estimate", "--method", "bss", "--problem", "cantilever",
            "--m", "400", "--seed", "11", "--out", str(out_path),
        ])
        doc = json.loads(out_path.read_text())
        assert doc["host"]["kernel_threads"] == kernel_threads()
        doc["host"]["kernel_threads"] += 7  # results do not depend on it
        out_path.write_text(json.dumps(doc))
        code, _, err = _run(capsys, ["estimate", "--replay", str(out_path)])
        assert code == 0
        assert "replay ok" in err

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
    @pytest.mark.parametrize("method,message", [("ss", "Probabilities contain NaN"),
                                                ("bss", "limit state returned nan at x = ")])
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
