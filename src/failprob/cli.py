"""Command-line front end.

`failprob estimate` runs one seeded estimator and prints a reproducible run
manifest as JSON on stdout (diagnostics go to stderr). `failprob benchmark`
drives the replication study and writes summary and per-run CSV files.
Exit codes: 0 success, 2 configuration error (before the run), 3 estimator error.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys
from pathlib import Path

from . import __version__
from .bench import CASES, csv_table, run_estimator, run_rmse_experiment
from .core import (ConfigError, Direction, EstimationResult, InputDistribution, Problem,
                   kernel_threads)
from .expr import ExprError, compile_limit_state

SCHEMA_VERSION = 1
_METHODS = ("mc", "ss", "bss")


def _load_custom_problem(spec: dict) -> Problem:
    try:
        params = [entry["normal"] for entry in spec["marginals"]]
        law = InputDistribution([float(p["mean"]) for p in params],
                                [float(p["sd"]) for p in params])
        direction = spec.get("direction", "above")
        if not isinstance(direction, str):
            raise TypeError(f"direction must be 'above' or 'below', got {direction!r}")
        direction = Direction(direction.lower())
        expression = spec["limit_state"]
        if not isinstance(expression, str):
            raise TypeError(f"limit_state must be an expression string, got {expression!r}")
        fn = compile_limit_state(expression, law.dim)
        return Problem(
            limit_state=fn,
            input=law,
            threshold=float(spec["threshold"]),
            direction=direction,
        )
    except ExprError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid problem file: {exc}") from None


def _resolve_problem(name: str) -> tuple[Problem, dict]:
    if name in CASES:
        return CASES[name]().problem, {"case": name}
    if name.startswith("file:"):
        spec = _read_json(Path(name[5:]), "--problem")
        return _load_custom_problem(spec), {"custom": spec}
    raise ConfigError(f"unknown problem {name!r} (expected a case name or file:<path>)")


def _read_json(path: Path, flag: str):
    """The JSON document in the file `flag` names; a path that is not a
    readable UTF-8 file is a configuration error naming `flag`."""
    if not path.is_file():
        raise ConfigError(f"{flag}: {path} is not a file")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{flag}: {path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot read {path}: {exc.strerror}") from None


def _check_output(path: str | None, flag: str) -> None:
    """Reject an output file path that cannot be written, before the run."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        raise ConfigError(f"{flag}: {target} is a directory")
    if not target.parent.is_dir():
        raise ConfigError(f"{flag}: directory {target.parent} does not exist")


def _write_trace(path: str, result, dim: int) -> None:
    cols = ["n", *(f"x{i + 1}" for i in range(dim)), "criterion", "u_t", "stage"]
    rows = ([row["n"], *row["x_new"], row["criterion"], row["u_t"], row["stage"]]
            for row in result.trace or [])
    Path(path).write_text(csv_table(cols, rows), encoding="utf-8")


_RUN_FLAGS = ("method", "problem", "m", "seed", "p0", "out", "trace")  # --replay takes none
_DEFAULT_P0 = 0.1


def cmd_estimate(args) -> int:
    if args.replay:
        given = [f"--{flag}" for flag in _RUN_FLAGS if getattr(args, flag) is not None]
        if given:
            raise ConfigError(f"--replay takes its run from the manifest; "
                              f"remove {', '.join(given)}")
        return _cmd_replay(args)
    if args.method is None or args.problem is None or args.m is None or args.seed is None:
        raise ConfigError("--method, --problem, --m and --seed are required")
    p0 = _DEFAULT_P0 if args.p0 is None else args.p0
    _check_run(args.method, args.m, p0, args.seed)
    _check_output(args.out, "--out")
    _check_output(args.trace, "--trace")
    problem, problem_spec = _resolve_problem(args.problem)
    manifest, result = _run_to_manifest(args.method, problem, problem_spec,
                                        args.m, p0, args.seed)
    if args.trace:
        _write_trace(args.trace, result, problem.dim)
    text = json.dumps(manifest, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return 0 if manifest["result"]["error"] is None else 3


def _check_run(method, m, p0, seed, keys=("method", "m", "p0", "seed")) -> None:
    """Reject a run configuration of the wrong type or range before it runs.

    The command line and `--replay` share these checks; each message names
    the offending value by its entry in `keys` (a flag or a manifest key).
    """
    k_method, k_m, k_p0, k_seed = keys
    if not isinstance(method, str) or method not in _METHODS:
        raise ConfigError(f"{k_method} must be one of {', '.join(_METHODS)}, not {method!r}")
    if not _is_int(m) or m < 1:
        raise ConfigError(f"{k_m} must be an integer >= 1, not {m!r}")
    if isinstance(p0, bool) or not isinstance(p0, (int, float)) or not 0.0 < p0 < 1.0:
        raise ConfigError(f"{k_p0} must be a number in (0, 1), not {p0!r}")
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"{k_seed} must be an integer >= 0, not {seed!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _run_to_manifest(method: str, problem: Problem, problem_spec: dict,
                     m: int, p0: float, seed: int) -> tuple[dict, EstimationResult]:
    """The run manifest of one seeded estimator run, and the run's result."""
    start = datetime.datetime.now(datetime.timezone.utc).isoformat()
    result = run_estimator(problem, method, m, seed, p0)
    end = datetime.datetime.now(datetime.timezone.utc).isoformat()
    return {
        "schema": SCHEMA_VERSION,
        "tool": "failprob",
        "version": __version__,
        "command": "estimate",
        "method": method,
        "problem": problem_spec,
        "config": {"m": m, "p0": p0},
        "seed": seed,
        "timestamps": {"start": start, "end": end},
        "host": {"platform": platform.platform(), "python": platform.python_version(),
                 "kernel_threads": kernel_threads()},
        "result": result.to_dict(),
    }, result


def _cmd_replay(args) -> int:
    manifest = _read_json(Path(args.replay), "--replay")
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest must be a JSON object, not {type(manifest).__name__}")
    if manifest.get("schema") != SCHEMA_VERSION:
        raise ConfigError("unsupported manifest schema")
    if manifest.get("command") != "estimate":
        raise ConfigError(f"--replay needs a manifest written by 'failprob estimate', "
                          f"not {manifest.get('command')!r}")
    try:
        spec, method, config, seed = (manifest[k] for k in ("problem", "method", "config", "seed"))
        _require_object(spec, "problem")
        _require_object(config, "config")
        m, p0 = config["m"], config["p0"]
        old_alpha = manifest["result"]["alpha_hat"]
        _check_run(method, m, p0, seed, keys=("method", "config.m", "config.p0", "seed"))
        if "case" in spec:
            case = spec["case"]
            if not isinstance(case, str):
                raise ConfigError(f"problem.case must be a string, not {case!r}")
            if case not in CASES:
                raise ConfigError(f"problem.case must name a benchmark case "
                                  f"({', '.join(CASES)}), not {case!r}")
            problem, problem_spec = CASES[case]().problem, {"case": case}
        else:
            _require_object(spec["custom"], "problem.custom")
            problem, problem_spec = _load_custom_problem(spec["custom"]), spec
    except KeyError as exc:
        raise ConfigError(f"manifest has no {exc.args[0]!r} key") from None
    except TypeError as exc:
        raise ConfigError(f"invalid manifest: {exc}") from None
    new, _ = _run_to_manifest(method, problem, problem_spec, m, p0, seed)
    print(json.dumps(new, indent=2))
    new_alpha = new["result"]["alpha_hat"]
    if new_alpha != old_alpha:
        print(f"replay mismatch: alpha_hat {new_alpha!r} != recorded {old_alpha!r}",
              file=sys.stderr)
        return 3
    print("replay ok: alpha_hat reproduced exactly", file=sys.stderr)
    return 0


def _require_object(value, key: str) -> None:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object, not {type(value).__name__}")


def cmd_benchmark(args) -> int:
    if args.case not in CASES:
        raise ConfigError(f"unknown case {args.case!r}")
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError(f"--methods must name at least one of {', '.join(_METHODS)}")
    for m in methods:
        if m not in _METHODS:
            raise ConfigError(f"unknown method {m!r}")
    try:
        m_values = [int(v) for v in args.m_list.split(",") if v.strip()]
    except ValueError:
        raise ConfigError("--m-list must be a comma-separated list of integers")
    if not m_values or args.runs < 2:
        raise ConfigError("need a non-empty --m-list and --runs >= 2")
    for flag, values in (("--methods", methods), ("--m-list", m_values)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ConfigError(f"{flag} repeats {', '.join(map(str, repeated))}")
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir: cannot make directory {out_dir}: {exc.strerror}") from None

    study = run_rmse_experiment(args.case, methods, m_values, args.runs, args.seed, jobs=args.jobs)
    (out_dir / "rmse.csv").write_text(study.to_csv(), encoding="utf-8")
    (out_dir / "runs.csv").write_text(study.per_run_csv(), encoding="utf-8")
    print((out_dir / "rmse.csv").read_text(encoding="utf-8"), end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="failprob",
        description="Rare-event failure probability estimation "
                    "(Monte Carlo, subset simulation, Bayesian subset simulation).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="run one seeded estimator, print a JSON manifest")
    est.add_argument("--method", choices=_METHODS, default=None)
    est.add_argument("--problem", help="four-branch | cantilever | oscillator | file:<path>")
    est.add_argument("--m", type=int, default=None, help="sample / particle count")
    est.add_argument("--p0", type=float, default=None,
                     help=f"per-stage conditional probability (default {_DEFAULT_P0})")
    est.add_argument("--seed", type=int, default=None, help="root seed (u64)")
    est.add_argument("--out", help="also write the manifest JSON to this path")
    est.add_argument("--trace", help="write the SUR trace CSV, one row per evaluation (bss)")
    est.add_argument("--replay", help="re-run from a manifest and verify alpha_hat; "
                                      "takes no other flag")
    est.set_defaults(fn=cmd_estimate)

    ben = sub.add_parser("benchmark", help="replication study on a benchmark case")
    ben.add_argument("--case", required=True, help="|".join(CASES))
    ben.add_argument("--methods", default="bss", help="comma-separated subset of mc,ss,bss")
    ben.add_argument("--m-list", dest="m_list", default="1000", help="comma-separated sample sizes")
    ben.add_argument("--runs", type=int, default=20)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--out-dir", dest="out_dir", default="bench-out")
    ben.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    ben.set_defaults(fn=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.fn(args)
    except (ConfigError, ExprError, json.JSONDecodeError) as exc:
        print(f"failprob: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # estimator failures
        print(f"failprob: estimator error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
