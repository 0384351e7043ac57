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
from collections import namedtuple
from dataclasses import fields
from pathlib import Path

from . import __version__, smc
from .bench import CASES, _estimator, csv_table, run_rmse_experiment
from .core import ConfigError, Direction, EstimationResult, InputDistribution, Problem
from .expr import ExprError, compile_limit_state

SCHEMA_VERSION = 1
_METHODS = ("mc", "ss", "bss")
_DEFAULT_P0 = 0.1


# The declared shapes of the problem file, the `estimate` manifest and the run,
# which `_check` walks. A dict is a JSON object with exactly its keys, but a key
# marked "?" may be left out; a _OneOf holds one of its keys; a one-item list
# is a non-empty array of that item; a _Leaf is a value that passes its test
# `ok`, and `what` says what that is.
_Leaf = namedtuple("_Leaf", "what ok")


class _OneOf(dict):
    """An object that holds exactly one of these keys."""


_OBJECT = _Leaf("a JSON object", lambda v: isinstance(v, dict))
_ARRAY = _Leaf("a non-empty JSON array", lambda v: isinstance(v, list) and len(v) > 0)
_ANY = _Leaf("any value", lambda v: True)
_NUMBER = _Leaf("a finite number",
                lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
_POSITIVE = _Leaf("a finite number > 0", lambda v: _NUMBER.ok(v) and v > 0)
_COUNT = _Leaf("an integer >= 1", lambda v: type(v) is int and v >= 1)
_METHOD = _Leaf(f"one of {', '.join(_METHODS)}", lambda v: v in _METHODS)
_CASE = _Leaf(f"one of {', '.join(CASES)}", lambda v: isinstance(v, str) and v in CASES)
_PROBLEM_FLAG = _CASE._replace(what=f"file:<path> or {_CASE.what}")
_RUN = {"method": _METHOD,
        "config": {"m": _COUNT,
                   "p0": _Leaf("a number in (0, 1)", lambda v: _NUMBER.ok(v) and 0 < v < 1)},
        "seed": _Leaf("an integer >= 0", lambda v: type(v) is int and v >= 0)}
_PROBLEM_FILE = {
    "marginals": [{"normal": {"mean": _NUMBER, "sd": _POSITIVE}}],
    "threshold": _NUMBER,
    "direction?": _Leaf("'above' or 'below', in any case", lambda v: (
        isinstance(v, str) and v.lower() in {d.value for d in Direction})),
    "limit_state": _Leaf("an expression string", lambda v: isinstance(v, str)),
}
_MANIFEST = {
    "schema": _Leaf(str(SCHEMA_VERSION), lambda v: type(v) is int and v == SCHEMA_VERSION),
    "command": _Leaf("'estimate', as written by failprob estimate", lambda v: v == "estimate"),
    "problem": _OneOf({"case?": _CASE, "custom?": _PROBLEM_FILE}),
    **_RUN,
    # written by the program and, but for alpha_hat, never read back
    **dict.fromkeys(("tool?", "version?", "timestamps?", "host?"), _ANY),
    "result": {"alpha_hat": _Leaf("a number", lambda v: type(v) in (int, float)),
               **{f"{f.name}?": _ANY for f in fields(EstimationResult)
                  if f.name not in ("alpha_hat", "trace")}},
}


def _check(value, shape, path: tuple):
    """`value` if it has `shape`; else ConfigError naming the key path of the
    first departure. `path` is the document's name, then the keys down to `value`."""
    leaf = shape if isinstance(shape, _Leaf) else _ARRAY if isinstance(shape, list) else _OBJECT
    if not leaf.ok(value):
        shown = type(value).__name__ if isinstance(value, (dict, list)) and value else repr(value)
        raise ConfigError(f"{_name(path)} must be {leaf.what}, not {shown}")
    if isinstance(shape, list):
        for i, item in enumerate(value):
            _check(item, shape[0], path + (i,))
    elif isinstance(shape, dict):
        keys = {key.rstrip("?"): key for key in shape}
        for key, declared in keys.items():
            if key in value:
                _check(value[key], shape[declared], path + (key,))
            elif key == declared:
                raise ConfigError(f"missing key {_name(path + (key,))!r}")
        for key in value:
            if key not in keys:
                raise ConfigError(f"unknown key {_name(path + (key,))!r}")
        if isinstance(shape, _OneOf) and len(value) != 1:
            named = " or ".join(repr(_name(path + (key,))) for key in keys)
            raise ConfigError(f"{_name(path)} must hold one key: {named}")
    return value


def _name(path: tuple) -> str:
    root, *keys = path
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:] if keys else root


def _problem(spec: dict, path: tuple) -> Problem:
    """The problem a checked `problem` entry names: a benchmark case or a
    custom problem, whose key path `path` an expression error names."""
    if "case" in spec:
        return CASES[spec["case"]]().problem
    custom = spec["custom"]
    normals = [marginal["normal"] for marginal in custom["marginals"]]
    law = InputDistribution([float(p["mean"]) for p in normals], [float(p["sd"]) for p in normals])
    try:
        limit_state = compile_limit_state(custom["limit_state"], law.dim)
    except ExprError as exc:
        raise ConfigError(f"{_name(path + ('limit_state',))}: {exc}") from None
    return Problem(limit_state, law, float(custom["threshold"]),
                   Direction(custom.get("direction", "above").lower()))


def _read_json(path: Path, flag: str, shape):
    """The JSON document in the file `flag` names, checked against `shape`; a
    path that is not a readable UTF-8 file is a configuration error."""
    if not path.is_file():
        raise ConfigError(f"{flag}: {path} is not a file")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{flag}: {path} is not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"{flag}: cannot read {path}: {exc.strerror}") from None
    return _check(json.loads(text, object_pairs_hook=_unique_keys), shape, (flag,))


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _check_output(path: str | None, flag: str) -> None:
    """Reject an output file path that cannot be written, before the run."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        raise ConfigError(f"{flag}: {target} is a directory")
    if not target.parent.is_dir():
        raise ConfigError(f"{flag}: directory {target.parent} does not exist")


def cmd_estimate(args) -> int:
    if args.replay:
        given = [f"--{flag}" for flag in ("method", "problem", "m", "seed", "p0", "out", "trace")
                 if getattr(args, flag) is not None]
        if given:
            raise ConfigError(f"--replay takes its run from the manifest; "
                              f"remove {', '.join(given)}")
        recorded = _read_json(Path(args.replay), "--replay", _MANIFEST)
        method, spec, config, seed = (recorded[k] for k in ("method", "problem", "config", "seed"))
        custom_path = ("--replay", "problem", "custom")
    else:
        if None in (args.method, args.problem, args.m, args.seed):
            raise ConfigError("--method, --problem, --m and --seed are required")
        method, seed = args.method, args.seed
        config = {"m": args.m, "p0": _DEFAULT_P0 if args.p0 is None else args.p0}
        _check({"method": method, "config": config, "seed": seed}, _RUN, ("command line",))
        if args.trace is not None and method != "bss":
            raise ConfigError(f"--trace: only bss records a SUR trace, not {method}")
        for flag in ("out", "trace"):
            _check_output(getattr(args, flag), f"--{flag}")
        spec = ({"custom": _read_json(Path(args.problem[5:]), "--problem", _PROBLEM_FILE)}
                if args.problem.startswith("file:")
                else {"case": _check(args.problem, _PROBLEM_FLAG, ("--problem",))})
        custom_path = ("--problem",)
    problem = _problem(spec, custom_path)
    manifest, result = _run_to_manifest(method, problem, spec, config["m"], config["p0"], seed)
    text = json.dumps(manifest, indent=2)
    if args.trace:
        cols = ["n", *(f"x{i + 1}" for i in range(problem.dim)), "criterion", "u_t", "stage"]
        rows = ([row["n"], *row["x_new"], row["criterion"], row["u_t"], row["stage"]]
                for row in result.trace or [])
        Path(args.trace).write_text(csv_table(cols, rows), encoding="utf-8")
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    if not args.replay:
        return 0 if result.error is None else 3
    recorded_alpha = recorded["result"]["alpha_hat"]
    same = result.alpha_hat == recorded_alpha  # a NaN estimate is never reproduced
    print("replay ok: alpha_hat reproduced exactly" if same else
          f"replay mismatch: alpha_hat {result.alpha_hat!r} != recorded {recorded_alpha!r}",
          file=sys.stderr)
    return 0 if same else 3


def _run_to_manifest(method: str, problem: Problem, problem_spec: dict,
                     m: int, p0: float, seed: int) -> tuple[dict, EstimationResult]:
    """The run manifest of one seeded estimator run, and the run's result.
    The estimator is configured, and `bss` imported, before the start
    timestamp, so that the timestamps span the run alone."""
    estimate = _estimator(method, m, p0)
    start = datetime.datetime.now(datetime.timezone.utc).isoformat()
    result = estimate(problem, seed=seed)
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
                 "draw_ahead": smc.DRAW_AHEAD},
        "result": result.to_dict(),
    }, result


def cmd_benchmark(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ConfigError(f"--methods must name at least one of {', '.join(_METHODS)}")
    _check({"--jobs": args.jobs, "--methods": methods}, {"--jobs": _COUNT, "--methods": [_METHOD]},
           ("command line",))
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
    made = [p for p in (out_dir, *out_dir.parents) if not p.exists()]  # deepest first
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out-dir: cannot make directory {out_dir}: {exc.strerror}") from None
    try:
        study = run_rmse_experiment(args.case, methods, m_values, args.runs, args.seed,
                                    jobs=args.jobs)
    except BaseException:
        for path in made:  # a study that did not run leaves no directory it made
            if not any(path.iterdir()):
                path.rmdir()
        raise
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
    ben.add_argument("--case", required=True, choices=CASES)
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
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"failprob: config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # estimator failures
        print(f"failprob: estimator error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
