"""Compare two replication studies run by run: evaluation counts and errors.

    python3 tools/study_diff.py before/runs.csv after/runs.csv

Each file is a `runs.csv` that `failprob benchmark` writes, typically from
two commits on the same command line. Runs are paired by (method, case, m,
run); within one pair both runs had the same seed. For each (method, case,
m), one line of a Markdown table on stdout gives:

- the number of pairs, and how many differ (in `n_total`, `alpha_hat` or
  `error`, or present in one file only);
- the mean paired change in `n_total` (after minus before) with a 95%
  bootstrap percentile interval (10,000 resamples of the pairs, seed 0);
- the largest single-run change in `n_total` (the largest increase when
  positive);
- the mean paired change in |log(alpha_hat / alpha_ref)|, over the pairs in
  which both runs have no error and alpha_hat > 0; `alpha_ref` is the
  case's reference value in `failprob.bench.CASES`.

Exit status: 0 when no run differs, 1 when any differs, 2 when a file
cannot be read as a `runs.csv` or names an unknown case.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from failprob.bench import CASES  # noqa: E402

KEY = ("method", "case", "m", "run")
RESAMPLES = 10_000
HEADER = ("| method | case | m | pairs | differ | mean Δn_total [95% CI] | max Δn_total "
          "| mean Δ\\|log(α̂/α_ref)\\| |\n|---|---|---|---|---|---|---|---|")


def load_runs(path: str) -> dict[tuple, dict]:
    """{(method, case, m, run): row} from one runs.csv, with `m`, `run` and
    `n_total` as int, `alpha_hat` as float and `error` as str or None."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {*KEY, "alpha_hat", "n_total", "error"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: no column {', '.join(sorted(missing))}")
        runs = {}
        for row in reader:
            if row["case"] not in CASES:
                raise ValueError(f"{path}: unknown case {row['case']!r}")
            row = dict(row, m=int(row["m"]), run=int(row["run"]), n_total=int(row["n_total"]),
                       alpha_hat=float(row["alpha_hat"]), error=row["error"] or None)
            key = tuple(row[k] for k in KEY)
            if key in runs:
                raise ValueError(f"{path}: run {key} appears twice")
            runs[key] = row
    return runs


def _log_error(row: dict, alpha_ref: float) -> float | None:
    if row["error"] is not None or not row["alpha_hat"] > 0.0:
        return None
    return abs(math.log(row["alpha_hat"] / alpha_ref))


def compare(before: dict[tuple, dict], after: dict[tuple, dict]) -> list[dict]:
    """One summary dict per (method, case, m), in sorted order."""
    groups: dict[tuple, list] = {}
    for key in before.keys() | after.keys():
        groups.setdefault(key[:3], []).append(key)
    rng = np.random.default_rng(0)
    out = []
    for group in sorted(groups):
        keys = sorted(groups[group])
        pairs = [(before[k], after[k]) for k in keys if k in before and k in after]
        differ = len(keys) - len(pairs) + sum(
            any(a[f] != b[f] for f in ("n_total", "alpha_hat", "error")) for a, b in pairs)
        dn = np.array([b["n_total"] - a["n_total"] for a, b in pairs], dtype=float)
        alpha_ref = CASES[group[1]]().alpha_ref
        dlog = [lb - la for la, lb in ((_log_error(a, alpha_ref), _log_error(b, alpha_ref))
                                       for a, b in pairs) if la is not None and lb is not None]
        summary = {"method": group[0], "case": group[1], "m": group[2], "pairs": len(pairs),
                   "differ": differ, "mean_dn": None, "ci": None, "max_dn": None,
                   "mean_dlog": float(np.mean(dlog)) if dlog else None, "n_dlog": len(dlog)}
        if pairs:
            means = dn[rng.integers(0, dn.size, (RESAMPLES, dn.size))].mean(axis=1)
            summary.update(mean_dn=float(dn.mean()), max_dn=int(dn.max()),
                           ci=(float(np.percentile(means, 2.5)),
                               float(np.percentile(means, 97.5))))
        out.append(summary)
    return out


def format_table(summaries: list[dict]) -> str:
    lines = [HEADER]
    for s in summaries:
        dn = "–" if s["mean_dn"] is None else (
            f"{s['mean_dn']:+.2f} [{s['ci'][0]:+.2f}, {s['ci'][1]:+.2f}]")
        max_dn = "–" if s["max_dn"] is None else f"{s['max_dn']:+d}"
        dlog = "–" if s["mean_dlog"] is None else f"{s['mean_dlog']:+.4f} ({s['n_dlog']} pairs)"
        lines.append(f"| {s['method']} | {s['case']} | {s['m']} | {s['pairs']} | {s['differ']} "
                     f"| {dn} | {max_dn} | {dlog} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/study_diff.py BEFORE_RUNS_CSV AFTER_RUNS_CSV", file=sys.stderr)
        return 2
    try:
        before, after = (load_runs(path) for path in argv)
    except (OSError, ValueError, KeyError) as exc:
        print(f"study_diff: {exc}", file=sys.stderr)
        return 2
    summaries = compare(before, after)
    print(format_table(summaries))
    differ = sum(s["differ"] for s in summaries)
    print(f"{sum(s['pairs'] for s in summaries)} pairs compared, {differ} differ", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
