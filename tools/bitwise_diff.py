"""List the benchmark runs whose estimate differs between two perfbench outputs.

    python3 tools/bitwise_diff.py before.out after.out

Each file is the stdout of one `python3 perfbench/run.py ...` invocation.
The line before the last is the full report. For every workload it holds
the warm-up run, the timed panel runs and, when traced, the traced runs.
Each run has its seed, `alpha_hat` (as `float.hex()`) and `n_total`. Runs
are matched by workload, kind and run index. A run differs when its seed,
`alpha_hat` or `n_total` differs, or when it is in only one of the files.

Exit status: 0 when every run is identical, 1 when any differs, 2 when a
file cannot be read as a perfbench output.
"""

from __future__ import annotations

import json
import sys

FIELDS = ("seed", "alpha_hat", "n_total")
KINDS = {"runs": "panel", "traced_runs": "traced"}  # report key -> label


def load_runs(path: str) -> dict[tuple, dict]:
    """{(workload, "warmup") or (workload, kind, run): run record} from one
    perfbench stdout file."""
    with open(path, encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: expected the report and the result line")
    report = json.loads(lines[-2])
    runs = {}
    for wl in report["workloads"]:
        name = wl["workload"]
        runs[(name, "warmup")] = wl["warmup"]
        for key, kind in KINDS.items():
            for run in wl.get(key, []):
                runs[(name, kind, run["run"])] = run
    return runs


def differences(a: dict[tuple, dict], b: dict[tuple, dict]) -> list[str]:
    out = []
    for key in sorted(a.keys() | b.keys(), key=str):
        label = "/".join(str(part) for part in key)
        if key not in a or key not in b:
            out.append(f"{label}: only in {'B' if key not in a else 'A'}")
            continue
        changed = [f"{f} {a[key].get(f)} -> {b[key].get(f)}"
                   for f in FIELDS if a[key].get(f) != b[key].get(f)]
        if changed:
            out.append(f"{label}: " + ", ".join(changed))
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/bitwise_diff.py A B", file=sys.stderr)
        return 2
    try:
        a, b = (load_runs(path) for path in argv)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"bitwise_diff: {exc}", file=sys.stderr)
        return 2
    diffs = differences(a, b)
    for line in diffs:
        print(line)
    print(f"{len(a.keys() & b.keys())} runs compared, {len(diffs)} differ", file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
