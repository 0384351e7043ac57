"""List the benchmark runs whose estimate differs between two perfbench outputs.

    python3 tools/bitwise_diff.py before.out after.out

Each file is the stdout of one `python3 perfbench/run.py ...` invocation.
The line before the last is the full report. For every workload it holds
the warm-up run, the timed panel runs and, when traced, the traced runs.
Each run has its seed, `alpha_hat` (as `float.hex()`) and `n_total`. Runs
are matched by workload, kind and run index. A run differs when its seed,
`alpha_hat` or `n_total` differs, or when it is in only one of the files.

Each differing run is printed with the fields that differ. The summary on
stderr counts the runs compared, the runs that differ, and how many differ
in each field, so a change that moves only `n_total` reads as one:

    23 runs compared, 9 differ: seed 0, alpha_hat 0, n_total 9

Where `alpha_hat` differs, the summary also gives the largest relative
difference |B / A - 1| among those runs (inf where A is 0 or a value is not
a finite number), so a change in the last bits reads as one:

    23 runs compared, 8 differ: seed 0, alpha_hat 8 (at most 4.2e-15 relative), n_total 0

Exit status: 0 when every run is identical, 1 when any differs, 2 when a
file cannot be read as a perfbench output.
"""

from __future__ import annotations

import json
import math
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


def relative_difference(hex_a, hex_b) -> float:
    """|B / A - 1| of two `float.hex()` strings; inf where A is 0 or either
    is not the hex of a finite number."""
    try:
        x, y = float.fromhex(hex_a), float.fromhex(hex_b)
    except (TypeError, ValueError):
        return math.inf
    rel = abs(y - x) / abs(x) if x != 0.0 else math.inf
    return rel if math.isfinite(rel) else math.inf


def summary(a: dict[tuple, dict], b: dict[tuple, dict], n_differ: int) -> str:
    """Runs compared and differing, per field the runs in both files whose
    field differs, and the largest relative `alpha_hat` difference."""
    both = a.keys() & b.keys()
    line = f"{len(both)} runs compared, {n_differ} differ"
    if n_differ:
        counts = []
        for f in FIELDS:
            keys = [key for key in both if a[key].get(f) != b[key].get(f)]
            counts.append(f"{f} {len(keys)}")
            if f == "alpha_hat" and keys:
                largest = max(relative_difference(a[key].get(f), b[key].get(f)) for key in keys)
                counts[-1] += f" (at most {largest:.2g} relative)"
        line += ": " + ", ".join(counts)
        only = len(a.keys() ^ b.keys())
        if only:
            line += f", in one file only {only}"
    return line


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
    print(summary(a, b, len(diffs)), file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
