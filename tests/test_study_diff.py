"""tools/study_diff.py: paired comparison of two studies' runs.csv files."""

import importlib.util
import math
from dataclasses import fields
from pathlib import Path

import pytest

from failprob.bench import CASES, RunRow, csv_table
from failprob.cli import main as failprob_main

_SPEC = importlib.util.spec_from_file_location(
    "study_diff", Path(__file__).resolve().parent.parent / "tools" / "study_diff.py"
)
study_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(study_diff)

_COLUMNS = [f.name for f in fields(RunRow)]
_REF = CASES["cantilever"]().alpha_ref


def _row(run, n_total, log_err, method="bss", m=2000, error=None):
    """A runs.csv row whose alpha_hat is alpha_ref * exp(log_err)."""
    return [method, "cantilever", m, run, _REF * math.exp(log_err), None, n_total, n_total,
            10, n_total - 12, 2, error, 1.0]


def _write(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(csv_table(_COLUMNS, rows), encoding="utf-8")
    return str(path)


def test_known_shift(tmp_path, capsys):
    # bss: every run spends 3 more evaluations, and |log(alpha_hat / ref)|
    # falls from 0.5 to 0.2 (the sign of the log error flips in run 1); the
    # ss rows are the same in both files
    before = [_row(r, 40 + r, 0.5 if r != 1 else -0.5) for r in range(5)]
    before += [_row(r, 1000, 0.1, method="ss") for r in range(3)]
    after = [_row(r, 43 + r, -0.2 if r != 1 else 0.2) for r in range(5)]
    after += [_row(r, 1000, 0.1, method="ss") for r in range(3)]
    code = study_diff.main([_write(tmp_path, "a.csv", before), _write(tmp_path, "b.csv", after)])
    assert code == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2] == ("| bss | cantilever | 2000 | 5 | 5 | +3.00 [+3.00, +3.00] | +3 "
                      "| -0.3000 (5 pairs) |")
    assert out[3] == ("| ss | cantilever | 2000 | 3 | 0 | +0.00 [+0.00, +0.00] | +0 "
                      "| +0.0000 (3 pairs) |")


def test_mixed_shift_interval_and_largest_increase(tmp_path):
    before = [_row(r, 50, 0.0) for r in range(4)]
    after = [_row(0, 57, 0.0), _row(1, 48, 0.0), _row(2, 50, 0.0), _row(3, 45, 0.0)]
    (s,) = study_diff.compare(study_diff.load_runs(_write(tmp_path, "a.csv", before)),
                              study_diff.load_runs(_write(tmp_path, "b.csv", after)))
    assert (s["pairs"], s["differ"], s["mean_dn"], s["max_dn"]) == (4, 3, 0.0, 7)
    lo, hi = s["ci"]
    assert -5.0 <= lo < 0.0 < hi <= 7.0  # the bootstrap means lie in [min, max]


def test_unpaired_and_failed_runs(tmp_path):
    # a run in one file only differs; a failed run leaves the log-error mean
    before = [_row(0, 50, 0.1), _row(1, 50, 0.1), _row(2, 50, 0.1)]
    after = [_row(0, 50, 0.1), _row(1, 2000, 0.3, error="max_stages=50 exceeded")]
    (s,) = study_diff.compare(study_diff.load_runs(_write(tmp_path, "a.csv", before)),
                              study_diff.load_runs(_write(tmp_path, "b.csv", after)))
    assert (s["pairs"], s["differ"], s["max_dn"], s["n_dlog"]) == (2, 2, 1950, 1)
    assert s["mean_dlog"] == 0.0


def test_unreadable_input_exit_2(tmp_path, capsys):
    good = _write(tmp_path, "a.csv", [_row(0, 50, 0.0)])
    bad = tmp_path / "b.csv"
    bad.write_text("method,case\nbss,cantilever\n", encoding="utf-8")
    assert study_diff.main([good, str(bad)]) == 2
    assert "no column" in capsys.readouterr().err
    unknown = tmp_path / "c.csv"
    unknown.write_text(Path(good).read_text().replace("cantilever", "toy"), encoding="utf-8")
    assert study_diff.main([good, str(unknown)]) == 2
    assert "unknown case 'toy'" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:ReML optimizer did not converge")
def test_two_studies_of_one_commit_do_not_differ(tmp_path, capsys):
    paths = []
    for name in ("a", "b"):
        assert failprob_main(["benchmark", "--case", "cantilever", "--methods", "bss",
                              "--m-list", "300", "--runs", "2", "--seed", "5",
                              "--out-dir", str(tmp_path / name)]) == 0
        paths.append(str(tmp_path / name / "runs.csv"))
    capsys.readouterr()
    assert study_diff.main(paths) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2].startswith("| bss | cantilever | 300 | 2 | 0 | +0.00 [+0.00, +0.00] | +0 |")
