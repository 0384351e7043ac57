"""tools/bitwise_diff.py: per-run estimate comparison of two perfbench outputs."""

import copy
import importlib.util
import json
import math
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bitwise_diff", Path(__file__).resolve().parent.parent / "tools" / "bitwise_diff.py"
)
bitwise_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitwise_diff)


def _run(run, seed, alpha, n):
    return {"run": run, "seed": seed, "s": 1.0, "alpha_hat": alpha, "n_total": n,
            "failure": None}


_REPORT = {"env": {}, "workloads": [{
    "workload": "bss-oscillator",
    "warmup": _run("warmup", 5, (1.5e-7).hex(), 40),
    "runs": [_run(0, 11, (2.5e-7).hex(), 52), _run(1, 12, (3.0e-7).hex(), 49)],
    "traced_runs": [_run(0, 11, (2.5e-7).hex(), 52)],
}]}


def _write(tmp_path, name, report):
    path = tmp_path / name
    path.write_text(json.dumps(report) + "\n" + json.dumps({"correct": True}) + "\n")
    return str(path)


def test_identical_outputs_exit_zero(tmp_path, capsys):
    a = _write(tmp_path, "a.out", _REPORT)
    b = _write(tmp_path, "b.out", copy.deepcopy(_REPORT))
    assert bitwise_diff.main([a, b]) == 0
    assert capsys.readouterr().out == ""


def test_count_only_change_reads_as_one(tmp_path, capsys):
    changed = copy.deepcopy(_REPORT)
    wl = changed["workloads"][0]
    for run in [wl["warmup"], *wl["runs"]]:
        run["n_total"] -= 3
    a = _write(tmp_path, "a.out", _REPORT)
    b = _write(tmp_path, "b.out", changed)
    assert bitwise_diff.main([a, b]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "bss-oscillator/panel/0: n_total 52 -> 49",
        "bss-oscillator/panel/1: n_total 49 -> 46",
        "bss-oscillator/warmup: n_total 40 -> 37",
    ]
    assert captured.err.strip() == "4 runs compared, 3 differ: seed 0, alpha_hat 0, n_total 3"


def test_every_kind_of_difference_is_listed(tmp_path, capsys):
    changed = copy.deepcopy(_REPORT)
    wl = changed["workloads"][0]
    wl["warmup"]["n_total"] = 41
    one_ulp_up = math.nextafter(3.0e-7, 1.0).hex()
    wl["runs"][1]["alpha_hat"] = one_ulp_up
    del wl["traced_runs"]
    a = _write(tmp_path, "a.out", _REPORT)
    b = _write(tmp_path, "b.out", changed)
    assert bitwise_diff.main([a, b]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        f"bss-oscillator/panel/1: alpha_hat {(3.0e-7).hex()} -> {one_ulp_up}",
        "bss-oscillator/traced/0: only in A",
        "bss-oscillator/warmup: n_total 40 -> 41",
    ]
    assert bitwise_diff.main([a, b]) == 1
    assert capsys.readouterr().err.strip() == (
        "3 runs compared, 3 differ: seed 0, alpha_hat 1 (at most 1.8e-16 relative), n_total 1, "
        "in one file only 1")


def test_last_bit_change_reads_as_one(tmp_path, capsys):
    # alpha_hat moves in its last bits on every run: the summary gives the
    # largest relative difference among them
    changed = copy.deepcopy(_REPORT)
    wl = changed["workloads"][0]
    for run, ulps in ((wl["warmup"], 1), (wl["runs"][0], 20), (wl["runs"][1], -3)):
        value = float.fromhex(run["alpha_hat"])
        for _ in range(abs(ulps)):
            value = math.nextafter(value, math.copysign(1.0, ulps))
        run["alpha_hat"] = value.hex()
    a = _write(tmp_path, "a.out", _REPORT)
    b = _write(tmp_path, "b.out", changed)
    assert bitwise_diff.main([a, b]) == 1
    largest = 20 * math.ulp(2.5e-7) / 2.5e-7
    assert capsys.readouterr().err.strip() == (
        f"4 runs compared, 3 differ: seed 0, alpha_hat 3 (at most {largest:.2g} relative), "
        "n_total 0")


def test_relative_difference():
    rel = bitwise_diff.relative_difference
    assert rel((2.0).hex(), (2.5).hex()) == 0.25
    assert rel((2.0).hex(), (1.5).hex()) == 0.25
    assert rel((0.0).hex(), (1e-300).hex()) == math.inf
    assert rel((1.0).hex(), "nan") == math.inf
    assert rel((1.0).hex(), None) == math.inf


def test_unreadable_input_exits_two(tmp_path):
    a = _write(tmp_path, "a.out", _REPORT)
    bad = tmp_path / "bad.out"
    bad.write_text("not json\nnor this\n")
    assert bitwise_diff.main([a, str(bad)]) == 2
    assert bitwise_diff.main([a]) == 2
