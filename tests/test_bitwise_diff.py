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


def test_unreadable_input_exits_two(tmp_path):
    a = _write(tmp_path, "a.out", _REPORT)
    bad = tmp_path / "bad.out"
    bad.write_text("not json\nnor this\n")
    assert bitwise_diff.main([a, str(bad)]) == 2
    assert bitwise_diff.main([a]) == 2
