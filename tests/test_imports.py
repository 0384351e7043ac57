"""Only `bss` needs scipy: in a fresh interpreter, importing failprob and its
command line, building the benchmark cases, running `mc` and `ss` and a
command line that ends before any run load none of scipy, nor any module of
the `bss` stack; a `bss` run in the same interpreter then imports them.
`import failprob` alone loads no thread pool either: a draw stream imports
one when it starts its draw thread."""

import json
import os
import subprocess
import sys
from pathlib import Path

import failprob

SRC = Path(failprob.__file__).resolve().parent.parent
BSS_STACK = ("failprob.bss", "failprob.gp", "failprob.sur", "failprob.stats", "failprob.design")

SCRIPT = f"""
import contextlib, io, json, sys

import failprob
import failprob.cli
from failprob import bench, cli

cases = {{name: make() for name, make in bench.CASES.items()}}
problem = cases["cantilever"].problem
for method in ("mc", "ss"):
    res = bench._estimator(method, 2000)(problem, seed=1)
    assert res.error is None, (method, res.error)
bench.run_rmse_experiment("cantilever", ["mc"], [1000], runs=2, seed=1)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(["--help"]),
             cli.main(["estimate", "--method", "ss", "--problem", "nowhere",
                       "--m", "100", "--seed", "0"])]
loaded = sorted(name for name in sys.modules
                if name.startswith("scipy") or name in {BSS_STACK!r})
res = bench._estimator("bss", 300)(problem, seed=1)
print(json.dumps({{"codes": codes, "loaded": loaded,
                  "bss_ok": res.error is None and 0.0 < res.alpha_hat < 1.0,
                  "after_bss": sorted(set({BSS_STACK!r}) & set(sys.modules))}}))
"""


def _fresh(script: str):
    # the JSON that `script` prints, run in a fresh interpreter
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_only_bss_loads_scipy():
    report = _fresh(SCRIPT)
    assert report["codes"] == [0, 2]
    assert report["loaded"] == []
    assert report["bss_ok"]
    assert report["after_bss"] == sorted(BSS_STACK)


def test_import_loads_no_thread_pool():
    loaded = _fresh("import json, sys\nimport failprob\n"
                    "print(json.dumps(sorted({'concurrent.futures', 'failprob.bss'}"
                    " & set(sys.modules))))")
    assert loaded == []
