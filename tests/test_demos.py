"""Every demo script runs to completion as a user would start it."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polyeval

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(polyeval.__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "fixtures" / "golden"


def run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = run_python([str(demo)], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr


def test_import_loads_no_scipy(tmp_path):
    # scipy.optimize and scipy.special are imported inside the functions that
    # use them, so commands that never assign or compute a p-value skip them
    code = ("import sys, polyeval, polyeval.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = run_python(["-c", code], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"



# an eval top-k report, the scipy.optimize modules loaded after it, and the
# solve_max results on a fixed batch of tie-dense matrices
SOLVER_PROBE = """
import sys
import numpy as np
from polyeval.assignment import solve_max
from polyeval.cli import run
run(["eval", "--examples", "unified.jsonl", "--generations", "g_dbs.jsonl",
     "--metric", "bleu", "--topk", "3", "--matching", "bipartite"])
print("modules:", [m for m in ("scipy.optimize", "scipy.optimize._lsap") if m in sys.modules])
rng = np.random.default_rng(5)
for _ in range(200):
    shape = rng.integers(1, 8, size=2)
    near = rng.integers(-1, 2, size=shape) * 1e-10
    result = solve_max(rng.integers(0, 3, size=shape) + near)
    print(result.pairs, result.unique)
"""


def probe_solver(preload):
    result = run_python(["-c", preload + SOLVER_PROBE], cwd=GOLDEN)
    assert result.returncode == 0, result.stderr
    report, _, rest = result.stdout.partition("modules: ")
    modules, _, solved = rest.partition("\n")
    return report, modules, solved


def test_eval_loads_only_the_solver_extension_and_both_paths_agree():
    report, modules, solved = probe_solver("")
    assert modules == "['scipy.optimize._lsap']"
    assert report.startswith("{") and "True" in solved and "False" in solved
    # the public import loaded first: the fallback path
    report_public, modules_public, solved_public = probe_solver("import scipy.optimize\n")
    assert modules_public == "['scipy.optimize', 'scipy.optimize._lsap']"
    assert (report_public, solved_public) == (report, solved)


def test_public_import_reuses_the_loaded_solver(tmp_path):
    code = ("import sys; from polyeval.assignment import solve_max; solve_max([[1.0]]); "
            "lsap = sys.modules['scipy.optimize._lsap']; import scipy.optimize; "
            "print(scipy.optimize.linear_sum_assignment is lsap.linear_sum_assignment)")
    result = run_python(["-c", code], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"
