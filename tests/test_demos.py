"""Every demo script runs to completion as a user would start it."""
import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polyeval
from polyeval import assignment

from pipeline_steps import write_jsonl

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
    # numpy, scipy.optimize and scipy.special are imported inside the functions
    # that use them, so a command loads none of them at start-up
    code = ("import sys, polyeval, polyeval.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))")
    result = run_python(["-c", code], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_import_loads_no_layer(tmp_path):
    # the package resolves a public name or a submodule on first use
    code = ("import sys, polyeval; print(sorted(m for m in sys.modules if 'polyeval.' in m)); "
            "print(polyeval.decode.__name__, polyeval.polyagg.__module__)")
    result = run_python(["-c", code], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\npolyeval.decode polyeval.scoring\n"


# runs ``python -m polyeval ARGS`` and, at exit, prints which heavy modules
# and which polyeval layers the command loaded
HEAVY_PROBE = """
import atexit, runpy, sys
HEAVY = ("numpy", "polyeval._lsap", "scipy.optimize", "scipy.special")
atexit.register(lambda: print(
    "loaded:", [m for m in HEAVY if m in sys.modules],
    "layers:", sorted(m[9:] for m in sys.modules if m.startswith("polyeval.")
                      and not m.startswith("polyeval._")), file=sys.stderr))
sys.argv[0] = "polyeval"
runpy.run_module("polyeval", run_name="__main__", alter_sys=True)
"""
LM, EXAMPLES, DBS = (str(GOLDEN / name) for name in
                     ("toy_mono.lm.json", "unified.jsonl", "g_dbs.jsonl"))
DECODE = ["decode", "--lm", LM, "--examples", EXAMPLES, "--beams", "10", "--max-len", "8",
          "--out", "g.jsonl"]
# the layers every command loads before it dispatches, --version included
STARTUP = ["cli", "core", "dataio", "errors", "report"]
EVAL_LAYERS = ["assignment", "scoring", "textmetrics"]
ANNOTATIONS = [
    {"task": "reasonability", "system": system, "item_id": f"i{i}", "annotator": annotator,
     "label": "always_likely" if (i + (annotator == "B")) % 3 else "never_farfetched"}
    for system in ("X", "Y") for i in range(6) for annotator in ("A", "B")
]
SCORES = [{"name": name, "values": [1.0, 2.0 + i, 4.0 * i]}
          for i, name in enumerate(("m1", "m2", "m3"))]


@pytest.mark.parametrize("argv, loaded, layers", [
    (["--version"], [], []),
    (["normalize", "--in", str(GOLDEN / "raw_corpus.jsonl"), "--source", "generic",
      "--out", "u.jsonl"], [], []),
    (["datastats", "--examples", EXAMPLES], [], ["diversity"]),
    (DECODE + ["--strategy", "beam"], [], ["decode"]),
    (DECODE + ["--strategy", "dbs", "--groups", "10", "--penalty", "0.5"], [], ["decode"]),
    (DECODE + ["--strategy", "poly", "--poly-from-beams"], [], ["decode"]),
    (["diversity", "--generations", DBS, "--topk", "5",
      "--gold-clusters", str(GOLDEN / "clusters.jsonl")], [], ["diversity"]),
    (DECODE + ["--strategy", "poly"], ["numpy"], ["decode"]),
    (["diversity", "--generations", DBS, "--topk", "5",
      "--embeddings", str(GOLDEN / "embeddings.jsonl")], ["numpy"], ["diversity"]),
    (["eval", "--examples", EXAMPLES, "--generations", DBS, "--metric", "bleu",
      "--topk", "1"], ["numpy"], EVAL_LAYERS),
    (["eval", "--examples", EXAMPLES, "--generations", DBS, "--metric", "bleu",
      "--topk", "3"], ["numpy", "polyeval._lsap"], EVAL_LAYERS),
    (["stats", "agree", "--in", "ann.jsonl"], [], ["stats"]),
    (["stats", "mcnemar", "--in", "ann.jsonl", "--repeats", "3"],
     ["numpy", "scipy.special"], ["stats"]),
    (["stats", "prop", "--successes", "93,75", "--trials", "100,100"],
     ["numpy", "scipy.special"], ["stats"]),
    (["stats", "ttest", "--scores", "s.jsonl"], ["numpy", "scipy.special"], ["stats"]),
], ids=["version", "normalize", "datastats", "decode_beam", "decode_dbs",
        "decode_poly_from_beams", "diversity_gold_clusters", "decode_poly",
        "diversity_embeddings", "eval_top1", "eval_topk", "stats_agree", "stats_mcnemar",
        "stats_prop", "stats_ttest"])
def test_each_command_loads_only_the_heavy_modules_it_uses(tmp_path, argv, loaded, layers):
    write_jsonl(tmp_path / "ann.jsonl", ANNOTATIONS)
    write_jsonl(tmp_path / "s.jsonl", SCORES)
    result = run_python(["-c", HEAVY_PROBE, *argv], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == f"loaded: {loaded} layers: {sorted(STARTUP + layers)}\n"


# runs ``python -m polyeval ARGS`` and, at exit, prints which of dataclasses
# and inspect the command loaded
STDLIB_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print([m for m in ("dataclasses", "inspect") if m in sys.modules],
                              file=sys.stderr))
sys.argv[0] = "polyeval"
runpy.run_module("polyeval", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["normalize", "--in", str(GOLDEN / "raw_corpus.jsonl"), "--source", "generic",
     "--out", "u.jsonl"],
    ["datastats", "--examples", EXAMPLES],
    DECODE + ["--strategy", "beam"],
    DECODE + ["--strategy", "dbs", "--groups", "10", "--penalty", "0.5"],
], ids=["version", "normalize", "datastats", "decode_beam", "decode_dbs"])
def test_a_command_without_numpy_starts_without_dataclasses_or_inspect(tmp_path, argv):
    # records are NamedTuples; numpy imports inspect itself
    result = run_python(["-c", STDLIB_PROBE, *argv], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == "[]\n"


# a fixed batch of tie-dense matrices, drawn in a probe and in this process
TIE_DENSE = """
rng = np.random.default_rng(5)
batch = []
for _ in range(200):
    shape = rng.integers(1, 8, size=2)
    near = rng.integers(-1, 2, size=shape) * 1e-10
    batch.append(rng.integers(0, 3, size=shape) + near)
"""
# an eval top-k report, whether a scipy.optimize module and the solver
# extension are loaded after it, and the solve_max results on the batch
SOLVER_PROBE = """
import sys
import numpy as np
from polyeval.assignment import solve_max
from polyeval.cli import run
run(["eval", "--examples", "unified.jsonl", "--generations", "g_dbs.jsonl",
     "--metric", "bleu", "--topk", "3", "--matching", "bipartite"])
print("modules:", any(m.startswith("scipy.optimize") for m in sys.modules),
      "polyeval._lsap" in sys.modules)
""" + TIE_DENSE + """
for matrix in batch:
    result = solve_max(matrix)
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
    assert modules == "False True"
    assert report.startswith("{") and "True" in solved and "False" in solved
    # scipy.optimize loaded first: the solver still loads the extension alone
    report_public, modules_public, solved_public = probe_solver("import scipy.optimize\n")
    assert modules_public == "True True"
    assert (report_public, solved_public) == (report, solved)


def test_public_import_fallback_gives_the_same_assignments(monkeypatch):
    namespace = {"np": np}
    exec(TIE_DENSE, namespace)
    solved = [(r.pairs, r.unique) for r in map(assignment.solve_max, namespace["batch"])]
    # no extension file is found, so the uncached loader takes the public import
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    fallback = assignment._solver.__wrapped__()
    import scipy.optimize

    assert fallback is scipy.optimize.linear_sum_assignment
    monkeypatch.setattr(assignment, "_solver", lambda: fallback)
    assert [(r.pairs, r.unique) for r in map(assignment.solve_max, namespace["batch"])] == solved


def test_scipy_optimize_loads_its_own_solver_after_polyeval(tmp_path):
    # the solver touches neither the import system nor scipy's namespace
    code = ("import sys; finders = list(sys.meta_path); "
            "from polyeval.assignment import solve_max; "
            "matrix = [[1.0, 2.0, 0.0], [3.0, 0.5, 1.0], [0.0, 1.0, 4.0]]; "
            "pairs = list(solve_max(matrix).pairs); "
            "print(sys.meta_path == finders, [m for m in sys.modules if m.split('.')[0] == 'scipy']); "
            "import scipy.optimize; "
            "rows, cols = scipy.optimize._lsap.linear_sum_assignment(matrix, maximize=True); "
            "print(scipy.optimize._lsap.__name__, list(zip(rows.tolist(), cols.tolist())) == pairs)")
    result = run_python(["-c", code], cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True []\nscipy.optimize._lsap True\n"
