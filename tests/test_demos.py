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
