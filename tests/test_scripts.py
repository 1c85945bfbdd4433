"""Smoke tests: the two scripts run end to end and exit 0, and refuse flags
they cannot honour."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env,
    )


def test_run_suite_smoke():
    res = run_script("run_suite.py", "--n-scenes", "2")
    assert res.returncode == 0, res.stderr
    assert "full" in res.stdout and "depth baseline" in res.stdout


@pytest.mark.parametrize("flag, value, name", [
    ("--n-scenes", "0", "n-scenes"),
    ("--n-scenes", "-2", "n-scenes"),
    ("--seed", "-1", "seed"),
    ("--lam", "nan", "lam"),
    ("--depth-noise", "nan", "depth-noise"),
])
def test_run_suite_refuses_a_flag_it_cannot_honour(tmp_path, flag, value, name):
    """One error line naming the flag, exit 2, and no JSON file."""
    out = tmp_path / "suite.json"
    res = run_script("run_suite.py", "--n-scenes", "2", flag, value, "--json", out)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith(f"error: {name} must be") and len(res.stderr.splitlines()) == 1
    assert not out.exists()


def test_run_suite_json_path_it_cannot_write(tmp_path):
    """A --json whose directory does not exist is refused before any scene is
    built; one that cannot be opened (a directory) fails after the run.  Each
    is one error line and exit 2."""
    missing = tmp_path / "missing" / "suite.json"
    res = run_script("run_suite.py", "--n-scenes", "1", "--json", missing)
    assert res.returncode == 2, res.stderr
    assert res.stderr == f"error: json: {missing} is not in a directory that exists\n"
    assert "built" not in res.stdout and not missing.parent.exists()
    res = run_script("run_suite.py", "--n-scenes", "1", "--json", tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1
    assert "built 1 scenes" in res.stdout


def test_demo_pipeline_smoke(tmp_path):
    res = run_script("demo_pipeline.py", "--workdir", tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "report.json").is_file()
