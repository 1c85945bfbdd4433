"""Smoke tests: the two scripts run end to end and exit 0, and refuse flags
they cannot honour."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scenescale import ObjectiveConfig

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


def test_run_suite_help_prints_the_protocol_defaults():
    """--help shows each default as read from synth's signatures and from
    ObjectiveConfig, so renaming a parameter there fails here."""
    res = run_script("run_suite.py", "--help")
    assert res.returncode == 0, res.stderr
    text = " ".join(res.stdout.split())
    assert "scenes in the suite (default: 50)" in text
    assert "the suite's seed (default: 1000)" in text
    assert f"ObjectiveConfig's (default: {ObjectiveConfig().lam})" in text
    assert "input depths (default: 0.2)" in text


def test_demo_pipeline_smoke(tmp_path):
    """The demo's synth -> fit-plane -> optimize -> evaluate chain, at the
    default lambda, restores every pair's depth and height order."""
    res = run_script("demo_pipeline.py", "--workdir", tmp_path)
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["d_ord"] == doc["h_ord"] == 100.0


def test_demo_pipeline_refuses_a_workdir_that_is_a_file(tmp_path):
    """One error line and exit 2 before any CLI step runs."""
    afile = tmp_path / "afile"
    afile.write_text("")
    res = run_script("demo_pipeline.py", "--workdir", afile)
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("error: workdir: ") and len(res.stderr.splitlines()) == 1
    assert res.stdout == "" and afile.read_text() == ""
