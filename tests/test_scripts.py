"""Smoke tests: the two scripts run end to end and exit 0."""
import os
import subprocess
import sys
from pathlib import Path

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


def test_demo_pipeline_smoke(tmp_path):
    res = run_script("demo_pipeline.py", "--workdir", tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "report.json").is_file()
