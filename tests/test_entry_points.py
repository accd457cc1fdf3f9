"""The console-script entry, and the module entry point run as a separate
process.  What the CLI commands print is tested in test_cli.py."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def project_scripts():
    """The [project.scripts] table of pyproject.toml, read as plain text:
    Python 3.10 has no tomllib."""
    scripts, inside = {}, False
    for line in (ROOT / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            name, target = line.split("=", 1)
            scripts[name.strip()] = target.strip().strip('"')
    return scripts


def test_console_script_entry_point():
    target = project_scripts()["gcanon"]
    assert target == "gcanon.cli:main"
    module, attr = target.split(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_python_m_gcanon():
    assert len(run_python("-m", "gcanon", "geng", "4").splitlines()) == 11

