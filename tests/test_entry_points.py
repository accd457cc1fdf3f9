"""The console-script entry, and the module entry point and the scripts run
as separate processes."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gcanon.generate import MAX_GENERATE_N

ROOT = Path(__file__).resolve().parent.parent


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def class_counts(text):
    """Per-section class-count columns of a script's tab-separated table."""
    sections, rows = [], None
    for line in text.splitlines():
        cols = line.split("\t")
        if cols[:2] == ["n", "classes"]:
            rows = []
            sections.append(rows)
        elif rows is not None and len(cols) > 1:
            rows.append(int(cols[1]))
    return sections


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


def test_count_classes_script():
    out = run_python("scripts/count_classes.py", "--max-n", "5")
    assert class_counts(out) == [[1, 2, 4, 11, 34]]


@pytest.mark.parametrize("max_n", ["10", "-1"])
def test_count_classes_script_enforces_its_cap(max_n):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "scripts/count_classes.py", "--max-n", max_n],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode != 0
    assert f"0..{MAX_GENERATE_N}" in proc.stderr


def test_ramsey_tables_script():
    out = run_python("scripts/ramsey_tables.py", "--max-n", "6",
                     "--cg-max-n", "5")
    assert class_counts(out) == [[1, 2, 3, 7, 13, 32], [1, 2, 3, 7, 13]]
