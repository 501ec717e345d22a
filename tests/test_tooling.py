"""The package as a fresh process sees it: what `import reflectionless`
loads, and the example scripts under scripts/ running to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import reflectionless

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def run_python(args, cwd):
    """Run the interpreter with the package under test importable from cwd."""
    src = str(Path(reflectionless.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})


def test_import_does_not_load_scipy_linalg(tmp_path):
    proc = run_python(["-c", "import reflectionless, sys; "
                             "assert 'scipy.linalg' not in sys.modules"], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script, tmp_path):
    proc = run_python([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
