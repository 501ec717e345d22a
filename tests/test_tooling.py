"""The package as a fresh process sees it: what its modules import, what
`import reflectionless` loads, every CLI subcommand and the truncated Green
function without scipy, and the example scripts under scripts/ running to
completion."""

import ast
import importlib
import json
import os
import pkgutil
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


def test_runtime_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "reflectionless"}
    package = Path(reflectionless.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:                   # relative imports stay inside the package
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}:{node.lineno} imports {name}"


@pytest.mark.parametrize("module", ["reflectionless"] + [
    f"reflectionless.{m.name}" for m in pkgutil.iter_modules(reflectionless.__path__)
    if m.name != "__main__"])
def test_exported_names_resolve(module):
    # the layer trace of the benchmark wraps each name of __all__ via getattr
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what it does not define: {missing}"


def test_truncation_runs_without_scipy(tmp_path):
    code = ("import sys; sys.modules['scipy'] = None; import reflectionless as rf; "
            "j = rf.JacobiCoefficients.periodic([1.0], [0.0]); "
            "g = rf.green_diag(j, 0, 0.5j, method='truncation'); "
            "assert abs(g - 1j / 4.25 ** 0.5) <= 1e-12, g")
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_scipy_linalg(tmp_path):
    proc = run_python(["-c", "import reflectionless, sys; "
                             "assert 'scipy.linalg' not in sys.modules"], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command", ["thm11", "oracle", "dr", "aktable", "omega", "eval"])
def test_cli_runs_without_scipy(command, tmp_path):
    # scipy is needed only by the tests; an import of it anywhere on an
    # experiment's path fails here
    args = [command, "--out", str(tmp_path / "out")]
    if command == "eval":
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"extra": {
            "what": "measure",
            "xi": {"R": 3.0, "breakpoints": [-3.0, -2.0, 0.5, 0.8, 2.0, 3.0],
                   "values": [1.0, 0.5, 0.0, 1.0, 0.5]}}}))
        args += ["--config", str(cfg)]
    code = ("import sys; sys.modules['scipy'] = None; "
            "from reflectionless.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = run_python(["-c", code, *args], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script, tmp_path):
    proc = run_python([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


XI = {"R": 3.0, "breakpoints": [-3.0, -2.0, 2.0, 3.0], "values": [1.0, 0.5, 0.0]}


def omega_operator(**changes):
    """An omega config whose operator has a long enough window, with fields replaced."""
    op = {"n_lo": 0, "n_hi": 5, "a": [1.0] * 6, "b": [0.0, 0.5] * 3, "tail": {"kind": "free"}}
    return {"horizon": 2, "window": 2, "operator": {**op, **changes}}


@pytest.mark.parametrize("command, config", [
    ("thm11", {"samples": 2.5}),
    ("thm11", {"seed": "abc"}),
    ("thm11", {"extra": [1, 2]}),
    # runner extras of the wrong shape, each read where its runner uses it
    ("oracle", {"xi_widths": "abc"}),
    ("oracle", {"f_masses": [0.3, "x"]}),
    ("oracle", {"f_masses": [-1.0]}),
    ("oracle", {"xi_widths": [float("nan")]}),
    ("oracle", {"xi_widths": []}),
    ("eval", {"xi": XI, "points": [{}]}),
    ("dr", {"atoms": [1, 2]}),
    ("aktable", {"sets": [1]}),
    ("omega", {"cluster_threshold": float("nan")}),
    ("omega", omega_operator(tail={"kind": "bogus", "a": [2.0], "b": [0.5]})),
    ("omega", omega_operator(n_lo=0.7, n_hi=5.9)),
    ("omega", omega_operator(n_lo=False)),
], ids=["float-samples", "string-seed", "list-extra", "string-widths", "string-mass",
        "negative-mass", "nan-width", "empty-widths", "dict-point", "flat-atoms", "number-set", "nan-threshold", "unknown-tail-kind",
        "float-window-index", "bool-window-index"])
def test_bad_config_value_exits_two(command, config, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    proc = run_python(["-m", "reflectionless", command, "--config", str(cfg),
                       "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "config error" in proc.stderr and "Traceback" not in proc.stderr


def test_unwritable_output_directory_exits_two(tmp_path):
    (tmp_path / "file").write_text("")
    proc = run_python(["-m", "reflectionless", "omega", "--out",
                       str(tmp_path / "file" / "out")], tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "config error" in proc.stderr and "Traceback" not in proc.stderr
