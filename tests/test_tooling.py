"""The package as a fresh process sees it: what its modules import, what
`import reflectionless` loads, every CLI subcommand and the truncated Green
function without scipy, default CLI runs byte-identical across processes,
and the example scripts under scripts/ running to completion."""

import ast
import dataclasses
import functools
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import reflectionless
from reflectionless.cli import _RUNNERS

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def run_python(args, cwd):
    """Run the interpreter with the package under test importable from cwd,
    with a RuntimeWarning raised as an error, as in the in-process tests."""
    src = str(Path(reflectionless.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error::RuntimeWarning", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})


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


def test_value_types_are_slotted():
    # a frozen dataclass holds its fields in slots, with no per-instance __dict__, unless
    # it memoizes with cached_property, which needs one
    slotted, memoized, missing = set(), set(), []
    for info in pkgutil.iter_modules(reflectionless.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"reflectionless.{info.name}")
        for name, cls in inspect.getmembers(mod, inspect.isclass):
            if cls.__module__ != mod.__name__ or not dataclasses.is_dataclass(cls) \
                    or not cls.__dataclass_params__.frozen:
                continue
            if any(isinstance(v, functools.cached_property) for v in vars(cls).values()):
                memoized.add(name)
            elif "__slots__" in vars(cls):
                slotted.add(name)
            else:
                missing.append(f"{mod.__name__}.{name}")
    assert not missing, f"frozen dataclasses without __slots__: {missing}"
    assert memoized == {"SpectralMeasure"} and {"StepFunction", "JacobiCoefficients"} <= slotted


@pytest.mark.parametrize("module", ["reflectionless"] + [
    f"reflectionless.{m.name}" for m in pkgutil.iter_modules(reflectionless.__path__)
    if m.name != "__main__"])
def test_exported_names_resolve(module):
    # the layer trace of the benchmark wraps each name of __all__ via getattr
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names what it does not define: {missing}"


LAYERS = ("errors", "sets", "krein", "operators", "gapflow", "measures", "inverse", "extremal")


def test_package_exports_are_the_layers_exports_in_order():
    layers = [importlib.import_module(f"reflectionless.{name}") for name in LAYERS]
    assert all("__all__" in vars(mod) for mod in layers)
    assert reflectionless.__all__ == [name for mod in layers for name in mod.__all__]
    assert len(set(reflectionless.__all__)) == len(reflectionless.__all__)


def test_import_does_not_load_the_cli_runners(tmp_path):
    proc = run_python(["-c", "import reflectionless, sys; loaded = {'reflectionless.experiments', "
                             "'reflectionless.cli', 'csv', 'json'} & set(sys.modules); "
                             "assert not loaded, loaded"], tmp_path)
    assert proc.returncode == 0, proc.stderr


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


@pytest.mark.parametrize("command", list(_RUNNERS))
def test_cli_runs_without_scipy(command, tmp_path):
    # scipy is needed only by the tests; an import of it anywhere on an
    # experiment's path fails here
    args = [command, "--out", str(tmp_path / "out")]
    code = ("import sys; sys.modules['scipy'] = None; "
            "from reflectionless.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = run_python(["-c", code, *args], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_default_runs_are_byte_identical_across_processes(tmp_path):
    # each subcommand twice, as fresh processes, into two output directories
    for command in _RUNNERS:
        first, second = (tmp_path / run / command for run in ("first", "second"))
        for out in (first, second):
            proc = run_python(["-m", "reflectionless", command, "--out", str(out)], tmp_path)
            assert proc.returncode == 0, proc.stdout + proc.stderr
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir()) and "report.json" in names
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), \
                f"{command}/{name} differs between two runs"


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs(script, tmp_path):
    proc = run_python([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def omega_operator(**changes):
    """An omega config whose operator has a long enough window, with fields replaced."""
    op = {"n_lo": 0, "n_hi": 5, "a": [1.0] * 6, "b": [0.0, 0.5] * 3, "tail": {"kind": "free"}}
    return {"horizon": 2, "window": 2, "operator": {**op, **changes}}


@pytest.mark.parametrize("command, config", [
    ("thm11", {"samples": 2.5}),
    ("thm11", {"seed": "abc"}),
    ("thm11", {"extra": [1, 2]}),
    # runner parameters of the wrong shape, each read where its runner uses it
    ("oracle", {"xi_widths": "abc"}),
    ("oracle", {"f_masses": [0.3, "x"]}),
    ("oracle", {"f_masses": [-1.0]}),
    ("oracle", {"xi_widths": [float("nan")]}),
    ("oracle", {"xi_widths": []}),
    ("dr", {"atoms": [1, 2]}),
    ("aktable", {"sets": [1]}),
    ("omega", {"cluster_threshold": float("nan")}),
    ("omega", omega_operator(tail={"kind": "bogus", "a": [2.0], "b": [0.5]})),
    ("omega", omega_operator(n_lo=0.7, n_hi=5.9)),
    ("omega", omega_operator(n_lo=False)),
    # numbers must be JSON numbers: no bool or string stands in for one
    ("dr", {"semicircle_scale": True}),
    ("dr", {"semicircle_scale": "2"}),
    ("oracle", {"xi_widths": ["0.04"]}),
    ("aktable", {"sets": [[["0", "4"]]]}),
    ("thm11", {"k_intervals": [[False, 4]]}),
    ("omega", omega_operator(a=["2.0"] + [1.0] * 5)),
    ("omega", omega_operator(b=[True] + [0.0] * 5)),
    ("omega", omega_operator(tail={"kind": "constant", "a": "1.5", "b": 0.0})),
    ("omega", omega_operator(tail={"kind": "periodic", "a": [True, 1.0], "b": [0.0, 0.0]})),
    # a JSON integer beyond float64
    ("dr", {"semicircle_scale": 10 ** 400}),
    ("oracle", {"xi_widths": [10 ** 400]}),
    ("thm11", {"k_intervals": [[-2, 10 ** 400]]}),
    ("aktable", {"sets": [[[0, 10 ** 400]]]}),
    ("dr", {"atoms": [[10 ** 400, 0.3]]}),
    ("omega", {"cluster_threshold": 10 ** 400}),
    ("omega", omega_operator(a=[10 ** 400] + [1.0] * 5)),
    ("oracle", {"n_coeffs": 10 ** 400}),
], ids=["float-samples", "string-seed", "list-extra", "string-widths", "string-mass",
        "negative-mass", "nan-width", "empty-widths", "flat-atoms", "number-set", "nan-threshold", "unknown-tail-kind",
        "float-window-index", "bool-window-index",
        "bool-scale", "string-scale", "string-width", "string-set", "bool-interval",
        "string-operator", "bool-operator", "string-tail", "bool-tail",
        "huge-scale", "huge-width", "huge-interval", "huge-set", "huge-atom", "huge-threshold",
        "huge-operator", "huge-depth"])
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
