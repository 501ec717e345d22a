"""scripts/ci_report.py on fixtures: `size`, `reach` and `cold` on a two-module
package, `digest` on a two-workload benchmark, `diff` on hand-made digests and
trees of default runs, and the CI workflow's calls of the tool."""

import hashlib
import importlib.util
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import reflectionless

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "scripts" / "ci_report.py"
SRC = str(Path(reflectionless.__file__).resolve().parent.parent)

# 8 + 24 lines; 6 + 11 of them blank, comment or docstring lines
PACKAGE = {
    "__init__.py": '''"""A package of two modules.

Its docstring spans three lines."""

# a comment line
from .cli import run_one, run_two

__all__ = ["run_one", "run_two"]
''',
    "cli.py": '''"""Two runners."""

import sys


def run_one(seed=0):
    """The runner with a seed."""
    total = seed
    if total > 100:
        total = 0       # not run by the default runs
    return {"total": total}


def run_two(size=3, scale=1.0):
    return {"size": size * scale}


_RUNNERS = {"one": run_one, "two": run_two}


def main(argv):
    params = {"seed": int(argv[-1])} if "--seed" in argv else {}
    _RUNNERS[argv[0]](**params)
    return 0
''',
}


def tool(cwd, *args):
    """Run the tool in cwd, whose src/ and bench/ come ahead of the package under test."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(TOOL), *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def write_tree(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_size_counts_the_package_in_the_current_directory(tmp_path):
    write_tree(tmp_path / "src" / "reflectionless", PACKAGE)
    assert tool(tmp_path, "size") == [
        "src/ lines: 32 (code only: 15)",
        "exported names: 2",
        "modules loaded by import reflectionless: 1 (cli)",
        "config keys: 3 (one 1, two 2)",
    ]


def test_reach_counts_statements_and_leaves_out_definitions_imports_and_docstrings(tmp_path):
    # counted: __all__, and in cli the four statements of run_one, run_two's
    # return, _RUNNERS and main's three; `total = 0` is the one not run
    write_tree(tmp_path / "src" / "reflectionless", PACKAGE)
    assert tool(tmp_path, "reach") == ["statements run by the default runs: 9 of 10"]


def test_cold_times_the_package_and_each_subcommand(tmp_path):
    main = "import sys\nfrom .cli import main\nsys.exit(main(sys.argv[1:]))\n"
    write_tree(tmp_path / "src" / "reflectionless", {**PACKAGE, "__main__.py": main})
    lines = tool(tmp_path, "cold")
    assert re.fullmatch(r"cold import of reflectionless \(median of 5\): \d+ us", lines[0])
    assert [re.sub(r"\d+\.\d\d s$", "T s", line) for line in lines[1:]] == [
        "cold one (median of 5): T s", "cold two (median of 5): T s"]


WORKLOADS = '''import types
import numpy as np

def ops(*runs):
    return types.SimpleNamespace(ops=[types.SimpleNamespace(run=run) for run in runs])

BY_NAME = {
    "pair": lambda seed, scale: ops(lambda: (np.array([1.0, SCALE]), 3 + 4j), lambda: 1 / 0),
    "flag": lambda seed, scale: ops(lambda: True),
}
'''


def test_digest_then_diff_names_the_op_that_changed(tmp_path):
    for side, scale in (("here", 2.0), ("base", 2.5)):
        write_tree(tmp_path / side, {"bench/workloads.py": WORKLOADS.replace("SCALE", str(scale))})
        tool(tmp_path / side, "digest", "../" + side + ".json")
    blob = np.array([1.0, 2.0]).tobytes() + b"\0" + repr(3 + 4j).encode()
    assert json.loads((tmp_path / "here.json").read_text()) == {
        "pair": [[hashlib.sha256(blob).hexdigest(), [[1.0, 2.0], [3.0, 4.0]]],
                 [hashlib.sha256(b"raised ZeroDivisionError: division by zero").hexdigest(), []]],
        "flag": [[hashlib.sha256(b"True").hexdigest(), []]],
    }
    assert tool(tmp_path, "diff", "here.json", "base.json", "here", "base")[:2] == [
        "benchmark op outputs of pair (2 ops): 1 ops differ, largest change 2.0e-01 "
        "of a value's largest |number|",
        "benchmark op outputs of flag (1 ops): outputs identical"]


def test_diff_takes_each_change_relative_to_the_larger_side(tmp_path):
    # op 0 moves 1 -> 3 and op 1 moves 4 -> 1: 2/3 and 3/4 of the larger side,
    # where a change relative to here (2) or to there (3) would read larger
    digests = {
        "here.json": {"w": [["a", [[1.0]]], ["b", [[4.0]]], ["c", [[5.0]]]],
                      "v": [["p", [[1.0, 2.0]]]], "same": [["s", [[1.0]]]]},
        "base.json": {"w": [["x", [[3.0]]], ["y", [[1.0]]], ["c", [[5.0]]]],
                      "v": [["q", [[1.0]]]], "same": [["s", [[1.0]]]]},
    }
    write_tree(tmp_path, {name: json.dumps(ops) for name, ops in digests.items()})
    (tmp_path / "out").mkdir()
    (tmp_path / "base" / "out").mkdir(parents=True)
    assert tool(tmp_path, "diff", "here.json", "base.json", "out", "base/out") == [
        "benchmark op outputs of w (3 ops): 2 ops differ, largest change 7.5e-01 "
        "of a value's largest |number|",
        "benchmark op outputs of v (1 ops): 1 ops differ, largest change 0.0e+00 "
        "of a value's largest |number| (1 ops not comparable number by number)",
        "benchmark op outputs of same (1 ops): outputs identical",
        "default runs against base: identical"]


def test_diff_matches_csv_cells_by_header_name(tmp_path):
    # x and y are swapped between the two files; a match by position would
    # count 4 cells and a largest change of 1
    write_tree(tmp_path, {
        "out/a/report.json": "1", "out/a/same.json": "{}", "out/b/only.txt": "",
        "out/a/t.csv": 'x,y,v,z\n1,2,"[1.0, 2.0]",7\n3,4,"[1.0, 2.0]",8\n',
        "base/out/a/report.json": "2", "base/out/a/same.json": "{}", "base/out/c/only.txt": "",
        "base/out/a/t.csv": 'y,x,v,w\n2,1.5,"[1.0, 2.5]",0\n4,3,"[1.0, 2.0]",0\n4,3,0,0\n'})
    subprocess.run(["git", "init", "-q", "base"], cwd=tmp_path, check=True)
    subprocess.run(["git", "-c", "user.name=ci", "-c", "user.email=ci@example.com", "commit", "-q",
                    "--allow-empty", "-m", "base"], cwd=tmp_path / "base", check=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path / "base", check=True,
                            capture_output=True, text=True).stdout[:7]
    assert tool(tmp_path, "diff", "here.json", "base.json", "out", "base/out") == [
        "benchmark op outputs: not digested in this checkout",
        f"default runs against {commit}: 4 files differ",
        "- Files out/a/report.json and base/out/a/report.json differ",
        "- Files out/a/t.csv and base/out/a/t.csv differ",
        "- Only in out: b",
        "- Only in base/out: c",
        "- out/a/t.csv: 2 numeric cells differ, largest relative change 3.33e-01 "
        "(3 rows against 4) (columns added: z) (columns removed: w)"]


def test_workflow_calls_only_declared_subcommands_and_holds_no_long_heredoc():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    for body in re.findall(r"<<-?\s*['\"]?(\w+)['\"]?\n(.*?)^\s*\1$", workflow, re.M | re.S):
        assert body[1].count("\n") <= 5, body[1]
    spec = importlib.util.spec_from_file_location("ci_report", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    calls = re.findall(r"ci_report\.py\"?\s+(.*)", workflow)
    assert {call.split()[0] for call in calls} == set(module.COMMANDS)
    for call in calls:
        words = shlex.split(call)
        name, *args = words[:next((i for i, w in enumerate(words) if w in {">>", "||"}),
                                  len(words))]
        inspect.signature(module.COMMANDS[name]).bind(*args)
