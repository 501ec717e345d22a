#!/usr/bin/env python3
"""Print the CI summary lines of the tree in the current directory, one job each:
size, reach, cold, digest FILE and diff HERE THERE OUT_HERE OUT_THERE.  All but
diff and mutants import ./src and ./bench, so they also run in a checkout without
this file.  ab THERE PAIRS FILE times the benchmark here against the tree THERE
and writes FILE.  mutants [NAME ...] runs the mutation checks of MUTANTS, or those
named, and fails unless each gets its expected verdict."""

import ast, contextlib, csv, glob, hashlib, inspect, io, json, math, os, platform
import shlex, shutil, statistics, subprocess, sys, tempfile, time
from pathlib import Path

def sources():
    """Each src/ module's path, text, docstrings and the statements that reach counts."""
    skip = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)
    for path in sorted(glob.glob(os.path.abspath("src/reflectionless/*.py"))):
        text = Path(path).read_bytes().decode("utf-8")
        tree = ast.parse(text)
        docs = [node.body[0] for node in ast.walk(tree) if isinstance(node, (ast.Module, *skip[:3]))
                and ast.get_docstring(node, clean=False) is not None]
        yield path, text, docs, [node for node in ast.walk(tree) if isinstance(node, ast.stmt)
                                 and not isinstance(node, skip) and node not in docs]

def size():
    lines = code = 0
    for _, text, docs, _ in sources():
        rows = text.splitlines()
        skip = {i for i, row in enumerate(rows, 1) if row.strip()[:1] in ("", "#")}
        skip.update(i for doc in docs for i in range(doc.lineno, doc.end_lineno + 1))
        lines, code = lines + text.count("\n"), code + len(rows) - len(skip)
    print(f"src/ lines: {lines} (code only: {code})")
    import reflectionless
    loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("reflectionless."))
    print(f"exported names: {len(reflectionless.__all__)}")
    print(f"modules loaded by import reflectionless: {len(loaded)} ({', '.join(loaded)})")
    from reflectionless.cli import _RUNNERS
    keys = {name: len(inspect.signature(run).parameters) for name, run in _RUNNERS.items()}
    print(f"config keys: {sum(keys.values())} ({', '.join(f'{k} {n}' for k, n in keys.items())})")

def reach():
    hit = set()
    # every line of the package's frames, from before its import, so that module bodies count
    trace = lambda frame, event, arg: event == "line" and hit.add(
        (os.path.abspath(frame.f_code.co_filename), frame.f_lineno)) or trace
    sys.settrace(lambda frame, event, arg: trace if frame.f_globals.get(
        "__name__", "").startswith("reflectionless") else None)
    try:
        from run_all_experiments import run_all
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            run_all("7", out)
    finally:
        sys.settrace(None)
    counted = [(path, node.lineno) for path, _, _, nodes in sources() for node in nodes]
    print(f"statements run by the default runs: {sum(s in hit for s in counted)} of {len(counted)}")

def cold():
    def run(*args):     # the wall time and the stderr of a fresh interpreter
        start = time.perf_counter()
        log = subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": "src"},
                             capture_output=True, text=True, check=True).stderr
        return time.perf_counter() - start, log
    us = [int(row.split("|")[1]) for _ in range(5)     # the package's cumulative import time
          for row in run("-X", "importtime", "-c", "import reflectionless")[1].splitlines()
          if row.split("|")[-1].strip() == "reflectionless"]
    print(f"cold import of reflectionless (median of 5): {statistics.median(us)} us")
    from reflectionless.cli import _RUNNERS
    for name in _RUNNERS:
        with tempfile.TemporaryDirectory() as out:
            times = [run("-m", "reflectionless", name, "--out", f"{out}/{k}")[0] for k in range(5)]
        print(f"cold {name} (median of 5): {statistics.median(times):.2f} s")

def items(x):
    """A value's items, tuples and lists taken item by item."""
    return [y for item in x for y in items(item)] if isinstance(x, (tuple, list)) else [x]

def digest(file):
    """Write {workload: [[sha256, numbers], ...]} for the benchmark's ops (seed 903, scale 0.3):
    the sha256 of each op's output and the numbers of each of its values."""
    import numpy as np
    import reflectionless as rf
    from workloads import BY_NAME
    def blob(x):       # arrays and windows by their bytes, every other value by repr
        if isinstance(x, rf.JacobiCoefficients):
            return x.a_window.tobytes() + x.b_window.tobytes() + repr(x.tail).encode()
        return x.tobytes() if isinstance(x, np.ndarray) else repr(x).encode()
    def numbers(x):    # complex numbers as their real, then their imaginary parts
        if isinstance(x, rf.JacobiCoefficients):
            x = np.concatenate((x.a_window, x.b_window))
        elif isinstance(x, rf.ExtremalResult):
            x = np.array((x.constant, x.objective_value, *x.jumps.masses))
        elif isinstance(x, rf.StepFunction):
            x = np.array((*x.breakpoints, *x.values))
        elif isinstance(x, (int, float, complex)):
            x = np.array((x,))
        if not (isinstance(x, np.ndarray) and x.dtype.kind in "iufc"):
            return []
        return [np.concatenate((x.real, x.imag) if x.dtype.kind == "c" else (x,), None).tolist()]
    def run(op):
        try:
            result = items(op.run())
            blobs, nums = list(map(blob, result)), [n for x in result for n in numbers(x)]
        except Exception as exc:
            blobs, nums = [f"raised {type(exc).__name__}: {exc}".encode()], []
        return hashlib.sha256(b"\0".join(blobs)).hexdigest(), nums
    with open(file, "w") as out:
        json.dump({name: [run(op) for op in build(903, 0.3).ops]
                   for name, build in BY_NAME.items()}, out)

def change(xs, ys):
    """max |x - y| over the largest |number| of both, NaN if not comparable."""
    if len(xs) != len(ys) or not all(map(math.isfinite, xs + ys)):
        return math.nan
    scale = max(map(abs, xs + ys), default=0.0)
    return max((abs(x - y) / scale for x, y in zip(xs, ys) if x != y), default=0.0)

def csv_change(a, b):
    """The cells whose numbers differ (matched by row and by header name), their largest
    relative change, and the rows and columns added or removed."""
    here, there = (list(csv.reader(io.StringIO(Path(path).read_text()))) for path in (a, b))
    head_here, head_there = (rows[0] if rows else [] for rows in (here, there))
    cells, worst = 0, 0.0
    for row_here, row_there in zip(here[1:], there[1:]):
        by_name = dict(zip(head_there, row_there))
        for name, x in zip(head_here, row_here):
            y = by_name.get(name, x)
            with contextlib.suppress(ValueError):     # a cell holding a JSON list counts once
                xs, ys = ([float(v) for v in items(json.loads(cell)) if isinstance(v, (int, float))]
                          for cell in (x, y))
                if x == y or not xs or len(xs) != len(ys):
                    continue
                changes = [abs(u - v) / max(abs(u), abs(v)) for u, v in zip(xs, ys)
                           if u != v and math.isfinite(u) and math.isfinite(v)]
                cells += bool(changes)
                worst = max([worst, *changes])
    shape = "" if len(here) == len(there) else f" ({len(here)} rows against {len(there)})"
    for how, names in (("added", [c for c in head_here if c not in head_there]),
                       ("removed", [c for c in head_there if c not in head_here])):
        shape += f" (columns {how}: {', '.join(names)})" if names else ""
    print(f"- {a}: {cells} numeric cells differ, largest relative change {worst:.2e}{shape}")

def diff(here, there, out_here, out_there):
    ops_here, ops_there = (json.loads(Path(f).read_text()) if os.path.exists(f) else {}
                            for f in (here, there))
    if not ops_here:
        print("benchmark op outputs: not digested in this checkout")
    for name, mine in ops_here.items():
        theirs = ops_there.get(name, [])
        padded = theirs + [["", []]] * len(mine)        # ops whose sha256 matches none
        pairs = [(x, y) for (a, x), (b, y) in zip(mine, padded) if a != b]
        moved = [[change(x, y) for x, y in zip(xs, ys)] if len(xs) == len(ys) else []
                 for xs, ys in pairs]
        unlike = sum(not m or any(map(math.isnan, m)) for m in moved)
        worst = max((c for m in moved for c in m if not math.isnan(c)), default=0.0)
        differ = len(pairs) + max(0, len(theirs) - len(mine))
        print(f"benchmark op outputs of {name} ({len(mine)} ops): " + (
            f"{differ} ops differ, largest change {worst:.1e} of a value's largest |number|"
            + (f" ({unlike} ops not comparable number by number)" if unlike else "")
            if differ else "outputs identical"))
    # the parent is named by the commit checked out above its tree, else by that directory
    parent = os.path.dirname(out_there) or "."
    commit = subprocess.run(["git", "-C", parent, "rev-parse", "HEAD"],
                            capture_output=True, text=True).stdout[:7] or parent
    proc = subprocess.run(["diff", "-rq", out_here, out_there], capture_output=True, text=True)
    lines = (proc.stdout + proc.stderr).splitlines()
    print(f"default runs against {commit}: "
          + (f"{len(lines)} files differ" if lines else "identical"))
    for line in lines[:20]:
        print(f"- {line}")
    for words in (line.split() for line in lines):
        if words[0] == "Files" and words[1].endswith(".csv"):
            csv_change(words[1], words[3])

def ab(there, pairs, file):
    """Write FILE in the BENCH_<pr>.json layout: for each workload of ./BENCHMARK.json,
    PAIRS pairs of fresh `bench/run.py --seed 903 --seconds 20` runs, one in THERE (the
    parent) and one here, odd pairs parent first, after deleting every __pycache__ under
    src/ and bench/ of both trees; per end-to-end metric, each side's median and
    quartiles, the ratio of the medians and the pairs the change wins."""
    import numpy as np
    spec = json.loads(Path("BENCHMARK.json").read_text())
    for cache in [c for tree in (there, ".") for top in ("src", "bench")
                  for c in Path(tree, top).rglob("__pycache__")]:
        shutil.rmtree(cache)    # so that both trees start without a bytecode cache
    def run(tree, name):   # the last line of a run: correct, attempted, failed, metrics
        last = json.loads(subprocess.run(
            [sys.executable, "bench/run.py", "--workload", name, "--seed", "903", "--seconds",
             "20"], cwd=tree, capture_output=True, text=True, check=True).stdout.splitlines()[-1])
        return {**{k: last[k] for k in ("correct", "attempted", "failed")},
                **{k: v["value"] for k, v in last["metrics"].items()}}
    runs, summary = [], {}
    for name in (w["name"] for w in spec["workloads"]):
        for pair in range(1, int(pairs) + 1):
            for side in ("parent", "change")[::1 if pair % 2 else -1]:
                runs.append({"side": side, "pair": pair, "workload": name, "seed": 903,
                             "result": run(there if side == "parent" else ".", name)})
        parent, change = ([r["result"] for r in runs if r["workload"] == name and r["side"] == s]
                          for s in ("parent", "change"))
        entry = summary[f"{name}@903"] = {
            "seed": 903, "pairs": int(pairs), "attempted_per_run": parent[0]["attempted"],
            "failed": {"parent": sum(r["failed"] for r in parent),
                       "change": sum(r["failed"] for r in change)}}
        for metric in spec["end_to_end"]:
            p, c = ([r[metric["name"]] for r in side] for side in (parent, change))
            sign = 1.0 if metric["better"] == "lower" else -1.0
            (p1, pm, p3), (c1, cm, c3) = (np.percentile(x, [25, 50, 75]).tolist() for x in (p, c))
            entry[metric["name"]] = {
                "parent_median": pm, "parent_q1": p1, "parent_q3": p3, "change_median": cm,
                "change_q1": c1, "change_q3": c3, "change_over_parent": cm / pm,
                "change_wins": f"{sum(sign * (y - x) < 0 for x, y in zip(p, c))}/{len(p)}"}
    describe = lambda tree: subprocess.run(["git", "-C", tree, "describe", "--always", "--dirty"],
                                           capture_output=True, text=True).stdout.strip() or tree
    Path(file).write_text(json.dumps({
        "change": describe("."), "parent": describe(there),
        "command": "python3 bench/run.py --workload <workload> --seed 903 --seconds 20",
        "host": f"{os.cpu_count()} CPUs, Python {platform.python_version()}, numpy "
                f"{np.__version__}, PYTHONDONTWRITEBYTECODE "
                f"{'set' if os.environ.get('PYTHONDONTWRITEBYTECODE') else 'unset'}",
        "method": f"{pairs} pairs of fresh runs per workload of BENCHMARK.json, one in each "
                  "tree, odd pairs parent first, after deleting every __pycache__ under src/ "
                  "and bench/ of both trees before the first pair; the result is the last line of bench/run.py; "
                  "quartiles by linear interpolation; change_wins counts the pairs in which "
                  "the change reads better by the metric's 'better'",
        "summary": summary, "runs": runs}, indent=1) + "\n")

# name, file, its old text (found there exactly once), the new text, the tests to run, and
# the expected verdict: "killed", or "equivalent: " and the measured reason it survives
MUTANTS = [
    ("certificate 1e-12 -> 1e-9", "src/reflectionless/inverse.py",
     "best = None, 1e-12 * _scale(nu)", "best = None, 1e-9 * _scale(nu)",
     "tests/test_inverse.py::TestReports", "killed"),
    ("certified start without pi", "src/reflectionless/inverse.py",
     "math.ceil(math.pi * n_coeffs + ", "math.ceil(n_coeffs + ",
     "tests/test_inverse.py::TestReports", "killed"),
    ("pullback rule without its jump atoms", "src/reflectionless/inverse.py",
     "return np.concatenate((t, x)), np.concatenate((w, mass))", "return t, w",
     "tests/test_inverse.py::TestPullbackRule", "killed"),
    ("pullback atoms at zeta^(2n)", "src/reflectionless/inverse.py",
     "np.expm1(-(2 * n + 2) * ", "np.expm1(-(2 * n) * ",
     "tests/test_inverse.py::TestPullbackRule", "killed"),
    ("pullback weights without sin(theta_k)", "src/reflectionless/inverse.py",
     "((n + 1) * np.tile(sines, len(bands)) * slope)", "((n + 1) * slope)",
     "tests/test_inverse.py::TestPullbackRule", "killed"),
    ("on-band factor 1/2 -> 1/2 (1 + 1e-9)", "src/reflectionless/measures.py",
     "scale = 0.5\n", "scale = 0.5 * (1 + 1e-9)\n",
     "tests/test_inverse.py::TestPullbackRule", "killed"),
    ("one-band amplitude (d - c)/4 -> (d - c)/4 (1 + 1e-9)", "src/reflectionless/inverse.py",
     "((c + d) / 2, (d - c) / 4)", "((c + d) / 2, (d - c) / 4 * (1 + 1e-9))",
     "tests/test_inverse.py::TestOneBand", "killed"),
    ("arc kernel in one block", "src/reflectionless/krein.py",
     "    if blocks > 1:", "    if False:",
     "tests/test_krein.py::TestArcKernelBlocks", "killed"),
]


def mutants(*names):
    """Each entry of MUTANTS, or each named one, on a copy of this tree with its old text
    replaced: pytest -x on its tests, and the verdict (killed, survived, refused where the
    old text is not found exactly once, or error), its time and the expected one."""
    wrong = 0
    for name, file, old, new, tests, want in MUTANTS:
        if names and name not in names:
            continue
        start, text = time.perf_counter(), Path(file).read_text(encoding="utf-8")
        verdict = f"refused (old text found {text.count(old)} times)"
        if text.count(old) == 1:
            with tempfile.TemporaryDirectory() as tree:
                shutil.copytree(".", tree, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
                    ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
                Path(tree, file).write_text(text.replace(old, new), encoding="utf-8")
                code = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                                       "no:cacheprovider", *shlex.split(tests)], cwd=tree,
                                      env={**os.environ, "PYTHONPATH": "src"},
                                      capture_output=True).returncode
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
        wrong += verdict != ("killed" if want == "killed" else "survived")
        print(f"- {name}: {verdict} in {time.perf_counter() - start:.1f} s, expected {want}")
    print(f"mutants: {wrong} not as expected")
    sys.exit(1 if wrong else 0)

COMMANDS = {"size": size, "reach": reach, "cold": cold, "digest": digest, "diff": diff, "ab": ab,
            "mutants": mutants}

if __name__ == "__main__":
    sys.path[:0] = [os.path.abspath("src"), os.path.abspath("bench")]  # ahead of installed copies
    COMMANDS[sys.argv[1]](*sys.argv[2:]) if sys.argv[1:] else print(__doc__)
