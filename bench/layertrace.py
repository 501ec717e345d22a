"""Per-layer spans and counters for the traced run.

The layers are the library modules in `LAYERS`.  `Tracer.install` wraps
every public function of each layer where it is defined and rebinds the
wrapper under every module-level name of the package that refers to the
same function (`reflectionless.total_mass`, `inverse.total_mass`, ...), so
calls from one layer into another are caught.  A few methods get
counter-only wrappers that record work without opening a span.

A span's self time is its duration minus the time covered by the spans it
caused.  Spans are aggregated as they close (calls and self time per
function); the per-op span list of a run would hold millions of entries.
Nothing here changes the library's files: the wrappers exist only in the
traced process.
"""

from __future__ import annotations

import functools
import inspect
import re
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("krein", "measures", "gapflow", "inverse", "extremal", "operators")

_KREIN_POINT_ARG = {"hilbert_transform": (1, "x"), "abs_boundary": (1, "x"),
                    "herglotz_eval": (1, "z"), "log_abs_on_arc": (3, "theta")}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _green_name(args, kwargs):
    method = args[3] if len(args) > 3 else kwargs.get("method", "recursion")
    return f"operators.green_diag.{method}"


class Tracer:
    """Spans and counters, recorded only while `active` is true."""

    def __init__(self):
        self.active = False
        self._stack: list[list] = []            # [span name, child seconds]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def reset(self):
        self._stack.clear()
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    # -- wrappers -----------------------------------------------------------
    def _span(self, name, fn, hook=None, namer=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = namer(args, kwargs) if namer else name
            parent = self.parent()
            frame = [span, 0.0]
            self._stack.append(frame)
            out = exc = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                raise
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                self.calls[span] += 1
                self.self_s[span] += dt - frame[1]
                if hook:
                    hook(self, parent, args, kwargs, out, exc)
        return wrapper

    def _counter(self, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.active:
                hook(self, self.parent(), args, kwargs, out, None)
            return out
        return wrapper

    def _rebind(self, original, wrapper):
        """Replace `original` by `wrapper` under every module-level name of
        the package that refers to it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "reflectionless"
                                   or mod_name.startswith("reflectionless.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper_of):
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, wrapper_of(original))

    def install(self):
        """Wrap the layers' public functions and the counted methods."""
        import reflectionless  # noqa: F401  (loads every layer module)
        from reflectionless import extremal, measures
        hooks = _hooks()
        for layer in LAYERS:
            mod = sys.modules[f"reflectionless.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                namer = _green_name if (layer, attr) == ("operators", "green_diag") else None
                self._rebind(fn, self._span(f"{layer}.{attr}", fn, hooks.get(attr), namer))
        self._patch_method(measures.SpectralMeasure, "density_on_arc",
                           lambda fn: self._counter(fn, _count_density))
        fast = getattr(extremal, "_FastObjective", None)
        if fast is not None:
            self._patch_method(fast, "value", lambda fn: self._counter(fn, _count_objective))
            self._patch_method(fast, "grid_values", lambda fn: self._counter(fn, _count_grid))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Per-layer calls and self time plus the named counters."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names)
            out[f"{layer}.self_s"] = float(sum(self.self_s[n] for n in names))
        for name in ("gapflow.flow_to_canonical", "measures.total_mass",
                     "measures.quadrature_discretize", "inverse.lanczos_tridiag",
                     "extremal.minimize_mass", "operators.green_diag.truncation",
                     "operators.reflectionless_residual"):
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        for name in ("extremal.mass_objective", "operators.green_diag.recursion",
                     "operators.green_diag.truncation"):
            out[f"{name}.calls"] = self.calls.get(name, 0)
        for name in ("krein.points", "measures.density_points", "measures.discrete_atoms",
                     "inverse.lanczos_steps", "inverse.lanczos_flops_computed",
                     "inverse.breakdowns", "extremal.objective_evals"):
            out[name] = self.counts.get(name, 0)
        recons = self.calls.get("inverse.reconstruct_coefficients", 0)
        out["inverse.discretize_per_recon"] = (
            self.counts.get("inverse.recon_discretize", 0) / recons if recons else 0.0)
        return out


# ---------------------------------------------------------------------------
# counters: hook(tracer, parent span, args, kwargs, output, exception)
# ---------------------------------------------------------------------------

def _count_points(fn_name):
    pos, arg_name = _KREIN_POINT_ARG[fn_name]

    def hook(tr, parent, args, kwargs, out, exc):
        # points are counted where they enter the layer, not again when one
        # krein function evaluates through another
        if parent is None or not parent.startswith("krein."):
            tr.counts["krein.points"] += int(np.size(_arg(args, kwargs, pos, arg_name)))
    return hook


def _count_discretize(tr, parent, args, kwargs, out, exc):
    if out is not None:
        tr.counts["measures.discrete_atoms"] += len(out.atoms)
    if parent == "inverse.reconstruct_coefficients":
        tr.counts["inverse.recon_discretize"] += 1


def _lanczos_flops(m: int, steps: int) -> int:
    """Step j reorthogonalizes twice against j + 1 basis vectors of length m
    (two matrix-vector products each, 8 (j + 1) m flops) plus about 10 m
    flops of vector updates."""
    return 4 * m * steps * (steps + 1) + 10 * m * steps


def _count_lanczos(tr, parent, args, kwargs, out, exc):
    from reflectionless import NumericError
    m = int(np.size(_arg(args, kwargs, 0, "support")))
    steps = 0
    if exc is None:
        steps = len(out[0])
    elif isinstance(exc, NumericError):
        tr.counts["inverse.breakdowns"] += 1
        found = re.search(r"step (\d+)", str(exc))
        steps = int(found.group(1)) if found else 0
    tr.counts["inverse.lanczos_steps"] += steps
    tr.counts["inverse.lanczos_flops_computed"] += _lanczos_flops(m, steps)


def _count_objective(tr, parent, args, kwargs, out, exc):
    tr.counts["extremal.objective_evals"] += 1


def _count_density(tr, parent, args, kwargs, out, exc):
    tr.counts["measures.density_points"] += int(np.size(_arg(args, kwargs, 2, "theta")))


def _count_grid(tr, parent, args, kwargs, out, exc):
    tr.counts["extremal.objective_evals"] += int(np.size(out))


def _hooks():
    hooks = {name: _count_points(name) for name in _KREIN_POINT_ARG}
    hooks["quadrature_discretize"] = _count_discretize
    hooks["lanczos_tridiag"] = _count_lanczos
    hooks["mass_objective"] = _count_objective
    return hooks
