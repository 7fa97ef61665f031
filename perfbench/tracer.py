"""Per-layer spans around modcoh's public functions and methods.

The tracer wraps, from outside the package, every public function and every
public method (plus `__init__`) defined in each modcoh module, and rebinds
the names other modules imported with `from ... import`.  A layer is a
module, except that `cli`, `fileio` and `catalog` form one layer.  Self time
of a call is its duration minus the durations of the traced calls it made,
so the self times of all layers plus the untraced remainder add up to the
traced wall time.

Counters are taken at the same boundaries (see `_HOOKS`).
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from collections import Counter

import numpy as np

LAYERS = {
    "groups": ("groups",),
    "fplinalg": ("fplinalg",),
    "gmodules": ("gmodules",),
    "resolutions": ("resolutions",),
    "cohmaps": ("cohmaps",),
    "products": ("products",),
    "actions": ("actions",),
    "cli": ("cli", "fileio", "catalog"),
}
MODULE_LAYER = {f"modcoh.{m}": layer for layer, mods in LAYERS.items()
                for m in mods}
FP_CALLERS = ("resolutions", "cohmaps", "products")
MB = 1 << 20

_perf = time.perf_counter


def unit_of(metric: str) -> str:
    for suffix, unit in (("_s", "s"), ("_mb", "MB"), ("_frac", "ratio"),
                         ("gen_yield", "ratio"), ("bytes", "B")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _array_cells(args) -> tuple[int, int]:
    cells = nbytes = 0
    for a in args:
        data = getattr(a, "data", a)
        if isinstance(data, np.ndarray):
            cells += data.size
            nbytes += data.nbytes
    return cells, nbytes


# -- counter hooks: (pre(tracer, args) -> state, post(tracer, parent, args, result, state))

def _extend_pre(tr, args):
    return len(args[0].boundaries)


def _extend_post(tr, parent, args, result, before):
    res = args[0]
    after = len(res.boundaries)
    tr.counters["resolutions.stages"] += after - before
    tr.counters["resolutions.rank_sum"] += sum(res.ranks[before + 1: after + 1])
    size = sum(b.data.nbytes for b in res.boundaries) / MB
    tr.maxima["resolutions.boundary_mb"] = max(
        tr.maxima["resolutions.boundary_mb"], size)


def _resolution_init_post(tr, parent, args, result, state):
    tr.counters["resolutions.rank_sum"] += sum(args[0].ranks)
    if parent is not None and parent[3] == "modcoh.resolutions.trivial_resolution":
        tr.counters["resolutions.cache_misses"] += 1


def _context_init_post(tr, parent, args, result, state):
    if parent is not None and parent[3] == "modcoh.cohmaps.context":
        tr.counters["cohmaps.context_misses"] += 1


def _diagonal_init_post(tr, parent, args, result, state):
    size = sum(a.nbytes for comp in args[0].components for a in comp.values()) / MB
    tr.maxima["products.diagonal_mb"] = max(tr.maxima["products.diagonal_mb"], size)


def _enumerated_post(tr, parent, args, result, state):
    tr.counters["groups.elements_enumerated"] += result.order


def _contains_post(tr, parent, args, result, state):
    if parent is not None and parent[1] == "resolutions":
        tr.counters["resolutions.membership_tests"] += 1


_HOOKS = {
    "modcoh.resolutions.FreeResolution.extend_to": (_extend_pre, _extend_post),
    "modcoh.resolutions.FreeResolution.__init__": (None, _resolution_init_post),
    "modcoh.cohmaps.CochainContext.__init__": (None, _context_init_post),
    "modcoh.products.DiagonalMap.__init__": (None, _diagonal_init_post),
    "modcoh.groups.generate_group": (None, _enumerated_post),
    "modcoh.groups.from_elements": (None, _enumerated_post),
    "modcoh.fplinalg.RowSpan.contains": (None, _contains_post),
}


class Tracer:
    """Installs and removes the wrappers; accumulates one batch at a time."""

    def __init__(self) -> None:
        self.modules = [importlib.import_module(m) for m in MODULE_LAYER]
        self._patches: list[tuple[object, str, object, object]] = []
        self._originals: dict[int, object] = {}
        self._collect()
        self.reset()

    # -- wrapping ----------------------------------------------------------

    def _collect(self) -> None:
        wrappers: dict[int, object] = {}
        for mod in self.modules:
            layer = MODULE_LAYER[mod.__name__]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    w = self._wrap(obj, layer, f"{mod.__name__}.{name}")
                    wrappers[id(obj)] = w
                    self._originals[id(obj)] = obj
                    self._patches.append((mod, name, obj, w))
                elif isinstance(obj, type):
                    self._collect_class(obj, layer, f"{mod.__name__}.{name}")
        # names bound elsewhere by `from ... import`
        for mod in self.modules:
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and not any(o is mod and n == name
                                             for o, n, _, _ in self._patches):
                    self._patches.append((mod, name, obj, w))

    def _collect_class(self, cls: type, layer: str, label: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(val, staticmethod):
                w = staticmethod(self._wrap(val.__func__, layer, f"{label}.{attr}"))
            elif isinstance(val, types.FunctionType):
                w = self._wrap(val, layer, f"{label}.{attr}")
            else:
                continue
            self._originals[id(val)] = val
            self._patches.append((cls, attr, val, w))

    def _wrap(self, fn, layer: str, label: str):
        tracer = self
        pre, post = _HOOKS.get(label, (None, None))
        is_fp = layer == "fplinalg"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            # frame: [layer, owner layer, child seconds, label]
            owner = (parent[1] if parent is not None else None) if is_fp else layer
            frame = [layer, owner, 0.0, label]
            state = pre(tracer, args) if pre is not None else None
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent[0] != layer:
                    tracer.errors[layer] += 1
                raise
            finally:
                dur = _perf() - t0
                stack.pop()
                own = dur - frame[2]
                tracer.self_s[layer] += own
                tracer.calls[layer] += 1
                tracer.label_calls[label] += 1
                if is_fp:
                    tracer.fp_by_owner[owner] += own
                    c, b = _array_cells(args)
                    tracer.counters["fplinalg.cells"] += c
                    tracer.counters["fplinalg.bytes"] += b
                if parent is not None:
                    parent[2] += dur
            if post is not None:
                post(tracer, parent, args, result, state)
            return result

        return wrapper

    def install(self) -> None:
        for owner, name, _, w in self._patches:
            setattr(owner, name, w)
        self._check_bindings()

    def uninstall(self) -> None:
        for owner, name, orig, _ in self._patches:
            setattr(owner, name, orig)

    def _check_bindings(self) -> None:
        """No module may still reach an original through a name binding."""
        for mod in self.modules:
            for name, obj in vars(mod).items():
                if id(obj) in self._originals and obj is self._originals[id(obj)]:
                    raise RuntimeError(f"{mod.__name__}.{name} escaped tracing")

    # -- accounting -----------------------------------------------------------

    def reset(self) -> None:
        self._stack: list[list] = []
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.label_calls: Counter = Counter()
        self.fp_by_owner: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: Counter = Counter()

    def snapshot(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything run since the last reset."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        out["fplinalg.cells"] = self.counters["fplinalg.cells"]
        out["fplinalg.bytes"] = self.counters["fplinalg.bytes"]
        for caller in FP_CALLERS:
            out[f"fplinalg.by_{caller}_s"] = self.fp_by_owner[caller]
        built = self.counters["resolutions.rank_sum"]
        tests = self.counters["resolutions.membership_tests"]
        out["resolutions.stages"] = self.counters["resolutions.stages"]
        out["resolutions.rank_sum"] = built
        out["resolutions.gen_yield"] = built / tests if tests else 0.0
        out["resolutions.boundary_mb"] = self.maxima["resolutions.boundary_mb"]
        lookups = self.label_calls["modcoh.resolutions.trivial_resolution"]
        misses = self.counters["resolutions.cache_misses"]
        out["resolutions.cache_hit_frac"] = (lookups - misses) / lookups if lookups else 0.0
        lookups = self.label_calls["modcoh.cohmaps.context"]
        misses = self.counters["cohmaps.context_misses"]
        out["cohmaps.context_hit_frac"] = (lookups - misses) / lookups if lookups else 0.0
        out["cohmaps.contexts_built"] = self.label_calls["modcoh.cohmaps.CochainContext.__init__"]
        out["products.diagonals_built"] = self.label_calls["modcoh.products.DiagonalMap.__init__"]
        out["products.diagonal_mb"] = self.maxima["products.diagonal_mb"]
        out["groups.closure_calls"] = self.label_calls["modcoh.groups.subgroup_closure"]
        out["groups.elements_enumerated"] = self.counters["groups.elements_enumerated"]
        out["gmodules.validations"] = self.label_calls["modcoh.gmodules.GModule.check_representation"]
        out["trace.untraced_s"] = wall_s - sum(self.self_s[layer] for layer in LAYERS)
        return out
