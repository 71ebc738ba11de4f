"""In-memory span tracer for the benchmark's traced runs.

``Tracer.install`` wraps the public functions of the seven ``nnlswedge``
layers: every plain function named in a module's ``__all__``, every binding
of such a function that another module imported (``phases.quad``,
``wedge.log_gamma``, ``harness.evolve``, ...), and the public methods listed
in ``_METHODS``.  Each call records a span (id, name, start, end, parent
span, thread id); spans stay in memory until ``dump`` writes them out.
``uninstall`` puts every original back, so an untraced pass in the same
process runs the program exactly as shipped.  Nothing in ``src/`` changes.

A span's layer is the first component of its name.  ``self_times`` gives
each layer's self time: a span's duration minus the part of it covered by
its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import re
import threading
import time

LAYERS = ("specfun", "profiles", "scattering", "phases", "wedge", "pde", "harness")

# Public methods whose calls are work worth attributing; cached properties
# are timed on the call that computes them, which is the only one that runs.
_METHODS = {
    ("profiles", "InitialProfile"): ("sample",),
    ("phases", "PhaseTracker"): (
        "__init__",
        "nu_hat",
        "chi_hat",
        "reflection_pair",
        "plateau",
        "origin_constant",
    ),
}

_REL_T = re.compile(r"at t=([-+0-9.eE]+)")


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[int] = []  # ids of the open spans, innermost last
        self.callback_s = 0.0  # running total of callback time on this thread


class Tracer:
    """Collects spans, counters and per-call observations for one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self._ids = itertools.count()
        self._state = _ThreadState()
        self._main_stack = self._state.stack
        self._restore: list[tuple] = []
        self._lock = threading.Lock()
        self._pde_t = 0.0
        self._pde_m0 = None

    # -- recording ---------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:  # cmd_compare's pool threads count too
            self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records a span."""
        observe = _OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state
            stack = state.stack
            # a worker thread's outermost span hangs off the main thread's
            # innermost open span (the caller blocked on the pool)
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = -1
            span_id = next(tracer._ids)
            stack.append(span_id)
            if observe is not None:
                args, kwargs = observe.before(tracer, args, kwargs)
            result = exc = None
            callback_start = state.callback_s
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                tracer.count(f"{name}!{type(err).__name__}")
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (
                        span_id,
                        name,
                        start,
                        end,
                        parent,
                        threading.get_ident(),
                        state.callback_s - callback_start,
                    )
                )
                if observe is not None:
                    observe.after(tracer, args, kwargs, result, exc)

        return traced

    def wrap_callback(self, fn):
        """Time a function handed to another layer without a span per call.

        Quadrature integrands run ~10^5 times per ladder pass; a span each
        would dominate the trace.  Their time is recorded as the enclosing
        span's ``callback_s``, which ``self_times`` charges to the layer of
        that span's parent: the caller that defined the callback.
        """
        state = self._state

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                state.callback_s += time.perf_counter() - start

        return timed

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public names of every layer and all their bindings."""
        modules = {
            layer: importlib.import_module(f"nnlswedge.{layer}") for layer in LAYERS
        }
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        for (layer, cls_name), names in _METHODS.items():
            cls = getattr(modules[layer], cls_name)
            for attr in names:
                orig = cls.__dict__[attr]
                name = f"{layer}.{cls_name}.{attr}"
                if isinstance(orig, functools.cached_property):
                    replacement = functools.cached_property(self.wrap(name, orig.func))
                    replacement.__set_name__(cls, attr)
                else:
                    replacement = self.wrap(name, orig)
                self._restore.append((cls, attr, orig))
                setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {
                    "run": self.run_id,
                    "id": s[0],
                    "name": s[1],
                    "start": s[2],
                    "end": s[3],
                    "parent": s[4],
                    "thread": s[5],
                    "callback_s": s[6],
                }
                for s in self.spans
            ],
            "counts": dict(self.counts),
            "values": dict(self.values),
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump(self.snapshot(), fh)


# ---------------------------------------------------------------------------
# per-name observations: counts read from arguments and returned objects


class _Observer:
    def before(self, tracer, args, kwargs):
        return args, kwargs

    def after(self, tracer, args, kwargs, result, exc):
        pass


class _Quad(_Observer):
    """Evaluation counts from the returned ``QuadResult``; the integrand's
    own time is charged to the layer that defined it."""

    def before(self, tracer, args, kwargs):
        if args:
            args = (tracer.wrap_callback(args[0]), *args[1:])
        return args, kwargs

    def after(self, tracer, args, kwargs, result, exc):
        if result is not None:
            tracer.count("specfun.quad_evals", result.evaluations)
            tracer.count("specfun.quad_subdivisions", result.subdivisions)


class _RootSearch(_Observer):
    """Counts and times each call of the function handed to the search."""

    def before(self, tracer, args, kwargs):
        if args:
            args = (tracer.wrap("scattering.root_target", args[0]), *args[1:])
        return args, kwargs


class _ScatteringGrid(_Observer):
    def before(self, tracer, args, kwargs):
        k_grid = args[1] if len(args) > 1 else kwargs["k_grid"]
        tracer.values["scattering.k_nodes"] = len(k_grid)
        return args, kwargs


class _CacheFile(_Observer):
    def after(self, tracer, args, kwargs, result, exc):
        path = args[-1] if args else kwargs.get("path")
        try:
            tracer.values["scattering.cache_bytes"] = os.path.getsize(path)
        except (OSError, TypeError):
            pass


class _Evolve(_Observer):
    """Steps, grid size, abort time and drifts of the RK4 runs.

    ``cmd_compare`` evolves segment by segment, so absolute time is the sum
    of the completed segments; an abort reports the time reached inside
    the failing segment, from which its completed steps follow.
    """

    def after(self, tracer, args, kwargs, result, exc):
        from nnlswedge import pde

        q0, grid, span = args[0], args[1], args[2]
        dt = kwargs.get("dt") or pde.DEFAULT_DT_FACTOR * grid.step**2
        tracer.values["pde.nodes"] = grid.size
        if tracer._pde_m0 is None and not callable(q0):
            tracer._pde_m0 = pde.mirror_mass(q0, grid.step)
        if result is not None:
            tracer.count("pde.steps", result.steps)
            for snap in result.snapshots:
                drift = max(snap.left_drift, snap.right_drift)
                tracer.values["pde.edge_drift"] = max(
                    tracer.values.get("pde.edge_drift", 0.0), drift
                )
                if tracer._pde_m0 is not None:
                    mass = abs(snap.mirror_mass - tracer._pde_m0)
                    tracer.values["pde.mirror_mass_drift"] = max(
                        tracer.values.get("pde.mirror_mass_drift", 0.0), mass
                    )
            tracer._pde_t += span
            return
        match = _REL_T.search(str(exc)) if exc is not None else None
        if match:
            rel_t = float(match.group(1))
            n_seg = max(1, int(-(-span // dt)))
            tracer.count("pde.steps", round(rel_t / (span / n_seg)))
            tracer.values["pde.abort_t"] = tracer._pde_t + rel_t


_OBSERVERS = {
    "specfun.quad": _Quad(),
    "specfun.find_imag_axis_zero": _RootSearch(),
    "scattering.scattering_grid": _ScatteringGrid(),
    "scattering.save_spectral_data": _CacheFile(),
    "scattering.load_spectral_data": _CacheFile(),
    "pde.evolve": _Evolve(),
}


# ---------------------------------------------------------------------------
# aggregation


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer.

    A span's self time is its duration minus the union of its children and
    minus the callback time spent directly in it; that callback time goes
    to the layer of the span's parent, which handed the callback over.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    child_callback: dict[int, float] = {}
    names = {s["id"]: s["name"] for s in spans}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        child_callback[s["parent"]] = child_callback.get(s["parent"], 0.0) + s["callback_s"]
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        callback = s["callback_s"] - child_callback.get(s["id"], 0.0)
        covered = _covered(s["start"], s["end"], children.get(s["id"], []))
        out[_layer(s["name"])] += s["end"] - s["start"] - covered - callback
        out[_layer(names.get(s["parent"], s["name"]))] += callback
    return out
