"""Span tracer that instruments mfvuln from outside the package.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces every public
function in the namespace of each mfvuln module that holds it (so a call
made through ``from .attack import train_adversary`` inside
``mfvuln.pipeline`` is seen) and every public method on the class that
defines it.  Span names are ``<layer>.<function>`` or
``<layer>.<Class>.<method>``, where the layer is the mfvuln module the code
lives in (``envs``, ``core``, ``qlearn``, ``robust``, ``selection``,
``attack``, ``pipeline``, ``cli``).

Spans (name, start, end, parent) are kept in compact in-memory arrays and
written out once, by ``dump``, after the workload ends.  A span's self time
is its duration minus the time covered by its child spans in other layers;
calls are synchronous and single-threaded, so children never overlap.
"""

from __future__ import annotations

import array
import collections
import contextlib
import functools
import inspect
import sys
import time

import numpy as np

PACKAGE = "mfvuln"
# Helpers called once per agent, pick or step from inside their own layer.
# Their time stays in the caller's self time; wrapping them would add about
# 1.7M spans to a taxi-experiment pass, more than doubling tracing overhead
# and inflating the self time of QModel.values and env.step that called them.
UNTRACED = frozenset({
    "qlearn.MeanFieldBinner.bin", "selection.SelectorQModel.score",
    "selection.SelectorQModel.features", "envs.TaxiGridEnv.cell_xy",
    "envs.TaxiGridEnv.zone_of", "envs.TaxiGridEnv.mismatch_reward",
})


def layer_of(module_name: str) -> str:
    """``mfvuln.envs.taxi`` -> ``envs``; the package's modules are its layers."""
    parts = module_name.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self._stack = [-1]
        self._wrapped = {}
        self._probes = {}
        self.counts = collections.Counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def probe(self, name: str, fn):
        """Call ``fn(args, kwargs)`` whenever span ``name`` opens; must be set
        before ``install`` so the wrapper picks it up."""
        self._probes[name] = fn

    def wrap(self, name: str, fn):
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter_ns
        probe = self._probes.get(name)

        # bookkeeping is inlined and bound to locals: this runs on every call
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (workload phases and legs)."""
        i = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter_ns()
            self._stack.pop()

    def _traced_function(self, fn, name: str):
        if fn not in self._wrapped:
            self._wrapped[fn] = self.wrap(name, fn)
        return self._wrapped[fn]

    def install(self):
        """Wrap the public functions and methods of every loaded mfvuln module,
        except the UNTRACED helpers."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__.startswith(PACKAGE):
                    name = f"{layer_of(value.__module__)}.{value.__name__}"
                    if name not in UNTRACED:
                        setattr(mod, attr, self._traced_function(value, name))
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._install_class(value, layer_of(mod.__name__))

    def _install_class(self, cls, layer: str):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNTRACED:
                continue
            if isinstance(member, (staticmethod, classmethod)):
                setattr(cls, attr, type(member)(self._traced_function(member.__func__, name)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self._traced_function(member, name))

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, with durations and self times in ns.

        ``self`` is the duration minus the time covered by child spans of
        other layers.  Children of the same layer (``VicsekEnv.step`` calling
        ``torus_pairwise``) are folded into their caller, so the self time
        of a layer call is all the time spent in that layer below it.
        """
        # copies: a view would pin the arrays' buffers against later appends
        start = np.array(self.start, dtype=np.int64)
        end = np.array(self.end, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int32)
        name_id = np.array(self.name_id, dtype=np.int32)
        dur = end - start
        layers = sorted({n.split(".")[0] for n in self.names})
        layer = np.array([layers.index(n.split(".")[0]) for n in self.names],
                         dtype=np.int32)[name_id]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=dur.size).astype(np.int64)
        own = (dur - covered).tolist()
        same = np.flatnonzero(has_parent & (layer[np.maximum(parent, 0)] == layer))
        up = parent.tolist()
        for i in reversed(same.tolist()):   # children come after their parents
            own[up[i]] += own[i]
        return {"name_id": name_id, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": np.array(own, dtype=np.int64)}

    def dump(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=a["name_id"],
                            parent=a["parent"], start=a["start"], end=a["end"])
