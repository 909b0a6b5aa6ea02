"""Outside-in tracing of the ``hclat`` modules.

:func:`install` wraps every function named in a module's ``__all__`` (the
public functions, for a module without one) and every public method of its
public classes, then rebinds each wrapper wherever an ``hclat`` module holds
the original: as a module global after ``from .x import name``, or as a value
of a module-level dict such as ``verify.CLAIMS``.  Nothing under ``src/``
changes.  A call that returns a generator is timed again on every ``next()``,
so a streamed producer such as ``record_range`` is charged per item to the
span that consumes it.

Spans ``(name, start, end, parent)`` are kept in flat arrays and written out
once the traced work is done.  The workloads call ``hclat`` from one thread,
so one span stack suffices.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from collections import Counter

MODULES = ("exact", "bernoulli", "genera", "plumbing", "lattices", "bundles", "verify", "cli")

TANGENT_ENTRY_POINTS = (
    "bernoulli.tangent_number",
    "bernoulli.tangent_numbers",
    "bernoulli.SeidelEngine.tangent",
    "bernoulli.SeidelEngine.tangent_range",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.calls: Counter[int] = Counter()
        self._stack = [-1]

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        calls = self.calls

        def timed_items(gen):
            while True:
                idx = self.open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[nid] += 1
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if isinstance(out, types.GeneratorType):
                return timed_items(out)
            return out

        return wrapper

    def spans(self) -> dict:
        return {
            "names": self.names,
            "name_id": self.name_id,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "calls": {self.names[k]: v for k, v in self.calls.items()},
        }


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every ``hclat`` module and rebind the wrappers."""
    mods = {name: importlib.import_module(f"hclat.{name}") for name in MODULES}
    replaced: dict[int, object] = {}
    for short, mod in mods.items():
        public = [n for n in vars(mod) if not n.startswith("_")]
        for name in getattr(mod, "__all__", public):
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue  # constants, and names imported from elsewhere
            if isinstance(obj, type):
                for attr, member in list(vars(obj).items()):
                    label = f"{short}.{name}.{attr}"
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, types.FunctionType):
                        setattr(obj, attr, tracer.wrap(member, label))
                    elif isinstance(member, classmethod):
                        setattr(obj, attr, classmethod(tracer.wrap(member.__func__, label)))
            elif isinstance(obj, types.FunctionType):
                replaced[id(obj)] = tracer.wrap(obj, f"{short}.{name}")
    for mod in [importlib.import_module("hclat"), *mods.values()]:
        for name, value in list(vars(mod).items()):
            if id(value) in replaced:
                setattr(mod, name, replaced[id(value)])
            elif isinstance(value, dict):
                for key, item in value.items():
                    if id(item) in replaced:
                        value[key] = replaced[id(item)]


def summarize(spans: dict, traced_s: float, untraced_s: float) -> dict:
    """Per-module self time and call counts plus the targeted layer metrics."""
    names, name_id, parent = spans["names"], spans["name_id"], spans["parent"]
    dur = [e - s for s, e in zip(spans["start"], spans["end"])]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    self_by_name: Counter[str] = Counter()
    total_by_name: Counter[str] = Counter()
    for i, nid in enumerate(name_id):
        self_by_name[names[nid]] += dur[i] - covered[i]
        total_by_name[names[nid]] += dur[i]
    calls = spans["calls"]

    out: dict[str, float] = {}
    for mod in MODULES:
        prefix = mod + "."
        out[f"{mod}.self_s"] = sum(v for k, v in self_by_name.items() if k.startswith(prefix))
        out[f"{mod}.calls"] = sum(v for k, v in calls.items() if k.startswith(prefix))
    # tangent entry points only ever nest in each other, so their self times
    # add up to the time spent inside the outermost one
    out["bernoulli.tangent_s"] = sum(self_by_name[k] for k in TANGENT_ENTRY_POINTS)
    out["bernoulli.record_s"] = self_by_name["bernoulli.SeidelEngine.record"]
    out["lattices.hermite_normal_form_s"] = self_by_name["lattices.hermite_normal_form"]
    out["lattices.lattice_span_equal.calls"] = calls.get("lattices.lattice_span_equal", 0)
    # neither profile nor extended_gcd calls itself, so summed span time is time inside
    out["plumbing.profile_s"] = total_by_name["plumbing.profile"]
    out["plumbing.profile.calls"] = calls.get("plumbing.profile", 0)
    out["exact.extended_gcd_s"] = total_by_name["exact.extended_gcd"]
    out["trace.overhead_ratio"] = traced_s / untraced_s
    out["trace.attributed_share"] = sum(out[f"{mod}.self_s"] for mod in MODULES) / traced_s
    return out
