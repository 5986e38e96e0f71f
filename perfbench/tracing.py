"""Spans around the calls into each layer of the library, recorded from outside it.

``install`` wraps every public function, every public method and property, and
the constructor of every public class that a layer module defines, in every
module namespace of the package that binds it (``ergodicity`` binds
``cesaro_limit`` from ``walks``, for example); ``uninstall`` puts the
originals back.  A span records its name,
start, end, parent span and operation id; spans stay in memory until
``write`` saves them.  Self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time

LAYERS = ("groups", "catalog", "hopf", "blocks", "walks", "ergodicity", "cli")

# Constant-time lookups called from inner loops (subgroup closure alone makes
# ~700k ``mul`` calls): a wrapper would cost more than the call and would land
# that cost in the callers' self time, so these stay unwrapped.
UNWRAPPED = {"groups.mul", "groups.inv", "groups.index_of", "blocks.index", "hopf.dim",
             "hopf.haar", "hopf.haar_weights", "hopf.haar_element"}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.stack = []
        self.op = -1  # operation id; -1 is the set-up
        self.installed = []  # (owner, attribute, wrapper, original)

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[idx]
                span[1] = start
                span[2] = end

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self):
        """Wrap the layers' public callables (the wrappers are made once and reused)."""
        if not self.installed:
            self.installed = list(self._targets())
        for owner, attr, wrapper, original in self.installed:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, wrapper, original in reversed(self.installed):
            setattr(owner, attr, original)

    def _targets(self):
        package = importlib.import_module("qergodic")
        modules = [package] + [importlib.import_module(f"qergodic.{m}") for m in LAYERS]
        for layer in LAYERS:
            module = sys.modules[f"qergodic.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if f"{layer}.{attr}" in UNWRAPPED:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    for mod in modules:  # rebind wherever the package binds this function
                        for key, value in list(vars(mod).items()):
                            if value is obj:
                                yield mod, key, wrapped, obj
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    yield from self._class_targets(layer, obj)

    def _class_targets(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                name = f"{layer}.{cls.__name__}"
            elif attr.startswith("_"):
                continue
            else:
                name = f"{layer}.{attr}"
            if name in UNWRAPPED:
                continue
            if isinstance(member, property) and member.fget is not None:
                yield cls, attr, property(self.wrap(name, member.fget), member.fset), member
            elif isinstance(member, (classmethod, staticmethod)):
                yield cls, attr, type(member)(self.wrap(name, member.__func__)), member
            elif inspect.isfunction(member):
                yield cls, attr, self.wrap(name, member), member

    # -- analysis ---------------------------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus the durations of its children."""
        spans = self.spans
        cover = [0.0] * len(spans)
        for name, start, end, parent, op in spans:
            if parent >= 0:
                cover[parent] += end - start
        return [end - start - c for (name, start, end, parent, op), c in zip(spans, cover)]

    def summary(self):
        """Per function and per layer: total self time and call count."""
        self_s, calls = {}, {}
        for (name, *_), t in zip(self.spans, self.self_times()):
            layer = name.split(".", 1)[0]
            self_s[name] = self_s.get(name, 0.0) + t
            self_s[layer] = self_s.get(layer, 0.0) + t
            calls[name] = calls.get(name, 0) + 1
        return self_s, calls

    def op_self_totals(self):
        """Sum of self times over the spans of each operation."""
        totals = {}
        for (name, start, end, parent, op), t in zip(self.spans, self.self_times()):
            totals[op] = totals.get(op, 0.0) + t
        return totals

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
