"""Spans around cfdim's layer boundaries, recorded from outside the library.

``Tracer.install()`` replaces every public function of the seven layer
modules (and the public methods of the sequence classes) with a wrapper,
in every cfdim module namespace that refers to it, so calls from one
layer into another pass through the wrapper too.  ``uninstall()`` puts
the originals back, so untraced rounds run the unmodified program.

A call whose innermost open span belongs to the same layer is folded
into that span: it is counted but opens no span of its own.  Each span
records its name (``<layer>.<func>``), start, end, parent span and op
id.  Spans live in per-thread arrays until ``collect()``.  A layer's
self time is the sum over its spans of the duration minus the time its
child spans cover.  Worker threads (the ``dim cover --threads`` pool)
start with an empty stack, so their spans are roots and the layer self
times of such an op can add up to more than its wall time.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from array import array

LAYERS = ("cfcore", "special", "sequences", "dimension", "construction", "hirst", "cli")

# classes whose public methods are layer functions in their own right:
# the counting function and membership tests are what construction scans
_CLASSES = {"sequences": ("IndexSequence", "DigitSet")}


def _public_functions(layer, mod):
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(mod, name)
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
            out.append(("%s.%s" % (layer, name), obj))
    return out


def _public_methods(layer, mod):
    out = []
    for cls_name in _CLASSES.get(layer, ()):
        cls = getattr(mod, cls_name)
        for attr, obj in vars(cls).items():
            if inspect.isfunction(obj) and (not attr.startswith("_") or attr == "__contains__"):
                out.append((cls, attr, "%s.%s.%s" % (layer, cls_name, attr), obj))
    return out


class _Buffer:
    """Spans and counts of one thread."""

    def __init__(self, thread_name):
        self.thread = thread_name
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []  # (span index, layer, name) of open spans
        self.counts = {}  # (func name, innermost open span name or None) -> calls


class Tracer:
    def __init__(self):
        self.op_id = -1
        self._names = []
        self._name_ids = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers = []
        self._patches = []

    def _buffer(self):
        buf = _Buffer(threading.current_thread().name)
        with self._lock:
            self._buffers.append(buf)
        self._local.buf = buf
        return buf

    def _wrap(self, layer, name, fn):
        with self._lock:
            nid = self._name_ids.setdefault(name, len(self._names))
            if nid == len(self._names):
                self._names.append(name)
        local = self._local
        clock = time.perf_counter
        new_buffer = self._buffer
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                buf = local.buf
            except AttributeError:
                buf = new_buffer()
            stack = buf.stack
            top = stack[-1] if stack else None
            key = (name, top[2] if top else None)
            counts = buf.counts
            counts[key] = counts.get(key, 0) + 1
            if top is not None and top[1] == layer:
                return fn(*args, **kwargs)
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(top[0] if top else -1)
            buf.op.append(tracer.op_id)
            buf.end.append(0.0)
            stack.append((idx, layer, name))
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                stack.pop()

        return traced

    def install(self):
        if self._patches:
            return
        wrappers = {}
        modules = {}
        for layer in LAYERS:
            mod = importlib.import_module("cfdim." + layer)
            modules[layer] = mod
            for name, fn in _public_functions(layer, mod):
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for layer, mod in modules.items():
            for cls, attr, name, fn in _public_methods(layer, mod):
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(layer, name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cfdim" or mod_name.startswith("cfdim.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def collect(self, spans_path=None):
        """Layer aggregates of everything recorded so far; clears the buffers."""
        with self._lock:
            buffers, self._buffers = self._buffers, []
        self._local = threading.local()
        layer_calls = {layer: 0 for layer in LAYERS}
        layer_self = {layer: 0.0 for layer in LAYERS}
        counts = {}
        layer_of = [n.split(".", 1)[0] for n in self._names]
        out = open(spans_path, "a") if spans_path else None
        try:
            for buf in buffers:
                n = len(buf.name)
                covered = [0.0] * n
                for i in range(n):
                    p = buf.parent[i]
                    if p >= 0:
                        covered[p] += buf.end[i] - buf.start[i]
                for i in range(n):
                    layer = layer_of[buf.name[i]]
                    layer_calls[layer] += 1
                    layer_self[layer] += buf.end[i] - buf.start[i] - covered[i]
                    if out is not None:
                        out.write(json.dumps({
                            "pid": os.getpid(), "thread": buf.thread, "span": i,
                            "parent": buf.parent[i], "name": self._names[buf.name[i]],
                            "start": buf.start[i], "end": buf.end[i], "op": buf.op[i],
                        }) + "\n")
                for key, c in buf.counts.items():
                    k = "%s<%s" % key
                    counts[k] = counts.get(k, 0) + c
        finally:
            if out is not None:
                out.close()
        return {"calls": layer_calls, "self_s": layer_self, "counts": counts}


def merge(total, part):
    """Add one collect() result into another, in place."""
    for key in ("calls", "self_s"):
        for layer, v in part[key].items():
            total[key][layer] = total[key].get(layer, 0) + v
    for k, c in part["counts"].items():
        total["counts"][k] = total["counts"].get(k, 0) + c
    return total


def empty():
    return {"calls": {layer: 0 for layer in LAYERS},
            "self_s": {layer: 0.0 for layer in LAYERS}, "counts": {}}


def count_of(agg, func, within=None):
    """Calls of ``func``; with ``within``, only those whose innermost open span was ``within``."""
    total = 0
    for k, c in agg["counts"].items():
        name, _, parent = k.partition("<")
        if name == func and (within is None or parent == within):
            total += c
    return total
