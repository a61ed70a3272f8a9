"""Spans around the public functions and methods of every kmfan module,
installed from outside the library at run time.

`Tracer.install()` replaces each public module-level function of a layer
module by a wrapper and rebinds it in every loaded ``kmfan.*`` namespace
(modules import functions by name), and wraps public methods, static
methods and constructors on the classes those modules define.  Dunder
methods, properties and the methods of the integer-matrix value types stay
unwrapped: they are cheap and hot (hundreds of thousands of calls per
round), and their time belongs to the caller.  ``IntMatrix.__init__`` is
counted, not spanned, for the same reason.  `uninstall()` puts every
original back.

A span records its name, layer, start, end, parent span and item id in
parallel arrays that stay in memory until `aggregate()` runs at the end.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array
from fractions import Fraction

LAYERS = ("intlinalg", "abelian", "cones", "monoids", "fans", "gsfans", "documents", "cli", "drawing")
VALUE_TYPES = ("IntMatrix", "SmithDecomposition")
COUNTED_ONLY = "intlinalg.IntMatrix.new"


class Tracer:
    def __init__(self):
        self.names = []            # name id -> "layer.Qualified.name"
        self.layers = []           # name id -> layer
        self._ids = {}
        self.errors = []           # name id -> spans that raised
        self.counts = {}           # counted-only name -> calls
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_item = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.max_bits = 0
        self.cones_made = set()
        self.exit_nonzero = 0
        self.item = -1
        self._stack = [-1]
        self._undo = []
        self._root = self._name_id("bench.item", "bench")
        self._hook = self._name_id("bench.trace_hook", "bench")

    def _name_id(self, name, layer):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.errors.append(0)
        return nid

    # -- spans ---------------------------------------------------------

    def _wrap(self, fn, name, layer, post=None):
        nid = self._name_id(name, layer)
        hook = self._hook
        stack, errors = self._stack, self.errors
        s_name, s_parent, s_item = self.s_name, self.s_parent, self.s_item
        s_start, s_end = self.s_start, self.s_end
        clock = time.perf_counter
        tracer = self

        def span(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_item.append(tracer.item)
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                s_end[idx] = clock()
                s_start[idx] = t0
                stack.pop()
                errors[nid] += 1
                raise
            if post is not None:
                # the hook's cost is the benchmark's, so it gets its own child span
                h0 = clock()
                post(args, kwargs, result)
                h1 = clock()
                s_name.append(hook)
                s_parent.append(idx)
                s_item.append(tracer.item)
                s_start.append(h0)
                s_end.append(h1)
            s_end[idx] = clock()
            s_start[idx] = t0
            stack.pop()
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        span.__qualname__ = getattr(fn, "__qualname__", name)
        span.__doc__ = getattr(fn, "__doc__", None)
        return span

    def _counter(self, fn, name):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def root(self, item_id, fn, *args):
        """Run one benchmark item under a root span; returns (result, t0, t1)."""
        self.item = item_id
        idx = len(self.s_name)
        self.s_name.append(self._root)
        self.s_parent.append(-1)
        self.s_item.append(item_id)
        self.s_start.append(0.0)
        self.s_end.append(0.0)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.s_start[idx] = t0
            self.s_end[idx] = t1
            self.item = -1
        return result, t0, t1

    # -- hooks ---------------------------------------------------------

    def _bits_hook(self, args, kwargs, result):
        bits = max(_bits(result), max((_bits(a) for a in args), default=0))
        if bits > self.max_bits:
            self.max_bits = bits

    def _cone_hook(self, args, kwargs, result):
        self.cones_made.add(result)

    def _exit_hook(self, args, kwargs, result):
        if result != 0:
            self.exit_nonzero += 1

    def _post(self, name):
        if name.startswith("intlinalg."):
            return self._bits_hook
        if name == "cones.Cone.from_generators":
            return self._cone_hook
        if name == "cli.run":
            return self._exit_hook
        return None

    # -- install / uninstall ---------------------------------------------

    def install(self):
        modules = {n: m for n, m in sys.modules.items() if n == "kmfan" or n.startswith("kmfan.")}
        replaced = {}
        for modname, mod in sorted(modules.items()):
            layer = modname.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == modname:
                    name = "%s.%s" % (layer, attr)
                    replaced[obj] = self._wrap(obj, name, layer, self._post(name))
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    self._wrap_class(obj, layer)
        # rebind every reference a kmfan namespace holds to a wrapped function
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                try:
                    wrapper = replaced.get(obj)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _wrap_class(self, cls, layer):
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                method = "new"
            elif attr.startswith("_"):
                continue
            else:
                method = attr
            name = "%s.%s.%s" % (layer, cls.__name__, method)
            if name == COUNTED_ONLY:
                new = self._counter(raw, name)
            elif cls.__name__ in VALUE_TYPES:
                continue
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(raw.__func__, name, layer, self._post(name)))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, layer, self._post(name)))
            elif inspect.isfunction(raw):
                new = self._wrap(raw, name, layer, self._post(name))
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def aggregate(self):
        """Per span name: calls, total seconds, self seconds, errors."""
        n = len(self.s_name)
        names, parents, starts, ends = self.s_name, self.s_parent, self.s_start, self.s_end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        stats = {}
        for i in range(n):
            dur = ends[i] - starts[i]
            entry = stats.get(names[i])
            if entry is None:
                entry = stats[names[i]] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
        out = {}
        for nid, (calls, total, self_s) in stats.items():
            out[self.names[nid]] = {
                "layer": self.layers[nid], "calls": calls, "total_s": total,
                "self_s": self_s, "errors": self.errors[nid], "counted": False,
            }
        for name, calls in self.counts.items():
            out[name] = {"layer": name.split(".")[0], "calls": calls, "total_s": 0.0,
                         "self_s": 0.0, "errors": 0, "counted": True}
        return out

    def write_spans(self, path):
        """All spans as gzip'd tab-separated lines:
        index, name, layer, start, end, parent, item."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\tlayer\tstart\tend\tparent\titem\n")
            names, layers = self.names, self.layers
            for i in range(len(self.s_name)):
                nid = self.s_name[i]
                fh.write("%d\t%s\t%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    i, names[nid], layers[nid], self.s_start[i], self.s_end[i],
                    self.s_parent[i], self.s_item[i]))


def _bits(obj, depth=0):
    """Largest bit length of an integer entry in a traced argument or result."""
    if type(obj) is int:
        return obj.bit_length() if obj >= 0 else (-obj).bit_length()
    entries = getattr(obj, "entries", None)
    if type(entries) is tuple:  # IntMatrix
        best = 0
        for row in entries:
            if row:
                best = max(best, max(map(abs, row)))
        return best.bit_length()
    if isinstance(obj, Fraction):
        return max(abs(obj.numerator).bit_length(), obj.denominator.bit_length())
    if depth < 2 and isinstance(obj, (tuple, list)):
        return max((_bits(x, depth + 1) for x in obj), default=0)
    if depth < 1 and hasattr(obj, "__slots__") and hasattr(obj, "d") and hasattr(obj, "u"):
        return max(_bits(getattr(obj, a), depth + 1) for a in obj.__slots__)  # SmithDecomposition
    return 0
