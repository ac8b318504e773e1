"""Spans around every public call into the library, recorded from outside.

:meth:`Tracer.install` wraps each public function of the layer modules and
each public method (plus the arithmetic operators) of their classes.  A
function's wrapper replaces the binding in the defining module and in every
``riordan_lab`` module that imported the name (``cli``'s ``g_from_b``, say);
a method's wrapper replaces it on its class.  Generator functions are
wrapped so that every ``next()`` is a span and every item a count.

Spans live in memory as parallel arrays (name, parent, job, start, end), are
timed by process CPU time, and are written out once by :meth:`Tracer.dump`.
A span's self time is its duration minus the durations of its children.
Nothing here changes the library's results; the wrappers only observe.
"""
from __future__ import annotations

import functools
import inspect
import json
import operator
import time
from array import array
from collections import defaultdict
from pathlib import Path

clock = time.process_time_ns

# Span names that the per-layer metrics use, for operators and methods whose
# default name ("layer.Class.method") would be long.
ALIASES = {
    "series.Series.__mul__": "series.mul",
    "series.Series.inverse": "series.inverse",
    "series.Series.compose": "series.compose",
    "series.Series.revert": "series.revert",
    "series.Series.sqrt": "series.sqrt",
    "series.Series.log": "series.log",
    "series.Series.exp": "series.exp",
    "series.Series.pow_param": "series.pow_param",
    "series.Poly.__mul__": "series.poly_mul",
    "riordan.TriMatrix.__mul__": "riordan.tri_mul",
    "riordan.TriMatrix.log": "riordan.tri_log",
    "riordan.TriMatrix.pow_binomial": "riordan.pow_binomial",
    "riordan.RiordanPair.matrix": "riordan.pair_matrix",
    "riordan.RiordanPair.inv": "riordan.pair_inv",
}
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__call__")
JOB = "bench.job"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.outer = array("b")   # 1 when no span of the same name is open
        self.t0 = array("q")
        self.t1 = array("q")
        self._stack: list[int] = []
        self._depth: list[int] = []
        self.yields: dict[tuple[int, int], int] = defaultdict(int)
        self.counters: dict[str, int] = defaultdict(int)
        self.enabled = False
        self.current_job = -1
        self._saved: list[tuple[object, str, object]] = []

    # recording -------------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.job.append(self.current_job)
        self.outer.append(self._depth[nid] == 0)
        self.t1.append(0)
        self._depth[nid] += 1
        stack.append(idx)
        self.t0.append(clock())
        return idx

    def close(self, idx: int, nid: int) -> None:
        self.t1[idx] = clock()
        self._depth[nid] -= 1
        self._stack.pop()

    def run_job(self, job_id: int, fn, *args):
        """Run ``fn(*args)`` as job ``job_id`` inside a root span."""
        self.current_job = job_id
        nid = self.intern(JOB)
        self.enabled = True
        idx = self.open(nid)
        try:
            return fn(*args)
        finally:
            self.close(idx, nid)
            self.enabled = False

    # wrapping --------------------------------------------------------------

    def _wrap(self, fn, name: str, hook=None):
        nid = self.intern(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                return _TracedIter(tracer, nid, fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(tracer.counters, args)
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx, nid)
        return traced

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, lib, modules, hooks=None) -> None:
        """Wrap the public callables of ``lib``'s layer modules.

        ``modules`` are all loaded ``riordan_lab`` modules, searched for
        imported bindings of each wrapped function.  ``hooks`` maps a span
        name to ``hook(counters, args)``, called before each traced call.
        """
        hooks = hooks or {}
        for layer, mod in vars(lib).items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = ALIASES.get("%s.%s" % (layer, attr), "%s.%s" % (layer, attr))
                    wrapped = self._wrap(obj, name, hooks.get(name))
                    for other in modules:
                        for oattr, oval in list(vars(other).items()):
                            if oval is obj:
                                self._replace(other, oattr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, obj, hooks)

    def _install_class(self, layer: str, cls, hooks) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            kind = type(member)
            fn = member.__func__ if kind in (classmethod, staticmethod) else member
            if not inspect.isfunction(fn):
                continue
            full = "%s.%s.%s" % (layer, cls.__name__, fn.__name__)
            name = ALIASES.get(full, full)
            wrapped = self._wrap(fn, name, hooks.get(name))
            self._replace(cls, attr, kind(wrapped) if kind in (classmethod, staticmethod)
                          else wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy_ns (outermost spans only, so recursion
        is not counted twice), self_ns; plus per-layer self time, the job
        total, yields by (name, enclosing name) and the raw counters."""
        n = len(self.name)
        dur = array("q", map(operator.sub, self.t1, self.t0))
        child = array("q", bytes(8 * n))
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        busy = [0] * len(self.names)
        own = [0] * len(self.names)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            if self.outer[i]:
                busy[nid] += dur[i]
            own[nid] += dur[i] - child[i]
        per = {name: {"calls": calls[k], "busy_ns": busy[k], "self_ns": own[k]}
               for k, name in enumerate(self.names) if calls[k]}
        layer_self: dict[str, int] = defaultdict(int)
        for name, rec in per.items():
            layer_self[name.split(".", 1)[0]] += rec["self_ns"]
        yields = defaultdict(int)
        for (nid, pid), count in self.yields.items():
            yields[(self.names[nid], self.names[pid] if pid >= 0 else None)] += count
        return {"spans": per, "layer_self_ns": dict(layer_self),
                "job_ns": per[JOB]["busy_ns"] if JOB in per else 0,
                "yields": dict(yields), "counters": dict(self.counters),
                "span_count": n}

    def under(self, child_name: str, ancestor_name: str) -> int:
        """Spans named ``child_name`` with an open ``ancestor_name`` above them."""
        cid, aid = self._ids.get(child_name), self._ids.get(ancestor_name)
        if cid is None or aid is None:
            return 0
        inside = bytearray(len(self.name))
        count = 0
        for i in range(len(self.name)):
            p = self.parent[i]
            if p >= 0 and (inside[p] or self.name[p] == aid):
                inside[i] = 1
                if self.name[i] == cid:
                    count += 1
        return count

    def dump(self, path: Path) -> None:
        """Write every span, column by column, as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write('{"names": %s' % json.dumps(self.names))
            for key, col in (("name", self.name), ("parent", self.parent),
                             ("job", self.job), ("t0_ns", self.t0), ("t1_ns", self.t1)):
                fh.write(', "%s": [' % key)
                for start in range(0, len(col), 1 << 16):
                    if start:
                        fh.write(",")
                    fh.write(",".join(map(str, col[start:start + (1 << 16)])))
                fh.write("]")
            fh.write("}\n")


class _TracedIter:
    """Iterator wrapper: each ``next()`` is a span, each item a yield."""

    __slots__ = ("tracer", "nid", "gen")

    def __init__(self, tracer: Tracer, nid: int, gen):
        self.tracer, self.nid, self.gen = tracer, nid, gen

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        if not tracer.enabled:
            return next(self.gen)
        stack = tracer._stack
        pid = tracer.name[stack[-1]] if stack else -1
        idx = tracer.open(self.nid)
        try:
            item = next(self.gen)
        finally:
            tracer.close(idx, self.nid)
        tracer.yields[(self.nid, pid)] += 1
        return item
