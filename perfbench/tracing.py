"""Span tracing from outside the program, for the per-layer metrics.

The tracer rebinds the public functions of each resmono module, the dense
``numpy.linalg`` / ``scipy.linalg`` entry points and ``scipy.optimize.minimize``
to wrappers that record one span per call: name, start, end, parent span and
op id. Modules import each other's functions by name (``from .qmat import
hermitize``), so a function is rebound in every module namespace that holds
it. Spans live in flat arrays in memory and are written out after the run.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYER_MODULES = ("qmat", "divergences", "smoothing", "monotones", "constructions",
                 "catalysis", "cli")
LINALG_FUNCS = ("eigh", "eigvalsh", "svd", "inv", "qr")


def linalg_flops(name, a, kwargs):
    """Textbook LAPACK flop counts from the argument's shape (computed, not measured).

    Complex arithmetic counts four real flops per multiply-add pair. Counts
    are integers, so that their sums repeat exactly."""
    a = np.asarray(a)
    if a.ndim < 2:
        return 0
    m, n = a.shape[-2:]
    batch = int(np.prod(a.shape[:-2]))
    k = min(m, n)
    if name == "eigvalsh":
        f = 4 * n ** 3 // 3
    elif name == "eigh":
        f = 9 * n ** 3
    elif name == "svd":
        want_uv = kwargs.get("compute_uv", True)
        f = (4 * m * m * n + 8 * m * n * n + 9 * n ** 3) if want_uv else (
            4 * max(m, n) * k * k - 4 * k ** 3 // 3)
    elif name == "inv":
        f = 2 * n ** 3
    else:  # qr
        f = 2 * max(m, n) * k * k - 2 * k ** 3 // 3
    if np.iscomplexobj(a):
        f *= 4
    return batch * f


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.name = array("h")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self._op = [-1]
        self.totals = {}      # (name, key) -> summed count: nfev, nit, bytes, flops
        self._undo = []
        self._emit_pos = 0

    # -- recording ---------------------------------------------------------

    def set_op(self, op_id):
        self._op[0] = op_id

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _add(self, name, key, value):
        self.totals[(name, key)] = self.totals.get((name, key), 0) + value

    def wrap(self, fn, name, before=None, after=None):
        """A wrapper of fn that records a span; before(args, kwargs) may rewrite
        the arguments, after(args, kwargs, result) may add totals."""
        nid = self._intern(name)
        t0s, t1s, names, parents, ops = self.t0, self.t1, self.name, self.parent, self.op
        stack, cur_op, clock = self._stack, self._op, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            i = len(t0s)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(cur_op[0])
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(i)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                t0s[i] = start
                t1s[i] = end
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def current_layer(self):
        top = self._stack[-1]
        return self.names[self.name[top]].split(".")[0] if top >= 0 else "bench"

    # -- installing --------------------------------------------------------

    def _rebind(self, namespaces, original, replacement):
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if val is original:
                    setattr(ns, attr, replacement)
                    self._undo.append((ns, attr, original))

    def install(self):
        import numpy.linalg
        import scipy.linalg
        import scipy.optimize

        pkg = [m for n, m in sys.modules.items()
               if m is not None and (n == "resmono" or n.startswith("resmono."))]
        for short in LAYER_MODULES:
            mod = sys.modules[f"resmono.{short}"]
            for fname, fn in list(vars(mod).items()):
                if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                label = fname[4:] if short == "cli" and fname.startswith("cmd_") else fname
                hooks = {}
                if (short, fname) == ("cli", "emit"):
                    hooks = {"before": self._emit_start, "after": self._emit_bytes}
                self._rebind(pkg, fn, self.wrap(fn, f"{short}.{label}", **hooks))

        for lib in (numpy.linalg, scipy.linalg):
            for fname in LINALG_FUNCS:
                fn = getattr(lib, fname)
                after = functools.partial(self._count_flops, fname)
                self._rebind([lib], fn, self.wrap(fn, f"linalg.{fname}", after=after))

        fn = scipy.optimize.minimize
        self._rebind([scipy.optimize], fn,
                     self.wrap(fn, "optimize.minimize", before=self._wrap_objective,
                               after=self._count_iterations))

    def uninstall(self):
        for ns, attr, original in reversed(self._undo):
            setattr(ns, attr, original)
        self._undo.clear()

    # -- per-entry-point hooks ---------------------------------------------

    def _count_flops(self, fname, args, kwargs, out):
        if args:
            self._add(f"linalg.{fname}", "flops", linalg_flops(fname, args[0], kwargs))

    def _wrap_objective(self, args, kwargs):
        # objective and gradient callables run the caller's code: give them
        # spans in the caller's layer so optimize's self time is scipy's own
        layer = self.current_layer()
        args = list(args)
        if args:
            args[0] = self.wrap(args[0], f"{layer}.objective")
        if callable(kwargs.get("jac")):
            kwargs = dict(kwargs, jac=self.wrap(kwargs["jac"], f"{layer}.gradient"))
        return tuple(args), kwargs

    def _count_iterations(self, args, kwargs, res):
        self._add("optimize.minimize", "nfev", int(getattr(res, "nfev", 0) or 0))
        self._add("optimize.minimize", "nit", int(getattr(res, "nit", 0) or 0))

    def _emit_start(self, args, kwargs):
        self._emit_pos = sys.stdout.tell()
        return args, kwargs

    def _emit_bytes(self, args, kwargs, out):
        # the op captures stdout in a StringIO; its ASCII text is one byte a character
        self._add("cli.emit", "bytes", sys.stdout.tell() - self._emit_pos)

    # -- results -----------------------------------------------------------

    def arrays(self):
        t0 = np.frombuffer(self.t0, dtype=np.float64)
        t1 = np.frombuffer(self.t1, dtype=np.float64)
        return {"name": np.frombuffer(self.name, dtype=np.int16),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "t0": t0, "t1": t1}

    def per_name(self):
        """name -> {calls, incl_s, self_s} over every span recorded."""
        a = self.arrays()
        dur = a["t1"] - a["t0"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=self_s, minlength=k)
        return {n: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
                for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
