"""Span tracing of the cqca layers, installed from outside the package.

The tracer replaces the public functions of each cqca module (and the
working methods of its classes) with wrappers that record one span per
call: name, start, end and parent span.  A benchmark op opens a root span,
so every span belongs to exactly one op.  Spans stay in memory in flat
arrays and are written out once, when the run ends.

A name imported with ``from .x import y`` is a second reference to the same
function object, so the wrapper is installed at every import site (for
example ``cocycle.beta``, ``oracle.beta`` and ``cli.default_phase``).  A
wrapped method that calls a wrapped function of the same name (such as
``ScaMatrix.classify``) is left alone, so no call is counted twice.

Self time is a span's duration minus the time its child spans cover.  Work
the tracer itself does after a call returns (classifying a product,
counting kernel sizes) is recorded as a ``trace.hook`` span, so it is
charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "factor", "cocycle", "oracle", "sca", "phasespace", "laurent", "kernels", "ffield")

# Working methods of the public classes.  Cheap accessors (is_zero, coeff,
# degree, properties) are left out: they cost less than a span and their
# time is charged to the caller's layer.
METHODS = {
    ("laurent", "LaurentPoly"): ("__add__", "__sub__", "__neg__", "__mul__", "reflect", "is_palindrome", "shifted", "support"),
    ("phasespace", "PhaseVector"): ("__add__", "__sub__", "__neg__", "translate", "support"),
    ("sca", "ScaMatrix"): ("apply", "compose", "det", "inverse", "is_symplectic", "radius", "neighborhood", "shifted", "to_json_dict"),
    ("cocycle", "PhaseFunction"): ("evaluate", "correction"),
}

# Kernel entry points under their metric names; the backend-specific
# implementations behind them are not separate layers.
KERNELS = {"convolve_mod": "kernels.convolve", "convolve2d_mod": "kernels.convolve2d"}

# A product window more than 16 times its nonzero count (plus slack) is
# hollow; that is the traffic a sparse walk is for.
_HOLLOW_FACTOR = 16
_HOLLOW_SLACK = 64


def _metric_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.strip('_')}"


def _exponents(poly, support):
    """Exponent tuples of a polynomial, without going through a wrapper."""
    terms = getattr(poly, "terms", None)
    if isinstance(terms, dict):
        return terms
    return [e if isinstance(e, tuple) else (e,) for e in support(poly)]


def _window(exps):
    """Cell count and bounds of the smallest box holding the exponents."""
    d = len(next(iter(exps)))
    lo = [min(e[i] for e in exps) for i in range(d)]
    hi = [max(e[i] for e in exps) for i in range(d)]
    cells = 1
    for a, b in zip(lo, hi):
        cells *= b - a + 1
    return cells, lo, hi


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("l")
        self.stack = [-1]
        self.op_roots = array("l")
        self.counts: Counter = Counter()
        self.mul_paths = {k: array("l") for k in ("monomial", "dense", "sparse")}
        self._patches: list[tuple] = []
        self._support = None
        self._active = [True]
        self._hook_id = self._name_id("trace.hook")
        self._op_id = self._name_id("op")

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def pause(self) -> None:
        """Stop recording (the benchmark's own checks call cqca too)."""
        self._active[0] = False

    def resume(self) -> None:
        self._active[0] = True

    def begin_op(self) -> None:
        self.op_roots.append(self._open(self._op_id))

    def end_op(self) -> None:
        self._close(self.op_roots[-1])

    def _wrap(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        starts, ends, names, parents, stack = self.start, self.end, self.name, self.parent, self.stack
        hook_id = self._hook_id
        clock = time.perf_counter
        active = self._active

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                t0 = clock()
                hook(args, result, idx)
                names.append(hook_id)
                parents.append(stack[-1])
                starts.append(t0)
                ends.append(clock())
            return result

        return wrapper

    # -- hooks: counts measured where the work happens ---------------------

    def _mul_hook(self, args, result, idx):
        a, b = args[0], args[1]
        if not hasattr(b, "support"):
            self.mul_paths["monomial"].append(idx)
            return
        exps_a = _exponents(a, self._support)
        exps_b = _exponents(b, self._support)
        if len(exps_a) <= 1 or len(exps_b) <= 1:
            self.mul_paths["monomial"].append(idx)
            return
        cells_a, lo_a, hi_a = _window(exps_a)
        cells_b, lo_b, hi_b = _window(exps_b)
        hollow = (
            cells_a > _HOLLOW_FACTOR * len(exps_a) + _HOLLOW_SLACK
            or cells_b > _HOLLOW_FACTOR * len(exps_b) + _HOLLOW_SLACK
        )
        if hollow:
            self.mul_paths["sparse"].append(idx)
            return
        self.mul_paths["dense"].append(idx)
        cells = 1
        for i in range(len(lo_a)):
            cells *= (hi_a[i] + hi_b[i]) - (lo_a[i] + lo_b[i]) + 1
        self.counts["laurent.mul.dense_cells"] += cells
        self.counts["laurent.mul.dense_nonzero"] += len(_exponents(result, self._support))

    def _kernel_hook(self, name):
        def hook(args, result, idx):
            a, b = args[0], args[1]
            self.counts[f"{name}.madds"] += int(a.size) * int(b.size)
            self.counts[f"{name}.bytes"] += int(a.nbytes + b.nbytes + result.nbytes)

        return hook

    def _weyl_hook(self, args, result, idx):
        self.counts["oracle.dense_bytes"] += int(getattr(result, "nbytes", 0))

    def _factorize_counting(self, fn):
        counts = self.counts

        def factorize(s, step_hook=None):
            def hook(*degrees):
                counts["factor.euclid_steps"] += 1
                if step_hook is not None:
                    step_hook(*degrees)

            return fn(s, step_hook=hook)

        return factorize

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Point every cqca module attribute that holds ``original`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cqca" or modname.startswith("cqca.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        present = []
        for layer in LAYERS:
            try:
                present.append((layer, importlib.import_module(f"cqca.{layer}")))
            except ImportError:
                continue  # a layer a later version removed
        laurent = dict(present).get("laurent")
        if laurent is not None and hasattr(laurent, "LaurentPoly"):
            self._support = laurent.LaurentPoly.support
        for layer, mod in present:
            if layer == "kernels":
                for attr, name in KERNELS.items():
                    fn = getattr(mod, attr, None)
                    if callable(fn):
                        self._replace_everywhere(fn, self._wrap(name, fn, self._kernel_hook(name)))
                continue
            functions = {}
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", "") == mod.__name__:
                    functions[attr] = fn
            for attr, fn in functions.items():
                name = _metric_name(layer, attr)
                hook = self._weyl_hook if name == "oracle.weyl_matrix" else None
                target = self._factorize_counting(fn) if name == "factor.factorize" else fn
                self._replace_everywhere(fn, self._wrap(name, target, hook))
            for (mlayer, clsname), methods in METHODS.items():
                if mlayer != layer or not hasattr(mod, clsname):
                    continue
                cls = getattr(mod, clsname)
                for attr in methods:
                    fn = cls.__dict__.get(attr)
                    if fn is None or not callable(fn) or attr in functions:
                        continue
                    name = _metric_name(layer, attr)
                    wrapper = self._wrap(name, fn, self._mul_hook if name == "laurent.mul" else None)
                    for alias, value in list(cls.__dict__.items()):
                        if value is fn:
                            self._patches.append((cls, alias, fn))
                            setattr(cls, alias, wrapper)
        ffield = dict(present).get("ffield")
        fp = getattr(ffield, "Fp", None) if ffield else None
        if isinstance(fp, type):
            init = fp.__init__
            counts = self.counts

            def counting_init(obj, *args, **kwargs):
                counts["ffield.Fp.created"] += 1
                init(obj, *args, **kwargs)

            self._patches.append((fp, "__init__", init))
            fp.__init__ = counting_init

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n).copy()
        end = np.frombuffer(self.end, dtype=np.float64, count=n).copy()
        name = np.frombuffer(self.name, dtype=np.int32, count=n).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n).copy()
        roots = np.frombuffer(self.op_roots, dtype=np.int64).copy()
        op = np.searchsorted(roots, np.arange(n), side="right") - 1
        return start, end, name, parent, op, roots

    def summarize(self) -> dict:
        """Per-name calls and self time, per-layer totals, and per-op attribution."""
        start, end, name, parent, op, roots = self.arrays()
        n = len(start)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_t = dur - child
        nnames = len(self.names)
        calls = np.bincount(name, minlength=nnames)
        self_by_name = np.bincount(name, weights=self_t, minlength=nnames)
        out = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        for i, nm in enumerate(self.names):
            out[f"{nm}.calls"] = int(calls[i])
            out[f"{nm}.self_s"] = float(self_by_name[i])
            layer = nm.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += float(self_by_name[i])
                layer_calls[layer] += int(calls[i])
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
            out[f"{layer}.calls"] = layer_calls[layer]
        for path, idx in self.mul_paths.items():
            idx = np.frombuffer(idx, dtype=np.int64)
            out[f"laurent.mul.{path}"] = int(len(idx))
            out[f"laurent.mul.{path}.self_s"] = float(self_t[idx].sum()) if len(idx) else 0.0
        out.update(self.counts)
        cells = self.counts["laurent.mul.dense_cells"]
        out["laurent.mul.dense_fill"] = self.counts["laurent.mul.dense_nonzero"] / cells if cells else 0.0
        # Per op: layer self time against the op's wall time, with the
        # tracer's own hook time taken out of both.
        nops = len(roots)
        layer_ids = np.array(
            [nm.split(".", 1)[0] in layer_self for nm in self.names], dtype=bool
        )
        in_layer = layer_ids[name]
        hook = name == self._hook_id
        op_layer = np.bincount(op[in_layer], weights=self_t[in_layer], minlength=nops)
        op_hook = np.bincount(op[hook], weights=dur[hook], minlength=nops)
        op_wall = dur[roots] - op_hook
        unattributed = np.where(op_wall > 0, 1.0 - op_layer / op_wall, 0.0)
        out["trace.ops"] = nops
        out["trace.spans"] = n
        out["trace.unattributed_max_pct"] = float(100 * unattributed.max()) if nops else 0.0
        out["trace.ops_unattributed_gt5pct"] = int((unattributed > 0.05).sum())
        out["trace.hook_s"] = float(dur[hook].sum())
        return out

    def write(self, path) -> None:
        """Write every span (and the name table) to one .npz file."""
        start, end, name, parent, op, _ = self.arrays()
        np.savez(
            path,
            start=start,
            end=end,
            name=name,
            parent=parent,
            op=op,
            names=np.array(json.dumps(self.names)),
        )
