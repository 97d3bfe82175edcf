"""In-memory span tracer installed from outside the package.

``Tracer.install()`` wraps every public module-level function of the eight
``vortexpatch`` modules and rebinds each wrapped name in every loaded
``vortexpatch.*`` namespace that holds it (so ``from .x import f`` call sites
inside the package are traced too), plus the ``LinearOperatorMatrix`` algebra
methods on the class.  A span is (name, start, end, parent, run id); a
function's self time is its span duration minus the time its direct child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

MODULES = ("spectral", "geometry", "dynamics", "linearized", "spectrum",
           "cantor", "kam", "cli")
CLASS_METHODS = (("spectral", "LinearOperatorMatrix", "__matmul__"),
                 ("spectral", "LinearOperatorMatrix", "__add__"))


def _computed_bytes(args, result):
    # read the M x M table, write its gathered copy, write the complex spectrum
    table = args[0]
    return table.nbytes * 2 + table.size * 16


def _computed_flops(args, result):
    # one complex (2N x 2N) @ (2N x 2N) product per pair of bands, 8 real
    # flops per complex multiply-add
    left, right = args
    n = 2 * left.N
    return 8 * n ** 3 * len(left.bands) * len(right.bands)


def _has_interval(args, result):
    return 1 if result.intervals else 0


# extra per-call counters: function name -> (counter suffix, fn(args, result))
COUNTERS = {
    "spectral.shifted_kernel_integral": ("computed_bytes", _computed_bytes),
    "spectral.LinearOperatorMatrix.__matmul__": ("computed_flops", _computed_flops),
    "cantor.sublevel_measure": ("hits", _has_interval),
}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.run_id = 0
        self.names = []          # name id -> qualified name
        self.spans = []          # (name id, start, end, parent index, run id)
        self.counters = {}       # "<name>.<suffix>" -> int
        self.errors = {m: 0 for m in MODULES}
        self._stack = []
        self._restore = []       # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        module = name.split(".", 1)[0]
        counter = COUNTERS.get(name)
        spans, stack, errors, counters = (self.spans, self._stack, self.errors,
                                          self.counters)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except SystemExit as exc:
                if exc.code not in (0, None):
                    errors[module] += 1
                raise
            except BaseException:
                errors[module] += 1
                raise
            finally:
                spans[index] = (name_id, start, clock(), parent, self.run_id)
                stack.pop()
            if counter is not None:
                key = f"{name}.{counter[0]}"
                counters[key] = counters.get(key, 0) + counter[1](args, result)
            return result

        return traced

    def install(self):
        """Wrap the public functions of the eight modules (idempotent per tracer)."""
        if self._restore:
            return
        wrapped = {}  # id(original) -> wrapper
        for short in MODULES:
            mod = importlib.import_module(f"vortexpatch.{short}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapped[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "vortexpatch"
                                   or mod_name.startswith("vortexpatch.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrapped.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for short, cls_name, meth in CLASS_METHODS:
            cls = getattr(importlib.import_module(f"vortexpatch.{short}"), cls_name)
            orig = cls.__dict__[meth]
            self._restore.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per function: calls, total and self seconds; plus the counters."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        per = {}
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name_id, start, end, parent, _ = span
            entry = per.setdefault(self.names[name_id],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - child_time[index]
        return per

    def child_counts(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is ``parent_name``."""
        ids = {n: i for i, n in enumerate(self.names)}
        pid, cid = ids.get(parent_name), ids.get(child_name)
        return sum(1 for s in self.spans
                   if s is not None and s[0] == cid and s[3] >= 0
                   and self.spans[s[3]][0] == pid)

    def write_spans(self, path: str):
        """CSV of every span: name, start, end, parent index, run id."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,run_id\n")
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name_id, start, end, parent, run_id = span
                fh.write(f"{index},{self.names[name_id]},{start!r},{end!r},"
                         f"{parent},{run_id}\n")
