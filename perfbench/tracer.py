"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each named toricstab function with a wrapper in
every ``toricstab.*`` module namespace where the function object is bound,
because ``from .polytope import facet_volumes`` copies the binding into the
importing module.  A name the program no longer defines is reported as
absent instead of failing, so the benchmark survives refactors that delete
a layer.

Each wrapped call is a span whose parent is the innermost enclosing span.
Spans are folded into per-name totals as they close, which keeps memory
flat on hot functions: self time is the span's duration minus the time its
child spans cover (children of one span never overlap on one thread).
"""

from __future__ import annotations

import functools
import sys
import time
from importlib import import_module

# (module, function) pairs whose calls and self time the traced run reports.
LAYERS = (
    ("fan", "validate_fan"),
    ("polytope", "polytope_from_divisor"),
    ("polytope", "is_ample"),
    ("polytope", "facet_volumes"),
    ("lattice", "lattice_volume"),
    ("lattice", "dual_basis"),
    ("lattice", "hermite_canonical"),
    ("lattice", "integer_kernel"),
    ("lattice", "subspace_contains"),
    ("stability", "enumerate_candidates"),
    ("stability", "candidate_slope"),
    ("stability", "decide"),
    ("stability", "certificate"),
    ("sheafdata", "jump_data"),
    ("sheafdata", "validate_lambda_vector"),
    ("charts", "rank_one_exists"),
    ("cli", "load_fan_file"),
    ("cli", "report_for"),
)

ENUMERATE = "stability.enumerate_candidates"


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = tuple(f"{m}.{f}" for m, f in layers)
        self.calls = dict.fromkeys(self.layers, 0)
        self.self_s = dict.fromkeys(self.layers, 0.0)
        self.candidates = 0  # summed length of the lists ENUMERATE returned
        self.absent: list[str] = []
        self._stack: list[list[float]] = []  # [child time] of each open span
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
            if name == ENUMERATE:
                self.candidates += len(result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "toricstab" or key.startswith("toricstab.")]
        for name in self.layers:
            module_name, _, func_name = name.partition(".")
            try:
                fn = getattr(import_module(f"toricstab.{module_name}"), func_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()
