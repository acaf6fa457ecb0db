"""Per-layer tracing installed from outside the package.

``Tracer.install()`` replaces every public function of the seven psibounds
modules with a wrapper that counts calls, exceptions and time, and restores
the originals on ``uninstall()``.  The package calls across modules through
module attributes (``specfun.trigamma``, ``kernels.kernel_r``...) and within
a module through its globals, so patching the module attribute reaches every
call site.  Nothing under ``src/`` is edited.

Span layers (cli, verifier, bounds, specfun, oracle) keep one span per call:
``[function id, start, end, parent span id]``.  Counter layers (tails,
kernels) keep sums only: certify makes millions of kernel calls, too many to
hold as spans.  Self time is accumulated as each call returns: a call's
duration minus the time spent in wrapped callees of any layer.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

SPAN_LAYERS = ("cli", "verifier", "bounds", "specfun", "oracle")
COUNTER_LAYERS = ("tails", "kernels")
LAYERS = SPAN_LAYERS + COUNTER_LAYERS

# Field indices of the per-layer accumulator lists.
_CALLS, _OUTER, _RAISED, _TIME, _SELF, _DEPTH = range(6)


def _public_functions(module):
    """(name, callable) for functions defined in ``module`` without a leading _.

    The oracle's ``ref_*`` are ``functools.lru_cache`` objects, so the test is
    on ``__module__`` rather than on the function type.
    """
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or not callable(obj) or isinstance(obj, type):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Counts, times and spans for every public function of the package."""

    def __init__(self, package_modules: dict):
        self._modules = package_modules
        self._saved: list[tuple[object, str, object]] = []
        self.layer = {name: [0, 0, 0, 0.0, 0.0, 0] for name in LAYERS}
        self.fn_calls: list[int] = []
        self.fn_time: list[float] = []
        self.raised_by: Counter = Counter()  # (layer, exception class) at exit
        self.fn_names: list[str] = []
        self.spans: list[list] = []
        # The root frame collects time spent in wrapped calls made directly
        # by the benchmark; its span id is -1.
        self._stack: list[list] = [[0.0, -1]]

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for layer in LAYERS:
            module = self._modules[layer]
            for name, fn in list(_public_functions(module)):
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(fn, layer, f"{layer}.{name}"))

    def uninstall(self) -> None:
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, layer: str, qualname: str):
        acc = self.layer[layer]
        stack = self._stack
        spans = self.spans if layer in SPAN_LAYERS else None
        fn_id = len(self.fn_names)
        self.fn_names.append(qualname)
        self.fn_calls.append(0)
        self.fn_time.append(0.0)
        fn_calls, fn_time, raised_by = self.fn_calls, self.fn_time, self.raised_by
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acc[_CALLS] += 1
            if acc[_DEPTH] == 0:
                acc[_OUTER] += 1
            acc[_DEPTH] += 1
            parent = stack[-1]
            if spans is not None:
                span = [fn_id, 0.0, 0.0, parent[1]]
                frame = [0.0, len(spans)]
                spans.append(span)
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if acc[_DEPTH] == 1:
                    acc[_RAISED] += 1
                    raised_by[(layer, type(exc).__name__)] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                acc[_DEPTH] -= 1
                elapsed = t1 - t0
                parent[0] += elapsed
                acc[_SELF] += elapsed - frame[0]
                if acc[_DEPTH] == 0:
                    acc[_TIME] += elapsed
                fn_calls[fn_id] += 1
                fn_time[fn_id] += elapsed
                if spans is not None:
                    span[1], span[2] = t0, t1

        if hasattr(fn, "cache_clear"):
            # oracle.clear_caches() calls cache_clear() on the module globals,
            # which are now these wrappers: hand it the real lru_cache methods.
            wrapper.cache_clear = fn.cache_clear
            wrapper.cache_info = fn.cache_info
        return wrapper

    # -- results ------------------------------------------------------------

    def calls(self, qualname: str) -> int:
        return self.fn_calls[self.fn_names.index(qualname)]

    def time_s(self, qualname: str) -> float:
        return self.fn_time[self.fn_names.index(qualname)]

    def layer_metrics(self) -> dict:
        out = {}
        for name, acc in self.layer.items():
            out[f"{name}.calls"] = acc[_CALLS]
            out[f"{name}.time_s"] = acc[_TIME]
            out[f"{name}.self_s"] = acc[_SELF]
            out[f"{name}.raised"] = acc[_RAISED]
        return out

    def outer_calls(self, layer: str) -> int:
        return self.layer[layer][_OUTER]

    def span_dump(self) -> dict:
        return {"functions": self.fn_names,
                "fields": ["function", "start_s", "end_s", "parent"],
                "spans": self.spans}
