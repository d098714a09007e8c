"""Span recording around the public functions of the hardedge layers.

`Tracer.install` wraps every public function of each layer module and puts
the wrapper in place of the original in every loaded `hardedge` module that
holds it, because `from .x import f` binds the name at import time.  It also
routes `numpy.linalg.svd`, as `montecarlo` calls it, through a span.  Spans
stay in memory; `write` saves them when the run ends.  `remove` restores the
original functions, so nothing outside a traced pass pays for the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types
from collections import defaultdict

import numpy

LAYERS = ("cli", "distributions", "microscopic", "montecarlo", "kernels",
          "pfaffian", "specfun")


class _LinalgProxy(types.ModuleType):
    def __init__(self, svd) -> None:
        super().__init__("numpy.linalg")
        self.svd = svd

    def __getattr__(self, name: str):
        return getattr(numpy.linalg, name)


class _NumpyProxy(types.ModuleType):
    def __init__(self, linalg: types.ModuleType) -> None:
        super().__init__("numpy")
        self.linalg = linalg

    def __getattr__(self, name: str):
        return getattr(numpy, name)


def _sampler_path(args, kwargs) -> str:
    config = args[0] if args else kwargs["config"]
    return "plain" if config.correlation is None else "correlated"


class Tracer:
    """In-memory spans: (name, start, end, parent index, invocation id)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str] | None] = []
        self.invocation = ""
        self.tricomi_args: list[tuple[float, float, float, float, int]] = []
        self.pfaffian_dim_max = 0
        self._stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def _wrap(self, name: str, fn, suffix=None, after=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if suffix is None else f"{name}.{suffix(args, kwargs)}"
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (label, start, end, parent, self.invocation)
            if after is not None:
                after(args, result)
            return result

        return traced

    def _record_tricomi(self, args, result) -> None:
        a, b, z = args
        self.tricomi_args.append((a, b, z, result.log_magnitude, result.sign))

    def _record_pfaffian(self, args, result) -> None:
        self.pfaffian_dim_max = max(self.pfaffian_dim_max, args[0].dim)

    def install(self) -> None:
        """Swap every public layer function for its traced wrapper."""
        hooks = {"specfun.tricomi_u": {"after": self._record_tricomi},
                 "pfaffian.pfaffian": {"after": self._record_pfaffian},
                 "montecarlo.sample_batch": {"suffix": _sampler_path}}
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"hardedge.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = self._wrap(name, fn, **hooks.get(name, {}))
        for module_name, module in list(sys.modules.items()):
            if module_name != "hardedge" and not module_name.startswith("hardedge."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patch(module, attr, wrapper)
        montecarlo = sys.modules["hardedge.montecarlo"]
        svd = self._wrap("montecarlo.svd", numpy.linalg.svd)
        self._patch(montecarlo, "np", _NumpyProxy(_LinalgProxy(svd)))

    def _patch(self, module: types.ModuleType, attr: str, value: object) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def remove(self) -> None:
        """Put every original function back."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and self time per span name.

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - child_time[index]
        return {name: (calls, self_s) for name, (calls, self_s) in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "invocation"],
                       "spans": self.spans}, handle)
