"""Run one braidinv CLI request with its layers wrapped in timing spans.

Usage: python3 bench/traced_cli.py SPANS_JSON CLI_ARGS...

Every public function and method of the modules in layers.MODULES is
replaced, from outside the package, by a wrapper that records a span
(function, start, end, parent span).  Names that other braidinv modules
imported are rebound too, so `from .braid_ring import multiply` in
inverse_engine reaches the wrapper.  Spans stay in memory and are written
to SPANS_JSON when the request ends; stdout and the exit code are the
CLI's own.

Observing return values (layers.observe) happens on a paused clock, so it
is charged to no span; it still shows in the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402  (bench/ is sys.path[0] when run as a script)


class Tracer:
    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = [-1]
        self.paused = 0.0
        self.stats = {}

    def now(self):
        return time.perf_counter() - self.paused

    def wrap(self, fn, fid):
        fid_index = len(self.names)
        self.names.append(fid)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1]
            tracer.stack.append(index)
            start = tracer.now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.now()
                tracer.stack.pop()
                tracer.spans[index] = (fid_index, start, end, parent)
            pause = time.perf_counter()
            layers.observe(fid, args, result, tracer.stats)
            tracer.paused += time.perf_counter() - pause
            return result

        return wrapper

    def install(self):
        """Wrap every public function and method; return the wrapped count."""
        replaced = {}
        for name in layers.MODULES:
            module = importlib.import_module(f"braidinv.{name}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self.wrap(obj, f"{name}.{attr}")
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, name)
        for module in [m for n, m in sys.modules.items()
                       if n == "braidinv" or n.startswith("braidinv.")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced and callable(obj):
                    setattr(module, attr, replaced[id(obj)])
        if len(set(self.names)) != len(self.names):
            raise RuntimeError("two traced functions share a metric name")
        return len(self.names)

    def _wrap_methods(self, cls, module_name):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            fid = f"{module_name}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(raw.__func__, fid)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(raw, fid))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans,
                       "stats": self.stats}, handle)


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = importlib.import_module("braidinv.cli")
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
