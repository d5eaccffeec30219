"""Spans around every call into choikit's public functions, taken from outside.

install() replaces each public function of the layer modules with a wrapper,
in every choikit module namespace that holds it, so calls within a module
(global lookups) and between modules (attribute lookups or names imported
with `from`) are both caught. Spans are kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "io", "certify", "linalg", "choi", "extremal", "decompose", "uniqueness")

# Function-level metrics the benchmark reports, as (function, statistic).
FUNCTIONS = (
    ("certify.block_positive", "ms_per_call"),
    ("certify.cp_check", "ms_per_call"),
    ("certify.ccp_check", "ms_per_call"),
    ("linalg.psd_check", "ms_per_call"),
    ("linalg.as_matrix", "calls_per_op"),
    ("extremal.validate_extremal", "calls_per_op"),
    ("decompose.decompose_extremal", "ms_per_call"),
    ("decompose.verify_decomposition", "ms_per_call"),
    ("cli.build_parser", "ms_per_call"),
    ("io.matrix_from_json", "ms_per_call"),
    ("io.dumps_report", "ms_per_call"),
    ("uniqueness.uniqueness_search", "ms_per_call"),
    ("uniqueness.epsilon_family", "ms_per_call"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.errors: list[int] = []
        # (function id, start ns, end ns, parent span index or -1, op index)
        self.spans: list = []
        self.op = 0
        self._stack: list[int] = []
        self._patched: list = []
        self._wrappers: dict = {}

    def install(self) -> None:
        """Put the wrappers in place; uninstall() takes them out again."""
        wrappers = self._wrappers
        if not wrappers:
            for layer in LAYERS:
                mod = importlib.import_module("choikit." + layer)
                for name, obj in vars(mod).items():
                    if (not name.startswith("_") and inspect.isfunction(obj)
                            and obj.__module__ == mod.__name__):
                        wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "choikit" and not modname.startswith("choikit."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in self._patched:
            setattr(mod, name, obj)
        self._patched.clear()

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        self.errors.append(0)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[fid] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (fid, t0, t1, parent, self.op)

        return wrapper

    def totals(self):
        """Per function: calls, inclusive ns and self ns (minus child spans)."""
        n = len(self.names)
        calls, incl, own = [0] * n, [0] * n, [0] * n
        child = [0] * len(self.spans)
        for fid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (fid, t0, t1, _, _) in enumerate(self.spans):
            calls[fid] += 1
            incl[fid] += t1 - t0
            own[fid] += t1 - t0 - child[i]
        return {name: (calls[i], incl[i], own[i], self.errors[i])
                for i, name in enumerate(self.names)}

    def metrics(self, ops: int) -> dict:
        """Layer and function metrics per op (ops = ops run while installed)."""
        totals = self.totals()
        out = {}
        for layer in LAYERS:
            rows = [v for k, v in totals.items() if k.split(".")[0] == layer]
            out[f"{layer}.self_ms_per_op"] = sum(r[2] for r in rows) / ops / 1e6
            out[f"{layer}.calls_per_op"] = sum(r[0] for r in rows) / ops
            out[f"{layer}.errors_per_op"] = sum(r[3] for r in rows) / ops
        for name, stat in FUNCTIONS:
            calls, incl, _, _ = totals.get(name, (0, 0, 0, 0))
            if stat == "ms_per_call":
                out[f"{name}.{stat}"] = incl / calls / 1e6 if calls else 0.0
            else:
                out[f"{name}.{stat}"] = calls / ops
        out["trace.spans_per_op"] = len(self.spans) / ops
        return out

    def search_seconds(self) -> float:
        return self.totals().get("uniqueness.uniqueness_search", (0, 0))[1] / 1e9

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for fid, t0, t1, parent, op in self.spans:
                fh.write(json.dumps({"op": op, "name": self.names[fid], "start_ns": t0,
                                     "end_ns": t1, "parent": parent}) + "\n")
