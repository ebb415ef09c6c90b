"""Spans around the calls into each layer's public functions, from outside.

``Tracer.install`` replaces each traced function with a wrapper on every
``vardtf`` module attribute that holds it, so a caller that imported the
name (``vardtf.marginal.autocov``) is traced as well as the defining module
(``vardtf.moments.autocov``). ``uninstall`` puts the originals back, so an
untraced pass runs the program unchanged. Spans (name, start, end, parent)
are kept in memory; per-layer metrics are computed from them at the end.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
import tracemalloc
from collections import defaultdict

#: Traced functions, by module. ``cli.main`` is the root of every command, so
#: its self time is parsing, glue and table printing.
TRACED = {
    "cli": ("main",),
    "model": ("read_model",),
    "spectral": (
        "char_polynomial", "transfer_function", "dtf", "spectral_density",
        "frequency_matrix_to_csv",
    ),
    "reduction": ("reduce_pair", "whiteness_deficit"),
    "moments": ("autocov", "block_toeplitz"),
    "marginal": ("marginal_representation", "whittle_recursion", "innovation_whiteness_check"),
    "causality": ("full_report",),
    "estimate": ("simulate", "write_trajectory", "read_trajectory", "fit_var", "residual_whiteness"),
    "jsonio": ("canonical_json",),
}

#: Per-layer metrics reported by a traced run: (name, unit, better).
LAYER_METRICS = [(f"{name}.{stat}", unit, better) for name, stat, unit, better in (
    ("cli.main", "self_s", "s", "lower"),
    ("model.read_model", "calls", "count", "lower"),
    ("model.read_model", "self_s", "s", "lower"),
    ("spectral.char_polynomial", "calls", "count", "lower"),
    ("spectral.transfer_function", "calls", "count", "lower"),
    ("spectral.transfer_function", "self_s", "s", "lower"),
    ("spectral.dtf", "self_s", "s", "lower"),
    ("spectral.spectral_density", "calls", "count", "lower"),
    ("spectral.spectral_density", "self_s", "s", "lower"),
    ("spectral.frequency_matrix_to_csv", "self_s", "s", "lower"),
    ("spectral.frequency_matrix_to_csv", "bytes", "B", "lower"),
    ("reduction.reduce_pair", "calls", "count", "lower"),
    ("reduction.reduce_pair", "self_s", "s", "lower"),
    ("reduction.whiteness_deficit", "self_s", "s", "lower"),
    ("moments.autocov", "calls", "count", "lower"),
    ("moments.autocov", "self_s", "s", "lower"),
    ("moments.autocov", "per_model", "calls/model", "lower"),
    ("moments.block_toeplitz", "calls", "count", "lower"),
    ("moments.block_toeplitz", "self_s", "s", "lower"),
    ("marginal.marginal_representation", "calls", "count", "lower"),
    ("marginal.marginal_representation", "self_s", "s", "lower"),
    ("marginal.whittle_recursion", "calls", "count", "lower"),
    ("marginal.whittle_recursion", "self_s", "s", "lower"),
    ("marginal", "whittle_order_steps", "count", "lower"),
    ("marginal", "order_step_yield", "ratio", "higher"),
    ("marginal.innovation_whiteness_check", "self_s", "s", "lower"),
    ("causality.full_report", "calls", "count", "lower"),
    ("causality.full_report", "self_s", "s", "lower"),
    ("causality", "pairs", "count", "higher"),
    ("causality", "pair_errors", "count", "lower"),
    ("estimate.simulate", "self_s", "s", "lower"),
    ("estimate.simulate", "samples", "count", "higher"),
    ("estimate.write_trajectory", "self_s", "s", "lower"),
    ("estimate.write_trajectory", "bytes", "B", "lower"),
    ("estimate.read_trajectory", "self_s", "s", "lower"),
    ("estimate.fit_var", "self_s", "s", "lower"),
    ("estimate.fit_var", "peak_alloc_mb", "MB", "lower"),
    ("estimate.residual_whiteness", "self_s", "s", "lower"),
    ("jsonio.canonical_json", "calls", "count", "lower"),
    ("jsonio.canonical_json", "self_s", "s", "lower"),
    ("jsonio.canonical_json", "bytes", "B", "lower"),
)]


class _CountingWriter:
    """File-like proxy that counts the bytes written through it."""

    def __init__(self, fh):
        self.fh, self.count = fh, 0

    def write(self, text: str) -> int:
        self.count += len(text.encode("utf-8"))
        return self.fh.write(text)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def _model_key(model) -> str:
    digest = hashlib.sha256(model.sigma.tobytes())
    for coeff in model.coeffs:
        digest.update(coeff.tobytes())
    return digest.hexdigest()


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self._stack: list = []
        self.counters: dict = defaultdict(float)
        self._models: set = set()
        self._originals: dict = {}

    def install(self) -> None:
        wrappers = {}
        for module, names in TRACED.items():
            mod = sys.modules.get(f"vardtf.{module}")
            for name in names:
                fn = getattr(mod, name, None)
                if callable(fn):
                    wrappers[id(fn)] = (fn, self._wrap(f"{module}.{name}", fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "vardtf" and not mod_name.startswith("vardtf."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    self._originals[(mod, attr)] = value

    def uninstall(self) -> None:
        for (mod, attr), value in self._originals.items():
            setattr(mod, attr, value)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        hook = name.replace(".", "_")
        before = getattr(self, "_before_" + hook, None)
        after = getattr(self, "_after_" + hook, None)
        cleanup = getattr(self, "_finally_" + hook, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            if state is not None:
                args, kwargs = state[0], state[1]
            index = len(self.spans)
            span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if cleanup:
                    cleanup()
            if after:
                after(args, kwargs, result, state)
            return result

        return wrapper

    # Counters at the same boundaries. A ``_before_`` hook may return
    # (args, kwargs, extra) to substitute arguments; ``_after_`` gets it back
    # after a successful call, ``_finally_`` runs after every call.

    def _writer_before(self, args, kwargs):
        if "fh" in kwargs:
            counting = _CountingWriter(kwargs["fh"])
            return args, {**kwargs, "fh": counting}, counting
        counting = _CountingWriter(args[1])
        return (args[0], counting, *args[2:]), kwargs, counting

    _before_spectral_frequency_matrix_to_csv = _writer_before
    _before_estimate_write_trajectory = _writer_before

    def _after_spectral_frequency_matrix_to_csv(self, args, kwargs, result, state):
        self.counters["spectral.frequency_matrix_to_csv.bytes"] += state[2].count

    def _after_estimate_write_trajectory(self, args, kwargs, result, state):
        self.counters["estimate.write_trajectory.bytes"] += state[2].count

    def _after_jsonio_canonical_json(self, args, kwargs, result, state):
        self.counters["jsonio.canonical_json.bytes"] += len(result.encode("utf-8"))

    def _after_estimate_simulate(self, args, kwargs, result, state):
        self.counters["estimate.simulate.samples"] += result.length

    def _after_moments_autocov(self, args, kwargs, result, state):
        self._models.add(_model_key(args[0] if args else kwargs["model"]))

    def _after_marginal_whittle_recursion(self, args, kwargs, result, state):
        self.counters["marginal.whittle_order_steps"] += result.order_used

    def _after_marginal_marginal_representation(self, args, kwargs, result, state):
        self.counters["marginal.orders_used"] += result.order_used

    def _after_causality_full_report(self, args, kwargs, result, state):
        self.counters["causality.pairs"] += len(result.pairs)
        self.counters["causality.pair_errors"] += sum(p.error is not None for p in result.pairs)

    def _before_estimate_fit_var(self, args, kwargs):
        tracemalloc.start()
        return None

    def _finally_estimate_fit_var(self):
        peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        key = "estimate.fit_var.peak_alloc_mb"
        self.counters[key] = max(self.counters[key], peak)

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        calls: dict = defaultdict(int)
        self_s: dict = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_s):
            calls[name] += 1
            self_s[name] += end - start - children
        values = {}
        for metric, _, _ in LAYER_METRICS:
            name, stat = metric.rsplit(".", 1)
            if stat == "calls":
                values[metric] = calls[name]
            elif stat == "self_s":
                values[metric] = self_s[name]
            else:
                values[metric] = self.counters[metric]
        steps = self.counters["marginal.whittle_order_steps"]
        values["marginal.order_step_yield"] = (
            self.counters["marginal.orders_used"] / steps if steps else 0.0
        )
        values["moments.autocov.per_model"] = (
            calls["moments.autocov"] / len(self._models) if self._models else 0.0
        )
        return values

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
