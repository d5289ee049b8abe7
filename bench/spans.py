"""Outside-in layer tracing: wrappers installed on the layer boundaries.

The tracer replaces, for the duration of a traced pass, every function that
``cli``, ``lab``, ``wavepackets`` and ``observables`` import from another
layer, the entry points the benchmark itself calls, the tunnel amplitude that
``propagate_tunnel_transmitted`` imports at call time, and
``numpy.polynomial.legendre.leggauss``.  Each call becomes a span (pass id,
name, parent, start, end, work size) kept in memory.  ``core`` gets no spans:
its calls take microseconds and run inside the other layers' spans.

A span's self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

_TRACED_LAYERS = ("lab", "wavepackets", "observables", "stationary")
_QUADRATURE = ("propagate_component", "propagate_tunnel_transmitted")
_CROSSCHECKS = ("rel_variational_residual", "symmetric_dwell_quadrature")

# per-layer metrics of one pass: name -> unit
METRICS = {
    "stationary.calls": "count",
    "stationary.self_s": "s",
    "stationary.k_points": "count",
    "wavepackets.fields": "count",
    "wavepackets.quad_self_s": "s",
    "wavepackets.coeff_evals": "count",
    "wavepackets.series_s": "s",
    "observables.leggauss_calls": "count",
    "observables.leggauss_s": "s",
    "observables.crosscheck_calls": "count",
    "observables.crosscheck_self_s": "s",
    "observables.closed_calls": "count",
    "observables.closed_self_s": "s",
    "observables.search_calls": "count",
    "observables.search_self_s": "s",
    "observables.objective_evals": "count",
    "lab.parse_s": "s",
    "lab.driver_self_s": "s",
    "lab.emit_s": "s",
    "lab.emit_bytes": "bytes",
    "lab.rows": "count",
    "cli.self_s": "s",
}


def category(name: str) -> str:
    """Layer bucket of a span name such as 'observables.kmax_find'."""
    layer, _, func = name.partition(".")
    if layer == "wavepackets":
        if func in _QUADRATURE:
            return "wavepackets.quad"
        return "wavepackets.series" if func == "multipeak_partial_sum_field" else "wavepackets.other"
    if layer == "observables":
        if func == "kmax_find":
            return "observables.search"
        if func == "leggauss":
            return "observables.leggauss"
        return "observables.crosscheck" if func in _CROSSCHECKS else "observables.closed"
    if layer == "lab":
        return {"parse_config": "lab.parse", "run_scenario": "lab.driver",
                "emit_tables": "lab.emit"}.get(func, "lab.other")
    return layer


def _size_of_first_arg(args, result):
    return int(np.size(args[0]))


def _emitted_bytes(args, result):
    return sum(os.path.getsize(path) for path in result)


def _row_count(args, result):
    return sum(len(table.rows) for table in result)


_MEASURES = {"stationary": _size_of_first_arg, "lab.emit": _emitted_bytes,
             "lab.driver": _row_count}


def boundaries():
    """(owner, attribute, span name) of every wrapped callable."""
    import numpy.polynomial.legendre as legendre
    from tunnellab import cli, lab, observables, stationary, wavepackets

    found = []
    for importer in (cli, lab, wavepackets, observables):
        for attr, obj in vars(importer).items():
            if not inspect.isfunction(obj) or obj.__module__ == importer.__name__:
                continue
            layer = obj.__module__.rpartition(".")[2]
            if obj.__module__.startswith("tunnellab.") and layer in _TRACED_LAYERS:
                found.append((importer, attr, f"{layer}.{attr}"))
    found += [
        (cli, "main", "cli.main"),
        (lab, "parse_config", "lab.parse_config"),
        (lab, "run_scenario", "lab.run_scenario"),
        (lab, "emit_tables", "lab.emit_tables"),
        (wavepackets, "propagate_tunnel_transmitted", "wavepackets.propagate_tunnel_transmitted"),
        (stationary, "tunnel_amplitude_nr", "stationary.tunnel_amplitude_nr"),
        (legendre, "leggauss", "observables.leggauss"),
    ]
    return found


class Tracer:
    """Span recorder; ``install``/``uninstall`` bracket each traced pass."""

    def __init__(self):
        self.spans: list[list] = []       # [pass, name, parent, start, end, size]
        self.objective_evals: dict[int, int] = defaultdict(int)
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, pass_id: int) -> None:
        from tunnellab import observables

        self.pass_id = pass_id
        for owner, attr, name in boundaries():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._span_wrapper(original, name))
        # the kmax_find objective: counted, not a span, so search time stays whole
        original = observables.nr_transmission_mag
        self._saved.append((observables, "nr_transmission_mag", original))

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.objective_evals[self.pass_id] += 1
            return original(*args, **kwargs)

        observables.nr_transmission_mag = counted

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _span_wrapper(self, fn, name: str):
        measure = _MEASURES.get(category(name))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [self.pass_id, name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if measure is not None:
                span[5] = measure(args, result)
            return result

        return wrapper

    def pass_metrics(self) -> dict[int, dict]:
        """Per-layer metrics of every traced pass, keyed by pass id."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[2] >= 0:
                child[span[2]] += span[4] - span[3]
        out: dict[int, dict] = {}
        for index, (pass_id, name, parent, start, end, size) in enumerate(self.spans):
            m = out.setdefault(pass_id, defaultdict(float))
            kind = category(name)
            total = end - start
            m[kind + ".calls"] += 1
            m[kind + ".self"] += total - child[index]
            m[kind + ".total"] += total
            m[kind + ".size"] += size
            if kind == "stationary" and parent >= 0 \
                    and category(self.spans[parent][1]) == "wavepackets.quad":
                m["coeff_evals"] += 1
        return {pass_id: self._layer_metrics(m, self.objective_evals[pass_id])
                for pass_id, m in out.items()}

    @staticmethod
    def _layer_metrics(m, objective_evals: int) -> dict:
        return {
            "stationary.calls": m["stationary.calls"],
            "stationary.self_s": m["stationary.self"],
            "stationary.k_points": m["stationary.size"],
            "wavepackets.fields": m["wavepackets.quad.calls"],
            "wavepackets.quad_self_s": m["wavepackets.quad.self"],
            "wavepackets.coeff_evals": m["coeff_evals"],
            "wavepackets.series_s": m["wavepackets.series.total"],
            "observables.leggauss_calls": m["observables.leggauss.calls"],
            "observables.leggauss_s": m["observables.leggauss.total"],
            "observables.crosscheck_calls": m["observables.crosscheck.calls"],
            "observables.crosscheck_self_s": m["observables.crosscheck.self"],
            "observables.closed_calls": m["observables.closed.calls"],
            "observables.closed_self_s": m["observables.closed.self"],
            "observables.search_calls": m["observables.search.calls"],
            "observables.search_self_s": m["observables.search.self"],
            "observables.objective_evals": objective_evals,
            "lab.parse_s": m["lab.parse.total"],
            "lab.driver_self_s": m["lab.driver.self"],
            "lab.emit_s": m["lab.emit.total"],
            "lab.emit_bytes": m["lab.emit.size"],
            "lab.rows": m["lab.driver.size"],
            "cli.self_s": m["cli.self"],
        }

    def write(self, path) -> None:
        """Write the spans as JSON lines."""
        keys = ("pass", "name", "parent", "start", "end", "size")
        with open(path, "w", encoding="utf-8") as f:
            for index, span in enumerate(self.spans):
                record = dict(zip(keys, span))
                record["id"] = index
                f.write(json.dumps(record) + "\n")

