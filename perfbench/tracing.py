"""Spans and counts recorded from outside the program, at module boundaries.

A traced pass replaces each public function listed in ``TARGETS`` with a
wrapper, in every ``coreaug`` module that holds a reference to it (for
example ``jacobian`` in ``augment``, ``spectrum``, ``audits``, ``cli`` and
``coreset``), and the greedy engines in ``coreset._ENGINE_FNS``. Each call
becomes one span (id, parent id, name, start, end) kept in memory; counts are
taken from the same call's arguments or result. The program's code is not
changed.

A span's self time is its duration minus the part of it that its child spans
cover, so the self times of a tree add up to its root span.
"""

from __future__ import annotations

import json
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


def _rows_arg1(args, kwargs, result):
    return {"rows": args[1].shape[0]}


def _proxy_rows(args, kwargs, result):
    return {"rows": result.proxies.shape[0]}


def _result_entries(args, kwargs, result):
    return {"entries": result.size}


def _perturb_rows(args, kwargs, result):
    return {"rows": result.features.shape[0]}


def _engine_counts(args, kwargs, result):
    return {"gain_evals": result.evaluations, "picks": len(result.indices)}


def _loaded_rows(args, kwargs, result):
    return {"rows": result.n}


# (defining module, public function, span name, counter on the call's result)
TARGETS = [
    ("linalg", "svd", "linalg.svd", None),
    ("linalg", "spectral_norm", "linalg.spectral_norm", None),
    ("linalg", "principal_angles", "linalg.principal_angles", None),
    ("linalg", "frobenius_norm", "linalg.frobenius_norm", None),
    ("model", "weighted_gradient", "model.weighted_gradient", _rows_arg1),
    ("model", "forward", "model.forward", None),
    ("model", "gradient_proxy", "model.gradient_proxy", _proxy_rows),
    ("model", "jacobian", "model.jacobian", _result_entries),
    ("model", "per_example_gradients", "model.per_example_gradients", None),
    ("model", "residuals", "model.residuals", None),
    ("augment", "perturb", "augment.perturb", _perturb_rows),
    ("coreset", "pairwise_distances", "coreset.pairwise_distances", _result_entries),
    ("coreset", "compute_weights", "coreset.compute_weights", None),
    ("coreset", "select_all_classes", "coreset.select_all_classes", None),
    ("coreset", "random_subset", "coreset.random_subset", None),
    ("coreset", "max_loss_subset", "coreset.max_loss_subset", None),
    ("coreset", "coreset_ntk_bound_check", "coreset.coreset_ntk_bound_check", None),
    ("trainer", "train", "trainer.train", None),
    ("trainer", "weighted_gradient_step", "trainer.weighted_gradient_step", None),
    ("trainer", "evaluate", "trainer.evaluate", None),
    ("trainer", "sgd_warmup", "trainer.sgd_warmup", None),
    ("spectrum", "spectrum_report", "spectrum.spectrum_report", None),
    ("spectrum", "singular_vector_bound_check", "spectrum.singular_vector_bound_check", None),
    ("spectrum", "weyl_check", "spectrum.weyl_check", None),
    ("spectrum", "expected_shift_model_check", "spectrum.expected_shift_model_check", None),
    ("spectrum", "linear_transform_bound_check", "spectrum.linear_transform_bound_check", None),
    ("audits", "audit_weyl_random", "audits.audit_weyl_random", None),
    ("audits", "audit_weyl_augmentation", "audits.audit_weyl_augmentation", None),
    ("audits", "audit_shift_model", "audits.audit_shift_model", None),
    ("audits", "audit_vector_bound", "audits.audit_vector_bound", None),
    ("audits", "audit_ntk_bound", "audits.audit_ntk_bound", None),
    ("audits", "audit_linear_bounds", "audits.audit_linear_bounds", None),
    ("data", "gen_dataset", "data.gen_dataset", None),
    ("data", "save_dataset_csv", "data.save_dataset_csv", None),
    ("data", "load_dataset_csv", "data.load_dataset_csv", _loaded_rows),
    ("cli", "main", "cli.main", None),
]

LAYERS = ("linalg", "model", "augment", "coreset", "trainer", "spectrum",
          "audits", "data", "cli", "bench")


class Tracer:
    """In-memory span recorder. Spans nest per thread; a span opened on a
    thread with nothing open (a pool worker) is parented to the innermost span
    open on the thread that created the tracer."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._next_id = 1
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else 0
        with self._lock:
            sid = self._next_id
            self._next_id += 1
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append((sid, parent, name, t0, t1))
                self.calls[name] += 1

    def add(self, name: str, counts: dict) -> None:
        with self._lock:
            for key, value in counts.items():
                self.counts[f"{name}.{key}"] += int(value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in sorted(self.spans, key=lambda s: s[3]):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _, t0, t1 in spans:
        children[parent].append((t0, t1))
    return {sid: (t1 - t0) - _covered([(max(a, t0), min(b, t1))
                                       for a, b in children[sid] if b > t0 and a < t1])
            for sid, _, _, t0, t1 in spans}


def subtree(spans, root_id: int) -> list:
    ids = {root_id}
    out = []
    for span in sorted(spans, key=lambda s: s[0]):
        if span[0] in ids or span[1] in ids:
            ids.add(span[0])
            out.append(span)
    return out


def summarize(tracer: Tracer, region_id: int) -> dict:
    """Per-name calls and self time over every span, per-layer self time over
    the timed region, and whether the region's self times add up to it."""
    selfs = self_times(tracer.spans)
    ms = defaultdict(float)
    for sid, _, name, _, _ in tracer.spans:
        ms[name] += selfs[sid] * 1000.0
    region = subtree(tracer.spans, region_id)
    layer_ms = {layer: 0.0 for layer in LAYERS}
    for sid, _, name, _, _ in region:
        layer_ms[name.split(".", 1)[0]] += selfs[sid] * 1000.0
    root = next(s for s in region if s[0] == region_id)
    root_ms = (root[4] - root[3]) * 1000.0
    total_self = sum(layer_ms.values())
    return {
        "calls": dict(tracer.calls),
        "ms": dict(ms),
        "counts": dict(tracer.counts),
        "layer_ms": layer_ms,
        "region_ms": root_ms,
        "self_sum_ms": total_self,
        "self_times_add_up": abs(total_self - root_ms) <= 1e-6 * max(root_ms, 1.0),
        "spans": len(tracer.spans),
    }


def _wrap(fn, name: str, tracer: Tracer | None, counter, observers: list):
    def wrapper(*args, **kwargs):
        if tracer is None:
            result = fn(*args, **kwargs)
        else:
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                tracer.add(name, counter(args, kwargs, result))
        for observe in observers:
            observe(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    return wrapper


@contextmanager
def instrument(tracer: Tracer | None, observers: dict | None = None):
    """Patch the listed functions for the duration of the block.

    With ``tracer`` set, every target records spans and counts; otherwise only
    the targets named in ``observers`` (span name -> list of callables taking
    ``(args, kwargs, result)``) are wrapped, so untraced passes can still check
    results that the program does not return to its caller.
    """
    observers = observers or {}
    modules = {name: mod for name, mod in sys.modules.items()
               if name == "coreaug" or name.startswith("coreaug.")}
    patched: list[tuple[object, str, object]] = []
    try:
        for mod_name, attr, name, counter in TARGETS:
            if tracer is None and name not in observers:
                continue
            original = getattr(modules[f"coreaug.{mod_name}"], attr)
            wrapper = _wrap(original, name, tracer, counter, observers.get(name, []))
            for mod in modules.values():
                if getattr(mod, attr, None) is original:
                    patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        if tracer is not None:
            engines = modules["coreaug.coreset"]._ENGINE_FNS
            for engine, fn in list(engines.items()):
                patched.append((engines, engine, fn))
                engines[engine] = _wrap(fn, f"coreset.engine.{engine}", tracer,
                                        _engine_counts, [])
        yield
    finally:
        for target, attr, original in reversed(patched):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
