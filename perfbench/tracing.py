"""In-process span tracing of dlv's layers, from outside the package.

Each public function of interest is wrapped while a pass runs, and every
call records a span ``[name, start_ns, end_ns, parent]``; the parent is
the index of the enclosing span, or -1 for the root.  ``pipeline`` and
``oracle`` import names directly (``from .linsys import
fixed_part_forcing``), so a wrapper is bound under every name in the
``dlv`` package that refers to the original function, not only under its
defining module.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

LAYERS = ("cli", "constructions", "lattice", "linsys", "pipeline", "schema", "oracle")
TO_DICT = ("pipeline.report_to_dict", "pipeline.sweep_to_dict")
ORACLE_SUITES = {
    "oracle.identity_suite": "oracle.identity_s",
    "oracle.bilinearity_suite": "oracle.bilinearity_s",
    "oracle.forcing_order_check": "oracle.forcing_order_s",
    "oracle.enumeration_check": "oracle.enumeration_s",
}


class Tracer:
    """Spans and counters of one traced pass, identified by ``trace_id``."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[list] = []
        self.counts = {"forcing_steps": 0, "forcing_unique": 0, "oracle_trials": 0}
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "spans": self.spans,
        }


@contextmanager
def installed(tracer: Tracer):
    """Bind traced wrappers for the duration of the block, then restore."""
    import dlv.cli  # noqa: F401  (loads every dlv module the CLI resolves)
    from dlv import constructions, lattice, linsys, oracle, pipeline, schema

    counts = tracer.counts

    def on_forcing(trace):
        counts["forcing_steps"] += len(trace.steps)
        counts["forcing_unique"] += isinstance(trace.conclusion, linsys.UniqueMember)

    def on_suite(report):
        counts["oracle_trials"] += report.trials

    functions = [
        ("constructions.build_tower", constructions.build_tower, None),
        ("constructions.blow_up", constructions.blow_up, None),
        ("constructions.double_cover", constructions.double_cover, None),
        ("linsys.fixed_part_forcing", linsys.fixed_part_forcing, on_forcing),
        ("pipeline.verify", pipeline.verify, None),
        ("pipeline.verify_instance", pipeline.verify_instance, None),
        ("pipeline.report_to_dict", pipeline.report_to_dict, None),
        ("pipeline.sweep_to_dict", pipeline.sweep_to_dict, None),
        ("pipeline.canonical_json", pipeline.canonical_json, None),
        ("schema.schema_check_enabled", schema.schema_check_enabled, None),
        ("schema.validate_document", schema.validate_document, None),
        ("oracle.identity_suite", oracle.identity_suite, on_suite),
        ("oracle.bilinearity_suite", oracle.bilinearity_suite, on_suite),
        ("oracle.forcing_order_check", oracle.forcing_order_check, on_suite),
        ("oracle.enumeration_check", oracle.enumeration_check, on_suite),
    ]
    modules = [m for k, m in sys.modules.items() if k == "dlv" or k.startswith("dlv.")]
    saved = []
    try:
        for name, fn, hook in functions:
            wrapper = tracer.wrap(name, fn, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        saved.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        model = lattice.SurfaceModel
        for attr, name in (("__init__", "lattice.model_build"), ("pair", "lattice.pair")):
            original = model.__dict__[attr]
            saved.append((model, attr, original))
            setattr(model, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)


def tail(values):
    """Highest whole percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)`` by the nearest-rank rule.
    With ten samples or fewer no percentile qualifies; the maximum is then
    returned with percentile 100.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        return 0.0, 100, 0
    if n <= 10:
        return data[-1], 100, n
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))
    return data[rank - 1], pct, n


def median(values):
    data = sorted(values)
    n = len(data)
    if n == 0:
        return 0.0
    mid = n // 2
    return data[mid] if n % 2 else (data[mid - 1] + data[mid]) / 2


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics and their details from one traced pass.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time sums the self times of its spans.
    """
    spans = tracer.spans
    durations = [end - start for _, start, end, _ in spans]
    child_total = [0] * len(spans)
    forcing_child = [0] * len(spans)
    for (name, _, _, parent), dur in zip(spans, durations):
        if parent >= 0:
            child_total[parent] += dur
            if name == "linsys.fixed_part_forcing":
                forcing_child[parent] += dur

    calls: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    self_ns = {layer: 0 for layer in LAYERS}
    instance_ns = []
    instance_self_ns = 0
    to_dict_ns = 0
    for i, ((name, _, _, parent), dur) in enumerate(zip(spans, durations)):
        calls[name] = calls.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + dur
        self_ns[name.split(".", 1)[0]] += dur - child_total[i]
        if name == "pipeline.verify_instance":
            instance_ns.append(dur)
            instance_self_ns += dur - forcing_child[i]
        elif name in TO_DICT and (parent < 0 or spans[parent][0] not in TO_DICT):
            to_dict_ns += dur

    def seconds(name):
        return total_ns.get(name, 0) / 1e9

    counts = tracer.counts
    forcing_calls = calls.get("linsys.fixed_part_forcing", 0)
    instance_ms = [ns / 1e6 for ns in instance_ns]
    tail_ms, tail_pct, tail_n = tail(instance_ms)
    metrics = {
        "constructions.build_tower_s": seconds("constructions.build_tower"),
        "constructions.build_tower_calls": calls.get("constructions.build_tower", 0),
        "constructions.blow_up_s": seconds("constructions.blow_up"),
        "constructions.double_cover_s": seconds("constructions.double_cover"),
        "lattice.model_builds": calls.get("lattice.model_build", 0),
        "lattice.model_build_s": seconds("lattice.model_build"),
        "lattice.pair_calls": calls.get("lattice.pair", 0),
        "lattice.pair_s": seconds("lattice.pair"),
        "linsys.forcing_calls": forcing_calls,
        "linsys.forcing_steps": counts["forcing_steps"],
        "linsys.forcing_s": seconds("linsys.fixed_part_forcing"),
        "linsys.forcing_unique_ratio": (
            counts["forcing_unique"] / forcing_calls if forcing_calls else 0.0
        ),
        "pipeline.verify_instance_calls": len(instance_ns),
        "pipeline.verify_instance_s": sum(instance_ns) / 1e9,
        "pipeline.verify_instance_self_s": instance_self_ns / 1e9,
        "pipeline.instance_p50_ms": median(instance_ms),
        "pipeline.instance_tail_ms": tail_ms,
        "pipeline.to_dict_s": to_dict_ns / 1e9,
        "pipeline.canonical_json_s": seconds("pipeline.canonical_json"),
        "schema.validate_s": seconds("schema.validate_document"),
        "oracle.trials": counts["oracle_trials"],
        "trace.spans": len(spans),
    }
    for span_name, metric in ORACLE_SUITES.items():
        metrics[metric] = seconds(span_name)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_ns[layer] / 1e9
    details = {
        "instance_tail_percentile": tail_pct,
        "instance_samples": tail_n,
        "calls": calls,
    }
    return metrics, details
