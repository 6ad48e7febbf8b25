"""The per-layer metric catalogue shared by every workload.

Every traced run prints every metric below; a layer the workload
bypasses reads exactly zero.  Time metrics are mean self milliseconds
per op, so the time metrics of :data:`SELF_TIME` plus
``unattributed.self_ms`` add up to ``trace.op_ms``, the mean traced op
time.  Counts and ratios come from one untimed block of fixed content,
so they repeat exactly between traced runs of one seed.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

#: tracer layer -> metric name of its mean self time per op.
SELF_TIME: Tuple[Tuple[str, str], ...] = (
    ("strings.nfa", "strings.nfa.self_ms"),
    ("strings.dfa", "strings.dfa.self_ms"),
    ("automata.nta", "automata.nta.self_ms"),
    ("automata.bta", "automata.bta.self_ms"),
    ("mso.compile", "mso.compile.self_ms"),
    ("xpath.to_mso", "xpath.to_mso.self_ms"),
    ("core.topdown_analysis", "core.topdown_analysis.self_ms"),
    ("core.safety", "core.safety.self_ms"),
    ("core.typecheck", "core.typecheck.self_ms"),
    ("core.dtl_analysis", "core.dtl_analysis.self_ms"),
    ("lint.dataflow", "lint.dataflow.self_ms"),
    ("lint.engine", "lint.engine.self_ms"),
    ("cli.load", "cli.load.self_ms"),
    ("schema.dtd", "schema.dtd.self_ms"),
    ("obs.snapshot", "obs.snapshot.self_ms"),
    ("corpus.cache.key", "corpus.cache.key_ms"),
    ("corpus.cache.get", "corpus.cache.get_ms"),
    ("corpus.cache.put", "corpus.cache.put_ms"),
    ("corpus.runner", "corpus.runner.self_ms"),
    ("obs.journal", "obs.journal.append_ms"),
    ("serve.protocol", "serve.protocol.self_ms"),
    ("serve.dispatcher", "serve.dispatcher.self_ms"),
    ("unattributed", "unattributed.self_ms"),
)

#: Program counters, reported per op of the counting block.
COUNTERS: Tuple[str, ...] = (
    "nta.states_created",
    "ptime.product_states",
    "mso.node_states",
    "typecheck.vectors",
    "safety.complement_states",
)

#: Every per-layer metric and its unit, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple((name, "ms") for _, name in SELF_TIME)
    + (
        ("strings.nfa.calls", "count"),
        ("automata.nta.calls", "count"),
    )
    + tuple((name, "count") for name in COUNTERS)
    + (
        ("mso.compile.cache_hit_ratio", "ratio"),
        ("lint.dataflow.prefilter_skip_ratio", "ratio"),
        ("lint.engine.memo_hit_ratio", "ratio"),
        ("corpus.cache.hit_ratio", "ratio"),
        ("corpus.runner.inline_ratio", "ratio"),
        ("corpus.runner.queue_wait_ms", "ms"),
        ("corpus.runner.job_ms", "ms"),
        ("corpus.runner.workers_spawned", "count"),
        ("obs.journal.bytes_per_op", "B"),
        ("trace.op_ms", "ms"),
        ("trace.overhead_ratio", "ratio"),
        ("host.calib_ms", "ms"),
    )
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def common_values(self_ms: Mapping[str, float], op_ms: float, calls: Mapping[str, int],
                  counts: Mapping[str, float], count_ops: int) -> Dict[str, float]:
    """The metrics every workload derives the same way: per-op self
    times, per-op call counts and counters, and the counter ratios.
    Serve-only metrics start at zero."""
    values: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    for layer, name in SELF_TIME:
        values[name] = self_ms.get(layer, 0.0)
    values["trace.op_ms"] = op_ms
    values["strings.nfa.calls"] = calls.get("strings.nfa", 0) / count_ops
    values["automata.nta.calls"] = calls.get("automata.nta", 0) / count_ops
    for name in COUNTERS:
        values[name] = counts.get(name, 0) / count_ops
    values["mso.compile.cache_hit_ratio"] = _ratio(
        counts.get("mso.compile.cache_hits", 0),
        counts.get("mso.compile.cache_hits", 0) + counts.get("mso.compile.cache_misses", 0))
    values["lint.engine.memo_hit_ratio"] = _ratio(
        counts.get("lint.memo.hits", 0),
        counts.get("lint.memo.hits", 0) + counts.get("lint.memo.misses", 0))
    return values


def attribution_gap(values: Mapping[str, float]) -> float:
    """How far the self times plus ``unattributed`` miss the traced op
    time, as a share of it (zero up to rounding)."""
    total = sum(values[name] for _, name in SELF_TIME)
    return abs(total - values["trace.op_ms"]) / values["trace.op_ms"]


def as_metrics(values: Mapping[str, float]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in PER_LAYER}
