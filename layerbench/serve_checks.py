"""Answer checks and per-layer metrics for the ``serve`` workload.

Every streamed job must pass ``validate_job_object`` and match its
pair's construction; every unsafe one ships a certified witness; and
its ``job_signature`` must equal that of ``repro.corpus.analyze_pair``
run here on the same pair.  Hits must be served from the cache and
misses must not.  A busy refusal, an error or a missing job fails.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

import checks
import common
import layers
from repro.corpus import analyze_pair, job_signature
from repro.obs.journal import replay_journal


def _reference(request: Any, cache: Dict[Tuple[str, str], str]) -> str:
    key = request.paths
    if key not in cache:
        job = analyze_pair(request.paths[0], request.paths[1], request.pair.protect)
        cache[key] = job_signature(job.to_dict())
    return cache[key]


def _hit_problems(request: Any) -> List[str]:
    """A hit streams no job line, only the terminal summary: it must
    report one cached job with the pair's expected verdict."""
    if request.error:
        return [request.error]
    summary = request.terminal["fields"]["summary"]
    found = []
    if summary["cache"] != {"hits": 1, "misses": 0, "hit_rate": 1.0}:
        found.append("not answered from the cache: %r" % summary["cache"])
    verdicts = {k: v for k, v in summary["verdicts"].items() if v}
    if verdicts != {request.pair.expected["verdict"]: 1}:
        found.append("verdicts %r" % verdicts)
    return found


def _problems(request: Any, expect_hit: bool, references: Dict[Tuple[str, str], str]) -> List[str]:
    if expect_hit:
        return _hit_problems(request)
    if request.error:
        return [request.error]
    job = request.job
    if job is None:
        return ["no job in the stream"]
    found = checks.check_job(job, request.pair.expected, request.paths[0], request.paths[1])
    if job.get("cache_hit") is not False:
        found.append("cache_hit is %r" % job.get("cache_hit"))
    if job_signature(job) != _reference(request, references):
        found.append("job_signature differs from analyze_pair's")
    found += checks.oracle_pair(request.paths[0], request.paths[1],
                                list(request.pair.protect), request.pair.expected)
    return found


def check(prefill: List[Any], blocks: List[Dict[str, Any]]) -> Tuple[int, int, List[str]]:
    references: Dict[Tuple[str, str], str] = {}
    attempted = failed = 0
    problems: List[str] = []
    labelled = [("prefill", False, request) for request in prefill]
    for block in blocks:
        labelled += [("block %d hit" % block["index"], True, r) for r in block["hits"]]
        labelled += [("block %d miss" % block["index"], False, r) for r in block["misses"]]
    for where, expect_hit, request in labelled:
        attempted += 1
        found = _problems(request, expect_hit, references)
        if found:
            failed += 1
            problems.extend("serve %s %s: %s" % (where, request.pair.kind, p) for p in found)
    return attempted, failed, problems


def layer_metrics(daemon: Any, blocks: List[Dict[str, Any]], count_block: Dict[str, Any],
                  sampler: Any, pool: Dict[str, Any]) -> Dict[str, Any]:
    """Per-layer metrics of a traced serve run.

    Self times come from the launcher's wrapper segments (segment 0 is
    the counting block, then one per traced block); in the daemon they
    are thread CPU time, because the event loop and the request thread
    run side by side there.
    The daemon has no op frames, so ``unattributed`` is the mean request
    latency the client saw minus the daemon's per-layer CPU time: the
    pool worker's job, waiting (for the GIL, the pool, the socket) and
    the client's own time.
    Counts come from the per-request snapshots the daemon journaled,
    read back with ``repro.obs.journal.replay_journal``.
    """
    with open(daemon.trace_out, encoding="ascii") as handle:
        segments = json.load(handle)
    traced = [b for b in blocks if b["traced"]]
    untraced = [b for b in blocks if not b["traced"]]
    if len(segments) != 1 + len(traced):
        raise RuntimeError("expected %d trace segments, got %d" % (1 + len(traced), len(segments)))
    requests = [r for b in traced for r in b["hits"] + b["misses"]]
    self_ns: Dict[str, int] = {}
    for segment in segments[1:]:
        for layer, value in segment["self_ns"].items():
            self_ns[layer] = self_ns.get(layer, 0) + value
    op_ms = sum(r.ms for r in requests) / len(requests)
    per_op = {layer: value / 1e6 / len(requests) for layer, value in self_ns.items()}
    per_op["unattributed"] = op_ms - sum(per_op.values())

    replay = replay_journal(daemon.journal)
    counted = count_block["hits"] + count_block["misses"]
    counts: Dict[str, float] = {}
    skipped = inline = 0
    for request in counted:
        snapshot = replay.snapshot_dicts.get(request.request_id, {})
        request_counts = snapshot.get("counters", {})
        for name, value in request_counts.items():
            counts[name] = counts.get(name, 0) + value
        if request_counts.get("dataflow.prefilter.skips"):
            skipped += 1
        if not request.hit and request_counts.get("dataflow.corpus.prefiltered"):
            inline += 1
    values = layers.common_values(per_op, op_ms, segments[0]["calls"], counts, len(counted))
    values["lint.dataflow.prefilter_skip_ratio"] = skipped / len(counted)
    values["corpus.runner.inline_ratio"] = inline / len(count_block["misses"])
    values["obs.journal.bytes_per_op"] = count_block["journal_bytes"] / len(counted)

    traced_all = [r for b in traced for r in b["hits"] + b["misses"]]
    values["corpus.cache.hit_ratio"] = sum(
        r.terminal["fields"]["summary"]["cache"]["hits"] for r in traced_all) / len(traced_all)
    pool_misses = []
    for request in (r for b in traced for r in b["misses"]):
        snapshot = replay.snapshot_dicts.get(request.request_id, {})
        if not snapshot.get("counters", {}).get("dataflow.corpus.prefiltered"):
            pool_misses.append(request)
    # The engine run's wall time not spent inside the job itself: the
    # pool hand-off and queueing, result return and cache write.
    values["corpus.runner.job_ms"] = sum(r.job["wall_time_s"] for r in pool_misses) * 1e3 / len(pool_misses)
    values["corpus.runner.queue_wait_ms"] = sum(
        (r.terminal["fields"]["summary"]["wall_time_s"] - r.job["wall_time_s"]) * 1e3
        for r in pool_misses) / len(pool_misses)
    values["corpus.runner.workers_spawned"] = float(pool.get("spawned_total", 0))
    untraced_ms = [r.ms for b in untraced for r in b["hits"] + b["misses"]]
    values["trace.overhead_ratio"] = op_ms / (sum(untraced_ms) / len(untraced_ms))
    values["host.calib_ms"] = common.median(sampler.calib_ms)
    return layers.as_metrics(values)
