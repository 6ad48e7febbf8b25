"""The in-process workloads, ``check`` and ``exptime``.

Closed loop, one op at a time, single-threaded.  Each block runs in a
fresh interpreter (``child.py``) so that

* its peak RSS is the program's alone and does not depend on how many
  blocks the run completes (the program's unbounded memo tables grow
  with every content-new op; see README.md), and
* ops late in a run are not slowed by a heap that earlier blocks grew.

The child's start-up is untimed.  Between blocks, at times spread over
the run, the parent times a fresh set-up launch and takes a host probe.
Answers are checked after the loop, outside every timed region.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import time
from typing import Any, Dict, List, Sequence, Tuple

import common
import gen
import layers
from tracer import LAYER_NAMES, UNATTRIBUTED

# Fixed block compositions (kind, count); the seed picks only labels and
# order.  Shares keep p50 and p90 away from any boundary between kinds
# whose costs differ by more than 2x (README.md, "Steadiness").
CHECK_BLOCK: Sequence[Tuple[str, int]] = (
    ("safe_prefilter", 2),
    ("safe_full", 6),
    ("copying", 8),
    ("rearranging", 4),
    ("protected", 4),
)
EXPTIME_BLOCK: Sequence[Tuple[str, int]] = (
    ("tc_keeper_ill", 5),
    ("tc_swapper_ok", 2),
    ("tc_wide2_ok", 2),
    ("tc_ex42_ok", 2),
    ("dtl_copy", 2),
    ("tc_ex42_ill", 1),
    ("dtl_filter", 1),
    ("dtl_keep", 1),
)
# Resubmissions per op of a kind: the same input decided again by the
# same process, spread over the block by ``gen.resubmit_plan``.  check
# has no in-process result cache, so its resubmissions cost what the
# first run did (the cheap safe kinds are resubmitted); exptime's DTL
# programs hit mso.compile's cache.
RESUBMIT = {
    "check": {"safe_prefilter": 1, "safe_full": 3},
    "exptime": {"dtl_copy": 8, "dtl_filter": 4, "dtl_keep": 4},
}
#: Blocks a run completes at least, so that every reported percentile
#: has ten samples beyond it (>= 100 new ops and >= 100 resubmissions).
MIN_BLOCKS = {"check": 5, "exptime": 7}
SETUP_IMPORT = {"check": "import repro.cli", "exptime": "import repro"}
SETUP_LAUNCHES = 9
#: A traced run always completes this many traced and untraced blocks.
MIN_TRACED_BLOCKS = 2


class Block:
    """The generated inputs of one block plus what the child reported."""

    def __init__(self, workload: str, seed: int, index: int, directory: str) -> None:
        self.workload = workload
        self.index = index
        self.ops: List[Dict[str, Any]] = []
        self.expected: List[Any] = []
        if workload == "check":
            for pair in gen.pair_block(seed, index, CHECK_BLOCK):
                tdx, schema = pair.write(directory)
                self.ops.append({"kind": pair.kind, "tdx": tdx, "schema": schema,
                                 "protect": list(pair.protect)})
                self.expected.append(pair.expected)
        else:
            for spec in gen.exptime_block(seed, index, EXPTIME_BLOCK):
                self.ops.append(spec)
                self.expected.append(spec["expected"])
        self.plan = gen.resubmit_plan([op["kind"] for op in self.ops], RESUBMIT[workload])
        self.traced = False
        self.report: Dict[str, Any] = {}


def run_child(block: Block, trace: bool, count: bool = False) -> Dict[str, Any]:
    """Spawn a fresh interpreter, hand it the block, wait for its report."""
    child = subprocess.Popen(
        [common.PYTHON, os.path.join(common.HERE, "child.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=common.program_env([common.HERE]), cwd=common.ROOT,
    )
    try:
        if child.stdout.readline().strip() != "ready":
            raise RuntimeError("block child failed to start")
        request = {"workload": block.workload, "ops": block.ops, "plan": block.plan,
                   "trace": trace, "count": count}
        child.stdin.write(json.dumps(request) + "\n")
        child.stdin.flush()
        line = child.stdout.readline()
        if not line:
            raise RuntimeError("block child died")
        report = json.loads(line)
    except BaseException:
        child.kill()
        raise
    finally:
        child.stdin.close()
        child.stdout.close()
        child.wait()
    if child.returncode != 0:
        raise RuntimeError("block child exited with %s" % child.returncode)
    block.report = report
    return report


def check_answers(blocks: List[Block]) -> Tuple[int, int, List[str]]:
    """(attempted, failed, problems) over every op of every block."""
    import checks
    import instances

    attempted = failed = 0
    problems: List[str] = []
    for block in blocks:
        oracle: Dict[int, List[str]] = {}
        for (index, _), result in zip(block.plan, block.report["results"]):
            op, expected = block.ops[index], block.expected[index]
            attempted += 1
            if block.workload == "check":
                found = checks.check_job(result["answer"], expected, op["tdx"], op["schema"])
                if index not in oracle:
                    oracle[index] = checks.oracle_pair(op["tdx"], op["schema"], op["protect"], expected)
            else:
                found = []
                if result["answer"] is not expected:
                    found.append("answer %r, expected %r" % (result["answer"], expected))
                if index not in oracle:
                    _, transducer, schema, output = instances.build(op)
                    oracle[index] = checks.oracle_exptime(transducer, schema, output, expected)
            found += oracle[index]
            if found:
                failed += 1
                problems.extend("%s block %d %s: %s" % (block.workload, block.index, op["kind"], p)
                                for p in found)
    return attempted, failed, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    directory = common.work_dir(workload)
    try:
        return _run(workload, seed, seconds, trace, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _run(workload: str, seed: int, seconds: float, trace: bool, directory: str) -> int:
    common.prewrite_bytecode()
    blocks: List[Block] = []
    count_block = None
    if trace:
        # Exact counts come from one untimed block of fixed content.
        count_block = Block(workload, seed, 0, directory)
        run_child(count_block, trace=True, count=True)
    argv = [common.PYTHON, "-c", SETUP_IMPORT[workload]]
    sampler = common.Sampler(lambda: common.timed_launch(argv), seconds, SETUP_LAUNCHES)
    deadline = time.monotonic() + seconds
    index = 1
    while True:
        traced = trace and index % 2 == 0
        if time.monotonic() >= deadline and len(blocks) >= MIN_BLOCKS[workload] and (
            not trace or sum(1 for b in blocks if b.traced) >= MIN_TRACED_BLOCKS
        ):
            break
        block = Block(workload, seed, index, directory)
        block.traced = traced
        run_child(block, trace=traced)
        blocks.append(block)
        index += 1
        sampler.between_blocks()
    sampler.finish()
    checked = blocks + ([count_block] if count_block is not None else [])
    attempted, failed, problems = check_answers(checked)
    for problem in problems[:20]:
        print("FAILED " + problem)
    info = {"blocks": len(blocks), "host.calib_ms": common.median(sampler.calib_ms)}
    if trace:
        metrics = layer_metrics(blocks, count_block, sampler)
    else:
        metrics = end_to_end(blocks, sampler)
    common.emit(failed == 0, attempted, failed, metrics, info)
    return 0


def _latencies(block: Block, resubmitted: bool) -> List[float]:
    return [result["ms"] for (_, again), result in zip(block.plan, block.report["results"])
            if again is resubmitted]


def end_to_end(blocks: List[Block], sampler: common.Sampler) -> Dict[str, Any]:
    new = [_latencies(b, False) for b in blocks]
    hits = [_latencies(b, True) for b in blocks]
    done = sum(len(samples) for samples in new + hits)
    busy = sum(b.report["block_s"] for b in blocks)
    return {
        "setup_s": common.metric(common.median(sampler.setup_s), "s"),
        "ops_per_s": common.metric(done / busy, "1/s"),
        "latency_p50_ms": common.metric(common.windowed_p50(new), "ms"),
        "latency_p90_ms": common.metric(common.windowed_p90(new), "ms"),
        "hit_latency_p50_ms": common.metric(common.windowed_p50(hits), "ms"),
        "hit_latency_p90_ms": common.metric(common.windowed_p90(hits), "ms"),
        "peak_rss_mb": common.metric(
            common.median([b.report["peak_rss_kb"] for b in blocks]) / 1024.0, "MB"),
    }


def layer_metrics(blocks: List[Block], count_block: Block,
                  sampler: common.Sampler) -> Dict[str, Any]:
    """Per-layer metrics of a traced run (zero for bypassed layers)."""
    traced = [b for b in blocks if b.traced]
    untraced = [b for b in blocks if not b.traced]
    self_ns: Dict[str, int] = {}
    ops = op_ns = 0
    for block in traced:
        totals = block.report["trace"]
        for layer, value in totals["self_ns"].items():
            self_ns[layer] = self_ns.get(layer, 0) + value
        ops += totals["ops"]
        op_ns += totals["op_ns"]
    untraced_ms = [r["ms"] for b in untraced for r in b.report["results"]]
    per_op = {layer: self_ns.get(layer, 0) / 1e6 / ops for layer in LAYER_NAMES + (UNATTRIBUTED,)}
    count_trace = count_block.report["trace"]
    counts: Dict[str, float] = {}
    skipped_ops = 0
    for result in count_block.report["results"]:
        for name, value in result["counts"].items():
            counts[name] = counts.get(name, 0) + value
        if result["counts"].get("dataflow.prefilter.skips"):
            skipped_ops += 1
    count_ops = len(count_block.report["results"])
    values = layers.common_values(per_op, op_ns / 1e6 / ops, count_trace["calls"], counts, count_ops)
    values["lint.dataflow.prefilter_skip_ratio"] = skipped_ops / count_ops
    values["trace.overhead_ratio"] = (op_ns / 1e6 / ops) / (sum(untraced_ms) / len(untraced_ms))
    values["host.calib_ms"] = common.median(sampler.calib_ms)
    gap = layers.attribution_gap(values)
    if gap > 1e-9:
        raise RuntimeError("layer self times miss the op time by %.3g" % gap)
    return layers.as_metrics(values)
