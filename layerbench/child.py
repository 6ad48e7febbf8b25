"""One block of in-process ops, run in a fresh interpreter.

Usage (driven by ``inproc.py``)::

    PYTHONPATH=src:layerbench python layerbench/child.py

The child imports the program, prints ``ready``, reads one JSON block
from stdin, runs it single-threaded and prints one JSON result line.
Only the call into the program is timed; building the inputs before it
and reading counts after it are not.  Answers are returned, never
judged here -- the parent checks them.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import nullcontext
from typing import Any, Dict, List

import repro  # noqa: F401  (the import is the untimed set-up)
import repro.cli  # noqa: F401
from repro import obs
from repro.corpus import analyze_pair

import instances
from tracer import Tracer


def _peak_rss_kb() -> int:
    """Peak resident set of this process (VmHWM)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _counters(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    return dict(snapshot.get("counters", {}))


def run_block(block: Dict[str, Any]) -> Dict[str, Any]:
    """Run every op of the block.  ``trace`` installs the layer
    wrappers; ``count`` also opens an obs recorder around each op so the
    program's own counters can be read (its memory tracking makes such
    a block far slower, so a counting block is never timed)."""
    tracer = Tracer() if block["trace"] or block.get("count") else None
    if tracer is not None:
        tracer.install()
    results: List[Dict[str, Any]] = []
    clock = time.perf_counter
    block_start = clock()
    built: Dict[int, Any] = {}
    for index, _again in block["plan"]:
        op = block["ops"][index]
        if index not in built:
            if block["workload"] == "check":
                built[index] = functools.partial(
                    analyze_pair, op["tdx"], op["schema"], tuple(op["protect"]))
            else:
                built[index] = instances.build(op)[0]
        decide = built[index]
        recording = block.get("count") and block["workload"] != "check"
        with (obs.recording() if recording else nullcontext()) as recorder:
            start = clock()
            if tracer is not None:
                with tracer.op():
                    answer = decide()
            else:
                answer = decide()
            elapsed = clock() - start
        counts: Dict[str, Any] = {}
        if recording:
            counts = _counters(obs.Snapshot.from_recorder(recorder).to_dict())
        if block["workload"] == "check":
            answer = answer.to_dict()
            # analyze_pair always records; its snapshot carries the counts.
            counts = _counters(answer["observations"]) if block.get("count") else {}
            answer["observations"] = {}
        results.append({"ms": elapsed * 1e3, "answer": answer, "counts": counts})
    block_s = clock() - block_start
    out: Dict[str, Any] = {"results": results, "block_s": block_s, "peak_rss_kb": _peak_rss_kb()}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.totals()
    return out


def main() -> int:
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 1
    print(json.dumps(run_block(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
