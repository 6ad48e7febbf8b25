"""Shared plumbing: paths, the program's environment, statistics, the
set-up timer, the host-speed probe and the result line."""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (ignored by git).
WORK = os.path.join(ROOT, ".bench_work")
PYTHON = sys.executable or "python3"


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def program_env(extra_path: Sequence[str] = ()) -> Dict[str, str]:
    """The environment every program process runs in.  The hash seed is
    pinned so set iteration order -- and with it every exact count --
    repeats between runs of one seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *extra_path])
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("REPRO_NO_PREFILTER", None)
    env.pop("REPRO_CORPUS_TEST_DELAY", None)
    return env


def work_dir(name: str) -> str:
    path = os.path.join(WORK, "%s-%d" % (name, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def p90(values: Sequence[float]) -> float:
    """The 90th percentile (``statistics.quantiles``, exclusive method)."""
    return float(statistics.quantiles(values, n=10)[8])


#: Samples a window holds at least: a p50 window is about one block of
#: ops; a p90 window puts ten samples beyond its p90.
P50_WINDOW = 20
P90_WINDOW = 100


def windowed(blocks: Sequence[Sequence[float]], stat: Callable[[Sequence[float]], float],
             least: int) -> float:
    """``stat`` taken over windows of consecutive blocks and averaged
    over the run's windows.

    ``blocks`` holds each block's samples in run order.  A window closes
    once it holds ``least`` samples; a short last window joins the one
    before it.  The host's speed drifts in phases of seconds to minutes,
    and the same op takes up to 1.4x as long in a slow phase: a
    percentile pooled over the whole run snaps to whichever phase holds
    most of it, while the mean of per-window percentiles moves in
    proportion to the time spent in each."""
    windows: List[List[float]] = []
    current: List[float] = []
    for samples in blocks:
        current.extend(samples)
        if len(current) >= least:
            windows.append(current)
            current = []
    if current:
        if windows:
            windows[-1].extend(current)
        else:
            windows.append(current)
    return sum(stat(window) for window in windows) / len(windows)


def windowed_p50(blocks: Sequence[Sequence[float]]) -> float:
    return windowed(blocks, median, P50_WINDOW)


def windowed_p90(blocks: Sequence[Sequence[float]]) -> float:
    return windowed(blocks, p90, P90_WINDOW)


def calib_probe() -> float:
    """Milliseconds for a fixed pure-Python loop: a host-speed probe
    that shares no code with the program."""
    start = time.perf_counter()
    total = 0
    for index in range(200_000):
        total += index * index % 7
    return (time.perf_counter() - start) * 1e3


def prewrite_bytecode() -> None:
    """Compile the program once so no timed launch writes ``.pyc``."""
    subprocess.run(
        [PYTHON, "-c", "import repro.cli, repro.serve"],
        env=program_env(), cwd=ROOT, check=True, timeout=120,
    )


def timed_launch(argv: List[str], timeout: float = 60.0) -> float:
    """Seconds from spawning a fresh interpreter to its exit.

    The wait blocks in ``waitpid``: ``subprocess.run(timeout=...)``
    polls with sleeps of up to 50 ms, which would round every launch
    up to the next poll.  A timer kills a launch that hangs."""
    start = time.perf_counter()
    process = subprocess.Popen(argv, env=program_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, process.kill)
    watchdog.start()
    try:
        returncode = process.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if returncode != 0:
        raise RuntimeError("set-up launch %r exited with %d" % (argv, returncode))
    return elapsed


class Sampler:
    """Set-up launches and host probes taken between blocks: ``count``
    slots evenly spread over ``seconds`` rather than one burst."""

    def __init__(self, launch: Callable[[], float], seconds: float, count: int) -> None:
        self.launch = launch
        self.count = count
        self.start = time.monotonic()
        self.step = seconds / count
        self.setup_s: List[float] = []
        self.calib_ms: List[float] = []

    def _take(self) -> None:
        self.setup_s.append(self.launch())
        self.calib_ms.append(calib_probe())

    def between_blocks(self) -> None:
        """Take one sample if its slot has come due."""
        due = min(self.count, int((time.monotonic() - self.start) / self.step) + 1)
        if len(self.setup_s) < due:
            self._take()

    def finish(self) -> None:
        """Take the samples whose slots the run did not reach."""
        while len(self.setup_s) < self.count:
            self._take()


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def emit(correct: bool, attempted: int, failed: int, metrics: Dict[str, Dict[str, Any]],
         info: Optional[Dict[str, Any]] = None) -> None:
    """Print the informational line (if any), then the result line last."""
    if info:
        print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }, sort_keys=True), flush=True)
