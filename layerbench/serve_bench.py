"""The ``serve`` workload: ``python -m repro serve`` on a unix socket.

The daemon runs with ``--jobs 1`` (one pool worker) and a pinned cache
and journal directory.  The client side is ``repro.serve.ServeClient``
with two connections: one resubmits pairs from a pre-filled hit set
(cache hits), the other submits content-new pairs (misses).  Each block
interleaves them in a seeded order with one request in flight at a
time, so a hit is never slowed by a concurrent miss and no more than
two processes (daemon and pool worker) are ever busy.  Untimed before
the loop: daemon start, hit-set pre-fill (which spawns the pool worker)
and a warm-up block.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import time
from typing import Any, Dict, List, Optional, Tuple

import common
import gen

#: Pairs pre-filled into the cache and then resubmitted as hits.
HIT_SET: Tuple[Tuple[str, int], ...] = (
    ("safe_full", 2), ("copying", 2), ("rearranging", 1), ("protected", 1),
)
#: Content-new pairs per block.  safe_prefilter pairs are proven safe
#: by the dataflow pre-filter and run inline in the daemon; the others
#: go to the pool.  With one op of each kind, miss p50 falls inside the
#: safe_full kind and miss p90 inside the copying kind.
MISS_BLOCK: Tuple[Tuple[str, int], ...] = (
    ("safe_prefilter", 1), ("safe_full", 1), ("copying", 1),
)
HITS_PER_BLOCK = 24
WARMUP_BLOCKS = 1
SETUP_LAUNCHES = 9
#: Peak RSS is read after this many timed blocks, so it does not depend
#: on how many blocks a run completes.
RSS_AFTER_BLOCKS = 4
#: Blocks a run completes at least: >= 100 misses, so p90 has ten
#: samples beyond it.
MIN_BLOCKS = 34
MIN_TRACED_BLOCKS = 2
CLIENT_TIMEOUT_S = 120.0


class Daemon:
    """One serve process with its own cache, journal and socket."""

    def __init__(self, directory: str, traced: bool = False) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.socket = os.path.relpath(os.path.join(directory, "d.sock"), common.ROOT)
        self.journal = os.path.join(directory, "journal")
        self.state_file = os.path.join(directory, "trace-state")
        self.trace_out = os.path.join(directory, "trace.json")
        serve_args = [
            "serve", "--socket", self.socket, "--jobs", "1",
            "--cache-dir", os.path.join(directory, "cache"),
            "--journal-dir", self.journal,
            "--status-file", os.path.join(directory, "status.json"),
        ]
        if traced:
            self.argv = [common.PYTHON, os.path.join(common.HERE, "serve_launcher.py"),
                         self.state_file, self.trace_out, *serve_args]
        else:
            self.argv = [common.PYTHON, "-m", "repro", *serve_args]
        self.process: Optional[subprocess.Popen] = None

    def client(self) -> Any:
        from repro.serve import ServeClient

        return ServeClient(socket_path=self.socket, timeout=CLIENT_TIMEOUT_S)

    def start(self) -> float:
        """Launch and wait for the first answered ping; returns seconds."""
        started = time.perf_counter()
        self.process = subprocess.Popen(
            self.argv, env=common.program_env([common.HERE]), cwd=common.ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        client = self.client()
        while True:
            try:
                if client.ping().get("message") == "pong":
                    return time.perf_counter() - started
            except OSError:
                pass
            if self.process.poll() is not None:
                raise RuntimeError("serve daemon exited during start-up")
            if time.perf_counter() - started > 60:
                raise RuntimeError("serve daemon never answered ping")
            time.sleep(0.002)

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            workers = self.pids()[1:]
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            for pid in workers:
                # A graceful shutdown has already joined the pool; this
                # only reaps workers of a daemon that had to be killed.
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        self.process = None

    def pids(self) -> List[int]:
        """The daemon and its pool worker(s)."""
        assert self.process is not None
        pids = [self.process.pid]
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open("/proc/%s/stat" % entry, encoding="ascii") as handle:
                        fields = handle.read().rsplit(")", 1)[1].split()
                except OSError:
                    continue
                if int(fields[1]) == self.process.pid:
                    pids.append(int(entry))
        return pids

    def peak_rss_kb(self) -> int:
        peak = 0
        for pid in self.pids():
            try:
                with open("/proc/%d/status" % pid, encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            peak = max(peak, int(line.split()[1]))
            except OSError:
                continue
        return peak

    def set_tracing(self, on: bool) -> None:
        """Switch the launcher's wrappers and wait until it confirms."""
        assert self.process is not None
        with open(self.state_file, encoding="ascii") as handle:
            before = int(handle.read().split()[1])
        self.process.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        want = ("on %d" % before) if on else ("off %d" % (before + 1))
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with open(self.state_file, encoding="ascii") as handle:
                if handle.read().strip() == want:
                    return
            time.sleep(0.005)
        raise RuntimeError("serve launcher did not switch tracing")


class Request:
    """One submit as the client saw it."""

    def __init__(self, pair: gen.Pair, paths: Tuple[str, str], hit: bool) -> None:
        self.pair = pair
        self.paths = paths
        self.hit = hit
        self.ms = 0.0
        self.job: Optional[Dict[str, Any]] = None
        self.terminal: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None

    def submit(self, client: Any) -> None:
        """Stream one submit; the latency ends at the terminal event."""
        from repro.serve import ServeBusy

        payload = {"transducer": self.paths[0], "schema": self.paths[1],
                   "protect": list(self.pair.protect)}
        start = time.perf_counter()
        try:
            for event in client.submit(payload):
                if event.get("logger") == "serve.job":
                    self.job = event["fields"]["job"]
                self.terminal = event
        except ServeBusy as busy:
            self.error = "busy: %s" % busy
        except OSError as error:
            self.error = "%s: %s" % (type(error).__name__, error)
        self.ms = (time.perf_counter() - start) * 1e3
        if self.error is None and (
            self.terminal is None or self.terminal.get("message") != "request finished"
        ):
            self.error = "stream ended with %r" % (self.terminal or {}).get("message")

    @property
    def request_id(self) -> str:
        return str(((self.terminal or {}).get("fields") or {}).get("request_id", ""))


def _rel(path: str) -> str:
    return os.path.relpath(path, common.ROOT)


class Workload:
    def __init__(self, seed: int, directory: str) -> None:
        self.seed = seed
        self.pairs_dir = os.path.join(directory, "pairs")
        os.makedirs(self.pairs_dir)
        self.hit_pairs = [
            (pair, tuple(_rel(p) for p in pair.write(self.pairs_dir)))
            for pair in gen.pair_block(seed, 0, HIT_SET, tag="h")
        ]

    def block(self, index: int) -> Tuple[List[Request], List[Request], List[bool]]:
        misses = [
            Request(pair, tuple(_rel(p) for p in pair.write(self.pairs_dir)), False)
            for pair in gen.pair_block(self.seed, index, MISS_BLOCK, tag="m")
        ]
        rng = gen.rng_for(self.seed, "hits", index)
        hits = []
        for _ in range(HITS_PER_BLOCK):
            pair, paths = self.hit_pairs[rng.randrange(len(self.hit_pairs))]
            hits.append(Request(pair, paths, True))
        order = [True] * len(hits) + [False] * len(misses)
        rng.shuffle(order)
        return hits, misses, order


def run_block(daemon: Daemon, hits: List[Request], misses: List[Request],
              order: List[bool]) -> float:
    """One closed loop through the block; ``order`` says, request by
    request, whether the next one is a hit.  Returns the wall time."""
    clients = {True: daemon.client(), False: daemon.client()}
    queues = {True: iter(hits), False: iter(misses)}
    start = time.perf_counter()
    for hit in order:
        next(queues[hit]).submit(clients[hit])
    return time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool) -> int:
    directory = common.work_dir("serve")
    daemons: List[Daemon] = []
    try:
        return _run(seed, seconds, trace, directory, daemons)
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(directory, ignore_errors=True)


def _setup_launch(directory: str, daemons: List[Daemon], counter: List[int]) -> float:
    counter[0] += 1
    daemon = Daemon(os.path.join(directory, "setup-%d" % counter[0]))
    daemons.append(daemon)
    try:
        return daemon.start()
    finally:
        daemon.stop()
        daemons.remove(daemon)
        shutil.rmtree(daemon.directory, ignore_errors=True)


def _run(seed: int, seconds: float, trace: bool, directory: str, daemons: List[Daemon]) -> int:
    import serve_checks

    common.prewrite_bytecode()
    workload = Workload(seed, directory)
    daemon = Daemon(os.path.join(directory, "main"), traced=trace)
    daemons.append(daemon)
    daemon.start()
    client = daemon.client()
    prefill = [Request(pair, paths, False) for pair, paths in workload.hit_pairs]
    for request in prefill:
        request.submit(client)
    for index in range(-WARMUP_BLOCKS, 0):
        run_block(daemon, *workload.block(index))

    counter = [0]
    sampler = common.Sampler(lambda: _setup_launch(directory, daemons, counter),
                             seconds, SETUP_LAUNCHES)
    blocks: List[Dict[str, Any]] = []
    count_block = None
    if trace:
        hits, misses, order = workload.block(0)
        daemon.set_tracing(True)
        size_before = _journal_bytes(daemon)
        run_block(daemon, hits, misses, order)
        size_after = _journal_bytes(daemon)
        daemon.set_tracing(False)
        count_block = {"index": 0, "traced": True, "hits": hits, "misses": misses,
                       "journal_bytes": size_after - size_before}
    rss_kb = 0
    deadline = time.monotonic() + seconds
    index = 1
    while True:
        done_traced = sum(1 for b in blocks if b["traced"])
        if time.monotonic() >= deadline and len(blocks) >= MIN_BLOCKS and (
            not trace or (done_traced >= MIN_TRACED_BLOCKS
                          and len(blocks) - done_traced >= MIN_TRACED_BLOCKS)
        ):
            break
        traced = trace and index % 2 == 0
        hits, misses, order = workload.block(index)
        if traced:
            daemon.set_tracing(True)
        wall = run_block(daemon, hits, misses, order)
        if traced:
            daemon.set_tracing(False)
        blocks.append({"index": index, "traced": traced, "hits": hits, "misses": misses,
                       "wall_s": wall})
        if len(blocks) == RSS_AFTER_BLOCKS:
            rss_kb = daemon.peak_rss_kb()
        index += 1
        sampler.between_blocks()
    sampler.finish()
    pool = dict(((blocks[-1]["misses"][-1].terminal or {}).get("fields") or {}).get("pool") or {})
    daemon.stop()
    daemons.remove(daemon)

    all_blocks = blocks + ([count_block] if count_block else [])
    attempted, failed, problems = serve_checks.check(prefill, all_blocks)
    for problem in problems[:20]:
        print("FAILED " + problem)
    info = {"blocks": len(blocks), "host.calib_ms": common.median(sampler.calib_ms)}
    if trace:
        metrics = serve_checks.layer_metrics(daemon, blocks, count_block, sampler, pool)
    else:
        metrics = end_to_end(blocks, sampler, rss_kb)
    common.emit(failed == 0, attempted, failed, metrics, info)
    return 0


def _journal_bytes(daemon: Daemon) -> int:
    total = 0
    for name in os.listdir(daemon.journal):
        total += os.path.getsize(os.path.join(daemon.journal, name))
    return total


def end_to_end(blocks: List[Dict[str, Any]], sampler: common.Sampler, rss_kb: int) -> Dict[str, Any]:
    hits = [[r.ms for r in b["hits"]] for b in blocks]
    misses = [[r.ms for r in b["misses"]] for b in blocks]
    done = sum(len(samples) for samples in hits + misses)
    wall = sum(b["wall_s"] for b in blocks)
    return {
        "setup_s": common.metric(common.median(sampler.setup_s), "s"),
        "ops_per_s": common.metric(done / wall, "1/s"),
        "latency_p50_ms": common.metric(common.windowed_p50(misses), "ms"),
        "latency_p90_ms": common.metric(common.windowed_p90(misses), "ms"),
        "hit_latency_p50_ms": common.metric(common.windowed_p50(hits), "ms"),
        "hit_latency_p90_ms": common.metric(common.windowed_p90(hits), "ms"),
        "peak_rss_mb": common.metric(rss_kb / 1024.0, "MB"),
    }
