"""Start ``python -m repro serve`` with the layer wrappers available.

    PYTHONPATH=src:layerbench python layerbench/serve_launcher.py \\
        STATE_FILE OUT_FILE serve --socket ... [serve flags]

The daemon runs through the program's own CLI entry point
(``repro.cli.main``).  SIGUSR1 installs the wrappers, SIGUSR2 removes
them and closes one *segment* of per-layer totals; after each switch
the launcher writes ``on N`` / ``off N`` to STATE_FILE so the benchmark
knows the switch is done.  Segments stay in memory and are written to
OUT_FILE as JSON when the daemon exits.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from typing import Any, Dict, List

import repro.cli
import repro.serve  # noqa: F401  (load every layer before wrapping)
from tracer import Tracer


def main(argv: List[str]) -> int:
    state_file, out_file, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(rooted=False, clock=time.thread_time_ns)
    segments: List[Dict[str, Any]] = []

    def report(state: str) -> None:
        with open(state_file, "w", encoding="ascii") as handle:
            handle.write("%s %d\n" % (state, len(segments)))

    def trace_on(_signum: int, _frame: Any) -> None:
        tracer.reset()
        tracer.install()
        report("on")

    def trace_off(_signum: int, _frame: Any) -> None:
        tracer.uninstall()
        segments.append(tracer.totals())
        report("off")

    signal.signal(signal.SIGUSR1, trace_on)
    signal.signal(signal.SIGUSR2, trace_off)
    report("off")
    try:
        return repro.cli.main(cli_args)
    finally:
        with open(out_file, "w", encoding="ascii") as handle:
            json.dump(segments, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
