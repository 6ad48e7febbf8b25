"""The benchmark's single entry point.

    python3 layerbench/run.py --workload check|exptime|serve \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` makes a separate traced run that reports the
per-layer metrics.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("check", "exptime", "serve")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not common.program_present():
        print("error: the program's sources (%s) are missing" % common.SRC, file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Every process of a run -- this one computes the reference
        # answers -- shares the program processes' pinned hash seed.
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED="0"))
    os.chdir(common.ROOT)
    sys.path.insert(1, common.SRC)
    if args.workload == "serve":
        import serve_bench

        return serve_bench.run(args.seed, args.seconds, bool(args.trace))
    import inproc

    return inproc.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
