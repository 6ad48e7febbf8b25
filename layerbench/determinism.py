"""Determinism check for the input generator.

    python3 layerbench/determinism.py [--seed N] [--blocks B]

Generates every workload's inputs for the first B blocks of a seed --
pair files, EXPTIME specs, resubmission plans and expected answers --
in two fresh interpreters, one with ``PYTHONHASHSEED=0`` and one with
``PYTHONHASHSEED=1``, and compares their SHA-256 digests.  Exit status
0 when they are byte-identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import shutil

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(seed: int, blocks: int) -> str:
    """SHA-256 over everything the generator produces for the seed."""
    sys.path.insert(0, HERE)
    os.chdir(os.path.dirname(HERE))
    import common
    import inproc
    import serve_bench

    sha = hashlib.sha256()

    def feed(value: object) -> None:
        sha.update(json.dumps(value, sort_keys=True).encode("utf-8"))

    def feed_file(path: str) -> None:
        with open(path, "rb") as handle:
            sha.update(handle.read())

    scratch = common.work_dir("determinism")
    try:
        for index in range(blocks):
            for workload in ("check", "exptime"):
                block = inproc.Block(workload, seed, index, scratch)
                for op in block.ops:
                    if workload == "check":
                        feed_file(op["tdx"])
                        feed_file(op["schema"])
                        feed([op["kind"], op["protect"]])
                    else:
                        feed(op)
                feed([block.plan, block.expected])
        serve = serve_bench.Workload(seed, os.path.join(scratch, "serve"))
        requests = []
        for index in range(blocks):
            hits, misses, order = serve.block(index)
            requests += hits + misses
            feed(order)
        for pair, paths in serve.hit_pairs:
            requests.append(serve_bench.Request(pair, paths, True))
        for request in requests:
            for path in request.paths:
                feed_file(path)
            feed([request.pair.kind, request.pair.name, list(request.pair.protect),
                  request.pair.expected, request.hit])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return sha.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, default=4)
    parser.add_argument("--digest", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.digest:
        print(digest(args.seed, args.blocks))
        return 0
    digests = {}
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        digests[hash_seed] = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--digest",
             "--seed", str(args.seed), "--blocks", str(args.blocks)],
            env=env, check=True, capture_output=True, text=True,
        ).stdout.strip()
        print("PYTHONHASHSEED=%s  %s" % (hash_seed, digests[hash_seed]))
    same = digests["0"] == digests["1"]
    print("identical" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
