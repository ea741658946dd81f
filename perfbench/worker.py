"""Child process of the benchmark: runs one role in a fresh interpreter.

    python3 perfbench/worker.py ROLE --workload W --seed N --seconds S
                                [--trace 0|1] [--size full|tiny]

Roles:

  setup   set the workload up (imports, inputs, warm-up and its digest gate),
          print READY and exit; the parent times spawn-to-READY
  run     set up, print READY, measure (see roles.py) and print one JSON line
  layers  the per-layer micro-benchmarks (see layers.py)

The speed sampler (spec.SpeedSampler) runs for the whole life of the worker.
Run from the root of a checkout with src/ on PYTHONPATH; run.py does that.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spec import SIZES, SpeedSampler  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=["setup", "run", "layers"])
    ap.add_argument("--workload", default="mc_small")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--size", default="full", choices=sorted(SIZES))
    args = ap.parse_args(argv)
    size = SIZES[args.size]
    sampler = SpeedSampler()
    sampler.start()

    def ready():
        # CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract its spawn
        # time; the factor scales that set-up time to the nominal reference speed.
        at = time.monotonic()
        print(f"READY {at!r} {sampler.setup_factor()!r}", flush=True)

    try:
        if args.role == "layers":
            import layers

            res = layers.run_all(size, sampler)
        else:
            import roles

            os.makedirs(roles.OUT_DIR, exist_ok=True)
            loop = roles.Loop(sampler, ready)
            body = roles.ROLES[args.workload](args, size, loop, args.role == "run")
            if body is None:
                return 0
            res = loop.result(**body)
            res["peak_rss_mb"] = roles.rss_mb()
    finally:
        sampler.stop()
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
