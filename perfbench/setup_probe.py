"""Set up one workload in a fresh interpreter; print its times as JSON.

    python3 perfbench/setup_probe.py --workload NAME [--trace 0|1]

run.py starts this several times per run, so that set-up is measured cold
and reported as a median.
"""

from __future__ import annotations

import argparse
import json
import sys

from tracer import Tracer
from workloads import WORKLOADS, LibraryMissing, setup


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    tracer = Tracer() if args.trace else None
    try:
        _, _, seconds = setup(WORKLOADS[args.workload], tracer)
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    times = {"setup_s": seconds}
    if tracer is not None:
        times["rep.build_s"] = tracer.total("rep.")
        times["invariant.compile_s"] = tracer.total(
            "invariant.compile_letter_tables")
        times["hecke.enumerate_s"] = tracer.total("hecke.family_words")
    print(json.dumps(times))
    return 0


if __name__ == "__main__":
    sys.exit(main())
