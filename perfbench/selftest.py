"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. Seeded generator: for every workload the same seed gives identical inputs
   and another seed gives different ones.
2. Output gate, negative control: with one stored sweep digest altered, a
   sweep-short run reports ``correct: false`` with error_rate > 0 and exits
   non-zero, while with the stored digests unchanged the same run passes;
   likewise a compute-mix run with one braid's reference value altered.

Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
from gate import load_digests
from workloads import (WORKLOADS, inputs_digest, load_pool, make_inputs,
                       make_requests, setup)


def check(name: str, ok: bool) -> bool:
    print(f"[{'OK' if ok else 'FAIL'}] {name}")
    return ok


def generator_checks() -> bool:
    ok = True
    for wl in WORKLOADS.values():
        lib, families, _ = setup(wl)
        a = make_inputs(wl, 1, lib, families)
        b = make_inputs(wl, 1, lib, families)
        c = make_inputs(wl, 2, lib, families)
        ok &= check(f"{wl.name}: seed 1 twice gives identical inputs "
                    f"({inputs_digest(a)})", a == b and inputs_digest(a) == inputs_digest(b))
        ok &= check(f"{wl.name}: seed 2 gives different inputs "
                    f"({inputs_digest(c)})", inputs_digest(a) != inputs_digest(c))
    return ok


def run_quietly(workload: str, reference: dict) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                         "--trace", "0"], reference=reference)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


def gate_checks() -> bool:
    digests = load_digests()
    code, result = run_quietly("sweep-short", digests)
    ok = check("sweep-short, stored digests: exit 0, correct, no failures",
               code == 0 and result["correct"] and result["failed"] == 0)
    altered = {tag: list(values) for tag, values in digests.items()}
    altered["S4"][5] = "0" * 16
    code, result = run_quietly("sweep-short", altered)
    ok &= check(f"sweep-short, one altered digest: exit {code}, correct "
                f"{result['correct']}, failed {result['failed']} of "
                f"{result['attempted']}",
                code != 0 and not result["correct"] and result["failed"] == 1)
    pool = load_pool()
    braids = {text: dict(ref) for text, ref in pool["braids"].items()}
    braids[make_requests(1, pool)[0][1]]["ado3"] = "0" * 16
    code, result = run_quietly("compute-mix", braids)
    ok &= check(f"compute-mix, one altered reference: exit {code}, correct "
                f"{result['correct']}, failed {result['failed']} of "
                f"{result['attempted']}",
                code != 0 and not result["correct"] and result["failed"] >= 1)
    return ok


def main() -> int:
    ok = generator_checks()
    ok &= gate_checks()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
