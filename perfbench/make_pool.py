"""Regenerate pool.json, the request pool that compute-mix samples from.

    python3 perfbench/make_pool.py

For n = 3, 4, 5 strands and every length n..4n, CANDIDATES[n] braids with
uniformly random letters are drawn from a fixed generator (about 130 braids
per strand count).  Each braid is computed as ado3, lg-spec and lg; the
digests of ado3, lg-spec and specialize(lg) must agree, and the digests of
the ado3 and lg values are stored as the reference the benchmark checks
against.

Every (invariant, braid) request is timed once in each of ROUNDS rounds,
each round in a new random order; the requests are sorted by their median
time, and GROUPS groups are formed, each of the GROUP_SIZE requests nearest
one evenly spaced rank.  A compute-mix pass takes one seeded request
from every group, so every seed gets different requests with the same spread
of latencies; with freely drawn braids a few long five-strand requests
decided a pass's time and its 90th percentile.  The timings only order the
pool and are not stored.
"""

from __future__ import annotations

import gc
import json
import random
import statistics
import sys
import time

from gate import value_digest
from workloads import COMPUTE, POOL_FILE, import_library

CANDIDATES = {3: 13, 4: 10, 5: 8}
GROUPS = 120
GROUP_SIZE = 5
ROUNDS = 5


def main() -> int:
    lib = import_library()
    rng = random.Random("compute-mix-pool")
    parsed = {}
    for n in (3, 4, 5):
        for length in range(n, 4 * n + 1):
            for _ in range(CANDIDATES[n]):
                letters = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                           for _ in range(length)]
                text = "{%d,{%s}}" % (n, ",".join(map(str, letters)))
                parsed[text] = lib.braid.parse_braid(text)
    requests = [(inv, text) for text in parsed for inv in COMPUTE]
    times: dict[tuple[str, str], list[float]] = {r: [] for r in requests}
    digests: dict[tuple[str, str], str] = {}
    for round_no in range(ROUNDS):
        # a fresh order each round, so that a slow spell of the machine is
        # spread over random requests instead of one strand count
        rng.shuffle(requests)
        for inv, text in requests:
            gc.collect()
            start = time.perf_counter()
            value = getattr(lib.invariant, COMPUTE[inv])(parsed[text]).value
            times[(inv, text)].append(time.perf_counter() - start)
            if round_no == 0:
                digests[(inv, text)] = value_digest(value)
                if inv == "lg":
                    digests[("lg-specialized", text)] = value_digest(
                        lib.ring.specialize(value))
        print(f"round {round_no + 1} of {ROUNDS} done", file=sys.stderr,
              flush=True)
    braids = {}
    for text in parsed:
        ado3, spec, special = (digests[(inv, text)]
                               for inv in ("ado3", "lg-spec", "lg-specialized"))
        if not ado3 == spec == special:
            print(f"{text}: values differ, refusing to store the pool",
                  file=sys.stderr)
            return 1
        braids[text] = {"ado3": ado3, "lg": digests[("lg", text)]}
    timed = sorted((statistics.median(t), inv, text)
                   for (inv, text), t in times.items())
    groups = []
    for g in range(GROUPS):
        centre = int((g + 0.5) * len(timed) / GROUPS)
        lo = min(max(0, centre - GROUP_SIZE // 2), len(timed) - GROUP_SIZE)
        groups.append([[inv, text] for _, inv, text in timed[lo:lo + GROUP_SIZE]])
    doc = {"braids": braids, "groups": groups}
    POOL_FILE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n",
                         encoding="ascii")
    print(f"{len(braids)} braids, {len(timed)} requests, {GROUPS} groups",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
