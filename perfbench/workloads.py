"""The four benchmark workloads: set-up, seeded inputs, one pass, output gate.

Every workload is a closed loop with one client and no think time: the next
pass (or request) starts when the previous one has returned.  The library is
reached only through its public module attributes, so that the tracer's
wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from gate import load_digests, value_digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
POOL_FILE = HERE / "pool.json"

COMPUTE = {"ado3": "compute_ado3", "lg-spec": "compute_lg_specialized",
           "lg": "compute_lg"}
R_BUILDERS = ("build_ado3_r", "build_ado3_r_inverse", "build_ado3_h",
              "build_lg_r", "build_lg_r_inverse", "build_lg_h",
              "build_lg_r_specialized", "build_lg_r_inverse_specialized",
              "build_lg_h_specialized")
RELATION_CHECKS = (("check_cubic_ado", ()), ("check_skein_lg", ()),
                   ("check_yang_baxter", ("ado3",)),
                   ("check_yang_baxter", ("lg",)),
                   ("check_yang_baxter", ("lg-spec",)),
                   ("check_ishii_relation", (False,)),
                   ("check_ishii_relation", (True,)))
# audit rule of run_equality_sweep at its default fraction of 0.01
AUDIT_EVERY = 100


@dataclass(frozen=True)
class Workload:
    name: str
    families: tuple[str, ...]   # enumerated in set-up
    strands: tuple[int, ...]    # engine tables compiled in set-up
    jobs: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("sweep-long", ("Type8", "Type9", "Type10"), (5,)),
        Workload("sweep-short", ("S4", "Type1", "Type2", "Type3"), (4, 5)),
        Workload("compute-mix", (), (3, 4, 5)),
        Workload("sweep-jobs2", ("Type4", "Type5", "Type6", "Type7"), (5,),
                 jobs=2),
    )
}


class LibraryMissing(RuntimeError):
    """The checkout has no importable braidinv source tree."""


def import_library() -> SimpleNamespace:
    """Import braidinv from this checkout's src/, never from elsewhere."""
    if not (SRC / "braidinv" / "__init__.py").is_file():
        raise LibraryMissing(f"no braidinv package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"braidinv.{name}")
            for name in ("braid", "hecke", "invariant", "rep", "ring", "verify")}
    origin = Path(mods["braid"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise LibraryMissing(f"braidinv was imported from {origin}, not {SRC}")
    return SimpleNamespace(**mods)


def install_tracer(tracer, lib: SimpleNamespace) -> None:
    """Wrap the public functions each layer metric is measured at."""
    for name in R_BUILDERS:
        tracer.wrap(lib.rep, name, f"rep.{name}", "rep")
    tracer.wrap(lib.invariant, "compile_letter_tables",
                "invariant.compile_letter_tables", "invariant")
    for fn in COMPUTE.values():
        tracer.wrap(lib.invariant, fn, f"invariant.{fn}", "invariant")
    tracer.wrap(lib.braid, "parse_braid", "braid.parse_braid", "braid")
    tracer.wrap(lib.hecke, "family_words", "hecke.family_words", "hecke")
    tracer.wrap(lib.verify, "run_equality_sweep", "verify.run_equality_sweep",
                "verify")
    # names verify imported from other modules: the calls the sweep makes
    tracer.wrap(lib.verify, "compute_lg", "verify.audit:compute_lg", "invariant")
    tracer.wrap(lib.verify, "specialize", "verify.audit:specialize", "ring")
    tracer.wrap(lib.verify, "family_words", "verify.sweep:family_words", "hecke")
    for name in sorted({n for n, _ in RELATION_CHECKS}
                       | {"check_corollary", "check_symmetry"}):
        tracer.wrap(lib.verify, name, f"verify.{name}", "verify")
    tracer.wrap(lib.verify.SweepReport, "to_json", "verify.SweepReport.to_json",
                "verify")


def setup(wl: Workload, tracer=None):
    """Import, R-matrix build, letter-table compile and word enumeration;
    returns the library, the enumerated families and the seconds taken.

    Tables are compiled by the library's own lazy path, through one call of
    each compute_* on the empty braid of every strand count the workload
    uses, so the timed passes start with warm tables.
    """
    start = time.perf_counter()
    lib = import_library()
    if tracer is not None:
        install_tracer(tracer, lib)
    for name in R_BUILDERS:
        getattr(lib.rep, name)()
    for n in wl.strands:
        for fn in COMPUTE.values():
            getattr(lib.invariant, fn)(lib.braid.BraidWord(n, ()))
    families = {tag: lib.hecke.family_words(tag) for tag in wl.families}
    return lib, families, time.perf_counter() - start


# --- seeded inputs -------------------------------------------------------------

def _u_strata(u_words) -> list[list[int]]:
    """U indices by word length; one group of each stratum per family.

    Drawing every family's groups from the same two length strata keeps the
    work of a pass, and which words the audit lands on, alike across seeds
    while the sign patterns still vary.
    """
    return [[u for u, w in enumerate(u_words) if len(w) == length]
            for length in (2, 3)]


def make_sweep_words(wl: Workload, seed: int, families: dict, u_words) -> list:
    rng = random.Random(f"{wl.name}:{seed}")
    strata = _u_strata(u_words)
    words = []
    for tag in wl.families:
        if tag == "S4":
            words.extend(families[tag])
            continue
        for u in sorted(rng.choice(stratum) for stratum in strata):
            words.extend(families[tag][24 * u:24 * u + 24])
    return words


def load_pool() -> dict:
    with open(POOL_FILE, encoding="ascii") as fh:
        return json.load(fh)


def make_requests(seed: int, pool: dict) -> list[tuple[str, str]]:
    """(invariant, braid text) requests: one seeded pick from every pool group,
    in a seeded order (see make_pool.py).

    Group members are stored cheapest first, and neighbouring groups are
    paired: when one takes its k-th cheapest request the other takes its k-th
    dearest, so a heavy pick in one group is offset in the next and the work
    of a pass varies less between seeds.
    """
    rng = random.Random(f"compute-mix:{seed}")
    groups = pool["groups"]
    requests = []
    for g in range(0, len(groups), 2):
        k = rng.randrange(len(groups[g]))
        requests.append(tuple(groups[g][k]))
        if g + 1 < len(groups):
            requests.append(tuple(groups[g + 1][-1 - k]))
    rng.shuffle(requests)
    return requests


def inputs_digest(inputs) -> str:
    lines = [f"{cw.family}:{cw.index}:{cw.full.format()}" if hasattr(cw, "full")
             else f"{cw[0]} {cw[1]}" for cw in inputs]
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()[:16]


def make_inputs(wl: Workload, seed: int, lib, families: dict) -> list:
    if wl.name == "compute-mix":
        return make_requests(seed, load_pool())
    return make_sweep_words(wl, seed, families, lib.hecke.U_WORDS)


# --- one pass ------------------------------------------------------------------

@dataclass
class PassResult:
    seconds: float
    report: object = None          # SweepReport, or the error that ended the sweep
    checks: list | None = None     # sweep-short: CheckResults
    report_json: str | None = None
    events: list | None = None     # (time, progress message)
    results: list | None = None    # compute-mix: (value or error, seconds)
    start: float = 0.0


def run_pass(wl: Workload, lib, inputs: list, *, jobs: int | None = None) -> PassResult:
    if wl.name == "compute-mix":
        return _compute_pass(lib, inputs)
    jobs = wl.jobs if jobs is None else jobs
    v = lib.verify
    out = PassResult(seconds=0.0, events=[])
    out.start = time.perf_counter()
    if wl.name == "sweep-short":
        out.checks = [getattr(v, name)(*args) for name, args in RELATION_CHECKS]
    try:
        out.report = v.run_equality_sweep(
            inputs, jobs=jobs,
            progress=lambda msg: out.events.append((time.perf_counter(), msg)))
    except lib.invariant.ProportionalityError as exc:
        out.report = exc
    if wl.name == "sweep-short" and not isinstance(out.report, Exception):
        entries = out.report.entries
        out.checks.append(v.check_corollary(entries))
        out.checks.append(v.check_symmetry([e for e in entries if e.family == "S4"]))
        out.report_json = out.report.to_json()
    out.seconds = time.perf_counter() - out.start
    return out


def _compute_pass(lib, requests: list) -> PassResult:
    results = []
    start = time.perf_counter()
    for inv, text in requests:
        t = time.perf_counter()
        try:
            value = getattr(lib.invariant, COMPUTE[inv])(
                lib.braid.parse_braid(text)).value
        except lib.invariant.ProportionalityError as exc:
            value = exc
        results.append((value, time.perf_counter() - t))
    return PassResult(seconds=time.perf_counter() - start, results=results,
                      start=start)


# --- output gate ---------------------------------------------------------------

def load_reference(wl: Workload) -> dict:
    """What check_pass compares outputs with: the pool's braid values for
    compute-mix, the stored digests of the sweep words otherwise."""
    return load_pool()["braids"] if wl.name == "compute-mix" else load_digests()


def check_pass(wl: Workload, lib, inputs: list, res: PassResult,
               reference: dict) -> tuple[int, int]:
    """(attempted, failed) operations of one pass."""
    if wl.name == "compute-mix":
        return _check_compute(lib, inputs, res.results, reference)
    words = len(inputs)
    expected_audits = len(range(0, words, AUDIT_EVERY))
    checks = res.checks or []
    attempted = words + expected_audits + len(checks)
    failed = sum(1 for c in checks if not c.passed)
    report = res.report
    if isinstance(report, Exception) or len(report.entries) != words:
        return attempted, attempted
    for cw, e in zip(inputs, report.entries):
        want = reference[cw.family][cw.index]
        if ((e.family, e.index) != (cw.family, cw.index) or not e.equal
                or value_digest(e.ado3) != want
                or value_digest(e.lg_specialized) != want):
            failed += 1
    failed += report.audit_failures
    failed += max(0, expected_audits - report.audit_checked)
    if res.report_json is not None:
        total = json.loads(res.report_json)["summary"]["total"]
        if total != {"words": words, "equal": words, "unequal": 0}:
            failed += 1
    return attempted, failed


def _check_compute(lib, requests: list, results: list,
                   braids: dict) -> tuple[int, int]:
    """Each result against the pool's reference values for its braid.

    The reference ado3 and lg values satisfied ado3 == lg-spec ==
    specialize(lg) when the pool was made; an lg result must match both its
    own reference and, specialized, the ado3 one.
    """
    failed = 0
    for (inv, text), (value, _) in zip(requests, results):
        ref = braids[text]
        if isinstance(value, Exception):
            ok = False
        elif inv == "lg":
            ok = (value_digest(value) == ref["lg"]
                  and value_digest(lib.ring.specialize(value)) == ref["ado3"])
        else:
            ok = value_digest(value) == ref["ado3"]
        failed += not ok
    return len(requests), failed


def output_values(res: PassResult) -> list:
    if res.results is not None:
        return [v for v, _ in res.results if not isinstance(v, Exception)]
    if isinstance(res.report, Exception):
        return []
    return [e.ado3 for e in res.report.entries]


def value_stats(values) -> tuple[int, int]:
    """(largest coefficient bit length, number of terms) over exact values."""
    bits = terms = 0
    for v in values:
        for _, c in v.items():
            terms += 1
            parts = (c,) if isinstance(c, int) else (c.a, c.b)
            bits = max(bits, *(abs(x).bit_length() for x in parts))
    return bits, terms
