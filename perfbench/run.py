"""braidinv benchmark: one seeded workload, its metrics, and an output gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each was chosen):

  sweep-long   serial run_equality_sweep on u-groups of Types 8-10
  sweep-short  a miniature ``verify --suite all`` (relations, S4, Types 1-3)
  compute-mix  parse_braid + compute_* requests on 3-5 strand braids
  sweep-jobs2  run_equality_sweep(jobs=2) on u-groups of Types 4-7

Set-up is measured in fresh interpreters (setup_probe.py), half of them
before the passes and half after, and reported as the median.  The workload
then repeats passes over its seeded inputs while the next pass is expected to
end within --seconds (at least one pass).  With --trace 0 the end-to-end
metrics are reported.  With --trace 1 the untraced passes are
followed by traced passes for another --seconds; the per-layer metrics are
reported and the spans written under perfbench/traces/.  Every pass is checked: sweep values
against the stored digests, compute-mix results against the pool's
reference values.  The last line of standard output is one JSON object; the
exit code is 1 if any output was wrong and 2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

from tracer import Tracer
from workloads import (HERE, ROOT, SRC, WORKLOADS, LibraryMissing, check_pass,
                       inputs_digest, install_tracer, load_reference,
                       make_inputs, output_values, run_pass, setup,
                       value_stats)

SETUP_PROBES = 12
LAYERS = ("ring", "braid", "rep", "invariant", "hecke", "verify")
TRACE_DIR = HERE / "traces"


def _p90(values: list[float]) -> float:
    """90th percentile, interpolated between the two nearest samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def probe_setup(workload: str, trace: int, count: int) -> list[dict]:
    """Times of ``count`` cold set-ups, each in its own interpreter."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise LibraryMissing(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def run_metadata(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sources = sorted(SRC.rglob("*.py"))
    blob = b"".join(p.read_bytes() for p in sources)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": _commit(),
        "src_sha256": hashlib.sha256(blob).hexdigest()[:16],
        "src_lines": blob.count(b"\n"),
        "seed": seed,
    }


def _commit() -> str:
    """HEAD of the checkout's own .git, without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def peak_rss_mb() -> float:
    """Peak resident set of this process and of the children it waited for.

    The children are the pool workers and the set-up probes; a probe does a
    subset of this process's set-up, so the peak is the workload's.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


@dataclass
class Passes:
    """What is kept of a series of passes once each has been checked."""

    seconds: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    values: list | None = None     # output values of the first pass
    stages: dict[str, float] = field(
        default_factory=lambda: {"ado3": 0.0, "lg-spec": 0.0})


def run_passes(wl, lib, inputs, reference, seconds: float, tracer=None,
               **kw) -> Passes:
    """Repeat passes while the next one is expected to end within ``seconds``
    of pass time (at least one pass).

    Each pass is checked and dropped as soon as it is timed, and the garbage
    collector runs between passes, so no pass pays for keeping or collecting
    its predecessors' results.
    """
    out = Passes()
    while (not out.seconds
           or sum(out.seconds) + statistics.mean(out.seconds) <= seconds):
        gc.collect()
        res = run_pass(wl, lib, inputs, **kw)
        out.seconds.append(res.seconds)
        if res.results is not None:
            out.latencies.extend(t for _, t in res.results)
        else:
            out.latencies.append(res.seconds)
        attempted, failed = check_pass(wl, lib, inputs, res, reference)
        out.attempted += attempted
        out.failed += failed
        if out.values is None:
            out.values = output_values(res)
        if tracer is not None and res.events:
            for kind, secs in _stage_times(tracer, res).items():
                out.stages[kind] += secs
    return out


def end_to_end(inputs, plain: Passes, probes) -> dict:
    wall = _median(plain.seconds)
    return {
        "setup_s": _metric(_median([p["setup_s"] for p in probes]), "s"),
        "wall_s": _metric(wall, "s"),
        "words_per_s": _metric(len(inputs) / wall, "1/s"),
        "latency_p50_ms": _metric(1000 * _median(plain.latencies), "ms"),
        "latency_p90_ms": _metric(1000 * _p90(plain.latencies), "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def _stage_times(tracer: Tracer, res) -> dict[str, float]:
    """Family-pass spans from the progress timestamps of one sweep."""
    out = {"ado3": 0.0, "lg-spec": 0.0}
    prev = res.start
    for ts, msg in res.events:
        kind = ("ado3" if "colored Alexander pass done" in msg
                else "lg-spec" if "specialized Links-Gould pass done" in msg
                else "audit")
        tracer.stage(f"verify.stage:{kind}:{msg.split(':', 1)[0]}", "verify",
                     prev, ts)
        if kind in out:
            out[kind] += ts - prev
        prev = ts
    return out


def per_layer(plain: Passes, traced: Passes, serial: Passes | None, probes,
              tracer: Tracer) -> dict:
    n = len(traced.seconds)
    untraced = _median(plain.seconds)
    bits, terms = value_stats(plain.values)
    ms = lambda prefix: 1000 * _median(tracer.durations(prefix))  # noqa: E731
    self_time = tracer.self_time_by_layer()
    metrics = {
        "rep.build_s": _metric(_median([p["rep.build_s"] for p in probes]), "s"),
        "invariant.compile_s": _metric(
            _median([p["invariant.compile_s"] for p in probes]), "s"),
        "hecke.enumerate_s": _metric(
            _median([p["hecke.enumerate_s"] for p in probes]), "s"),
        "verify.ado3_pass_s": _metric(traced.stages["ado3"] / n, "s"),
        "verify.lg_spec_pass_s": _metric(traced.stages["lg-spec"] / n, "s"),
        "verify.audit_s": _metric(tracer.total("verify.audit:") / n, "s"),
        "verify.audit_calls": _metric(
            len(tracer.durations("verify.audit:compute_lg")) // n, "count"),
        "invariant.lg_audit_ms": _metric(ms("verify.audit:compute_lg"), "ms"),
        "hecke.family_words_calls": _metric(
            len(tracer.durations("verify.sweep:family_words")) // n, "count"),
        "hecke.family_words_s": _metric(
            tracer.total("verify.sweep:family_words") / n, "s"),
        "verify.checks_s": _metric(tracer.total("verify.check_") / n, "s"),
        "verify.report_json_s": _metric(
            tracer.total("verify.SweepReport.to_json") / n, "s"),
        "verify.parallel_speedup": _metric(
            serial.seconds[0] / untraced if serial else 0.0, "x"),
        "invariant.ado3_p50_ms": _metric(ms("invariant.compute_ado3"), "ms"),
        "invariant.lg_spec_p50_ms": _metric(
            ms("invariant.compute_lg_specialized"), "ms"),
        "invariant.lg_p50_ms": _metric(ms("invariant.compute_lg"), "ms"),
        "braid.parse_us": _metric(
            1e6 * _median(tracer.durations("braid.parse_braid")), "us"),
        "ring.max_coeff_bits": _metric(bits, "bits"),
        "ring.value_terms": _metric(terms, "count"),
        "trace_overhead_pct": _metric(
            100 * (_median(traced.seconds) - untraced) / untraced, "%"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _metric(self_time.get(layer, 0.0) / n, "s")
    return metrics


def main(argv=None, reference: dict | None = None) -> int:
    ap = argparse.ArgumentParser(description="braidinv benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        probes = probe_setup(wl.name, args.trace, SETUP_PROBES // 2)
        lib, families, _ = setup(wl)
        if reference is None:
            reference = load_reference(wl)
    except (LibraryMissing, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    meta = run_metadata(args.seed)
    print("meta: " + json.dumps(meta, sort_keys=True))
    inputs = make_inputs(wl, args.seed, lib, families)
    print(f"inputs: {len(inputs)} {'requests' if wl.name == 'compute-mix' else 'words'}"
          f", digest {inputs_digest(inputs)}")

    plain = run_passes(wl, lib, inputs, reference, args.seconds)
    done = [plain]
    if args.trace:
        serial = None
        if wl.jobs > 1:
            serial = run_passes(wl, lib, inputs, reference, 0, jobs=1)
            done.append(serial)
        tracer = Tracer()
        install_tracer(tracer, lib)
        try:
            traced = run_passes(wl, lib, inputs, reference, args.seconds, tracer)
        finally:
            tracer.unwrap_all()
        done.append(traced)
    # the machine's speed drifts over seconds to minutes; probing on both
    # sides of the passes keeps one slow spell from setting the median
    probes += probe_setup(wl.name, args.trace, SETUP_PROBES - len(probes))
    if args.trace:
        metrics = per_layer(plain, traced, serial, probes, tracer)
        trace_file = TRACE_DIR / f"{wl.name}-seed{args.seed}.json"
        tracer.dump(trace_file, meta)
        print(f"trace: {len(tracer.spans)} spans in {len(traced.seconds)} traced "
              f"passes, written to {trace_file.relative_to(ROOT)}")
        for name in tracer.missing:
            print(f"trace: {name} not found, its metrics read 0")
    else:
        metrics = end_to_end(inputs, plain, probes)
        unit = "requests" if wl.name == "compute-mix" else "passes"
        setups = " ".join(f"{p['setup_s']:.4f}" for p in probes)
        print(f"passes: {len(plain.seconds)} "
              f"({' '.join(f'{t:.3f}' for t in plain.seconds)} s); latency "
              f"samples: {len(plain.latencies)} {unit}; set-up probes: "
              f"{len(probes)} ({setups} s)")
    attempted = sum(p.attempted for p in done)
    failed = sum(p.failed for p in done)
    correct = failed == 0
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(f"error_rate: {failed / attempted} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
