"""Command-line front end: compute invariants, run verification suites.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage or
parse errors.  Results go to standard output (byte-identical across runs for
a fixed input); progress and timing go to standard error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .braid import parse_braid, read_braid_list
from .hecke import (
    enumerate_s4_check_words,
    enumerate_s5_check_words,
    family_words,
    write_family_files,
)
from .invariant import (
    ProportionalityError,
    compute_ado3,
    compute_lg,
    compute_lg_specialized,
)
from .verify import (
    CheckResult,
    check_corollary,
    check_cubic_ado,
    check_ishii_relation,
    check_skein_lg,
    check_symmetry,
    check_yang_baxter,
    run_equality_sweep,
)

_COMPUTE = {
    "ado3": compute_ado3,
    "lg": compute_lg,
    "lg-spec": compute_lg_specialized,
}

_PLAIN_SUITES = ("relations", "s4", "s5", "corollary", "symmetry", "all")


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def cmd_compute(args) -> int:
    try:
        if args.braid is not None:
            braids = [parse_braid(args.braid)]
        else:
            with open(args.file, encoding="utf-8") as fh:
                braids = list(read_braid_list(fh))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    fn = _COMPUTE[args.invariant]
    try:
        for b in braids:
            print(fn(b, paranoid=args.paranoid).value)
    except ProportionalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _relation_checks() -> list[CheckResult]:
    return [
        check_cubic_ado(),
        check_skein_lg(),
        check_yang_baxter("ado3"),
        check_yang_baxter("lg"),
        check_yang_baxter("lg-spec"),
        check_ishii_relation(specialized=False),
        check_ishii_relation(specialized=True),
    ]


def _suite_words(suite: str):
    if suite in ("s4", "corollary", "symmetry"):
        return enumerate_s4_check_words()
    if suite == "s5":
        return enumerate_s5_check_words()
    if suite == "all":
        return enumerate_s4_check_words() + enumerate_s5_check_words()
    if suite.startswith("s5-type="):
        return family_words(f"Type{int(suite.split('=', 1)[1])}")
    return None


def cmd_verify(args) -> int:
    checks: list[CheckResult] = []
    if args.suite in ("relations", "all"):
        checks.extend(_relation_checks())
    report = None
    words = _suite_words(args.suite)
    if words is not None:
        report = run_equality_sweep(words, jobs=args.jobs, paranoid=args.paranoid,
                                    audit_fraction=args.audit, progress=_progress)
    if args.suite in ("corollary", "all"):
        checks.append(check_corollary(report.entries))
    if args.suite in ("symmetry", "all"):
        checks.append(check_symmetry(
            [e for e in report.entries if e.family == "S4"]))

    ok = True
    for res in checks:
        ok = ok and res.passed
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.name}: {res.detail}")
        _progress(res.line())
    if report is not None:
        summary = report.summary()
        for family in sorted(summary):
            if family != "total":
                counts = summary[family]
                print(f"{family}: {counts['equal']}/{counts['words']} equal")
        total = summary["total"]
        print(f"total: {total['equal']}/{total['words']} equal")
        if report.audit_every:
            print(f"audit: {report.audit_checked} generic recomputations, "
                  f"{report.audit_failures} failures")
        for entry in report.entries:
            if not entry.equal:
                print(f"UNEQUAL {entry.braid.format()} diff {entry.diff}")
        _progress(f"sweep time: {report.timing.get('total', 0.0):.1f}s")
        ok = ok and report.all_equal
        if args.report:
            with open(args.report, "w", encoding="utf-8") as fh:
                report.write_json(fh)
            _progress(f"report written to {args.report}")
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    for path in write_family_files(args.out):
        print(path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidinv",
        description="Exact colored Alexander and Links-Gould invariants "
                    "of braid closures, with verification sweeps.")
    sub = parser.add_subparsers(dest="verb", required=True)

    pc = sub.add_parser("compute", help="compute an invariant of braid closures")
    pc.add_argument("--invariant", choices=sorted(_COMPUTE), required=True)
    src = pc.add_mutually_exclusive_group(required=True)
    src.add_argument("--braid", help='braid text, e.g. "{3,{1,1,1}}"')
    src.add_argument("--file", help="braid-list file, one braid per line")
    pc.add_argument("--paranoid", action="store_true",
                    help="verify full proportionality of the closure operator")

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("--suite", required=True,
                    help="relations | s4 | s5 | s5-type=K | corollary | "
                         "symmetry | all")
    pv.add_argument("--jobs", type=int, default=None,
                    help="worker processes (default and maximum: CPU count)")
    pv.add_argument("--paranoid", action="store_true")
    pv.add_argument("--report", help="write the sweep report JSON here")
    pv.add_argument("--audit", type=float, default=0.01,
                    help="fraction of words re-checked via the generic "
                         "two-variable computation (default 0.01)")

    pe = sub.add_parser("enumerate", help="write the check-word family files")
    pe.add_argument("--out", required=True, help="output directory")
    return parser


def _validate_suite(parser: argparse.ArgumentParser, suite: str) -> None:
    if suite in _PLAIN_SUITES:
        return
    if suite.startswith("s5-type="):
        tail = suite.split("=", 1)[1]
        if tail.isdigit() and 1 <= int(tail) <= 10:
            return
    parser.error(f"unknown suite {suite!r}")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verb == "compute":
        return cmd_compute(args)
    if args.verb == "verify":
        _validate_suite(parser, args.suite)
        if args.jobs is None:
            args.jobs = os.cpu_count() or 1
        if args.jobs < 1:
            parser.error("--jobs must be at least 1")
        args.jobs = min(args.jobs, os.cpu_count() or 1)
        if not 0 <= args.audit <= 1:
            parser.error(f"--audit must be in [0, 1], got {args.audit}")
        return cmd_verify(args)
    return cmd_enumerate(args)


if __name__ == "__main__":
    sys.exit(main())
