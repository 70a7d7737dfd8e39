"""Command-line front end: compute invariants, run verification suites.

``compute`` makes one ``invariant.closure_values`` call over all its braids,
so a file of related words shares its trie walk as a sweep family does (one
walk per strand count), and prints the values in input order once every walk
is done.  A braid above the strand bound is refused, and named, before any
walk starts.
Its ``--invariant`` choices are the engine's table, ``invariant._BUILDERS``.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage or
parse errors.  Results go to standard output (byte-identical across runs for
a fixed input); progress and timing go to standard error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .braid import parse_braid, read_braid_list
from .hecke import FAMILY_TAGS, family_words, write_family_files
from .invariant import _BUILDERS, ProportionalityError, closure_values
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

def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _error(exc: Exception) -> int:
    """Report a usage or input error; its exit code."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def cmd_compute(args) -> int:
    try:
        if args.braid is not None:
            braids = [parse_braid(args.braid)]
        else:
            with open(args.file, encoding="utf-8") as fh:
                braids = list(read_braid_list(fh))
    except (ValueError, OSError) as exc:
        return _error(exc)
    try:
        values = closure_values(args.invariant, braids, paranoid=args.paranoid)
    except ProportionalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        return _error(exc)
    for value in values:
        print(value)
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


# the families each sweeping suite checks, in sweep order
_SUITE_FAMILIES = {
    "s4": ("S4",),
    "corollary": ("S4",),
    "symmetry": ("S4",),
    "s5": FAMILY_TAGS[1:],
    "all": FAMILY_TAGS,
}


def _suite_words(suite: str):
    """The check words a suite sweeps, None for ``relations``; ValueError
    for an unknown suite."""
    if suite == "relations":
        return None
    tags = _SUITE_FAMILIES.get(suite)
    if tags is None:
        tail = suite.removeprefix("s5-type=")
        if not (tail != suite and tail.isdigit() and 1 <= int(tail) <= 10):
            raise ValueError(f"unknown suite {suite!r}")
        tags = (f"Type{int(tail)}",)
    return [cw for tag in tags for cw in family_words(tag)]


def cmd_verify(args, words) -> int:
    if not args.report:
        return _run_verify(args, words, None)
    # opened before the sweep, so that a bad path fails at once
    try:
        report_fh = open(args.report, "w", encoding="utf-8")
    except OSError as exc:
        return _error(exc)
    with report_fh:
        return _run_verify(args, words, report_fh)


def _run_verify(args, words, report_fh) -> int:
    checks: list[CheckResult] = []
    if args.suite in ("relations", "all"):
        checks.extend(_relation_checks())
    report = None
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
        if report_fh is not None:
            report.write_json(report_fh)
            _progress(f"report written to {args.report}")
    return 0 if ok else 1


def cmd_enumerate(args) -> int:
    try:
        paths = write_family_files(args.out)
    except OSError as exc:
        return _error(exc)
    for path in paths:
        print(path)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidinv",
        description="Exact colored Alexander and Links-Gould invariants "
                    "of braid closures, with verification sweeps.")
    sub = parser.add_subparsers(dest="verb", required=True)

    pc = sub.add_parser("compute", help="compute an invariant of braid closures")
    pc.add_argument("--invariant", choices=sorted(_BUILDERS),
                    required=True)
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
                    help="workers for a sweep's per-family passes and "
                         "audits (default and maximum: CPU count)")
    pv.add_argument("--paranoid", action="store_true")
    pv.add_argument("--report", help="write the sweep report JSON here")
    pv.add_argument("--audit", type=float, default=None,
                    help="fraction of words re-checked via the generic "
                         "two-variable computation (default 0.01)")

    pe = sub.add_parser("enumerate", help="write the check-word family files")
    pe.add_argument("--out", required=True, help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verb == "compute":
        return cmd_compute(args)
    if args.verb == "verify":
        try:
            words = _suite_words(args.suite)
        except ValueError as exc:
            parser.error(str(exc))
        if words is None:
            for flag, given in (("--report", args.report is not None),
                                ("--paranoid", args.paranoid),
                                ("--audit", args.audit is not None),
                                ("--jobs", args.jobs is not None)):
                if given:
                    parser.error(f"{flag} needs a sweep, and --suite "
                                 f"{args.suite} runs none")
        if args.jobs is None:
            args.jobs = os.cpu_count() or 1
        if args.jobs < 1:
            parser.error("--jobs must be at least 1")
        args.jobs = min(args.jobs, os.cpu_count() or 1)
        if args.audit is None:
            args.audit = 0.01
        if not 0 <= args.audit <= 1:
            parser.error(f"--audit must be in [0, 1], got {args.audit}")
        return cmd_verify(args, words)
    return cmd_enumerate(args)


if __name__ == "__main__":
    sys.exit(main())
