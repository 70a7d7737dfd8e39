"""Command-line front end: compute invariants, run verification suites.

``compute`` makes one ``invariant.closure_values`` call over all its braids,
so a file of related words shares its trie walk as a sweep family does (one
walk per strand count), and prints the values in input order once every walk
is done.  A braid above the strand bound is refused, and named, before any
walk starts.
Its ``--invariant`` choices are the engine's table, ``invariant._BUILDERS``.

``verify`` reads what a suite runs from one table, ``_SUITES``: the families
it sweeps and the checks of ``_CHECKS`` it runs besides.  Its ``s5-type=K``
keys have K = 1..10 in ASCII digits; any other name is an unknown suite.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage or
parse errors.  Results go to standard output (byte-identical across runs for
a fixed input); progress and timing go to standard error.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext

from .braid import parse_braid, read_braid_list
from .hecke import FAMILY_TAGS, family_words, write_family_files
from .invariant import _BUILDERS, ProportionalityError, closure_values
from .verify import (
    CheckResult,
    audit_step,
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


def _error(exc: Exception, code: int = 2) -> int:
    """Report an error, by default a usage or input error; its exit code."""
    print(f"error: {exc}", file=sys.stderr)
    return code


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
        return _error(exc, 1)
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


# the checks besides a sweep, each a function of the sweep's report or None
_CHECKS = {
    "relations": lambda report: _relation_checks(),
    "corollary": lambda report: [check_corollary(report.entries)],
    "symmetry": lambda report: [check_symmetry(
        [e for e in report.entries if e.family == "S4"])],
}

# suite -> (the families it sweeps, in sweep order; its checks, in order)
_SUITES = {
    "relations": ((), ("relations",)),
    "s4": (("S4",), ()),
    "s5": (FAMILY_TAGS[1:], ()),
    **{f"s5-type={tag.removeprefix('Type')}": ((tag,), ())
       for tag in FAMILY_TAGS[1:]},
    "corollary": (("S4",), ("corollary",)),
    "symmetry": (("S4",), ("symmetry",)),
    "all": (FAMILY_TAGS, ("relations", "corollary", "symmetry")),
}


def cmd_verify(args) -> int:
    tags, check_names = _SUITES[args.suite]
    # opened before any check runs, so that a bad path fails at once
    try:
        report_fh = (open(args.report, "w", encoding="utf-8") if args.report
                     else nullcontext())
    except OSError as exc:
        return _error(exc)
    with report_fh:
        report = None
        if tags:
            report = run_equality_sweep(
                [cw for tag in tags for cw in family_words(tag)],
                jobs=args.jobs, paranoid=args.paranoid,
                audit_fraction=args.audit, progress=_progress)
        checks = [res for name in check_names for res in _CHECKS[name](report)]
        for res in checks:
            print(f"[{'PASS' if res else 'FAIL'}] {res.name}: {res.detail}")
            _progress(res.line())
        ok = all(checks)
        if report is not None:
            summary = report.summary()
            for family, counts in sorted(summary.items()):
                if family != "total":
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
        if args.suite not in _SUITES:
            parser.error(f"unknown suite {args.suite!r}")
        if not _SUITES[args.suite][0]:
            for flag, given in (("--report", args.report is not None),
                                ("--paranoid", args.paranoid),
                                ("--audit", args.audit is not None),
                                ("--jobs", args.jobs is not None)):
                if given:
                    parser.error(f"{flag} needs a sweep, and --suite "
                                 f"{args.suite} runs none")
        cpus = os.cpu_count() or 1
        if args.jobs is not None and args.jobs < 1:
            parser.error("--jobs must be at least 1")
        args.jobs = min(args.jobs or cpus, cpus)
        args.audit = 0.01 if args.audit is None else args.audit
        try:
            audit_step(args.audit)
        except ValueError as exc:
            parser.error(f"--audit: {exc}")
        return cmd_verify(args)
    return cmd_enumerate(args)


if __name__ == "__main__":
    sys.exit(main())
