#!/usr/bin/env python3
"""The equality sweep: colored Alexander = specialized Links-Gould, en masse.

Equality of the two invariants on all closures of braids up to five strands
reduces, via the Burau-kernel structure of the relevant Hecke quotients, to a
finite list of witness words: 648 four-strand words and 6480 five-strand
check words in ten families.  The full sweep is the job of the command line
("braidinv verify --suite all"); this demo runs a small slice so it finishes
in seconds, then prints the report machinery a full run would produce.
"""

import json

from braidinv.hecke import family_words
from braidinv.verify import check_corollary, check_symmetry, run_equality_sweep


def main() -> None:
    s4 = family_words("S4")
    print(f"four-strand family: {len(s4)} words, e.g.")
    for cw in s4[:3]:
        print(f"  [{cw.index}] {cw.full}")

    t1 = family_words("Type1")
    print(f"\nfive-strand Type1 family: {len(t1)} words, e.g.")
    for cw in t1[:3]:
        print(f"  [{cw.index}] {cw.full}  (prefix {cw.prefix}, suffix {cw.suffix})")

    # A slice: the first 48 four-strand words and 12 Type1 words.  Every
    # tenth word is additionally audited against the generic two-variable
    # computation followed by explicit specialization.
    words = list(s4[:48]) + list(t1[:12])
    print(f"\nsweeping {len(words)} words (audit fraction 0.1) ...")
    report = run_equality_sweep(words, jobs=1, audit_fraction=0.1)

    print(f"all equal: {report.all_equal}")
    for family, stats in sorted(report.summary().items()):
        print(f"  {family:<10} words={stats['words']:<4} equal={stats['equal']:<4} "
              f"unequal={stats['unequal']}")
    print(f"audited generically: {report.audit_checked}, failures: {report.audit_failures}")
    print(f"serial time: {report.timing['total']:.2f}s")

    print("\nfirst three report entries:")
    for entry in report.entries[:3]:
        print(f"  {entry.braid}  equal={entry.equal}  value={entry.ado3}")

    print("\nevaluations at t = 1 and t = w across the slice:")
    print(f"  {check_corollary(report.entries).line()}")
    print("palindromic symmetry across the slice:")
    print(f"  {check_symmetry(report.entries).line()}")

    doc = json.loads(report.to_json())
    del doc["entries"]
    print("\nreport JSON (entries elided):")
    print(json.dumps(doc, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
