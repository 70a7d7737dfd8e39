"""The ten acceptance criteria, one test each, in order.

Every comparison is exact; there are no tolerances anywhere.  Each test
prints one [OK]/[FAIL] line through the record_criterion fixture, and the
collected lines are replayed in the terminal summary.
"""

import random
import time
from itertools import product

from braidinv.braid import BraidWord
from braidinv.invariant import (
    compute_ado3,
    compute_lg,
    compute_lg_specialized,
)
from braidinv.rep import build_ado3_r
from braidinv.ring import specialize
from braidinv.verify import (
    check_corollary,
    check_cubic_ado,
    check_ishii_relation,
    check_skein_lg,
    check_symmetry,
)
from oracle import ado3_reference
from support import printed_ado_entries, random_braid


def test_criterion_01_formula_equals_printed_matrix(record_criterion):
    start = time.perf_counter()
    built = build_ado3_r()
    printed = printed_ado_entries()
    mismatches = sum(
        1 for row in range(9) for col in range(9)
        if built.get(row, col) != printed.get((row, col)))
    elapsed = time.perf_counter() - start
    record_criterion(
        1, mismatches == 0 and elapsed < 1.0,
        f"formula-built 9x9 matrix vs printed table: {mismatches} of 81 "
        f"cells differ ({elapsed:.2f}s, bound 1s)")


def test_criterion_02_cubic_relations(record_criterion):
    ado = check_cubic_ado()
    lg = check_skein_lg()
    elapsed = ado.seconds + lg.seconds
    record_criterion(
        2, ado.passed and lg.passed and elapsed < 5.0,
        f"cubic residuals zero and specialized coefficients match: "
        f"{ado.detail}; {lg.detail} ({elapsed:.2f}s, bound 5s)")


def test_criterion_03_yang_baxter(record_criterion):
    from braidinv.verify import check_yang_baxter
    results = [check_yang_baxter(which) for which in ("ado3", "lg", "lg-spec")]
    elapsed = sum(r.seconds for r in results)
    record_criterion(
        3, all(r.passed for r in results) and elapsed < 30.0,
        f"Yang-Baxter on 27- and 64-dimensional tensor cubes: "
        f"{sum(r.passed for r in results)}/3 hold ({elapsed:.2f}s, bound 30s)")


def test_criterion_04_skein_pair_relation(record_criterion):
    generic = check_ishii_relation(specialized=False)
    ado = check_ishii_relation(specialized=True)
    elapsed = generic.seconds + ado.seconds
    record_criterion(
        4, generic.passed and ado.passed and elapsed < 120.0,
        f"denominator-cleared two-parameter relation, generic and d=3 "
        f"specialized: both residuals zero ({elapsed:.2f}s, bound 120s)")


def test_criterion_05_equality_on_all_s4_closures(record_criterion, s4_report):
    total = s4_report.summary()["total"]
    elapsed = s4_report.timing["total"]
    record_criterion(
        5, s4_report.all_equal and total["words"] == 648 and elapsed < 300.0,
        f"colored Alexander = specialized Links-Gould on "
        f"{total['equal']}/{total['words']} four-strand closures, "
        f"{s4_report.audit_checked} audited generically "
        f"({elapsed:.1f}s serial, bound 300s)")


def test_criterion_06_equality_on_all_s5_check_words(record_criterion,
                                                     s5_report):
    total = s5_report.summary()["total"]
    elapsed = s5_report.timing["total"]
    families = {e.family for e in s5_report.entries}
    record_criterion(
        6, s5_report.all_equal and total["words"] == 6480
        and len(families) == 10 and elapsed < 7200.0,
        f"equality on {total['equal']}/{total['words']} five-strand check "
        f"words across {len(families)} families, {s5_report.audit_checked} "
        f"audited generically ({elapsed:.1f}s serial, bound 7200s)")


def test_criterion_07_evaluations_at_roots(record_criterion, s4_report,
                                           s5_report):
    entries = s4_report.entries + s5_report.entries
    res = check_corollary(entries)
    record_criterion(
        7, res.passed and len(entries) == 7128,
        f"values at t = 1 and t = w are 1 on knots, 0 otherwise: "
        f"{res.detail}")


def test_criterion_08_palindromic_symmetry(record_criterion, s4_report):
    res = check_symmetry(s4_report.entries)
    record_criterion(
        8, res.passed and len(s4_report.entries) == 648,
        f"invariance under t -> w/t on all 648 four-strand closures: "
        f"{res.detail}")


def _markov_suite(compute, rng, count, max_strands, max_len):
    for _ in range(count):
        b = random_braid(rng, max_strands=max_strands, max_len=max_len,
                         min_strands=2)
        base = compute(b).value
        g = random_braid(rng, max_strands=b.strands, min_strands=b.strands,
                         max_len=3)
        if compute(b.conjugate(g)).value != base:
            return False, f"conjugation changed the value of {b.format()}"
        if compute(b.stabilize(rng.choice((1, -1)))).value != base:
            return False, f"stabilization changed the value of {b.format()}"
    return True, ""


def test_criterion_09_property_suites(record_criterion):
    rng = random.Random(424243)
    failures = []

    # Markov moves, 100 random braids per invariant
    for compute, max_strands, max_len in (
        (compute_ado3, 5, 12),
        (compute_lg_specialized, 4, 10),
        (compute_lg, 3, 8),
    ):
        ok, msg = _markov_suite(compute, rng, 100, max_strands, max_len)
        if not ok:
            failures.append(f"markov[{compute.__name__}]: {msg}")

    # split-closure vanishing on 50 constructed split braids: a braid using
    # only strands 1..n-1 of n strands closes to a split link
    for _ in range(50):
        inner = random_braid(rng, max_strands=3, max_len=8, min_strands=1)
        split = BraidWord(inner.strands + 1, inner.word)
        if (compute_ado3(split).value or compute_lg(split).value
                or compute_lg_specialized(split).value):
            failures.append(f"split: nonzero value on {split.format()}")
            break

    # two-variable integrality on 100 random braids, all in paranoid mode,
    # which also exercises the proportionality guard on every closure
    integrality_braids = []
    for _ in range(100):
        b = random_braid(rng, max_strands=4, max_len=10, min_strands=1)
        integrality_braids.append(b)
        value = compute_lg(b, paranoid=True).value
        if not value.is_polynomial_in_squares():
            failures.append(f"integrality: odd exponents in {b.format()}")
            break

    # specialization consistency on 50 of the same braids
    for b in integrality_braids[:50]:
        if specialize(compute_lg(b).value) != \
                compute_lg_specialized(b, paranoid=True).value:
            failures.append(f"consistency: specialization mismatch on "
                            f"{b.format()}")
            break

    record_criterion(
        9, not failures,
        "Markov moves 3x100, split vanishing 50, integral two-variable "
        "values 100, specialization consistency 50, proportionality "
        "enforced throughout" + (f"; FAILED: {failures[0]}" if failures
                                 else ""))


def test_criterion_10_oracle_equivalence(record_criterion):
    start = time.perf_counter()
    mismatches = 0
    count = 0
    for strands, letters in ((2, (1, -1)), (3, (1, -1, 2, -2))):
        for length in range(0, 7):
            for word in product(letters, repeat=length):
                b = BraidWord(strands, word)
                count += 1
                if ado3_reference(b) != compute_ado3(b).value:
                    mismatches += 1
    elapsed = time.perf_counter() - start
    record_criterion(
        10, mismatches == 0 and count == 5588,
        f"independent dense reference agrees on all {count} two- and "
        f"three-strand words of length <= 6, {mismatches} mismatches "
        f"({elapsed:.1f}s)")
