"""Relation checks, the shared family trunk, sweep machinery, reports."""

import io
import json
import random
import re
from multiprocessing import get_all_start_methods

import pytest

from braidinv import invariant, verify
from braidinv.braid import BraidWord, parse_braid
from braidinv.hecke import FAMILY_TAGS, family_words
from braidinv.invariant import (
    ProportionalityError,
    closure_values,
    compute_ado3,
    compute_lg,
    compute_lg_specialized,
)
from braidinv.rep import (
    LocalOperator,
    ado_cubic_coeffs,
    build_ado3_r,
    build_lg_r,
    build_lg_r_inverse,
    build_q_operators,
    operator_one,
    tensor,
)
from braidinv.ring import (
    CycScalar,
    LaurentPoly1,
    LaurentPoly2,
    parse_poly,
)
from braidinv.verify import (
    SweepEntry,
    SweepReport,
    _cubic_residual,
    check_corollary,
    check_cubic_ado,
    check_ishii_relation,
    check_skein_lg,
    check_symmetry,
    check_yang_baxter,
    run_equality_sweep,
)


def _relation_checks():
    return [
        check_cubic_ado(),
        check_skein_lg(),
        check_yang_baxter("ado3"),
        check_yang_baxter("lg"),
        check_yang_baxter("lg-spec"),
        check_ishii_relation(False),
        check_ishii_relation(True),
    ]


class TestRelationChecks:
    def test_all_pass(self):
        for res in _relation_checks():
            assert res.passed, res.line()
            assert bool(res)
            assert res.line().startswith("[PASS] ")
            assert res.seconds >= 0

    def test_cubic_residual_trivial_example(self):
        # diag(1, -1) satisfies x**3 = x**2 + x - 1
        one = LaurentPoly1.one()
        r = LocalOperator(2, {(0, 0): one, (1, 1): -one})
        assert not _cubic_residual(r, (one, one, -one))

    def test_cubic_residual_detects_perturbation(self):
        r = build_ado3_r() + LocalOperator(9, {(3, 3): LaurentPoly1.one()})
        assert _cubic_residual(r, ado_cubic_coeffs())

    def test_ishii_negative_control(self):
        # swapping the roles of Q0 and Q1 on one side breaks the relation
        r, rinv = build_lg_r(), build_lg_r_inverse()
        q0, q1 = build_q_operators(r, rinv)
        ident = LocalOperator.identity(4, operator_one(q0))
        q0l, q1l = tensor(q0, ident), tensor(q1, ident)
        q0r, q1r = tensor(ident, q0), tensor(ident, q1)
        mon = LaurentPoly2.monomial
        ca = mon(2, 0) - mon(2, 2)
        cb = mon(2, 2) - mon(0, 2)
        good = (q0l @ q1r @ q1l).scale(ca) + (q0l @ q0r @ q1l).scale(cb)
        assert not good
        swapped = (q1l @ q0r @ q0l).scale(ca) + (q0l @ q0r @ q1l).scale(cb)
        assert swapped


class TestPrefixCache:
    """A family's fixed part is the shared trunk of its word trie."""

    def test_spot_checks(self):
        rng = random.Random(83)
        for family in ("Type1", "Type2"):
            words = family_words(family)[:48]
            for inv, compute in (("ado3", compute_ado3),
                                 ("lg-spec", compute_lg_specialized)):
                values = closure_values(inv, [cw.full for cw in words])
                for i in rng.sample(range(len(words)), 3):
                    assert values[i] == compute(words[i].full).value

    def test_generic_invariant_supported(self):
        words = [cw.full for cw in family_words("Type1")[:3]]
        assert closure_values("lg", words) == \
            [compute_lg(b).value for b in words]

    def test_memoized(self, monkeypatch):
        # repeated letter sequences among the S4 words share one trie node
        seen = []
        build = invariant._build_trie

        def spy(seqs):
            seen.append(len(seqs))
            return build(seqs)

        monkeypatch.setattr(invariant, "_build_trie", spy)
        words = [cw.full for cw in family_words("S4")]
        values = closure_values("ado3", words)
        assert seen == [len({b.word for b in words})] and seen[0] < len(words)
        by_word = {}
        for b, value in zip(words, values):
            assert by_word.setdefault(b.word, value) == value


def _small_sweep(**kwargs):
    words = family_words("S4")[:24] + family_words("Type1")[:12]
    return words, run_equality_sweep(words, **kwargs)


class TestSweep:
    def test_small_subset(self):
        words, report = _small_sweep(audit_fraction=0.5)
        assert report.all_equal
        assert len(report.entries) == 36
        # entries come back in input order and match direct computation
        for cw, entry in list(zip(words, report.entries))[:3] + \
                list(zip(words, report.entries))[24:27]:
            assert entry.braid == cw.full
            assert entry.family == cw.family
            assert entry.index == cw.index
            assert entry.ado3 == compute_ado3(cw.full).value
            assert entry.lg_specialized == compute_lg_specialized(cw.full).value
            assert str(entry.diff) == "(0)"
        assert report.summary() == {
            "S4": {"words": 24, "equal": 24, "unequal": 0},
            "Type1": {"words": 12, "equal": 12, "unequal": 0},
            "total": {"words": 36, "equal": 36, "unequal": 0},
        }

    def test_audit_schedule(self):
        _, report = _small_sweep(audit_fraction=0.5)
        assert report.audit_every == 2
        assert report.audit_checked == 18
        assert report.audit_failures == 0
        flags = [e.audited for e in report.entries]
        assert flags == [pos % 2 == 0 for pos in range(36)]

    def test_audit_disabled(self):
        words = family_words("S4")[:6]
        report = run_equality_sweep(words, audit_fraction=0)
        assert report.audit_every == 0
        assert report.audit_checked == 0
        assert not any(e.audited for e in report.entries)

    @pytest.mark.parametrize("fraction", [5, -1, float("nan"), 1e-320])
    def test_audit_fraction_refused(self, fraction):
        # no silent "no audit": outside [0, 1], NaN and an overflowing step
        with pytest.raises(ValueError, match=re.escape(repr(fraction))):
            run_equality_sweep(family_words("S4")[:2], audit_fraction=fraction)

    def test_json_round_trip_and_determinism(self):
        _, first = _small_sweep(audit_fraction=0.5)
        _, second = _small_sweep(audit_fraction=0.5)
        docs = []
        for report in (first, second):
            doc = json.loads(report.to_json())
            assert doc["summary"]["total"]["equal"] == 36
            doc.pop("timing")
            docs.append(doc)
        assert docs[0] == docs[1]
        assert len(docs[0]["entries"]) == 36

    def test_write_json_streams_to_json(self):
        _, report = _small_sweep(audit_fraction=0.5)
        fh = io.StringIO()
        report.write_json(fh)
        assert fh.getvalue() == report.to_json()

    def test_audit_catches_corrupted_table(self, monkeypatch):
        # negative control: flip the sign of one lg-spec table term (letter
        # 2, both strands in state 0); the audited knots must fail
        tables_for = invariant._tables_for

        def corrupted(inv, strands, width):
            tables = tables_for(inv, strands, width)
            if inv != "lg-spec":
                return tables
            shift, offset, table = tables[2]
            (delta, s, a, b, ab), *rest = table[0]
            table = list(table)
            table[0] = ((delta, s, -a, -b, -ab), *rest)
            return {**tables, 2: (shift, offset, table)}

        monkeypatch.setattr(invariant, "_tables_for", corrupted)
        knots = [cw for cw in family_words("S4")
                 if cw.full.closure_components() == 1][:4]
        report = run_equality_sweep(knots, audit_fraction=0.5)
        assert report.audit_checked == 2
        assert report.audit_failures > 0
        assert not report.all_equal

    def test_audit_is_timed(self):
        _, report = _small_sweep(audit_fraction=0.5)
        assert report.timing["audit"] >= 0
        _, report = _small_sweep(audit_fraction=0)
        assert "audit" not in report.timing

    def test_timing_per_family_and_invariant(self):
        messages = []
        _, report = _small_sweep(audit_fraction=0.5,
                                 progress=messages.append)
        timing = report.timing
        assert sorted(timing) == [
            "S4", "S4.ado3", "S4.audit", "S4.lg-spec", "Type1", "Type1.ado3",
            "Type1.audit", "Type1.lg-spec", "audit", "total"]
        for family in ("S4", "Type1"):
            passes = timing[f"{family}.ado3"] + timing[f"{family}.lg-spec"]
            assert 0 < passes == timing[family]
            assert timing[f"{family}.audit"] > 0
        assert timing["audit"] == sum(timing[f"{family}.audit"]
                                      for family in ("S4", "Type1"))
        # every progress line ends in the seconds of its pass
        pattern = (r"(S4|Type1): (colored Alexander|specialized Links-Gould) "
                   r"pass done \(\d+\.\ds\)")
        assert len(messages) == 5
        assert all(re.fullmatch(pattern, msg) for msg in messages[:4])
        assert re.fullmatch(r"audit: 18 generic recomputations, 0 failures "
                            r"\(\d+\.\ds\)", messages[4])

    def test_parallel_matches_serial(self):
        # two families, each with its two passes and its share of the audit
        words = family_words("S4")[:24] + family_words("Type1")[:24]
        docs = []
        for jobs in (1, 2):
            report = run_equality_sweep(words, jobs=jobs, audit_fraction=0.1)
            assert [e.audited for e in report.entries] == \
                [pos % 10 == 0 for pos in range(48)]
            doc = report._document()
            doc.pop("timing")
            docs.append(doc)
        assert docs[0] == docs[1]
        assert docs[0]["audit"] == {"every": 10, "checked": 5, "failures": 0}

    @pytest.mark.skipif("fork" not in get_all_start_methods(),
                        reason="workers see the patch only through fork")
    def test_parallel_error_propagates(self, monkeypatch, tmp_path):
        # wrong ado3 weights fail the first task's paranoid check in a
        # worker; the error reaches the caller, and the tasks still queued
        # behind it are dropped
        bad = (LaurentPoly1.t_power(2), LaurentPoly1.t_power(2),
               LaurentPoly1.t_power(2, -CycScalar.omega()))
        weights = invariant._weight_monomials
        kernel = invariant._BUILDERS["ado3"].kernel
        monkeypatch.setattr(invariant, "_weight_monomials", lambda inv: (
            ([kernel.terms(v) for v in bad], 0.0) if inv == "ado3"
            else weights(inv)))
        log = tmp_path / "started"
        run = verify.closure_values

        def logged(inv, braids, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{inv}\n")
            return run(inv, braids, **kwargs)

        monkeypatch.setattr(verify, "closure_values", logged)
        words = [cw for tag in FAMILY_TAGS for cw in family_words(tag)[:24]]
        with pytest.raises(ProportionalityError):
            run_equality_sweep(words, jobs=2, paranoid=True,
                               audit_fraction=0)
        assert 0 < len(log.read_text().split()) < 2 * len(FAMILY_TAGS)

    def test_paranoid_subset(self):
        words = family_words("S4")[:6]
        report = run_equality_sweep(words, paranoid=True, audit_fraction=0)
        assert report.all_equal
        assert report.paranoid
        assert json.loads(report.to_json())["paranoid"]


def _entry(text, poly_text):
    b = parse_braid(text)
    value = parse_poly(poly_text)
    return SweepEntry(braid=b, family="S4", index=0,
                      ado3=value, lg_specialized=value)


class TestCorollaryAndSymmetry:
    def test_pass_on_sweep_values(self):
        _, report = _small_sweep(audit_fraction=0)
        assert check_corollary(report.entries).passed
        assert check_symmetry(report.entries).passed

    def test_corollary_knot_and_link_expectations(self):
        knot = _entry("{2,{1,1,1}}",
                      "(-1*w)*t^-4 + (1)*t^-2 + (-1+2*w) + (-1*w)*t^2 + (1)*t^4")
        link = _entry("{2,{1,1}}", "(-1+1*w)*t^-2 + (-1*w) + (1)*t^2")
        unlink = _entry("{2,{}}", "(0)")
        assert check_corollary([knot, link, unlink]).passed

    def test_corollary_negative_control(self):
        # a knot whose value is t: right at t = 1, wrong at t = w
        res = check_corollary([_entry("{2,{1}}", "(1)*t^1")])
        assert not res.passed
        assert "1 violations" in res.detail

    def test_symmetry_negative_control(self):
        res = check_symmetry([_entry("{2,{1}}", "(1)*t^-2 + (1)*t^2")])
        assert not res.passed
        good = check_symmetry([_entry("{2,{1}}", "(1)")])
        assert good.passed

    def test_report_failure_shows_in_all_equal(self):
        entry = _entry("{2,{1}}", "(1)")
        entry.lg_specialized = parse_poly("(1) + (1)*t^2")
        report = SweepReport(entries=[entry])
        assert not report.all_equal
        assert report.summary()["total"]["unequal"] == 1
        assert str(entry.diff) == "(-1)*t^2"
