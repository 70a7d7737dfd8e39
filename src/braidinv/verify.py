"""Verification harness: operator identities, equality sweeps, reports.

The headline computation is ``run_equality_sweep``: for a list of check words
it computes the colored Alexander invariant and the specialized Links-Gould
invariant of every closure and records whether they are equal, with the exact
difference polynomial when they are not.  The 6480-word five-strand sweep is
feasible in exact arithmetic because each family's words go through one trie
walk of the trace engine (``invariant.closure_values``):

* all words of a family share the family's fixed part, so per middle index and
  column its evolution is the trie's trunk and is computed once;
* suffixes that share leading letters share their evolution too, and the
  repeated letter sequences among the 648 S4 elements share one node;
* a braid letter k touches only strands k, k+1, so wherever the largest
  remaining |letter| drops, the strands above it are traced out; one walk
  carries the middle digits of the top strands, and the walks of different
  frozen digits merge there instead of repeating the work below.

The audit recomputes a deterministic sample (every 100th word by default)
with the generic two-variable Links-Gould engine and specializes the result.
The generic engine keeps its own tables, its own two-variable ring and its
own closure weights; with the specialized one it shares the gauged R-matrix
(``rep.build_lg_r``), so the audit cannot see an error in that matrix, and
with both one-variable kernels the Kronecker digit decoding
(``invariant._digits``) and the slot-width argument.  The Burau test and the
dense oracle of the tests stay the checks that share no engine code.  The
sampled words of each strand count go through one trie walk, so they share
prefixes and freezing like a family does, and the audit's time is reported
under ``timing["audit"]`` and at the end of its progress line.

Identity checks (cubic relations, Yang-Baxter, the two-parameter relation of
the denominator-cleared skein operators) are direct sparse-matrix computations
whose residual must be exactly zero.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence, TextIO

from .braid import BraidWord
from .hecke import CheckWord
from .invariant import _BUILDERS, closure_values
from .invariant import compute_lg  # noqa: F401  (perfbench's tracer wraps it)
from .rep import (
    LocalOperator,
    ado_cubic_coeffs,
    build_ado3_r,
    build_ado3_r_inverse,
    build_lg_r,
    build_lg_r_inverse,
    build_lg_r_specialized,
    build_q_operators,
    lg_cubic_coeffs,
    lg_specialized_cubic_coeffs,
    operator_one,
    tensor,
)
from .ring import CycScalar, LaurentPoly1, LaurentPoly2, specialize


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single named verification."""

    name: str
    passed: bool
    detail: str
    seconds: float

    def __bool__(self) -> bool:
        return self.passed

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _timed(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    start = time.perf_counter()
    passed, detail = fn()
    return CheckResult(name, passed, detail, time.perf_counter() - start)


# --- operator identity checks ------------------------------------------------

def _cubic_residual(r: LocalOperator, coeffs: tuple) -> LocalOperator:
    c2, c1, c0 = coeffs
    ident = LocalOperator.identity(r.size, operator_one(r))
    return r @ r @ r - (r @ r).scale(c2) - r.scale(c1) - ident.scale(c0)


def check_cubic_ado() -> CheckResult:
    """R**3 = c2 R**2 + c1 R + c0 Id for the colored Alexander R-matrix."""
    def body():
        res = _cubic_residual(build_ado3_r(), ado_cubic_coeffs())
        return not res, f"residual has {res.nnz()} nonzero entries"
    return _timed("cubic relation (colored Alexander)", body)


def check_skein_lg() -> CheckResult:
    """The Links-Gould cubic, generic and specialized, plus coefficient match.

    The specialized cubic coefficients must coincide with the colored
    Alexander ones under t0 = t**2, t1 = w**2 t**-2; that identity is what
    lets one cubic algebra serve both invariants.
    """
    def body():
        res_g = _cubic_residual(build_lg_r(), lg_cubic_coeffs())
        spec_coeffs = lg_specialized_cubic_coeffs()
        res_s = _cubic_residual(build_lg_r_specialized(), spec_coeffs)
        coeff_match = spec_coeffs == ado_cubic_coeffs()
        ok = not res_g and not res_s and coeff_match
        return ok, (f"generic residual {res_g.nnz()} nnz, specialized residual "
                    f"{res_s.nnz()} nnz, coefficients match: {coeff_match}")
    return _timed("cubic relation (Links-Gould)", body)


def check_yang_baxter(which: str) -> CheckResult:
    """(R x Id)(Id x R)(R x Id) = (Id x R)(R x Id)(Id x R) on three strands."""
    def body():
        build_r, _, _, _, d = _BUILDERS[which]
        r = build_r()
        ident = LocalOperator.identity(d, operator_one(r))
        a = tensor(r, ident)
        b = tensor(ident, r)
        diff = a @ b @ a - b @ a @ b
        return not diff, f"difference has {diff.nnz()} nonzero entries"
    return _timed(f"Yang-Baxter ({which})", body)


def check_ishii_relation(specialized: bool = False) -> CheckResult:
    """The two-parameter relation of the denominator-cleared skein operators.

    t0 (1 - t1) (Q0 x)(x Q1)(Q1 x) + t1 (t0 - 1) (Q0 x)(x Q0)(Q1 x) = 0
    on three strands, where (A x) and (x A) tensor the identity on the right
    and left respectively.  The plus sign is correct for the cleared
    operators: clearing multiplies the sides by (t0-t1)(t1-t0)^2 and
    (t0-t1)^2 (t1-t0), which differ by a sign.  Specialized mode runs the
    relation on the d = 3 matrix, whose scalars read t0, t1 through the
    substitution t0 = t**2, t1 = w**2 t**-2.
    """
    def body():
        if specialized:
            # the d = 3 matrix with t0 = t**2, t1 = w**2 t**-2 in the scalars
            r, rinv = build_ado3_r(), build_ado3_r_inverse()
            one = LaurentPoly1.one()
            t0 = LaurentPoly1.t_power(2)
            t1 = LaurentPoly1.t_power(-2, CycScalar.omega_power(2))
            ca = t0 * (one - t1)
            cb = t1 * (t0 - one)
        else:
            r, rinv = build_lg_r(), build_lg_r_inverse()
            mon = LaurentPoly2.monomial
            ca = mon(2, 0) - mon(2, 2)
            cb = mon(2, 2) - mon(0, 2)
        q0, q1 = build_q_operators(r, rinv)
        ident = LocalOperator.identity(math.isqrt(r.size), operator_one(q0))
        q0l, q1l = tensor(q0, ident), tensor(q1, ident)
        q0r, q1r = tensor(ident, q0), tensor(ident, q1)
        res = (q0l @ q1r @ q1l).scale(ca) + (q0l @ q0r @ q1l).scale(cb)
        return not res, f"residual has {res.nnz()} nonzero entries"
    name = "skein-pair relation " + ("(ado3 specialized)" if specialized else "(generic)")
    return _timed(name, body)


# --- the equality sweep -------------------------------------------------------

@dataclass
class SweepEntry:
    """One compared word in a sweep report."""

    braid: BraidWord
    family: str
    index: int
    ado3: LaurentPoly1
    lg_specialized: LaurentPoly1
    audited: bool = False

    @property
    def equal(self) -> bool:
        return self.ado3 == self.lg_specialized

    @property
    def diff(self) -> LaurentPoly1:
        return self.ado3 - self.lg_specialized


@dataclass
class SweepReport:
    """Outcome of an equality sweep, serializable as deterministic JSON."""

    entries: list[SweepEntry] = field(default_factory=list)
    timing: dict = field(default_factory=dict)
    paranoid: bool = False
    audit_every: int = 0
    audit_checked: int = 0
    audit_failures: int = 0

    @property
    def all_equal(self) -> bool:
        return all(e.equal for e in self.entries) and self.audit_failures == 0

    def summary(self) -> dict:
        out: dict[str, dict[str, int]] = {}
        for e in self.entries:
            fam = out.setdefault(e.family, {"words": 0, "equal": 0, "unequal": 0})
            fam["words"] += 1
            fam["equal" if e.equal else "unequal"] += 1
        out["total"] = {"words": len(self.entries),
                        "equal": sum(f["equal"] for f in out.values()),
                        "unequal": sum(f["unequal"] for f in out.values())}
        return out

    def _document(self, include_entries: bool) -> dict:
        doc = {
            "summary": self.summary(),
            "paranoid": self.paranoid,
            "audit": {"every": self.audit_every, "checked": self.audit_checked,
                      "failures": self.audit_failures},
            "timing": {k: round(v, 3) for k, v in self.timing.items()},
        }
        if include_entries:
            doc["entries"] = [
                {
                    "braid": e.braid.format(),
                    "family": e.family,
                    "index": e.index,
                    "ado3": str(e.ado3),
                    "lg_specialized": str(e.lg_specialized),
                    "equal": e.equal,
                    "diff": str(e.diff),
                    "audited": e.audited,
                }
                for e in self.entries
            ]
        return doc

    def to_json(self, *, include_entries: bool = True) -> str:
        return json.dumps(self._document(include_entries), indent=2,
                          sort_keys=True)

    def write_json(self, fh: TextIO) -> None:
        """Stream the text of ``to_json()`` to an open file."""
        json.dump(self._document(True), fh, indent=2, sort_keys=True)


def run_equality_sweep(words: Sequence[CheckWord], *, jobs: int = 1,
                       paranoid: bool = False, audit_fraction: float = 0.01,
                       progress: Callable[[str], None] | None = None) -> SweepReport:
    """Compare the two invariants on check words, family by family.

    Each family's words go through one trie walk per invariant, for the
    colored Alexander and the specialized Links-Gould invariant in turn,
    timed under ``timing[family + ".ado3"]`` and ``timing[family +
    ".lg-spec"]`` next to the family's ``timing[family]``.  A
    deterministic subset of the input (every round(1/audit_fraction)-th word,
    by position) is audited by the generic two-variable computation followed
    by specialization: one generic trie walk per strand count, timed under
    ``timing["audit"]``.
    """
    report = SweepReport(paranoid=paranoid)
    report.audit_every = round(1 / audit_fraction) if audit_fraction > 0 else 0
    start_all = time.perf_counter()
    by_family: dict[str, list[tuple[int, CheckWord]]] = {}
    for pos, cw in enumerate(words):
        by_family.setdefault(cw.family, []).append((pos, cw))
    pool = None
    if jobs > 1:
        from multiprocessing import get_context
        # fork shares the compiled operator tables copy-on-write and keeps
        # workers usable from interactive __main__-less sessions
        try:
            ctx = get_context("fork")
        except ValueError:
            ctx = get_context("spawn")
        pool = ctx.Pool(jobs)
    try:
        entries: dict[int, SweepEntry] = {}
        for family, fam_words in by_family.items():
            t0 = time.perf_counter()
            braids = [cw.full for _, cw in fam_words]
            ado_vals = closure_values("ado3", braids, paranoid=paranoid,
                                      pool=pool, jobs=jobs)
            t1 = time.perf_counter()
            report.timing[f"{family}.ado3"] = t1 - t0
            if progress:
                progress(f"{family}: colored Alexander pass done "
                         f"({t1 - t0:.1f}s)")
            lgs_vals = closure_values("lg-spec", braids, paranoid=paranoid,
                                      pool=pool, jobs=jobs)
            t2 = time.perf_counter()
            report.timing[f"{family}.lg-spec"] = t2 - t1
            if progress:
                progress(f"{family}: specialized Links-Gould pass done "
                         f"({t2 - t1:.1f}s)")
            for (pos, cw), ado, lgs in zip(fam_words, ado_vals, lgs_vals):
                entries[pos] = SweepEntry(braid=cw.full, family=cw.family,
                                          index=cw.index, ado3=ado,
                                          lg_specialized=lgs)
            report.timing[family] = time.perf_counter() - t0
        report.entries = [entries[pos] for pos in sorted(entries)]
        if report.audit_every:
            t_audit = time.perf_counter()
            by_strands: dict[int, list[SweepEntry]] = {}
            for entry in report.entries[::report.audit_every]:
                entry.audited = True
                by_strands.setdefault(entry.braid.strands, []).append(entry)
            for group in by_strands.values():
                generic = closure_values("lg", [e.braid for e in group],
                                         pool=pool, jobs=jobs)
                report.audit_checked += len(group)
                report.audit_failures += sum(
                    specialize(g) != e.lg_specialized
                    for g, e in zip(generic, group))
            report.timing["audit"] = time.perf_counter() - t_audit
            if progress:
                progress(f"audit: {report.audit_checked} generic recomputations, "
                         f"{report.audit_failures} failures "
                         f"({report.timing['audit']:.1f}s)")
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    report.timing["total"] = time.perf_counter() - start_all
    return report


# --- corollary and symmetry ---------------------------------------------------

def check_corollary(entries: Sequence[SweepEntry]) -> CheckResult:
    """Values at t = 1 and t = w: 1 for knots, 0 for multi-component links."""
    def body():
        bad = 0
        for e in entries:
            knot = e.braid.closure_components() == 1
            expected = CycScalar.one() if knot else CycScalar.zero()
            if (e.ado3.evaluate(CycScalar.one()) != expected
                    or e.ado3.evaluate(CycScalar.omega()) != expected):
                bad += 1
        return bad == 0, f"{len(entries)} values evaluated, {bad} violations"
    return _timed("corollary: values at t = 1 and t = w", body)


def check_symmetry(entries: Sequence[SweepEntry]) -> CheckResult:
    """Invariance of the colored Alexander value under t -> w * t**-1."""
    def body():
        bad = sum(
            1 for e in entries
            if e.ado3.substitute_unit_over_t(CycScalar.omega()) != e.ado3)
        return bad == 0, f"{len(entries)} values checked, {bad} violations"
    return _timed("palindromic symmetry t -> w/t", body)
