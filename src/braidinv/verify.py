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
audit is per family: a family's sampled words go through one generic
``closure_values`` call, so they share prefixes and freezing like its
passes do, timed under ``timing[family + ".audit"]``; their sum is
``timing["audit"]`` and ends the audit's progress line.

Identity checks (cubic relations, Yang-Baxter, the two-parameter relation of
the denominator-cleared skein operators) are direct sparse-matrix computations
whose residual must be exactly zero.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Sequence, TextIO

from .braid import BraidWord
from .hecke import CheckWord
from .invariant import _BUILDERS, closure_values
from .rep import (
    LocalOperator,
    ado_cubic_coeffs,
    build_ado3_r,
    build_lg_r,
    build_lg_r_specialized,
    build_q_operators,
    lg_cubic_coeffs,
    lg_specialized_cubic_coeffs,
    operator_one,
    skein_variable_pair,
    tensor,
)
from .ring import CycScalar, LaurentPoly1, specialize


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
        spec = _BUILDERS[which]
        r = spec.r()
        ident = LocalOperator.identity(spec.d, operator_one(r))
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
        spec = _BUILDERS["ado3" if specialized else "lg"]
        r = spec.r()
        one = operator_one(r)
        t0, t1 = skein_variable_pair(one)
        ca = t0 * (one - t1)
        cb = t1 * (t0 - one)
        q0, q1 = build_q_operators(r, spec.rinv())
        ident = LocalOperator.identity(spec.d, one)
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

    def _document(self) -> dict:
        return {
            "summary": self.summary(),
            "paranoid": self.paranoid,
            "audit": {"every": self.audit_every, "checked": self.audit_checked,
                      "failures": self.audit_failures},
            "timing": {k: round(v, 3) for k, v in self.timing.items()},
            "entries": [
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
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self._document(), indent=2, sort_keys=True)

    def write_json(self, fh: TextIO) -> None:
        """Stream the text of ``to_json()`` to an open file."""
        json.dump(self._document(), fh, indent=2, sort_keys=True)


def _timed_values(task: tuple) -> tuple[list, float]:
    """Values and seconds of one (invariant, braids, paranoid) task."""
    invariant, braids, paranoid = task
    start = time.perf_counter()
    values = closure_values(invariant, braids, paranoid=paranoid)
    return values, time.perf_counter() - start


def audit_step(fraction: float) -> int:
    """Every how many words the audit samples at a fraction in [0, 1] (0 for
    none); ValueError for another fraction, NaN, or a step that overflows."""
    if not 0 <= fraction <= 1 or (fraction and 1 / fraction == float("inf")):
        raise ValueError(f"the audit fraction must be in [0, 1] with a finite "
                         f"step 1/fraction, got {fraction!r}")
    return round(1 / fraction) if fraction else 0


def run_equality_sweep(words: Sequence[CheckWord], *, jobs: int = 1,
                       paranoid: bool = False, audit_fraction: float = 0.01,
                       progress: Callable[[str], None] | None = None) -> SweepReport:
    """Compare the two invariants on check words, family by family.

    Each family's words go through one trie walk per invariant, timed under
    ``timing[family + ".ado3"]`` and ``timing[family + ".lg-spec"]``, whose
    sum is ``timing[family]``.  A deterministic subset of the input (every
    round(1/audit_fraction)-th word, by position) is audited by the generic
    two-variable computation followed by specialization, one call per
    family timed under ``timing[family + ".audit"]``; ``timing["audit"]``
    is their sum.  Each ``closure_values`` call is a task, run here or with
    ``jobs > 1`` on that many worker processes (at most one per task), and
    this process pairs the results in family order.
    """
    every = audit_step(audit_fraction)
    report = SweepReport(paranoid=paranoid, audit_every=every)
    start_all = time.perf_counter()
    by_family: dict[str, list[tuple[int, CheckWord]]] = {}
    for pos, cw in enumerate(words):
        by_family.setdefault(cw.family, []).append((pos, cw))
    tasks = []
    for fam_words in by_family.values():
        braids = [cw.full for _, cw in fam_words]
        tasks += [("ado3", braids, paranoid), ("lg-spec", braids, paranoid)]
        if every:
            tasks.append(("lg", [cw.full for pos, cw in fam_words
                                 if pos % every == 0], False))
    workers = min(jobs, len(tasks))
    pool = nullcontext()
    if workers > 1:
        from multiprocessing import get_all_start_methods, get_context
        # fork shares the compiled operator tables copy-on-write and keeps
        # workers usable from interactive __main__-less sessions; leaving
        # the pool terminates it, so an error drops the tasks still queued
        pool = get_context("fork" if "fork" in get_all_start_methods()
                           else "spawn").Pool(workers)
    with pool:
        results = (map if workers <= 1 else pool.imap)(_timed_values, tasks)
        entries: dict[int, SweepEntry] = {}
        for family, fam_words in by_family.items():
            values = []
            for invariant, name in (("ado3", "colored Alexander"),
                                    ("lg-spec", "specialized Links-Gould")):
                walked, seconds = next(results)
                values.append(walked)
                report.timing[f"{family}.{invariant}"] = seconds
                report.timing[family] = report.timing.get(family, 0) + seconds
                if progress:
                    progress(f"{family}: {name} pass done ({seconds:.1f}s)")
            for (pos, cw), ado, lgs in zip(fam_words, *values):
                entries[pos] = SweepEntry(braid=cw.full, family=cw.family,
                                          index=cw.index, ado3=ado,
                                          lg_specialized=lgs)
            if every:
                generic, report.timing[f"{family}.audit"] = next(results)
                audited = [entries[pos] for pos, _ in fam_words
                           if pos % every == 0]
                report.audit_checked += len(audited)
                for g, e in zip(generic, audited):
                    e.audited = True
                    report.audit_failures += specialize(g) != e.lg_specialized
    report.entries = [entries[pos] for pos in sorted(entries)]
    if every:
        report.timing["audit"] = sum(report.timing[f"{family}.audit"]
                                     for family in by_family)
        if progress:
            progress(f"audit: {report.audit_checked} generic recomputations, "
                     f"{report.audit_failures} failures "
                     f"({report.timing['audit']:.1f}s)")
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
