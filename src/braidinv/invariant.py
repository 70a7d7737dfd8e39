"""Braid-closure invariants via sparse state evolution and partial trace.

The operator invariant of a braid b on n strands is computed column by
column: for each middle multi-index m over strands 2..n, the basis state
(b_1 = 0, m) is pushed through the braid letter by letter, and the weighted
diagonal amplitude is accumulated.  Writing phi(b) for the representation and
h for the closure weight on V,

    O[a, c] = sum_m  h(m) * <(a, m) | phi(b) | (c, m)>,

the theory guarantees O is a scalar multiple of the identity; the scalar is
the invariant of the closure (strand 1 is the strand cut open).  The a != 0
blocks of column 0 are asserted to vanish, and ``paranoid=True`` evolves all
d**n basis columns to verify the full proportionality O = c * Id.

One engine serves a single braid and a whole sweep family alike: the words
form a prefix trie over their letter sequences, so a family's fixed part and
common suffix letters are evolved once, and identical sequences share a node
and its accumulator.  Each node records its reach, the largest |letter| below
it.  A letter k touches only strands k, k+1, so when the reach drops to r the
digits of strands r+2..n are frozen, and states whose frozen digits have left
the middle index m can never reach a diagonal entry: they are dropped exactly.
A lone braid is walked unfrozen: its cost is the same wherever its reach drops.

States are sparse maps from packed keys to amplitudes: strand s contributes
two bits at position 2(s-1) (both representations have d <= 4).  Per letter
and strand pair the R-matrix column is precompiled to (key delta, coefficient
terms) lists, so the hot loop is pure integer and dict work.  The amplitude
kernels cover the rings involved:

* Laurent polynomials over Z[w] as {exp: (a, b)} dicts (colored Alexander,
  d = 3);
* pairs (even, odd) of such dicts with Y**2 folded in via the specialized
  modulus (Links-Gould at t0 = t**2, t1 = w**2 t**-2, d = 4);
* pairs of {(e0, e1): int} dicts in the two-variable generic ring
  (Links-Gould, d = 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable, NamedTuple, Sequence

from .braid import BraidWord
from .rep import (
    LocalOperator,
    build_ado3_h,
    build_ado3_r,
    build_ado3_r_inverse,
    build_lg_h,
    build_lg_h_specialized,
    build_lg_r,
    build_lg_r_inverse,
    build_lg_r_inverse_specialized,
    build_lg_r_specialized,
)
from .ring import (
    ExtScalar,
    LaurentPoly1,
    LaurentPoly2,
    ext_generic,
    ext_specialized,
)


class ProportionalityError(RuntimeError):
    """The open-strand operator failed to be a multiple of the identity."""


@dataclass(frozen=True)
class InvariantValue:
    """An exact invariant value together with what produced it."""

    braid: BraidWord
    kind: str                    # "ado3" | "lg" | "lg-spec"
    value: object                # LaurentPoly1 or LaurentPoly2
    paranoid: bool = False


# --- coefficient rings --------------------------------------------------------

def _conv_cyc(dst: dict, src: dict, terms: tuple) -> None:
    """dst += src * terms over Z[w][t, t**-1]; terms are (exp, a, b)."""
    for te, ea, eb in terms:
        for pe, (pa, pb) in src.items():
            ne = pe + te
            na = pa * ea - pb * eb
            nb = pa * eb + pb * ea + pb * eb
            cur = dst.get(ne)
            if cur is None:
                dst[ne] = (na, nb)
            else:
                dst[ne] = (cur[0] + na, cur[1] + nb)


def _conv_int2(dst: dict, src: dict, terms: tuple) -> None:
    """dst += src * terms over Z[s0:pm1, s1:pm1]; terms are (e0, e1, c)."""
    for t0, t1, c in terms:
        for (p0, p1), pc in src.items():
            ne = (p0 + t0, p1 + t1)
            dst[ne] = dst.get(ne, 0) + pc * c


def _add_cyc(dst: dict, src: dict) -> None:
    for e, (a, b) in src.items():
        cur = dst.get(e)
        dst[e] = (a, b) if cur is None else (cur[0] + a, cur[1] + b)


def _add_int2(dst: dict, src: dict) -> None:
    for e, c in src.items():
        dst[e] = dst.get(e, 0) + c


def _prune_cyc(amp: dict) -> dict:
    return {e: c for e, c in amp.items() if c[0] or c[1]}


def _prune_int2(amp: dict) -> dict:
    return {e: c for e, c in amp.items() if c}


def _flat_cyc(raw: dict) -> tuple:
    return tuple((k, a, b) for k, (a, b) in sorted(raw.items()))


def _flat_int2(raw: dict) -> tuple:
    return tuple((e0, e1, c) for (e0, e1), c in sorted(raw.items()))


# --- amplitude kernels -------------------------------------------------------

class _PolyKernel(NamedTuple):
    """Amplitudes are raw polynomials, {exponent: coefficient} dicts.

    ``conv`` multiplies by flat terms (what ``flat`` makes of a raw dict) and
    accumulates, ``add`` adds raw dicts, ``unit`` is the raw form of 1 and
    ``poly`` the public polynomial type.  The colored Alexander engine uses
    it directly; the extension kernel uses it for both halves of a pair.
    """

    conv: Callable
    add: Callable
    prune: Callable
    flat: Callable
    unit: dict
    poly: type

    def one(self) -> dict:
        return dict(self.unit)

    def zero(self) -> dict:
        return {}

    def terms(self, value) -> tuple:
        """Ring element -> the flat coefficient terms ``apply`` consumes."""
        return (self.flat(value._terms),)

    def apply(self, state: dict, shift: int, table: list) -> dict:
        conv = self.conv
        out: dict = {}
        for key, amp in state.items():
            for delta, terms in table[(key >> shift) & 15]:
                nk = key + delta
                acc = out.get(nk)
                if acc is None:
                    acc = {}
                    out[nk] = acc
                conv(acc, amp, terms)
        prune = self.prune
        res: dict = {}
        for nk, acc in out.items():
            acc = prune(acc)
            if acc:
                res[nk] = acc
        return res

    def weight(self, mons: list[tuple], m: tuple[int, ...]) -> tuple:
        """Product of the weight monomials of a middle multi-index, flat."""
        weight = self.unit
        for digit in m:
            nxt: dict = {}
            self.conv(nxt, weight, mons[digit])
            weight = nxt
        return self.flat(weight)

    def accumulate(self, dst: dict, src: dict, weight: tuple) -> None:
        """dst += src * weight, with a weight in the coefficient ring."""
        self.conv(dst, src, weight)

    def is_zero(self, total: dict) -> bool:
        return not self.prune(total)

    def wrap(self, total: dict):
        """Raw accumulator -> public ring element."""
        return self.poly(self.prune(total))


class _ExtKernel(NamedTuple):
    """Amplitudes are (even, odd) pairs in R[Y] / (Y**2 - modulus)."""

    coeffs: _PolyKernel          # the ring R
    ext: Callable                # (even, odd) -> public ExtScalar

    def one(self) -> tuple:
        return (self.coeffs.one(), {})

    def zero(self) -> tuple:
        return ({}, {})

    def terms(self, value: ExtScalar) -> tuple:
        """(even, odd, odd * modulus) flat terms of an extension element."""
        flat = self.coeffs.flat
        return (flat(value.even._terms), flat(value.odd._terms),
                flat((value.odd * value.modulus)._terms))

    def apply(self, state: dict, shift: int, table: list) -> dict:
        conv = self.coeffs.conv
        out: dict = {}
        for key, (ae, ao) in state.items():
            for delta, ev, od, odp in table[(key >> shift) & 15]:
                nk = key + delta
                acc = out.get(nk)
                if acc is None:
                    acc = ({}, {})
                    out[nk] = acc
                de, do = acc
                if ev:
                    if ae:
                        conv(de, ae, ev)
                    if ao:
                        conv(do, ao, ev)
                if od:
                    if ae:
                        conv(do, ae, od)
                    if ao:
                        conv(de, ao, odp)   # odd*odd picks up Y**2 = modulus
        prune = self.coeffs.prune
        res: dict = {}
        for nk, (de, do) in out.items():
            de = prune(de)
            do = prune(do)
            if de or do:
                res[nk] = (de, do)
        return res

    def weight(self, mons: list[tuple], m: tuple[int, ...]) -> tuple:
        return self.coeffs.weight(mons, m)

    def accumulate(self, dst: tuple, src: tuple, weight: tuple) -> None:
        """dst += src * weight, with an even (coefficient-ring) weight."""
        conv = self.coeffs.conv
        if src[0]:
            conv(dst[0], src[0], weight)
        if src[1]:
            conv(dst[1], src[1], weight)

    def add(self, dst: tuple, src: tuple) -> None:
        self.coeffs.add(dst[0], src[0])
        self.coeffs.add(dst[1], src[1])

    def is_zero(self, total: tuple) -> bool:
        return self.coeffs.is_zero(total[0]) and self.coeffs.is_zero(total[1])

    def wrap(self, total: tuple) -> ExtScalar:
        """Raw accumulator -> public ring element."""
        return self.ext(self.coeffs.wrap(total[0]), self.coeffs.wrap(total[1]))


_CYC = _PolyKernel(_conv_cyc, _add_cyc, _prune_cyc, _flat_cyc, {0: (1, 0)},
                   LaurentPoly1)
_INT2 = _PolyKernel(_conv_int2, _add_int2, _prune_int2, _flat_int2,
                    {(0, 0): 1}, LaurentPoly2)


# --- operator compilation ---------------------------------------------------

def _table16(op: LocalOperator, d: int, shift: int, kernel) -> list:
    """Per pair-bit-pattern outputs of a local operator at a given position."""
    cols = op.columns()
    table: list[tuple] = [() for _ in range(16)]
    for pb in range(16):
        i = pb & 3
        j = pb >> 2
        if i >= d or j >= d:
            continue
        outs = []
        for row, value in cols.get(d * i + j, ()):
            i2, j2 = divmod(row, d)
            npb = i2 | (j2 << 2)
            outs.append(((npb - pb) << shift,) + kernel.terms(value))
        table[pb] = tuple(outs)
    return table


def compile_letter_tables(r: LocalOperator, rinv: LocalOperator, d: int,
                          strands: int, kernel) -> dict[int, tuple[int, list]]:
    """letter -> (shift, 16-entry table) for every letter valid on n strands."""
    tables: dict[int, tuple[int, list]] = {}
    for k in range(1, strands):
        shift = 2 * (k - 1)
        tables[k] = (shift, _table16(r, d, shift, kernel))
        tables[-k] = (shift, _table16(rinv, d, shift, kernel))
    return tables


# invariant -> (R builder, inverse builder, closure weight builder, kernel, d)
_BUILDERS = {
    "ado3": (build_ado3_r, build_ado3_r_inverse, build_ado3_h, _CYC, 3),
    "lg": (build_lg_r, build_lg_r_inverse, build_lg_h,
           _ExtKernel(_INT2, ext_generic), 4),
    "lg-spec": (build_lg_r_specialized, build_lg_r_inverse_specialized,
                build_lg_h_specialized, _ExtKernel(_CYC, ext_specialized), 4),
}


@lru_cache(maxsize=None)
def _tables_for(invariant: str, strands: int) -> dict[int, tuple[int, list]]:
    build_r, build_rinv, _, kernel, d = _BUILDERS[invariant]
    return compile_letter_tables(build_r(), build_rinv(), d, strands, kernel)


@lru_cache(maxsize=None)
def _weight_monomials(invariant: str) -> list[tuple]:
    """The closure weight of each basis vector as a single compiled term."""
    _, _, build_h, kernel, _ = _BUILDERS[invariant]
    out = []
    for v in build_h().values:
        terms, *odd = kernel.terms(v)
        if any(odd):
            raise ValueError("closure weights must be even")
        if len(terms) != 1:
            raise ValueError("closure weights must be monomials")
        out.append(terms)
    return out


# --- the trie walk -----------------------------------------------------------

class _Node:
    """A prefix-trie node: (letter, child) pairs, the accumulator slot of the
    sequence ending here (or None) and the largest |letter| below."""

    __slots__ = ("children", "slot", "reach")

    def __init__(self) -> None:
        self.children: dict | tuple = {}
        self.slot: int | None = None
        self.reach = 0


def _build_trie(seqs: Sequence[tuple[int, ...]]) -> _Node:
    """Trie over distinct letter sequences; sequence i ends at slot i."""
    root = _Node()
    for slot, seq in enumerate(seqs):
        node = root
        for letter in seq:
            child = node.children.get(letter)
            if child is None:
                child = node.children[letter] = _Node()
            node = child
        node.slot = slot
    order = [root]
    for node in order:              # breadth first; children are appended
        node.children = tuple(node.children.items())
        order.extend(child for _, child in node.children)
    for node in reversed(order):
        node.reach = max((max(abs(letter), child.reach)
                          for letter, child in node.children), default=0)
    return root


def _trace_totals(invariant: str, strands: int,
                  seqs: Sequence[tuple[int, ...]], columns: Sequence[int],
                  middles: Sequence[tuple[int, ...]]) -> list[dict]:
    """Raw accumulators {(a, c): O[a, c]} per sequence, over the given middles.

    For each middle m and column c the basis state (c, m) is walked through
    the trie depth first; a node's last child continues in the same frame, so
    a single-child chain holds only the current state.
    """
    _, _, _, kernel, d = _BUILDERS[invariant]
    tables = _tables_for(invariant, strands)
    mons = _weight_monomials(invariant)
    root = _build_trie(seqs)
    totals = [{(a, c): kernel.zero() for a in range(d) for c in columns}
              for _ in seqs]
    apply, accumulate = kernel.apply, kernel.accumulate

    def walk(node: _Node, state: dict, reach: int) -> None:
        # reads target, c and weight of the middle and column being walked
        while True:
            if node.slot is not None:
                acc = totals[node.slot]
                for a in range(d):
                    amp = state.get(target | a)
                    if amp:
                        accumulate(acc[(a, c)], amp, weight)
            children = node.children
            if not children:
                return
            if node.reach < reach:
                # strands above reach + 1 are frozen from here on
                reach = node.reach
                shift = 2 * reach + 2
                frozen = target >> shift
                state = {k: v for k, v in state.items() if k >> shift == frozen}
            for letter, child in children[:-1]:
                shift, table = tables[letter]
                walk(child, apply(state, shift, table), reach)
            letter, node = children[-1]
            shift, table = tables[letter]
            state = apply(state, shift, table)

    top = strands - 1 if len(seqs) > 1 else 0   # reach 0 can never drop
    for m in middles:
        weight = kernel.weight(mons, m)
        # the key of (0, m): strand s + 2 holds digit m[s]
        target = sum(digit << (2 * s + 2) for s, digit in enumerate(m))
        for c in columns:
            walk(root, {target | c: kernel.one()}, top)
    return totals


def _finalize(invariant: str, braid: BraidWord, totals: dict,
              columns: Sequence[int]):
    """Proportionality and odd-part checks, then the invariant value."""
    kernel = _BUILDERS[invariant][3]
    for (a, c), total in totals.items():
        if a != c and not kernel.is_zero(total):
            raise ProportionalityError(
                f"{invariant} closure operator of {braid} has a nonzero "
                f"off-diagonal block ({a}, {c}): {kernel.wrap(total)}")
    scalar = kernel.wrap(totals[(0, 0)])
    for c in columns:
        if c and kernel.wrap(totals[(c, c)]) != scalar:
            raise ProportionalityError(
                f"{invariant} closure operator of {braid} is diagonal but not "
                f"scalar (block {c} differs)")
    if not isinstance(scalar, ExtScalar):
        return scalar
    if scalar.odd:
        raise ProportionalityError(
            f"{invariant} scalar of {braid} has a nonzero odd part: {scalar.odd}")
    return scalar.even


def closure_values(invariant: str, braids: Sequence[BraidWord], *,
                   paranoid: bool = False, pool=None, jobs: int = 1) -> list:
    """Exact invariant values of the closures of braids on one strand count.

    All braids go through one trie walk.  With a pool and jobs > 1 the middle
    indices are split into ``jobs`` chunks whose raw totals are summed.
    """
    if not braids:
        return []
    strands = braids[0].strands
    if any(b.strands != strands for b in braids):
        raise ValueError("braids of one trace must share a strand count")
    kernel, d = _BUILDERS[invariant][3:]
    unique: dict[tuple[int, ...], BraidWord] = {}
    for b in braids:
        unique.setdefault(b.word, b)
    seqs = list(unique)
    columns = tuple(range(d)) if paranoid else (0,)
    middles = list(product(range(d), repeat=strands - 1))
    if pool is not None and jobs > 1:
        parts = pool.starmap(_trace_totals, [
            (invariant, strands, seqs, columns, middles[i::jobs])
            for i in range(min(jobs, len(middles)))])
        totals = parts[0]
        for part in parts[1:]:
            for dst, src in zip(totals, part):
                for ac, total in src.items():
                    kernel.add(dst[ac], total)
    else:
        totals = _trace_totals(invariant, strands, seqs, columns, middles)
    value_of = {word: _finalize(invariant, b, total, columns)
                for (word, b), total in zip(unique.items(), totals)}
    return [value_of[b.word] for b in braids]


def _compute(invariant: str, b: BraidWord, paranoid: bool) -> InvariantValue:
    (value,) = closure_values(invariant, [b], paranoid=paranoid)
    return InvariantValue(braid=b, kind=invariant, value=value, paranoid=paranoid)


def compute_ado3(b: BraidWord, *, paranoid: bool = False) -> InvariantValue:
    """Third colored Alexander invariant of the closure of b."""
    return _compute("ado3", b, paranoid)


def compute_lg(b: BraidWord, *, paranoid: bool = False) -> InvariantValue:
    """Links-Gould invariant, generic two variables.

    The raw scalar lives in the Y-extension; for closures the odd part
    vanishes and the even part is the invariant.  A nonzero odd part is a
    hard error, like the proportionality check.
    """
    return _compute("lg", b, paranoid)


def compute_lg_specialized(b: BraidWord, *, paranoid: bool = False) -> InvariantValue:
    """Links-Gould at t0 = t**2, t1 = w**2 t**-2, computed in one variable."""
    return _compute("lg-spec", b, paranoid)
