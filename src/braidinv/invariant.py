"""Braid-closure invariants via sparse state evolution and partial trace.

The operator invariant of a braid b on n strands is the partial trace of its
operator over strands 2..n.  Writing phi(b) for the representation, h for
the closure weight on V and m for the middle multi-index of strands 2..n,

    O[a, c] = sum_m  h(m) * <(a, m) | phi(b) | (c, m)>;

the theory guarantees O is a scalar multiple of the identity; the scalar is
the invariant of the closure (strand 1 is the strand cut open).  The a != 0
blocks of column 0 are asserted to vanish, and ``paranoid=True`` evolves all
d**n basis columns to verify the full proportionality O = c * Id.

One engine serves a single braid and a whole sweep family alike: the words
form a prefix trie over their letter sequences, so a family's fixed part and
common suffix letters are evolved once, and identical sequences share a node
and its accumulator.  Each node records its reach, the largest |letter| below
it.  A letter k touches only strands k, k+1, so where the reach drops to r
the strands r+2..n are never touched again, and the walk traces them out
there (a choice of contraction order: I. L. Markov and Y. Shi, "Simulating
quantum computation by contracting tensor networks", SIAM J. Comput. 38,
2008).  With phi_1 the letters above the drop, phi_2 those below and m split
into the live digits m_low and the frozen ones m_high,

    O[a, c] = sum_m_low  h(m_low) * <(a, m_low) | phi_2 | psi(c, m_low)>,
    psi(c, m_low) = sum_m_high  h(m_high) * <m_high | phi_1 | (c, m)>.

So one walk carries the middle digits of the top strands at once: a state
key holds its start's digits next to its current ones, and a start's
amplitude begins as the weight h of its digits.  At a drop a key survives
only if its frozen current digits equal its start's, and adds up with the
keys that differed only there, so the drop is a plain partial trace.  The
digits of the lower strands are looped outside the walk, which bounds a
state's size (``_looped``), and their weight is taken at the slot reads.
Down a single-child chain that leads to a drop the starts go one at a time,
so the batched state is only built once the drop has shrunk it.

States are sparse maps from packed keys to amplitudes: strand s contributes
two bits at position 2(s-1) (both representations have d <= 4).  R and
R**-1 are compiled once per invariant (``compile_letter_tables``), and per
strand count and slot width each letter's columns are packed as (key delta,
coefficient terms) lists on its strand pair (``_tables_for``), so the hot
loop is pure integer and dict work.  Two amplitude kernels cover the rings
involved:

* Laurent polynomials over Z[w], Kronecker-packed: sum_k (a_k + b_k w)
  t**(base + k) is the int pair (A, B) = (sum_k a_k x**k, sum_k b_k x**k) at
  x = 2**W, with balanced (signed) W-bit digits.  It serves the colored
  Alexander invariant (d = 3) and Links-Gould at t0 = t**2, t1 = w**2 t**-2
  (d = 4) alike;
* Laurent polynomials over Z in s0, s1, row-packed: an amplitude maps each
  s0 exponent e0 to the Kronecker pack of that row's s1 polynomial, in the
  same balanced W-bit slots relative to a base s1 exponent.  It serves the
  generic Links-Gould invariant (d = 4).

Neither carries the square root Y = sqrt((t0 - 1)(1 - t1)) of the
literature's Links-Gould R-matrix: ``rep.build_lg_r`` conjugates it by
diag(1, 1, 1, Y**-1) on every strand.  That gauge scales the (a, c) block of
the trace by a power of Y that is 1 when a = c, so the invariant and the
paranoid diagonal blocks are those of the Y form, and the off-diagonal
blocks still vanish.  Its build-time rule (odd cells move one v_3, even
cells none) is also the proof that the Y form's scalar has no odd part.

Packing evaluates at x = 2**W, a ring homomorphism, so products are a shift
plus small multiplies per table term (or one multiply per s0 row) and only
the decoded totals need to fit their slots.  One base exponent (of t, or of
s1) serves a whole state: each letter's table is stored relative to its
least exponent, so every shift is non-negative, and the walk adds that
exponent to the base; s0 exponents are row keys and need none.  The slot
width W is fixed once per walk from a bound on the totals' coefficients,
proved at ``_slot_width``.  Decoding raises if a digit lands in the guard
band.

``closure_values`` is the entry point: braids of any strand counts, one
serial walk per strand count in this process, the values in input order.
The equality sweep calls it once per family and invariant and once per
family's audit sample, each call a task of its own; ``braidinv compute``
calls it once over all its braids, and the ``compute_*`` functions with one
braid.
``_BUILDERS`` is the one table of the invariants and what they are built of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product, zip_longest
from typing import Callable, NamedTuple, Sequence

from .braid import BraidWord
from .rep import (
    ADO_DIM,
    LG_DIM,
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
from .ring import LaurentPoly1, LaurentPoly2


class ProportionalityError(RuntimeError):
    """The open-strand operator failed to be a multiple of the identity."""


@dataclass(frozen=True)
class InvariantValue:
    """An exact invariant value together with what produced it."""

    braid: BraidWord
    kind: str                    # "ado3" | "lg" | "lg-spec"
    value: object                # LaurentPoly1 or LaurentPoly2
    paranoid: bool = False


# --- packed coefficients ------------------------------------------------------

def _l1(flat: tuple) -> float:
    """Sum of the complex absolute values |a + b*w| of the coefficients."""
    return sum(math.sqrt(a * a + a * b + b * b) for _, a, b in flat)


def _shifts(flat: tuple, offset: int, width: int) -> tuple:
    """(exp, a, b) terms -> (bit shift, a, b, a + b) terms, t**(offset + k)
    going to slot k: multiplying a packed pair by one is a shift and small
    multiplies."""
    return tuple((width * (e - offset), a, b, a + b) for e, a, b in flat)


def _digits(x: int, width: int) -> list[int]:
    """Balanced base-2**width digits of x, lowest first.

    A digit is valid when |digit| < 2**(width - 2); one in the guard band
    above that means the width was too narrow for the value, and raises.
    """
    half = 1 << (width - 1)
    guard = half >> 1
    mask = (1 << width) - 1
    out = []
    while x:
        digit = ((x + half) & mask) - half
        if not -guard < digit < guard:
            raise OverflowError(f"packed digit {digit} is outside the "
                                f"{width}-bit slot's valid range")
        out.append(digit)
        x = (x - digit) >> width
    return out


# --- amplitude kernels -------------------------------------------------------
#
# A kernel compiles ring elements (``terms``) and tables (``low``, ``growth``,
# ``pack``), evolves states (``apply``) and sums weighted amplitudes
# (``weight``, ``accumulate``) into totals it decodes (``wrap``).  Callers
# keep what ``accumulate`` returns: packed totals are ints and cannot be
# updated in place.  ``_RowKernel.accumulate`` does update ``dst`` in place,
# so the trace's ``freeze`` may add into a state's own amplitude only
# because each walk builds its start amplitudes fresh and ``apply`` returns
# new ones.  ``batched`` is how many top strands' middle digits one
# walk of a shared trie carries (see ``_looped``), and ``coordinate_bits``
# what a packed coordinate of a coefficient can exceed the coefficient's norm
# by (see ``_slot_width``).

class _CycKernel:
    """Packed Z[w][t**±1] amplitudes (A, B): the colored Alexander and the
    specialized Links-Gould engine.

    Table entries are (key delta, bit shift, a, b, a + b), one per term of
    a coefficient; the shift is relative to the letter's offset.
    """

    __slots__ = ()
    # on the Type8 family 2 batched digits were fastest: 1 took 1.5 times as
    # long, and 3 as long with four times the extra peak memory
    batched = 2
    coordinate_bits = math.log2(2 / math.sqrt(3))

    def one(self) -> tuple:
        return (1, 0)

    def zero(self) -> tuple:
        return (0, 0)

    def terms(self, value: LaurentPoly1) -> tuple:
        """Ring element -> sorted (exp, a, b) triples."""
        return tuple((k, a, b) for k, (a, b) in sorted(value._terms.items()))

    def low(self, polys) -> int:
        """Least exponent among flat polynomials."""
        return min(e for poly in polys for e, _, _ in poly)

    def growth(self, columns) -> float:
        """log2 of the largest column norm: the bits one letter can add."""
        return math.log2(max(sum(map(_l1, col)) for col in columns))

    def pack(self, outputs: tuple, offset: int, width: int) -> tuple:
        return tuple((delta,) + term for delta, flat in outputs
                     for term in _shifts(flat, offset, width))

    def apply(self, state: dict, shift: int, table: list) -> dict:
        out: dict = {}
        get = out.get
        for key, (big_a, big_b) in state.items():
            for delta, s, a, b, ab in table[(key >> shift) & 15]:
                nk = key + delta
                na = (big_a * a - big_b * b) << s     # w**2 = w - 1
                nb = (big_a * b + big_b * ab) << s
                cur = get(nk)
                out[nk] = (na, nb) if cur is None else (cur[0] + na, cur[1] + nb)
        return {k: v for k, v in out.items() if v[0] or v[1]}

    def weight(self, mons: list, m: tuple[int, ...], low: int,
               width: int) -> tuple:
        """The product of the weight monomials of a middle multi-index as
        one shift term, relative to exponent low * len(m)."""
        e, a, b = 0, 1, 0
        for digit in m:
            ((me, ma, mb),) = mons[digit]
            e += me - low
            a, b = a * ma - b * mb, a * mb + b * ma + b * mb
        return (width * e, a, b, a + b)

    def accumulate(self, dst: tuple, src: tuple, weight: tuple) -> tuple:
        s, a, b, ab = weight
        big_a, big_b = src
        return (dst[0] + ((big_a * a - big_b * b) << s),
                dst[1] + ((big_a * b + big_b * ab) << s))

    def wrap(self, total: tuple, base: int, width: int) -> LaurentPoly1:
        """(A, B) with t**(base + k) in slot k -> LaurentPoly1."""
        pairs = zip_longest(*(_digits(x, width) for x in total), fillvalue=0)
        return LaurentPoly1({base + k: ab for k, ab in enumerate(pairs)})


class _RowKernel:
    """Row-packed Z[s0:pm1, s1:pm1] amplitudes {e0: int}: the generic
    Links-Gould engine.

    An amplitude maps an s0 exponent e0 to the Kronecker pack of that row's
    s1 polynomial, sum_k c_k s1**(base + k) as sum_k c_k x**k at x = 2**W
    with balanced W-bit digits: ``_CycKernel``'s (A, B) pair with its rows
    indexed by s0 powers instead of {1, w}.  Table entries are (key delta,
    ((a, P_a), ...)), P_a the packed s0**a row of a coefficient relative to
    the letter's offset, its least s1 exponent, so a product term moves a
    row to key e0 + a and is one multiply by P_a.  Weights are such rows too.
    """

    __slots__ = ()
    # on every 100th word of the five-strand sweep, 2 batched digits saved
    # about a tenth of the time, within the run-to-run spread, for 0.9 MB
    # more peak memory; 3 saved nothing for 6 MB more
    batched = 1
    coordinate_bits = 0.0

    def one(self) -> dict:
        return {0: 1}

    def zero(self) -> dict:
        return {}

    def terms(self, value: LaurentPoly2) -> tuple:
        """Ring element -> sorted (e0, e1, c) triples."""
        return tuple((e0, e1, c) for (e0, e1), c in sorted(value._terms.items()))

    def low(self, polys) -> int:
        """Least s1 exponent among flat polynomials."""
        return min(e1 for poly in polys for _, e1, _ in poly)

    def growth(self, columns) -> float:
        """log2 of the largest column norm, the sum of |c| over a column's
        coefficients: the bits one letter can add."""
        return math.log2(max(sum(abs(c) for poly in col for _, _, c in poly)
                             for col in columns))

    def pack(self, outputs: tuple, offset: int, width: int) -> tuple:
        packed = []
        for delta, flat in outputs:
            rows: dict[int, int] = {}
            for e0, e1, c in flat:
                rows[e0] = rows.get(e0, 0) + (c << (width * (e1 - offset)))
            packed.append((delta, tuple(rows.items())))
        return tuple(packed)

    def apply(self, state: dict, shift: int, table: list) -> dict:
        out: dict = {}
        for key, amp in state.items():
            items = amp.items()
            for delta, rows in table[(key >> shift) & 15]:
                nk = key + delta
                acc = out.get(nk)
                if acc is None:
                    a, p = rows[0]
                    out[nk] = acc = {e0 + a: x * p for e0, x in items}
                    if len(rows) == 1:
                        continue
                    rows = rows[1:]
                self.accumulate(acc, amp, rows)
        res: dict = {}
        for nk, acc in out.items():
            acc = {r: x for r, x in acc.items() if x}
            if acc:
                res[nk] = acc
        return res

    def weight(self, mons: list, m: tuple[int, ...], low: int,
               width: int) -> tuple:
        """The product of the weight monomials of a middle multi-index as
        one row, relative to s1 exponent low * len(m)."""
        e0, e1, c = 0, 0, 1
        for digit in m:
            ((me0, me1, mc),) = mons[digit]
            e0, e1, c = e0 + me0, e1 + me1 - low, c * mc
        return ((e0, c << (width * e1)),)

    def accumulate(self, dst: dict, src: dict, weight: tuple) -> dict:
        get = dst.get
        for a, p in weight:
            for e0, x in src.items():
                r = e0 + a
                dst[r] = get(r, 0) + x * p
        return dst

    def wrap(self, total: dict, base: int, width: int) -> LaurentPoly2:
        return LaurentPoly2({(e0, base + k): c for e0, x in total.items()
                             for k, c in enumerate(_digits(x, width))})


# --- operator compilation ---------------------------------------------------

def _compile_letter(op: LocalOperator, d: int, kernel) -> tuple:
    """(offset, growth, table) of a local operator: its least exponent, what
    one application can add (kernel ``growth``) and its per pair-bit-pattern
    outputs ((pattern delta, flat polynomial), ...), on strands 1 and 2."""
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
            outs.append((npb - pb, kernel.terms(value)))
        table[pb] = tuple(outs)
    columns = [[flat for _, flat in outs] for outs in table if outs]
    offset = kernel.low(flat for col in columns for flat in col)
    return offset, kernel.growth(columns), table


def compile_letter_tables(r: LocalOperator, rinv: LocalOperator, d: int,
                          kernel) -> tuple[tuple, tuple]:
    """The compiled R and R**-1, which every positive and every negative
    letter apply, whatever the strand count: index them by letter < 0."""
    return _compile_letter(r, d, kernel), _compile_letter(rinv, d, kernel)


class _Builders(NamedTuple):
    """An invariant's R-matrix, inverse and closure weight builders, its
    amplitude kernel and the dimension of one strand."""

    r: Callable[[], LocalOperator]
    rinv: Callable[[], LocalOperator]
    h: Callable[[], tuple]
    kernel: _CycKernel | _RowKernel
    d: int


# invariant name -> its builders; the command line takes its choices here
_BUILDERS = {
    "ado3": _Builders(build_ado3_r, build_ado3_r_inverse, build_ado3_h,
                      _CycKernel(), ADO_DIM),
    "lg": _Builders(build_lg_r, build_lg_r_inverse, build_lg_h, _RowKernel(),
                    LG_DIM),
    "lg-spec": _Builders(build_lg_r_specialized, build_lg_r_inverse_specialized,
                         build_lg_h_specialized, _CycKernel(), LG_DIM),
}


@lru_cache(maxsize=None)
def _letters_for(invariant: str) -> tuple[tuple, tuple]:
    spec = _BUILDERS[invariant]
    return compile_letter_tables(spec.r(), spec.rinv(), spec.d, spec.kernel)


@lru_cache(maxsize=None)
def _tables_for(invariant: str, strands: int,
                width: int) -> dict[int, tuple[int, int, list]]:
    """letter -> (shift, offset, table packed at the slot width) for every
    letter valid on n strands, with the key deltas moved to the letter's
    strand pair: letter k acts on the pair at bit 2(k - 1)."""
    kernel = _BUILDERS[invariant].kernel
    tables = {}
    for k in range(1, strands):
        shift = 2 * (k - 1)
        for sign, (offset, _, table) in zip((1, -1), _letters_for(invariant)):
            tables[sign * k] = (shift, offset, [kernel.pack(tuple(
                (delta << shift, flat) for delta, flat in outs), offset, width)
                for outs in table])
    return tables


@lru_cache(maxsize=None)
def _weight_monomials(invariant: str) -> tuple[list[tuple], float]:
    """The closure weight of each basis vector as a single compiled term,
    and their growth (as if they were the columns of one letter)."""
    spec = _BUILDERS[invariant]
    mons = [spec.kernel.terms(v) for v in spec.h()]
    if any(len(terms) != 1 for terms in mons):
        raise ValueError("closure weights must be monomials")
    return mons, spec.kernel.growth([[terms] for terms in mons])


def _slot_width(invariant: str, strands: int,
                seqs: Sequence[tuple[int, ...]]) -> int:
    """The slot width whose digits hold every coefficient of a total of a
    walk over the given letter sequences.

    A letter scales the L1 norm of a state (over keys and exponents, the
    kernel's norm per coefficient: |a + b*w| or |c|) by at most its column
    norm N, and the closure weights count as strands - 1 more letters.  So
    with unit-norm start states a total over d**(strands-1) middles has
    coefficients z with |z| <= d**(strands-1) * prod N, and a packed
    coordinate of z is at most 2**coordinate_bits * |z|: |a|, |b| <=
    2/sqrt(3) * |a + b*w|, and |c| itself.  A sign bit and a guard bit come
    on top, rounded up to a multiple of 32.
    """
    spec = _BUILDERS[invariant]
    letters = _letters_for(invariant)
    _, weights = _weight_monomials(invariant)
    growth = max(sum(letters[letter < 0][1] for letter in seq) for seq in seqs)
    bits = (spec.kernel.coordinate_bits + (strands - 1) * math.log2(spec.d)
            + (growth + (strands - 1) * weights))
    return 32 * (int(bits + 2 + 1e-9) // 32 + 1)


# --- the trie walk -----------------------------------------------------------

class _Node:
    """A prefix-trie node: (letter, child) pairs, the accumulator slot of the
    sequence ending here (or None), the largest |letter| below, and the
    chain end: the inner node, this one or one down a chain of single
    children on which the reach stays, where the reach drops (or None)."""

    __slots__ = ("children", "slot", "reach", "drop")

    def __init__(self) -> None:
        self.children: dict | tuple = {}
        self.slot: int | None = None
        self.reach = 0
        self.drop: _Node | None = None


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
    for node in reversed(order):    # children first
        node.reach = max((max(abs(letter), child.reach)
                          for letter, child in node.children), default=0)
        for _, child in node.children:
            if child.reach < node.reach:
                if child.children:
                    child.drop = child
            elif len(child.children) == 1:
                child.drop = child.children[0][1].drop
    return root


def _looped(kernel, strands: int) -> int:
    """How many middle digits a walk loops outside it: all but the
    kernel's ``batched`` top ones.  Their closure weight is taken once per
    looped value, at the slot reads."""
    return max(0, strands - 1 - kernel.batched)


def _trace_totals(invariant: str, strands: int,
                  seqs: Sequence[tuple[int, ...]], columns: Sequence[int],
                  width: int) -> tuple[list[int], list[dict]]:
    """Per sequence, the exponent base and the raw accumulators
    {(a, c): O[a, c]}, packed at the slot width.

    The looped middle digits (``_looped``) take their values one at a time.
    For each value and column c, one state carries the basis states (c, m)
    of all values of the batched digits, each key holding its start's
    batched digits above the bits of its current digits, and each start
    amplitude the closure weight of its batched digits.  It is walked through the trie depth first; a node's
    last child continues in the same frame, so a single-child chain holds
    only the current state.  Every edge is one ``step``: it applies the
    letter, or, down a single-child chain that leads to a reach drop (a
    family's fixed part, or a lone sequence up to its first drop), walks the
    starts one at a time, so the batched state is only built where the drop
    has shrunk it.  Each letter's table is stored relative to its least
    exponent, so a sequence's base is the sum of its letters' least
    exponents.

    Where the reach drops, the strands above it are traced out: a key is
    kept only if their current digits equal its start's, and both digit
    groups are stripped, so keys that differed only in frozen batched digits
    add up, each already weighted by them.  A sequence's slot reads the keys
    whose live current digits equal their start's, weighted by the looped
    digits.
    """
    kernel, d = _BUILDERS[invariant].kernel, _BUILDERS[invariant].d
    tables = _tables_for(invariant, strands, width)
    mons, _ = _weight_monomials(invariant)
    low = kernel.low(mons)
    root = _build_trie(seqs)
    # the weights are packed relative to exponent low per middle digit
    bases = [low * (strands - 1) + sum(tables[letter][1] for letter in seq)
             for seq in seqs]
    totals = [{(a, c): kernel.zero() for a in range(d) for c in columns}
              for _ in seqs]
    apply, accumulate, zero = kernel.apply, kernel.accumulate, kernel.zero
    looped = _looped(kernel, strands)
    one, unit = kernel.one(), kernel.weight((), (), 0, width)

    # per count of live batched digits, their values and their key bits
    batches = [[(batch, sum(digit << (2 * s) for s, digit
                            in enumerate(batch, looped + 1)))
                for batch in product(range(d), repeat=k)]
               for k in range(strands - looped)]
    # per start, in the order of the top reach's diagonal, its digits' weight
    start_weights = [kernel.weight(mons, batch, low, width)
                     for batch, _ in batches[-1]]

    def diagonal(live: int) -> list[int]:
        """The key, with digit 0 on strand 1, of every start whose current
        digits on the live strands 1..live are its own."""
        # reads target of the looped value
        bits = 2 * live
        fixed = target & ((1 << bits) - 1)
        return [(start << bits) | start | fixed
                for _, start in batches[max(0, live - 1 - looped)]]

    def freeze(state: dict, reach: int, new_reach: int, out: dict) -> dict:
        """Trace the strands above new_reach + 1 out of a state at reach,
        adding it into out."""
        # reads target of the looped value being walked
        bits, keep_bits = 2 * reach + 2, 2 * new_reach + 2
        mask, keep = (1 << bits) - 1, (1 << keep_bits) - 1
        fixed = target & mask
        get = out.get
        for key, amp in state.items():
            cur, start = key & mask, key >> bits
            if (cur ^ start ^ fixed) >> keep_bits:
                continue
            nk = ((start & keep) << keep_bits) | (cur & keep)
            prev = get(nk)
            out[nk] = amp if prev is None else accumulate(prev, amp, unit)
        return out

    def read(slot: int, state: dict, reach: int) -> None:
        """Add the diagonal amplitudes of a state, weighted by the looped
        digits, to a slot."""
        # reads c, diag and weight of the looped value and column being walked
        acc = totals[slot]
        for key in diag[reach]:
            for a in range(d):
                amp = state.get(key | a)
                if amp is not None:
                    acc[a, c] = accumulate(acc[a, c], amp, weight)

    def step(letter: int, node: _Node, state: dict,
             reach: int) -> tuple[_Node, dict, int]:
        """Node, state and reach after the edge from a letter into node.
        Down a chain that leads to a drop (``node.drop``) the starts go one
        at a time and are traced out there, so the whole state is never
        built at the drop; the drop's own slot is left to the walk.  With no
        live batched digit all keys share one start, so there is no chain."""
        if node.drop is None or reach <= looped:
            shift, _, table = tables[letter]
            return node, apply(state, shift, table), reach
        end, bits = node.drop, 2 * reach + 2
        starts: dict[int, dict] = {}
        for key, amp in state.items():
            starts.setdefault(key >> bits, {})[key] = amp
        out: dict = {}
        for group in starts.values():
            edge, below = letter, node
            while True:
                shift, _, table = tables[edge]
                group = apply(group, shift, table)
                if below is end:
                    break
                if below.slot is not None:
                    read(below.slot, group, reach)
                ((edge, below),) = below.children
            freeze(group, reach, end.reach, out)
        return end, out, end.reach

    def walk(node: _Node, state: dict, reach: int) -> None:
        while True:
            if node.slot is not None:
                read(node.slot, state, reach)
            children = node.children
            if not children:
                return
            if node.reach < reach:
                state = freeze(state, reach, node.reach, {})
                reach = node.reach
            for letter, child in children[:-1]:
                walk(*step(letter, child, state, reach))
            node, state, reach = step(*children[-1], state, reach)

    for outer in product(range(d), repeat=looped):
        # the key of (0, outer): strand s + 2 holds digit outer[s]
        target = sum(digit << (2 * s + 2) for s, digit in enumerate(outer))
        weight = kernel.weight(mons, outer, low, width)
        # per reach, the keys of its live diagonal
        diag = [diagonal(reach + 1) for reach in range(strands)]
        for c in columns:
            # every start (c, outer, batch) is a diagonal key of the top
            # reach; its amplitude is built fresh, since freeze adds into it
            walk(root, {key | c: accumulate(zero(), one, w)
                        for key, w in zip(diag[-1], start_weights)},
                 strands - 1)
    # walk refers to itself: drop it, so that its closure is freed now and
    # not at the next garbage collection
    del walk
    return bases, totals


def _finalize(invariant: str, braid: BraidWord, totals: dict,
              columns: Sequence[int], base: int, width: int):
    """Proportionality checks, then the invariant value."""
    kernel = _BUILDERS[invariant].kernel
    for (a, c), total in totals.items():
        if a != c and (block := kernel.wrap(total, base, width)):
            raise ProportionalityError(
                f"{invariant} closure operator of {braid} has a nonzero "
                f"off-diagonal block ({a}, {c}): {block}")
    scalar = kernel.wrap(totals[(0, 0)], base, width)
    for c in columns:
        if c and kernel.wrap(totals[(c, c)], base, width) != scalar:
            raise ProportionalityError(
                f"{invariant} closure operator of {braid} is diagonal but not "
                f"scalar (block {c} differs)")
    return scalar


# A trace loops d**(n - 1 - batched) values of the lower middle digits per
# column, each a walk whose state starts as the d**batched values of the top
# ones: on 8 strands 4**6 = 4096 walks of 4 starts for generic Links-Gould,
# 4**5 = 1024 of 16 for the specialized one.  Braids on more strands are
# refused.
MAX_STRANDS = 8


def closure_values(invariant: str, braids: Sequence[BraidWord], *,
                   paranoid: bool = False) -> list:
    """Exact invariant values of the closures of braids on any strand counts
    up to ``MAX_STRANDS``, in input order.

    Every braid is checked against the bound before the first walk, and the
    error names the first one above it.  The braids of each strand count, in
    order of first appearance, then go through one trie walk in this
    process, with one slot width.
    """
    if invariant not in _BUILDERS:
        raise ValueError(f"unknown invariant {invariant!r}; expected one of "
                         f"{sorted(_BUILDERS)}")
    for b in braids:
        if b.strands > MAX_STRANDS:
            raise ValueError(f"{invariant}: {b} is a braid on {b.strands} "
                             f"strands, above the bound of {MAX_STRANDS} "
                             f"strands")
    d = _BUILDERS[invariant].d
    columns = tuple(range(d)) if paranoid else (0,)
    # strand count -> letter sequence -> its first braid
    groups: dict[int, dict[tuple[int, ...], BraidWord]] = {}
    for b in braids:
        groups.setdefault(b.strands, {}).setdefault(b.word, b)
    value_of = {}
    for strands, unique in groups.items():
        seqs = list(unique)
        width = _slot_width(invariant, strands, seqs)
        bases, totals = _trace_totals(invariant, strands, seqs, columns, width)
        for b, base, total in zip(unique.values(), bases, totals):
            value_of[strands, b.word] = _finalize(invariant, b, total, columns,
                                                  base, width)
    return [value_of[b.strands, b.word] for b in braids]


def _compute(invariant: str, b: BraidWord, paranoid: bool) -> InvariantValue:
    (value,) = closure_values(invariant, [b], paranoid=paranoid)
    return InvariantValue(braid=b, kind=invariant, value=value, paranoid=paranoid)


def compute_ado3(b: BraidWord, *, paranoid: bool = False) -> InvariantValue:
    """Third colored Alexander invariant of the closure of b."""
    return _compute("ado3", b, paranoid)


def compute_lg(b: BraidWord, *, paranoid: bool = False) -> InvariantValue:
    """Links-Gould invariant, generic two variables."""
    return _compute("lg", b, paranoid)


def compute_lg_specialized(b: BraidWord, *, paranoid: bool = False) -> InvariantValue:
    """Links-Gould at t0 = t**2, t1 = w**2 t**-2, computed in one variable."""
    return _compute("lg-spec", b, paranoid)
