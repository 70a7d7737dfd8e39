"""The closure-invariant engine: letter tables, the trie walk, traces."""

import math
import random
from itertools import product

import pytest

from braidinv import invariant
from braidinv.braid import BraidWord, parse_braid
from braidinv.invariant import (
    _BUILDERS,
    ProportionalityError,
    _build_trie,
    _letters_for,
    _looped,
    _slot_width,
    _tables_for,
    _trace_totals,
    closure_values,
    compute_ado3,
    compute_lg,
    compute_lg_specialized,
)
from braidinv.rep import (
    LocalOperator,
    _n3,
    build_lg_r,
    invert_r,
    lg_cubic_coeffs,
)
from braidinv.ring import (
    CycScalar,
    GENERIC_MODULUS,
    LaurentPoly1,
    LaurentPoly2,
    parse_poly,
    specialize,
)
from oracle import ado3_reference


W = CycScalar.omega()

UNKNOT = parse_braid("{1,{}}")
HOPF = parse_braid("{2,{1,1}}")
TREFOIL = parse_braid("{2,{1,1,1}}")
FIG8 = parse_braid("{3,{1,-2,1,-2}}")


def _poly2(terms):
    out = LaurentPoly2.zero()
    for (e0, e1), c in terms.items():
        out = out + LaurentPoly2.monomial(e0, e1, c)
    return out


# values frozen from the engine at first light, cross-checked against the
# dense reference implementation and the published evaluations
ADO_FIXTURES = {
    UNKNOT: "(1)",
    HOPF: "(-1+1*w)*t^-2 + (-1*w) + (1)*t^2",
    TREFOIL: "(-1*w)*t^-4 + (1)*t^-2 + (-1+2*w) + (-1*w)*t^2 + (1)*t^4",
    FIG8: "(-1+1*w)*t^-4 + (-3*w)*t^-2 + (5) + (-3+3*w)*t^2 + (-1*w)*t^4",
}

LG_FIXTURES = {
    UNKNOT: _poly2({(0, 0): 1}),
    HOPF: _poly2({(0, 0): -1, (0, 2): 1, (2, 0): 1, (2, 2): -1}),
    TREFOIL: _poly2({(0, 0): 1, (0, 2): -1, (0, 4): 1, (2, 0): -1,
                     (2, 2): 2, (2, 4): -1, (4, 0): 1, (4, 2): -1}),
    FIG8: _poly2({(-2, -2): 2, (-2, 0): -3, (-2, 2): 1, (0, -2): -3,
                  (0, 0): 7, (0, 2): -3, (2, -2): 1, (2, 0): -3,
                  (2, 2): 2}),
}


class TestFixtures:
    def test_ado3(self):
        for braid, text in ADO_FIXTURES.items():
            assert compute_ado3(braid).value == parse_poly(text), braid.format()

    def test_lg_generic(self):
        for braid, poly in LG_FIXTURES.items():
            assert compute_lg(braid).value == poly, braid.format()

    def test_lg_specialized_equals_ado3_here(self):
        for braid, text in ADO_FIXTURES.items():
            assert compute_lg_specialized(braid).value == parse_poly(text)

    def test_specialization_factors_through_generic(self):
        for braid in LG_FIXTURES:
            assert specialize(compute_lg(braid).value) == \
                compute_lg_specialized(braid).value

    def test_unlink_vanishes(self):
        two_unlink = parse_braid("{2,{}}")
        assert not compute_ado3(two_unlink).value
        assert not compute_lg(two_unlink).value
        assert not compute_lg_specialized(two_unlink).value

    def test_split_closure_vanishes(self):
        # closure of {3,{1,1}} is the Hopf link plus a split unknot
        split = parse_braid("{3,{1,1}}")
        assert not compute_ado3(split).value
        assert not compute_lg(split).value
        assert not compute_lg_specialized(split).value

    def test_mirror_trefoil_differs(self):
        mirror = parse_braid("{2,{-1,-1,-1}}")
        assert compute_ado3(mirror).value != compute_ado3(TREFOIL).value

    def test_result_metadata(self):
        out = compute_ado3(TREFOIL, paranoid=True)
        assert out.braid == TREFOIL
        assert out.kind == "ado3"
        assert out.paranoid


# slot width of the packed kernels in the state tests: ample for words of
# three letters
WIDTH = 64


def _key(index):
    """The packed key of a multi-index."""
    return sum(digit << (2 * s) for s, digit in enumerate(index))


def _basis(inv, index):
    """The raw basis state of a multi-index, amplitude 1, and its base."""
    return {_key(index): _BUILDERS[inv].kernel.one()}, 0


def _evolve(inv, strands, word, state, width=WIDTH):
    kernel = _BUILDERS[inv].kernel
    tables = _tables_for(inv, strands, width)
    state, base = state
    for letter in word:
        shift, offset, table = tables[letter]
        state = kernel.apply(state, shift, table)
        base += offset
    return state, base


def _amplitudes(inv, strands, state):
    """Unpacked {multi-index: ring element} view of a raw state."""
    kernel = _BUILDERS[inv].kernel
    state, base = state
    return {tuple((key >> (2 * s)) & 3 for s in range(strands)):
            kernel.wrap(amp, base, WIDTH) for key, amp in state.items()}


class TestStates:
    def test_apply_local_identity_examples(self):
        out = _evolve("ado3", 2, (1,), _basis("ado3", (0, 0)))
        assert _amplitudes("ado3", 2, out) == {(0, 0): LaurentPoly1.t_power(2)}

        out = _evolve("lg", 2, (1,), _basis("lg", (0, 1)))
        assert _amplitudes("lg", 2, out) == \
            {(1, 0): LaurentPoly2.monomial(1, 0)}

    def test_apply_local_deeper_position(self):
        # letter 2 must leave strand 1 untouched
        out = _evolve("ado3", 3, (2,), _basis("ado3", (0, 1, 2)))
        assert set(_amplitudes("ado3", 3, out)) == {(0, 1, 2), (0, 2, 1)}

    def test_braid_action_empty_word(self):
        # the empty word is a leaf at the trie root, next to longer words
        for inv in ("ado3", "lg", "lg-spec"):
            empty, cancel, other = closure_values(
                inv, [BraidWord(3, ()), BraidWord(3, (1, -1)),
                      BraidWord(3, (1,))])
            assert not empty and not cancel
            assert other == closure_values(inv, [BraidWord(3, (1,))])[0]

    def test_braid_action_cancelling_letters(self):
        for k in (1, 2, -1, -2):
            for idx in ((0, 0, 0), (1, 2, 0), (2, 2, 2)):
                s = _basis("ado3", idx)
                assert _amplitudes("ado3", 3, _evolve("ado3", 3, (k, -k), s)) \
                    == _amplitudes("ado3", 3, s)

    def test_braid_relation_ado3(self):
        # sigma1 sigma2 sigma1 = sigma2 sigma1 sigma2 on every basis state
        for idx in product(range(3), repeat=3):
            s = _basis("ado3", idx)
            assert _amplitudes("ado3", 3, _evolve("ado3", 3, (1, 2, 1), s)) == \
                _amplitudes("ado3", 3, _evolve("ado3", 3, (2, 1, 2), s))

    def test_braid_relation_lg(self):
        for idx in product(range(4), repeat=3):
            s = _basis("lg", idx)
            assert _amplitudes("lg", 3, _evolve("lg", 3, (1, 2, 1), s)) == \
                _amplitudes("lg", 3, _evolve("lg", 3, (2, 1, 2), s))

    @pytest.mark.parametrize("inv", ["ado3", "lg-spec", "lg"])
    def test_mixed_strand_counts(self, inv):
        # one call over interleaved strand counts, repeated braids and one
        # letter sequence on three strand counts: the values of the braids
        # alone, in input order
        braids = [BraidWord(n, w) for n, w in (
            (3, (1, -2, 1)), (2, (1,)), (5, (4, -3, 2, -1)), (4, (1,)),
            (2, (1, 1, 1)), (3, (1,)), (5, (2, 2)), (4, (3, -2, 1, 2)),
            (2, (1,)), (3, (1, -2, 1)), (5, (4, -3, 2, -1)))]
        alone = [closure_values(inv, [b])[0] for b in braids]
        assert alone[1] != alone[3]         # the same word, other values
        assert closure_values(inv, braids) == alone


def _reaches(seq):
    """The reach at each node of a word's own trie, root first."""
    return [node.reach for node in _path(_build_trie([seq]), seq)]


def _path(root, seq):
    """The trie nodes along a letter sequence, root first."""
    nodes = [root]
    for letter in seq:
        nodes.append(dict(nodes[-1].children)[letter])
    return nodes


class TestTrie:
    # on four strands: two indices with one letter sequence, a word that is
    # a prefix of two others whose branches reach different strands, and a
    # word whose reach drops twice (3 -> 2 -> 1)
    WORDS = [BraidWord(4, w) for w in
             ((2, 1), (2, 1), (3, -1), (3, -1, 3, 2), (3, -1, 2, 1),
              (3, 2, -1, 2, 1))]

    def test_reach_drops_twice(self):
        assert _reaches(self.WORDS[-1].word) == [3, 2, 2, 2, 1, 0]

    def test_chain_ends(self):
        # a family's fixed part on the top strand, then tails below it: the
        # reach drops after the fixed part, and each node of the chain into
        # it points at it; below it, -1 drops again and leaves are no drop
        root = _build_trie([(3, -2, 3, 1), (3, -2, 3, -1, 1), (3, -2, 3, 2)])
        fixed = _path(root, (3, -2, 3))
        drop = fixed[-1]
        assert drop.reach == 2
        assert [n.drop for n in fixed] == [None, drop, drop, drop]
        below = dict(drop.children)
        assert below[-1].drop is below[-1]
        assert below[1].drop is None and below[2].drop is None
        # the reach stays at a branch node, so no chain runs through it
        root = _build_trie([(3, -2, 3, 1), (3, -2, -3, 1)])
        nodes = _path(root, (3, -2))
        assert [n.drop for n in nodes] == [None, None, None]
        for letter, child in nodes[-1].children:
            assert child.drop is child, letter
        # a lone word whose top letter comes last: no drop before the end
        word = (1, -2, 1, 3)
        assert [n.drop for n in _path(_build_trie([word]), word)] == \
            [None] * 5
        # the reach drops twice, after the first and the fourth letter
        word = self.WORDS[-1].word
        nodes = _path(_build_trie([word]), word)
        assert [n.drop for n in nodes] == \
            [None, nodes[1], nodes[4], nodes[4], nodes[4], None]

    def test_trie_matches_single_words(self):
        for inv in ("ado3", "lg", "lg-spec"):
            values = closure_values(inv, self.WORDS, paranoid=True)
            alone = [closure_values(inv, [b], paranoid=True)[0]
                     for b in self.WORDS]
            assert values == alone, inv
            assert values[0] == values[1]


def _batched_words(rng):
    """Seeded words on 3-5 strands, by strand count.

    Per strand count: the empty word; a prefix that touches the top strand,
    alone, cut short and with tails below it, some of them sigma_1 only, so
    that its tries share nodes below reach drops; random words; one
    duplicate.
    """
    groups = {}
    for n in (3, 4, 5):
        top = n - 1
        prefix = (top, -(top - 1), top)
        words = [(), prefix, prefix + (1,), prefix + (-1, -1),
                 prefix + (1, -1, 1), prefix[:2]]
        for _ in range(4):
            tail = tuple(rng.choice((-1, 1)) * rng.randint(1, top - 1)
                         for _ in range(rng.randint(1, 3)))
            words.append(prefix + tail)
        for _ in range(3):
            words.append(tuple(rng.choice((-1, 1)) * rng.randint(1, top)
                               for _ in range(rng.randint(2, 6))))
        words.append(words[3])
        groups[n] = [BraidWord(n, w) for w in words]
    return groups


# lone words on 4 and 5 strands: the top letter only first, so the reach
# drops after one letter; the top letter only last, so it does not drop
# before the end; a reach that drops twice (by two strands at once on 5)
LONE_WORDS = [BraidWord(4, w) for w in
              ((3, -2, 1, 2), (1, -2, 1, 3), (3, 2, -1, 2, 1))] + \
             [BraidWord(5, w) for w in
              ((4, 3, -2, 1, 2), (2, -3, 1, 2, 4), (4, 3, -4, 2, 1, 2, 1))]


def _reference_blocks(inv, strands, seq, width):
    """{(a, c): O[a, c]} of a word, one basis state (c, m) per column c and
    middle multi-index m, each evolved alone and weighted in the ring by
    the closure weights of m."""
    spec = _BUILDERS[inv]
    kernel, d = spec.kernel, spec.d
    h = spec.h()
    ring = type(h[0])
    blocks = {(a, c): ring.zero() for a in range(d) for c in range(d)}
    for m in product(range(d), repeat=strands - 1):
        weight = ring.one()
        for digit in m:
            weight = weight * h[digit]
        for c in range(d):
            state, base = _evolve(inv, strands, seq, _basis(inv, (c,) + m),
                                  width)
            for a in range(d):
                amp = state.get(_key((a,) + m))
                if amp is not None:
                    blocks[a, c] = blocks[a, c] + \
                        weight * kernel.wrap(amp, base, width)
    return blocks


class TestBatchedWalk:
    """One walk carries the batched middle digits of a trie, of one word or
    of many, and traces frozen strands out where the reach drops; the
    reference evolves every basis state of every middle alone."""

    GROUPS = _batched_words(random.Random(2029))

    def test_word_set(self):
        words = [b for group in self.GROUPS.values() for b in group]
        assert len(words) == 42
        assert len({b.word for b in words}) < len(words)      # a duplicate
        assert sum(not b.word for b in words) == 3            # empty words
        for n, group in self.GROUPS.items():
            assert any(b.word[3:] and max(map(abs, b.word[3:])) == 1
                       for b in group)                        # sigma_1 tails
            assert group[1].word == group[2].word[:3]         # a prefix
        for first, last, twice in (LONE_WORDS[:3], LONE_WORDS[3:]):
            top = first.strands - 1
            reaches = _reaches(first.word)
            assert reaches[0] == top > reaches[1]
            assert _reaches(last.word)[:-1] == [top] * len(last.word)
            inner = _reaches(twice.word)[:-1]           # the leaf is read
            assert inner[0] == top
            assert sum(b < a for a, b in zip(inner, inner[1:])) == 2

    @pytest.mark.parametrize("inv", ["ado3", "lg-spec", "lg"])
    def test_trie_blocks_match_lone_walks(self, inv):
        # the whole group branches at the root; the words that share the
        # prefix walk it as a chain, one start at a time, up to the drop
        # where it ends (with and without a word that ends there too); a
        # lone word is a chain from the root
        kernel, d = _BUILDERS[inv].kernel, _BUILDERS[inv].d
        columns = range(d)
        groups = dict(self.GROUPS)
        for b in LONE_WORDS:
            groups[b.strands] = groups[b.strands] + [b]
        for n, group in groups.items():
            assert _looped(kernel, n) < n - 1
            every = list(dict.fromkeys(b.word for b in group))
            width = _slot_width(inv, n, every)
            reference = {seq: _reference_blocks(inv, n, seq, width)
                         for seq in every}
            prefix = group[1].word
            shared = [w for w in every if w[:2] == prefix[:2]]
            for seqs in ([every, shared, [w for w in shared if w != prefix]]
                         + [[seq] for seq in every]):
                bases, totals = _trace_totals(inv, n, seqs, columns, width)
                for seq, base, total in zip(seqs, bases, totals):
                    assert set(total) == set(reference[seq])
                    for ac, block in reference[seq].items():
                        assert kernel.wrap(total[ac], base, width) == block, \
                            (inv, seqs, seq, ac)
            for b in group:
                (value,) = closure_values(inv, [b], paranoid=True)
                assert value == reference[b.word][0, 0], (inv, b)

    @pytest.mark.parametrize("inv", ["ado3", "lg-spec", "lg"])
    def test_duplicates(self, inv):
        group = self.GROUPS[4]
        serial = closure_values(inv, group, paranoid=True)
        assert serial == [closure_values(inv, [b])[0] for b in group]

    def test_ado3_against_oracle(self):
        words = self.GROUPS[3] + [BraidWord(2, w) for w in
                                  ((), (1,), (1, 1, 1), (-1, 1, -1))]
        assert closure_values("ado3", words) == \
            [ado3_reference(b) for b in words]


class TestPartialTrace:
    def test_paranoid_smoke(self):
        for b in (TREFOIL, HOPF, FIG8):
            assert compute_ado3(b, paranoid=True).value == \
                compute_ado3(b).value
            assert compute_lg_specialized(b, paranoid=True).value == \
                compute_lg_specialized(b).value
            assert compute_lg(b, paranoid=True).value == compute_lg(b).value

    def test_paranoid_rejects_wrong_weights(self, monkeypatch):
        # a wrong h keeps the off-diagonal blocks zero (they vanish by the
        # grading), so only the paranoid diagonal comparison can catch it
        bad = (LaurentPoly1.t_power(2), LaurentPoly1.t_power(2),
               LaurentPoly1.t_power(2, -W))
        kernel = _BUILDERS["ado3"].kernel
        monkeypatch.setattr(invariant, "_weight_monomials",
                            lambda inv: ([kernel.terms(v) for v in bad], 0.0))
        b = parse_braid("{2,{1}}")
        compute_ado3(b)                             # silently wrong
        with pytest.raises(ProportionalityError):
            compute_ado3(b, paranoid=True)

    @pytest.mark.parametrize("inv", ["ado3", "lg-spec", "lg"])
    def test_nonzero_off_diagonal_block_raises(self, inv):
        kernel, d = _BUILDERS[inv].kernel, _BUILDERS[inv].d
        totals = {(a, 0): kernel.zero() for a in range(d)}
        totals[0, 0] = kernel.one()
        assert invariant._finalize(inv, TREFOIL, totals, (0,), 0, WIDTH) == \
            kernel.wrap(kernel.one(), 0, WIDTH)
        totals[d - 1, 0] = kernel.one()
        with pytest.raises(ProportionalityError,
                           match=rf"off-diagonal block \({d - 1}, 0\)"):
            invariant._finalize(inv, TREFOIL, totals, (0,), 0, WIDTH)

    def test_paranoid_rejects_wrong_weights_in_a_trie(self, monkeypatch):
        # four strands, a shared prefix on the top strand and sigma_1 tails:
        # the batched digits of strands 3 and 4 are weighted at the starts
        # and traced out where the reach drops, not weighted at the slots
        words = [BraidWord(4, (3, -2, 3) + tail)
                 for tail in ((1,), (1, 1, 1), (-1, 1, 1))]
        kernel = _BUILDERS["ado3"].kernel
        assert _looped(kernel, 4) == 1
        good = closure_values("ado3", words, paranoid=True)
        bad = (LaurentPoly1.t_power(2), LaurentPoly1.t_power(2),
               LaurentPoly1.t_power(2, -W))
        monkeypatch.setattr(invariant, "_weight_monomials",
                            lambda inv: ([kernel.terms(v) for v in bad], 0.0))
        assert closure_values("ado3", words) != good        # silently wrong
        with pytest.raises(ProportionalityError):
            closure_values("ado3", words, paranoid=True)


class TestPacking:
    # 40 letters on 3 strands: coefficients of 42 bits, 128-bit slots
    LONG = BraidWord(3, (1, -2) * 20)

    def test_letter_growth(self):
        # the largest column of R and of R**-1 sums to 7 in absolute value
        # for lg, and to 6 in |a + b w| for lg-spec
        for inv, norm in (("lg", 7), ("lg-spec", 6)):
            (_, r_growth, _), (_, rinv_growth, _) = _letters_for(inv)
            assert r_growth == rinv_growth == math.log2(norm)

    def test_one_compile_per_invariant(self, monkeypatch):
        # R and R**-1 are compiled once per invariant; only the packing of
        # their tables depends on the strand count
        compiled = []
        compile_tables = invariant.compile_letter_tables

        def spy(r, rinv, d, kernel):
            compiled.append(d)
            return compile_tables(r, rinv, d, kernel)

        monkeypatch.setattr(invariant, "compile_letter_tables", spy)
        invariant._letters_for.cache_clear()
        invariant._tables_for.cache_clear()
        for inv in ("ado3", "lg-spec", "lg"):
            closure_values(inv, [BraidWord(n, tuple(range(1, n)))
                                 for n in (2, 5, 3, 4)], paranoid=True)
        assert compiled == [3, 4, 4]

    def test_sweep_words_fit_64_bit_slots(self):
        # a 20-letter Type8 word and a 17-letter audit word of the
        # five-strand sweep
        type8 = (4, -3, 2, -1, 2, -3, 4, -3, 2, -1, 2, -3, 4, -3, 2, -1, 2,
                 -3, 2, 1)
        audit = (-4, -3, 2, -1, 2, -3, 4, -3, 2, -1, 2, -3, -4, 3, 2, 2, 1)
        assert _slot_width("lg-spec", 5, [type8]) == 64
        assert _slot_width("lg", 5, [audit]) == 64

    def test_long_word_cross_check(self):
        # the generic lg path shares only _digits and the width argument with
        # the one-variable kernels: its tables, ring and weights are its own
        for inv in ("ado3", "lg-spec", "lg"):
            assert _slot_width(inv, 3, [self.LONG.word]) == 128
        ado = compute_ado3(self.LONG).value
        assert max(max(abs(c.a), abs(c.b)).bit_length()
                   for _, c in ado.items()) == 42
        assert compute_lg_specialized(self.LONG).value == ado
        generic = compute_lg(self.LONG).value
        assert specialize(generic) == ado
        assert _slot_width("lg", 3, [self.LONG.word]) >= 2 + max(
            abs(c).bit_length() for _, c in generic.items())

    def test_narrow_width_trips_the_guard(self, monkeypatch):
        monkeypatch.setattr(invariant, "_slot_width", lambda *args: 16)
        for compute in (compute_ado3, compute_lg_specialized, compute_lg):
            with pytest.raises(OverflowError, match="16-bit slot"):
                compute(self.LONG)

    @pytest.mark.parametrize("inv", ["ado3", "lg-spec", "lg"])
    def test_round_trip(self, inv):
        # extreme digits at negative exponents decode; one more is in the
        # guard band
        kernel = _BUILDERS[inv].kernel
        top = 2 ** (WIDTH - 2) - 1
        if inv == "lg":
            poly = LaurentPoly2({(-3, -7): top, (-3, -2): -top, (-1, -7): 1,
                                 (0, 4): -top, (2, -5): top})
            over = LaurentPoly2.monomial(-2, -1, top + 1)
        else:
            poly = LaurentPoly1({-7: (top, -top), -4: (-top, 1), 0: (0, top),
                                 3: (-1, -top)})
            over = LaurentPoly1({-1: (top + 1, 0)})

        def round_trip(value):
            # one letter whose only column holds the value
            flat = kernel.terms(value)
            offset = kernel.low([flat])
            table = [kernel.pack(((0, flat),), offset, WIDTH)] + [()] * 15
            ((_, amp),) = kernel.apply({0: kernel.one()}, 0, table).items()
            return kernel.wrap(amp, offset, WIDTH)

        assert round_trip(poly) == poly
        with pytest.raises(OverflowError):
            round_trip(over)


def _div_p(value):
    """value / p for a multiple of p: long division on the lexicographically
    largest term, p's being -s0**2 s1**2."""
    quotient, rem = LaurentPoly2.zero(), value
    low0, low1 = (min(e[i] for e, _ in value.items()) for i in (0, 1))
    while rem:
        (e0, e1), c = max(rem.items())
        assert e0 - 2 >= low0 and e1 - 2 >= low1, \
            f"{value} is not a multiple of p"
        term = LaurentPoly2.monomial(e0 - 2, e1 - 2, -c)
        quotient, rem = quotient + term, rem - term * GENERIC_MODULUS
    return quotient


@pytest.fixture
def y_gauge_lg(monkeypatch):
    """The generic engine on the Links-Gould R-matrix in the other gauge,
    diag(1, 1, 1, Y): R' cell (r, c) scaled by p**(n3(c) - n3(r))."""
    r = build_lg_r()
    cells = {}
    for row, col, v in r.entries():
        step = _n3(col) - _n3(row)
        cells[row, col] = (v * GENERIC_MODULUS if step == 1
                           else _div_p(v) if step == -1 else v)
    other = LocalOperator(r.size, cells)
    # the column of v_3 (x) v_0 now carries p on three cells
    assert other.get(6, 12) == \
        LaurentPoly2.monomial(1, 1, -1) * GENERIC_MODULUS
    assert other.get(12, 9) == LaurentPoly2.one()
    other_inv = invert_r(other, lg_cubic_coeffs())
    monkeypatch.setitem(invariant._BUILDERS, "lg", invariant._BUILDERS["lg"]
                        ._replace(r=lambda: other, rinv=lambda: other_inv))
    invariant._letters_for.cache_clear()
    invariant._tables_for.cache_clear()
    yield
    invariant._letters_for.cache_clear()
    invariant._tables_for.cache_clear()


def _gauge_words():
    rng = random.Random(1729)
    words = [TREFOIL, FIG8, HOPF]
    for _ in range(10):
        n = rng.choice((3, 4))
        words.append(BraidWord(n, tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1)
            for _ in range(rng.randint(3, 8)))))
    return words


class TestGauge:
    def test_values_do_not_depend_on_the_gauge(self, request):
        # both gauges conjugate the Y form by a diagonal matrix, so every
        # block of the paranoid trace, the invariant among them, agrees
        words = _gauge_words()
        ours = [compute_lg(b, paranoid=True).value for b in words]
        request.getfixturevalue("y_gauge_lg")
        (_, r_growth, _), _ = _letters_for("lg")
        assert r_growth == math.log2(13)
        theirs = [compute_lg(b, paranoid=True).value for b in words]
        assert ours == theirs


class TestMarkovMoves:
    def test_stabilization_pinned(self):
        # trefoil stabilized both ways on 3 strands
        for sign in (1, -1):
            b = TREFOIL.stabilize(sign)
            assert compute_ado3(b).value == compute_ado3(TREFOIL).value
            assert compute_lg(b).value == compute_lg(TREFOIL).value
            assert compute_lg_specialized(b).value == \
                compute_lg_specialized(TREFOIL).value

    def test_conjugation_pinned(self):
        g = BraidWord(3, (2, -1))
        b = FIG8.conjugate(g)
        assert compute_ado3(b).value == compute_ado3(FIG8).value
        assert compute_lg(b).value == compute_lg(FIG8).value
