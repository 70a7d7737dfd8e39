"""The closure-invariant engine: letter tables, the trie walk, traces."""

import random
from itertools import product

import pytest

from braidinv import invariant
from braidinv.braid import BraidWord, parse_braid
from braidinv.invariant import (
    _BUILDERS,
    ProportionalityError,
    _build_trie,
    _looped,
    _slot_width,
    _tables_for,
    _trace_totals,
    closure_values,
    compute_ado3,
    compute_lg,
    compute_lg_specialized,
)
from braidinv.ring import (
    CycScalar,
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


def _basis(inv, index):
    """The raw basis state of a multi-index, amplitude 1, and its base."""
    key = sum(digit << (2 * s) for s, digit in enumerate(index))
    return {key: _BUILDERS[inv][3].one()}, 0


def _evolve(inv, strands, word, state):
    kernel = _BUILDERS[inv][3]
    tables = _tables_for(inv, strands, WIDTH)
    state, base = state
    for letter in word:
        shift, offset, table = tables[letter]
        state = kernel.apply(state, shift, table)
        base += offset
    return state, base


def _amplitudes(inv, strands, state):
    """Unpacked {multi-index: ring element} view of a raw state."""
    kernel = _BUILDERS[inv][3]
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

    def test_strand_count_mismatch(self):
        with pytest.raises(ValueError):
            closure_values("ado3", [BraidWord(2, (1,)), BraidWord(3, (1,))])


class TestTrie:
    # on four strands: two indices with one letter sequence, a word that is
    # a prefix of two others whose branches reach different strands, and a
    # word whose reach drops twice (3 -> 2 -> 1)
    WORDS = [BraidWord(4, w) for w in
             ((2, 1), (2, 1), (3, -1), (3, -1, 3, 2), (3, -1, 2, 1),
              (3, 2, -1, 2, 1))]

    def test_reach_drops_twice(self):
        node = _build_trie([self.WORDS[-1].word])
        reaches = [node.reach]
        while node.children:
            node = node.children[0][1]
            reaches.append(node.reach)
        assert reaches == [3, 2, 2, 2, 1, 0]

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


class _SerialPool:
    """What closure_values needs of a process pool, run in this process."""

    def starmap(self, fn, args):
        return [fn(*a) for a in args]


class TestBatchedWalk:
    """One walk carries the batched middle digits of a shared trie and
    traces frozen strands out where the reach drops; a lone word walks
    every middle by itself, unfrozen."""

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

    @pytest.mark.parametrize("inv", ["ado3", "lg-spec", "lg"])
    def test_trie_blocks_match_lone_walks(self, inv):
        # the whole group branches at the root; the words that share the
        # prefix walk it as a chain, one start at a time, up to the drop
        # where it ends (with and without a word that ends there too)
        kernel, d = _BUILDERS[inv][3:]
        columns = range(d)
        for n, group in self.GROUPS.items():
            every = list(dict.fromkeys(b.word for b in group))
            width = _slot_width(inv, n, every)
            lone = {seq: _trace_totals(inv, n, [seq], columns, width)
                    for seq in every}
            prefix = group[1].word
            shared = [w for w in every if w[:2] == prefix[:2]]
            for seqs in (every, shared, [w for w in shared if w != prefix]):
                assert _looped(kernel, n, len(seqs)) < n - 1
                bases, totals = _trace_totals(inv, n, seqs, columns, width)
                for seq, base, total in zip(seqs, bases, totals):
                    (lone_base,), (blocks,) = lone[seq]
                    assert base == lone_base
                    assert set(total) == set(blocks)
                    for ac, block in blocks.items():
                        assert kernel.wrap(total[ac], base, width) == \
                            kernel.wrap(block, base, width), (inv, seq, ac)

    @pytest.mark.parametrize("inv", ["ado3", "lg-spec", "lg"])
    def test_duplicates_and_pool_split(self, inv):
        group = self.GROUPS[4]
        serial = closure_values(inv, group, paranoid=True)
        assert serial == [closure_values(inv, [b])[0] for b in group]
        for jobs in (2, 3):
            assert closure_values(inv, group, paranoid=True, jobs=jobs,
                                  pool=_SerialPool()) == serial

    def test_ado3_against_oracle(self):
        words = self.GROUPS[3] + [BraidWord(2, w) for w in
                                  ((), (1,), (1, 1, 1), (-1, 1, -1))]
        for n in (2, 3):
            group = [b for b in words if b.strands == n]
            assert closure_values("ado3", group) == \
                [ado3_reference(b) for b in group]

    def test_lone_word_loops_every_digit(self):
        for inv in ("ado3", "lg-spec", "lg"):
            kernel = _BUILDERS[inv][3]
            assert _looped(kernel, 5, 1) == 4
            assert _looped(kernel, 5, 2) == 4 - kernel.batched


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
        kernel = _BUILDERS["ado3"][3]
        monkeypatch.setattr(invariant, "_weight_monomials",
                            lambda inv: ([kernel.terms(v) for v in bad], 0.0))
        b = parse_braid("{2,{1}}")
        compute_ado3(b)                             # silently wrong
        with pytest.raises(ProportionalityError):
            compute_ado3(b, paranoid=True)

    @pytest.mark.parametrize("inv", ["ado3", "lg-spec", "lg"])
    def test_nonzero_off_diagonal_block_raises(self, inv):
        kernel, d = _BUILDERS[inv][3:]
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
        # the batched digits of strands 3 and 4 are traced out with their
        # weights where the reach drops, not at the slots
        words = [BraidWord(4, (3, -2, 3) + tail)
                 for tail in ((1,), (1, 1, 1), (-1, 1, 1))]
        kernel = _BUILDERS["ado3"][3]
        assert _looped(kernel, 4, len(words)) == 1
        good = closure_values("ado3", words, paranoid=True)
        bad = (LaurentPoly1.t_power(2), LaurentPoly1.t_power(2),
               LaurentPoly1.t_power(2, -W))
        monkeypatch.setattr(invariant, "_weight_monomials",
                            lambda inv: ([kernel.terms(v) for v in bad], 0.0))
        assert closure_values("ado3", words) != good        # silently wrong
        with pytest.raises(ProportionalityError):
            closure_values("ado3", words, paranoid=True)


class TestPacking:
    # 40 letters on 3 strands: coefficients of 42 bits, slots wider than 64
    LONG = BraidWord(3, (1, -2) * 20)

    def test_long_word_cross_check(self):
        # the generic lg path shares only _digits and the width argument with
        # the one-variable kernels: its tables, ring and weights are its own
        assert _slot_width("ado3", 3, [self.LONG.word]) > 64
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
        kernel = _BUILDERS[inv][3]
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
