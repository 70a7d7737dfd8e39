"""Braid words: parsing, Markov moves, closure bookkeeping."""

import random

import pytest

from braidinv.braid import BraidWord, parse_braid, read_braid_list
from support import random_braid


class TestParse:
    def test_basic(self):
        b = parse_braid("{4,{1,-2,3,1,2}}")
        assert b.strands == 4
        assert b.word == (1, -2, 3, 1, 2)

    def test_empty_word(self):
        b = parse_braid("{1,{}}")
        assert b.strands == 1
        assert b.word == ()

    def test_whitespace_tolerated(self):
        assert parse_braid(" { 3 , { 1 , -2 } } ") == BraidWord(3, (1, -2))

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            parse_braid("{2,{3}}")
        with pytest.raises(ValueError):
            parse_braid("{2,{0}}")
        with pytest.raises(ValueError):
            BraidWord(3, (1, 3))

    def test_non_integers_are_refused(self):
        with pytest.raises(TypeError, match=r"strand count 3\.0 "):
            BraidWord(3.0, (1, 2))
        with pytest.raises(TypeError, match=r"letter 2\.0 at position 1 "):
            BraidWord(3, (1, 2.0))
        assert type(BraidWord(True, ()).strands) is int

    def test_malformed(self):
        for bad in ("{2,{1,}}", "2,{1}", "{2,(1)}", "{a,{1}}"):
            with pytest.raises(ValueError):
                parse_braid(bad)

    def test_format_parse_round_trip(self):
        rng = random.Random(101)
        for _ in range(500):
            b = random_braid(rng)
            assert parse_braid(b.format()) == b


class TestClosureInfo:
    def test_hopf_link(self):
        b = parse_braid("{2,{1,1}}")
        assert b.closure_components() == 2
        assert b.writhe() == 2

    def test_trefoil(self):
        b = parse_braid("{2,{1,1,1}}")
        assert b.closure_components() == 1
        assert b.writhe() == 3

    def test_trivial_braid_closure_is_unlink(self):
        b = parse_braid("{5,{}}")
        assert b.closure_components() == 5
        assert b.writhe() == 0

    def test_permutation(self):
        # entry p names the bottom strand arriving at top position p
        assert BraidWord(3, (1, 2)).permutation() == (1, 2, 0)
        assert BraidWord(3, (1, -1)).permutation() == (0, 1, 2)


class TestMoves:
    def test_concatenation(self):
        a = BraidWord(3, (1,))
        b = BraidWord(3, (-2,))
        assert (a * b).word == (1, -2)
        with pytest.raises(ValueError):
            a * BraidWord(4, (1,))

    def test_inverse(self):
        b = BraidWord(4, (1, -2, 3))
        assert b.inverse().word == (-3, 2, -1)
        assert (b * b.inverse()).writhe() == 0

    def test_conjugate_pinned(self):
        b = BraidWord(2, (1,))
        g = BraidWord(2, (1,))
        assert b.conjugate(g) == BraidWord(2, (1, 1, -1))

    def test_conjugation_preserves_closure_data(self):
        rng = random.Random(103)
        for _ in range(200):
            b = random_braid(rng, min_strands=2)
            g = random_braid(rng, max_strands=b.strands,
                             min_strands=b.strands, max_len=6)
            c = b.conjugate(g)
            assert c.strands == b.strands
            assert c.writhe() == b.writhe()
            assert c.closure_components() == b.closure_components()

    def test_stabilize(self):
        b = BraidWord(2, (1, 1, 1))
        up = b.stabilize(1)
        assert up == BraidWord(3, (1, 1, 1, 2))
        down = b.stabilize(-1)
        assert down == BraidWord(3, (1, 1, 1, -2))
        with pytest.raises(ValueError):
            b.stabilize(2)

    def test_stabilization_preserves_components(self):
        # the new strand is merged into an existing component
        rng = random.Random(107)
        for _ in range(200):
            b = random_braid(rng)
            for sign in (1, -1):
                s = b.stabilize(sign)
                assert s.strands == b.strands + 1
                assert s.closure_components() == b.closure_components()
                assert s.writhe() == b.writhe() + sign


class TestBraidList:
    def test_round_trip_with_comments(self):
        braids = [BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2)),
                  BraidWord(1, ())]
        text = "# sample braids\n# two lines\n" + \
            "".join(b.format() + "\n" for b in braids)
        assert list(read_braid_list(text.splitlines())) == braids

    def test_inline_comments_and_blanks(self):
        lines = ["", "# full comment", "{2,{1,1}}  # hopf", "   ", "{2,{1}}"]
        assert list(read_braid_list(lines)) == [
            BraidWord(2, (1, 1)), BraidWord(2, (1,))]

    def test_error_carries_line_number(self):
        lines = ["{2,{1}}", "{2,{5}}"]
        with pytest.raises(ValueError, match="line 2"):
            list(read_braid_list(lines))
