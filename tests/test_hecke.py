"""Check-word enumeration: counts, order stability, family structure."""

from collections import Counter

import pytest

from braidinv.braid import BraidWord, read_braid_list
from braidinv.hecke import (
    FAMILY_TAGS,
    TYPE_FIXED,
    U_WORDS,
    CheckWord,
    enumerate_s2,
    enumerate_s3,
    enumerate_s4,
    enumerate_s4_check_words,
    enumerate_s5_check_words,
    family_words,
    write_family_files,
)
from braidinv.invariant import compute_ado3


class TestCounts:
    def test_cardinalities(self):
        assert len(enumerate_s2()) == 3
        assert len(enumerate_s3()) == 24
        assert len(enumerate_s4()) == 648
        assert len(U_WORDS) == 27
        assert len(enumerate_s4_check_words()) == 648
        assert len(enumerate_s5_check_words()) == 6480

    def test_u_words_distinct(self):
        assert len(set(U_WORDS)) == 27

    def test_duplicate_letter_sequences_documented(self):
        # U * S3 is a generating multiset, not a set: the same letter
        # sequence can factor several ways
        counts = Counter(w.word for w in enumerate_s4())
        assert len(counts) == 524
        assert max(counts.values()) == 4
        assert counts[(3, 2, 1)] == 3


class TestOrder:
    def test_pinned_positions(self):
        s3 = enumerate_s3()
        assert s3[0].word == ()
        assert s3[3].word == (2,)
        assert s3[-1].word == (-1, -2, 1, -2)
        s4 = enumerate_s4()
        assert s4[0].word == ()
        assert s4[24].word == (-3, 2, -1, 2, -3)   # second U factor, w = 1

    def test_deterministic(self):
        assert enumerate_s4() == enumerate_s4()
        a = [cw.full for cw in enumerate_s5_check_words()]
        b = [cw.full for cw in enumerate_s5_check_words()]
        assert a == b

    def test_index_decomposition(self):
        s3 = enumerate_s3()
        for idx in (0, 24, 100, 647):
            cw = enumerate_s4_check_words()[idx]
            assert cw.index == idx
            assert cw.suffix.word == U_WORDS[idx // 24] + s3[idx % 24].word


class TestLetterRanges:
    def test_s4_words_fit_four_strands(self):
        for b in enumerate_s4():
            assert b.strands == 4
            assert all(1 <= abs(k) <= 3 for k in b.word)

    def test_s5_words_fit_five_strands(self):
        for cw in enumerate_s5_check_words():
            assert cw.full.strands == 5
            assert all(1 <= abs(k) <= 4 for k in cw.full.word)
            assert cw.full.word == cw.prefix.word + cw.suffix.word
            assert all(1 <= abs(k) <= 3 for k in cw.suffix.word)


class TestFamilies:
    def test_tags(self):
        assert FAMILY_TAGS == ("S4", "Type1", "Type2", "Type3", "Type4",
                               "Type5", "Type6", "Type7", "Type8", "Type9",
                               "Type10")
        with pytest.raises(ValueError):
            family_words("Type11")
        for bad in ("bogus", "Type01", "Type0", "s4"):
            with pytest.raises(ValueError, match=repr(bad)):
                family_words(bad)

    def test_fixed_parts(self):
        assert TYPE_FIXED[1] == (4, -3, 4)
        assert TYPE_FIXED[4] == (-4, 3, -2, 1, -2, 3, -4)
        assert TYPE_FIXED[8] == (4, -3, 2, -1, 2, -3, 4,
                                 -3, 2, -1, 2, -3, 4)
        for type_no, fixed in TYPE_FIXED.items():
            words = family_words(f"Type{type_no}")
            assert len(words) == 648
            assert all(cw.prefix.word == fixed for cw in words)

    def test_worked_example_word(self):
        # fixed part s4 s3^-1 s4 with the S4 element s2 s1 appended
        cw = family_words("Type1")[4]
        assert cw.full == BraidWord(5, (4, -3, 4, 2, 1))

    def test_rotation_closes_to_the_same_link(self):
        # families 1-7 store the fixed part leading; the defining form has it
        # trailing, and the two are cyclic rotations with equal closures
        stored = BraidWord(5, (4, -3, 4, 2, 1))
        defining = BraidWord(5, (2, 1, 4, -3, 4))
        assert compute_ado3(stored).value == compute_ado3(defining).value


class TestFamilyFiles:
    def test_round_trip(self, tmp_path):
        paths = write_family_files(tmp_path)
        assert [p.name for p in paths] == ["s4.txt"] + [
            f"s5_type_{k:02d}.txt" for k in range(1, 11)]
        for tag, path in zip(FAMILY_TAGS, paths):
            with open(path) as fh:
                braids = list(read_braid_list(fh))
            assert braids == [cw.full for cw in family_words(tag)]
