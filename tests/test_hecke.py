"""Check-word enumeration: counts, order stability, family structure."""

import hashlib
from collections import Counter

import pytest

from braidinv import hecke
from braidinv.braid import BraidWord, read_braid_list
from braidinv.hecke import (
    FAMILY_TAGS,
    S2_WORDS,
    S3_WORDS,
    S4_WORDS,
    TYPE_FIXED,
    U_WORDS,
    CheckWord,
    family_words,
    write_family_files,
)
from braidinv.invariant import compute_ado3


def _s5_check_words() -> list[CheckWord]:
    return [cw for tag in FAMILY_TAGS[1:] for cw in family_words(tag)]


class TestCounts:
    def test_cardinalities(self):
        assert len(S2_WORDS) == 3
        assert len(S3_WORDS) == 24
        assert len(S4_WORDS) == 648
        assert len(U_WORDS) == 27
        assert len(family_words("S4")) == 648
        assert len(_s5_check_words()) == 6480

    def test_u_words_distinct(self):
        assert len(set(U_WORDS)) == 27

    def test_duplicate_letter_sequences_documented(self):
        # U * S3 is a generating multiset, not a set: the same letter
        # sequence can factor several ways
        counts = Counter(S4_WORDS)
        assert len(counts) == 524
        assert max(counts.values()) == 4
        assert counts[(3, 2, 1)] == 3


class TestOrder:
    def test_pinned_positions(self):
        assert S3_WORDS[0] == ()
        assert S3_WORDS[3] == (2,)
        assert S3_WORDS[-1] == (-1, -2, 1, -2)
        assert S4_WORDS[0] == ()
        assert S4_WORDS[24] == (-3, 2, -1, 2, -3)   # second U factor, w = 1

    def test_deterministic(self):
        a = [cw.suffix.word for cw in family_words("S4")]
        b = [cw.suffix.word for cw in family_words("S4")]
        assert a == b == list(S4_WORDS)
        a = [cw.full for cw in _s5_check_words()]
        b = [cw.full for cw in _s5_check_words()]
        assert a == b

    def test_index_decomposition(self):
        for idx in (0, 24, 100, 647):
            cw = family_words("S4")[idx]
            assert cw.index == idx
            assert cw.suffix.word == U_WORDS[idx // 24] + S3_WORDS[idx % 24]


class TestLetterRanges:
    def test_s4_words_fit_four_strands(self):
        for cw in family_words("S4"):
            assert cw.full.strands == 4
            assert all(1 <= abs(k) <= 3 for k in cw.full.word)

    def test_s5_words_fit_five_strands(self):
        for cw in _s5_check_words():
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

    def test_files_pinned(self, tmp_path):
        # the round trip above parses the words back; these digests also
        # pin each file's header lines, word order and text
        digests = {
            "s4.txt": "4053b1483a6704b22057582027023ca1"
                      "b2d9351ad56015cdd87f4ff24325f167",
            "s5_type_01.txt": "49415b1bf63cb21735b1e3726a0ca646"
                              "e4f6597e7f8f85d7d1f4793859ce10f6",
            "s5_type_02.txt": "18eeeae83b9b04d5b96a5e351047997c"
                              "48e216f942bc2877c3d860aa5d50df1f",
            "s5_type_03.txt": "5162a92cfcb4a0924b3406fac47f9ae2"
                              "45c2f89af19e951740c0f7b5e4097176",
            "s5_type_04.txt": "ff9f10c5081f6b145bbabe5ab826c414"
                              "92f255c1acf42005cc514921f9bec841",
            "s5_type_05.txt": "2375fb9e9570276e719748bc87ea543c"
                              "ac5e437a80deedf8e06cc18807166013",
            "s5_type_06.txt": "97a4161fbe3a3e13a87da40126c0ec9d"
                              "170fd7133e954120da054e54145c0ef4",
            "s5_type_07.txt": "f53ea117c2d2993463c079b51ed584da"
                              "45ec9055b6d53efe3729b3a35ddfc628",
            "s5_type_08.txt": "c2bdffac651ea0f80a476be2f6ab83db"
                              "5375f00975e51d5003ac67102ea5b9b7",
            "s5_type_09.txt": "c01bec814ec0f7d5a24ce9c66cfdb88f"
                              "0e3eed7f25d0a5e28757d31169d0833e",
            "s5_type_10.txt": "fd2c16fe4fada7b3a4d5e498536707c2"
                              "06c1757aff429b315783a95cfe5ee918",
        }
        paths = write_family_files(tmp_path)
        assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in paths} == digests


class TestConcatenation:
    def test_full_words_equal_checked_words(self):
        # each full word is a concatenation that skips the letter checks;
        # it must equal and hash like the same word built through them
        count = 0
        for tag in FAMILY_TAGS:
            for cw in family_words(tag):
                checked = BraidWord(cw.full.strands, cw.full.word)
                assert cw.full == checked
                assert hash(cw.full) == hash(checked)
                count += 1
        assert count == 7128

    def test_each_part_checked_once(self, monkeypatch):
        # two shared S4 suffix sets (4 and 5 strands) and one prefix per
        # family; no full word is checked letter by letter
        checks = []
        post_init = BraidWord.__post_init__

        def counting(self):
            checks.append(self)
            post_init(self)

        hecke._s4_braids.cache_clear()
        monkeypatch.setattr(BraidWord, "__post_init__", counting)
        try:
            for tag in FAMILY_TAGS:
                family_words(tag)
        finally:
            hecke._s4_braids.cache_clear()
        assert len(checks) <= 2 * 648 + len(FAMILY_TAGS)
