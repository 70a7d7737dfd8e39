"""Generating-set enumeration for the braid-closure equality sweeps.

The cubic relation satisfied by both R-matrices makes each invariant a linear
functional on a finite-rank quotient of the braid group algebra.  Checking the
two invariants agree on all closures of 4- and 5-strand braids therefore
reduces to checking finitely many words:

* ``S2_WORDS``, ``S3_WORDS``, ``S4_WORDS``: generating sets of the rank-3
  quotient algebras as letter tuples, |S2| = 3, |S3| = 24,
  |S4| = |U| * |S3| = 27 * 24 = 648;
* ``family_words(tag)`` for each tag of ``FAMILY_TAGS``: "S4", the 648 S4
  words on 4 strands, and ten families of 5-strand check words, each pairing
  a fixed 5-strand part with every S4 element, 6480 words total.  Each word
  is the concatenation of the family's fixed part and one of the 648 S4
  braids, both checked once, so no full word is checked letter by letter.

Orders are fixed and deterministic: ± superscript patterns expand plus before
minus, leftmost factor outermost, so the sweep's word order and report
indices are stable across runs.  For families whose fixed part is defined
trailing (types 1-7), the stored word leads with the fixed part instead; that
is a cyclic rotation, so the closure is unchanged, and it makes the fixed part
the shared trunk of the family's word trie, evolved once for all 648 words.

The same letter sequence can arise from several (u, w) pairs, e.g. [3, 2, 1]
three ways, so the 648 S4 words contain repeated sequences; sweeps report
the full indexed list (repeats share one trie node), and the per-family
counts are the quantity that matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .braid import BraidWord

Letters = tuple[int, ...]

W_PLUS: Letters = (3, -2, 1, -2, 3)
W_MINUS: Letters = (-3, 2, -1, 2, -3)

# fixed 5-strand parts of the ten check-word families
TYPE_FIXED: dict[int, Letters] = {
    1: (4, -3, 4),
    2: (-4, 3, -2, 3, -4),
    3: (4, -3, 2, -3, 4),
    4: (-4,) + W_PLUS + (-4,),
    5: (4,) + W_MINUS + (4,),
    6: (-4,) + W_MINUS + (-4,),
    7: (4,) + W_PLUS + (4,),
    8: (4,) + W_MINUS + (4,) + W_MINUS + (4,),
    9: (4,) + W_PLUS + (-4,) + W_PLUS + (4,),
    10: (-4,) + W_MINUS + (4,) + W_MINUS + (-4,),
}

FAMILY_TAGS = ("S4",) + tuple(f"Type{k}" for k in range(1, 11))


def _expand_pm(word: Letters, positions: tuple[int, ...]) -> list[Letters]:
    """Expand ± choices at the given positions, plus first, leftmost outermost.

    Visiting positions left to right and splitting each accumulated word into
    (as-is, flipped) makes later (righter) positions vary fastest.
    """
    words = [word]
    for pos in positions:
        nxt = []
        for w in words:
            nxt.append(w)
            flipped = list(w)
            flipped[pos] = -flipped[pos]
            nxt.append(tuple(flipped))
        words = nxt
    return words


def _u_words() -> list[Letters]:
    """The 27-element set U with S4 = U * S3, in display order."""
    out: list[Letters] = []
    out.append(())                                # 1
    out.append((-3, 2, -1, 2, -3))                # the two long fixed words
    out.append((3, -2, 1, -2, 3))
    out.extend(_expand_pm((3,), (0,)))            # s3^{pm}
    out.extend(_expand_pm((3, 2), (0, 1)))        # s3^{pm} s2^{pm}
    out.extend(_expand_pm((3, 2, 1), (0, 1, 2)))  # s3^{pm} s2^{pm} s1^{pm}
    out.extend(_expand_pm((3, -2, 1, -2), (0,)))  # s3^{pm} s2^- s1 s2^-
    out.append((3, -2, 3))
    out.extend(_expand_pm((3, -2, 3, 1), (3,)))   # s3 s2^- s3 s1^{pm}
    out.append((3, -2, 3, 1, -2, 1))
    out.extend(_expand_pm((3, -2, 3, 1, 2), (3, 4)))
    return out


U_WORDS: tuple[Letters, ...] = tuple(_u_words())

# S2 = {1, s1, s1^-1} in this order
S2_WORDS: tuple[Letters, ...] = ((), (1,), (-1,))

# S3 = S2 ⊔ S2 s2^{±1} S2 ⊔ S2 s2^-1 s1 s2^-1, blocks in this order
S3_WORDS: tuple[Letters, ...] = (
    S2_WORDS
    + tuple(left + (2 * sign,) + right
            for left in S2_WORDS for sign in (1, -1) for right in S2_WORDS)
    + tuple(left + (-2, 1, -2) for left in S2_WORDS))

# S4 = U * S3, u outermost in display order
S4_WORDS: tuple[Letters, ...] = tuple(u + w for u in U_WORDS for w in S3_WORDS)


@lru_cache(maxsize=None)
def _s4_braids(strands: int) -> tuple[BraidWord, ...]:
    """S4 as braids on a strand count, built and validated once and shared
    by every family on it (braids are frozen)."""
    return tuple(BraidWord(strands, w) for w in S4_WORDS)


@dataclass(frozen=True)
class CheckWord:
    """One sweep word: a family's fixed part paired with an S4 element.

    ``index`` is the position of the suffix in the S4 enumeration, so
    index // 24 selects the U factor and index % 24 the S3 factor.
    """

    family: str
    index: int
    prefix: BraidWord
    suffix: BraidWord
    full: BraidWord


def family_words(tag: str) -> list[CheckWord]:
    """Check words of one family: "S4", the 648 S4 words on 4 strands with
    an empty prefix, or "Type1".."Type10", the type's fixed part followed by
    each S4 word on 5 strands."""
    if tag == "S4":
        strands, fixed = 4, ()
    elif tag in FAMILY_TAGS:
        strands, fixed = 5, TYPE_FIXED[int(tag[4:])]
    else:
        raise ValueError(f"unknown family {tag!r}")
    prefix = BraidWord(strands, fixed)
    return [CheckWord(family=tag, index=idx, prefix=prefix, suffix=suffix,
                      full=prefix * suffix)
            for idx, suffix in enumerate(_s4_braids(strands))]


def write_family_files(directory: str | Path) -> list[Path]:
    """Write one braid-list file per family; returns the paths written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for tag in FAMILY_TAGS:
        words = family_words(tag)
        if tag == "S4":
            name = "s4.txt"
            desc = "the 648 S4 words (4 strands)"
        else:
            name = f"s5_type_{int(tag[4:]):02d}.txt"
            desc = (f"family {tag}: fixed part {words[0].prefix.format()} "
                    f"+ each S4 element")
        path = directory / name
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"# {desc}\n# {len(words)} braids\n")
            for cw in words:
                fh.write(cw.full.format() + "\n")
        paths.append(path)
    return paths
