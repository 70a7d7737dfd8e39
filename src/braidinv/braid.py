"""Braid words, their moves, and the text formats for braids and braid lists.

A braid on n strands is a word in the Artin generators; letter +k crosses
strands k and k+1 positively, -k negatively, 1 <= k <= n-1.  Words read
bottom-up: the first letter is the crossing nearest the bottom of the braid.

Text format: ``{n,{k1,k2,...}}`` with optional whitespace, e.g. the trefoil
as the closure of ``{2,{1,1,1}}``.  Braid-list files hold one braid per line;
blank lines and ``#`` comments are skipped.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator


@dataclass(frozen=True)
class BraidWord:
    """An n-strand braid word; letters in ±{1..n-1}, applied bottom-up."""

    strands: int
    word: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            strands = index(self.strands)
        except TypeError:
            raise TypeError(f"strand count {self.strands!r} is not an "
                            f"integer") from None
        if strands < 1:
            raise ValueError(f"strand count must be >= 1, got {strands}")
        word = []
        for pos, k in enumerate(self.word):
            try:
                k = index(k)
            except TypeError:
                raise TypeError(f"letter {k!r} at position {pos} is not an "
                                f"integer") from None
            if k == 0 or abs(k) >= strands:
                raise ValueError(f"letter {k!r} at position {pos} invalid "
                                 f"for {strands} strands")
            word.append(k)
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "word", tuple(word))

    def __len__(self) -> int:
        return len(self.word)

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        """Concatenation: self first (bottom), then other.  Two valid words
        on one strand count make a valid word, so no letter is checked again."""
        if self.strands != other.strands:
            raise ValueError("cannot concatenate braids on different strand counts")
        product = object.__new__(BraidWord)
        object.__setattr__(product, "strands", self.strands)
        object.__setattr__(product, "word", self.word + other.word)
        return product

    def inverse(self) -> "BraidWord":
        return BraidWord(self.strands, tuple(-k for k in reversed(self.word)))

    def conjugate(self, g: "BraidWord") -> "BraidWord":
        """g * self * g**-1; closures of conjugates are the same link.
        Public API for demo 02 and the Markov-move tests; no caller in src."""
        return g * self * g.inverse()

    def stabilize(self, sign: int) -> "BraidWord":
        """Markov stabilization: add strand n+1 and the letter ±n on top.
        Public API for demo 02 and the Markov-move tests; no caller in src."""
        if sign not in (1, -1):
            raise ValueError("stabilization sign must be +1 or -1")
        return BraidWord(self.strands + 1, self.word + (sign * self.strands,))

    def writhe(self) -> int:
        """Signed crossing count.  Public API for demo 02, the Markov-move
        tests and the dense oracle's framing correction; no caller in src."""
        return sum(1 if k > 0 else -1 for k in self.word)

    def permutation(self) -> tuple[int, ...]:
        """Which bottom endpoint arrives at each top position (0-based)."""
        perm = list(range(self.strands))
        for k in self.word:
            j = abs(k) - 1
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
        return tuple(perm)

    def closure_components(self) -> int:
        """Number of link components of the closure = cycles of the permutation."""
        perm = self.permutation()
        seen = [False] * self.strands
        count = 0
        for start in range(self.strands):
            if seen[start]:
                continue
            count += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
        return count

    def format(self) -> str:
        letters = ",".join(str(k) for k in self.word)
        return f"{{{self.strands},{{{letters}}}}}"

    def __str__(self) -> str:
        return self.format()


_BRAID_RE = re.compile(r"^\{\s*([0-9]+)\s*,\s*\{([0-9,\s+-]*)\}\s*\}$")


def parse_braid(text: str) -> BraidWord:
    """Parse ``{n,{k1,k2,...}}``; raises ValueError with the offending token."""
    m = _BRAID_RE.match(text.strip())
    if not m:
        raise ValueError(f"malformed braid {text!r}; expected {{n,{{k1,k2,...}}}}")
    strands = int(m.group(1))
    body = m.group(2).strip()
    letters: list[int] = []
    if body:
        for pos, tok in enumerate(body.split(",")):
            tok = tok.strip()
            try:
                letters.append(int(tok))
            except ValueError:
                raise ValueError(
                    f"malformed letter {tok!r} at position {pos} in {text!r}"
                ) from None
    try:
        return BraidWord(strands, tuple(letters))
    except ValueError as exc:
        raise ValueError(f"{exc} in {text!r}") from None


def read_braid_list(lines: Iterable[str]) -> Iterator[BraidWord]:
    """Yield braids from braid-list lines (one braid per line, '#' comments)."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            yield parse_braid(line)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None

