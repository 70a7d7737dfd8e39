"""Links-Gould against the Alexander polynomial: LG(t0, t0**-1) = Delta(t0)**2.

The identity holds for every knot (B.-M. Kohli, J. Knot Theory
Ramifications, 2016).  Delta comes from the reduced Burau matrix, evaluated
with ``fractions.Fraction`` at rational points; nothing here shares code
with the R-matrices or the trace engine.  In this package's variables
t1 -> t0**-1 is s1 -> s0**-1, and LG is read at s0**2 = x.
"""

import math
import random
from fractions import Fraction

import pytest

from braidinv import invariant
from braidinv.braid import BraidWord, parse_braid
from braidinv.invariant import closure_values, compute_lg
from braidinv.rep import LocalOperator, build_lg_r

# A rational root a/b of Delta gives it a factor (b t - a), and Delta(1) = ±1
# then forces |a - b| = 1; none of these points is of that form.
POINTS = (Fraction(3), Fraction(-2), Fraction(5, 2), Fraction(-4, 3),
          Fraction(7, 5))


def _letter_matrix(letter: int, n: int, x: Fraction) -> list:
    """Reduced Burau matrix of one letter on n strands at t = x.

    sigma_i differs from the identity in row i - 1 only, which holds
    (t, -t, 1) in columns i - 2, i - 1, i; its inverse holds (1, -1/t, 1/t).
    Columns outside 0..n - 2 are dropped.
    """
    m = [[Fraction(int(r == c)) for c in range(n - 1)] for r in range(n - 1)]
    row = abs(letter) - 1
    values = (x, -x, 1) if letter > 0 else (1, -1 / x, 1 / x)
    for col, v in zip((row - 1, row, row + 1), values):
        if 0 <= col < n - 1:
            m[row][col] = Fraction(v)
    return m


def _det(m: list) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    m = [row[:] for row in m]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


def alexander_at(braid: BraidWord, x: Fraction) -> Fraction:
    """Delta(x) up to a unit ±x**k: det(I - psi(b)) (1 - x) / (1 - x**n)."""
    n = braid.strands
    psi = [[Fraction(int(r == c)) for c in range(n - 1)] for r in range(n - 1)]
    for letter in braid.word:
        step = _letter_matrix(letter, n, x)
        psi = [[sum(a * b for a, b in zip(row, col)) for col in zip(*step)]
               for row in psi]
    i_minus = [[int(r == c) - psi[r][c] for c in range(n - 1)]
               for r in range(n - 1)]
    return _det(i_minus) * (1 - x) / (1 - x ** n)


def lg_at(value, x: Fraction) -> Fraction:
    """A generic LG value at s1 = s0**-1, s0**2 = x."""
    total = Fraction(0)
    for (e0, e1), c in value.items():
        assert (e0 - e1) % 2 == 0, "LG must be a polynomial in t0, t1"
        total += c * x ** ((e0 - e1) // 2)
    return total


def agrees(braid: BraidWord, value) -> bool:
    """LG / Delta**2 is x**(2k) for one integer k at every point."""
    ratios = [lg_at(value, x) / alexander_at(braid, x) ** 2 for x in POINTS]
    if ratios[0] <= 0:
        return False
    k = round(math.log(ratios[0], POINTS[0] ** 2))
    return all(r == x ** (2 * k) for r, x in zip(ratios, POINTS))


def random_knots(count: int, seed: int = 2016) -> list:
    """Fixed-seed random words of 4-12 letters on 2-4 strands whose
    closures are knots; 500 of them give about 30 distinct LG values."""
    rng = random.Random(seed)
    knots = []
    while len(knots) < count:
        n = rng.choice((2, 3, 3, 4, 4))
        word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                     for _ in range(rng.randint(4, 12)))
        braid = BraidWord(n, word)
        if braid.closure_components() == 1:
            knots.append(braid)
    return knots


NAMED = {
    # braid: the Alexander polynomial's {exponent: coefficient}
    "{2,{1,1,1}}": {-1: 1, 0: -1, 1: 1},                       # trefoil
    "{3,{1,-2,1,-2}}": {-1: -1, 0: 3, 1: -1},                  # figure-eight
    "{2,{1,1,1,1,1}}": {-2: 1, -1: -1, 0: 1, 1: -1, 2: 1},     # 5_1
}


def test_named_knots_exact():
    # with this package's conventions the identity needs no unit factor
    for text, delta in NAMED.items():
        square: dict = {}
        for e1, c1 in delta.items():
            for e2, c2 in delta.items():
                square[e1 + e2] = square.get(e1 + e2, 0) + c1 * c2
        lg: dict = {}
        for (e0, e1), c in compute_lg(parse_braid(text)).value.items():
            lg[(e0 - e1) // 2] = lg.get((e0 - e1) // 2, 0) + c
        assert {e: c for e, c in lg.items() if c} == \
            {e: c for e, c in square.items() if c}, text


def test_random_knots_against_burau():
    braids = [parse_braid(text) for text in NAMED] + random_knots(500)
    bad = [b.format() for b, v in zip(braids, closure_values("lg", braids))
           if not agrees(b, v)]
    assert not bad, bad[:5]


@pytest.fixture
def perturbed_lg_r(monkeypatch):
    """The generic engine with one gauged cell of R changed: (9, 12), the
    bare Y cell, from 1 to -1."""
    r = build_lg_r()
    cells = {(row, col): v for row, col, v in r.entries()}
    cells[9, 12] = -cells[9, 12]
    monkeypatch.setitem(invariant._BUILDERS, "lg", invariant._BUILDERS["lg"]
                        ._replace(r=lambda: LocalOperator(r.size, cells)))
    invariant._letters_for.cache_clear()
    invariant._tables_for.cache_clear()
    yield
    invariant._letters_for.cache_clear()
    invariant._tables_for.cache_clear()


def test_perturbed_cell_fails_the_check(perturbed_lg_r):
    braids = [parse_braid(text) for text in NAMED] + random_knots(100)
    bad = [b for b, v in zip(braids, closure_values("lg", braids))
           if not agrees(b, v)]
    assert len(bad) > len(braids) // 2
