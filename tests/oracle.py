"""Slow reference implementation of the colored Alexander invariant.

This module exists to cross-check the fast engine and deliberately shares as
little as possible with it:

* it starts from the *unmodified* R-matrix normalization, whose entries carry
  t**-(i+j) together with one power of the formal framing unit u = q**(l*l/2)
  per crossing (l the color); the fast engine bakes the framing into the
  matrix as t**(2-i-j) instead.  The unit is tracked as an integer grade on
  whole matrices, every entry of a braid evolution being homogeneous of grade
  equal to the signed crossing count.  The final framing correction
  u**-writhe * t**(2*writhe) must cancel the grade to exactly zero, which is
  asserted; that cancellation is what makes all exponents integers.
* the inverse R-matrix is computed by adjugate/determinant on the blocks of
  the grading i+j (the R-matrix preserves it), not from the cubic minimal
  polynomial the fast engine uses.
* states are dense coefficient lists over the full d**n tensor basis, not
  sparse maps.

Only the exact ring classes are shared; they are unit-tested on their own.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from braidinv.braid import BraidWord
from braidinv.ring import CycScalar, LaurentPoly1

_DIM = 3


def _bracket(a: int) -> CycScalar:
    return CycScalar.omega_power(a) - CycScalar.omega_power(-a)


def _falling(a: int, n: int) -> CycScalar:
    out = CycScalar.one()
    for k in range(n):
        out = out * _bracket(a - k)
    return out


def _colored_falling(shift: int, n: int) -> LaurentPoly1:
    out = LaurentPoly1.one()
    for k in range(n):
        c = shift - k
        out = out * LaurentPoly1({1: CycScalar.omega_power(c),
                                  -1: -CycScalar.omega_power(-c)})
    return out


@lru_cache(maxsize=None)
def _unmodified_r() -> dict[tuple[int, int], LaurentPoly1]:
    """Entries of the unnormalized R; every entry implicitly carries u**1."""
    d = _DIM
    entries: dict[tuple[int, int], LaurentPoly1] = {}
    for i in range(d):
        for j in range(d):
            for n in range(0, min(j, d - 1 - i) + 1):
                ratio = _falling(i + n, n).exact_div(_falling(n, n))
                wexp = 2 * (i + n) * (j - n) + n * (n - 1) // 2
                val = (LaurentPoly1.t_power(-i - j, CycScalar.omega_power(wexp))
                       * ratio * _colored_falling(-j + n, n))
                key = (d * (j - n) + (i + n), d * i + j)
                entries[key] = entries.get(key, LaurentPoly1.zero()) + val
    return {k: v for k, v in entries.items() if v}


def _block_inverse(rows: list[list[LaurentPoly1]]) -> list[list[LaurentPoly1]]:
    """Adjugate inverse of a 1x1..3x3 matrix whose determinant is a unit."""
    n = len(rows)
    if n == 1:
        det = rows[0][0]
        adj = [[LaurentPoly1.one()]]
    elif n == 2:
        (a, b), (c, d) = rows
        det = a * d - b * c
        adj = [[d, -b], [-c, a]]
    elif n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        adj = [
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ]
    else:
        raise ValueError(f"unexpected block size {n}")
    det_inv = det.unit_monomial_inverse()
    return [[adj[r][c] * det_inv for c in range(n)] for r in range(n)]


@lru_cache(maxsize=None)
def _unmodified_r_inverse() -> dict[tuple[int, int], LaurentPoly1]:
    """Blockwise inverse; every entry implicitly carries u**-1.

    The grading i+j of the in/out basis pairs is preserved by R, so R is
    block diagonal over it with blocks of sizes 1, 2, 3, 2, 1.
    """
    d = _DIM
    r = _unmodified_r()
    inv: dict[tuple[int, int], LaurentPoly1] = {}
    for grade in range(2 * d - 1):
        idx = [d * i + j for i in range(d) for j in range(d) if i + j == grade]
        block = [[r.get((ri, ci), LaurentPoly1.zero()) for ci in idx]
                 for ri in idx]
        binv = _block_inverse(block)
        for rpos, ri in enumerate(idx):
            for cpos, ci in enumerate(idx):
                v = binv[rpos][cpos]
                if v:
                    inv[(ri, ci)] = v
    # direct verification against R, block by block
    for (ri, ci) in list(r) + list(inv):
        acc = LaurentPoly1.zero()
        for k in range(d * d):
            a = r.get((ri, k))
            b = inv.get((k, ci))
            if a and b:
                acc = acc + a * b
        expected = LaurentPoly1.one() if ri == ci else LaurentPoly1.zero()
        if acc != expected:
            raise AssertionError("blockwise inverse failed verification")
    return inv


def _weight(idx: int) -> LaurentPoly1:
    """Closure weight t**2 w**(2i) of basis vector i."""
    return LaurentPoly1.t_power(2, CycScalar.omega_power(2 * idx))


def ado3_reference(b: BraidWord) -> LaurentPoly1:
    """Colored Alexander invariant of the closure of b, the slow dense way.

    Evolves every basis column (0, m) bottom-up through the unmodified
    letter matrices, takes the weighted partial trace over strands 2..n, and
    applies the framing correction.  Asserts that the open-strand operator is
    diagonal in the sense that the (a, 0) blocks vanish for a != 0, and that
    the formal framing grade cancels to zero.
    """
    d = _DIM
    n = b.strands
    r = _unmodified_r()
    rinv = _unmodified_r_inverse()
    # one dense accumulator per open-strand index
    totals = [LaurentPoly1.zero() for _ in range(d)]
    for m in product(range(d), repeat=n - 1):
        vec: list[LaurentPoly1] = [LaurentPoly1.zero()] * (d ** n)
        start = 0
        for digit in (0,) + m:
            start = start * d + digit
        vec[start] = LaurentPoly1.one()
        grade = 0
        for letter in b.word:
            k = abs(letter)
            local = r if letter > 0 else rinv
            grade += 1 if letter > 0 else -1
            right = d ** (n - k - 1)
            new: list[LaurentPoly1] = [LaurentPoly1.zero()] * (d ** n)
            for pos, amp in enumerate(vec):
                if not amp:
                    continue
                rest = pos // right
                tail = pos - rest * right
                pair = rest % (d * d)
                base = (rest - pair) * right
                for (row, col), val in local.items():
                    if col != pair:
                        continue
                    tgt = base + row * right + tail
                    new[tgt] = new[tgt] + amp * val
            vec = new
        if grade != b.writhe():
            raise AssertionError("framing grade drifted from the writhe")
        w = LaurentPoly1.one()
        for digit in m:
            w = w * _weight(digit)
        stride = d ** (n - 1)
        moff = 0
        for digit in m:
            moff = moff * d + digit
        for a in range(d):
            amp = vec[a * stride + moff]
            if amp:
                totals[a] = totals[a] + w * amp
    for a in range(1, d):
        if totals[a]:
            raise AssertionError(
                f"open-strand operator not proportional to identity: "
                f"block {a} is {totals[a]}")
    # framing correction u**-f t**(2f); the u-grade was verified above
    f = b.writhe()
    return totals[0] * LaurentPoly1.t_power(2 * f)
