"""R-matrices, closure weights, and operator algebra for both invariants.

Two braid-group representations are built here, both acting on V (x) V for a
small vector space V with basis v_0..v_{d-1}:

* the third colored Alexander representation (d = 3), built from the nilpotent
  quantum-sl2 formula at sixth root of unity q = w, with the color variable
  realized as q**lambda = t.  Entries are one-variable Laurent polynomials
  over Z[w].
* the Links-Gould representation (d = 4) from quantum gl(2|1), in two
  variables t0 = s0**2, t1 = s1**2.  Its literature form needs the square root
  Y = sqrt((t0 - 1)(1 - t1)); conjugating by diag(1, 1, 1, Y**-1) on each
  strand (a gauge that leaves every closure value alone) puts all entries in
  Z[s0**±1, s1**±1].

Positive braid letters act by R, negative by its inverse; R**-1 is derived
from the cubic minimal polynomial of R and verified by multiplication, never
transcribed.

Operators are stored sparsely.  ``LocalOperator`` is a square matrix over any
of the package's exact rings; basis order on V (x) V is v_i (x) v_j -> d*i + j
with the left factor the lower-numbered strand.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Mapping

from .ring import (
    CycScalar,
    GENERIC_MODULUS,
    LaurentPoly1,
    LaurentPoly2,
    specialize,
)


def q_int_bracket(a: int) -> CycScalar:
    """{a} = w**a - w**-a at q = w."""
    return CycScalar.omega_power(a) - CycScalar.omega_power(-a)


def q_colored_bracket(c: int) -> LaurentPoly1:
    """{lambda + c} = t*w**c - t**-1 * w**-c with t standing for q**lambda."""
    return LaurentPoly1({1: CycScalar.omega_power(c),
                         -1: -CycScalar.omega_power(-c)})


def _pochhammer_cyc(a: int, n: int) -> CycScalar:
    """{a; n} = {a}{a-1}...{a-n+1} as a scalar."""
    out = CycScalar.one()
    for k in range(n):
        out = out * q_int_bracket(a - k)
    return out


def q_pochhammer(a: int, n: int) -> LaurentPoly1:
    """{lambda + a; n} = {lambda + a}{lambda + a - 1}...{lambda + a - n + 1}."""
    if n < 0:
        raise ValueError("Pochhammer length must be >= 0")
    out = LaurentPoly1.one()
    for k in range(n):
        out = out * q_colored_bracket(a - k)
    return out


class LocalOperator:
    """Sparse square matrix over an exact ring; (row, col) -> nonzero entry."""

    __slots__ = ("size", "_entries")

    def __init__(self, size: int, entries: Mapping[tuple[int, int], object]) -> None:
        self.size = size
        self._entries = {rc: v for rc, v in entries.items() if v}

    @classmethod
    def identity(cls, size: int, one) -> "LocalOperator":
        return cls(size, {(i, i): one for i in range(size)})

    def get(self, row: int, col: int):
        return self._entries.get((row, col))

    def entries(self) -> list[tuple[int, int, object]]:
        return [(r, c, self._entries[(r, c)]) for r, c in sorted(self._entries)]

    def nnz(self) -> int:
        return len(self._entries)

    def columns(self) -> dict[int, list[tuple[int, object]]]:
        cols: dict[int, list[tuple[int, object]]] = {}
        for (r, c), v in self._entries.items():
            cols.setdefault(c, []).append((r, v))
        for lst in cols.values():
            lst.sort(key=lambda rv: rv[0])
        return cols

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, LocalOperator)
                and self.size == other.size
                and self._entries == other._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __add__(self, other: "LocalOperator") -> "LocalOperator":
        if self.size != other.size:
            raise ValueError("size mismatch")
        out = dict(self._entries)
        for rc, v in other._entries.items():
            cur = out.get(rc)
            out[rc] = v if cur is None else cur + v
        return LocalOperator(self.size, out)

    def __sub__(self, other: "LocalOperator") -> "LocalOperator":
        return self + other.scale(-1)

    def scale(self, factor) -> "LocalOperator":
        return LocalOperator(self.size,
                             {rc: v * factor for rc, v in self._entries.items()})

    def __matmul__(self, other: "LocalOperator") -> "LocalOperator":
        """Sparse matrix product self @ other (apply other first)."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        other_by_row: dict[int, list[tuple[int, object]]] = {}
        for (k, c), v in other._entries.items():
            other_by_row.setdefault(k, []).append((c, v))
        out: dict[tuple[int, int], object] = {}
        for (r, k), u in self._entries.items():
            hits = other_by_row.get(k)
            if not hits:
                continue
            for c, v in hits:
                rc = (r, c)
                prod = u * v
                cur = out.get(rc)
                out[rc] = prod if cur is None else cur + prod
        return LocalOperator(self.size, out)

    def map_values(self, fn: Callable[[object], object]) -> "LocalOperator":
        return LocalOperator(self.size,
                             {rc: fn(v) for rc, v in self._entries.items()})


def tensor(a: LocalOperator, b: LocalOperator) -> LocalOperator:
    """Kronecker product; row order (ra, rb) -> ra * b.size + rb."""
    out: dict[tuple[int, int], object] = {}
    for (ra, ca), va in a._entries.items():
        for (rb, cb), vb in b._entries.items():
            out[(ra * b.size + rb, ca * b.size + cb)] = va * vb
    return LocalOperator(a.size * b.size, out)


# --- colored Alexander side (d = 3) ---------------------------------------

ADO_DIM = 3


@lru_cache(maxsize=None)
def build_ado3_r() -> LocalOperator:
    """Third colored Alexander R-matrix from the nilpotent summation formula.

    R(v_i (x) v_j) = t**(2-i-j) * sum_n w**(2(i+n)(j-n) + n(n-1)/2)
        * {i+n; n}/{n; n} * {lambda - j + n; n} * v_{j-n} (x) v_{i+n}
    with n running over 0 <= n <= min(j, 2 - i).  The scalar ratio
    {i+n; n}/{n; n} is computed by exact division in Z[w].
    """
    d = ADO_DIM
    entries: dict[tuple[int, int], LaurentPoly1] = {}
    for i in range(d):
        for j in range(d):
            col = d * i + j
            for n in range(0, min(j, d - 1 - i) + 1):
                row = d * (j - n) + (i + n)
                ratio = _pochhammer_cyc(i + n, n).exact_div(_pochhammer_cyc(n, n))
                omega_exp = 2 * (i + n) * (j - n) + n * (n - 1) // 2
                coeff = LaurentPoly1.t_power(2 - i - j,
                                             CycScalar.omega_power(omega_exp))
                value = coeff * ratio * q_pochhammer(-j + n, n)
                cur = entries.get((row, col))
                entries[(row, col)] = value if cur is None else cur + value
    return LocalOperator(d * d, entries)


@lru_cache(maxsize=None)
def build_ado3_h() -> tuple[LaurentPoly1, ...]:
    """Closure weight h = diag(t**2 * w**(2i)) on the 3-dimensional V, as
    its diagonal."""
    t2 = LaurentPoly1.t_power(2)
    return tuple(t2 * CycScalar.omega_power(2 * i) for i in range(ADO_DIM))


def ado_cubic_coeffs() -> tuple[LaurentPoly1, LaurentPoly1, LaurentPoly1]:
    """(c2, c1, c0) with R**3 = c2 R**2 + c1 R + c0 Id for the d=3 R-matrix."""
    w2 = CycScalar.omega_power(2)
    c2 = LaurentPoly1({-2: w2, 0: (-1, 0), 2: (1, 0)})
    c1 = LaurentPoly1({-2: w2, 0: -w2, 2: (1, 0)})
    c0 = LaurentPoly1.constant(-w2)
    return c2, c1, c0


# --- Links-Gould side (d = 4) ----------------------------------------------

LG_DIM = 4


def _p2(e0: int, e1: int, c: int = 1) -> LaurentPoly2:
    return LaurentPoly2.monomial(e0, e1, c)


def _n3(x: int) -> int:
    """The number of v_3 factors in the basis pair x = 4i + j."""
    return (x >> 2 == 3) + (x & 3 == 3)


def _gauge(even: Mapping, odd: Mapping) -> dict:
    """R-matrix cells conjugated by D (x) D, D = diag(1, 1, 1, Y**-1).

    Cell (r, c) is scaled by Y**(n3(r) - n3(c)).  An even cell must keep
    n3, so it is unchanged.  An odd cell o*Y must move exactly one v_3: it
    becomes o when the column has the extra v_3 and o*p (Y**2 = p,
    ``GENERIC_MODULUS``) when the row has it.  Anything else raises
    ValueError.  Of the two such gauges this one puts p on the row of
    v_3 (x) v_0 instead of on its column, which already holds p on the
    diagonal: a column's coefficients then sum to at most 7 in absolute
    value, not 13, and that sum sets the kernels' slot widths.
    """
    cells = {}
    for (r, c), v in even.items():
        if _n3(r) != _n3(c):
            raise ValueError(f"even cell ({r}, {c}) changes the v_3 count")
        cells[r, c] = v
    for (r, c), o in odd.items():
        step = _n3(c) - _n3(r)
        if step not in (1, -1):
            raise ValueError(f"odd cell ({r}, {c}) moves {step} v_3 factors, "
                             f"not one")
        cells[r, c] = o if step == 1 else o * GENERIC_MODULUS
    return cells


@lru_cache(maxsize=None)
def build_lg_r() -> LocalOperator:
    """Links-Gould R-matrix on V (x) V, dim V = 4, in the
    diag(1, 1, 1, Y**-1) gauge, with entries in Z[s0**±1, s1**±1].

    The transcription is the literature's: ``even`` cells in t0 = s0**2,
    t1 = s1**2, and ``odd`` cells, the coefficients of Y with
    Y**2 = (t0 - 1)(1 - t1).  ``_gauge`` conjugates by D (x) D.  The closure
    weights are diagonal, so D leaves them alone, and the (a, c) block of a
    closure's partial trace is scaled by Y**(n3(a) - n3(c)): every diagonal
    block, the invariant among them, is what the Y form gives.  The gauge
    rule also proves that the Y form's scalar has no odd part: each even
    cell keeps n3 and each odd cell changes it by one, so a product of cells
    from a basis vector back to itself holds an even number of odd cells.
    """
    one = LaurentPoly2.one()
    s0 = _p2(1, 0)
    s1 = _p2(0, 1)
    s0s1 = _p2(1, 1)
    t0 = _p2(2, 0)
    t1 = _p2(0, 2)
    t0t1 = _p2(2, 2)
    even: dict[tuple[int, int], LaurentPoly2] = {
        (0, 0): t0,
        (1, 4): s0,
        (2, 8): s0,
        (3, 12): one,
        (4, 1): s0,
        (4, 4): t0 - one,
        (5, 5): -one,
        (6, 6): t0t1 - one,
        (6, 9): -s0s1,
        (7, 13): s1,
        (8, 2): s0,
        (8, 8): t0 - one,
        (9, 6): -s0s1,
        (10, 10): -one,
        (11, 14): s1,
        (12, 3): one,
        (12, 12): GENERIC_MODULUS,      # the Y**2 entry
        (13, 7): s1,
        (13, 13): t1 - one,
        (14, 11): s1,
        (14, 14): t1 - one,
        (15, 15): t1,
    }
    odd: dict[tuple[int, int], LaurentPoly2] = {
        (6, 12): -s0s1,
        (9, 12): one,
        (12, 6): -s0s1,
        (12, 9): one,
    }
    return LocalOperator(LG_DIM * LG_DIM, _gauge(even, odd))


@lru_cache(maxsize=None)
def build_lg_h() -> tuple[LaurentPoly2, ...]:
    """Links-Gould closure weight diag(t0**-1, -t1, -t0**-1, t1), as its
    diagonal."""
    return (_p2(-2, 0), _p2(0, 2, -1), _p2(-2, 0, -1), _p2(0, 2))


def lg_cubic_coeffs() -> tuple[LaurentPoly2, LaurentPoly2, LaurentPoly2]:
    """(c2, c1, c0) with R**3 = c2 R**2 + c1 R + c0 Id for the d=4 R-matrix."""
    one = LaurentPoly2.one()
    t0 = _p2(2, 0)
    t1 = _p2(0, 2)
    t0t1 = _p2(2, 2)
    return t0 + t1 - one, t0 + t1 - t0t1, -t0t1


@lru_cache(maxsize=None)
def build_lg_r_specialized() -> LocalOperator:
    """Links-Gould R with t0 = t**2, t1 = w**2 t**-2 substituted entrywise."""
    return build_lg_r().map_values(specialize)


@lru_cache(maxsize=None)
def build_lg_h_specialized() -> tuple[LaurentPoly1, ...]:
    return tuple(specialize(v) for v in build_lg_h())


def lg_specialized_cubic_coeffs() -> tuple[LaurentPoly1, LaurentPoly1,
                                           LaurentPoly1]:
    return tuple(specialize(c) for c in lg_cubic_coeffs())


# --- inversion and derived operators ---------------------------------------

def operator_one(op: LocalOperator):
    for v in op._entries.values():
        return type(v).one()
    raise ValueError("cannot infer ring from the zero operator")


def invert_r(r: LocalOperator, cubic: tuple) -> LocalOperator:
    """R**-1 = c0**-1 (R**2 - c2 R - c1 Id) from R**3 = c2 R**2 + c1 R + c0 Id.

    The result is verified by multiplying back to the identity on both sides;
    a failure raises rather than returning a wrong inverse.
    """
    c2, c1, c0 = cubic
    one = operator_one(r)
    ident = LocalOperator.identity(r.size, one)
    rinv = (r @ r - r.scale(c2) - ident.scale(c1)).scale(
        c0.unit_monomial_inverse())
    if r @ rinv != ident or rinv @ r != ident:
        raise ValueError("cubic-based inverse failed verification")
    return rinv


@lru_cache(maxsize=None)
def build_ado3_r_inverse() -> LocalOperator:
    return invert_r(build_ado3_r(), ado_cubic_coeffs())


@lru_cache(maxsize=None)
def build_lg_r_inverse() -> LocalOperator:
    return invert_r(build_lg_r(), lg_cubic_coeffs())


@lru_cache(maxsize=None)
def build_lg_r_inverse_specialized() -> LocalOperator:
    return invert_r(build_lg_r_specialized(), lg_specialized_cubic_coeffs())


def skein_variable_pair(sample) -> tuple:
    """(t0, t1) read in the coefficient ring of the given specimen element.

    Two-variable rings carry t0, t1 themselves; the one-variable ring sees
    them through the specialization t0 = t**2, t1 = w**2 t**-2
    (``ring.specialize``).
    """
    t0, t1 = _p2(2, 0), _p2(0, 2)
    if isinstance(sample, LaurentPoly2):
        return t0, t1
    if isinstance(sample, LaurentPoly1):
        return specialize(t0), specialize(t1)
    raise TypeError(f"unsupported ring element {type(sample).__name__}")


def build_q_operators(r: LocalOperator, rinv: LocalOperator) -> tuple[LocalOperator, LocalOperator]:
    """Denominator-cleared skein operators for the given R-matrix.

    Q0c = t0 R + t0 (1 - t1) Id - t0 t1 R**-1   (this is (t0 - t1) Q0)
    Q1c = t1 R + t1 (1 - t0) Id - t0 t1 R**-1   (this is (t1 - t0) Q1)
    The variables t0, t1 are read in the ring of R's entries, so the d = 3
    matrix gets the one-variable specialization automatically.
    """
    one = operator_one(r)
    t0, t1 = skein_variable_pair(one)
    ident = LocalOperator.identity(r.size, one)
    t0t1 = t0 * t1
    q0 = r.scale(t0) + ident.scale(t0 * (one - t1)) - rinv.scale(t0t1)
    q1 = r.scale(t1) + ident.scale(t1 * (one - t0)) - rinv.scale(t0t1)
    return q0, q1
