"""Exact arithmetic over the third cyclotomic integers and their Laurent rings.

Every value in this package is exact.  The base scalar ring is Z[w] where
w = exp(i*pi/3) is a primitive sixth root of unity, represented as integer
pairs (a, b) meaning a + b*w and reduced with the single relation

    w**2 = w - 1.

Useful consequences: w**3 = -1, w**-1 = 1 - w, and (2w - 1)**2 = -3, so
2w - 1 plays the role of i*sqrt(3).  The field norm N(a + b*w) = a**2 + a*b
+ b**2 is multiplicative; the units are exactly the six elements of norm one,
{1, w, w - 1, -1, -w, 1 - w} = {w**k : 0 <= k < 6}.

On top of the scalars live two polynomial types:

* ``LaurentPoly1``  -- Laurent polynomials in one variable t with CycScalar
  coefficients (the value ring of the colored Alexander invariant).
* ``LaurentPoly2``  -- integer Laurent polynomials in two variables s0, s1,
  where the geometrically meaningful variables are t0 = s0**2, t1 = s1**2;
  "is a polynomial in t0, t1" means every exponent pair is even.

Both are sparse dicts exponent -> nonzero coefficient: (a, b) pairs under
int exponents, and ints under (e0, e1) pairs; the packed kernels of
``invariant`` read and write that layout.  Their arithmetic (sum, negation,
products, powers, unit-monomial inverse, equality) is written once, in the
private base ``_Laurent``; a subclass supplies its coefficient ring and its
exponent addition as a few static operations, and keeps its constructors,
``items`` and ``__str__``.  ``CycScalar`` shares the one Z[w] product on
pairs (``_cyc_mul``) and square-and-multiply (``_power``).  The constructors
take coefficients and exponents through ``operator.index``: a float raises
``TypeError`` and is never truncated or stored.

No square root is adjoined: the Links-Gould R-matrix is gauged so that its
entries lie in Z[s0**±1, s1**±1] (see ``rep.build_lg_r``).

``specialize`` maps the two-variable world onto the one-variable world by
t0 = t**2, t1 = w**2 * t**-2, realized on the square roots as s0 -> t and
s1 -> w * t**-1.
"""

from __future__ import annotations

import operator
import re
from typing import Iterator, Mapping, Union


# powers of w as (a, b) pairs, index mod 6
_OMEGA_POWERS = (
    (1, 0),    # w^0
    (0, 1),    # w^1
    (-1, 1),   # w^2 = w - 1
    (-1, 0),   # w^3 = -1
    (0, -1),   # w^4
    (1, -1),   # w^5 = 1 - w
)


def _pair_add(x: tuple, y: tuple) -> tuple:
    return (x[0] + y[0], x[1] + y[1])


def _pair_neg(x: tuple) -> tuple:
    return (-x[0], -x[1])


def _cyc_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a1 + b1 w)(a2 + b2 w) on (a, b) pairs, reduced by w**2 = w - 1."""
    a1, b1 = x
    a2, b2 = y
    return (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)


def _power(base, n: int, one):
    """base**n for n >= 0 by square-and-multiply, starting from ``one``."""
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


class CycScalar:
    """An element a + b*w of Z[w], w = exp(i*pi/3), reduced via w**2 = w - 1."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0) -> None:
        try:
            self.a = operator.index(a)
            self.b = operator.index(b)
        except TypeError:
            raise TypeError(f"CycScalar({a!r}, {b!r}) has a part that is not "
                            f"an integer") from None

    @classmethod
    def zero(cls) -> "CycScalar":
        return cls(0, 0)

    @classmethod
    def one(cls) -> "CycScalar":
        return cls(1, 0)

    @classmethod
    def omega(cls) -> "CycScalar":
        return cls(0, 1)

    @classmethod
    def omega_power(cls, k: int) -> "CycScalar":
        return cls(*_OMEGA_POWERS[k % 6])

    def __add__(self, other: "CycScalar") -> "CycScalar":
        return CycScalar(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        return CycScalar(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "CycScalar":
        return CycScalar(-self.a, -self.b)

    def __mul__(self, other: Union["CycScalar", int]) -> "CycScalar":
        if isinstance(other, int):
            return CycScalar(self.a * other, self.b * other)
        return CycScalar(*_cyc_mul((self.a, self.b), (other.a, other.b)))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycScalar":
        base = self.unit_inverse() if n < 0 else self
        return _power(base, abs(n), CycScalar.one())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CycScalar)
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def norm(self) -> int:
        """Field norm a**2 + a*b + b**2; multiplicative and >= 0."""
        return self.a * self.a + self.a * self.b + self.b * self.b

    def is_unit(self) -> bool:
        return self.norm() == 1

    def galois_conjugate(self) -> "CycScalar":
        """The nontrivial automorphism w -> 1 - w (complex conjugation)."""
        return CycScalar(self.a + self.b, -self.b)

    def unit_inverse(self) -> "CycScalar":
        """Inverse of a unit.  x * sigma(x) = N(x) = 1, so x**-1 = sigma(x)."""
        if not self.is_unit():
            raise ZeroDivisionError(f"{self!r} is not a unit of Z[w]")
        return self.galois_conjugate()

    def exact_div(self, other: "CycScalar") -> "CycScalar":
        """Exact division in Z[w]; raises if the quotient is not integral."""
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Z[w]")
        num = self * other.galois_conjugate()
        qa, ra = divmod(num.a, n)
        qb, rb = divmod(num.b, n)
        if ra or rb:
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return CycScalar(qa, qb)

    def __str__(self) -> str:
        return _coeff_str(self.a, self.b)

    def __repr__(self) -> str:
        return f"CycScalar({self.a}, {self.b})"


def _coeff_str(a: int, b: int) -> str:
    """Canonical rendering of a + b*w with zero parts elided; '0' if both zero."""
    if a == 0 and b == 0:
        return "0"
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*w"
    return f"{a}{b:+d}*w"


_COEFF_RE = re.compile(r"^(-?\d+)?(?:(?:(?<=\d)([+-]\d+)|(-?\d+))\*w)?$")


def _parse_coeff(body: str) -> tuple[int, int]:
    m = _COEFF_RE.match(body)
    if not m or (m.group(1) is None and m.group(3) is None):
        raise ValueError(f"malformed coefficient {body!r}")
    a = int(m.group(1)) if m.group(1) is not None else 0
    btxt = m.group(2) if m.group(2) is not None else m.group(3)
    b = int(btxt) if btxt is not None else 0
    return a, b


CoeffLike = Union[CycScalar, int, tuple]


def _coeff_pair(c: CoeffLike) -> tuple[int, int]:
    if isinstance(c, CycScalar):
        return (c.a, c.b)
    if isinstance(c, int):
        return (c, 0)
    return (operator.index(c[0]), operator.index(c[1]))


class _Laurent:
    """Sparse Laurent polynomial: a dict exponent -> nonzero coefficient.

    A subclass supplies, as class attributes, its coefficient ring (``_cadd``,
    ``_cneg``, ``_cmul``, the zero ``_ZERO``, the one ``_ONE``, ``_scalar``
    that coerces a scalar factor, ``_is_unit`` and ``_unit_inverse``) and its
    exponents (``_kadd``, ``_kneg`` and the zero exponent ``_ORIGIN``).
    """

    __slots__ = ("_terms",)

    @classmethod
    def _of(cls, terms: dict) -> "_Laurent":
        """Wrap a dict that holds no zero coefficient."""
        res = cls.__new__(cls)
        res._terms = terms
        return res

    @classmethod
    def zero(cls) -> "_Laurent":
        return cls._of({})

    @classmethod
    def one(cls) -> "_Laurent":
        return cls._of({cls._ORIGIN: cls._ONE})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __add__(self, other: "_Laurent") -> "_Laurent":
        out = dict(self._terms)
        cadd, zero = self._cadd, self._ZERO
        for k, c in other._terms.items():
            cur = out.get(k)
            if cur is not None:
                c = cadd(cur, c)
                if c == zero:
                    del out[k]
                    continue
            out[k] = c
        return self._of(out)

    def __neg__(self) -> "_Laurent":
        cneg = self._cneg
        return self._of({k: cneg(c) for k, c in self._terms.items()})

    def __sub__(self, other: "_Laurent") -> "_Laurent":
        return self + (-other)

    def __mul__(self, other) -> "_Laurent":
        cmul = self._cmul
        if not isinstance(other, type(self)):
            s = self._scalar(other)
            if s == self._ZERO:
                return self.zero()
            # both coefficient rings are domains: no scaled term vanishes
            return self._of({k: cmul(c, s) for k, c in self._terms.items()})
        out: dict = {}
        get = out.get
        cadd, kadd = self._cadd, self._kadd
        right = other._terms.items()
        for k1, c1 in self._terms.items():
            for k2, c2 in right:
                k = kadd(k1, k2)
                cur = get(k)
                out[k] = (cmul(c1, c2) if cur is None
                          else cadd(cur, cmul(c1, c2)))
        zero = self._ZERO
        return self._of({k: c for k, c in out.items() if c != zero})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "_Laurent":
        base = self.unit_monomial_inverse() if n < 0 else self
        return _power(base, abs(n), self.one())

    def is_unit_monomial(self) -> bool:
        """True iff the polynomial is one term with a unit coefficient."""
        return (len(self._terms) == 1
                and self._is_unit(next(iter(self._terms.values()))))

    def unit_monomial_inverse(self) -> "_Laurent":
        """Inverse of a unit monomial; only those are invertible here."""
        if not self.is_unit_monomial():
            raise ZeroDivisionError(f"{self} is not a unit monomial")
        ((k, c),) = self._terms.items()
        return self._of({self._kneg(k): self._unit_inverse(c)})

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._terms!r})"


class LaurentPoly1(_Laurent):
    """Laurent polynomial in t over Z[w], as a sparse exponent -> (a, b) map."""

    __slots__ = ()
    _ZERO, _ONE, _ORIGIN = (0, 0), (1, 0), 0
    _cadd = staticmethod(_pair_add)
    _cneg = staticmethod(_pair_neg)
    _cmul = staticmethod(_cyc_mul)
    _scalar = staticmethod(_coeff_pair)
    _kadd = staticmethod(operator.add)
    _kneg = staticmethod(operator.neg)
    _is_unit = staticmethod(lambda c: CycScalar(*c).is_unit())
    _unit_inverse = staticmethod(
        lambda c: _coeff_pair(CycScalar(*c).unit_inverse()))

    def __init__(self, terms: Mapping[int, CoeffLike] | None = None) -> None:
        clean: dict[int, tuple[int, int]] = {}
        if terms:
            for k, c in terms.items():
                try:
                    k, (a, b) = operator.index(k), _coeff_pair(c)
                except TypeError:
                    raise TypeError(f"LaurentPoly1 term {k!r}: {c!r} needs an "
                                    f"integer exponent and integer coefficient "
                                    f"parts") from None
                if a or b:
                    clean[k] = (a, b)
        self._terms = clean

    @classmethod
    def constant(cls, c: CoeffLike) -> "LaurentPoly1":
        return cls({0: c})

    @classmethod
    def t_power(cls, k: int, c: CoeffLike = 1) -> "LaurentPoly1":
        return cls({k: c})

    def items(self) -> Iterator[tuple[int, CycScalar]]:
        for k in sorted(self._terms):
            a, b = self._terms[k]
            yield k, CycScalar(a, b)

    def evaluate(self, value: CycScalar) -> CycScalar:
        """Evaluate at t = value; value must be a unit if negative powers occur."""
        total = CycScalar.zero()
        for k, c in self.items():
            total = total + c * (value ** k)
        return total

    def substitute_unit_over_t(self, unit: CycScalar) -> "LaurentPoly1":
        """Substitute t -> unit * t**-1 (used for the palindromic symmetry)."""
        return LaurentPoly1({-k: c * unit ** k for k, c in self.items()})

    def __str__(self) -> str:
        if not self._terms:
            return "(0)"
        parts = []
        for k in sorted(self._terms):
            a, b = self._terms[k]
            body = f"({_coeff_str(a, b)})"
            parts.append(body if k == 0 else f"{body}*t^{k}")
        return " + ".join(parts)


_TERM_RE = re.compile(r"^\(([^()]*)\)(?:\*t\^(-?\d+))?$")


def parse_poly(text: str) -> LaurentPoly1:
    """Parse the canonical one-variable format produced by ``str``.

    Grammar: terms joined by " + ", each "(a+b*w)*t^k" with zero parts of the
    coefficient elided and "*t^0" elided; the zero polynomial is "(0)".
    """
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    terms: dict[int, tuple[int, int]] = {}
    for pos, piece in enumerate(text.split(" + ")):
        m = _TERM_RE.match(piece.strip())
        if not m:
            raise ValueError(f"malformed term {piece!r} (term {pos + 1})")
        a, b = _parse_coeff(m.group(1))
        k = int(m.group(2)) if m.group(2) is not None else 0
        if k in terms:
            raise ValueError(f"duplicate exponent t^{k} (term {pos + 1})")
        if a or b:
            terms[k] = (a, b)
    return LaurentPoly1(terms)


class LaurentPoly2(_Laurent):
    """Integer Laurent polynomial in s0, s1; t0 = s0**2 and t1 = s1**2."""

    __slots__ = ()
    _ZERO, _ONE, _ORIGIN = 0, 1, (0, 0)
    _cadd = staticmethod(operator.add)
    _cneg = staticmethod(operator.neg)
    _cmul = staticmethod(operator.mul)
    _scalar = staticmethod(operator.index)
    _kadd = staticmethod(_pair_add)
    _kneg = staticmethod(_pair_neg)
    _is_unit = staticmethod(lambda c: c in (1, -1))
    _unit_inverse = staticmethod(operator.pos)     # 1 and -1 are self-inverse

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None) -> None:
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for key, c in terms.items():
                try:
                    e0, e1, c = map(operator.index, (key[0], key[1], c))
                except TypeError:
                    raise TypeError(f"LaurentPoly2 term {key!r}: {c!r} needs "
                                    f"integer exponents and an integer "
                                    f"coefficient") from None
                if c:
                    clean[(e0, e1)] = c
        self._terms = clean

    @classmethod
    def monomial(cls, e0: int, e1: int, c: int = 1) -> "LaurentPoly2":
        return cls({(e0, e1): c})

    def items(self) -> Iterator[tuple[tuple[int, int], int]]:
        for key in sorted(self._terms):
            yield key, self._terms[key]

    def is_polynomial_in_squares(self) -> bool:
        """True iff every exponent pair is even, i.e. a true t0/t1 polynomial.
        Public API for demo 01 and the integrality tests; no caller in src."""
        return all(e0 % 2 == 0 and e1 % 2 == 0 for e0, e1 in self._terms)

    def __str__(self) -> str:
        if not self._terms:
            return "(0)"
        parts = []
        for (e0, e1) in sorted(self._terms):
            c = self._terms[(e0, e1)]
            body = f"({c})"
            if e0:
                body += f"*s0^{e0}"
            if e1:
                body += f"*s1^{e1}"
            parts.append(body)
        return " + ".join(parts)


# p = (t0 - 1)(1 - t1) expanded in s: the square Y**2 of the scalar the
# Links-Gould R-matrix is transcribed with (see rep.build_lg_r).
GENERIC_MODULUS = LaurentPoly2(
    {(2, 0): 1, (2, 2): -1, (0, 0): -1, (0, 2): 1}
)


def specialize(p: LaurentPoly2) -> LaurentPoly1:
    """Apply t0 = t**2, t1 = w**2 t**-2 to a two-variable value: substitute
    s0 -> t, s1 -> w * t**-1."""
    terms: dict[int, tuple[int, int]] = {}
    for (e0, e1), c in p._terms.items():
        wa, wb = _OMEGA_POWERS[e1 % 6]
        k = e0 - e1
        cur = terms.get(k)
        na, nb = c * wa, c * wb
        if cur is not None:
            na, nb = cur[0] + na, cur[1] + nb
        if na or nb:
            terms[k] = (na, nb)
        elif cur is not None:
            del terms[k]
    return LaurentPoly1(terms)
