"""Exact arithmetic: Z[w], Laurent polynomials, the specialization."""

import random
import re

import pytest

from braidinv.ring import (
    CycScalar,
    GENERIC_MODULUS,
    LaurentPoly1,
    LaurentPoly2,
    parse_poly,
    specialize,
)
from braidinv.rep import _gauge
from support import ISQRT3, random_cyc, random_poly1, random_poly2


W = CycScalar.omega()
ONE = CycScalar.one()
UNITS = [CycScalar.omega_power(k) for k in range(6)]


class TestCycScalar:
    def test_minimal_polynomial(self):
        assert W * W == CycScalar(-1, 1)          # w^2 = w - 1
        assert W * W * W == CycScalar(-1, 0)      # w^3 = -1
        assert W ** 6 == ONE

    def test_i_sqrt3_squares_to_minus_three(self):
        assert ISQRT3 == CycScalar(-1, 2)         # 2w - 1
        assert ISQRT3 * ISQRT3 == CycScalar(-3, 0)

    def test_units(self):
        assert len(set(UNITS)) == 6
        for u in UNITS:
            assert u.is_unit()
            assert u * u.unit_inverse() == ONE

    def test_non_unit_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            CycScalar(2, 0).unit_inverse()

    def test_exact_div(self):
        x = CycScalar(5, 7) * CycScalar(-2, 3)
        assert x.exact_div(CycScalar(-2, 3)) == CycScalar(5, 7)
        with pytest.raises(ValueError):
            CycScalar(1, 0).exact_div(CycScalar(2, 0))
        with pytest.raises(ZeroDivisionError):
            CycScalar(1, 0).exact_div(CycScalar.zero())

    def test_galois_conjugate_is_multiplicative(self):
        rng = random.Random(11)
        for _ in range(200):
            x, y = random_cyc(rng), random_cyc(rng)
            assert (x * y).galois_conjugate() == \
                x.galois_conjugate() * y.galois_conjugate()
            assert (x * x.galois_conjugate()) == CycScalar(x.norm(), 0)

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(1000):
            x, y, z = (random_cyc(rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("cls, other, random_poly, unit", [
    (LaurentPoly1, LaurentPoly2, random_poly1, LaurentPoly1.t_power(-3, W)),
    (LaurentPoly2, LaurentPoly1, random_poly2, LaurentPoly2.monomial(2, -1, -1)),
], ids=["LaurentPoly1", "LaurentPoly2"])
def test_shared_arithmetic(cls, other, random_poly, unit):
    """The arithmetic both polynomial classes inherit from one base."""
    rng = random.Random(17)
    one = cls.one()
    for _ in range(40):
        p = random_poly(rng)
        product = one
        for k in range(5):
            assert p ** k == product
            product = product * p
        assert p * 3 == 3 * p == p + p + p
    inverse = unit.unit_monomial_inverse()
    for k in range(5):
        assert unit ** -k == inverse ** k
        assert unit ** -k * unit ** k == one
    for non_unit in (one + one, unit + one):
        assert not non_unit.is_unit_monomial()
        with pytest.raises(ZeroDivisionError):
            non_unit ** -1
    assert cls.one() != other.one()


@pytest.mark.parametrize("build, entry", [
    (lambda: LaurentPoly2({(0, 0): 0.5}), "(0, 0): 0.5"),
    (lambda: LaurentPoly2({(0.5, 1): 1}), "(0.5, 1): 1"),
    (lambda: LaurentPoly1({0: (0.5, 0)}), "0: (0.5, 0)"),
    (lambda: LaurentPoly1({0.5: (1, 0)}), "0.5: (1, 0)"),
    (lambda: CycScalar(0.5, 0), "CycScalar(0.5, 0)"),
], ids=["poly2-coefficient", "poly2-exponent", "poly1-coefficient",
        "poly1-exponent", "cyc-part"])
def test_non_integers_are_refused(build, entry):
    """A fractional coefficient or exponent is an error naming the entry,
    never a truncated or stored float."""
    with pytest.raises(TypeError, match=re.escape(entry)):
        build()


class TestLaurentPoly1:
    def test_t_times_t_inverse(self):
        t = LaurentPoly1.t_power
        assert t(1) * t(-1) == LaurentPoly1.one()

    def test_printed_r_matrix_product(self):
        # (t^2 - 1)(t^2 - w^2) = t^4 - w t^2 + (w - 1), using w^2 + 1 = w
        w2 = W * W
        p = LaurentPoly1({2: ONE, 0: -ONE}) * LaurentPoly1({2: ONE, 0: -w2})
        assert p == LaurentPoly1({4: ONE, 2: -W, 0: w2})

    def test_unit_monomial_products(self):
        for u in UNITS:
            for k in (-3, 0, 2):
                m = LaurentPoly1.t_power(k, u)
                assert m.is_unit_monomial()
                assert m * m.unit_monomial_inverse() == LaurentPoly1.one()
        with pytest.raises(ZeroDivisionError):
            LaurentPoly1({0: ONE, 1: ONE}).unit_monomial_inverse()

    def test_canonical_form_drops_zeros(self):
        p = LaurentPoly1({3: CycScalar.zero(), 1: ONE})
        assert [k for k, _ in p.items()] == [1]
        assert not (p - p)

    def test_ring_axioms_random(self):
        rng = random.Random(23)
        for _ in range(200):
            p, q, r = (random_poly1(rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)

    def test_format_pinned(self):
        p = LaurentPoly1({-2: ONE, 2: CycScalar(-1, 1)})
        assert str(p) == "(1)*t^-2 + (-1+1*w)*t^2"
        assert str(LaurentPoly1.zero()) == "(0)"
        assert str(LaurentPoly1({0: CycScalar(0, -1)})) == "(-1*w)"

    def test_parse_round_trip_random(self):
        rng = random.Random(31)
        for _ in range(300):
            p = random_poly1(rng)
            assert parse_poly(str(p)) == p

    def test_parse_rejects_malformed(self):
        for bad in ("", "t^2", "(1)*t^x", "(1) + (1)", "(1*q)*t^2"):
            with pytest.raises(ValueError):
                parse_poly(bad)

    def test_evaluate(self):
        p = LaurentPoly1({2: ONE, -2: ONE})
        assert p.evaluate(ONE) == CycScalar(2, 0)
        assert LaurentPoly1.t_power(2).evaluate(W) == W * W
        with pytest.raises(ZeroDivisionError):
            p.evaluate(CycScalar(2, 0))   # non-unit cannot hit t^-2

    def test_evaluate_is_homomorphism(self):
        rng = random.Random(41)
        for v in (ONE, W):
            for _ in range(200):
                p, q = random_poly1(rng), random_poly1(rng)
                assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)
                assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)

    def test_substitute_unit_over_t(self):
        # t -> w/t sends t^2 + t^-2 to w^2 t^-2 + w^-2 t^2
        p = LaurentPoly1({2: ONE, -2: ONE})
        q = p.substitute_unit_over_t(W)
        assert q == LaurentPoly1({-2: W * W, 2: (W ** -2)})
        assert q != p


class TestLaurentPoly2:
    def test_generic_modulus_expansion(self):
        # p = Y**2: the gauged Links-Gould matrix holds p where the Y form
        # multiplies two Y cells
        t0 = LaurentPoly2.monomial(2, 0)
        t1 = LaurentPoly2.monomial(0, 2)
        one = LaurentPoly2.one()
        assert (t0 - one) * (one - t1) == GENERIC_MODULUS
        assert GENERIC_MODULUS == LaurentPoly2(
            {(2, 0): 1, (2, 2): -1, (0, 0): -1, (0, 2): 1})

    def test_even_exponent_predicate(self):
        assert GENERIC_MODULUS.is_polynomial_in_squares()
        assert not LaurentPoly2.monomial(1, 0).is_polynomial_in_squares()

    def test_canonical_form(self):
        p = LaurentPoly2({(1, 1): 0, (0, 0): 3})
        assert p == LaurentPoly2({(0, 0): 3})
        rng = random.Random(5)
        for _ in range(200):
            p, q, r = (random_poly2(rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p


class TestExtScalar:
    """The Y = sqrt(p) extension, which the package now realises only
    through the diag(1, 1, 1, Y**-1) gauge of the Links-Gould R-matrix."""

    def test_y_squared_is_modulus(self):
        # v_1 (x) v_2 -> v_3 (x) v_0 -> v_1 (x) v_2 crosses two Y cells; in
        # the gauge the column-up cell carries 1 and the row-up cell p
        one = LaurentPoly2.one()
        cells = _gauge({}, {(6, 12): one, (12, 6): one})
        assert cells[6, 12] == one
        assert cells[12, 6] == GENERIC_MODULUS
        assert cells[6, 12] * cells[12, 6] == GENERIC_MODULUS


class TestSpecialize:
    def test_pinned_images(self):
        assert specialize(LaurentPoly2.monomial(2, 0)) == \
            LaurentPoly1.t_power(2)                            # t0 -> t^2
        assert specialize(LaurentPoly2.monomial(0, 2)) == \
            LaurentPoly1.t_power(-2, W * W)                    # t1 -> w^2 t^-2
        assert specialize(LaurentPoly2.monomial(1, 1)) == \
            LaurentPoly1.constant(W)                           # s0 s1 -> w

    def test_specialized_modulus_derived(self):
        # t0 = t^2, t1 = w^2 t^-2 in (t0 - 1)(1 - t1), reduced by w^2 = w - 1
        assert specialize(GENERIC_MODULUS) == LaurentPoly1(
            {2: ONE, 0: -W, -2: W * W})

    def test_specialize_is_homomorphism(self):
        rng = random.Random(19)
        for _ in range(200):
            x, y = random_poly2(rng), random_poly2(rng)
            assert specialize(x * y) == specialize(x) * specialize(y)
            assert specialize(x + y) == specialize(x) + specialize(y)
