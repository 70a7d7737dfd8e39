"""R-matrices, closure weights, inverses, skein operators."""

import random

import pytest

from braidinv.rep import (
    ADO_DIM,
    LG_DIM,
    LocalOperator,
    _gauge,
    _n3,
    _pochhammer_cyc,
    ado_cubic_coeffs,
    build_ado3_h,
    build_ado3_r,
    build_ado3_r_inverse,
    build_lg_h,
    build_lg_h_specialized,
    build_lg_r,
    build_lg_r_inverse,
    build_lg_r_inverse_specialized,
    build_lg_r_specialized,
    build_q_operators,
    invert_r,
    lg_cubic_coeffs,
    lg_specialized_cubic_coeffs,
    operator_one,
    q_pochhammer,
    tensor,
)
from braidinv.ring import (
    CycScalar,
    GENERIC_MODULUS,
    LaurentPoly1,
    LaurentPoly2,
    specialize,
)
from support import ISQRT3, printed_ado_entries


W = CycScalar.omega()
ONE = CycScalar.one()


def _cubic_residual(r, coeffs):
    c2, c1, c0 = coeffs
    ident = LocalOperator.identity(r.size, operator_one(r))
    return r @ r @ r - (r @ r).scale(c2) - r.scale(c1) - ident.scale(c0)


class TestPochhammer:
    def test_empty_product(self):
        assert _pochhammer_cyc(5, 0) == ONE
        assert q_pochhammer(5, 0) == LaurentPoly1.one()

    def test_single_bracket(self):
        # {1} = w - w**-1 = 2w - 1 = i*sqrt(3)
        assert _pochhammer_cyc(1, 1) == ISQRT3

    def test_colored_bracket(self):
        # {lambda} = t - t**-1
        assert q_pochhammer(0, 1) == LaurentPoly1({1: ONE, -1: -ONE})

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            q_pochhammer(1, -1)


class TestAdoR:
    def test_matches_printed_matrix_all_81_entries(self):
        # the formula-built matrix against the published table, every cell
        r = build_ado3_r()
        printed = printed_ado_entries()
        for row in range(9):
            for col in range(9):
                got = r.get(row, col)
                want = printed.get((row, col))
                if want is None:
                    assert got is None, (row, col, str(got))
                else:
                    assert got == want, (row, col, str(got), str(want))
        assert r.nnz() == len(printed) == 14

    def test_h_weights(self):
        h = build_ado3_h()
        t2 = LaurentPoly1.t_power(2)
        assert h == (t2, t2 * (W * W), t2 * (-W))
        for v in h:
            assert v.is_unit_monomial()

    def test_cubic_relation(self):
        assert not _cubic_residual(build_ado3_r(), ado_cubic_coeffs())

    def test_cubic_coeffs_pinned(self):
        c2, c1, c0 = ado_cubic_coeffs()
        w2 = W * W
        assert c2 == LaurentPoly1({-2: w2, 0: -ONE, 2: ONE})
        assert c1 == LaurentPoly1({-2: w2, 0: -w2, 2: ONE})
        assert c0 == LaurentPoly1.constant(-w2)

    def test_inverse(self):
        r = build_ado3_r()
        rinv = build_ado3_r_inverse()
        ident = LocalOperator.identity(9, LaurentPoly1.one())
        assert r @ rinv == ident
        assert rinv @ r == ident

    def test_yang_baxter(self):
        r = build_ado3_r()
        ident = LocalOperator.identity(ADO_DIM, LaurentPoly1.one())
        a = tensor(r, ident)
        b = tensor(ident, r)
        assert a @ b @ a == b @ a @ b

    def test_perturbed_matrix_breaks_relations(self):
        r = build_ado3_r()
        bumped = r + LocalOperator(9, {(0, 1): LaurentPoly1.one()})
        assert _cubic_residual(bumped, ado_cubic_coeffs())
        ident = LocalOperator.identity(ADO_DIM, LaurentPoly1.one())
        a = tensor(bumped, ident)
        b = tensor(ident, bumped)
        assert a @ b @ a != b @ a @ b


class TestLgR:
    def test_pinned_entries(self):
        r = build_lg_r()
        mon = LaurentPoly2.monomial
        p = GENERIC_MODULUS
        assert r.get(0, 0) == mon(2, 0)
        assert r.get(12, 12) == p                   # the printed Y^2 cell
        assert r.get(6, 9) == mon(1, 1, -1)
        assert r.get(4, 1) == mon(1, 0)
        assert r.get(15, 15) == mon(0, 2)
        # the four Y cells: bare when the column holds the extra v_3, times
        # p when the row does
        assert r.get(6, 12) == mon(1, 1, -1)
        assert r.get(12, 6) == mon(1, 1, -1) * p
        assert r.get(9, 12) == LaurentPoly2.one()
        assert r.get(12, 9) == p
        assert r.nnz() == 26

    def test_symmetric(self):
        # the Y form is symmetric: R[r, c] = Y**(n3(c) - n3(r)) R'[r, c] for
        # the gauged R', so p**n3(c) R'[r, c] = p**n3(r) R'[c, r]
        r = build_lg_r()
        p = GENERIC_MODULUS
        for row, col, v in r.entries():
            assert p ** _n3(col) * v == p ** _n3(row) * r.get(col, row)

    def test_gauge_rule_rejects_misplaced_cells(self):
        one = LaurentPoly2.one()
        assert _gauge({}, {(9, 12): one}) == {(9, 12): one}
        assert _gauge({}, {(12, 9): one}) == {(12, 9): GENERIC_MODULUS}
        # v_1 (x) v_2 -> v_2 (x) v_1 moves no v_3: not a Y cell
        with pytest.raises(ValueError, match="odd cell"):
            _gauge({}, {(6, 9): one})
        # v_3 (x) v_3 -> v_0 (x) v_0 moves two
        with pytest.raises(ValueError, match="odd cell"):
            _gauge({}, {(0, 15): one})
        with pytest.raises(ValueError, match="even cell"):
            _gauge({(6, 12): one}, {})

    def test_h_weights(self):
        h = build_lg_h()
        mon = LaurentPoly2.monomial
        assert h == (mon(-2, 0), mon(0, 2, -1), mon(-2, 0, -1), mon(0, 2))

    def test_cubic_relation_generic_and_specialized(self):
        assert not _cubic_residual(build_lg_r(), lg_cubic_coeffs())
        assert not _cubic_residual(build_lg_r_specialized(),
                                   lg_specialized_cubic_coeffs())

    def test_cubic_coeffs_pinned(self):
        c2, c1, c0 = lg_cubic_coeffs()
        mon = LaurentPoly2.monomial
        assert c2 == mon(2, 0) + mon(0, 2) - LaurentPoly2.one()
        assert c1 == mon(2, 0) + mon(0, 2) - mon(2, 2)
        assert c0 == mon(2, 2, -1)

    def test_specialized_cubic_matches_ado_cubic(self):
        # the specialization collapses the two cubics onto each other
        assert lg_specialized_cubic_coeffs() == ado_cubic_coeffs()

    def test_inverses(self):
        for build_r, build_rinv in (
            (build_lg_r, build_lg_r_inverse),
            (build_lg_r_specialized, build_lg_r_inverse_specialized),
        ):
            r = build_r()
            rinv = build_rinv()
            ident = LocalOperator.identity(16, operator_one(r))
            assert r @ rinv == ident
            assert rinv @ r == ident

    def test_yang_baxter_generic(self):
        r = build_lg_r()
        ident = LocalOperator.identity(LG_DIM, operator_one(r))
        a = tensor(r, ident)
        b = tensor(ident, r)
        assert a @ b @ a == b @ a @ b

    def test_specialized_entries_are_one_variable(self):
        for _, _, v in build_lg_r_specialized().entries():
            assert isinstance(v, LaurentPoly1)
        spec_direct = build_lg_r().map_values(specialize)
        assert spec_direct == build_lg_r_specialized()

    def test_specialized_h(self):
        h = build_lg_h_specialized()
        assert h == tuple(specialize(v) for v in build_lg_h())


class TestInvertR:
    def test_trivial_diagonal(self):
        # diag(1, -1) squares to Id, so x**3 = x**2 + x - 1 holds; the
        # cubic-derived inverse must return the matrix itself
        one = LaurentPoly1.one()
        r = LocalOperator(2, {(0, 0): one, (1, 1): -one})
        cubic = (one, one, -one)
        assert invert_r(r, cubic) == r

    def test_wrong_cubic_rejected(self):
        one = LaurentPoly1.one()
        r = LocalOperator(2, {(0, 0): one, (1, 1): LaurentPoly1.t_power(1)})
        with pytest.raises(ValueError):
            invert_r(r, (one, one, -one))


class TestQOperators:
    def test_degenerate_identity_input(self):
        # with R = Id the cleared Q0 collapses to (t0 + t0(1-t1) - t0 t1) Id
        ident = LocalOperator.identity(16, LaurentPoly2.one())
        q0, q1 = build_q_operators(ident, ident)
        mon = LaurentPoly2.monomial
        s0 = mon(2, 0, 2) + mon(2, 2, -2)
        s1 = mon(0, 2, 2) + mon(2, 2, -2)
        assert q0 == LocalOperator(16, {(i, i): s0 for i in range(16)})
        assert q1 == LocalOperator(16, {(i, i): s1 for i in range(16)})

    def test_one_variable_ring_reads_specialized_scalars(self):
        # feeding the d = 3 matrix picks up t0 = t**2, t1 = w**2 t**-2
        q0, q1 = build_q_operators(build_ado3_r(), build_ado3_r_inverse())
        r = build_ado3_r()
        rinv = build_ado3_r_inverse()
        t0 = LaurentPoly1.t_power(2)
        t1 = LaurentPoly1.t_power(-2, W * W)
        one = LaurentPoly1.one()
        ident = LocalOperator.identity(9, one)
        assert q0 == r.scale(t0) + ident.scale(t0 * (one - t1)) \
            - rinv.scale(t0 * t1)
        assert q1 == r.scale(t1) + ident.scale(t1 * (one - t0)) \
            - rinv.scale(t0 * t1)
