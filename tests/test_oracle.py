"""The slow dense reference against the fast engine on small closures."""

import random

from braidinv.braid import BraidWord, parse_braid
from braidinv.invariant import compute_ado3
from braidinv.ring import CycScalar, LaurentPoly1
from oracle import ado3_reference
from support import random_braid


ANCHORS = [
    "{1,{}}",            # unknot
    "{2,{1}}",           # unknot, one crossing
    "{2,{-1}}",
    "{2,{}}",            # 2-component unlink
    "{2,{1,1}}",         # Hopf link
    "{2,{1,1,1}}",       # trefoil
    "{2,{-1,-1,-1}}",    # mirror trefoil
    "{2,{1,1,-1}}",      # unknot after cancellation
    "{3,{1,-2,1,-2}}",   # figure eight
    "{3,{1,1,1,2}}",     # stabilized trefoil
    "{3,{1,1,1,-2}}",
    "{3,{1,2,1,2}}",     # Solomon's link
]


def test_reference_agrees_on_anchor_closures():
    for text in ANCHORS:
        b = parse_braid(text)
        assert ado3_reference(b) == compute_ado3(b).value, text


def test_reference_agrees_on_random_braids():
    rng = random.Random(271)
    for _ in range(60):
        b = random_braid(rng, max_strands=3, max_len=8)
        assert ado3_reference(b) == compute_ado3(b).value, b.format()


def test_reference_unknot_normalization():
    assert ado3_reference(BraidWord(1, ())) == LaurentPoly1.one()


def test_reference_knot_evaluations():
    # knots give 1 at t = 1 and at t = w, split links give 0
    one = CycScalar.one()
    for text in ANCHORS:
        b = parse_braid(text)
        value = ado3_reference(b)
        if b.closure_components() == 1:
            assert value.evaluate(one) == one, text
            assert value.evaluate(CycScalar.omega()) == one, text
