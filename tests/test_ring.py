import random
from fractions import Fraction

import pytest

from d21link.ring import (LAMBDA, NotLaurentInQ, ONE, Q,
                          QINV, RF_LAMBDA, RF_ONE, RF_Q, RF_ZERO,
                          ZERO, QuarterLaurent, RatFunc, format_q_laurent,
                          exact_div, poly_gcd, q_factorial, q_integer,
                          q_string, to_integer_laurent)
from d21link.rmatrix import braiding
from helpers import random_nonzero_quarter_laurent, random_quarter_laurent, random_ratfunc


def test_difference_of_squares():
    lhs = (Q - QINV) * (Q + QINV)
    assert lhs == QuarterLaurent({8: 1, -8: -1})
    assert q_string(lhs) == "-q^-2 + q^2"


def test_self_division_is_one():
    rng = random.Random(7)
    for _ in range(25):
        value = random_ratfunc(rng)
        if value.is_zero():
            continue
        assert value * value.inverse() == RF_ONE


def test_phi4_inverse_has_closed_form():
    # phi_4 = -q^{-4} (q^2 - q^{-2}) / (q - q^{-1})^2 simplifies so that
    # 1/phi_4 = -q^4 (q - q^{-1}) / (q + q^{-1}).
    num = QuarterLaurent({-16: -1}) * QuarterLaurent({8: 1, -8: -1})
    phi4 = RatFunc(num, LAMBDA * LAMBDA)
    assert phi4.den != ONE
    expected = RatFunc(QuarterLaurent({16: -1}) * LAMBDA, Q + QINV)
    assert phi4.inverse() == expected
    assert expected.den != ONE


def test_q_factorial_base_cases():
    for c in (2, 0, -4):
        assert q_factorial(0, c) == RF_ONE
    assert q_factorial(2, 2) == RatFunc(QuarterLaurent({0: 1, 8: 1}))
    assert q_factorial(2, 0) == RF_ONE
    assert q_factorial(3, -4) == (RF_ONE + RatFunc.q_power(-4)) * (
        RF_ONE + RatFunc.q_power(-4) + RatFunc.q_power(-8))


def test_q_integer_matches_quotient_formula():
    # Independent oracle: (n)_c as the exact quotient (q^{nc}-1)/(q^c-1).
    for c in range(-4, 5):
        for n in range(0, 5):
            direct = q_integer(n, c)
            if c == 0:
                assert direct == RF_ONE
            else:
                numerator = RatFunc.q_power(c * n) - RF_ONE
                denominator = RatFunc.q_power(c) - RF_ONE
                assert direct == numerator * denominator.inverse()


def test_to_integer_laurent_accepts_plain_polynomials():
    value = QuarterLaurent({0: 2, 8: 1})
    assert to_integer_laurent(value) == {0: 2, 2: 1}


def test_to_integer_laurent_rejects_quarter_powers():
    with pytest.raises(NotLaurentInQ) as excinfo:
        to_integer_laurent(QuarterLaurent({1: 1}))
    assert excinfo.value.offender == 1


def test_ring_axioms_randomized():
    rng = random.Random(11)
    for _ in range(40):
        a = random_quarter_laurent(rng)
        b = random_quarter_laurent(rng)
        c = random_quarter_laurent(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_subtraction_gives_canonical_zero():
    rng = random.Random(13)
    for _ in range(20):
        value = random_ratfunc(rng)
        assert value - value == RF_ZERO
        assert (value - value).num.is_zero()


def test_canonical_form_is_representation_independent():
    rng = random.Random(17)
    for _ in range(20):
        num = random_quarter_laurent(rng)
        den = random_nonzero_quarter_laurent(rng)
        junk = random_nonzero_quarter_laurent(rng)
        plain = RatFunc(num, den)
        padded = RatFunc(num * junk, den * junk)
        assert plain == padded
        # cross-multiplication certificate of equality
        assert plain.num * padded.den == padded.num * plain.den


def test_canonical_denominator_shape():
    rng = random.Random(19)
    for _ in range(20):
        value = random_ratfunc(rng)
        if value.is_zero():
            assert value.den == ONE
            continue
        if value.den != ONE:
            assert value.den.valuation() == 0
            assert value.den.leading_coefficient() > 0
        assert poly_gcd(value.num, value.den) == ONE


def test_unit_denominators_are_the_shared_one():
    # the polynomial fast paths and ``SuperMap.scale`` test ``den is ONE``
    two = QuarterLaurent({0: 2})
    values = (RatFunc(Q, QuarterLaurent({0: 1})),    # equal to ONE, not it
              RatFunc(Q * two, two),                   # 1 after the content
              RatFunc(Q * Q, Q),                       # 1 after the shift
              RatFunc(Q + ONE, Q + ONE),               # 1 after the gcd
              RatFunc(ZERO, Q),
              RatFunc(Q) * RatFunc(QINV, QINV),
              RF_Q + RatFunc(Q, Q))
    for value in values:
        assert value.den is ONE
    assert to_integer_laurent(values[0].num) == {1: 1}
    assert to_integer_laurent(values[-1].num) == {0: 1, 1: 1}
    rng = random.Random(29)
    for _ in range(30):
        a, b = random_ratfunc(rng), random_ratfunc(rng)
        for value in (a, a + b, a * b, -a):
            assert (value.den is ONE) == (value.den == ONE)


def test_gcd_divides_both_arguments():
    rng = random.Random(23)
    for _ in range(20):
        a = random_nonzero_quarter_laurent(rng)
        b = random_nonzero_quarter_laurent(rng)
        g = poly_gcd(a, b)
        assert RatFunc(a, g).den == ONE
        assert RatFunc(b, g).den == ONE
    # the integer content is part of the gcd over Z[t, t^-1]
    assert poly_gcd(QuarterLaurent({0: 2, 1: 2}), QuarterLaurent({0: 4})) \
        == QuarterLaurent({0: 2})


def test_ratfunc_operators():
    assert RF_Q + RF_Q == RF_Q * RatFunc.constant(2)
    assert RF_Q * RF_Q == RatFunc.q_power(2)
    assert -RF_Q == RatFunc.q_power(1, -1)
    assert RF_Q ** 3 == RatFunc.q_power(3)
    assert RF_LAMBDA.inverse() == RatFunc(ONE, LAMBDA)
    with pytest.raises(ZeroDivisionError):
        RF_ZERO.inverse()


def test_negative_powers():
    assert RF_Q ** -2 == RatFunc.q_power(-2)
    assert RF_LAMBDA ** -1 == RatFunc(ONE, LAMBDA)
    with pytest.raises(ZeroDivisionError):
        RF_ZERO ** -1


def test_rendering_grammar():
    assert format_q_laurent({-1: -2, 0: 3, 2: 1}) == "-2*q^-1 + 3 + q^2"
    assert format_q_laurent({}) == "0"
    assert format_q_laurent({1: 1}) == "q"
    assert format_q_laurent({2: -1, 0: 3}) == "3 - q^2"
    assert format_q_laurent({0: 2}) == "2"


def _coefficients(*polys):
    return [c for poly in polys for c in poly.terms.values()]


def test_braiding_coefficients_are_plain_ints():
    bundle = braiding()
    for op in (bundle.c, bundle.c_inv):
        for value in op.entries.values():
            assert all(type(c) is int for c in _coefficients(value))


def test_coefficients_are_ints_only():
    for coeff in (Fraction(4, 2), Fraction(1, 2), 2.0, True, "2"):
        with pytest.raises(TypeError):
            QuarterLaurent({0: coeff})
    # a rational number lives in the denominator, in lowest terms
    two_thirds = RatFunc(QuarterLaurent.constant(4), QuarterLaurent.constant(6))
    assert two_thirds == RatFunc(QuarterLaurent.constant(2),
                                 QuarterLaurent.constant(3))
    assert two_thirds.den == QuarterLaurent.constant(3)
    assert hash(two_thirds) == hash(RatFunc(QuarterLaurent.constant(-2),
                                            QuarterLaurent.constant(-3)))


def test_division_steps_stay_exact_on_integer_input():
    # (3t + 1)(2t + 1) by (2t + 1)^2: the first quotient step is 3/2
    a = QuarterLaurent({0: 1, 1: 5, 2: 6})
    b = QuarterLaurent({0: 1, 1: 4, 2: 4})
    assert poly_gcd(a, b) == QuarterLaurent({0: 1, 1: 2})
    assert exact_div(a, QuarterLaurent({0: 1, 1: 2})) == QuarterLaurent({0: 1, 1: 3})
    # 1/3 is not in Z[t, t^-1]: the quotient leaves the ring
    with pytest.raises(ArithmeticError):
        exact_div(QuarterLaurent({0: 1, 1: 1}), QuarterLaurent({0: 3, 1: 3}))
    # t^2 + 2 = (t^2 + 1) + 1: a remainder of lower degree is left
    with pytest.raises(ArithmeticError):
        exact_div(QuarterLaurent({0: 2, 2: 1}), QuarterLaurent({0: 1, 2: 1}))
    ratio = RatFunc(a, b * QuarterLaurent({0: 3}))
    assert ratio == RatFunc(QuarterLaurent({0: 1, 1: 3}),
                            QuarterLaurent({0: 3, 1: 6}))
    values = (poly_gcd(a, b), ratio.num, ratio.den)
    assert all(type(c) is int for c in _coefficients(*values))
