import pytest

from wittforge import base_rings as br
from wittforge import lifting as lf
from wittforge import witt_ramified as rw
from wittforge.errors import (
    DerivativeNotUnit,
    MismatchError,
    NoRoot,
    SpecParseError,
)

F3 = br.make_field(3, 1)
# E = X^2 - 3 over F_3, 8 certified digits; deep enough for the sqrt runs
B = rw.make_ramified_base(3, 1, 2, [-3, 0], 5)
# unramified p = 2 point for the inseparable counterexamples
BU2 = rw.make_ramified_base(2, 1, 1, [-2], 5)
F2 = br.make_field(2, 1)

# rational-function coefficients with enough p-depth for digit extraction and
# one 2-depth for half-integral exponents
R3 = br.make_ring(
    "frac base=(ff p=3 e=1) vars=x depth_p=10 depth_2=1 laurent=true")


def linear_problem(c, precision=8):
    """X - c seeded at the residue of c."""
    seed = rw.teich_embed(rw.reduce_mod_pi(c), B)
    return lf.make_hensel_problem((rw.rw_neg(c), rw.rw_one(B, c.ring)),
                                  seed, precision)


def sqrt_prob(expr, seed_expr, precision=8):
    c = rw.rw_add(rw.rw_from_int(3, B, R3), rw.embed_expr(B, R3, expr))
    seed = rw.embed_expr(B, R3, seed_expr)
    return lf.quadratic_problem(B, R3, c, seed, precision)


class TestProblemValidation:
    def test_constant_polynomial_rejected(self):
        one = rw.rw_one(B, F3)
        with pytest.raises(SpecParseError, match="degree"):
            lf.make_hensel_problem((one,), one, 4)

    def test_coefficient_ring_must_match_seed(self):
        c = rw.rw_one(B, F3)
        seed = rw.rw_one(B, R3)
        with pytest.raises(MismatchError, match="disagree"):
            lf.make_hensel_problem((rw.rw_neg(c), rw.rw_one(B, F3)), seed, 4)

    @pytest.mark.parametrize("target", [0, 9])
    def test_target_precision_bounds(self, target):
        c = rw.rw_add(rw.rw_one(B, F3), rw.rw_pi(B, F3))
        with pytest.raises(SpecParseError, match="target precision"):
            linear_problem(c, target)

    def test_seed_must_carry_enough_precision(self):
        c = rw.rw_add(rw.rw_one(B, F3), rw.rw_pi(B, F3))
        seed = rw.teich_embed(rw.reduce_mod_pi(c), B)
        short = rw.RamifiedWitt(seed.base, seed.ring, seed.coords, 3)
        with pytest.raises(SpecParseError, match="seed precision"):
            lf.make_hensel_problem((rw.rw_neg(c), rw.rw_one(B, F3)), short, 6)

    def test_coefficients_must_carry_the_target_precision(self):
        # X^2 - 1 with 1 known to 2 digits certifies no root to 8 digits
        c = rw.rw_truncate(rw.rw_one(B, F3), 2)
        with pytest.raises(SpecParseError, match="coefficient precision"):
            lf.quadratic_problem(B, F3, c, rw.rw_one(B, F3), 8)
        root = lf.hensel_lift(lf.quadratic_problem(B, F3, c, rw.rw_one(B, F3), 2))
        assert root.precision == 2

    def test_seed_must_be_root_mod_pi(self):
        c = rw.rw_add(rw.rw_from_int(3, B, R3), rw.embed_expr(B, R3, "x"))
        with pytest.raises(NoRoot):
            lf.quadratic_problem(B, R3, c, rw.rw_one(B, R3), 8)

    def test_double_root_rejected(self):
        # X^2 with seed pi: the root is fine mod pi but 2X vanishes there
        with pytest.raises(DerivativeNotUnit):
            lf.quadratic_problem(B, F3, rw.rw_zero(B, F3),
                                 rw.rw_pi(B, F3), 8)

    def test_wrong_characteristic_frobenius_equation(self):
        # X^4 - 2X - [1] over W(F_2): every term of the derivative 4X^3 - 2
        # is divisible by p, so the simple-root route is closed here
        one = rw.rw_one(BU2, F2)
        zero = rw.rw_zero(BU2, F2)
        coeffs = (rw.rw_neg(one), rw.rw_from_int(-2, BU2, F2),
                  zero, zero, one)
        with pytest.raises(DerivativeNotUnit, match="derivative"):
            lf.make_hensel_problem(coeffs, one, 4)


class TestPolynomialHelpers:
    def test_derivative_drops_constant(self):
        c = rw.rw_add(rw.rw_one(B, F3), rw.rw_pi(B, F3))
        dv = lf.poly_derivative((rw.rw_neg(c), rw.rw_zero(B, F3),
                                 rw.rw_one(B, F3)))
        assert len(dv) == 2
        two = rw.teich_embed(br.from_int(F3, 2), B)
        # 2 * [2] = -2 since [2] is the square root of unity below 2
        assert str(rw.digit_expand(lf.poly_eval(dv, two), 4)) \
            == "DIGITS[4]{1;0;2;0}"

    def test_eval_at_zero_gives_constant(self):
        c = rw.rw_add(rw.rw_one(B, F3), rw.rw_pi(B, F3))
        coeffs = (c, rw.rw_one(B, F3), rw.rw_one(B, F3))
        assert lf.poly_eval(coeffs, rw.rw_zero(B, F3)) == c


class TestLinearLift:
    def test_root_is_the_constant(self):
        c = rw.rw_add(rw.rw_one(B, F3), rw.rw_pi(B, F3))
        r = lf.hensel_lift(linear_problem(c))
        assert rw.rw_equal(r, c, 8)
        assert r.precision == 8
        assert str(rw.digit_expand(r, 4)) == "DIGITS[4]{1;1;0;0}"

    def test_telemetry_shape(self):
        c = rw.rw_add(rw.rw_one(B, F3), rw.rw_pi(B, F3))
        _, steps = lf.hensel_lift_verbose(linear_problem(c))
        flat = [(s.index, s.window, s.ord_value, s.ord_derivative)
                for s in steps]
        assert flat == [(0, 2, 1, 0), (1, 4, None, 0), (2, 8, None, 0)]


class TestSquareRootLift:
    def test_sqrt_of_three_plus_x(self):
        s, steps = lf.hensel_lift_verbose(sqrt_prob("x", "x^(1/2)"))
        c = rw.rw_add(rw.rw_from_int(3, B, R3), rw.embed_expr(B, R3, "x"))
        assert rw.rw_equal(rw.rw_mul(s, s), c, 8)
        assert str(rw.digit_expand(s, 1)) == "DIGITS[1]{x^(1/2)}"
        flat = [(t.index, t.window, t.ord_value, t.ord_derivative)
                for t in steps]
        assert flat == [(0, 2, None, 0), (1, 4, None, 0), (2, 8, None, 0)]

    def test_certified_orders_at_least_double(self):
        _, steps = lf.hensel_lift_verbose(sqrt_prob("x", "x^(1/2)"))
        # a None ord is a certificate that the order reached the window
        bounds = [s.window if s.ord_value is None else s.ord_value
                  for s in steps]
        for prev, cur in zip(bounds, bounds[1:]):
            assert cur >= min(2 * prev, 8)

    def test_sign_pair(self):
        s = lf.hensel_lift(sqrt_prob("x", "x^(1/2)"))
        t = lf.hensel_lift(sqrt_prob("x", "-x^(1/2)"))
        assert rw.rw_equal(t, rw.rw_neg(s), 8)

    def test_frobenius_permutes_square_roots(self):
        s = lf.hensel_lift(sqrt_prob("x", "x^(1/2)"))
        s3 = lf.hensel_lift(sqrt_prob("x^3", "x^(3/2)"))
        fs = rw.frobenius_pi(s, 1)
        assert rw.rw_equal(fs, s3, 8)
        assert not rw.rw_equal(fs, rw.rw_neg(s3), 8)

    def test_verbose_and_plain_agree(self):
        s = lf.hensel_lift(sqrt_prob("x", "x^(1/2)"))
        t, _ = lf.hensel_lift_verbose(sqrt_prob("x", "x^(1/2)"))
        assert rw.rw_equal(s, t, 8)
