import pytest

from wittforge import base_rings as br
from wittforge import cli_io as cli
from wittforge import lifting as lf
from wittforge import witt_ramified as rw
from wittforge.errors import (
    DerivativeNotUnit,
    MismatchError,
    NoConvergence,
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
R3_SPEC = "frac base=(ff p=3 e=1) vars=x depth_p=10 depth_2=1 laurent=true"
R3 = br.make_ring(R3_SPEC)


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


def full_inverse_lift(prob):
    """The Newton loop that inverts f'(r) from scratch on every step: the
    reference the carried inverse of hensel_lift_verbose is checked against."""
    N, coeffs = prob.target_precision, prob.coefficients
    deriv = lf.poly_derivative(coeffs)
    r, steps, window, prev_ord = prob.initial, [], 2, None
    for index in range(64):
        fr, dr = lf.poly_eval(coeffs, r), lf.poly_eval(deriv, r)
        o, do = rw.rw_ord(fr, limit=window), rw.rw_ord(dr, limit=1)
        steps.append(lf.LiftStep(index, window, o, do))
        assert do == 0
        if o is None and window >= N:
            return rw.rw_truncate(r, N), tuple(steps)
        assert o != 0 and (prev_ord is None or o is None
                           or o >= min(2 * prev_ord, window))
        prev_ord = window if o is None else o
        r = rw.rw_sub(r, rw.rw_mul(fr, rw.rw_inv(dr)))
        window = min(max(2 * window, 4), N)
    raise AssertionError("step budget exhausted")


def cli_problem(base, ring, poly, seed, precision):
    base, ring = cli.parse_base(base), br.make_ring(ring)
    return lf.make_hensel_problem(cli.parse_poly_x(base, ring, poly),
                                  rw.embed_expr(base, ring, seed), precision)


R2 = "frac base=(ff p=2 e=1) vars=x depth_p=10 depth_2=0 laurent=true"
UQ3 = "uq base=(ff p=3 e=1) var=T modulus=T^2+1"
UQ2 = "uq base=(ff p=2 e=1) var=T modulus=T^4"
E3 = "rw p=3 e=1 eis=(X^2-3) prec=8"
E2 = "rw p=2 e=1 eis=(X^2-2) prec=6"
E2_CUBE = "rw p=2 e=1 eis=(X^3-2) prec=6"

# (base, ring, polynomial, seed digit, N, residual order at the seed);
# order 2 is at least the first window, so its first step reads ord>=2
DIFFERENTIAL_CASES = [
    (E3, "ff p=3 e=1", "X^2-(1+pi)", "1", 8, 1),
    (E3, "ff p=3 e=1", "X^2+pi*X-(1+pi+p)", "1", 8, 2),
    (E3, "ff p=3 e=1", "X^3-X-pi^3", "1", 8, 3),
    (E3, R3_SPEC, "X^2-(x+pi)", "x^(1/2)", 8, 1),
    (E3, R3_SPEC, "X^2-(p+x)", "x^(1/2)", 6, 2),
    (E2, R2, "X^3-(pi+x^3)", "x", 6, 1),
    (E2_CUBE, R2, "X^3-(p*x+x^(-3))", "x^(-1)", 6, 3),
    (E3, UQ3, "X^2-(pi+T^2)", "T", 6, 1),
    (E3, UQ3, "X^2-(p+T^2)", "T", 6, 2),
    (E2, UQ2, "X^2+X-(pi+T^2+T)", "T", 6, 1),
    (E2, UQ2, "X^2+X-(p+T^2+T)", "T", 6, 2),
]


class TestCarriedInverse:
    @pytest.mark.parametrize("case", DIFFERENTIAL_CASES,
                             ids=lambda c: f"{c[1].split()[0]}:{c[2]}")
    def test_matches_the_full_inverse_loop(self, case):
        *spec, order = case
        prob = cli_problem(*spec)
        N = prob.target_precision
        assert rw.rw_ord(lf.poly_eval(prob.coefficients, prob.initial)) == order
        root, steps = lf.hensel_lift_verbose(prob)
        ref_root, ref_steps = full_inverse_lift(prob)
        assert steps == ref_steps
        assert root.precision == ref_root.precision == N
        # roots compare by value: their literals may differ in coordinates
        # that no certified digit reads
        assert rw.rw_equal(root, ref_root, N)
        assert str(rw.digit_expand(root, N)) == str(rw.digit_expand(ref_root, N))

    def test_no_step_inverts_from_scratch(self, monkeypatch):
        prob = sqrt_prob("x", "x^(1/2)")
        want = str(rw.digit_expand(full_inverse_lift(prob)[0], 8))

        def refuse(x):
            raise AssertionError("rw_inv called inside the Newton loop")

        monkeypatch.setattr(rw, "rw_inv", refuse)
        monkeypatch.setattr(rw, "_rw_inv", refuse)
        root, _ = lf.hensel_lift_verbose(prob)
        assert str(rw.digit_expand(root, 8)) == want

    def test_double_root_raises_derivative_not_unit(self):
        # X^2 at pi, built without make_hensel_problem's seed check: the
        # residue of f'(r) is 0, and the loop refuses before it inverts it
        zero, one = rw.rw_zero(B, F3), rw.rw_one(B, F3)
        prob = lf.HenselProblem((zero, zero, one), rw.rw_pi(B, F3), 8)
        with pytest.raises(DerivativeNotUnit, match="root not simple"):
            lf.hensel_lift_verbose(prob)

    def test_non_root_seed_raises_no_convergence(self):
        # X - (1+pi) at 0: f(0) is a unit, so the seed is no root mod pi
        c = rw.rw_add(rw.rw_one(B, F3), rw.rw_pi(B, F3))
        prob = lf.HenselProblem((rw.rw_neg(c), rw.rw_one(B, F3)),
                                rw.rw_zero(B, F3), 8)
        with pytest.raises(NoConvergence, match=r"f\(r\) is a unit"):
            lf.hensel_lift_verbose(prob)
