import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge import base_rings as br
from wittforge import witt_core as wc
from wittforge import witt_ramified as rw
from wittforge.errors import (
    DepthExhausted,
    MismatchError,
    NotAUnit,
    NotDivisible,
    NotEisenstein,
    SpecParseError,
    WittforgeError,
)

F2 = br.make_field(2, 1)
F3 = br.make_field(3, 1)
F4 = br.make_field(2, 2)
F5 = br.make_field(5, 1)

# E = X^2 - 3 over F_3, certified to 12 digits
B_SQ3 = rw.make_ramified_base(3, 1, 2, [-3, 0], 7)
# E = X^3 - 2 over F_2
B_CB2 = rw.make_ramified_base(2, 1, 3, [-2, 0, 0], 5)
# E = X^2 - 2 over F_4
B_SQ4 = rw.make_ramified_base(2, 2, 2, [-2, 0], 5)
# unramified comparison point
B_UNRAM = rw.make_ramified_base(3, 1, 1, [-3], 5)
# shallow twin of B_SQ3 for symbolic-coefficient work, where Witt length is
# the dominant cost (coordinate degrees grow like p^level)
B_SQ3E = rw.make_ramified_base(3, 1, 2, [-3, 0], 4)

PERF3 = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=3 depth_2=0 laurent=true")


def rand_rw(base, ring, rng):
    F = ring.base
    coords = tuple(
        wc.WittVector(ring, tuple(br.from_coeff(ring, br.random_coeff(F, rng))
                                  for _ in range(base.level)))
        for _ in range(base.f))
    return rw.RamifiedWitt(base, ring, coords, base.default_precision)


class TestEisensteinValidation:
    def test_square_root_base_accepted(self):
        assert B_SQ3.f == 2 and B_SQ3.q == 3
        assert B_SQ3.default_precision == 12

    def test_non_divisible_coefficient_rejected(self):
        with pytest.raises(NotEisenstein, match="e_1"):
            rw.make_ramified_base(3, 1, 2, [0, -1], 7)  # X^2 - X

    def test_constant_term_must_be_p_times_unit(self):
        with pytest.raises(NotEisenstein, match="square of the maximal ideal"):
            rw.make_ramified_base(3, 1, 2, [-9, 0], 7)  # X^2 - 9

    def test_bases_built_apart_hash_equal(self):
        # the base keeps each e_i mod p^level, its image in W_n(F_q): X^2 - 3
        # and X^2 + 81X + 240 agree mod 3^4, and e_0/p agrees mod 3^4 too
        a = rw.make_ramified_base(3, 1, 2, [-3, 0], 4)
        b = rw.make_ramified_base(3, 1, 2, [240, 81], 4)
        assert a is not b and a == b and a.eis == (78, 0)
        assert hash(a) == hash(b) and {a: 1}[b] == 1
        assert a.c == b.c == br.one(F3)
        assert rw.rw_pi(a, F3) == rw.rw_pi(b, F3)

    def test_constant_not_divisible(self):
        with pytest.raises(NotEisenstein, match="e_0"):
            rw.make_ramified_base(3, 1, 2, [-1, -3], 7)

    def test_parse_eisenstein(self):
        assert rw.parse_eisenstein("X^2-3") == (2, [-3, 0])
        assert rw.parse_eisenstein("X^3-2") == (3, [-2, 0, 0])
        assert rw.parse_eisenstein("X-3") == (1, [-3])
        with pytest.raises(NotEisenstein, match="monic"):
            rw.parse_eisenstein("2*X^2-3")

    def test_coefficients_are_integers(self):
        # parse_eisenstein reads integers; anything else, a Witt vector of
        # the right ring and length included, is refused as input (exit 2)
        for c in (wc.int_to_witt(-3, F3, 7), "-3", -3.0, None):
            with pytest.raises(SpecParseError, match="bad Eisenstein coefficient") as info:
                rw.make_ramified_base(3, 1, 2, [c, 0], 7)
            assert info.value.exit_code == 2

    @pytest.mark.parametrize("p,coeffs", [
        (2, [-2, 0]), (2, [2, 0]), (2, [-2, -2]), (2, [-2, 0, 0]), (3, [-3, 0]),
        (3, [3, 0]), (3, [-3, -3]), (3, [-3]), (5, [-35, 0]), (5, [10, 5]),
    ])
    def test_unit_is_the_integer_inverse(self, p, coeffs):
        # _ctx holds -(e_0/p)^-1 from the integer e_0/p mod p^level: times
        # -(e_0/p) it is 1 in W_n(A), over fields of degree 1 and 2 and over
        # frac and uq rings
        for ring in (f"ff p={p} e=1", f"ff p={p} e=2",
                     f"frac base=(ff p={p} e=1) vars=x depth_p=1 depth_2=0 laurent=true",
                     f"uq base=(ff p={p} e=2) var=T modulus=T^2"):
            ring = br.make_ring(ring)
            for level in (2, 4):
                base = rw.make_ramified_base(p, ring.base.e, len(coeffs), coeffs, level)
                assert base.unit == coeffs[0] // p % p ** level
                neg_u = wc.int_to_witt(-(coeffs[0] // p), ring, level)
                assert (wc.witt_mul(neg_u, rw._ctx(base, ring)[1])
                        == wc.witt_one(ring, level))


class TestUniformizer:
    def test_pi_squared_is_p(self):
        pi = rw.rw_pi(B_SQ3, F3)
        sq = rw.rw_mul(pi, pi)
        assert [str(w) for w in sq.coords] == ["W{0;1;0;0;0;0;0}",
                                               "W{0;0;0;0;0;0;0}"]
        assert rw.rw_equal(sq, rw.rw_from_int(3, B_SQ3, F3))

    def test_pi_cubed_is_two(self):
        pi = rw.rw_pi(B_CB2, F2)
        cb = rw.rw_mul(rw.rw_mul(pi, pi), pi)
        assert rw.rw_equal(cb, rw.rw_from_int(2, B_CB2, F2))

    def test_pi_squared_is_two_over_f4(self):
        pi = rw.rw_pi(B_SQ4, F4)
        assert rw.rw_equal(rw.rw_mul(pi, pi), rw.rw_from_int(2, B_SQ4, F4))

    def test_residue_of_pi_vanishes(self):
        assert rw.reduce_mod_pi(rw.rw_pi(B_SQ3, F3)).is_zero()

    def test_ord_values(self):
        pi = rw.rw_pi(B_SQ3, F3)
        one = rw.rw_one(B_SQ3, F3)
        assert rw.rw_ord(pi) == 1
        assert rw.rw_ord(rw.rw_from_int(3, B_SQ3, F3)) == 2
        assert rw.rw_ord(rw.rw_add(one, pi)) == 0
        assert rw.rw_ord(rw.rw_zero(B_SQ3, F3)) is None

    def test_mul_pi_fast_path_matches_mul(self):
        rng = random.Random(11)
        pi = rw.rw_pi(B_SQ3, F3)
        for _ in range(10):
            x = rand_rw(B_SQ3, F3, rng)
            assert rw.rw_equal(rw.rw_mul_pi(x), rw.rw_mul(x, pi))


class TestArithmetic:
    def test_ring_laws_random(self):
        rng = random.Random(5)
        for base, ring in [(B_SQ3, F3), (B_CB2, F2), (B_SQ4, F4)]:
            one = rw.rw_one(base, ring)
            for _ in range(8):
                x = rand_rw(base, ring, rng)
                y = rand_rw(base, ring, rng)
                z = rand_rw(base, ring, rng)
                assert rw.rw_equal(rw.rw_add(x, y), rw.rw_add(y, x))
                assert rw.rw_equal(rw.rw_mul(x, y), rw.rw_mul(y, x))
                assert rw.rw_equal(rw.rw_mul(x, rw.rw_add(y, z)),
                                   rw.rw_add(rw.rw_mul(x, y), rw.rw_mul(x, z)))
                assert rw.rw_equal(rw.rw_mul(rw.rw_mul(x, y), z),
                                   rw.rw_mul(x, rw.rw_mul(y, z)))
                assert rw.rw_equal(rw.rw_mul(x, one), x)
                assert rw.rw_is_zero(rw.rw_sub(x, x))

    def test_unknown_op_is_refused_before_any_work(self):
        rng = random.Random(6)
        x, y = rand_rw(B_SQ3, F3, rng), rand_rw(B_CB2, F2, rng)
        with pytest.raises(SpecParseError, match="^unknown op 'frob'$"):
            rw.rw_arith("frob", x)
        # y lives over another base, which only a known op would notice
        with pytest.raises(SpecParseError, match="^unknown op 'sub'$"):
            rw.rw_arith("sub", x, y)

    def test_operator_sugar(self):
        pi = rw.rw_pi(B_SQ3, F3)
        one = rw.rw_one(B_SQ3, F3)
        assert pi + one == one + pi
        assert pi * pi == rw.rw_from_int(3, B_SQ3, F3)
        assert pi - pi == rw.rw_zero(B_SQ3, F3)
        assert -(-pi) == pi

    def test_precision_min_rule(self):
        x = rw.rw_truncate(rw.rw_pi(B_SQ3, F3), 9)
        y = rw.rw_truncate(rw.rw_one(B_SQ3, F3), 4)
        assert rw.rw_add(x, y).precision == 4
        assert rw.rw_mul(x, y).precision == 4

    def test_mismatched_bases_rejected(self):
        with pytest.raises(MismatchError):
            rw.rw_add(rw.rw_one(B_SQ3, F3), rw.rw_one(B_UNRAM, F3))

    def test_mismatched_coefficient_field_rejected(self):
        with pytest.raises(MismatchError):
            rw.rw_zero(B_SQ3, F2)

    def test_inverse_newton(self):
        rng = random.Random(7)
        for base, ring in [(B_SQ3, F3), (B_CB2, F2), (B_SQ4, F4)]:
            one = rw.rw_one(base, ring)
            pi = rw.rw_pi(base, ring)
            hits = 0
            while hits < 6:
                x = rand_rw(base, ring, rng)
                if rw.reduce_mod_pi(x).is_zero():
                    continue
                hits += 1
                assert rw.rw_equal(rw.rw_mul(x, rw.rw_inv(x)), one)
            assert rw.rw_equal(rw.rw_mul(rw.rw_inv(one + pi), one + pi), one)

    def test_non_unit_rejected(self):
        with pytest.raises(NotAUnit):
            rw.rw_inv(rw.rw_pi(B_SQ3, F3))

    def test_bases_built_apart_hash_equal(self):
        # a base keeps its hash after the first call; one built apart, here
        # from integers congruent mod 3^4, must hash the same and hit _ctx
        twin = rw.make_ramified_base(3, 1, 2, [-3 - 3 ** 5, 3 ** 4], 4)
        assert twin is not B_SQ3E and twin == B_SQ3E
        assert hash(twin) == hash(B_SQ3E) == hash(B_SQ3E)
        assert rw._ctx(twin, F3) is rw._ctx(B_SQ3E, F3)

    def test_context_memo_is_bounded(self):
        bound = rw._ctx.cache_info().maxsize
        for idx in range(bound + 1):  # one base, distinct uq rings over F_3
            a, b, c, d = br._digits(idx, 3, 4)
            ring = br.make_ring("uq base=(ff p=3 e=1) var=T "
                                f"modulus=T^4+{a}*T^3+{b}*T^2+{c}*T+{d}")
            rw._ctx(B_SQ3E, ring)
        assert rw._ctx.cache_info().currsize == bound


class TestPrecisionGate:
    """N never exceeds what the Witt length certifies: (level-1)*f digits."""

    def zeros(self, base):
        return tuple(wc.witt_zero(F3, base.level) for _ in range(base.f))

    def test_ramified_value_refuses_uncertified_precision(self):
        top = B_SQ3.default_precision
        for n in (top + 1, B_SQ3.f * B_SQ3.level, -1):
            with pytest.raises(SpecParseError) as info:
                rw.RamifiedWitt(B_SQ3, F3, self.zeros(B_SQ3), n)
            assert str(info.value) == f"N={n} outside 0..{top} for this base"
        for n in (0, top):
            assert rw.RamifiedWitt(B_SQ3, F3, self.zeros(B_SQ3), n).precision == n

    def test_ramified_value_refuses_a_ring_off_the_base(self):
        with pytest.raises(MismatchError, match="does not extend"):
            rw.RamifiedWitt(B_SQ3, F2, tuple(wc.witt_zero(F2, 7) for _ in range(2)), 4)

    def test_digit_expansion_refuses_uncertified_digits(self):
        # so neither assembly, closed form or Horner's rule, sees such a string
        top = B_SQ3E.default_precision
        with pytest.raises(SpecParseError) as info:
            rw.DigitExpansion(B_SQ3E, F3, (br.one(F3),) * (top + 1))
        assert str(info.value) == f"N={top + 1} outside 0..{top} for this base"
        with pytest.raises(MismatchError):
            rw.DigitExpansion(B_SQ3E, F2, ())
        d = rw.DigitExpansion(B_SQ3E, F3, (br.one(F3),) * top)
        got, want = rw.digits_assemble(d), rw._horner_assemble(d)
        assert (got.coords, got.precision) == (want.coords, want.precision)

    def test_truncate_only_lowers(self):
        x = rw.rw_add(rw.rw_one(B_SQ3, F3), rw.rw_pi(B_SQ3, F3))
        y = rw.rw_truncate(x, 3)
        assert (y.coords, y.precision) == (x.coords, 3)
        assert rw.rw_truncate(y, 0).precision == 0
        for n in (4, -1):
            with pytest.raises(NotDivisible) as info:
                rw.rw_truncate(y, n)
            assert str(info.value) == f"requested {n} digits but only 3 are certified"
        with pytest.raises(NotDivisible, match="requested -1 digits"):
            rw.digit_expand(x, -1)

    def test_constructors_and_operations_keep_full_precision(self):
        top = B_SQ3E.default_precision
        vals = [rw.rw_zero(B_SQ3E, F3), rw.rw_one(B_SQ3E, F3), rw.rw_pi(B_SQ3E, F3),
                rw.rw_from_int(5, B_SQ3E, F3), rw.teich_embed(br.one(F3), B_SQ3E),
                rw.embed_expr(B_SQ3E, F3, "1+pi"),
                rw.twisted_product(B_SQ3E, F3, "2+pi", 1),
                rw.rw_inv(rw.rw_from_int(2, B_SQ3E, F3))]
        assert [v.precision for v in vals] == [top] * len(vals)
        assert rw.rw_inv(rw.rw_truncate(vals[1], 3)).precision == 3


class TestFormat:
    def test_str_of_a_ramified_value(self):
        # the literal ``RW[N=..]{ W{..} | W{..} }`` that readers of printed
        # values (the benchmark's digit checks among them) parse
        ring = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=0 "
                            "laurent=false")
        z = br.zero(ring)
        slots = (wc.WittVector(ring, (br.evaluate(ring, "x^(1/3)+2"), z,
                                      br.evaluate(ring, "x^2"), br.one(ring))),
                 wc.WittVector(ring, (z, z, z, br.evaluate(ring, "2*x"))))
        x = rw.RamifiedWitt(B_SQ3E, ring, slots, 5)
        assert str(x) == "RW[N=5]{ W{x^(1/3)+2;0;x^2;1} | W{0;0;0;2*x} }"
        base4 = rw.make_ramified_base(2, 2, 2, [-2, 0], 3)
        y = rw.RamifiedWitt(base4, F4, (wc.make_witt(F4, [br.evaluate(F4, "u"), 0, 1]),
                                        wc.witt_zero(F4, 3)), 0)
        assert str(y) == "RW[N=0]{ W{u;0;1} | W{0;0;0} }"


class TestResidueAndDivision:
    def test_reduce_is_a_homomorphism(self):
        rng = random.Random(13)
        for _ in range(12):
            x = rand_rw(B_SQ4, F4, rng)
            y = rand_rw(B_SQ4, F4, rng)
            assert rw.reduce_mod_pi(rw.rw_add(x, y)) == (
                rw.reduce_mod_pi(x) + rw.reduce_mod_pi(y))
            assert rw.reduce_mod_pi(rw.rw_mul(x, y)) == (
                rw.reduce_mod_pi(x) * rw.reduce_mod_pi(y))

    def test_divide_then_multiply_round_trips(self):
        rng = random.Random(17)
        pi = rw.rw_pi(B_SQ3, F3)
        for _ in range(10):
            x = rw.rw_mul_pi(rand_rw(B_SQ3, F3, rng))
            y = rw.divide_by_pi(x)
            assert y.precision == x.precision - 1
            assert rw.rw_equal(rw.rw_mul(pi, y), x)

    def test_kernel_of_residue_is_pi(self):
        # divisibility by pi succeeds exactly on the kernel of the residue map
        rng = random.Random(19)
        seen_both = set()
        for _ in range(40):
            x = rand_rw(B_CB2, F2, rng)
            divisible = rw.reduce_mod_pi(x).is_zero()
            seen_both.add(divisible)
            if divisible:
                rw.divide_by_pi(x)
            else:
                with pytest.raises(NotDivisible):
                    rw.divide_by_pi(x)
        assert seen_both == {True, False}

    def test_divide_needs_certified_digits(self):
        x = rw.rw_truncate(rw.rw_zero(B_SQ3, F3), 0)
        with pytest.raises(NotDivisible):
            rw.divide_by_pi(x)


class TestDigits:
    def test_digits_of_p(self):
        d = rw.digit_expand(rw.rw_from_int(3, B_SQ3, F3), 5)
        assert str(d) == "DIGITS[5]{0;0;1;0;0}"

    def test_digits_of_p_cubic_base(self):
        d = rw.digit_expand(rw.rw_from_int(2, B_CB2, F2), 7)
        assert str(d) == "DIGITS[7]{0;0;0;1;0;0;0}"

    def test_digits_of_one_plus_pi(self):
        x = rw.rw_add(rw.rw_one(B_SQ3, F3), rw.rw_pi(B_SQ3, F3))
        assert str(rw.digit_expand(x, 4)) == "DIGITS[4]{1;1;0;0}"

    def test_teichmueller_digit_string(self):
        a = br.from_int(F3, 2)
        d = rw.digit_expand(rw.teich_embed(a, B_SQ3), 4)
        assert str(d) == "DIGITS[4]{2;0;0;0}"

    def test_round_trip_full_precision(self):
        # the closed forms against the division walk and Horner's rule
        rng = random.Random(23)
        for base, ring in [(B_SQ3, F3), (B_CB2, F2), (B_SQ4, F4)]:
            for _ in range(5):
                x = rand_rw(base, ring, rng)
                n = base.default_precision
                d = rw.digit_expand(x, n)
                assert d == rw._digit_walk(x, n)
                back = rw.digits_assemble(d)
                assert back.coords == rw._horner_assemble(d).coords
                assert rw.rw_equal(back, x, n)

    def test_digits_are_unique(self):
        # re-expanding the assembled value reproduces the digit string
        rng = random.Random(29)
        x = rand_rw(B_SQ3, F3, rng)
        d = rw.digit_expand(x, 10)
        assert d == rw._digit_walk(x, 10)
        back = rw._horner_assemble(d)
        assert rw._digit_walk(back, 10).digits == d.digits
        assert rw.digit_expand(back, 10).digits == d.digits

    def test_cannot_ask_for_uncertified_digits(self):
        x = rw.rw_truncate(rw.rw_pi(B_SQ3, F3), 3)
        with pytest.raises(NotDivisible):
            rw.digit_expand(x, 4)


def _shallow_case(depth_p, coords0):
    """X^2 - 3 over a frac ring whose p-th roots run out at depth_p."""
    ring = br.make_ring(
        f"frac base=(ff p=3 e=1) vars=x depth_p={depth_p} depth_2=0 laurent=false")
    slot0 = tuple(br.evaluate(ring, c) for c in coords0)
    zero = wc.witt_zero(ring, 4)
    return rw.RamifiedWitt(B_SQ3E, ring, (wc.WittVector(ring, slot0), zero), 6)


class TestWalkRefusals:
    """The digit walk's refusals, recorded from the walk itself."""

    ROOT_1 = ("p-th root of exponent 1 leaves the lattice "
              "(denominator 3 does not divide 1)")
    ROOT_1_3 = ("p-th root of exponent 1/3 leaves the lattice "
                "(denominator 9 does not divide 3)")

    def test_digit_expand_runs_out_of_roots(self):
        # slot 0 = W{1;0;x;0}: coordinate 2 carries digit 4, so five or more
        # digits root x twice; fewer do not read it, and its missing root
        # (digit 4 >= N) refuses nothing
        for depth, msg in ((0, self.ROOT_1), (1, self.ROOT_1_3)):
            x = _shallow_case(depth, ("1", "0", "x", "0"))
            for n in (5, 6):
                with pytest.raises(DepthExhausted) as info:
                    rw.digit_expand(x, n)
                assert str(info.value) == msg
            assert [str(rw.digit_expand(x, n)) for n in (2, 4)] == \
                ["DIGITS[2]{1;0}", "DIGITS[4]{1;0;0;0}"]

    def test_rw_ord_runs_out_of_roots(self):
        # slot 0 = W{0;0;x;0} has order 4; the walk roots x at each division.
        # Coordinate 2 carries digit 4, so a limit of 5 or more reads it and
        # refuses; rw_ord truncates to its limit first, so below 5 no digit
        # reads it and the order is None (0 mod pi^limit)
        for depth, limit, msg in ((0, None, self.ROOT_1), (0, 5, self.ROOT_1),
                                  (1, None, self.ROOT_1_3), (1, 5, self.ROOT_1_3)):
            x = _shallow_case(depth, ("0", "0", "x", "0"))
            with pytest.raises(DepthExhausted) as info:
                rw.rw_ord(x, limit)
            assert str(info.value) == msg
        for depth in (0, 1):
            x = _shallow_case(depth, ("0", "0", "x", "0"))
            for limit in (2, 3, 4):
                assert rw.rw_ord(x, limit) is None
                assert rw._ord_walk(rw.rw_truncate(x, limit), limit) is None
        assert rw.rw_ord(_shallow_case(0, ("1", "0", "x", "0"))) == 0

    def test_more_digits_than_certified(self):
        with pytest.raises(NotDivisible) as info:
            rw.digit_expand(_shallow_case(1, ("1", "0", "x", "0")), 7)
        assert str(info.value) == "requested 7 digits but only 6 are certified"


B_PLUS3 = rw.make_ramified_base(3, 1, 2, [3, 0], 4)  # X^2 + 3: c = -1
LAUR3 = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true")
UQ3 = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1")
# non-reduced rings at p = 2, where many coordinates (guard ones among them,
# with f*i + j >= N) have no square root: dilation decides roots on T^4, the
# linear solve on T^3+T^2
B_SQ2 = rw.make_ramified_base(2, 1, 2, [-2, 0], 4)
UQ2_NIL = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^4")
UQ2_MIX = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^3+T^2")
CLOSED_CASES = [
    (B_SQ3E, F3), (B_PLUS3, F3), (B_UNRAM, F3), (B_CB2, F2), (B_SQ4, F4),
    (B_PLUS3, LAUR3), (rw.make_ramified_base(3, 1, 2, [-3, 0], 3), LAUR3),
    (B_SQ3E, UQ3), (B_SQ2, UQ2_NIL), (B_SQ2, UQ2_MIX),
]
EXAMPLES = 120


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WittforgeError as exc:
        return type(exc), str(exc)


def _rand_coord(ring, rng):
    if rng.random() < 0.4:
        return br.zero(ring)
    return br.random_element(ring, rng, max_terms=2, exp_bound=2,
                             denom_depth=getattr(ring, "depth_p", 0))


def _rand_element(case, seed, prec):
    base, ring = CLOSED_CASES[case]
    rng = random.Random(seed)
    coords = tuple(wc.WittVector(ring, tuple(_rand_coord(ring, rng)
                                             for _ in range(base.level)))
                   for _ in range(base.f))
    return rw.RamifiedWitt(base, ring, coords, prec % (base.default_precision + 1))


def _witt_shape_c(base, coeffs):
    """c read off the Witt images (from the ghost oracle) of the integer
    coefficients: E = X^f - p*[c] when e_1..e_{f-1} vanish in W_n(F_q) and
    -e_0 = (0, c^p, 0, ...), so c is one inverse Frobenius of coordinate 1
    of witt_neg of e_0's image; else None."""
    F, n = base.field, base.level

    def image(m):
        return wc.WittVector(F, tuple(br.from_int(F, c)
                                      for c in wc.from_ghost((m,) * n, base.p)))

    neg = wc.witt_neg(image(coeffs[0])).coords
    if (all(wc.witt_is_zero(image(c)) for c in coeffs[1:])
            and all(a.is_zero() for a in neg[:1] + neg[2:])):
        return br.frobenius(neg[1], -1)
    return None


class TestClosedForm:
    """E = X^f - p*[c]: the closed forms against the walk and Horner's rule.

    Each property runs EXAMPLES derandomized examples.  Coordinates are zero
    with probability 0.4, so orders above 0 are common, and frac coordinates
    carry p-power denominators up to depth_p, so some walks refuse.
    """

    def test_shape_detection(self):
        for base, _ in CLOSED_CASES:
            assert base.c is not None
        assert B_SQ3.c == br.one(F3)
        assert B_PLUS3.c == br.from_int(F3, 2)
        # X^2 + 2 at p = 2: -e_0 = -2 = (0, 1, 1, ...) is p times a unit that is
        # not a Teichmueller lift; X^2 - 3X - 3 has a middle coefficient
        assert rw.make_ramified_base(2, 1, 2, [2, 0], 4).c is None
        assert rw.make_ramified_base(2, 1, 2, [-2, -2], 4).c is None
        assert rw.make_ramified_base(3, 1, 2, [-3, -3], 4).c is None
        # X^2 - 35 at p = 5: 35 = 5*[2] mod 5^3, since [2] = 2^5 = 7 mod 25
        assert rw.make_ramified_base(5, 1, 2, [-35, 0], 3).c == br.from_int(F5, 2)
        assert "c=" not in repr(B_PLUS3)

    @given(st.sampled_from((2, 3, 5)), st.integers(1, 2), st.integers(1, 3),
           st.integers(2, 5), st.integers(0, 2 ** 32))
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    def test_shape_from_integers_matches_witt_reference(self, p, e, f, level, seed):
        """c, found from the integers alone, against the Witt reading
        (_witt_shape_c) over random coefficients at levels 2-5.  Half the
        draws plant X^f - p*[c]: EXAMPLES derandomized examples."""
        rng = random.Random(seed)
        pn = p ** level
        # e_0 = -p*u with u a unit: a Teichmueller lift mod p^level, moved
        # by p^(level-1) (still the shape) or p^(level-2) (off it), or any
        planted = rng.random() < 0.5
        if planted:
            shifts = [0, pn // p] + ([pn // p ** 2] if level > 2 else [])
            u = pow(rng.randrange(1, p), pn // p, pn) + rng.choice(shifts)
        else:
            u = rng.randrange(1, pn) * p + rng.randrange(1, p)
        coeffs = [-p * u * rng.choice((1, 1 + pn))] + [
            p * rng.randrange(-9, 10) * (pn // p if planted else rng.choice((1, p)))
            for _ in range(f - 1)]
        base = rw.make_ramified_base(p, e, f, coeffs, level)
        assert base.c == _witt_shape_c(base, coeffs)

    @pytest.mark.parametrize("e", [1, 2])
    @pytest.mark.parametrize("level", [2, 3, 4, 5])
    def test_shape_of_named_bases(self, level, e):
        # (p, e_0, c): X^2 - 3 and X^2 + 3 (c = -1); X^2 - 2 and X^2 + 2 at
        # p = 2, where -1 = 1 mod 2 but is no Teichmueller lift mod 4; and
        # X^2 - 35 at p = 5: 35 = 5*[2] mod 5^3, since [2] = 2^5 = 7 mod 25,
        # but 2^25 = 57 mod 125
        for p, e0, c in ((3, -3, 1), (3, 3, -1), (2, -2, 1),
                         (2, 2, 1 if level == 2 else None),
                         (5, -35, 2 if level <= 3 else None)):
            base = rw.make_ramified_base(p, e, 2, [e0, 0], level)
            assert base.c == _witt_shape_c(base, [e0, 0])
            assert base.c == (None if c is None else br.from_int(base.field, c))

    @given(st.integers(0, len(CLOSED_CASES) - 1), st.integers(0, 2 ** 32),
           st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    def test_digit_expand_matches_walk(self, case, seed, prec, want):
        x = _rand_element(case, seed, prec)
        want = min(want, x.precision)
        assert _outcome(rw.digit_expand, x, want) == _outcome(rw._digit_walk, x, want)

    @given(st.integers(0, len(CLOSED_CASES) - 1), st.integers(0, 2 ** 32),
           st.integers(0, 40), st.integers(-1, 17))
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    def test_rw_ord_matches_walk(self, case, seed, prec, limit):
        # rw_ord truncates to its bound first, so the walk runs at that bound
        x = _rand_element(case, seed, prec)
        bound = max(0, min(limit, x.precision))
        assert _outcome(rw.rw_ord, x, limit) == \
            _outcome(rw._ord_walk, rw.rw_truncate(x, bound), bound)

    @given(st.integers(0, len(CLOSED_CASES) - 1), st.integers(0, 2 ** 32),
           st.integers(0, 17))
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    def test_digits_assemble_matches_horner(self, case, seed, count):
        base, ring = CLOSED_CASES[case]
        rng = random.Random(seed)
        count %= base.default_precision + 1
        d = rw.DigitExpansion(base, ring, tuple(_rand_coord(ring, rng)
                                                for _ in range(count)))
        got, want = rw.digits_assemble(d), rw._horner_assemble(d)
        assert (got.coords, got.precision) == (want.coords, want.precision)

    def test_closed_forms_skip_the_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("walk taken")
        for name in ("_digit_walk", "_ord_walk", "_horner_assemble"):
            monkeypatch.setattr(rw, name, refuse)
        x = rand_rw(B_PLUS3, F3, random.Random(3))
        d = rw.digit_expand(x)
        assert rw.rw_equal(rw.digits_assemble(d), x)

    def test_other_shapes_stay_on_the_walk(self, monkeypatch):
        taken = []

        def spy(name, fn):
            def call(*args):
                taken.append(name)
                return fn(*args)
            return call

        for name in ("_digit_walk", "_ord_walk", "_horner_assemble"):
            monkeypatch.setattr(rw, name, spy(name, getattr(rw, name)))
        rng = random.Random(5)
        for base, ring in ((rw.make_ramified_base(2, 1, 2, [2, 0], 4), F2),
                           (rw.make_ramified_base(3, 1, 2, [-3, -3], 4), F3)):
            x = rand_rw(base, ring, rng)
            rw.digits_assemble(rw.digit_expand(x))
            rw.rw_ord(x)
        assert taken == ["_digit_walk", "_horner_assemble", "_ord_walk"] * 2

    def test_walk_guard_coordinate_at_p2(self):
        # For an integer e_0 the walk's unit -(e_0/p)^-1 is exact: [1] for
        # X^2 - 2, with no junk in the guard coordinate (a unit formed from
        # e_0/p at fixed length would be W{1;0;0;1} and leave T there, which
        # has no square root on its representative).  So the walk reads the
        # digits of x = 2*[T] over F_2[T]/(T^3+T+1) as the closed form does.
        ring = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^3+T+1")
        base = rw.make_ramified_base(2, 1, 2, [-2, 0], 4)
        assert rw._ctx(base, ring)[1] == wc.witt_one(ring, 4)
        z, t2 = br.zero(ring), br.evaluate(ring, "T^2")
        x = rw.RamifiedWitt(base, ring, (wc.WittVector(ring, (z, t2, z, z)),
                                         wc.witt_zero(ring, 4)), 6)
        assert str(rw.digit_expand(x, 3)) == "DIGITS[3]{0;0;T}"
        assert rw.rw_equal(x, rw.rw_mul(rw.rw_from_int(2, base, ring),
                                        rw.teich_embed(br.variable(ring, "T"), base)))
        for n in range(7):
            assert rw._digit_walk(x, n) == rw.digit_expand(x, n)

    def test_routes_take_the_same_iterated_roots(self):
        # digit 4 of slot 0 = W{0;0;T^2;0} over F_2[T]/(T^3+T^2) is a fourth
        # root of T^2, and T^2 = T^4 has one; but the walk roots one square
        # root at a time, dilation takes T^2 to T, and T is no square.  The
        # closed form takes the same roots, so both routes give one outcome
        z, t2 = br.zero(UQ2_MIX), br.evaluate(UQ2_MIX, "T^2")
        x = rw.RamifiedWitt(B_SQ2, UQ2_MIX, (wc.WittVector(UQ2_MIX, (z, z, t2, z)),
                                             wc.witt_zero(UQ2_MIX, 4)), 6)
        for n in range(7):
            assert _outcome(rw.digit_expand, x, n) == _outcome(rw._digit_walk, x, n)
        assert _outcome(rw.rw_ord, x, None) == _outcome(rw._ord_walk, x, 6)

    @pytest.mark.parametrize("ring", [UQ2_NIL, UQ2_MIX])
    def test_guard_coordinate_root_is_not_needed(self, ring):
        # coordinate 3 of slot 1 carries digit 2*3 + 1 = 7 >= N = 5: no
        # certified digit reads it, so its missing square root (T has none
        # here) refuses nothing, and the value equals the one with top 0
        z, t = br.zero(ring), br.variable(ring, "T")

        def value(top):
            return rw.RamifiedWitt(B_SQ2, ring, (wc.witt_zero(ring, 4),
                                                 wc.WittVector(ring, (t, z, z, top))), 5)

        x, x0 = value(t), value(z)
        assert str(rw.digit_expand(x)) == str(rw.digit_expand(x0)) == "DIGITS[5]{0;T;0;0;0}"
        assert rw._digit_walk(x, 5) == rw.digit_expand(x)
        assert rw.rw_equal(x, x0)


def counted_inverse(x):
    """The reference: a counted Newton inverse, ceil(log2 N) rounds of
    y <- y*(2 - x*y) from the Teichmueller seed, with no order test."""
    y = rw.teich_embed(br.invert(rw.reduce_mod_pi(x)), x.base)
    two = rw.rw_from_int(2, x.base, x.ring)
    correct = 1
    while correct < max(x.precision, 1):
        y = rw.rw_mul(y, rw.rw_sub(two, rw.rw_mul(x, y)))
        correct *= 2
    return rw.rw_truncate(y, x.precision)


B_SQ3X = rw.make_ramified_base(3, 1, 2, [-3, -3], 4)  # X^2 - 3X - 3: c is None
B_PLUS2 = rw.make_ramified_base(2, 1, 2, [2, 0], 4)  # X^2 + 2: c is None
UQ8 = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^3+T+1")
LAUR2 = br.make_ring("frac base=(ff p=2 e=1) vars=x depth_p=3 depth_2=0 laurent=true")
INV_CASES = [(base, ring) for bases, rings in (
    ((B_SQ3E, B_PLUS3, B_SQ3X), (F3, UQ3, LAUR3)),
    ((B_SQ2, B_PLUS2), (F2, UQ8, LAUR2))) for base in bases for ring in rings]


def _rand_unit(base, ring, rng):
    """A unit with random digits below the full precision: digit 0 a nonzero
    monomial, the rest random elements with integer exponents."""
    while True:
        digits = [br.random_element(ring, rng, max_terms=2, exp_bound=2)
                  for _ in range(base.default_precision)]
        if br.is_monomial(digits[0]):
            return rw.digits_assemble(rw.DigitExpansion(base, ring, tuple(digits)))


class TestSharedInverse:
    """rw_inv runs refine_inverse, which stops when rw_ord certifies the
    error, against the counted loop."""

    @pytest.mark.parametrize("case", range(len(INV_CASES)))
    def test_matches_the_counted_loop(self, case):
        base, ring = INV_CASES[case]
        f, rng = base.f, random.Random(case)
        for _ in range(3):
            x = _rand_unit(base, ring, rng)
            for n in (0, 1, base.default_precision):
                xn = rw.rw_truncate(x, n)
                got, ref = rw.rw_inv(xn), counted_inverse(xn)
                assert got.precision == ref.precision == n
                assert rw.rw_equal(got, ref)
                assert str(rw.digit_expand(got)) == str(rw.digit_expand(ref))
                # a literal may differ only where no certified digit reads it
                assert all(a.coords[i] == b.coords[i]
                           for j, (a, b) in enumerate(zip(got.coords, ref.coords))
                           for i in range(base.level) if f * i + j < n)
                if n <= 1:
                    seed = rw.teich_embed(br.invert(rw.reduce_mod_pi(x)), base)
                    assert str(got) == str(rw.rw_truncate(seed, n))

    def test_unit_whose_error_has_no_digits(self):
        # [x] + V[x] over a frac ring with no p-th roots: err = 1 - x*[1/x]
        # is -V[x^-2], residue 0 but no multiple of pi, so its order walk
        # refuses; the refinement goes on and inverts x as the counted loop did
        ring = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 "
                            "laurent=true")
        t, z = br.variable(ring, "x"), br.zero(ring)
        x = rw.RamifiedWitt(B_SQ3X, ring, (wc.WittVector(ring, (t, t, z, z)),
                                           wc.witt_zero(ring, 4)), 6)
        err = rw.rw_sub(rw.rw_one(B_SQ3X, ring),
                        rw.rw_mul(x, rw.teich_embed(br.invert(t), B_SQ3X)))
        with pytest.raises(DepthExhausted):
            rw.rw_ord(err)
        y = rw.rw_inv(x)
        assert str(y) == str(counted_inverse(x))
        assert rw.rw_equal(rw.rw_mul(x, y), rw.rw_one(B_SQ3X, ring))

    def test_refusals_hold_for_a_carried_image(self):
        # V[x] = ([x] + V[x]) - [x] is a strict-route result, so slot 0
        # holds only its image in W_4(A^perf), where V[x] = 3 [x^(1/3)] is a
        # multiple of pi; the order still reads the coordinates, and x has
        # no cube root in A
        ring = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 "
                            "laurent=true")
        t, z = br.variable(ring, "x"), br.zero(ring)
        v = wc.witt_add(wc.WittVector(ring, (t, t, z, z)), wc.WittVector(ring, (-t, z, z, z)))
        assert v._coords is None
        x = rw.RamifiedWitt(B_SQ3E, ring, (v, wc.witt_zero(ring, 4)), 6)
        with pytest.raises(DepthExhausted, match="exponent 1 leaves the lattice"):
            rw.rw_is_zero(x)
        with pytest.raises(DepthExhausted, match="exponent 1 leaves the lattice"):
            rw.rw_equal(x, rw.rw_zero(B_SQ3E, ring))
        assert v.coords == (z, t, z, z)

    def test_non_unit_keeps_its_message(self):
        with pytest.raises(NotAUnit, match="^not a unit mod pi: "):
            rw.refine_inverse(rw.rw_pi(B_SQ3X, F3), None, 6)


def _ord_by_coordinates(x, limit=None):
    """rw_ord as it was before the image path, kept as the oracle: truncate
    to the bound, read the first nonzero coordinate and check its roots on
    E = X^f - p*[c], else walk the digits."""
    bound = max(0, x.precision if limit is None else min(limit, x.precision))
    x = rw.rw_truncate(x, bound)
    if x.base.c is not None:
        f = x.base.f
        k = next((k for k in range(bound)
                  if not x.coords[k % f].coords[k // f].is_zero()), None)
        if rw._walk_roots(x, bound if k is None else k) is not None:
            return k
    return rw._ord_walk(x, bound)


def _frac(spec):
    return br.make_ring(f"frac base=({spec[0]}) vars={spec[1]} depth_p={spec[2]} "
                        f"depth_2={spec[3]} laurent={spec[4]}")


# strict-route rings: p = 2, 3, 5, F_4 and F_9, Laurent or not, depth_2 0 and
# 1, one and two variables; the first is 5i's ring, with no p-th roots
IMAGE_RINGS = {p: [_frac(s) for s in specs] for p, specs in {
    (3, 1): [("ff p=3 e=1", "x", 0, 0, "true"), ("ff p=3 e=1", "x,y", 1, 1, "false"),
             ("ff p=3 e=1", "x", 2, 0, "true")],
    (2, 1): [("ff p=2 e=1", "x", 1, 0, "false"), ("ff p=2 e=1", "x,y", 0, 1, "true")],
    (5, 1): [("ff p=5 e=1", "x", 1, 1, "true")],
    (2, 2): [("ff p=2 e=2", "x", 1, 0, "true")],
    (3, 2): [("ff p=3 e=2", "x,y", 0, 1, "false")],
}.items()}
# f = 1-3, c = 1 and c = -1 (X^2 - 6 at level 2, X^2 + 3, X^2 - 24), and one
# base off the shape, which never takes the image path
IMAGE_BASES = [(p, e, E, level) for p, e, bases in (
    (3, 1, (([-3], 4), ([-6, 0], 2), ([3, 0], 4), ([-24, 0], 3), ([-3, 0, 0], 3),
            ([-3, -3], 3))),
    (2, 1, (([-2], 4), ([-2, 0], 4), ([-2, 0, 0], 3))),
    (5, 1, (([-5], 3), ([-35, 0], 3))),
    (2, 2, (([-2, 0], 3),)),
    (3, 2, (([3, 0], 3), ([-3, 0, 0], 2))),
) for E, level in bases]
IMAGE_CASES = [(rw.make_ramified_base(p, e, len(E), E, level), ring)
               for p, e, E, level in IMAGE_BASES for ring in IMAGE_RINGS[p, e]]


def _rand_monomial(ring, rng):
    """A random term of ring, its exponents anywhere in the ring's lattice."""
    F, parts = ring.base, []
    for v in ring.variables:
        den = F.p ** rng.randint(0, ring.depth_p) * 2 ** rng.randint(0, ring.depth_2)
        num = rng.randint(-3 if ring.laurent else 0, 3)
        parts.append(f"{v}^({num}/{den})")
    while not any(c := br.random_coeff(F, rng)):
        pass
    return br.mul(br.evaluate(ring, "*".join(parts)), br.from_coeff(ring, c))


def _rand_ring_element(ring, rng, terms):
    out = br.zero(ring)
    for _ in range(terms):
        out = br.add(out, _rand_monomial(ring, rng))
    return out


def _rand_atom(base, ring, rng):
    """A value built from coordinates: a lifted monomial, alone or times pi
    (images in Z_q[M]); the lift of a two-term sum, an integer, pi, zero; or
    random monomial coordinates, whose images leave Z_q[M] wherever a
    coordinate above the zeroth is nonzero."""
    kind = rng.randrange(18)
    if kind < 6:
        return rw.teich_embed(_rand_monomial(ring, rng), base)
    if kind < 10:
        return rw.rw_mul_pi(rw.teich_embed(_rand_monomial(ring, rng), base))
    if kind == 10:
        return rw.teich_embed(_rand_ring_element(ring, rng, 2), base)
    if kind == 11:
        return rw.rw_from_int(rng.choice((-1, 2, base.p, 3 * base.p)), base, ring)
    if kind == 12:
        return rw.rw_pi(base, ring)
    if kind == 13:
        return rw.rw_zero(base, ring)
    coords = tuple(wc.WittVector(ring, tuple(
        br.zero(ring) if rng.random() < 0.5 else _rand_monomial(ring, rng)
        for _ in range(base.level))) for _ in range(base.f))
    return rw.RamifiedWitt(base, ring, coords, base.default_precision)


def _rand_value(base, ring, rng, depth):
    """An atom, or a strict-route sum, difference or product of two values
    (a result carries z alone), a value times pi, or x - x."""
    if depth == 0 or rng.random() < 0.2:
        return _rand_atom(base, ring, rng)
    op = rng.randrange(20)
    x = _rand_value(base, ring, rng, depth - 1)
    if op < 3:
        return rw.rw_mul_pi(x)
    if op == 3:
        return rw.rw_sub(x, x)
    y = _rand_value(base, ring, rng, depth - 1)
    return (rw.rw_add, rw.rw_sub, rw.rw_mul)[op % 3](x, y)


def _image_path(x):
    return x.base.c is not None and None not in [wc._perf_order(r) for r in x.coords]


def _refuse(*args):
    raise AssertionError("conversion taken")


class TestImageOrder:
    """rw_ord reads the order of carried strict images in Z_q[M]/p^n from
    the images; everything else reads coordinates as before, so 5i's V[x]
    keeps its refusal (``TestSharedInverse``)."""

    VALUES = 30  # per case, each at four limits

    def test_matches_the_coordinate_reading(self):
        # derandomized: every value and limit from one seed per case.  The
        # image path is taken before the oracle reads a coordinate
        tally = {"image": 0, "refused": 0, "total": 0}
        for case, (base, ring) in enumerate(IMAGE_CASES):
            rng = random.Random(case)
            for _ in range(self.VALUES):
                x = _rand_value(base, ring, rng, 2)
                x = rw.rw_truncate(x, rng.choice((x.precision, rng.randint(0, x.precision))))
                for limit in (None, rng.randint(-1, x.precision + 1), 1, x.precision):
                    image = _image_path(x)
                    got = _outcome(rw.rw_ord, x, limit)
                    want = _outcome(_ord_by_coordinates, x, limit)
                    assert got == want, (str(x), limit)
                    tally["image"] += image
                    tally["refused"] += isinstance(got, tuple)
                    tally["total"] += 1
        assert tally["total"] == len(IMAGE_CASES) * self.VALUES * 4
        assert tally["image"] > tally["total"] // 4 and tally["refused"] > 0

    def test_carried_images_read_no_coordinates(self, monkeypatch):
        # z-only slots in Z_q[M]: [x^(1/3)] + 3 [x], and pi^2 [x] = -3 [x]
        ring = IMAGE_RINGS[3, 1][2]
        base = rw.make_ramified_base(3, 1, 2, [3, 0], 4)  # pi^2 = -3
        t = rw.teich_embed(br.evaluate(ring, "x"), base)
        u = rw.teich_embed(br.evaluate(ring, "x^(1/3)"), base)
        for x, k in ((rw.rw_add(u, rw.rw_mul(rw.rw_from_int(3, base, ring), t)), 0),
                     (rw.rw_mul(t, rw.rw_mul(rw.rw_pi(base, ring), rw.rw_pi(base, ring))), 2)):
            assert all(r._coords is None for r in x.coords if not wc.witt_is_zero(r))
            monkeypatch.setattr(wc, "_from_perf", _refuse)
            assert rw.rw_ord(x) == k
            monkeypatch.undo()
            assert _ord_by_coordinates(x) == k

    def test_coordinate_slots_embed_nothing(self, monkeypatch):
        ring = IMAGE_RINGS[3, 1][0]
        base = rw.make_ramified_base(3, 1, 2, [-3, 0], 4)
        x = rw.teich_embed(br.evaluate(ring, "x+1"), base)
        monkeypatch.setattr(wc, "_to_perf", _refuse)
        assert rw.rw_ord(x) == 0
        assert rw.rw_ord(rw.rw_mul_pi(rw.rw_zero(base, ring))) is None


class TestFrobenius:
    def test_fixes_pi_and_one(self):
        for base, ring in [(B_SQ3, F3), (B_CB2, F2), (B_SQ4, F4)]:
            assert rw.rw_equal(rw.frobenius_pi(rw.rw_pi(base, ring)),
                               rw.rw_pi(base, ring))
            assert rw.rw_equal(rw.frobenius_pi(rw.rw_one(base, ring)),
                               rw.rw_one(base, ring))

    def test_residue_compatibility(self):
        # reduce(F_pi(x)) == reduce(x)^q
        rng = random.Random(31)
        for base, ring in [(B_SQ3, F3), (B_SQ4, F4)]:
            for _ in range(10):
                x = rand_rw(base, ring, rng)
                lhs = rw.reduce_mod_pi(rw.frobenius_pi(x))
                rhs = br.pow_int(rw.reduce_mod_pi(x), base.q)
                assert lhs == rhs

    def test_is_a_ring_homomorphism(self):
        rng = random.Random(37)
        for _ in range(8):
            x = rand_rw(B_SQ4, F4, rng)
            y = rand_rw(B_SQ4, F4, rng)
            assert rw.rw_equal(rw.frobenius_pi(rw.rw_mul(x, y)),
                               rw.rw_mul(rw.frobenius_pi(x), rw.frobenius_pi(y)))
            assert rw.rw_equal(rw.frobenius_pi(rw.rw_add(x, y)),
                               rw.rw_add(rw.frobenius_pi(x), rw.frobenius_pi(y)))

    def test_inverse_over_finite_field(self):
        rng = random.Random(41)
        x = rand_rw(B_SQ4, F4, rng)
        assert rw.rw_equal(rw.frobenius_pi(rw.frobenius_pi(x), -1), x)

    def test_negative_depth_exhausts_over_polynomials(self):
        R = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 laurent=false")
        b = rw.make_ramified_base(3, 1, 2, [-3, 0], 4)
        xe = rw.teich_embed(br.variable(R, "x"), b)
        with pytest.raises(DepthExhausted):
            rw.frobenius_pi(xe, -1)


class TestEmbedding:
    def test_embed_pi_is_pi(self):
        assert rw.rw_equal(rw.embed_expr(B_SQ3E, PERF3, "pi"),
                           rw.rw_pi(B_SQ3E, PERF3))

    def test_embed_is_multiplicative(self):
        lhs = rw.rw_mul(rw.embed_expr(B_SQ3E, PERF3, "x+1"),
                        rw.embed_expr(B_SQ3E, PERF3, "x-1"))
        rhs = rw.embed_expr(B_SQ3E, PERF3, "x^2-1")
        assert rw.rw_equal(lhs, rhs)

    def test_embed_additive_carries(self):
        # embedding is defined term by term; sums pick up genuine Witt carries
        one = rw.embed_expr(B_SQ3E, PERF3, "1")
        two = rw.embed_expr(B_SQ3E, PERF3, "2")
        s = rw.rw_add(one, two)
        assert rw.rw_equal(s, rw.rw_from_int(3, B_SQ3E, PERF3))
        assert rw.rw_ord(s) == 2

    def test_embed_fractional_monomial(self):
        v = rw.embed_expr(B_SQ3E, PERF3, "x^(13/3)")
        a = rw.reduce_mod_pi(v)
        assert br.format_element(a) == "x^(13/3)"

    def test_embed_digit_string_coefficients(self):
        # pi-adic digit strings enter as polynomials in pi
        v = rw.embed_expr(B_SQ3E, PERF3, "(1+pi)*x")
        d = rw.digit_expand(v, 2)
        assert br.format_element(d.digits[0]) == "x"
        assert br.format_element(d.digits[1]) == "x"

    def test_trailing_junk_rejected(self):
        with pytest.raises(SpecParseError):
            rw.embed_expr(B_SQ3E, PERF3, "x )")


class TestTwistedProducts:
    def test_zeroth_twist_is_the_embedding(self):
        assert rw.rw_equal(rw.twisted_product(B_SQ3E, PERF3, "x", 0),
                           rw.embed_expr(B_SQ3E, PERF3, "x"))

    def test_monomial_twist_closed_form(self):
        # sum_{k=-1..1} 3^k = 13/3 in the exponent
        tw = rw.twisted_product(B_SQ3E, PERF3, "x", 1)
        assert rw.rw_equal(tw, rw.embed_expr(B_SQ3E, PERF3, "x^(13/3)"))

    def test_recurrence_step(self):
        # F(a_n) * F^{-n}(ahat) * F^{-(n+1)}(ahat) == a_{n+1}
        ahat = rw.embed_expr(B_SQ3E, PERF3, "x")
        for n in range(0, 3):
            an = rw.twisted_product(B_SQ3E, PERF3, "x", n)
            lhs = rw.rw_mul(
                rw.frobenius_pi(an, 1),
                rw.rw_mul(rw.frobenius_pi(ahat, -n),
                          rw.frobenius_pi(ahat, -(n + 1))))
            rhs = rw.twisted_product(B_SQ3E, PERF3, "x", n + 1)
            assert rw.rw_equal(lhs, rhs)

    def test_residue_of_twist_matches_residue_product(self):
        tw = rw.twisted_product(B_SQ3E, PERF3, "x+1", 1)
        a = br.evaluate(PERF3, "x+1")
        expect = br.one(PERF3)
        for k in (-1, 0, 1):
            expect = expect * br.frobenius(a, k)
        assert rw.reduce_mod_pi(tw) == expect


class TestUnramifiedDegeneration:
    def test_single_slot_matches_plain_witt(self):
        rng = random.Random(43)
        for _ in range(6):
            x = rand_rw(B_UNRAM, F3, rng)
            y = rand_rw(B_UNRAM, F3, rng)
            assert rw.rw_mul(x, y).coords[0] == wc.witt_mul(x.coords[0], y.coords[0])
            assert rw.rw_add(x, y).coords[0] == wc.witt_add(x.coords[0], y.coords[0])

    def test_pi_is_p(self):
        assert rw.rw_equal(rw.rw_pi(B_UNRAM, F3), rw.rw_from_int(3, B_UNRAM, F3))

    def test_divide_by_pi_is_divide_by_p(self):
        x = rw.rw_from_int(6, B_UNRAM, F3)
        y = rw.divide_by_pi(x)
        assert rw.rw_equal(y, rw.rw_from_int(2, B_UNRAM, F3))
