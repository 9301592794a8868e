import dataclasses
import random
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge import base_rings as br
from wittforge.errors import (
    DepthExhausted,
    LatticeError,
    NoRoot,
    NotAUnit,
    SpecParseError,
)


def F(p, e=1, modulus=None):
    return br.make_field(p, e, modulus)


def elements(f):
    """Every coefficient tuple of F_q, in index order."""
    return [br._digits(i, f.p, f.e) for i in range(f.q)]


def brute_nth_roots(f, n):
    """{a: smallest b with b^n = a} by trying every b; the reference."""
    out = {}
    for b in elements(f):
        a = f.cpow(b, n)
        if a not in out or b < out[a]:
            out[a] = b
    return out


class TestFiniteField:
    def test_f4_table(self):
        # F_4 = F_2[u]/(u^2+u+1): u * u = u + 1
        f4 = F(2, 2)
        assert f4.modulus == (1, 1, 1)
        u = f4.gen()
        assert f4.cmul(u, u) == f4.cadd(u, f4.one())

    def test_f9_inverse_roundtrip(self):
        f9 = F(3, 2)
        for a in elements(f9):
            if a == f9.zero():
                continue
            assert f9.cmul(a, f9.cinv(a)) == f9.one()

    def test_frobenius_order(self):
        f8 = F(2, 3)
        for a in elements(f8):
            assert f8.cfrob(a, 3) == a
            assert f8.cfrob(f8.cfrob(a, 1), -1) == a

    def test_frobenius_matrix_matches_powering(self):
        # cfrob(a, k) is a product with a matrix; a^(p^k) by cpow's
        # square-and-multiply is the reference, for every k in 0..e-1 (and k - e),
        # on every element of F_4, F_8, F_9 and on 40 of F_243 and F_512,
        # with the moduli T^5+2*T^2+T+1 over F_3 and T^9+T^4+1 over F_2
        rng = random.Random(43)
        big = [F(3, 5, (1, 1, 2, 0, 0, 1)), F(2, 9, (1, 0, 0, 0, 1, 0, 0, 0, 0, 1))]
        assert [f.q for f in big] == [243, 512]
        for f in [F(2, 2), F(2, 3), F(3, 2)] + big:
            pool = (list(elements(f)) if f.q < 27 else
                    [tuple(rng.randrange(f.p) for _ in range(f.e)) for _ in range(40)])
            for k in range(f.e):
                for a in pool:
                    assert f.cfrob(a, k) == f.cfrob(a, k - f.e) == f.cpow(a, f.p ** k)

    @pytest.mark.parametrize("p,g,sample", [(3, "T^3-T", None), (2, "T^5+T^4+1", None),
                                            (2, "T^15-1", 40)])
    def test_etale_frobenius_matches_powering(self, p, g, sample):
        # on F_p[u]/(g) for a squarefree g, F^k is a matrix power and F^-k
        # its inverse's, for every k in 0..8, against a^(p^k) by cpow: on
        # every element, or 40 of them for T^15-1.  Over T^5+T^4+1 =
        # (T^2+T+1)(T^3+T+1) the period is 6, so k mod deg g would be wrong
        A = br.make_ring(f"uq base=(ff p={p} e=1) var=T modulus={g}").zq_coeffs
        rng = random.Random(47)
        pool = ([br._digits(i, p, A.e) for i in range(p ** A.e)] if sample is None else
                [tuple(rng.randrange(p) for _ in range(A.e)) for _ in range(sample)])
        for k in range(9):
            for a in pool:
                assert A.cfrob(a, k) == A.cpow(a, p ** k)
                assert A.cfrob(A.cfrob(a, -k), k) == a

    def test_etale_frobenius_at_far_k_needs_no_recursion(self):
        # F^k is one matrix power however far k is; over T^5+T^4+1 the
        # period is 6, so F^(+-5000) = F^(+-2)
        A = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^5+T^4+1").zq_coeffs
        for a in [br._digits(i, 2, A.e) for i in range(2 ** A.e)]:
            assert A.cfrob(a, 5000) == A.cfrob(a, 5000 % 6)
            assert A.cfrob(a, -5000) == A.cfrob(a, -(5000 % 6))

    def test_frob_f4_generator(self):
        f4 = F(2, 2)
        u = f4.gen()
        # u^2 = u + 1
        assert f4.cfrob(u, 1) == f4.cadd(u, f4.one())

    def test_default_modulus_deterministic(self):
        assert F(2, 2).modulus == F(2, 2).modulus
        assert F(3, 2).modulus == (1, 0, 1)  # u^2 + 1 irreducible over F_3

    def test_default_modulus_is_searched_once(self, monkeypatch):
        # every ff descriptor with e > 1 and no modulus= reaches make_field;
        # the search for its modulus runs on the first call only
        br._default_modulus.cache_clear()
        first = F(1009, 2)
        calls = []
        search = br._poly_is_irreducible
        monkeypatch.setattr(br, "_poly_is_irreducible",
                            lambda *a: calls.append(a) or search(*a))
        assert F(1009, 2) == first and calls == []
        assert br._default_modulus.cache_info().maxsize == 64

    def test_bad_p_rejected(self):
        with pytest.raises(SpecParseError):
            F(4)
        with pytest.raises(SpecParseError):
            F(1)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(SpecParseError):
            F(2, 2, (1, 0, 1))  # u^2+1 = (u+1)^2 over F_2

    def test_nth_root(self):
        f3 = F(3)
        # cubes in F_3 are identity: x^3 = x
        assert f3.nth_root((2,), 3) == (2,)
        f4 = F(2, 2)
        u = f4.gen()
        # every element is a square in F_4
        sq = f4.cmul(u, u)
        assert f4.cpow(f4.nth_root(sq, 2), 2) == sq
        with pytest.raises(NoRoot):
            F(3).nth_root((2,), 2)  # 2 is not a square mod 3

    def test_nth_root_matches_brute_force(self):
        # every field with q <= 2^10, n in {2, 3, 4}: all a when q <= 64,
        # else 6 random a and 6 random n-th powers (seed 1729)
        rng = random.Random(1729)
        fields = [(p, e) for p in range(2, 1025) if br._is_prime(p)
                  for e in range(1, 11) if p ** e <= 1 << 10]
        for p, e in fields:
            f = F(p, e)
            elts = elements(f)
            for n in (2, 3, 4):
                ref = brute_nth_roots(f, n)
                if f.q <= 64:
                    sample = elts
                else:
                    sample = ([rng.choice(elts) for _ in range(6)]
                              + [f.cpow(rng.choice(elts), n) for _ in range(6)])
                for a in sample:
                    if a in ref:
                        assert f.nth_root(a, n) == ref[a], (p, e, n, a)
                    else:
                        with pytest.raises(NoRoot):
                            f.nth_root(a, n)

    def test_nth_root_exhaustive_on_small_fields(self):
        # every a, and every n <= 2q that divides q-1 or is below 13: the
        # smallest root, or NoRoot exactly where brute force finds none
        for p, e in ((2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)):
            f = F(p, e)
            ns = [n for n in range(1, 2 * f.q + 1) if (f.q - 1) % n == 0 or n < 13]
            for n in ns:
                ref = brute_nth_roots(f, n)
                for a in elements(f):
                    if a in ref:
                        assert f.nth_root(a, n) == ref[a], (p, e, n, a)
                    else:
                        with pytest.raises(NoRoot):
                            f.nth_root(a, n)

    def test_nth_root_in_a_large_field(self):
        # q = 1009^2: 4 = 2^2 has the square roots 2 and -2
        f = F(1009, 2)
        assert f.nth_root((4, 0), 2) == (2, 0)
        # the fourth roots of u^4 are u * c with c^4 = 1 in F_1009; c = 1 is
        # the smallest
        assert f.nth_root(f.cpow(f.gen(), 4), 4) == f.gen()


M_3_10 = 3 ** 10
F9_POW = br.make_field(3, 2)
UQ_POW = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^5+2*T+1")
# name -> (mul, draw an element from an rng, one)
POWER_DOMAINS = {
    "Z/3^10": (lambda a, b: a * b % M_3_10, lambda rng: rng.randrange(M_3_10), 1),
    "F_9": (F9_POW.cmul, lambda rng: br.random_coeff(F9_POW, rng), F9_POW.one()),
    "uq": (br.mul, lambda rng: br.random_element(UQ_POW, rng), br.one(UQ_POW)),
}


class TestPower:
    @pytest.mark.parametrize("domain", sorted(POWER_DOMAINS))
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(n=st.integers(0, 100), seed=st.integers(0, 2 ** 32))
    def test_is_repeated_multiplication(self, domain, n, seed):
        mul, draw, one = POWER_DOMAINS[domain]
        a = draw(random.Random(seed))
        calls = []

        def counted(x, y):
            calls.append(None)
            return mul(x, y)

        got = br._power(counted, a, n, one)
        if n == 0:
            assert got is one and not calls
            return
        want = a
        for _ in range(n - 1):
            want = mul(want, a)
        assert got == want
        assert len(calls) == n.bit_length() + bin(n).count("1") - 2


class TestFieldRingsThroughTheMonomialKernel:
    """An ff ring is the monomial ring in no variables: its elements are
    single terms with key (), and every ring operation must agree with the
    field's own coefficient arithmetic.  40 derandomized examples per field;
    coefficients are drawn mod q, so zero comes up on every field."""

    FIELDS = {"F2": (2, 1), "F4": (2, 2), "F8": (2, 3), "F9": (3, 2), "F25": (5, 2)}

    @pytest.mark.parametrize("name", FIELDS)
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(a=st.integers(0, 30), b=st.integers(0, 30), n=st.integers(-30, 30),
           k=st.integers(0, 10), num=st.integers(-12, 12), i=st.integers(0, 3),
           j=st.integers(0, 2))
    def test_ops_match_the_coefficient_arithmetic(self, name, a, b, n, k, num, i, j):
        f = F(*self.FIELDS[name])
        ca, cb = (br._digits(v % f.q, f.p, f.e) for v in (a, b))
        x, y = br.from_coeff(f, ca), br.from_coeff(f, cb)

        def const(c):
            return br.from_coeff(f, c)

        assert br.mul(x, y) == const(f.cmul(ca, cb))
        if x.is_zero():
            with pytest.raises(NotAUnit):
                br.invert(x)
        else:
            assert br.invert(x) == const(f.cinv(ca))
        if x.is_zero() and n < 0:
            with pytest.raises(NotAUnit):
                br.pow_int(x, n)
        else:
            assert br.pow_int(x, n) == const(f.cpow(ca, n))
        # k runs past e, and the inverse Frobenius is exact on a field
        assert br.frobenius(x, k) == const(f.cfrob(ca, k))
        assert br.frobenius(x, -k) == const(f.cfrob(ca, -k))
        r = Fraction(num, 2 ** i * f.p ** j)
        if x.is_zero() and r < 0:
            with pytest.raises(NotAUnit):
                br.pow_fraction(x, r)
            return
        try:
            want = const(f.nth_root(f.cpow(ca, r.numerator), r.denominator))
        except NoRoot:
            with pytest.raises(NoRoot):
                br.pow_fraction(x, r)
            return
        got = br.pow_fraction(x, r)
        assert got == want
        assert br.pow_int(got, r.denominator) == br.pow_int(x, r.numerator)

    def test_fields_have_no_hidden_knob(self):
        # the monomial-ring constants are class attributes, not fields
        assert [fd.name for fd in dataclasses.fields(br.FiniteFieldSpec)] == [
            "p", "e", "modulus", "gen_name"]
        a, b = br.make_field(3, 2), br.make_field(3, 2)
        assert a is not b and a == b == br.FiniteFieldSpec(3, 2, (1, 0, 1), "u")
        assert hash(a) == hash(b) == hash((3, 2, (1, 0, 1), "u"))
        assert br.canonical_descriptor(a) == "ff p=3 e=2 modulus=u^2+1"
        assert a.base is a and a.variables == a.quotient == ()


class TestDescriptorRoundtrip:
    CASES = [
        "ff p=5 e=1",
        "ff p=2 e=2 modulus=u^2+u+1",
        "ff p=3 e=2 modulus=u^2+1",
        "frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=1 laurent=true",
        "frac base=(ff p=2 e=2 modulus=u^2+u+1) vars=x,y depth_p=1 depth_2=0 laurent=false",
        "frac base=(ff p=3 e=1) vars=x,y depth_p=0 depth_2=0 laurent=false mod=x^2,y^3",
        "uq base=(ff p=3 e=1) var=T modulus=T^2+1",
        "uq base=(ff p=2 e=1) var=T modulus=T^3+T+1",
        "uq base=(ff p=3 e=1) var=T modulus=T^600+T+1",
        "uq base=(ff p=3 e=1) var=T modulus=T^600",
    ]

    @pytest.mark.parametrize("desc", CASES)
    def test_parse_print_fixpoint(self, desc):
        ring = br.make_ring(desc)
        canon = br.canonical_descriptor(ring)
        assert br.make_ring(canon) == ring
        assert br.canonical_descriptor(br.make_ring(canon)) == canon

    @pytest.mark.parametrize("desc", CASES)
    def test_rings_built_apart_hash_equal(self, desc):
        # each ring and its base field keep their hash after the first call;
        # an equal one built apart must hash the same and hit the same memo
        a, b = br.make_ring(desc), br.make_ring(desc)
        assert a is not b and a == b
        assert hash(a) == hash(a) == hash(b)
        assert hash(a.base) == hash(b.base)
        assert {a: desc}[b] == desc

    def test_uq_modulus_is_not_truncated(self):
        for desc in self.CASES[-2:]:
            ring = br.make_ring(desc)
            assert ring.degree == 600
            assert br.canonical_descriptor(ring) == desc

    def test_default_modulus_in_canonical_form(self):
        ring = br.make_ring("ff p=2 e=2")
        assert br.canonical_descriptor(ring) == "ff p=2 e=2 modulus=u^2+u+1"

    def test_lattice_b(self):
        ring = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=1 laurent=true")
        assert ring.lattice_b == 18

    def test_quotient_needs_polynomial_ring(self):
        with pytest.raises(SpecParseError):
            br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 laurent=true mod=x^2")

    def test_rejects_trailing_junk(self):
        with pytest.raises(SpecParseError):
            br.make_ring("ff p=5 e=1 bogus=7")


class TestElements:
    def test_field_constant_arith(self):
        ring = br.make_ring("ff p=7 e=1")
        a = br.from_int(ring, 3)
        b = br.from_int(ring, 5)
        assert a + b == br.from_int(ring, 1)
        assert a * b == br.from_int(ring, 1)
        assert -a == br.from_int(ring, 4)

    def test_fractional_exponent_product(self):
        ring = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=false")
        a = br.evaluate(ring, "x^(1/3)")
        b = br.evaluate(ring, "x^(1/9)")
        assert a * b == br.evaluate(ring, "x^(4/9)")
        assert br.format_element(a * b) == "x^(4/9)"

    def test_lattice_violation(self):
        ring = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=0 laurent=false")
        with pytest.raises(LatticeError):
            br.evaluate(ring, "x^(1/9)")
        with pytest.raises(LatticeError):
            br.evaluate(ring, "x^(-1)")

    def test_monomial_quotient_kills_products(self):
        ring = br.make_ring("frac base=(ff p=3 e=1) vars=x,y depth_p=0 depth_2=0 laurent=false mod=x^2,y^3")
        x = br.evaluate(ring, "x")
        assert (x * x).is_zero()
        y3 = br.evaluate(ring, "y^2") * br.evaluate(ring, "y")
        assert y3.is_zero()
        assert not br.evaluate(ring, "x*y^2").is_zero()

    def test_uq_reduction(self):
        ring = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^2+1")
        t = br.evaluate(ring, "T")
        assert t * t == br.from_int(ring, -1)
        assert br.format_element(t * t) == "2"

    def test_canonical_term_order(self):
        ring = br.make_ring("frac base=(ff p=5 e=1) vars=x depth_p=0 depth_2=0 laurent=false")
        s = br.format_element(br.evaluate(ring, "1+x+3*x^2"))
        assert s == "3*x^2+x+1"
        assert br.evaluate(ring, s) == br.evaluate(ring, "1+x+3*x^2")

    def test_multiterm_field_coeff_parenthesized(self):
        ring = br.make_ring("frac base=(ff p=2 e=2 modulus=u^2+u+1) vars=x depth_p=0 depth_2=0 laurent=false")
        s = br.format_element(br.evaluate(ring, "(u+1)*x"))
        assert s == "(u+1)*x"
        assert br.evaluate(ring, s) == br.evaluate(ring, "(u+1)*x")

    def test_parse_print_identity_random(self):
        rng = random.Random(7)
        rings = [
            br.make_ring("ff p=5 e=1"),
            br.make_ring("ff p=2 e=2"),
            br.make_ring("frac base=(ff p=3 e=1) vars=x,y depth_p=1 depth_2=1 laurent=true"),
            br.make_ring("uq base=(ff p=3 e=2) var=T modulus=T^3+2*T+1"),
        ]
        for ring in rings:
            for _ in range(40):
                x = br.random_element(ring, rng, max_terms=4, denom_depth=1)
                assert br.evaluate(ring, br.format_element(x)) == x

    def test_inverse_of_laurent_monomial(self):
        ring = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=0 laurent=true")
        a = br.evaluate(ring, "2*x^(1/3)")
        inv = br.invert(a)
        assert a * inv == br.one(ring)
        assert br.format_element(inv) == "2*x^(-1/3)"
        with pytest.raises(NotAUnit):
            br.invert(br.evaluate(ring, "1+x"))

    def test_fractional_powers_of_zero(self):
        zero = br.zero(br.make_ring(
            "frac base=(ff p=2 e=1) vars=x depth_p=1 depth_2=0 laurent=false"))
        assert br.pow_fraction(zero, Fraction(3, 2)) == zero
        with pytest.raises(NotAUnit):
            br.pow_fraction(zero, Fraction(-1, 2))

    @pytest.mark.parametrize("desc,op,text,err,msg", [
        ("frac base=(ff p=5 e=1) vars=x depth_p=0 depth_2=1 laurent=false",
         "eval", "(x+1)^(1/2)", NoRoot, "fractional power of a non-monomial"),
        ("ff p=5 e=1", "eval", "2^(1/2)", NoRoot, "no 2-th root in F_5"),
        ("frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=0 laurent=true",
         "eval", "x^(1/9)", LatticeError,
         "exponent 1/9 outside lattice (denominator must divide 3)"),
        ("uq base=(ff p=3 e=1) var=T modulus=T^2+1", "eval", "T^(1/2)", LatticeError,
         "fractional powers need an exponent lattice"),
        ("frac base=(ff p=5 e=1) vars=x depth_p=0 depth_2=1 laurent=false",
         "invert", "x", NotAUnit, "non-constant monomial in a non-Laurent ring"),
        ("frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=0 laurent=true",
         "eval", "(x+1)^(-1)", NotAUnit, "only monomials are invertible here"),
        ("uq base=(ff p=2 e=1) var=T modulus=T^2", "invert", "T", NotAUnit,
         "representative shares a factor with the modulus"),
        ("ff p=3 e=1", "invert", "0", NotAUnit, "zero is not invertible"),
    ], ids=["non-monomial-root", "no-root-in-field", "outside-lattice", "uq-fraction",
            "non-laurent-monomial", "non-monomial-inverse", "uq-shared-factor", "zero"])
    def test_root_and_inverse_refusal_messages(self, desc, op, text, err, msg):
        ring = br.make_ring(desc)
        with pytest.raises(err) as info:
            if op == "invert":
                br.invert(br.evaluate(ring, text))
            else:
                br.evaluate(ring, text)
        assert str(info.value) == msg

    @pytest.mark.parametrize("desc,text,root", [
        ("ff p=5 e=1", "4^(1/2)", "2"),  # the smaller of the square roots 2 and 3
        ("ff p=3 e=1", "2^(1/3)", "2"),
        ("ff p=3 e=2", "u^(1/2)", "2*u+1"),
        ("frac base=(ff p=5 e=1) vars=x depth_p=0 depth_2=1 laurent=false",
         "(4*x^3)^(3/2)", "2*x^(9/2)"),
    ], ids=["F5-square", "F3-cube", "F9-square", "frac-monomial"])
    def test_fractional_power_roots_the_coefficient(self, desc, text, root):
        ring = br.make_ring(desc)
        assert br.evaluate(ring, text) == br.evaluate(ring, root)

    # (ring, monomials m, exponents k): m^(k/B) is a B-th root of m^k
    LATTICE_ROOTS = [
        ("frac base=(ff p=5 e=1) vars=x depth_p=0 depth_2=1 laurent=false",
         [f"{c}*x^{j}" for c in (1, 4) for j in (1, 2, 3, 4)], range(1, 9)),
        ("frac base=(ff p=3 e=2) vars=x depth_p=0 depth_2=1 laurent=true",
         [f"{c}*x^({j})" for c in ("1", "2", "u", "2*u") for j in (1, -1)],
         [-4, -3, -2, -1, 1, 2, 3, 4]),
        ("frac base=(ff p=7 e=1) vars=x depth_p=1 depth_2=2 laurent=false",
         [f"{c}*x^{j}" for c in (1, 2, 4) for j in (1, 2, 3)], range(1, 9)),
    ]

    @pytest.mark.parametrize("desc,monomials,ks", LATTICE_ROOTS,
                             ids=["F5-B2", "F9-laurent-B2", "F7-B28"])
    def test_fractional_powers_are_roots_of_powers(self, desc, monomials, ks):
        ring = br.make_ring(desc)
        b = ring.lattice_b
        x_root = br.evaluate(ring, f"x^(1/{b})")
        for k in ks:
            assert br.evaluate(ring, f"x^({k}/{b})") == br.pow_int(x_root, k)
        for text in monomials:
            m = br.evaluate(ring, text)
            for k in ks:
                r = br.pow_fraction(m, Fraction(k, b))
                assert br.pow_int(r, b) == br.pow_int(m, k), (text, k)

    def test_uq_inverse(self):
        ring = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^3+T+1")
        t = br.evaluate(ring, "T")
        assert t * br.invert(t) == br.one(ring)
        ring2 = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^2")
        with pytest.raises(NotAUnit):
            br.invert(br.evaluate(ring2, "T"))


class TestKernel:
    """The one product per ring kind, against independent routes."""

    UQ = [
        "uq base=(ff p=3 e=1) var=T modulus=T^5+2*T^2+T+1",
        "uq base=(ff p=2 e=2) var=T modulus=T^3+u*T+1",
        "uq base=(ff p=3 e=3) var=T modulus=T^27+T^2+2",
        "uq base=(ff p=2 e=1) var=u modulus=u^8",
    ]

    @pytest.mark.parametrize("desc", UQ)
    def test_uq_mul_is_polynomial_product_mod_g(self, desc):
        # 40 random pairs per ring (seed 17), up to 6 terms each
        # the product in F_q[T] and the long division do not use _reduce
        ring = br.make_ring(desc)
        g = br._poly_elt(ring.base, ring.var, ring.modulus)
        rng = random.Random(17)
        for _ in range(40):
            x = br.random_element(ring, rng, max_terms=6)
            y = br.random_element(ring, rng, max_terms=6)
            _, r = br._fq_divmod(br._as_poly(x) * br._as_poly(y), g)
            assert br._as_poly(x * y) == r

    LAWS = [
        ("ff p=3 e=2", {}),
        ("frac base=(ff p=3 e=2) vars=x,y depth_p=1 depth_2=1 laurent=true",
         {"max_terms": 4, "denom_depth": 1}),
        ("frac base=(ff p=2 e=1) vars=x,y depth_p=1 depth_2=0 laurent=false mod=x^2,x*y^(3/2)",
         {"max_terms": 4, "denom_depth": 1}),
        ("uq base=(ff p=3 e=1) var=T modulus=T^5+2*T^2+T+1", {"max_terms": 4}),
    ]

    @pytest.mark.parametrize("desc,kw", LAWS)
    def test_ring_laws(self, desc, kw):
        # 30 random triples per ring (seed 31)
        ring = br.make_ring(desc)
        rng = random.Random(31)
        for _ in range(30):
            x, y, z = (br.random_element(ring, rng, **kw) for _ in range(3))
            assert x * y == y * x and x + y == y + x
            assert (x * y) * z == x * (y * z)
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            assert x - x == br.zero(ring) and x * br.one(ring) == x


class TestUnivariateQuotientThroughTheMonomialKernel:
    def test_no_hidden_knob(self):
        # the monomial-ring constants are class attributes, not fields
        assert [fd.name for fd in dataclasses.fields(br.UnivariateQuotient)] == [
            "base", "var", "modulus"]
        F3, g = F(3), ((1,), (0,), (1,))
        a = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^2+1")
        b = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^2+1")
        assert br.pow_int(br.variable(a, "T"), 3) == br.evaluate(a, "2*T")
        assert a is not b and a == b == br.UnivariateQuotient(F3, "T", g)
        assert hash(a) == hash(b) == hash((F3, "T", g))
        assert br.canonical_descriptor(a) == "uq base=(ff p=3 e=1) var=T modulus=T^2+1"
        names = {fd.name for fd in dataclasses.fields(a)}
        for attr in ("variables", "quotient", "laurent", "depth_p", "depth_2"):
            assert attr not in names
        assert (a.variables, a.quotient, a.laurent, a.depth_p, a.depth_2) == (
            ("T",), (), False, 0, 0)

    @pytest.mark.parametrize("desc", [
        "uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1",
        "uq base=(ff p=2 e=1) var=T modulus=T^4+T^2",
        "uq base=(ff p=5 e=2) var=T modulus=T+u",
        "uq base=(ff p=2 e=1) var=T modulus=T^5",
    ])
    def test_far_keys_reduce_by_square_and_multiply(self, desc):
        # one-term powers and Frobenius scale keys far past deg g; the
        # reference is square-and-multiply on the public product
        ring = br.make_ring(desc)
        t, one, rng = br.variable(ring, "T"), br.one(ring), random.Random(5)
        for n in (10 ** 12, 3 ** 25 + 1):
            assert br.pow_int(t, n) == br._power(br.mul, t, n, one)
        for _ in range(5):
            x = br.random_element(ring, rng, max_terms=3)
            assert br.frobenius(x, 40) == br._power(br.mul, x, ring.base.p ** 40, one)

    def test_irreducible_quadratic_over_f2_is_f4(self):
        # F_2[T]/(T^2+T+1) and F_4 (modulus u^2+u+1) match under T -> u
        uq = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^2+T+1")
        f4 = br.make_ring("ff p=2 e=2")
        assert f4.modulus == (1, 1, 1)
        texts = ["0", "1", "T", "T+1"]
        as_f4 = {br.evaluate(uq, t): br.evaluate(f4, t.replace("T", "u")) for t in texts}
        for a in as_f4:
            for b in as_f4:
                assert as_f4[a * b] == as_f4[a] * as_f4[b]
                assert as_f4[a + b] == as_f4[a] + as_f4[b]

    def test_keys_are_one_tuples(self):
        ring = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T+1")
        # a degree-1 modulus reduces T itself: T = 1
        assert br.variable(ring, "T").terms == (((0,), (1,)),)
        ring = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1")
        assert br.evaluate(ring, "T^4+2").terms == (((2,), (1,)), ((1,), (2,)), ((0,), (2,)))


class TestKernelAboveK1:
    """The kernel over (Z/p^K)[u]/(M~) at K in {2, 3, 5}, as the lift route
    runs it: ring laws of _kmul / _kadd, _kpow against repeated products,
    and reduction mod p against the public K = 1 product.  Each property runs
    EXAMPLES derandomized examples per ring."""

    RINGS = [
        ("ff p=3 e=2", {}),
        ("frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=0 laurent=true",
         {"max_terms": 6, "denom_depth": 1}),
        ("frac base=(ff p=2 e=1) vars=x,y depth_p=1 depth_2=0 laurent=false mod=x^2,x*y^(3/2)",
         {"max_terms": 8, "exp_bound": 2, "denom_depth": 1}),
        ("uq base=(ff p=3 e=1) var=T modulus=T^5+2*T^2+T+1", {"max_terms": 6}),
    ]
    EXAMPLES = 40
    # a field constant, a Laurent key, keys that x^2 and x*y^(3/2) kill at
    # the second and third power (B = 2), and T^4, past deg g from T^8 on
    ONE_TERM = dict(zip([desc for desc, _ in RINGS],
                        [[()], [(-2,)], [(3, 0), (1, 1)], [(4,)]]))

    @staticmethod
    def operands(desc, kw, K, seed, count):
        """count term dicts over (Z/p^K)[u]/(M~): the keys of two random
        elements of the ring, each with a random coefficient mod p^K."""
        ring = br.make_ring(desc)
        C = br._CoeffRing(ring.base, K)
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            keys = dict.fromkeys(k for _ in range(2)
                                 for k, _ in br.random_element(ring, rng, **kw).terms)
            out.append(br._nonzero({k: tuple(rng.randrange(C.pk) for _ in range(C.e))
                                    for k in keys}))
        return ring, C, out

    @pytest.mark.parametrize("desc,kw", RINGS)
    @given(K=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    def test_ring_laws(self, desc, kw, K, seed):
        ring, C, (a, b, c) = self.operands(desc, kw, K, seed, 3)

        def mul(x, y):
            return ring._kmul(C, x.items(), y.items())

        def add(x, y):
            return br._kadd(C, x, y.items())

        assert mul(a, b) == mul(b, a) and add(a, b) == add(b, a)
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    @pytest.mark.parametrize("desc,kw", RINGS)
    @given(K=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2 ** 32),
           n=st.integers(0, 6))
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    def test_power_is_repeated_product(self, desc, kw, K, seed, n):
        ring, C, (a,) = self.operands(desc, kw, K, seed, 1)
        rng = random.Random(seed)
        # a unit or a multiple of p, whose powers can vanish mod p^K
        c = tuple(rng.randrange(C.pk) * rng.choice((1, C.p)) % C.pk
                  for _ in range(C.e))
        c = c if any(c) else C.one()
        # the operand, then one-term operands, which take the short path:
        # its own terms and the ring's ONE_TERM keys
        for op in [a] + [{k: v} for k, v in a.items()] + [
                {key: c} for key in self.ONE_TERM[desc]]:
            acc = {ring._unit_key: C.one()}
            for _ in range(n):
                acc = ring._kmul(C, acc.items(), op.items())
            assert ring._kpow(C, dict(op), n) == acc
            assert ring._kpow(C, dict(op), 0) == {ring._unit_key: C.one()}

    @pytest.mark.parametrize("desc,kw", RINGS)
    @given(K=st.sampled_from([2, 3, 5]), seed=st.integers(0, 2 ** 32))
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    def test_product_reduces_to_the_field_product(self, desc, kw, K, seed):
        ring, C, (a, b) = self.operands(desc, kw, K, seed, 2)
        F = ring.base

        def reduce(x):  # scaling by 1 over F_q reduces mod p
            return br._kscale(F, x.items(), 1)

        want = br.mul(br._mk(ring, reduce(a)), br._mk(ring, reduce(b)))
        assert reduce(ring._kmul(C, a.items(), b.items())) == dict(want.terms)


def loop_product(ring, C, a, b):
    """ring._kmul with packing off: the pair loop, the packed product's
    reference."""
    saved, br._PACK_PAIRS = br._PACK_PAIRS, float("inf")
    try:
        return ring._kmul(C, a.items(), b.items())
    finally:
        br._PACK_PAIRS = saved


class TestPackedProduct:
    """The packed one-variable product (``_kmul_packed``) against the pair
    loop: Laurent keys, gcd 1 and gcd > 1, coefficients at p^K - 1, operands
    at 15 and 16 pairs, depth_2 > 0 and K from 1 to 9 (n + 1 for n up to 8),
    EXAMPLES derandomized examples per ring.  p = 31 at K >= 7 needs slots
    wider than 8 bytes."""

    RINGS = [
        "frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true",
        "frac base=(ff p=2 e=1) vars=x depth_p=10 depth_2=0 laurent=true",
        "frac base=(ff p=5 e=1) vars=x depth_p=1 depth_2=1 laurent=false",
        "frac base=(ff p=31 e=1) vars=x depth_p=0 depth_2=0 laurent=true",
    ]
    EXAMPLES = 60

    @staticmethod
    def operand(rng, pk, lo, g, count, room):
        """count terms at keys lo + g*i, i < room, each coefficient p^K - 1
        or a random residue."""
        return {(lo + g * i,): (rng.choice((pk - 1, rng.randrange(1, pk))),)
                for i in rng.sample(range(room), count)}

    @pytest.mark.parametrize("desc", RINGS)
    @given(K=st.integers(1, 9), g=st.sampled_from([1, 2, 3, 9]),
           sizes=st.sampled_from([(3, 5), (4, 4), (1, 16), (5, 9), (12, 30)]),
           seed=st.integers(0, 2 ** 32))
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    def test_equals_the_pair_loop(self, desc, K, g, sizes, seed):
        ring = br.make_ring(desc)
        C, rng = br._CoeffRing(ring.base, K), random.Random(seed)
        lows = range(-40, 41) if ring.laurent else range(0, 41)
        # the room keeps most products dense; a room past 16 pairs can leave
        # a few to the density guard
        a, b = (self.operand(rng, C.pk, rng.choice(lows), g, n, rng.randint(n, 2 * n + 4))
                for n in sizes)
        want = loop_product(ring, C, a, b)
        assert ring._kmul(C, a.items(), b.items()) == want
        assert ring._kmul(C, b.items(), a.items()) == want
        packed = br._kmul_packed(C.pk, a.items(), b.items())
        assert packed is None or packed == want

    def test_public_product_packs_at_k1(self):
        ring = br.make_ring(self.RINGS[2])
        x = br.evaluate(ring, "+".join(f"{1 + i % 4}*x^({i}/10)" for i in range(0, 40, 2)))
        y = br.evaluate(ring, "+".join(f"4*x^{i}" for i in range(8)))
        assert br._kmul_packed(5, x.terms, y.terms) is not None
        assert dict((x * y).terms) == loop_product(ring, ring.base, dict(x.terms),
                                                   dict(y.terms))

    def test_packs_from_sixteen_pairs(self, monkeypatch):
        ring = br.make_ring(self.RINGS[0])
        C = br._CoeffRing(ring.base, 3)
        calls, packed = [], br._kmul_packed

        def spy(pk, a, b):
            calls.append(len(a) * len(b))
            return packed(pk, a, b)

        monkeypatch.setattr(br, "_kmul_packed", spy)
        for m in (3, 4):
            a = {(i,): (1,) for i in range(m)}
            b = {(i,): (2,) for i in range(5 if m == 3 else 4)}
            assert ring._kmul(C, a.items(), b.items()) == loop_product(ring, C, a, b)
        assert calls == [16]

    def test_density_guard_refuses_a_sparse_product(self):
        # x + x^(10^8) times a 16-term operand would pack into a 100 MB
        # integer; the guard sends it to the pair loop
        ring = br.make_ring(self.RINGS[0])
        C = br._CoeffRing(ring.base, 5)
        a = {(0,): (1,), (10 ** 8,): (C.pk - 1,)}
        b = {(i,): (C.pk - 1 - i,) for i in range(16)}
        assert br._kmul_packed(C.pk, a.items(), b.items()) is None
        start = time.perf_counter()
        got = ring._kmul(C, a.items(), b.items())
        assert time.perf_counter() - start < 0.5
        assert got == loop_product(ring, C, a, b) and len(got) == 32

    @pytest.mark.parametrize("w", range(1, 11))
    def test_pack_roundtrip(self, w):
        slots = [0, 1, 2 ** (8 * w) - 1, 2 ** (8 * w - 1), 7]
        assert br._unpack(br._pack(slots, w), len(slots), w) == slots


class TestFrobenius:
    def test_positive_on_sums(self):
        ring = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=0 laurent=false")
        a = br.evaluate(ring, "1+x")
        assert br.frobenius(a, 1) == br.evaluate(ring, "1+x^3")

    def test_inverse_on_perfect_part(self):
        ring = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=false")
        a = br.evaluate(ring, "x")
        assert br.frobenius(a, -2) == br.evaluate(ring, "x^(1/9)")
        with pytest.raises(DepthExhausted):
            br.frobenius(a, -3)

    def test_depth_exhaustion_message_names_denominator(self):
        for spec, x, msg in [
            ("frac base=(ff p=2 e=1) vars=x depth_p=1 depth_2=0 laurent=false",
             "x^(1/2)", "denominator 4 does not divide 2"),
            # B = 6: the root x^(1/9) is named by its own denominator, not 6*3
            ("frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=1 laurent=false",
             "x^(1/3)", r"exponent 1/3 leaves the lattice \(denominator 9 does not divide 6"),
        ]:
            ring = br.make_ring(spec)
            with pytest.raises(DepthExhausted, match=msg):
                br.frobenius(br.evaluate(ring, x), -1)

    def test_one_pass_names_the_step_that_refuses(self):
        # the refusal names the exponent where single steps stop: the least
        # p-adic valuation, not the first key p^k misses (x^(1/3) below)
        frac = br.make_ring("frac base=(ff p=3 e=1) vars=x,y depth_p=2 depth_2=0 laurent=false")
        uq = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^16")
        for ring, x, k, err, msg in [
            (frac, "x^(1/3)+y^(1/9)", -2, DepthExhausted,
             "p-th root of exponent 1/9 leaves the lattice (denominator 27 does not divide 9)"),
            (frac, "x^3+x^(1/3)*y", -3, DepthExhausted,
             "p-th root of exponent 1/9 leaves the lattice (denominator 27 does not divide 9)"),
            (uq, "T^8+T^6+T^4", -3, NoRoot,
             "canonical representative is not a p-th power (T-exponent 3 not divisible by 2)"),
            (uq, "T^12+T^2", -2, NoRoot,
             "canonical representative is not a p-th power (T-exponent 1 not divisible by 2)"),
        ]:
            with pytest.raises(err) as info:
                br.frobenius(br.evaluate(ring, x), k)
            assert str(info.value) == msg
        # F^3 = id on F_8, so F^-100 = F^2
        f8 = br.make_ring("ff p=2 e=3")
        u1 = br.evaluate(f8, "u+1")
        assert br.frobenius(u1, -100) == br.frobenius(u1, 2) == br.pow_int(u1, 4)

    @pytest.mark.parametrize("desc", [
        "ff p=3 e=1", "ff p=2 e=3",
        "frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true",
        "frac base=(ff p=2 e=2) vars=x,y depth_p=1 depth_2=1 laurent=false",
    ])
    def test_inverse_at_far_k_forms_no_power_of_p(self, desc):
        # a power of p past every exponent numerator divides only 0, so
        # k = -(about 10^18) answers as k = -40e does: both are multiples of
        # e, the period of F on F_q, and p^40 exceeds every numerator here
        ring, rng = br.make_ring(desc), random.Random(17)
        e = ring.base.e

        def outcome(x, k):
            try:
                return br.frobenius(x, k)
            except DepthExhausted as exc:
                return str(exc)

        def on_alarm(signum, frame):
            raise TimeoutError("inverse Frobenius at k = -10^18 ran past 5 s")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(5)
        try:
            for _ in range(30):
                x = br.random_element(ring, rng, max_terms=3, denom_depth=1)
                far = 10 ** 18 + 40 * e - 10 ** 18 % e
                assert outcome(x, -far) == outcome(x, -40 * e)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_field_coefficients_get_rooted(self):
        ring = br.make_ring("frac base=(ff p=2 e=2) vars=x depth_p=1 depth_2=0 laurent=false")
        u_x = br.evaluate(ring, "u*x^2")
        back = br.frobenius(u_x, -1)
        assert br.frobenius(back, 1) == u_x

    def test_uq_representative_rule(self):
        ring = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^4+T^2")
        sq = br.evaluate(ring, "T^2")
        assert br.frobenius(sq, -1) == br.evaluate(ring, "T")
        with pytest.raises(NoRoot):
            br.frobenius(br.evaluate(ring, "T"), -1)
        # F_27: dilation refuses T, whose cube root T^9 the linear solve finds
        f27 = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1")
        assert br.frobenius(br.evaluate(f27, "T"), -1) == br.evaluate(f27, "T^9")

    @given(p=st.sampled_from([2, 3]), e=st.integers(1, 2), degree=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32), k=st.integers(1, 3))
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_uq_roundtrip_on_squarefree_moduli(self, p, e, degree, seed, k):
        # a reduced finite ring is a product of fields, so every element has
        # exactly one p^k-th root and frobenius(., -k) must find it
        rng, field = random.Random(seed), F(p, e)
        modulus = tuple(br.random_coeff(field, rng) for _ in range(degree))
        ring = br.UnivariateQuotient(field, "T", modulus + (field.one(),))
        if not br.is_reduced_univariate(ring).reduced:
            return
        x = br.random_element(ring, rng, max_terms=4, exp_bound=degree - 1)
        assert br.frobenius(br.frobenius(x, -k), k) == x

    def test_roundtrip_random(self):
        rng = random.Random(11)
        ring = br.make_ring("frac base=(ff p=3 e=2) vars=x,y depth_p=2 depth_2=0 laurent=true")
        for _ in range(25):
            a = br.random_element(ring, rng, denom_depth=1)
            assert br.frobenius(br.frobenius(a, -1), 1) == a
            assert br.frobenius(br.frobenius(a, 2), -2) == a

    def test_additive_and_multiplicative(self):
        rng = random.Random(13)
        ring = br.make_ring("frac base=(ff p=5 e=1) vars=x depth_p=1 depth_2=0 laurent=false")
        for _ in range(20):
            a = br.random_element(ring, rng)
            b = br.random_element(ring, rng)
            assert br.frobenius(a + b, 1) == br.frobenius(a, 1) + br.frobenius(b, 1)
            assert br.frobenius(a * b, 1) == br.frobenius(a, 1) * br.frobenius(b, 1)


class TestFrobeniusAgainstSteps:
    """frobenius(x, k) maps keys; pow_int(x, p^k) multiplies x out, so it is
    an independent reference for k >= 0.  An inverse of k steps must equal k
    single steps, or raise the same error.  On uq rings that holds where
    roots are unique (reduced g) or read off the exponents (g = T^m); on
    other non-reduced rings the p^k-th root can exist where a p-th root of a
    p-th root does not (TestPthRootSolver).  EXAMPLES derandomized examples
    per ring and property."""

    RINGS = [
        ("ff p=2 e=2", {}),
        ("ff p=3 e=2", {}),
        ("frac base=(ff p=3 e=1) vars=x,y depth_p=1 depth_2=1 laurent=true",
         {"max_terms": 3, "denom_depth": 1}),
        ("frac base=(ff p=2 e=1) vars=x,y depth_p=1 depth_2=0 laurent=false mod=x^2,x*y^(3/2)",
         {"max_terms": 4, "denom_depth": 1}),
        ("uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1", {"max_terms": 3}),  # F_27
        ("uq base=(ff p=2 e=1) var=T modulus=T^6", {"max_terms": 4}),
        ("uq base=(ff p=3 e=1) var=T modulus=T+2", {}),  # degree 1: T = 1
        ("uq base=(ff p=2 e=2) var=T modulus=T^3+u*T+1", {"max_terms": 3}),
    ]
    EXAMPLES = 30

    @pytest.mark.parametrize("desc,kw", RINGS)
    @given(seed=st.integers(0, 2 ** 32), k=st.integers(0, 3))
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    def test_forward_is_the_p_power(self, desc, kw, seed, k):
        ring = br.make_ring(desc)
        x = br.random_element(ring, random.Random(seed), **kw)
        assert br.frobenius(x, k) == br.pow_int(x, ring.base.p ** k)

    # ff rings last, after the rings this test first ran on
    @pytest.mark.parametrize("desc,kw", sorted(RINGS, key=lambda r: r[0].startswith("ff")))
    @given(seed=st.integers(0, 2 ** 32), j=st.integers(0, 3), k=st.integers(1, 4))
    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None)
    def test_inverse_is_single_steps(self, desc, kw, seed, j, k):
        ring = br.make_ring(desc)
        # a j-th Frobenius image, so that some of the k steps succeed
        x = br.frobenius(br.random_element(ring, random.Random(seed), **kw), j)

        def outcome(f):
            try:
                return f()
            except (DepthExhausted, NoRoot) as exc:
                return type(exc), str(exc)

        def steps():
            y = x
            for _ in range(k):
                y = br.frobenius(y, -1)
            return y

        assert outcome(lambda: br.frobenius(x, -k)) == outcome(steps)


def fq_t(p, text):
    """An element of F_p[T]."""
    return br.evaluate(br._poly_ring(F(p), "T"), text)


class TestRadicalMachinery:
    def test_radical_strips_multiplicity(self):
        # g = T^2 (T+1)^3 ; the nilpotent witness is its radical T(T+1)
        ring = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^2*(T+1)^3")
        rep = br.is_reduced_univariate(ring)
        assert rep.witness == br.evaluate(ring, "T*(T+1)")
        assert rep.nilpotency == 3

    def test_radical_of_pth_power(self):
        # g = T^8 over F_2: derivative vanishes identically
        ring = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^8")
        rep = br.is_reduced_univariate(ring)
        assert rep.witness == br.evaluate(ring, "T")
        assert rep.nilpotency == 8

    def test_multiplicity_layers(self):
        layers = dict(br.fq_multiplicity_layers(fq_t(3, "T*(T+1)^3*(T+2)^3")))
        assert layers[1] == fq_t(3, "T")
        assert layers[3] == fq_t(3, "(T+1)*(T+2)")
        assert set(layers) == {1, 3}

    def test_reduced_report_squarefree(self):
        ring = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^2+1")
        rep = br.is_reduced_univariate(ring)
        assert rep.reduced and rep.witness is None

    def test_reduced_report_t_squared(self):
        ring = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^2")
        rep = br.is_reduced_univariate(ring)
        assert not rep.reduced
        assert rep.witness == br.evaluate(ring, "T")
        assert br.pow_int(rep.witness, rep.nilpotency).is_zero()
        assert not br.pow_int(rep.witness, rep.nilpotency - 1).is_zero()

    def test_reduced_report_frobenius_kernel_shape(self):
        ring = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^2+1")
        # T^2+1 = (T+1)^2 over F_2, so T+1 is nilpotent
        rep = br.is_reduced_univariate(ring)
        assert not rep.reduced
        assert rep.witness == br.evaluate(ring, "T+1")
        assert rep.nilpotency == 2


def random_monic(field, rng, degree):
    """A random monic element of F_q[T] of the given degree."""
    coeffs = [br.random_coeff(field, rng) for _ in range(degree)] + [field.one()]
    return br._poly_elt(field, "T", coeffs)


class TestFactorizationProperties:
    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_layers_of_random_products(self, p, e):
        # g = prod f_i^k_i with k_i up to 2p+2, so p | k and (for p = 2)
        # p^2 | k occur; factors may repeat or share roots
        field, rng = F(p, e), random.Random(100 * p + e)
        one = br.one(br._poly_ring(field, "T"))
        for _ in range(40):
            g = one
            for _ in range(rng.randint(1, 3)):
                f = random_monic(field, rng, rng.randint(1, 2))
                g = g * br.pow_int(f, rng.randint(1, 2 * p + 2))
            layers = br.fq_multiplicity_layers(g)
            ks = [k for k, _ in layers]
            assert ks == sorted(set(ks)) and ks[0] >= 1
            prod = one
            for k, a in layers:
                assert a.terms[0][1] == field.one() and a.terms[0][0] != (0,)
                assert br._fq_gcd(a, br._fq_deriv(a)) == one  # squarefree
                prod = prod * br.pow_int(a, k)
            assert prod == g
            for i, (_, a) in enumerate(layers):
                for _, b in layers[i + 1:]:
                    assert br._fq_gcd(a, b) == one
            radical = one
            for _, a in layers:
                radical = radical * a
            ring = br.make_ring(f"uq base=(ff p={p} e={e}) var=T modulus={g}")
            rep = br.is_reduced_univariate(ring)
            assert rep.reduced == (ks == [1])
            if rep.reduced:
                assert rep.witness is None and rep.nilpotency is None
                continue
            assert rep.witness == br._uq_elt(ring, radical)
            m, acc = 1, rep.witness
            while not acc.is_zero():
                m, acc = m + 1, acc * rep.witness
            assert rep.nilpotency == m == max(ks)


def mobius(n):
    """The Moebius function by trial division."""
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


class TestPolynomialsOverFq:
    """F_q[T] helpers against oracles that share no code with them."""

    @pytest.mark.parametrize("p,n", [(2, n) for n in range(1, 9)]
                             + [(3, n) for n in range(1, 6)]
                             + [(5, n) for n in range(1, 4)])
    def test_irreducible_count_is_gauss_formula(self, p, n):
        # (1/n) * sum over d | n of mu(d) p^(n/d) monic irreducibles of degree n
        want = sum(mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
        got = 0
        for idx in range(p ** n):
            low = tuple(idx // p ** i % p for i in range(n))
            got += br._poly_is_irreducible(p, low + (1,))
        assert got == want

    # 60 derandomized examples per field
    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2)])
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(a=st.lists(st.integers(0, 8), max_size=9),
           b=st.lists(st.integers(0, 8), max_size=5), lead=st.integers(0, 7))
    def test_divmod_is_division_with_remainder(self, p, e, a, b, lead):
        f = F(p, e)
        q = f.p ** f.e

        def poly(coeffs):
            return br._poly_elt(f, "T", [br._digits(c % q, p, e) for c in coeffs])

        num, den = poly(a), poly(b + [lead % (q - 1) + 1])
        quo, rem = br._fq_divmod(num, den)
        assert quo * den + rem == num
        assert rem.is_zero() or rem.terms[0][0] < den.terms[0][0]


class TestIntersectionWitness:
    def setup_method(self):
        self.ring = br.make_ring(
            "frac base=(ff p=3 e=1) vars=x,y depth_p=0 depth_2=0 laurent=false")

    def ev(self, s):
        return br.evaluate(self.ring, s)

    def test_member_case(self):
        # a = x^2 y, b = x y^3: a*g^n = b*f^m with f=x, g=y, m=1, n=2 -> h = x*y
        f, g = self.ev("x"), self.ev("y")
        a, b = self.ev("x^2*y"), self.ev("x*y^3")
        res = br.intersection_witness(f, g, a, b, 1, 2)
        assert res.status == "member"
        assert res.element == self.ev("x*y")

    def test_refuted_case(self):
        f, g = self.ev("x"), self.ev("y")
        a, b = self.ev("x^2*y"), self.ev("y^3")
        res = br.intersection_witness(f, g, a, b, 1, 2)
        assert res.status == "refuted"

    def test_not_applicable_shared_support(self):
        f, g = self.ev("x"), self.ev("x*y")
        res = br.intersection_witness(f, g, self.ev("x"), self.ev("x"), 1, 1)
        assert res.status == "not_applicable"

    def test_not_applicable_laurent(self):
        ring = br.make_ring(
            "frac base=(ff p=3 e=1) vars=x,y depth_p=0 depth_2=0 laurent=true")
        f, g = br.evaluate(ring, "x"), br.evaluate(ring, "y")
        res = br.intersection_witness(f, g, f, g, 1, 1)
        assert res.status == "not_applicable"

    def test_member_with_coefficients(self):
        f, g = self.ev("2*x"), self.ev("y")
        a, b = self.ev("2*x*y^2"), self.ev("y^3")
        res = br.intersection_witness(f, g, a, b, 1, 1)
        assert res.status == "member"
        assert res.element == self.ev("y^2")

    def test_random_members_verify(self):
        rng = random.Random(5)
        f, g = self.ev("x"), self.ev("y")
        for _ in range(20):
            h = br.random_element(self.ring, rng, max_terms=3, allow_zero=False)
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            a = h * br.pow_int(f, m)
            b = h * br.pow_int(g, n)
            res = br.intersection_witness(f, g, a, b, m, n)
            assert res.status == "member"
            assert res.element == h
