import random
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge import base_rings as br
from wittforge import witt_core as wc
from wittforge.errors import (
    DepthExhausted,
    IntegralityViolation,
    LevelTooLarge,
    MismatchError,
    NotDivisible,
    NotInGhostImage,
)

F2 = br.make_ring("ff p=2 e=1")
F3 = br.make_ring("ff p=3 e=1")
F5 = br.make_ring("ff p=5 e=1")
F4 = br.make_ring("ff p=2 e=2")
F9 = br.make_ring("ff p=3 e=2")
F25 = br.make_ring("ff p=5 e=2")
F8 = br.make_ring("ff p=2 e=3")
UQ9 = br.make_ring("uq base=(ff p=3 e=2) var=T modulus=T^2+2*T+2")
PX2 = br.make_ring("frac base=(ff p=2 e=1) vars=x depth_p=0 depth_2=0 laurent=false")
PERF3 = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=false")
LAUR9 = br.make_ring("frac base=(ff p=3 e=2) vars=x depth_p=1 depth_2=0 laurent=true")
QUOT2 = br.make_ring(
    "frac base=(ff p=2 e=1) vars=x,y depth_p=1 depth_2=0 laurent=false mod=x^2,x*y^(3/2)")
UQ5 = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^5+2*T^2+T+1")
UQ2 = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^3+T+1")
LAUR3 = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=0 laurent=true")


LIFT = {"_lift_ghost", "_lift_solve"}
STRICT = {"_to_perf", "_from_perf"}
SPLIT = {"_witt_op_split", "_zq_op"}


def record_route_calls(monkeypatch, names=LIFT) -> list:
    """The names of the route steps called from now on, in order: the
    ghost-lift steps unless other names are given."""
    calls = []

    def recording(name):
        orig = getattr(wc, name)

        def wrapped(*args):
            calls.append(name)
            return orig(*args)
        return wrapped

    for name in names:
        monkeypatch.setattr(wc, name, recording(name))
    return calls


def rand_witt(ring, rng, n, **kw):
    return wc.WittVector(ring, tuple(br.random_element(ring, rng, **kw)
                                     for _ in range(n)))


class TestStructuralTables:
    def test_frozen_level_one_p2(self):
        s = wc.structural_polys(2, 1, "sum")
        assert wc.table_lines(s) == ["S_0 = X0+Y0", "S_1 = -X0*Y0+X1+Y1"]
        p = wc.structural_polys(2, 1, "product")
        assert wc.table_lines(p) == ["P_0 = X0*Y0", "P_1 = X0^2*Y1+X1*Y0^2+2*X1*Y1"]

    def test_negation_level_zero(self):
        for p in (2, 3, 5):
            t = wc.structural_polys(p, 0, "negation")
            assert wc.table_lines(t) == ["I_0 = -X0"]

    def test_negation_odd_p_is_coordinatewise(self):
        for p in (3, 5):
            t = wc.structural_polys(p, 3, "negation")
            assert wc.table_lines(t) == [f"I_{i} = -X{i}" for i in range(4)]

    def test_negation_p2_level_one(self):
        t = wc.structural_polys(2, 1, "negation")
        assert wc.table_lines(t) == ["I_0 = -X0", "I_1 = -X0^2-X1"]

    def test_sum_p3_level_one(self):
        t = wc.structural_polys(3, 1, "sum")
        # S_1 = X1 + Y1 - X0^2 Y0 - X0 Y0^2, from (X0+Y0)^3 expansion by hand
        assert wc.table_lines(t)[1] == "S_1 = -X0^2*Y0-X0*Y0^2+X1+Y1"

    @pytest.mark.parametrize("p,level", [(2, 4), (3, 3), (5, 2)])
    @pytest.mark.parametrize("kind", wc.KINDS)
    def test_ghost_identity_symbolic(self, p, level, kind):
        wc.verify_table(wc.structural_polys(p, level, kind))

    def test_level_cap(self):
        with pytest.raises(LevelTooLarge):
            wc.structural_polys(2, 7, "sum")

    def test_term_budget_guard_names_the_estimate(self):
        with pytest.raises(LevelTooLarge) as exc:
            wc.structural_polys(5, 4, "sum")
        assert "130941098" in str(exc.value)

    def test_packing_guard(self):
        # bound 259 is inside the term budget, but X0^(257^2) would overflow
        # its 16-bit exponent field
        with pytest.raises(LevelTooLarge, match="66049"):
            wc.structural_polys(257, 2, "negation")
        assert len(wc.structural_polys(251, 2, "negation").polys) == 3

    def test_memo_is_bounded(self):
        bound = wc.structural_polys.cache_info().maxsize
        primes = [p for p in range(2, 1000) if br._is_prime(p)][:bound + 1]
        for p in primes:
            wc.structural_polys(p, 0, "negation")
        assert wc.structural_polys.cache_info().currsize == bound

    def test_large_prime_sum_request_is_refused_quickly(self):
        # the count runs over weights up to 251^2 = 63001 in two families;
        # the budget refusal must not wait seconds for it
        start = time.perf_counter()
        with pytest.raises(LevelTooLarge, match="669480506"):
            wc.check_table_request(251, 2, "sum")
        assert time.perf_counter() - start < 3.0

    def test_term_count_bound_refuses_packing_overflow(self):
        # about p^level steps of counting; refused before the first one
        with pytest.raises(LevelTooLarge, match="16-bit"):
            wc.term_count_bound(10007, 3, "negation")

    def test_term_count_bounds_frozen(self):
        # weighted-composition counts, frozen as the feasibility oracle
        assert wc.term_count_bound(3, 4, "sum") == 115602
        assert wc.term_count_bound(2, 5, "sum") == 23400
        assert wc.term_count_bound(5, 3, "product") == 6724
        assert wc.term_count_bound(5, 4, "sum") == 130941098

    def test_bounds_dominate_actual_counts(self):
        for p, level in ((2, 4), (3, 3)):
            t = wc.structural_polys(p, level, "sum")
            assert len(t.polys[level]) <= wc.term_count_bound(p, level, "sum")


class TestCompiledEvaluators:
    @staticmethod
    def naive_eval(poly, xs, ys, const=int):
        """Term-by-term sum; const maps each integer coefficient into the
        ring of the arguments (from_int for ring elements)."""
        total = const(0)
        for key, c in poly.items():
            v = const(c)
            for var, e in wc._mono_decode(key):
                base = xs[var // 2] if var % 2 == 0 else ys[var // 2]
                v *= base ** e
            total += v
        return total

    @staticmethod
    def wide_poly():
        """320 distinct exponents of X0 (a top-level sum far wider than one
        `+` chain), 100-bit coefficients of both signs, a constant term."""
        rng = random.Random(41)
        return {wc._mono_key(((0, e), (1, e % 7), (3, e % 2))):
                rng.choice((-1, 1)) * rng.getrandbits(100) for e in range(320)}

    @staticmethod
    def deep_poly():
        """One X0^3 group of 1,250 terms, with a 250-part Y0 sum inside it,
        plus a few terms outside the group and a bare constant."""
        poly = {wc._mono_key(((0, 3), (1, a), (2, b))): (-1) ** (a + b) * (5 * a + b + 1)
                for a in range(250) for b in range(5)}
        poly.update({wc._mono_key(((2, 2),)): -4, wc._mono_key(((1, 1),)): 1, 0: 9})
        return poly

    @pytest.mark.parametrize("p,level,kind", [(2, 3, "sum"), (3, 2, "product"),
                                              (5, 2, "sum"), (2, 2, "negation"),
                                              (5, 3, "product")])
    def test_matches_naive_evaluation(self, p, level, kind):
        rng = random.Random(17)
        table = wc.structural_polys(p, level, kind)
        fns = wc.compile_table(table)
        for _ in range(10):
            xs = tuple(rng.randint(-9, 9) for _ in range(level + 1))
            ys = tuple(rng.randint(-9, 9) for _ in range(level + 1))
            for i, poly in enumerate(table.polys):
                assert fns[i](xs, ys) == self.naive_eval(poly, xs, ys)

    @pytest.mark.parametrize("make", ["wide_poly", "deep_poly"])
    def test_wide_and_deep_bodies(self, make):
        # a bad split of a wide sum must give a wrong value here, not a
        # SyntaxError or RecursionError at compile time in the field
        poly = getattr(self, make)()
        f = wc._compile_poly(poly)
        rng = random.Random(19)
        for _ in range(5):
            xs = tuple(rng.randint(-3, 3) for _ in range(3))
            ys = tuple(rng.randint(-3, 3) for _ in range(3))
            assert f(xs, ys) == self.naive_eval(poly, xs, ys)

    @pytest.mark.parametrize("ring", [F9, F4, UQ2, LAUR3], ids=["F9", "F4", "uq", "frac"])
    def test_ring_elements_match_naive_ring_evaluation(self, ring):
        # the table route's int/element mixing: integer coefficients (100-bit
        # in the synthetic polys) times elements, bare constants, and the
        # `t = 0; t += ...` temporaries of wide sums
        rng = random.Random(23)
        p = br.ring_char(ring)
        const = partial(br.from_int, ring)
        tables = [wc.structural_polys(p, level, kind)
                  for level in (2, 3) for kind in ("sum", "product")]
        polys = ([q for t in tables for q in t.polys]
                 + [self.wide_poly(), self.deep_poly()])
        fns = ([f for t in tables for f in wc.compile_table(t)]
               + [wc._compile_poly(q) for q in polys[-2:]])
        for _ in range(2):
            xs = tuple(br.random_element(ring, rng, max_terms=2) for _ in range(4))
            ys = tuple(br.random_element(ring, rng, max_terms=2) for _ in range(4))
            for f, poly in zip(fns, polys):
                assert f(xs, ys) == self.naive_eval(poly, xs, ys, const)


class TestGhostOracle:
    def test_frozen_examples(self):
        assert wc.ghost((1, 1), 2) == (1, 3)
        assert wc.from_ghost((1, 3), 2) == (1, 1)
        with pytest.raises(NotInGhostImage):
            wc.from_ghost((0, 1), 2)

    def test_teichmuller_ghost(self):
        for p in (2, 3, 5):
            a = 7
            g = wc.ghost((a, 0, 0), p)
            assert g == (a, a ** p, a ** (p * p))

    @given(st.integers(2, 5).filter(lambda p: p in (2, 3, 5)),
           st.lists(st.integers(-40, 40), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, p, coords):
        assert wc.from_ghost(wc.ghost(coords, p), p) == tuple(coords)

    def test_ghost_linearizes(self):
        rng = random.Random(23)
        for p in (2, 3, 5):
            table_s = wc.compile_table(wc.structural_polys(p, 2, "sum"))
            table_m = wc.compile_table(wc.structural_polys(p, 2, "product"))
            for _ in range(20):
                xs = tuple(rng.randint(-9, 9) for _ in range(3))
                ys = tuple(rng.randint(-9, 9) for _ in range(3))
                s = tuple(f(xs, ys) for f in table_s)
                m = tuple(f(xs, ys) for f in table_m)
                gx = wc.ghost(xs, p)
                gy = wc.ghost(ys, p)
                assert wc.ghost(s, p) == tuple(a + b for a, b in zip(gx, gy))
                assert wc.ghost(m, p) == tuple(a * b for a, b in zip(gx, gy))


class TestWittArithmetic:
    def test_frozen_w2_examples(self):
        x = wc.make_witt(F2, [1, 0])
        assert wc.witt_add(x, x).coords == wc.make_witt(F2, [0, 1]).coords
        a = wc.make_witt(F3, [1, 0])
        b = wc.make_witt(F3, [2, 0])
        assert wc.witt_add(a, b) == wc.witt_zero(F3, 2)

    def test_unit_laws(self):
        rng = random.Random(5)
        for ring in (F3, F4, UQ9):
            for _ in range(5):
                x = rand_witt(ring, rng, 3)
                assert wc.witt_add(x, wc.witt_zero(ring, 3)) == x
                assert wc.witt_mul(x, wc.witt_one(ring, 3)) == x
                assert wc.witt_add(x, wc.witt_neg(x)) == wc.witt_zero(ring, 3)

    def test_length_one_degenerates_to_base_ring(self):
        rng = random.Random(6)
        for _ in range(10):
            a = br.random_element(UQ9, rng)
            b = br.random_element(UQ9, rng)
            x, y = wc.make_witt(UQ9, [a]), wc.make_witt(UQ9, [b])
            assert wc.witt_add(x, y).coords == (a + b,)
            assert wc.witt_mul(x, y).coords == (a * b,)

    @pytest.mark.parametrize("ring", [F3, LAUR3, UQ5], ids=["F3", "frac", "uq"])
    def test_operators_match_the_named_functions(self, ring):
        # +, -, * and unary - on WittVector are witt_add, witt_sub, witt_mul
        # and witt_neg
        rng = random.Random(11)
        for n in (1, 2, 3):
            for _ in range(4):
                x, y = rand_witt(ring, rng, n), rand_witt(ring, rng, n)
                assert x + y == wc.witt_add(x, y)
                assert x - y == wc.witt_sub(x, y)
                assert x * y == wc.witt_mul(x, y)
                assert -x == wc.witt_neg(x)

    @pytest.mark.parametrize("ring", [F2, F3, F4, UQ9, PERF3, LAUR9, QUOT2, UQ5])
    def test_route_equality(self, ring):
        # the lift route runs the ring kernel at K = n+1, the table route
        # only at K = 1, both for odd-p neg too; LAUR9 and QUOT2 also draw
        # exponents over p
        kw = {"denom_depth": 1} if ring in (LAUR9, QUOT2) else {}
        rng = random.Random(7)
        for _ in range(8):
            n = rng.randint(1, 4)
            x, y = rand_witt(ring, rng, n, **kw), rand_witt(ring, rng, n, **kw)
            for op in ("add", "mul", "neg"):
                assert wc._witt_op_lift(op, x, y) == wc._witt_op_table(op, x, y)

    @pytest.mark.parametrize("ring", [F3, F4, F9], ids=["F3", "F4", "F9"])
    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_lift_route_equals_table_route(self, ring, data):
        """add, mul and neg agree on both routes at lengths 1..3, over
        Hypothesis-drawn coordinates: 60 derandomized examples per ring.  Odd-p
        neg runs each route in full; only witt_arith takes it coordinatewise."""
        F = ring.base
        n = data.draw(st.integers(1, 3))
        coord = st.tuples(*[st.integers(0, F.p - 1)] * F.e).map(
            partial(br.from_coeff, ring))
        vector = st.lists(coord, min_size=n, max_size=n).map(
            lambda cs: wc.WittVector(ring, tuple(cs)))
        x, y = data.draw(vector), data.draw(vector)
        for op in ("add", "mul", "neg"):
            assert wc._witt_op_lift(op, x, y) == wc._witt_op_table(op, x, y)

    def test_ring_axioms_random(self):
        rng = random.Random(8)
        for ring in (F3, F4):
            for _ in range(15):
                n = rng.randint(2, 4)
                x, y, z = (rand_witt(ring, rng, n) for _ in range(3))
                assert wc.witt_add(x, y) == wc.witt_add(y, x)
                assert wc.witt_mul(x, y) == wc.witt_mul(y, x)
                assert (wc.witt_add(wc.witt_add(x, y), z)
                        == wc.witt_add(x, wc.witt_add(y, z)))
                assert (wc.witt_mul(wc.witt_mul(x, y), z)
                        == wc.witt_mul(x, wc.witt_mul(y, z)))
                assert (wc.witt_mul(x, wc.witt_add(y, z))
                        == wc.witt_add(wc.witt_mul(x, y), wc.witt_mul(x, z)))

    def test_mismatch_errors(self):
        x = wc.witt_one(F2, 2)
        y = wc.witt_one(F2, 3)
        with pytest.raises(MismatchError):
            wc.witt_add(x, y)
        with pytest.raises(MismatchError):
            wc.witt_add(x, wc.witt_one(F3, 2))


def zq_operand(ring, n):
    """Length-n vectors over a finite field: dense (every coordinate drawn,
    mostly nonzero) or sparse (at most two nonzero coordinates)."""
    F = ring.base
    coeff = st.tuples(*[st.integers(0, F.p - 1)] * F.e)
    dense = st.lists(coeff, min_size=n, max_size=n)
    sparse = st.dictionaries(st.integers(0, n - 1), coeff, max_size=2).map(
        lambda d: [d.get(i, F.zero()) for i in range(n)])
    return st.one_of(dense, sparse).map(
        lambda cs: wc.WittVector(ring, tuple(br.from_coeff(ring, c) for c in cs)))


class TestZqRoute:
    """W_n(F_q) = Z_q/p^n, the default route over finite fields.  F_8 is
    the one field here where the twist x_i^(p^-i) differs from x_i^(p^i)."""

    FIELDS = [F2, F3, F4, F8, F9, F25]
    IDS = ["F2", "F3", "F4", "F8", "F9", "F25"]
    TABLE_TERMS = 10_000

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("ring", FIELDS, ids=IDS)
    @given(data=st.data())
    @settings(max_examples=10, derandomize=True, deadline=None)
    def test_matches_lift_and_table_routes(self, ring, n, data):
        """add, mul and neg (p = 2 neg included) agree with the lift route at
        n = 1..8, and with the table route wherever check_table_request admits
        a table of at most TABLE_TERMS terms: 10 derandomized examples per
        field and length.  The five larger admitted tables ((2, sum|product, 5),
        (3, sum|product, 4), (5, sum, 3)) take 0.2-9 s to generate and
        0.1-1 s per evaluation on ring elements, too slow for a property."""
        p = br.ring_char(ring)
        x, y = data.draw(zq_operand(ring, n)), data.draw(zq_operand(ring, n))
        for op, kind in (("add", "sum"), ("mul", "product"), ("neg", "negation")):
            got = wc._witt_op_zq(op, x, None if op == "neg" else y)
            assert got == wc._witt_op_lift(op, x, y)
            assert got == wc.witt_arith(op, x, y)
            try:
                wc.check_table_request(p, n - 1, kind)
            except LevelTooLarge:
                continue
            if wc.term_count_bound(p, n - 1, kind) <= self.TABLE_TERMS:
                assert got == wc._witt_op_table(op, x, y)

    @pytest.mark.parametrize("ring", FIELDS, ids=IDS)
    @given(data=st.data())
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_round_trip_and_teichmuller_digits(self, ring, data):
        """W_n(F_q) -> Z_q/p^n -> W_n(F_q) is the identity, and [a] reads
        back as (a, 0, ..., 0): 30 derandomized examples per field."""
        F = ring.base
        n = data.draw(st.integers(1, 8))
        x = data.draw(zq_operand(ring, n))
        coeffs = wc._coeffs(x)
        assert wc._from_zq(F, wc._to_zq(F, coeffs, n), n) == coeffs
        a = data.draw(st.tuples(*[st.integers(0, F.p - 1)] * F.e))
        assert (wc._from_zq(F, wc._teich(F, a, n), n)
                == wc._coeffs(wc.teichmuller(br.from_coeff(ring, a), n)))

    def test_auto_route_uses_the_ghost_lift_only_off_finite_fields(self, monkeypatch):
        # finite fields run Z_q; off them a frac ring without a quotient runs
        # the strict p-ring route and a uq ring the ghost lift
        calls = record_route_calls(monkeypatch, LIFT | STRICT)
        rng = random.Random(11)
        for ring in self.FIELDS:
            x, y = rand_witt(ring, rng, 5), rand_witt(ring, rng, 5)
            wc.witt_add(x, y), wc.witt_mul(x, y), wc.witt_sub(x, y), wc.witt_neg(x)
        assert calls == []
        for ring, steps in ((UQ9, LIFT), (PERF3, STRICT)):
            x = rand_witt(ring, rng, 3, allow_zero=False)
            y = rand_witt(ring, rng, 3, allow_zero=False)
            calls.clear()
            wc.witt_add(x, y)
            assert set(calls) == steps

    def test_teichmuller_memo_is_bounded(self):
        bound = wc._teich.cache_info().maxsize
        F = br.make_field(next(p for p in range(bound + 2, 2 * bound + 4)
                               if br._is_prime(p)), 1)
        for a in range(bound + 1):
            wc._teich(F, (a,), 1)
        assert wc._teich.cache_info().currsize == bound


# id: (descriptor, longest length drawn).  The lift oracle's cost grows
# with p^(n-1), fastest in two variables and over F_(q^2): one p2e2xy
# product at n = 6 took 35 s, and the p5 and p5laur tests one length longer
# took 3-4 s each, so those rings stop short of 6
STRICT_RINGS = {
    "p2": ("frac base=(ff p=2 e=1) vars=x depth_p=0 depth_2=0 laurent=false", 6),
    "p2e2xy": ("frac base=(ff p=2 e=2) vars=x,y depth_p=1 depth_2=1 laurent=true", 5),
    "p3laur": ("frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=1 laurent=true", 6),
    "p3e2xy": ("frac base=(ff p=3 e=2) vars=x,y depth_p=1 depth_2=0 laurent=false", 3),
    "p5": ("frac base=(ff p=5 e=1) vars=x depth_p=1 depth_2=0 laurent=false", 5),
    "p5laur": ("frac base=(ff p=5 e=2) vars=x depth_p=0 depth_2=1 laurent=true", 3),
}
STRICT_CASES = {f"{key}-n{n}": (spec, n) for key, (spec, top) in STRICT_RINGS.items()
                for n in range(1, top + 1)}


def strict_operand(ring, n):
    """Length-n vectors over a frac ring, each coordinate zero, one term or
    two, exponents in [-1, 2] (in [0, 2] outside Laurent rings).  Both routes
    raise a coordinate at index i to p^(n-1-i), about p^(n-1-i) terms for
    two, so two terms are drawn only where that is at most 27."""
    F, b = ring.base, ring.lattice_b
    coeff = st.tuples(*[st.integers(0, F.p - 1)] * F.e).filter(any)
    key = st.tuples(*[st.integers(-b if ring.laurent else 0, 2 * b)]
                    * len(ring.variables))
    coords = [st.dictionaries(key, coeff, max_size=2 if F.p ** (n - 1 - i) <= 27 else 1)
              .map(partial(br._mk, ring)) for i in range(n)]
    return st.tuples(*coords).map(partial(wc.WittVector, ring))


class TestStrictRoute:
    """W_n(A) inside W_n(A^perf) = Z_q[M^(1/p^inf)]/p^n, the default route
    over frac rings without a monomial quotient."""

    @pytest.mark.parametrize(("spec", "n"), STRICT_CASES.values(),
                             ids=STRICT_CASES.keys())
    @given(data=st.data())
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_matches_lift_route(self, spec, n, data):
        """add, mul and neg (odd-p neg included) agree with the lift route at
        each length up to the ring's longest (6 for p2 and p3laur), and the
        embedding reads back as the identity: 6 derandomized examples per
        ring and length."""
        ring = br.make_ring(spec)
        x, y = data.draw(strict_operand(ring, n)), data.draw(strict_operand(ring, n))
        assert wc._from_perf(ring, wc._to_perf(x), n) == x.coords
        for op in ("add", "mul", "neg"):
            got = wc._witt_op_perf(op, x, None if op == "neg" else y)
            assert got == wc._witt_op_lift(op, x, y)
            assert got == wc.witt_arith(op, x, y)

    def test_rings_with_relations_keep_the_lift_route(self, monkeypatch):
        # uq rings and frac rings with a monomial quotient are no monoid
        # algebras, so the frac kernel cannot run their perfection: the
        # fields F_8 = UQ2 and F_243 = UQ5 take the split route, UQ9 (base
        # e = 2) and QUOT2 the ghost lift
        calls = record_route_calls(monkeypatch, LIFT | STRICT | SPLIT)
        rng = random.Random(29)
        for ring, steps in ((UQ9, LIFT), (UQ2, SPLIT), (UQ5, SPLIT), (QUOT2, LIFT)):
            assert not ring.monoid_algebra
            x = rand_witt(ring, rng, 3, allow_zero=False)
            y = rand_witt(ring, rng, 3, allow_zero=False)
            for op in ("add", "mul"):
                calls.clear()
                got = wc.witt_arith(op, x, y)
                assert set(calls) == steps
                assert got == wc._witt_op_table(op, x, y)
        assert PERF3.monoid_algebra and LAUR9.monoid_algebra

    def test_read_back_refuses_what_is_not_in_the_ring(self):
        # planted elements of Z_2[x^(1/2^inf)]/2^n, keys scaled by 2^(n-1):
        # at n = 2, x^(1/2) (key 1) and 1/x (key -2) are no digits of F_2[x];
        # at n = 3, 2*x^(1/4) (key 1) is V[x^(1/2)], so digit 1 leaves it
        for z, n in (({(1,): (1,)}, 2), ({(2,): (1,), (-2,): (1,)}, 2),
                     ({(1,): (2,)}, 3)):
            with pytest.raises(IntegralityViolation, match="not in the ring"):
                wc._from_perf(PX2, z, n)
        # x + 2*x^2 = [x] + V[x^4]
        x = br.evaluate(PX2, "x")
        assert (wc._from_perf(PX2, {(4,): (1,), (8,): (2,)}, 3)
                == (x, x ** 4, br.zero(PX2)))

    def test_read_back_checks_each_division_by_p(self, monkeypatch):
        # a Teichmueller lift that is wrong mod p leaves z - [t] off p Z
        x = wc.make_witt(PERF3, [br.evaluate(PERF3, "x + x^2"), 1])
        z = wc._to_perf(x)
        monkeypatch.setattr(wc, "_perf_teich", lambda c, i, n: {(9,): (2,)})
        with pytest.raises(IntegralityViolation, match="not divisible by 3"):
            wc._from_perf(PERF3, z, 2)


# id: uq descriptor over F_2, F_3 or F_5 with a squarefree modulus g that
# splits into linear factors, stays irreducible (inert) or mixes degrees
SPLIT_RINGS = {
    "split-p2": "uq base=(ff p=2 e=1) var=T modulus=T^2+T",
    "split-p3": "uq base=(ff p=3 e=1) var=T modulus=T^3-T",
    "split-p5": "uq base=(ff p=5 e=1) var=T modulus=T^4-1",
    "inert-p2": "uq base=(ff p=2 e=1) var=T modulus=T^4+T^3+T^2+T+1",
    "inert-p3": "uq base=(ff p=3 e=1) var=T modulus=T^2+1",
    "inert-p5": "uq base=(ff p=5 e=1) var=T modulus=T^2+2",
    "mixed-p2": "uq base=(ff p=2 e=1) var=T modulus=T^3+T^2+T",
    "mixed-p3": "uq base=(ff p=3 e=1) var=T modulus=T^4+1",
    "mixed-p5": "uq base=(ff p=5 e=1) var=T modulus=T^3-1",
}
# squarefree moduli for the factorization itself, the large primes
# included: Berlekamp splits by quadratic characters from p = 5 on
FACTOR_RINGS = list(SPLIT_RINGS.values()) + [
    "uq base=(ff p=2 e=1) var=T modulus=T^15-1",
    "uq base=(ff p=2 e=1) var=T modulus=T^3+T+1",
    "uq base=(ff p=3 e=1) var=T modulus=T^5+2*T^2+T+1",
    "uq base=(ff p=3 e=1) var=T modulus=T^9-T",
    "uq base=(ff p=7 e=1) var=T modulus=T^6-1",
    "uq base=(ff p=17 e=1) var=T modulus=T^8+1",
    "uq base=(ff p=1009 e=1) var=T modulus=T^8-1",
    "uq base=(ff p=1009 e=1) var=T modulus=T^5+T+3",
    "uq base=(ff p=3 e=1) var=T modulus=T-2",
]


def uq_operand(ring, n):
    """Length-n vectors over F_p[T]/(g): dense (every coefficient of every
    coordinate drawn) or sparse (at most two nonzero coordinates)."""
    p, d = ring.base.p, ring.degree
    coeffs = st.lists(st.integers(0, p - 1), min_size=d, max_size=d)
    elt = coeffs.map(lambda cs: br._mk(ring, {(k,): (c,) for k, c in enumerate(cs) if c}))
    dense = st.lists(elt, min_size=n, max_size=n)
    sparse = st.dictionaries(st.integers(0, n - 1), elt, max_size=2).map(
        lambda m: [m.get(i, br.zero(ring)) for i in range(n)])
    return st.one_of(dense, sparse).map(lambda cs: wc.WittVector(ring, tuple(cs)))


class TestSplitRoute:
    """A reduced F_p[T]/(g) is the product of the fields F_p[u]/(g_i), and
    W_n of it the product of the W_n(F_p[u]/(g_i)), each run by Z_q: the
    default route over reduced uq rings with base e = 1."""

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("spec", SPLIT_RINGS.values(), ids=SPLIT_RINGS.keys())
    @given(data=st.data())
    @settings(max_examples=4, derandomize=True, deadline=None)
    def test_matches_lift_and_table_routes(self, spec, n, data):
        """add, mul and neg (p = 2 neg included) agree with the lift route
        at n = 1..8, and with the table route wherever check_table_request
        admits a table of at most TestZqRoute.TABLE_TERMS terms: 4
        derandomized examples per ring and length."""
        ring = br.make_ring(spec)
        p = ring.base.p
        x, y = data.draw(uq_operand(ring, n)), data.draw(uq_operand(ring, n))
        for op, kind in (("add", "sum"), ("mul", "product"), ("neg", "negation")):
            got = wc._witt_op_split(op, x, None if op == "neg" else y)
            assert got == wc._witt_op_lift(op, x, y)
            assert got == wc.witt_arith(op, x, y)
            try:
                wc.check_table_request(p, n - 1, kind)
            except LevelTooLarge:
                continue
            if wc.term_count_bound(p, n - 1, kind) <= TestZqRoute.TABLE_TERMS:
                assert got == wc._witt_op_table(op, x, y)

    @pytest.mark.parametrize("spec", FACTOR_RINGS)
    def test_factors_are_irreducible_and_multiply_back(self, spec):
        ring = br.make_ring(spec)
        F = ring.base
        factors = ring.field_factors
        g = br._poly_elt(F, "T", ring.modulus)
        prod = br.one(g.ring)
        for Fi in factors:
            assert (Fi.p, Fi.e) == (F.p, len(Fi.modulus) - 1)
            assert Fi.e == 1 or br._poly_is_irreducible(F.p, Fi.modulus)
            prod = br.mul(prod, br._poly_elt(F, "T", [(c,) for c in Fi.modulus]))
        assert prod == g
        assert len(set(factors)) == len(factors)

    @pytest.mark.parametrize("spec", FACTOR_RINGS)
    def test_idempotents_are_orthogonal_and_sum_to_one(self, spec):
        # e_i is the lift of 1 from the factor F_i: e_i e_j = 0 for i != j,
        # e_i^2 = e_i, sum e_i = 1, and e_i reduces to 1 in F_i, 0 elsewhere
        ring = br.make_ring(spec)
        split = wc._split(ring)
        idem = [br._mk(ring, {(k,): (c,) for k, c in enumerate(lift[0]) if c})
                for _, _, lift in split]
        assert sum(idem, br.zero(ring)) == br.one(ring)
        for i, (Fi, red, _) in enumerate(split):
            assert idem[i] * idem[i] == idem[i]
            for j, e in enumerate(idem):
                if j != i:
                    assert (idem[i] * e).is_zero()
                image = wc._split_reduce(Fi, red, wc.WittVector(ring, (e,)))
                assert image == [Fi.one() if i == j else None]

    @pytest.mark.parametrize("spec", [
        "uq base=(ff p=2 e=1) var=T modulus=T^9",
        "uq base=(ff p=3 e=1) var=T modulus=T^9",
        "uq base=(ff p=2 e=1) var=T modulus=T^3+T^2",
        "uq base=(ff p=3 e=1) var=T modulus=T^3+T^2",
        "uq base=(ff p=2 e=1) var=T modulus=T^4",
        "uq base=(ff p=3 e=1) var=T modulus=T^4",
        "uq base=(ff p=3 e=2) var=T modulus=T^2+2*T+2",  # UQ9
    ])
    def test_non_reduced_and_extension_bases_keep_the_lift_route(self, spec, monkeypatch):
        ring = br.make_ring(spec)
        assert ring.field_factors is None
        calls = record_route_calls(monkeypatch, LIFT | SPLIT)
        rng = random.Random(31)
        x = rand_witt(ring, rng, 3, allow_zero=False)
        y = rand_witt(ring, rng, 3, allow_zero=False)
        for op in ("add", "mul"):
            calls.clear()
            wc.witt_arith(op, x, y)
            assert set(calls) == LIFT

    def test_factoring_waits_for_the_first_witt_op(self):
        # make_ring and the element parser run no factorization
        br._field_factors.cache_clear()
        ring = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^3-T")
        x = wc.make_witt(ring, [br.evaluate(ring, "T+1"), br.evaluate(ring, "T^2")])
        assert br._field_factors.cache_info().currsize == 0
        wc.witt_mul(x, x)
        assert br._field_factors.cache_info().currsize == 1


class TestOperators:
    def test_teichmuller_multiplicative(self):
        t2 = wc.teichmuller(br.from_int(F3, 2), 2)
        assert wc.witt_mul(t2, t2) == wc.make_witt(F3, [1, 0])
        rng = random.Random(9)
        for _ in range(10):
            a = br.random_element(F4, rng)
            b = br.random_element(F4, rng)
            assert (wc.witt_mul(wc.teichmuller(a, 3), wc.teichmuller(b, 3))
                    == wc.teichmuller(a * b, 3))

    def test_teich_plus_teich_in_w2_polynomial_ring(self):
        tx = wc.teichmuller(br.evaluate(PX2, "x"), 2)
        assert wc.witt_add(tx, tx) == wc.make_witt(
            PX2, [br.zero(PX2), br.evaluate(PX2, "x^2")])
        assert wc.witt_add(tx, tx) == wc.witt_pmul(tx)

    def test_frobenius_is_coordinatewise_and_a_hom(self):
        rng = random.Random(10)
        for _ in range(10):
            x = rand_witt(F4, rng, 3)
            y = rand_witt(F4, rng, 3)
            fx = wc.frobenius_map(x)
            assert fx.coords == tuple(br.frobenius(c, 1) for c in x.coords)
            assert wc.frobenius_map(wc.witt_add(x, y)) == wc.witt_add(fx, wc.frobenius_map(y))
            assert wc.frobenius_map(wc.witt_mul(x, y)) == wc.witt_mul(fx, wc.frobenius_map(y))
            a = br.random_element(F4, rng)
            assert (wc.frobenius_map(wc.teichmuller(a, 3))
                    == wc.teichmuller(br.frobenius(a, 1), 3))

    SQRT5 = br.make_ring("frac base=(ff p=5 e=1) vars=x depth_p=0 depth_2=1 laurent=false")

    @pytest.mark.parametrize("ring,vectors", [
        (QUOT2, None),  # x^2 = 0: Frobenius kills x
        (LAUR3, None),
        (SQRT5, [("x^(1/2)", "x^(3/2)+1"), ("2*x", "x^(1/2)"),
                 ("3*x^(5/2)+x^(1/2)", "4")]),
    ], ids=["quotient", "laurent", "square-roots"])
    def test_frobenius_is_a_hom_off_finite_fields(self, ring, vectors):
        # F on W_n(A) is W_n of the p-th power map of A: coordinatewise, and
        # a ring map that commutes with the projection to A
        rng = random.Random(24)
        if vectors is None:
            xs = [rand_witt(ring, rng, 3, denom_depth=1) for _ in range(4)]
        else:
            xs = [wc.make_witt(ring, [br.evaluate(ring, c) for c in v]) for v in vectors]
        for x in xs:
            fx = wc.frobenius_map(x)
            assert fx.coords == tuple(br.frobenius(c, 1) for c in x.coords)
            assert wc.project(fx) == br.frobenius(wc.project(x), 1)
            for y in xs:
                fy = wc.frobenius_map(y)
                assert wc.frobenius_map(wc.witt_add(x, y)) == wc.witt_add(fx, fy)
                assert wc.frobenius_map(wc.witt_mul(x, y)) == wc.witt_mul(fx, fy)

    def test_frobenius_inverse_on_perfect_ring(self):
        x = wc.make_witt(PERF3, [br.evaluate(PERF3, "x^(1/3)"), br.zero(PERF3)])
        assert wc.frobenius_map(x).coords[0] == br.evaluate(PERF3, "x")
        assert wc.frobenius_map(wc.frobenius_map(x), -1) == x

    def test_fv_is_p(self):
        rng = random.Random(11)
        for ring, p in ((F2, 2), (F3, 3), (F5, 5)):
            for _ in range(8):
                n = rng.randint(2, 4)
                x = rand_witt(ring, rng, n)
                assert wc.frobenius_map(wc.verschiebung(x)) == wc.witt_pmul(x)
                assert wc.witt_pmul(x) == wc.witt_mul(wc.int_to_witt(p, ring, n), x)

    def test_v_additive_and_projection_formula(self):
        rng = random.Random(12)
        for _ in range(10):
            x = rand_witt(F3, rng, 4)
            y = rand_witt(F3, rng, 4)
            assert (wc.verschiebung(wc.witt_add(x, y))
                    == wc.witt_add(wc.verschiebung(x), wc.verschiebung(y)))
            assert (wc.witt_mul(wc.verschiebung(x), y)
                    == wc.verschiebung(wc.witt_mul(x, wc.frobenius_map(y))))

    def test_project_is_a_hom_and_sections_teich(self):
        rng = random.Random(13)
        for _ in range(10):
            x = rand_witt(UQ9, rng, 3)
            y = rand_witt(UQ9, rng, 3)
            assert wc.project(wc.witt_add(x, y)) == wc.project(x) + wc.project(y)
            assert wc.project(wc.witt_mul(x, y)) == wc.project(x) * wc.project(y)
            a = br.random_element(UQ9, rng)
            assert wc.project(wc.teichmuller(a, 3)) == a

    def test_p_divisibility_iff_zeroth_digit_zero(self):
        rng = random.Random(14)
        for _ in range(20):
            x = rand_witt(F3, rng, 3)
            if wc.project(x).is_zero():
                y = wc.divide_by_p(x)
                assert wc.witt_pmul(wc.WittVector(F3, y.coords + (br.zero(F3),))
                                    ).coords[:2] == x.coords[:2]
            else:
                with pytest.raises(NotDivisible):
                    wc.divide_by_p(x)

    def test_divide_by_p_shortens_and_roots(self):
        a = br.from_int(F3, 2)
        x = wc.witt_pmul(wc.teichmuller(a, 3))
        d = wc.divide_by_p(x)
        assert d == wc.teichmuller(a, 2)

    def test_divide_depth_exhaustion(self):
        x = wc.make_witt(PX2, [br.zero(PX2), br.evaluate(PX2, "x")])
        with pytest.raises(DepthExhausted):
            wc.divide_by_p(x)

    def test_int_to_witt_matches_repeated_addition(self):
        for ring, p in ((F2, 2), (F3, 3)):
            one = wc.witt_one(ring, 3)
            acc = wc.witt_zero(ring, 3)
            for m in range(p ** 3):
                assert wc.int_to_witt(m, ring, 3) == acc
                acc = wc.witt_add(acc, one)
            assert wc.int_to_witt(p ** 3, ring, 3) == wc.witt_zero(ring, 3)

    @pytest.mark.parametrize("ring", [F4, F3, LAUR3, UQ2, UQ5],
                             ids=["F4", "F3", "laurent3", "uq2", "uq3"])
    def test_single_coordinate_product_matches_lift_route(self, ring):
        # x * V^k([b]) by the fast path of witt_arith, both operand orders,
        # against the general lift route; 3 draws per (n, k), seed 15
        rng = random.Random(15)
        for n in range(1, 5):
            for k in range(n):
                for _ in range(3):
                    x = rand_witt(ring, rng, n, max_terms=2)
                    b = br.random_element(ring, rng, max_terms=2, allow_zero=False)
                    y = wc.WittVector(ring, tuple(b if i == k else br.zero(ring)
                                                  for i in range(n)))
                    for u, v in ((x, y), (y, x)):
                        assert wc._mul_single_coord(u, v) == wc._witt_op_lift("mul", u, v)

    @pytest.mark.parametrize("ring", [F4, F3, LAUR3, UQ2, UQ5],
                             ids=["F4", "F3", "laurent3", "uq2", "uq3"])
    def test_disjoint_sum_is_the_coordinate_union(self, ring):
        # the default route's union rule against the full lift route, and
        # the table route where its tables are small (at most 10,000 terms):
        # disjoint random supports, one operand zero, both zero; n = 1..5,
        # 4 draws per n, seed 17
        rng = random.Random(17)
        p, z = br.ring_char(ring), br.zero(ring)
        for n in range(1, 6):
            routes = [wc._witt_op_lift] + [wc._witt_op_table] * all(
                wc.term_count_bound(p, n - 1, kind) <= 10_000
                for kind in ("sum", "negation"))
            zero = wc.witt_zero(ring, n)
            for _ in range(4):
                # each index is nonzero in x, in y or in neither
                side = [rng.randrange(3) for _ in range(n)]
                a = rand_witt(ring, rng, n, max_terms=2, allow_zero=False)
                b = rand_witt(ring, rng, n, max_terms=2, allow_zero=False)
                x = wc.WittVector(ring, tuple(c if s == 0 else z
                                              for c, s in zip(a.coords, side)))
                y = wc.WittVector(ring, tuple(c if s == 1 else z
                                              for c, s in zip(b.coords, side)))
                for u, v in ((x, y), (x, zero), (zero, y), (zero, zero)):
                    union = wc.WittVector(ring, tuple(
                        c if c.terms else d for c, d in zip(u.coords, v.coords)))
                    assert wc.witt_add(u, v) == wc.witt_add(v, u) == union
                    for route in routes:
                        assert route("add", u, v) == union
                        assert route("add", v, u) == union
                        assert wc.witt_sub(u, v) == route("add", u, route("neg", v, None))
                        assert route("neg", zero, None) == zero
                assert wc.witt_neg(zero) == zero

    def test_disjoint_sum_runs_no_ghost_lift(self, monkeypatch):
        # over frac and uq rings a disjoint sum runs no route at all; an
        # overlapping one runs the strict p-ring route over LAUR3 and the
        # split route over the fields UQ2 and UQ5
        calls = record_route_calls(monkeypatch, LIFT | STRICT | SPLIT)
        rng = random.Random(19)
        for ring, steps in ((LAUR3, STRICT), (UQ2, SPLIT), (UQ5, SPLIT)):
            z = br.zero(ring)
            a = rand_witt(ring, rng, 4, allow_zero=False)
            b = rand_witt(ring, rng, 4, allow_zero=False)
            x = wc.WittVector(ring, (a.coords[0], z, a.coords[2], z))
            y = wc.WittVector(ring, (z, b.coords[1], z, b.coords[3]))
            calls.clear()
            wc.witt_add(x, y), wc.witt_add(y, x), wc.witt_add(x, wc.witt_zero(ring, 4))
            wc.witt_neg(wc.witt_zero(ring, 4))
            assert calls == []
            wc.witt_add(a, b)
            assert set(calls) == steps
            # the lift route stays a full oracle
            calls.clear()
            wc._witt_op_lift("add", x, y)
            assert set(calls) == LIFT

    @pytest.mark.parametrize("ring", [F3, F5], ids=["F3", "F5"])
    def test_odd_negation_runs_each_oracle_in_full(self, ring, monkeypatch):
        # the lift and table routes are independent oracles for odd-p
        # negation too: neither takes the coordinatewise shortcut of witt_arith
        calls = record_route_calls(monkeypatch)
        x = rand_witt(ring, random.Random(23), 3, allow_zero=False)
        neg = wc.witt_arith("neg", x)
        assert calls == []
        assert wc._witt_op_lift("neg", x, None) == neg
        assert set(calls) == {"_lift_ghost", "_lift_solve"}
        tables = []
        structural_polys = wc.structural_polys
        monkeypatch.setattr(wc, "structural_polys",
                            lambda *a: tables.append(a) or structural_polys(*a))
        assert wc._witt_op_table("neg", x, None) == neg
        assert tables == [(ring.p, 2, "negation")]

    def test_witt_ord(self):
        x = wc.make_witt(F3, [0, 0, 2])
        assert wc.witt_ord(x) == 2
        assert wc.witt_ord(wc.witt_zero(F3, 3)) is None
        assert wc.witt_ord(wc.witt_one(F3, 3)) == 0
