import itertools
import random

import pytest

from wittforge import base_rings as br
from wittforge import frobenius_lab as fl
from wittforge.errors import (
    BudgetExceeded,
    DepthExhausted,
    IncompatibleSequence,
    MismatchError,
    NoRoot,
)


class TestPerfectionReports:
    def test_perfect_fields(self):
        for p, e in [(2, 1), (3, 2), (5, 1)]:
            rep = fl.perfection_report(br.make_field(p, e))
            assert rep.injective_up_to is None
            assert rep.surjective_up_to is None
            assert rep.verdict

    def test_polynomial_ring_witness(self):
        R = br.make_ring("frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 laurent=false")
        rep = fl.perfection_report(R)
        assert rep.injective_up_to is None
        assert rep.surjective_up_to == 0
        aspects = {w[0]: w[1] for w in rep.witnesses}
        assert aspects.get("surjectivity") == "x"
        assert rep.verdict

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_depth_monotonicity(self, m):
        R = br.make_ring(
            f"frac base=(ff p=3 e=1) vars=x depth_p={m} depth_2=0 "
            f"laurent={'true' if m else 'false'}")
        rep = fl.perfection_report(R, budget=m + 2)
        assert rep.surjective_up_to == m

    def test_nilpotent_quotient_kernel_generator(self):
        U = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^9")
        rep = fl.perfection_report(U)
        assert rep.injective_up_to == 0
        assert rep.surjective_up_to == 0
        assert [br.format_element(g) for g in rep.kernel_generators] == ["T^3"]
        assert rep.verdict

    @pytest.mark.parametrize("p,M", [(2, 3), (3, 2), (5, 1)])
    def test_kernel_generator_exponent(self, p, M):
        U = br.make_ring(f"uq base=(ff p={p} e=1) var=T modulus=T^{p ** M}")
        gen = fl.frobenius_kernel_generator(U)
        assert gen == br.pow_int(br.variable(U, "T"), p ** (M - 1))

    def test_irreducible_modulus_is_perfect(self):
        U = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^2+1")
        rep = fl.perfection_report(U)
        assert rep.injective_up_to is None
        assert rep.surjective_up_to is None
        assert fl.frobenius_kernel_generator(U) is None

    def test_monomial_quotient_kernel(self):
        for spec, kernel in [
            ("frac base=(ff p=2 e=1) vars=x depth_p=0 depth_2=0 laurent=false "
             "mod=x^4", ["x^2"]),
            ("frac base=(ff p=3 e=1) vars=x,y depth_p=2 depth_2=1 laurent=false "
             "mod=x^(3/2),x*y^(5/3)", ["x^(1/2)", "x^(1/3)*y^(5/9)"]),
            # y^(3/2) over p rounds up to the lattice: x^(1/2)*y, not *y^(1/2)
            ("frac base=(ff p=2 e=1) vars=x,y depth_p=1 depth_2=0 laurent=false "
             "mod=x^2,x*y^(3/2)", ["x", "x^(1/2)*y"]),
            # x^(1/3) over p rounds up to x^(1/3) itself, which is zero
            ("frac base=(ff p=3 e=1) vars=x,y depth_p=1 depth_2=0 laurent=false "
             "mod=x^(1/3),y^2", ["y^(2/3)"]),
        ]:
            rep = fl.perfection_report(br.make_ring(spec))
            assert rep.injective_up_to == 0
            assert [br.format_element(g) for g in rep.kernel_generators] == kernel
            assert rep.verdict

    def test_render_is_deterministic(self):
        U = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^9")
        a = fl.render_perfection_report(fl.perfection_report(U))
        b = fl.render_perfection_report(fl.perfection_report(U))
        assert a == b
        assert a.endswith("VERDICT: PASS")


def _root(x, k=1):
    """br.frobenius(x, -k), or None where it raises NoRoot."""
    try:
        return br.frobenius(x, -k)
    except NoRoot:
        return None


def _all_elements(U):
    F = U.base
    coeffs = [br._digits(i, F.p, F.e) for i in range(F.q)]
    return [br._mk(U, br._nonzero({(i,): c for i, c in enumerate(cs)}))
            for cs in itertools.product(coeffs, repeat=U.degree)]


class TestPthRootSolver:
    """The uq inverse Frobenius of base_rings: dilation, else a linear solve."""

    def test_dilation_ring_roots(self):
        U = br.make_ring("uq base=(ff p=3 e=1) var=u modulus=u^27")
        u = br.variable(U, "u")
        r = _root(br.pow_int(u, 6))
        assert r == br.pow_int(u, 2)
        assert _root(u) is None
        assert _root(br.pow_int(u, 18), 2) == br.pow_int(u, 2)

    @pytest.mark.parametrize("spec", [
        "uq base=(ff p=2 e=2) var=T modulus=T^2",
        "uq base=(ff p=2 e=1) var=T modulus=T^3+T^2",
    ])
    @pytest.mark.parametrize("k", [1, 2])
    def test_gaussian_route_matches_brute_force(self, spec, k):
        # brute-force the image of y -> y^(p^k): frobenius(x, -k) succeeds
        # exactly there, with a root that maps back to x
        U = br.make_ring(spec)
        elements = _all_elements(U)
        image = {br.frobenius(y, k) for y in elements}
        for x in elements:
            root = _root(x, k)
            if x in image:
                assert root is not None and br.frobenius(root, k) == x
            else:
                assert root is None

    def test_pk_root_that_iterated_roots_miss(self):
        # in F_2[T]/(T^3+T^2), T^4 = T^2: dilation takes T^2 to T, which is
        # no square, yet T^2 has the fourth root T
        U = br.make_ring("uq base=(ff p=2 e=1) var=T modulus=T^3+T^2")
        t, t2 = br.variable(U, "T"), br.evaluate(U, "T^2")
        assert _root(t2) == t and _root(t) is None
        assert br.frobenius(_root(t2, 2), 2) == t2

    def test_every_field_element_has_root(self):
        U = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^2+1")
        rng = random.Random(3)
        for _ in range(10):
            x = br.random_element(U, rng, max_terms=2)
            r = _root(x)
            assert r is not None and br.pow_int(r, 3) == x

    def test_solver_memo_is_bounded(self):
        bound = br._root_solver.cache_info().maxsize
        for idx in range(1, bound + 2):  # distinct monic quartics other than T^4
            a, b, c, d = br._digits(idx, 3, 4)
            U = br.make_ring("uq base=(ff p=3 e=1) var=T "
                             f"modulus=T^4+{a}*T^3+{b}*T^2+{c}*T+{d}")
            t = br.variable(U, "T")  # dilation refuses T, so the solver runs
            r = _root(t)
            assert r is None or br.pow_int(r, 3) == t
        assert br._root_solver.cache_info().currsize == bound


class TestSemiperfectTower:
    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("M", [1, 2, 3])
    def test_all_items_pass(self, p, M):
        rep = fl.semiperfect_tower_check(p, M)
        assert rep.verdict, fl.render_tower_report(rep)
        assert {k for k, _, _ in rep.items} == {
            "pi-power-vanishes", "kernel-principal", "residue-iso",
            "cross-level-roots"}

    def test_model_shape(self):
        m = fl.make_tower_model(2, 2)
        assert m.ring.degree == 4
        assert m.pi_element == br.pow_int(br.variable(m.ring, "u"), 2)
        assert br.pow_int(m.pi_element, 2).is_zero()

    def test_pi_represents_p(self):
        # image of p vanishes mod p while pi^p does too: the p = pi^p shadow
        m = fl.make_tower_model(3, 1)
        assert br.from_int(m.ring, 3).is_zero()
        assert br.pow_int(m.pi_element, 3).is_zero()

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            fl.semiperfect_tower_check(5, 5)

    def test_render_has_banner_and_verdict(self):
        txt = fl.render_tower_report(fl.semiperfect_tower_check(3, 1))
        assert "finite stage of a colimit" in txt
        assert txt.endswith("VERDICT: PASS")


def compatible_sequence(ring, top, length):
    p = br.ring_char(ring)
    seq = [top]
    for _ in range(length - 1):
        seq.append(br.pow_int(seq[-1], p))
    return list(reversed(seq))


class TestFontaine:
    RING = br.make_ring("uq base=(ff p=2 e=1) var=u modulus=u^8")

    def test_tower_sequence_is_valid(self):
        u = br.variable(self.RING, "u")
        x = fl.fontaine_make(self.RING, [br.pow_int(u, 4), br.pow_int(u, 2), u])
        assert str(x) == "FONT{u^4;u^2;u}"

    def test_identities(self):
        zero = fl.fontaine_make(self.RING, [0, 0, 0])
        one = fl.fontaine_make(self.RING, [1, 1, 1])
        u = br.variable(self.RING, "u")
        x = fl.fontaine_make(self.RING, compatible_sequence(self.RING, u, 3))
        assert fl.fontaine_arith("add", x, zero).seq == x.seq
        assert fl.fontaine_arith("mul", x, one).seq == x.seq

    def test_incompatible_rejected(self):
        u = br.variable(self.RING, "u")
        with pytest.raises(IncompatibleSequence):
            fl.fontaine_make(self.RING, [u, u])

    def test_mismatch_rejected(self):
        other = br.make_ring("uq base=(ff p=2 e=1) var=u modulus=u^4")
        x = fl.fontaine_make(self.RING, [1, 1])
        y = fl.fontaine_make(other, [1, 1])
        with pytest.raises(MismatchError):
            fl.fontaine_arith("add", x, y)
        with pytest.raises(MismatchError):
            fl.fontaine_arith("mul", x, fl.fontaine_make(self.RING, [1, 1, 1]))

    def test_ring_axioms_componentwise(self):
        rng = random.Random(7)
        ring = self.RING
        for _ in range(6):
            xs = [fl.fontaine_make(ring, compatible_sequence(
                ring, br.random_element(ring, rng, max_terms=2), 3))
                for _ in range(3)]
            x, y, z = xs
            add, mul = (lambda a, b: fl.fontaine_arith("add", a, b),
                        lambda a, b: fl.fontaine_arith("mul", a, b))
            assert add(x, y).seq == add(y, x).seq
            assert mul(x, y).seq == mul(y, x).seq
            assert mul(x, add(y, z)).seq == add(mul(x, y), mul(x, z)).seq
            assert mul(mul(x, y), z).seq == mul(x, mul(y, z)).seq

    def test_shift_round_trip_loses_one_term(self):
        u = br.variable(self.RING, "u")
        x = fl.fontaine_make(self.RING, compatible_sequence(self.RING, u, 4))
        back = fl.fontaine_shift(fl.fontaine_shift(x, "fwd"), "bwd")
        assert back.seq == x.seq[:-1]

    def test_bwd_then_fwd(self):
        u = br.variable(self.RING, "u")
        x = fl.fontaine_make(self.RING, compatible_sequence(self.RING, u, 4))
        again = fl.fontaine_shift(fl.fontaine_shift(x, "bwd"), "fwd")
        assert again.seq == x.seq[:-1]

    def test_fwd_needs_depth(self):
        x = fl.fontaine_make(self.RING, [1])
        with pytest.raises(DepthExhausted):
            fl.fontaine_shift(x, "fwd")


# ---------------------------------------------------------------------------
# golden report text: the rendered reports must stay byte-identical

MODEL = ("MODEL: mod-p shadow of Z[T]/(T^(p^M) - p); finite stage of a colimit,"
         " not the colimit itself")

# frob report text for each ring (budget 4, samples 10, seed 0)
REPORTS = {
    'uq base=(ff p=2 e=1) var=T modulus=T^2+1': (
        'KIND: perfection',
        'RING: uq base=(ff p=2 e=1) var=T modulus=T^2+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T+1',
        'WITNESS: injectivity T+1 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=2 e=1) var=T modulus=T^3+2*T+1': (
        'KIND: perfection',
        'RING: uq base=(ff p=2 e=1) var=T modulus=T^3+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: unbounded-within-budget',
        'SURJECTIVE_UP_TO: unbounded-within-budget',
        'KERNEL_GENERATORS: none',
        'NOTE: squarefree modulus: Frobenius kernel is trivial',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=2 e=1) var=T modulus=T^5+2*T^2+T+1': (
        'KIND: perfection',
        'RING: uq base=(ff p=2 e=1) var=T modulus=T^5+T+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: unbounded-within-budget',
        'SURJECTIVE_UP_TO: unbounded-within-budget',
        'KERNEL_GENERATORS: none',
        'NOTE: squarefree modulus: Frobenius kernel is trivial',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=2 e=1) var=T modulus=T^3-T': (
        'KIND: perfection',
        'RING: uq base=(ff p=2 e=1) var=T modulus=T^3+T',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^2+T',
        'WITNESS: injectivity T^2+T (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=2 e=1) var=T modulus=T^4': (
        'KIND: perfection',
        'RING: uq base=(ff p=2 e=1) var=T modulus=T^4',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^2',
        'WITNESS: injectivity T^2 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=2 e=1) var=T modulus=T^3': (
        'KIND: perfection',
        'RING: uq base=(ff p=2 e=1) var=T modulus=T^3',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^2',
        'WITNESS: injectivity T^2 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=2 e=1) var=T modulus=T^2*(T+1)^3': (
        'KIND: perfection',
        'RING: uq base=(ff p=2 e=1) var=T modulus=T^5+T^4+T^3+T^2',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^3+T',
        'WITNESS: injectivity T^3+T (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=2 e=1) var=T modulus=(T^2+T+1)^2': (
        'KIND: perfection',
        'RING: uq base=(ff p=2 e=1) var=T modulus=T^4+T^2+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^2+T+1',
        'WITNESS: injectivity T^2+T+1 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=2 e=1) var=T modulus=T*(T+1)^2*(T^2+1)^2': (
        'KIND: perfection',
        'RING: uq base=(ff p=2 e=1) var=T modulus=T^7+T^5+T^3+T',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^4+T^3+T^2+T',
        'WITNESS: injectivity T^4+T^3+T^2+T (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=3 e=1) var=T modulus=T^2+1': (
        'KIND: perfection',
        'RING: uq base=(ff p=3 e=1) var=T modulus=T^2+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: unbounded-within-budget',
        'SURJECTIVE_UP_TO: unbounded-within-budget',
        'KERNEL_GENERATORS: none',
        'NOTE: squarefree modulus: Frobenius kernel is trivial',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1': (
        'KIND: perfection',
        'RING: uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: unbounded-within-budget',
        'SURJECTIVE_UP_TO: unbounded-within-budget',
        'KERNEL_GENERATORS: none',
        'NOTE: squarefree modulus: Frobenius kernel is trivial',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=3 e=1) var=T modulus=T^5+2*T^2+T+1': (
        'KIND: perfection',
        'RING: uq base=(ff p=3 e=1) var=T modulus=T^5+2*T^2+T+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: unbounded-within-budget',
        'SURJECTIVE_UP_TO: unbounded-within-budget',
        'KERNEL_GENERATORS: none',
        'NOTE: squarefree modulus: Frobenius kernel is trivial',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=3 e=1) var=T modulus=T^3-T': (
        'KIND: perfection',
        'RING: uq base=(ff p=3 e=1) var=T modulus=T^3+2*T',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: unbounded-within-budget',
        'SURJECTIVE_UP_TO: unbounded-within-budget',
        'KERNEL_GENERATORS: none',
        'NOTE: squarefree modulus: Frobenius kernel is trivial',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=3 e=1) var=T modulus=T^9': (
        'KIND: perfection',
        'RING: uq base=(ff p=3 e=1) var=T modulus=T^9',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^3',
        'WITNESS: injectivity T^3 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=3 e=1) var=T modulus=T^4': (
        'KIND: perfection',
        'RING: uq base=(ff p=3 e=1) var=T modulus=T^4',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^2',
        'WITNESS: injectivity T^2 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=3 e=1) var=T modulus=T^2*(T+1)^3': (
        'KIND: perfection',
        'RING: uq base=(ff p=3 e=1) var=T modulus=T^5+T^2',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^2+T',
        'WITNESS: injectivity T^2+T (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=3 e=1) var=T modulus=(T^2+T+1)^3': (
        'KIND: perfection',
        'RING: uq base=(ff p=3 e=1) var=T modulus=T^6+T^3+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^2+T+1',
        'WITNESS: injectivity T^2+T+1 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=3 e=1) var=T modulus=T*(T+1)^3*(T^2+1)^2': (
        'KIND: perfection',
        'RING: uq base=(ff p=3 e=1) var=T modulus=T^8+2*T^6+T^5+T^4+2*T^3+T',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^4+T^3+T^2+T',
        'WITNESS: injectivity T^4+T^3+T^2+T (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=5 e=1) var=T modulus=T^2+1': (
        'KIND: perfection',
        'RING: uq base=(ff p=5 e=1) var=T modulus=T^2+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: unbounded-within-budget',
        'SURJECTIVE_UP_TO: unbounded-within-budget',
        'KERNEL_GENERATORS: none',
        'NOTE: squarefree modulus: Frobenius kernel is trivial',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=5 e=1) var=T modulus=T^3+2*T+1': (
        'KIND: perfection',
        'RING: uq base=(ff p=5 e=1) var=T modulus=T^3+2*T+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: unbounded-within-budget',
        'SURJECTIVE_UP_TO: unbounded-within-budget',
        'KERNEL_GENERATORS: none',
        'NOTE: squarefree modulus: Frobenius kernel is trivial',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=5 e=1) var=T modulus=T^5+2*T^2+T+1': (
        'KIND: perfection',
        'RING: uq base=(ff p=5 e=1) var=T modulus=T^5+2*T^2+T+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^4+T^3+T^2+3*T+4',
        'WITNESS: injectivity T^4+T^3+T^2+3*T+4 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=5 e=1) var=T modulus=T^3-T': (
        'KIND: perfection',
        'RING: uq base=(ff p=5 e=1) var=T modulus=T^3+4*T',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: unbounded-within-budget',
        'SURJECTIVE_UP_TO: unbounded-within-budget',
        'KERNEL_GENERATORS: none',
        'NOTE: squarefree modulus: Frobenius kernel is trivial',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=5 e=1) var=T modulus=T^25': (
        'KIND: perfection',
        'RING: uq base=(ff p=5 e=1) var=T modulus=T^25',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^5',
        'WITNESS: injectivity T^5 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=5 e=1) var=T modulus=T^6': (
        'KIND: perfection',
        'RING: uq base=(ff p=5 e=1) var=T modulus=T^6',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^2',
        'WITNESS: injectivity T^2 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=5 e=1) var=T modulus=T^2*(T+1)^3': (
        'KIND: perfection',
        'RING: uq base=(ff p=5 e=1) var=T modulus=T^5+3*T^4+3*T^3+T^2',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^2+T',
        'WITNESS: injectivity T^2+T (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=5 e=1) var=T modulus=(T^2+T+1)^5': (
        'KIND: perfection',
        'RING: uq base=(ff p=5 e=1) var=T modulus=T^10+T^5+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^2+T+1',
        'WITNESS: injectivity T^2+T+1 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=5 e=1) var=T modulus=T*(T+1)^5*(T^2+1)^2': (
        'KIND: perfection',
        'RING: uq base=(ff p=5 e=1) var=T modulus=T^10+2*T^8+T^6+T^5+2*T^3+T',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^4+T^3+T^2+T',
        'WITNESS: injectivity T^4+T^3+T^2+T (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=2 e=2) var=T modulus=(T+u)^2*(T^2+T+u)': (
        'KIND: perfection',
        'RING: uq base=(ff p=2 e=2 modulus=u^2+u+1) var=T modulus=T^4+T^3+T^2+(u+1)*T+1',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^3+(u+1)*T^2+u+1',
        'WITNESS: injectivity T^3+(u+1)*T^2+u+1 (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
    'uq base=(ff p=3 e=2) var=T modulus=(T+u)^3*(T^2+1)': (
        'KIND: perfection',
        'RING: uq base=(ff p=3 e=2 modulus=u^2+1) var=T modulus=T^5+T^3+2*u*T^2+2*u',
        'BUDGET: 4',
        'INJECTIVE_UP_TO: 0',
        'SURJECTIVE_UP_TO: 0',
        'KERNEL_GENERATORS: T^3+u*T^2+T+u',
        'WITNESS: injectivity T^3+u*T^2+T+u (kernel generator, p-th power vanishes)',
        'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))',
        'VERDICT: PASS',
    ),
}

# frob tower text for each (p, depth) (samples 8, seed 0)
TOWERS = {
    (2, 1): (
        'KIND: semiperfect-tower',
        'P: 2',
        'DEPTH: 1',
        MODEL,
        'ITEM pi-power-vanishes: PASS (pi^p = 0 = image of p)',
        'ITEM kernel-principal: PASS (generator u vs pi, sample h^p=0 <=> pi|h)',
        'ITEM residue-iso: PASS (basis images distinct, homomorphism, phi(x mod pi) = x^p)',
        'ITEM cross-level-roots: PASS (u -> u^p is a homomorphism; images acquire verified roots)',
        'VERDICT: PASS',
    ),
    (2, 2): (
        'KIND: semiperfect-tower',
        'P: 2',
        'DEPTH: 2',
        MODEL,
        'ITEM pi-power-vanishes: PASS (pi^p = 0 = image of p)',
        'ITEM kernel-principal: PASS (generator u^2 vs pi, sample h^p=0 <=> pi|h)',
        'ITEM residue-iso: PASS (basis images distinct, homomorphism, phi(x mod pi) = x^p)',
        'ITEM cross-level-roots: PASS (u -> u^p is a homomorphism; images acquire verified roots)',
        'VERDICT: PASS',
    ),
    (2, 3): (
        'KIND: semiperfect-tower',
        'P: 2',
        'DEPTH: 3',
        MODEL,
        'ITEM pi-power-vanishes: PASS (pi^p = 0 = image of p)',
        'ITEM kernel-principal: PASS (generator u^4 vs pi, sample h^p=0 <=> pi|h)',
        'ITEM residue-iso: PASS (basis images distinct, homomorphism, phi(x mod pi) = x^p)',
        'ITEM cross-level-roots: PASS (u -> u^p is a homomorphism; images acquire verified roots)',
        'VERDICT: PASS',
    ),
    (3, 1): (
        'KIND: semiperfect-tower',
        'P: 3',
        'DEPTH: 1',
        MODEL,
        'ITEM pi-power-vanishes: PASS (pi^p = 0 = image of p)',
        'ITEM kernel-principal: PASS (generator u vs pi, sample h^p=0 <=> pi|h)',
        'ITEM residue-iso: PASS (basis images distinct, homomorphism, phi(x mod pi) = x^p)',
        'ITEM cross-level-roots: PASS (u -> u^p is a homomorphism; images acquire verified roots)',
        'VERDICT: PASS',
    ),
    (3, 2): (
        'KIND: semiperfect-tower',
        'P: 3',
        'DEPTH: 2',
        MODEL,
        'ITEM pi-power-vanishes: PASS (pi^p = 0 = image of p)',
        'ITEM kernel-principal: PASS (generator u^3 vs pi, sample h^p=0 <=> pi|h)',
        'ITEM residue-iso: PASS (basis images distinct, homomorphism, phi(x mod pi) = x^p)',
        'ITEM cross-level-roots: PASS (u -> u^p is a homomorphism; images acquire verified roots)',
        'VERDICT: PASS',
    ),
    (3, 3): (
        'KIND: semiperfect-tower',
        'P: 3',
        'DEPTH: 3',
        MODEL,
        'ITEM pi-power-vanishes: PASS (pi^p = 0 = image of p)',
        'ITEM kernel-principal: PASS (generator u^9 vs pi, sample h^p=0 <=> pi|h)',
        'ITEM residue-iso: PASS (basis images distinct, homomorphism, phi(x mod pi) = x^p)',
        'ITEM cross-level-roots: PASS (u -> u^p is a homomorphism; images acquire verified roots)',
        'VERDICT: PASS',
    ),
    (5, 1): (
        'KIND: semiperfect-tower',
        'P: 5',
        'DEPTH: 1',
        MODEL,
        'ITEM pi-power-vanishes: PASS (pi^p = 0 = image of p)',
        'ITEM kernel-principal: PASS (generator u vs pi, sample h^p=0 <=> pi|h)',
        'ITEM residue-iso: PASS (basis images distinct, homomorphism, phi(x mod pi) = x^p)',
        'ITEM cross-level-roots: PASS (u -> u^p is a homomorphism; images acquire verified roots)',
        'VERDICT: PASS',
    ),
    (5, 2): (
        'KIND: semiperfect-tower',
        'P: 5',
        'DEPTH: 2',
        MODEL,
        'ITEM pi-power-vanishes: PASS (pi^p = 0 = image of p)',
        'ITEM kernel-principal: PASS (generator u^5 vs pi, sample h^p=0 <=> pi|h)',
        'ITEM residue-iso: PASS (basis images distinct, homomorphism, phi(x mod pi) = x^p)',
        'ITEM cross-level-roots: PASS (u -> u^p is a homomorphism; images acquire verified roots)',
        'VERDICT: PASS',
    ),
    (5, 3): (
        'KIND: semiperfect-tower',
        'P: 5',
        'DEPTH: 3',
        MODEL,
        'ITEM pi-power-vanishes: PASS (pi^p = 0 = image of p)',
        'ITEM kernel-principal: PASS (generator u^25 vs pi, sample h^p=0 <=> pi|h)',
        'ITEM residue-iso: PASS (basis images distinct, homomorphism, phi(x mod pi) = x^p)',
        'ITEM cross-level-roots: PASS (u -> u^p is a homomorphism; images acquire verified roots)',
        'VERDICT: PASS',
    ),
}


@pytest.mark.parametrize("desc", REPORTS)
def test_perfection_report_golden(desc):
    rep = fl.perfection_report(br.make_ring(desc))
    assert tuple(fl.render_perfection_report(rep).split("\n")) == REPORTS[desc]


@pytest.mark.parametrize("p,depth", TOWERS)
def test_tower_report_golden(p, depth):
    rep = fl.semiperfect_tower_check(p, depth)
    assert tuple(fl.render_tower_report(rep).split("\n")) == TOWERS[(p, depth)]
