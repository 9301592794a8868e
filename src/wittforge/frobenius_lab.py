"""Frobenius diagnostics: perfection reports, the semiperfect tower model,
and truncated Fontaine sequences.

Everything here is desk-scale and certificate-oriented.  A perfection report
never just asserts "surjective": it carries witnesses that re-verify.  Its
p^k-th roots come from ``base_rings.frobenius`` and are mapped back by
Frobenius; on univariate quotients that inverse is exact, so a missing root
there is a proof that none exists.  The tower model is the mod-p shadow
of Z[T]/(T^(p^M) - p), so u stands for p^(1/p^M) and u^(p^(M-1)) for the
uniformizer pi = p^(1/p); its checks are the finite-depth forms of the
infinite-level statements, and the report banner says so.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import base_rings as br
from .base_rings import (
    FiniteFieldSpec,
    FracLaurentRing,
    Ring,
    RingElement,
    UnivariateQuotient,
)
from .errors import (
    BudgetExceeded,
    DepthExhausted,
    IncompatibleSequence,
    LatticeError,
    MismatchError,
    NoRoot,
    SpecParseError,
)

UNBOUNDED = "unbounded-within-budget"


# ---------------------------------------------------------------------------
# the Frobenius kernel of a univariate quotient

def frobenius_kernel_generator(ring: UnivariateQuotient) -> RingElement | None:
    """Generator of {h : h^p = 0}, or None when Frobenius is injective.

    With modulus g = prod A_k^k the kernel is the principal ideal generated
    by prod A_k^ceil(k/p): exact, no search needed.
    """
    g = br._poly_elt(ring.base, ring.var, ring.modulus)
    gen = br.one(g.ring)
    for k, layer in br.fq_multiplicity_layers(g):
        need = -(-k // ring.base.p)  # ceil(k/p)
        gen = br.mul(gen, br.pow_int(layer, need))
    # gen divides g, so it is g exactly when every multiplicity is 1
    if gen == g:
        return None
    return br._uq_elt(ring, gen)


# ---------------------------------------------------------------------------
# perfection reports


@dataclass(frozen=True)
class PerfectionReport:
    ring: Ring
    budget: int
    injective_up_to: int | None  # None = unbounded within budget
    surjective_up_to: int | None
    kernel_generators: tuple
    witnesses: tuple  # (aspect, element string, note)
    notes: tuple
    verdict: bool


def _surjectivity_probe(elements, budget: int):
    """Largest k <= budget such that every probe element has a verified
    p^k-th root; returns (depth or None-for-unbounded, witness or None)."""
    for k in range(1, budget + 1):
        for x in elements:
            if not x.is_zero() and _verified_frobenius_root(x, k) is None:
                return k - 1, (x, k)
    return None, None


def _verified_frobenius_root(x: RingElement, k: int) -> RingElement | None:
    """br.frobenius(x, -k), or None when it fails or does not map back to x."""
    try:
        root = br.frobenius(x, -k)
    except (DepthExhausted, LatticeError, NoRoot):
        return None
    return root if br.frobenius(root, k) == x else None


def _probe_elements(ring: Ring, samples: int, seed: int) -> list[RingElement]:
    rng = random.Random(seed)
    out = [br.variable(ring, v) for v in ring.variables]
    if not out and ring.base.e > 1:  # a field: its generator
        out.append(br.from_coeff(ring, ring.base.gen()))
    for _ in range(samples):
        out.append(br.random_element(ring, rng, max_terms=2, exp_bound=3,
                                     denom_depth=0, allow_zero=False))
    return out


def _check_counts(least: int, **counts) -> None:
    """A verdict may not rest on fewer probes than its check needs."""
    for name, value in counts.items():
        if value < least:
            raise SpecParseError(f"{name} must be >= {least}")


def perfection_report(ring: Ring, budget: int = 4, samples: int = 10,
                      seed: int = 0) -> PerfectionReport:
    """Frobenius injectivity/surjectivity diagnosis with verified witnesses."""
    _check_counts(0, budget=budget, samples=samples)
    notes: list[str] = []
    witnesses: list = []
    kernel_gens: tuple = ()
    verdict = True

    # --- injectivity: exact kernel reasoning where the presentation allows it
    if isinstance(ring, FiniteFieldSpec):
        injective = None
        notes.append("field: Frobenius kernel is trivial")
    elif isinstance(ring, FracLaurentRing) and not ring.quotient:
        injective = None
        notes.append("domain: Frobenius kernel is trivial")
    elif isinstance(ring, FracLaurentRing):
        kern = _frac_quotient_kernel(ring)
        if kern:
            injective = 0
            kernel_gens = tuple(kern)
            for h in kern:
                ok = (not h.is_zero()) and br.pow_int(h, br.ring_char(ring)).is_zero()
                verdict = verdict and ok
                witnesses.append(("injectivity", br.format_element(h),
                                  "nonzero with vanishing p-th power"))
        else:
            injective = None
            notes.append("no monomial kernel below the quotient exponents")
    else:
        gen = frobenius_kernel_generator(ring)
        if gen is None:
            injective = None
            notes.append("squarefree modulus: Frobenius kernel is trivial")
        else:
            injective = 0
            kernel_gens = (gen,)
            ok = (not gen.is_zero()) and br.pow_int(gen, ring.base.p).is_zero()
            # the generator divides every kernel element found by search
            ok = ok and _kernel_generated_by(ring, gen, samples, seed)
            verdict = verdict and ok
            witnesses.append(("injectivity", br.format_element(gen),
                              "kernel generator, p-th power vanishes"))

    # --- surjectivity: generator-first probe with verified roots; on
    # univariate quotients br.frobenius decides them by a linear solve
    surjective, fail = _surjectivity_probe(_probe_elements(ring, samples, seed),
                                           budget)
    how = (" (exact F_p-linear solve)" if isinstance(ring, UnivariateQuotient)
           else " under the decision procedure")
    if fail is not None:
        x, k = fail
        witnesses.append(("surjectivity", br.format_element(x),
                          f"no p^{k}-th root{how}"))

    return PerfectionReport(ring, budget, injective, surjective,
                            kernel_gens, tuple(witnesses), tuple(notes), verdict)


def _frac_quotient_kernel(ring: FracLaurentRing) -> list[RingElement]:
    """Minimal monomial kernel elements for a monomial-quotient Laurent ring."""
    p = ring.base.p
    # h = x^ceil(g/p) on the lattice, so that h^p lies in (x^g)
    cands = [tuple(-(-n // p) for n in g) for g in ring.quotient]
    # keep the minimal keys under componentwise divisibility
    minimal = [k for k in cands
               if not any(o != k and all(a <= b for a, b in zip(o, k))
                          for o in cands)]
    out = []
    for key in dict.fromkeys(minimal):
        if ring._killed(key):
            continue
        h = br._term(ring, key, ring.base.one())
        if br.pow_int(h, p).is_zero():
            out.append(h)
    return out


def _kernel_generated_by(ring: UnivariateQuotient, gen: RingElement,
                         samples: int, seed: int) -> bool:
    """Every kernel element discovered by search is a multiple of gen."""
    F = ring.base
    gpoly = br._as_poly(gen)
    rng = random.Random(seed + 1)
    found = []
    for i in range(ring.degree):
        h = br._term(ring, (i,), F.one())
        if br.pow_int(h, F.p).is_zero():
            found.append(h)
    for _ in range(samples):
        h = br.random_element(ring, rng, max_terms=3, exp_bound=ring.degree - 1)
        if not h.is_zero() and br.pow_int(h, F.p).is_zero():
            found.append(h)
    return all(br._fq_divmod(br._as_poly(h), gpoly)[1].is_zero() for h in found)


# ---------------------------------------------------------------------------
# the semiperfect tower desk model


@dataclass(frozen=True)
class SemiperfectTowerModel:
    p: int
    depth: int
    ring: UnivariateQuotient
    pi_element: RingElement


_TOWER_BUDGET = 2048


def make_tower_model(p: int, depth: int) -> SemiperfectTowerModel:
    """Mod-p reduction of Z[T]/(T^(p^M) - p): F_p[u]/(u^(p^M)), pi = u^(p^(M-1))."""
    if depth < 1:
        raise SpecParseError("tower depth must be >= 1")
    if p ** depth > _TOWER_BUDGET:
        raise BudgetExceeded(
            f"p^M = {p ** depth} exceeds the element-size budget {_TOWER_BUDGET}")
    ring = br.make_ring(f"uq base=(ff p={p} e=1) var=u modulus=u^{p ** depth}")
    pi = br.pow_int(br.variable(ring, "u"), p ** (depth - 1))
    return SemiperfectTowerModel(p, depth, ring, pi)


@dataclass(frozen=True)
class TowerReport:
    p: int
    depth: int
    items: tuple  # (key, passed, detail)

    @property
    def verdict(self) -> bool:
        return all(ok for _, ok, _ in self.items)


def _reduced_stage_ring(p: int, depth: int) -> UnivariateQuotient:
    # stage M-1; depth 0 degenerates to F_p[u]/(u), i.e. the prime field
    return br.make_ring(f"uq base=(ff p={p} e=1) var=u modulus=u^{max(1, p ** depth)}")


def _stage_lift(dst: UnivariateQuotient, x: RingElement,
                dilate: int = 1) -> RingElement:
    """x(u^dilate) in dst, for x in a lower tower stage; dilate <= p keeps
    every exponent below the degree of dst, so nothing is reduced."""
    return br._mk(dst, {(k * dilate,): c for (k,), c in x.terms})


def semiperfect_tower_check(p: int, depth: int, samples: int = 8,
                            seed: int = 0) -> TowerReport:
    """Finite-depth checks behind the tower story; see render_tower_report.

    (a) the Frobenius kernel is the principal ideal (pi);
    (b) x mod pi -> x^p is an isomorphism onto the image of Frobenius;
    (c) elements of the depth-(M-1) model acquire p-th roots one level up.
    """
    # cross-level-roots has no deterministic part: it needs a sample
    _check_counts(1, samples=samples)
    model = make_tower_model(p, depth)
    ring, pi = model.ring, model.pi_element
    rng = random.Random(seed)
    items = []

    # (pi^p = 0) and p itself maps to 0: the "pi^p = p" relation mod p
    ok = br.pow_int(pi, p).is_zero() and br.from_int(ring, p).is_zero()
    items.append(("pi-power-vanishes", ok, "pi^p = 0 = image of p"))

    # (a) kernel of Frobenius = (pi), two independent routes plus samples
    gen = frobenius_kernel_generator(ring)
    ok = gen == pi
    agree = True
    for _ in range(samples):
        h = br.random_element(ring, rng, max_terms=3, exp_bound=ring.degree - 1)
        in_kernel = br.pow_int(h, p).is_zero()
        _, r = br._fq_divmod(br._as_poly(h), br._as_poly(pi))
        agree = agree and in_kernel == r.is_zero()
    items.append(("kernel-principal", ok and agree,
                  f"generator {br.format_element(gen)} vs pi, sample h^p=0 <=> pi|h"))

    # (b) residue isomorphism x mod pi -> x^p onto the Frobenius image
    stage = _reduced_stage_ring(p, depth - 1)
    phi = {}
    distinct = set()
    inj = True
    for i in range(stage.degree):
        b = br._term(stage, (i,), stage.base.one())
        img = br.pow_int(_stage_lift(ring, b), p)
        phi[i] = img
        inj = inj and not img.is_zero()
        distinct.add(tuple(img.terms))
    inj = inj and len(distinct) == len(phi)
    hom = True
    onto = True
    for _ in range(samples):
        d1 = br.random_element(stage, rng, max_terms=3)
        d2 = br.random_element(stage, rng, max_terms=3)
        f = lambda d: br.pow_int(_stage_lift(ring, d), p)
        hom = hom and f(d1 + d2) == f(d1) + f(d2) and f(d1 * d2) == f(d1) * f(d2)
        # phi(x mod pi) = x^p for x in the big model: onto the image
        x = br.random_element(ring, rng, max_terms=3, exp_bound=ring.degree - 1)
        xmod = br._uq_elt(stage, br._as_poly(x))  # x mod pi = u^D
        onto = onto and f(xmod) == br.pow_int(x, p)
    items.append(("residue-iso", inj and hom and onto,
                  "basis images distinct, homomorphism, phi(x mod pi) = x^p"))

    # (c) cross-level: u_{M-1} -> u_M^p embeds, and every image has a root
    roots_ok = True
    hom_ok = True
    for _ in range(samples):
        d1 = br.random_element(stage, rng, max_terms=3)
        d2 = br.random_element(stage, rng, max_terms=3)
        psi = lambda d: _stage_lift(ring, d, dilate=p)
        hom_ok = hom_ok and psi(d1 * d2) == psi(d1) * psi(d2) \
            and psi(d1 + d2) == psi(d1) + psi(d2)
        roots_ok = roots_ok and _verified_frobenius_root(psi(d1), 1) is not None
    items.append(("cross-level-roots", hom_ok and roots_ok,
                  "u -> u^p is a homomorphism; images acquire verified roots"))

    return TowerReport(p, depth, tuple(items))


# ---------------------------------------------------------------------------
# truncated Fontaine sequences


@dataclass(frozen=True)
class FontaineElement:
    ring: Ring
    seq: tuple  # a_0..a_L with a_{i+1}^p = a_i

    def __str__(self) -> str:
        inner = ";".join(br.format_element(a) for a in self.seq)
        return f"FONT{{{inner}}}"


def fontaine_make(ring: Ring, seeds) -> FontaineElement:
    if not seeds:
        raise IncompatibleSequence("empty sequence")
    p = br.ring_char(ring)
    elts = [br.coerce(ring, s) for s in seeds]
    for i in range(len(elts) - 1):
        if br.pow_int(elts[i + 1], p) != elts[i]:
            raise IncompatibleSequence(
                f"a_{i + 1}^p differs from a_{i}")
    return FontaineElement(ring, tuple(elts))


def fontaine_arith(op: str, x: FontaineElement, y: FontaineElement) -> FontaineElement:
    if x.ring != y.ring:
        raise MismatchError("Fontaine elements over different rings")
    if len(x.seq) != len(y.seq):
        raise MismatchError("Fontaine elements of different lengths")
    if op == "add":
        seq = tuple(a + b for a, b in zip(x.seq, y.seq))
    elif op == "mul":
        seq = tuple(a * b for a, b in zip(x.seq, y.seq))
    else:
        raise SpecParseError(f"unknown op {op!r}")
    # componentwise ops preserve compatibility in char p; re-validated here
    return fontaine_make(x.ring, seq)


def fontaine_shift(x: FontaineElement, direction: str) -> FontaineElement:
    """fwd drops a_0 (inverse Frobenius), bwd re-indexes by p-th powers
    (Frobenius); each costs one term of the finite window."""
    if direction == "fwd":
        if len(x.seq) < 2:
            raise DepthExhausted("no deeper terms left to promote")
        return FontaineElement(x.ring, x.seq[1:])
    if direction == "bwd":
        p = br.ring_char(x.ring)
        return FontaineElement(x.ring, (br.pow_int(x.seq[0], p),) + x.seq[:-1])
    raise SpecParseError(f"unknown direction {direction!r}")


# ---------------------------------------------------------------------------
# report rendering: line-oriented KEY: VALUE with a final VERDICT


def _depth_str(d: int | None) -> str:
    return UNBOUNDED if d is None else str(d)


def render_perfection_report(rep: PerfectionReport) -> str:
    lines = [
        "KIND: perfection",
        f"RING: {br.canonical_descriptor(rep.ring)}",
        f"BUDGET: {rep.budget}",
        f"INJECTIVE_UP_TO: {_depth_str(rep.injective_up_to)}",
        f"SURJECTIVE_UP_TO: {_depth_str(rep.surjective_up_to)}",
        "KERNEL_GENERATORS: " + (
            ", ".join(br.format_element(g) for g in rep.kernel_generators)
            if rep.kernel_generators else "none"),
    ]
    for aspect, elt, note in rep.witnesses:
        lines.append(f"WITNESS: {aspect} {elt} ({note})")
    for note in rep.notes:
        lines.append(f"NOTE: {note}")
    lines.append(f"VERDICT: {'PASS' if rep.verdict else 'FAIL'}")
    return "\n".join(lines)


def render_tower_report(rep: TowerReport) -> str:
    lines = [
        "KIND: semiperfect-tower",
        f"P: {rep.p}",
        f"DEPTH: {rep.depth}",
        "MODEL: mod-p shadow of Z[T]/(T^(p^M) - p); finite stage of a colimit,"
        " not the colimit itself",
    ]
    for key, ok, detail in rep.items:
        lines.append(f"ITEM {key}: {'PASS' if ok else 'FAIL'} ({detail})")
    lines.append(f"VERDICT: {'PASS' if rep.verdict else 'FAIL'}")
    return "\n".join(lines)
