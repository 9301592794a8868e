"""Command-line surface: literal codecs, the named-example verification
suite, and the structural-polynomial benchmark.

Canonical results go to stdout and are byte-deterministic for a fixed
command line; timings go to stderr.  Exit codes: 0 success,
1 verification failure, 2 input error, 3 precision/depth exhaustion.
"""

from __future__ import annotations

import argparse
import math
import os
import random
import re
import sys
import time
from dataclasses import dataclass
from io import StringIO
from itertools import islice, product as iproduct

from . import base_rings as br
from . import frobenius_lab as fl
from . import lifting as lf
from . import witt_core as wc
from . import witt_ramified as rw
from .errors import (
    LevelTooLarge,
    NoRoot,
    NotDivisible,
    SpecParseError,
    WittforgeError,
)

DEFAULT_SEED = 1729


# ---------------------------------------------------------------------------
# literal codecs
#
# Element expressions are owned by base_rings (format_element / evaluate).
# The composite literals below wrap them: W{..}, RW[..]{..}, DIGITS[..]{..}
# and FONT{..}.  parse(print(v)) = v is a tested invariant for all of them.

_W_RE = re.compile(r"\s*W\s*(?:\[(?P<hdr>[^\]]*)\])?\s*\{(?P<body>.*)\}\s*$",
                   re.S)
_W_HDR_RE = re.compile(r"\s*p\s*=\s*(\d+)\s*,\s*n\s*=\s*(\d+)\s*$")
_RW_RE = re.compile(r"\s*RW\s*\[\s*base\s*=\s*(?P<id>[A-Za-z_]\w*)\s*,"
                    r"\s*N\s*=\s*(?P<n>\d+)\s*\]\s*\{(?P<body>.*)\}\s*$", re.S)
_DIGITS_RE = re.compile(r"\s*DIGITS\s*\[\s*(?P<n>\d+)\s*\]\s*"
                        r"\{(?P<body>.*)\}\s*$", re.S)
_FONT_RE = re.compile(r"\s*FONT\s*\{(?P<body>.*)\}\s*$", re.S)
_BASE_RE = re.compile(r"\s*rw\s+p\s*=\s*(?P<p>\d+)\s+e\s*=\s*(?P<e>\d+)\s+"
                      r"eis\s*=\s*\((?P<eis>.*)\)\s+"
                      r"prec\s*=\s*(?P<prec>\d+)\s*$")


def parse_witt(ring, text: str, n: int | None = None) -> wc.WittVector:
    m = _W_RE.match(text)
    if not m:
        raise SpecParseError(f"not a Witt literal: {text!r}")
    if m.group("hdr") is not None:
        hm = _W_HDR_RE.match(m.group("hdr"))
        if not hm:
            raise SpecParseError(f"bad Witt header: {m.group('hdr')!r}")
        if br.read_int(hm.group(1)) != br.ring_char(ring):
            raise SpecParseError(
                f"literal p={hm.group(1)} but the ring has "
                f"characteristic {br.ring_char(ring)}")
        hn = br.read_int(hm.group(2))
        if n is not None and hn != n:
            raise SpecParseError(f"literal n={hn} but the command says n={n}")
        n = hn
    coords = [br.evaluate(ring, part) for part in m.group("body").split(";")]
    if n is not None and len(coords) != n:
        raise SpecParseError(f"expected {n} coordinates, got {len(coords)}")
    return wc.make_witt(ring, coords)


def format_witt(x: wc.WittVector) -> str:
    return str(x)


def parse_base(text: str) -> rw.RamifiedBase:
    """Base descriptor: rw p=<prime> e=<int> eis=(<monic X-poly>) prec=<int>."""
    m = _BASE_RE.match(text)
    if not m:
        raise SpecParseError(f"bad base descriptor: {text!r}")
    p, e, prec = (br.read_int(m.group(k)) for k in ("p", "e", "prec"))
    if prec < 1:
        raise SpecParseError("prec must be >= 1")
    f, coeffs = rw.parse_eisenstein(m.group("eis"))
    level = math.ceil(prec / f) + 1
    return rw.make_ramified_base(p, e, f, coeffs, level)


def parse_rw(base: rw.RamifiedBase, ring, text: str) -> rw.RamifiedWitt:
    m = _RW_RE.match(text)
    if not m:
        raise SpecParseError(f"not a ramified literal: {text!r}")
    if m.group("id") != "b0":
        raise SpecParseError(
            f"unknown base id {m.group('id')!r}; this command binds "
            f"'b0' via --base")
    parts = m.group("body").split("|")
    if len(parts) != base.f:
        raise SpecParseError(f"expected {base.f} slots, got {len(parts)}")
    coords = tuple(parse_witt(ring, part, base.level) for part in parts)
    return rw.RamifiedWitt(base, ring, coords, br.read_int(m.group("n")))


def format_rw(x: rw.RamifiedWitt) -> str:
    inner = " | ".join(str(w) for w in x.coords)
    return f"RW[base=b0, N={x.precision}]{{ {inner} }}"


def parse_digits(base: rw.RamifiedBase, ring, text: str) -> rw.DigitExpansion:
    m = _DIGITS_RE.match(text)
    if not m:
        raise SpecParseError(f"not a digit literal: {text!r}")
    body = m.group("body")
    parts = body.split(";") if body.strip() else []  # DIGITS[0]{} is empty
    if len(parts) != br.read_int(m.group("n")):
        raise SpecParseError(
            f"header says {m.group('n')} digits, body has {len(parts)}")
    digits = tuple(br.evaluate(ring, part) for part in parts)
    return rw.DigitExpansion(base, ring, digits)


def parse_fontaine(ring, text: str) -> fl.FontaineElement:
    m = _FONT_RE.match(text)
    if not m:
        raise SpecParseError(f"not a compatible-sequence literal: {text!r}")
    seeds = [br.evaluate(ring, part) for part in m.group("body").split(";")]
    return fl.fontaine_make(ring, seeds)


# ---------------------------------------------------------------------------
# polynomials in one unknown X over a ramified base, for the lift command

class _PolyX(br.PolyAlgebra):
    """Polynomials in X over a ramified base, for expressions like "X^2-(p+x)":
    p names the base prime, other names are embedded as by embed_expr."""

    def name(self, s):
        return self.int(self.coeffs.base.p) if s == "p" else super().name(s)


def parse_poly_x(base, ring, text: str):
    alg = _PolyX(rw.EmbedAlgebra(base, ring), "X")
    coeffs = tuple(map(alg.coeffs.lift, br.parse_all(text, alg, "polynomial")))
    while len(coeffs) > 1 and rw.rw_is_zero(coeffs[-1]):
        coeffs = coeffs[:-1]
    return coeffs


# ---------------------------------------------------------------------------
# the named-example verification suite

@dataclass(frozen=True)
class CheckResult:
    name: str
    anchor: str
    elapsed: float
    witnesses: tuple

    @property
    def ok(self) -> bool:
        return not self.witnesses


@dataclass(frozen=True)
class _SuiteConfig:
    seed: int

    def rng(self, tag: str):
        return random.Random(f"{self.seed}:{tag}")


def _ghost_route(op: str, xs, ys, p: int):
    gx = wc.ghost(xs, p)
    gy = wc.ghost(ys, p)
    gz = tuple(a + b if op == "add" else a * b for a, b in zip(gx, gy))
    return wc.from_ghost(gz, p)


def _check_structural_tables(cfg):
    scope = [(2, 4), (3, 4), (5, 3)]
    for p, lv in scope:
        for kind in ("sum", "product", "negation"):
            table = wc.structural_polys(p, lv, kind)
            wc.verify_table(table)  # raises on any broken ghost identity
    wc.verify_table(wc.structural_polys(5, 4, "negation"))
    # the level-4 sum/product tables at p=5 are over the term budget; the
    # refusal must name the exact bound
    for kind, bound in (("sum", "130941098"), ("product", "13741849")):
        try:
            wc.structural_polys(5, 4, kind)
            yield f"(5, {kind}, 4) generated but should exceed budget"
        except LevelTooLarge as exc:
            if bound not in str(exc):
                yield f"(5, {kind}, 4) bound message lacks {bound}: {exc}"
    s = wc.structural_polys(2, 1, "sum")
    if wc.table_lines(s) != ["S_0 = X0+Y0", "S_1 = -X0*Y0+X1+Y1"]:
        yield f"p=2 sum table differs: {wc.table_lines(s)}"
    pr = wc.structural_polys(2, 1, "product")
    if wc.table_lines(pr) != ["P_0 = X0*Y0", "P_1 = X0^2*Y1+X1*Y0^2+2*X1*Y1"]:
        yield f"p=2 product table differs: {wc.table_lines(pr)}"


def _check_ghost_oracle(cfg):
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            rng = cfg.rng(f"ghost:{p}:{n}")
            cs = wc.compile_table(
                wc.structural_polys(p, n - 1, "sum"))
            cp = wc.compile_table(
                wc.structural_polys(p, n - 1, "product"))
            for _ in range(1000):
                xs = tuple(rng.randrange(-9, 10) for _ in range(n))
                ys = tuple(rng.randrange(-9, 10) for _ in range(n))
                za = tuple(f(xs, ys) for f in cs)
                zm = tuple(f(xs, ys) for f in cp)
                if za != _ghost_route("add", xs, ys, p):
                    yield f"add mismatch p={p} n={n} x={xs} y={ys}"
                if zm != _ghost_route("mul", xs, ys, p):
                    yield f"mul mismatch p={p} n={n} x={xs} y={ys}"


def _check_small_witt_rings(cfg):
    for p in (2, 3, 5):
        ring = br.make_field(p, 1)
        for n in (1, 2, 3):
            order = p ** n
            elts = {c for c in iproduct(range(p), repeat=n)}
            one = wc.witt_one(ring, n)
            chain = [wc.witt_zero(ring, n)]
            for _ in range(order - 1):
                chain.append(wc.witt_add(chain[-1], one))
            seen = {c.coords for c in chain}
            if len(seen) != order:
                yield f"unit order below {order} at (p={p}, n={n})"
            if wc.witt_add(chain[-1], one) != chain[0]:
                yield f"unit order exceeds {order} at (p={p}, n={n})"
            if seen != {wc.make_witt(ring, c).coords for c in elts}:
                yield f"additive span of 1 misses elements (p={p}, n={n})"
            # arithmetic transports to Z/p^n along k -> k*1, which carries
            # the ring axioms over exhaustively
            index = {c.coords: k for k, c in enumerate(chain)}
            for j in range(order):
                for k in range(order):
                    s = wc.witt_add(chain[j], chain[k])
                    m = wc.witt_mul(chain[j], chain[k])
                    if index[s.coords] != (j + k) % order:
                        yield f"add transport fails at {(p, n, j, k)}"
                    if index[m.coords] != (j * k) % order:
                        yield f"mul transport fails at {(p, n, j, k)}"


def _check_operator_identities(cfg):
    configs = [
        ("ff p=2 e=2", 3),
        ("ff p=3 e=1", 3),
        ("ff p=5 e=1", 2),
        ("frac base=(ff p=3 e=1) vars=x depth_p=3 depth_2=0 laurent=true", 2),
    ]
    for spec_text, n in configs:
        ring = br.make_ring(spec_text)
        p = br.ring_char(ring)
        rng = cfg.rng(f"ops:{spec_text}:{n}")
        for i in range(1000):
            coords = [br.random_element(ring, rng, max_terms=2, exp_bound=2)
                      for _ in range(n)]
            x = wc.make_witt(ring, coords)
            if wc.frobenius_map(wc.verschiebung(x)) != wc.witt_pmul(x):
                yield f"FV != p at {spec_text} sample {i}"
            fx = wc.frobenius_map(x)
            if fx.coords != tuple(br.pow_int(c, p) for c in x.coords):
                yield f"F is not the p-th power at {spec_text} sample {i}"
            a = br.random_element(ring, rng, max_terms=2, exp_bound=2)
            if wc.project(wc.teichmuller(a, n)) != a:
                yield f"project(teich) != id at {spec_text} sample {i}"
            divisible = x.coords[0].is_zero()
            try:
                y = wc.divide_by_p(x)
                if not divisible:
                    yield f"divide_by_p accepted a_0 != 0 at sample {i}"
                elif n > 1 and wc.witt_pmul(y) != wc.WittVector(
                        ring, x.coords[:n - 1]):
                    yield f"p*divide_by_p != truncation at sample {i}"
            except NotDivisible:
                if divisible:
                    yield f"divide_by_p rejected a_0 = 0 at sample {i}"


def _rand_rw(base, ring, rng):
    F = ring.base
    coords = tuple(
        wc.WittVector(ring, tuple(br.from_coeff(ring, br.random_coeff(F, rng))
                                  for _ in range(base.level)))
        for _ in range(base.f))
    return rw.RamifiedWitt(base, ring, coords, base.default_precision)


def _check_ramified_digits(cfg):
    cases = [
        (rw.make_ramified_base(3, 1, 2, [-3, 0], 7), br.make_field(3, 1)),
        (rw.make_ramified_base(2, 1, 3, [-2, 0, 0], 5), br.make_field(2, 1)),
        (rw.make_ramified_base(2, 2, 2, [-2, 0], 7), br.make_field(2, 2)),
    ]
    for base, ring in cases:
        tag = f"(p={base.p}, e={base.e}, f={base.f})"
        # pi^f = unit * p: p has order f and dividing it down leaves a unit
        pint = rw.rw_from_int(base.p, base, ring)
        if rw.rw_ord(pint) != base.f:
            yield f"ord(p) != f at {tag}"
        u = pint
        for _ in range(base.f):
            u = rw.divide_by_pi(u)
        pi = rw.rw_pi(base, ring)
        pif = rw.rw_one(base, ring)
        for _ in range(base.f):
            pif = rw.rw_mul(pif, pi)
        if not rw.rw_equal(rw.rw_mul(pif, u), pint, u.precision):
            yield f"pi^f * unit != p at {tag}"
        try:
            rw.rw_inv(u)
        except WittforgeError:
            yield f"p / pi^f is not a unit at {tag}"
        rng = cfg.rng(f"digits:{tag}")
        cap = min(12, base.default_precision)
        for i in range(34):
            x = _rand_rw(base, ring, rng)
            for n in (1, max(1, cap // 2), cap):
                # the closed forms against the division walk and Horner's rule
                d = rw.digit_expand(x, n)
                back = rw.digits_assemble(d)
                if (d != rw._digit_walk(x, n)
                        or back.coords != rw._horner_assemble(d).coords
                        or not rw.rw_equal(back, x, n)):
                    yield f"digit round-trip fails at {tag} N={n} run {i}"
        for i in range(100):
            x = _rand_rw(base, ring, rng)
            lhs = rw.reduce_mod_pi(rw.frobenius_pi(x, 1))
            rhs = br.pow_int(rw.reduce_mod_pi(x), base.q)
            if lhs != rhs:
                yield f"residue Frobenius is not the q-power at {tag} run {i}"


def _check_twisted_frobenius(cfg):
    base = rw.make_ramified_base(3, 1, 2, [-3, 0], 4)  # N = 6
    ring = br.make_ring(
        "frac base=(ff p=3 e=1) vars=x depth_p=6 depth_2=0 laurent=true")
    N = base.default_precision
    q = base.q
    for expr in ("x", "x^(1/3)", "x^(13/3)"):
        lhs = rw.frobenius_pi(rw.embed_expr(base, ring, expr), 1)
        rhs = rw.teich_embed(br.pow_int(br.evaluate(ring, expr), q), base)
        if not rw.rw_equal(lhs, rhs, N):
            yield f"F(embed({expr})) != embed({expr}^q)"
    pi = rw.rw_pi(base, ring)
    if not rw.rw_equal(rw.frobenius_pi(pi, 1), pi, N):
        yield "F_pi does not fix pi"
    one = rw.rw_one(base, ring)
    if not rw.rw_equal(rw.frobenius_pi(one, 1), one, N):
        yield "F_pi does not fix 1"
    # twisted-product recurrence: F(a_n) * F^(-n)(a) * F^(-(n+1))(a) = a_(n+1)
    text = "x^(13/3)"
    ahat = rw.embed_expr(base, ring, text)
    for n in range(4):
        an = rw.twisted_product(base, ring, text, n)
        an1 = rw.twisted_product(base, ring, text, n + 1)
        lhs = rw.rw_mul(rw.frobenius_pi(an, 1),
                        rw.rw_mul(rw.frobenius_pi(ahat, -n),
                                  rw.frobenius_pi(ahat, -(n + 1))))
        if not rw.rw_equal(lhs, an1, N):
            yield f"twisted recurrence fails at n={n}"
    abar = br.evaluate(ring, text)
    for k in range(-2, 3):
        lhs = rw.reduce_mod_pi(rw.frobenius_pi(ahat, k))
        if lhs != br.frobenius(abar, k):
            yield f"residue of F^{k} differs from the q^{k} power"


def _check_square_root_lift(cfg):
    t0 = time.perf_counter()
    base = rw.make_ramified_base(3, 1, 2, [-3, 0], 5)  # N = 8
    ring = br.make_ring(
        "frac base=(ff p=3 e=1) vars=x depth_p=10 depth_2=1 laurent=true")
    N = 8

    def prob(expr, seed_expr):
        c = rw.rw_add(rw.rw_from_int(3, base, ring),
                      rw.embed_expr(base, ring, expr))
        return lf.quadratic_problem(base, ring, c,
                                    rw.embed_expr(base, ring, seed_expr), N)

    s, steps = lf.hensel_lift_verbose(prob("x", "x^(1/2)"))
    c = rw.rw_add(rw.rw_from_int(3, base, ring),
                  rw.embed_expr(base, ring, "x"))
    if not rw.rw_equal(rw.rw_mul(s, s), c, N):
        yield "lifted root fails its own equation"
    bounds = [st.window if st.ord_value is None else st.ord_value
              for st in steps]
    if any(cur < min(2 * prev, N) for prev, cur in zip(bounds, bounds[1:])):
        yield f"certified orders failed to double: {bounds}"
    s3 = lf.hensel_lift(prob("x^3", "x^(3/2)"))
    fs = rw.frobenius_pi(s, 1)
    if not (rw.rw_equal(fs, s3, N) or rw.rw_equal(fs, rw.rw_neg(s3), N)):
        yield "F(sqrt(p+x)) is neither square root of p+x^p"
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        yield f"runtime {elapsed:.1f}s exceeds the 10s budget"


def _check_semiperfect_tower(cfg):
    for p in (2, 3, 5):
        for depth in (1, 2, 3):
            rep = fl.semiperfect_tower_check(p, depth, samples=6,
                                             seed=cfg.seed)
            if not rep.verdict:
                bad = [k for k, ok, _ in rep.items if not ok]
                yield f"tower items {bad} fail at (p={p}, M={depth})"
        # root acquisition across two levels and the square congruence:
        # a = c^(1/p^2) exists for dilated c, and (a^p)^p lands back on c
        model = fl.make_tower_model(p, 3)
        rng = cfg.rng(f"tower:{p}")
        for i in range(8):
            d = br.random_element(model.ring, rng, max_terms=2, exp_bound=3)
            cval = br.pow_int(d, p * p)
            try:
                a = br.frobenius(cval, -2)
            except NoRoot:
                yield f"no p^2-root for a dilated target (p={p}, run {i})"
            if br.pow_int(br.pow_int(a, p), p) != cval:
                yield f"(a^p)^p != c at (p={p}, run {i})"
        try:
            br.frobenius(br.variable(model.ring, "u"), -1)
        except NoRoot:
            pass
        else:
            yield f"u acquired a p-th root it cannot have (p={p})"
        # the direct Newton route on X^(p^2) - pX - [c] is out of reach:
        # the derivative is divisible by p everywhere
        fring = br.make_field(p, 1)
        ubase = rw.make_ramified_base(p, 1, 1, [-p], 4)
        one = rw.rw_one(ubase, fring)
        zero = rw.rw_zero(ubase, fring)
        coeffs = ([rw.rw_neg(one), rw.rw_from_int(-p, ubase, fring)]
                  + [zero] * (p * p - 2) + [one])
        try:
            lf.make_hensel_problem(tuple(coeffs), one, 3)
            yield f"inseparable problem accepted at p={p}"
        except lf.DerivativeNotUnit:
            pass


def _check_reduced_quotient(cfg):
    sbar = br.make_ring(
        "frac base=(ff p=3 e=1) vars=x,t depth_p=0 depth_2=0 laurent=false "
        "mod=t^2")
    t = br.variable(sbar, "t")
    if t.is_zero() or not br.mul(t, t).is_zero():
        yield "t is not a nilpotent witness in the t-presentation"
    norm = br.make_ring(
        "frac base=(ff p=3 e=1) vars=u,s depth_p=0 depth_2=0 laurent=false "
        "mod=s^2")
    u, s = br.variable(norm, "u"), br.variable(norm, "s")
    su = br.mul(s, u)
    # the relation t^2 - p*x maps to (su)^2 - s^2 u^2; p also lifts to s^2,
    # so both readings of the image must vanish
    img1 = br.sub(br.mul(su, su), br.mul(br.mul(s, s), br.mul(u, u)))
    img2 = br.sub(br.mul(su, su), br.mul(br.from_int(norm, 3),
                                         br.mul(u, u)))
    if not img1.is_zero():
        yield "relation image (su)^2 - s^2 u^2 is nonzero"
    if not img2.is_zero():
        yield "relation image (su)^2 - p u^2 is nonzero"
    # the u-presentation is a polynomial ring: no nilpotents up to degree 4
    for fp, ee in ((3, 1), (3, 2)):
        F = br.make_field(fp, ee)
        if ee == 1:
            coeff_space = list(iproduct(range(fp), repeat=5))
        else:
            rng = cfg.rng(f"reduced:{fp}:{ee}")
            coeff_space = [tuple(rng.randrange(fp ** ee) for _ in range(5))
                           for _ in range(200)]
        for vec in coeff_space:
            h = br._poly_elt(F, "u", [br._digits(cv, fp, ee) for cv in vec])
            if h.is_zero():
                continue
            sq = br.mul(h, h)
            if sq.is_zero() or br.mul(sq, h).is_zero():
                yield f"nilpotent {h} found in F_{fp}^{ee}[u]"


def _check_monomial_certificates(cfg):
    ring = br.make_ring(
        "frac base=(ff p=3 e=1) vars=v,w depth_p=0 depth_2=0 laurent=false")
    v, w = br.variable(ring, "v"), br.variable(ring, "w")
    rng = cfg.rng("monomial")
    for i in range(100):
        f = br.pow_int(v, rng.randint(1, 3))
        g = br.pow_int(w, rng.randint(1, 3))
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        h = br.random_element(ring, rng, max_terms=3, exp_bound=2)
        a = br.mul(h, br.pow_int(f, m))
        b = br.mul(h, br.pow_int(g, n))
        res = br.intersection_witness(f, g, a, b, m, n)
        if res.status != "member":
            yield f"membership refused on instance {i}: {res.note}"
        bad = br.add(a, br.one(ring))
        res2 = br.intersection_witness(f, g, bad, b, m, n)
        if res2.status == "member":
            yield f"perturbed instance {i} wrongly certified"
    # radical certificates versus exhaustive nilpotent search
    for fp, ee in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        qq = fp ** ee
        rng2 = cfg.rng(f"radical:{qq}")
        for deg in (2, 3, 4):
            body = [rng2.randrange(fp) for _ in range(deg)]
            mod_text = "+".join([f"T^{deg}"]
                                + [f"{c}*T^{k}" if k else f"{c}"
                                   for k, c in enumerate(body) if c])
            uq = br.make_ring(
                f"uq base=(ff p={fp} e={ee}) var=T modulus={mod_text}")
            rep = br.is_reduced_univariate(uq)
            found = None
            for vec in iproduct(range(qq), repeat=deg):
                h = br._uq_elt(uq, br._poly_elt(uq.base, "T", [
                    br._digits(cv, fp, ee) for cv in vec]))
                if h.is_zero():
                    continue
                if br.pow_int(h, deg).is_zero():
                    found = h
                    break
            if rep.reduced and found is not None:
                yield (f"reduced verdict but nilpotent {found} "
                       f"in q={qq} deg={deg}")
            if not rep.reduced:
                if found is None:
                    yield (f"non-reduced verdict without any nilpotent "
                           f"at q={qq} deg={deg}")
                wv = rep.witness
                if wv is None or wv.is_zero() or not br.pow_int(
                        wv, rep.nilpotency).is_zero():
                    yield f"witness fails at q={qq} deg={deg}"


def _check_compatible_sequences(cfg):
    for fp, depth in ((2, 3), (3, 2), (5, 2)):
        ring = br.make_ring(
            f"uq base=(ff p={fp} e=1) var=u modulus=u^{fp ** depth}")
        rng = cfg.rng(f"fontaine:{fp}:{depth}")
        length = 3

        def sample():
            top = br.random_element(ring, rng, max_terms=2, exp_bound=3)
            seq = [br.frobenius(top, k) for k in range(length - 1, -1, -1)]
            return fl.fontaine_make(ring, seq)

        arith = fl.fontaine_arith
        for i in range(60):
            x, y, z = sample(), sample(), sample()
            if arith("add", arith("add", x, y), z).seq != \
                    arith("add", x, arith("add", y, z)).seq:
                yield f"associativity fails at (p={fp}, run {i})"
            if arith("mul", x, y).seq != arith("mul", y, x).seq:
                yield f"commutativity fails at (p={fp}, run {i})"
            lhs = arith("mul", x, arith("add", y, z)).seq
            rhs = arith("add", arith("mul", x, y), arith("mul", x, z)).seq
            if lhs != rhs:
                yield f"distributivity fails at (p={fp}, run {i})"
            # each composition of the two shifts is the identity on the part
            # that survives; the deepest term is the price of a round trip
            got = fl.fontaine_shift(fl.fontaine_shift(x, "bwd"), "fwd")
            if got.seq != x.seq[:-1]:
                yield f"fwd(bwd) drifts at (p={fp}, run {i})"
            back = fl.fontaine_shift(fl.fontaine_shift(x, "fwd"), "bwd")
            if back.seq != x.seq[:-1]:
                yield f"bwd(fwd) drifts at (p={fp}, run {i})"


def _check_codec_roundtrip(cfg):
    ff = br.make_field(3, 2)
    frac = br.make_ring(
        "frac base=(ff p=3 e=1) vars=x,y depth_p=2 depth_2=1 laurent=true")
    uq = br.make_ring("uq base=(ff p=3 e=1) var=T modulus=T^9")
    base = rw.make_ramified_base(3, 1, 2, [-3, 0], 4)
    fring = br.make_field(3, 1)
    font_ring = br.make_ring("uq base=(ff p=2 e=1) var=u modulus=u^8")
    rng = cfg.rng("codec")
    for i in range(200):
        for ring in (ff, frac, uq):
            v = br.random_element(ring, rng, max_terms=3, exp_bound=2,
                                  denom_depth=1)
            if br.evaluate(ring, br.format_element(v)) != v:
                yield f"element round trip fails: {br.format_element(v)}"
        n = rng.randint(1, 4)
        x = wc.make_witt(uq, [br.random_element(uq, rng, max_terms=2)
                              for _ in range(n)])
        if parse_witt(uq, format_witt(x)) != x:
            yield f"witt round trip fails: {format_witt(x)}"
        r = _rand_rw(base, fring, rng)
        back = parse_rw(base, fring, format_rw(r))
        if back.coords != r.coords or back.precision != r.precision:
            yield f"ramified round trip fails: {format_rw(r)}"
        d = rw.digit_expand(r, rng.randint(1, base.default_precision))
        d2 = parse_digits(base, fring, str(d))
        if d2.digits != d.digits:
            yield f"digit round trip fails: {d}"
        top = br.random_element(font_ring, rng, max_terms=2)
        seq = [br.frobenius(top, k) for k in (2, 1, 0)]
        fv = fl.fontaine_make(font_ring, seq)
        if parse_fontaine(font_ring, str(fv)).seq != fv.seq:
            yield f"sequence round trip fails: {fv}"
    # byte determinism: canonical output of a fixed command set is stable
    commands = [
        ["witt", "add", "--ring", "ff p=2 e=1", "--n", "2",
         "--x", "W{1;0}", "--y", "W{1;0}"],
        ["eval", "--ring", "frac base=(ff p=3 e=1) vars=x depth_p=2 "
         "depth_2=0 laurent=true", "--expr", "(x+1)*(x-1)"],
        ["poly", "dump", "--p", "2", "--kind", "product", "--level", "2"],
        ["frob", "report", "--ring",
         "uq base=(ff p=3 e=1) var=T modulus=T^9"],
        ["rw", "expand", "--base", "rw p=3 e=1 eis=(X^2-3) prec=6",
         "--ring", "ff p=3 e=1", "--x",
         "RW[base=b0, N=6]{ W{1;0;0;0} | W{1;0;0;0} }"],
    ]
    outputs = []
    for _ in range(2):
        chunks = []
        for cmd in commands:
            out = StringIO()
            code = main(cmd, stdout=out, stderr=StringIO())
            if code != 0:
                yield f"command {cmd[:2]} exited {code}"
            chunks.append(out.getvalue())
        outputs.append(chunks)
    if outputs[0] != outputs[1]:
        yield "re-running the fixed command set changed its output"
    if outputs[0][0] != "W{0;1}\n":
        yield f"witt add canonical output drifted: {outputs[0][0]!r}"
    if "KERNEL_GENERATORS: T^3" not in outputs[0][3]:
        yield "perfection report lost its kernel generator"


# A check is a generator of witness strings and passes when it yields none.
# run_verify_suite stops it at its first witness and never resumes it, so
# no check needs to guard the code after a yield.
CHECKS = (
    ("structural-tables", "2", _check_structural_tables),
    ("ghost-oracle", "2", _check_ghost_oracle),
    ("small-witt-rings", "2", _check_small_witt_rings),
    ("operator-identities", "2", _check_operator_identities),
    ("ramified-digits", "4.5ii", _check_ramified_digits),
    ("twisted-frobenius", "6.2", _check_twisted_frobenius),
    ("square-root-lift", "6.4", _check_square_root_lift),
    ("semiperfect-tower", "8.1+8.2", _check_semiperfect_tower),
    ("reduced-quotient", "4.8", _check_reduced_quotient),
    ("monomial-certificates", "3.6+3.8", _check_monomial_certificates),
    ("compatible-sequences", "8.3", _check_compatible_sequences),
    ("codec-roundtrip", "io", _check_codec_roundtrip),
)


def run_verify_suite(filter_text: str | None = None,
                     seed: int = DEFAULT_SEED) -> list[CheckResult]:
    cfg = _SuiteConfig(seed)
    results = []
    for name, anchor, fn in CHECKS:
        if filter_text and filter_text not in name and \
                filter_text not in anchor:
            continue
        t0 = time.perf_counter()
        try:
            witnesses = tuple(islice(fn(cfg), 1))
        except Exception as exc:  # a crashed check is a failed check
            witnesses = (f"raised {type(exc).__name__}: {exc}",)
        results.append(CheckResult(name, anchor, time.perf_counter() - t0,
                                   witnesses))
    return results


def render_verify(results, filter_text, seed, out, err) -> int:
    out.write(f"SEED: {seed}\n")
    for res in results:
        status = "PASS" if res.ok else "FAIL"
        out.write(f"CHECK {res.name} [{res.anchor}]: {status}\n")
        err.write(f"{res.name}: {res.elapsed:.2f}s\n")
        if not res.ok:
            for witness in res.witnesses:
                out.write(f"  WITNESS: {witness}\n")
            out.write(f"  REPRO: wittforge verify paper-examples "
                      f"--filter {res.name} --seed {seed}\n")
    if not results:
        out.write(f"NOTE: no checks match filter {filter_text!r}\n")
    verdict = all(res.ok for res in results)
    out.write(f"VERDICT: {'PASS' if verdict else 'FAIL'}\n")
    return 0 if verdict else 1


# ---------------------------------------------------------------------------
# command handlers

def _cmd_ring(ns, out, err) -> int:
    ring = br.make_ring(ns.ring)
    descriptor = br.canonical_descriptor(ring)
    out.write(f"KIND: {descriptor.split()[0]}\n")
    out.write(f"DESCRIPTOR: {descriptor}\n")
    out.write(f"CHAR: {br.ring_char(ring)}\n")
    out.write("VERDICT: PASS\n")
    return 0


def _cmd_eval(ns, out, err) -> int:
    ring = br.make_ring(ns.ring)
    out.write(br.format_element(br.evaluate(ring, ns.expr)) + "\n")
    return 0


def _cmd_witt(ns, out, err) -> int:
    ring = br.make_ring(ns.ring)
    op = ns.witt_op
    if op == "teich":
        a = br.evaluate(ring, ns.a)
        out.write(format_witt(wc.teichmuller(a, ns.n)) + "\n")
        return 0
    x = parse_witt(ring, ns.x, ns.n)
    if op in ("add", "mul", "neg"):
        y = getattr(ns, "y", None)  # neg takes no --y
        res = wc.witt_arith(op, x, None if y is None else parse_witt(ring, y, ns.n))
    elif op == "frob":
        res = wc.frobenius_map(x, ns.k)
    elif op == "versch":
        res = wc.verschiebung(x)
    elif op == "project":
        out.write(br.format_element(wc.project(x)) + "\n")
        return 0
    else:  # divp
        if x.length < 2:
            # the quotient has length n - 1 = 0, which no W{..} literal holds
            raise NotDivisible("divp needs --n >= 2")
        res = wc.divide_by_p(x)
    out.write(format_witt(res) + "\n")
    return 0


def _cmd_poly(ns, out, err) -> int:
    t0 = time.perf_counter()
    table = wc.structural_polys(ns.p, ns.level, ns.kind)
    err.write(f"table ready in {time.perf_counter() - t0:.2f}s\n")
    if ns.poly_op == "dump":
        for line in wc.table_lines(table):
            out.write(line + "\n")
        return 0
    payload = wc._table_payload(ns.p, ns.kind, ns.level, table.polys)
    if ns.out:
        path = os.path.join(ns.out, "tables",
                            f"p{ns.p}_{ns.kind}_l{ns.level}.json")
        wc._write_table(path, payload)
    out.write(f"TABLE: p={ns.p} kind={ns.kind} level={ns.level}\n")
    out.write("TERMS: " + " ".join(str(len(poly)) for poly in table.polys)
              + "\n")
    out.write(f"DIGEST: {wc._payload_digest(payload)}\n")
    if ns.out:
        out.write(f"DIR: {ns.out}\n")
    return 0


def _cmd_rw(ns, out, err) -> int:
    base = parse_base(ns.base)
    ring = br.make_ring(ns.ring)
    op = ns.rw_op
    if op in ("add", "mul"):
        x = parse_rw(base, ring, ns.x)
        y = parse_rw(base, ring, ns.y)
        res = rw.rw_arith(op, x, y)
    elif op == "inv":
        res = rw.rw_inv(parse_rw(base, ring, ns.x))
    elif op == "frobpi":
        res = rw.frobenius_pi(parse_rw(base, ring, ns.x), ns.k)
    elif op == "reduce":
        out.write(br.format_element(
            rw.reduce_mod_pi(parse_rw(base, ring, ns.x))) + "\n")
        return 0
    elif op == "divpi":
        res = rw.divide_by_pi(parse_rw(base, ring, ns.x))
    elif op == "expand":
        x = parse_rw(base, ring, ns.x)
        out.write(str(rw.digit_expand(x, ns.digits)) + "\n")
        return 0
    elif op == "assemble":
        res = rw.digits_assemble(parse_digits(base, ring, ns.digits))
    elif op == "embed":
        res = rw.embed_expr(base, ring, ns.expr)
        if ns.prec is not None:
            res = rw.rw_truncate(res, ns.prec)
    else:  # twist
        res = rw.twisted_product(base, ring, ns.expr, ns.n)
    out.write(format_rw(res) + "\n")
    return 0


def _cmd_frob(ns, out, err) -> int:
    if ns.frob_op == "report":
        ring = br.make_ring(ns.ring)
        t0 = time.perf_counter()
        rep = fl.perfection_report(ring, budget=ns.budget,
                                   samples=ns.samples, seed=ns.seed)
        err.write(f"report in {time.perf_counter() - t0:.2f}s\n")
        out.write(fl.render_perfection_report(rep) + "\n")
        return 0 if rep.verdict else 1
    rep = fl.semiperfect_tower_check(ns.p, ns.depth, samples=ns.samples,
                                     seed=ns.seed)
    out.write(fl.render_tower_report(rep) + "\n")
    return 0 if rep.verdict else 1


def _cmd_fontaine(ns, out, err) -> int:
    ring = br.make_ring(ns.ring)
    op = ns.fontaine_op
    if op == "make":
        out.write(str(parse_fontaine(ring, ns.seq)) + "\n")
        return 0
    if op in ("add", "mul"):
        x = parse_fontaine(ring, ns.x)
        y = parse_fontaine(ring, ns.y)
        out.write(str(fl.fontaine_arith(op, x, y)) + "\n")
        return 0
    out.write(str(fl.fontaine_shift(parse_fontaine(ring, ns.x), ns.dir))
              + "\n")
    return 0


def _cmd_hensel(ns, out, err) -> int:
    base = parse_base(ns.base)
    ring = br.make_ring(ns.ring)
    coeffs = parse_poly_x(base, ring, ns.poly)
    seed = rw.embed_expr(base, ring, ns.seed_digit)
    prob = lf.make_hensel_problem(coeffs, seed, ns.prec)
    t0 = time.perf_counter()
    root, steps = lf.hensel_lift_verbose(prob)
    err.write(f"lift in {time.perf_counter() - t0:.2f}s\n")
    out.write(str(rw.digit_expand(root, ns.prec)) + "\n")
    for st in steps:
        ordtxt = f"ord>={st.window}" if st.ord_value is None \
            else f"ord={st.ord_value}"
        out.write(f"STEP {st.index}: window={st.window} {ordtxt} "
                  f"dord={st.ord_derivative}\n")
    return 0


def _cmd_verify(ns, out, err) -> int:
    results = run_verify_suite(ns.filter, ns.seed)
    return render_verify(results, ns.filter, ns.seed, out, err)


def _cmd_bench(ns, out, err) -> int:
    wc.check_table_request(ns.p, ns.level, ns.kind)
    for level in range(ns.level + 1):
        t0 = time.perf_counter()
        table = wc.structural_polys(ns.p, level, ns.kind)
        wall = time.perf_counter() - t0
        poly = table.polys[level]
        bits = max((abs(c).bit_length() for c in poly.values()), default=0)
        out.write(f"LEVEL {level}: kind={ns.kind} terms={len(poly)} "
                  f"peak_bits={bits} wall={wall:.3f}s\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing: (flag, add_argument keywords) pairs, each option declared
# once; a command group maps each op to the flags it takes after the group's
# common head, in --help order

_RING = ("--ring", dict(required=True, help="ring descriptor"))
_BASE = ("--base", dict(
    required=True, help="ramified base, e.g. \"rw p=3 e=1 eis=(X^2-3) prec=8\""))
_X = ("--x", dict(required=True))
_Y = ("--y", dict(required=True))
_K = ("--k", dict(type=int, default=1))
_P = ("--p", dict(type=int, required=True))
_LEVEL = ("--level", dict(type=int, required=True))
_SEED = ("--seed", dict(type=int, default=0))
_EXPR = ("--expr", dict(required=True))
_KINDS = ("sum", "product", "negation")

_WITT_OPS = {
    "add": [_X, _Y], "mul": [_X, _Y], "neg": [_X], "frob": [_X, _K],
    "versch": [_X], "teich": [("--a", dict(required=True, help="element expression"))],
    "project": [_X], "divp": [_X]}
_POLY_OPS = {"gen": [("--out", dict(default=None, help="table directory"))],
             "dump": []}
_RW_OPS = {
    "add": [_X, _Y], "mul": [_X, _Y], "inv": [_X], "frobpi": [_X, _K],
    "reduce": [_X], "divpi": [_X],
    "expand": [_X, ("--digits", dict(type=int, default=None))],
    "assemble": [("--digits", dict(required=True, help="DIGITS[..]{..} literal"))],
    "embed": [_EXPR, ("--prec", dict(type=int, default=None))],
    "twist": [_EXPR, ("--n", dict(type=int, required=True))]}
_FROB_OPS = {
    "report": [_RING, ("--budget", dict(type=int, default=4)),
               ("--samples", dict(type=int, default=10)), _SEED],
    "tower": [_P, ("--depth", dict(type=int, required=True)),
              ("--samples", dict(type=int, default=8)), _SEED]}
_FONTAINE_OPS = {
    "make": [("--seq", dict(required=True, help="FONT{..} literal"))],
    "add": [_X, _Y], "mul": [_X, _Y],
    "shift": [_X, ("--dir", dict(required=True, choices=("fwd", "bwd")))]}
_HENSEL_OPS = {"lift": [("--poly", dict(required=True, help="polynomial in X")),
                        ("--seed-digit", dict(required=True, dest="seed_digit")),
                        ("--prec", dict(type=int, required=True))]}
_BENCH_OPS = {"poly": [_P, _LEVEL,
                       ("--kind", dict(default="product", choices=_KINDS))]}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="wittforge",
        description="truncated and ramified Witt vector arithmetic")
    sub = top.add_subparsers(dest="cmd", required=True)

    def command(parent, name, handler, flags, **kw):
        cmd = parent.add_parser(name, **kw)
        for flag, opts in flags:
            cmd.add_argument(flag, **opts)
        cmd.set_defaults(handler=handler)

    def group(name, help, handler, ops, head=()):
        ops_sub = sub.add_parser(name, help=help).add_subparsers(
            dest=f"{name}_op", required=True)
        for op, flags in ops.items():
            command(ops_sub, op, handler, [*head, *flags])
        return ops_sub

    command(group("ring", "ring descriptor utilities", None, {}), "check",
            _cmd_ring, [_RING], help="validate a ring descriptor")
    command(sub, "eval", _cmd_eval, [_RING, _EXPR],
            help="evaluate an element expression")
    group("witt", "truncated Witt vector operations", _cmd_witt, _WITT_OPS,
          [_RING, ("--n", dict(type=int, required=True, help="length"))])
    group("poly", "structural polynomial tables", _cmd_poly, _POLY_OPS,
          [_P, ("--kind", dict(required=True, choices=_KINDS)), _LEVEL])
    group("rw", "ramified Witt vector operations", _cmd_rw, _RW_OPS, [_BASE, _RING])
    group("frob", "perfection reports", _cmd_frob, _FROB_OPS)
    group("fontaine", "compatible p-power sequences", _cmd_fontaine,
          _FONTAINE_OPS, [_RING])
    group("hensel", "certified Newton lifting", _cmd_hensel, _HENSEL_OPS,
          [_BASE, _RING])
    command(sub, "verify", _cmd_verify,
            [("suite", dict(choices=("paper-examples",))),
             ("--filter", dict(default=None)),
             ("--seed", dict(type=int, default=DEFAULT_SEED))],
            help="run the named-example suite")
    group("bench", "generation benchmarks", _cmd_bench, _BENCH_OPS)
    return top


_parser = None  # the argparse tree, built on the first call to main


def main(argv=None, stdout=None, stderr=None) -> int:
    global _parser
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    if _parser is None:
        _parser = build_parser()
    try:
        ns = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return ns.handler(ns, out, err)
    except WittforgeError as exc:
        err.write(f"error: {exc}\n")
        return exc.exit_code

