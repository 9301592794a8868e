"""Hensel-Newton lifting of simple polynomial roots over ramified Witt rings.

Scope is deliberately narrow: the seed must be a root modulo pi and the
derivative there must be a unit.  Each Newton step is certified: the
verified pi-adic order of f(r) must at least double step over step, and the
derivative's order must stay 0.  A failed certificate raises instead of
returning a doubtful value, and the returned root always carries a full
residual certificate (f(root) has the zero digit expansion at the target
precision).

Cost control: the order walks are capped at a window that doubles along
with the expected convergence, so early steps never pay full-precision
digit extraction; the caps are visible in the step telemetry.  No step
inverts f'(r) from scratch: s ~ 1/f'(r) is carried across steps, and
witt_ramified.refine_inverse seeds it once (the Teichmueller lift of the
residue's inverse) and refines it, s <- s + s*err with err = 1 - f'(r)*s,
until err vanishes to the residual's certified order.  The correction
r <- r - f(r)*s then doubles the residual's order just as the exact
inverse would.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import base_rings as br
from . import witt_ramified as rw
from .errors import (
    DerivativeNotUnit,
    MismatchError,
    NoConvergence,
    NoRoot,
    NotAUnit,
    SpecParseError,
)
from .witt_ramified import RamifiedWitt


@dataclass(frozen=True)
class HenselProblem:
    coefficients: tuple  # c_0..c_deg, RamifiedWitt over one base and ring
    initial: RamifiedWitt
    target_precision: int


@dataclass(frozen=True)
class LiftStep:
    index: int
    window: int  # order-walk cap used this step
    ord_value: int | None  # verified ord of f(r); None = zero within window
    ord_derivative: int | None


def make_hensel_problem(coefficients, initial: RamifiedWitt,
                        target_precision: int) -> HenselProblem:
    """Validated problem; checks the simple-root configuration at the seed."""
    coeffs = tuple(coefficients)
    if len(coeffs) < 2:
        raise SpecParseError("need a polynomial of degree >= 1")
    base, ring = initial.base, initial.ring
    for c in coeffs:
        if not isinstance(c, RamifiedWitt) or c.base != base or c.ring != ring:
            raise MismatchError("coefficients and seed disagree on base or ring")
    if target_precision < 1 or target_precision > base.default_precision:
        raise SpecParseError(
            f"target precision must lie in 1..{base.default_precision}")
    if initial.precision < target_precision:
        raise SpecParseError("seed precision is below the requested target")
    if any(c.precision < target_precision for c in coeffs):
        raise SpecParseError("coefficient precision is below the requested target")
    prob = HenselProblem(coeffs, initial, target_precision)
    fr = poly_eval(coeffs, initial)
    if not rw.reduce_mod_pi(fr).is_zero():
        raise NoRoot("seed is not a root modulo pi")
    dr = poly_eval(poly_derivative(coeffs), initial)
    try:
        br.invert(rw.reduce_mod_pi(dr))
    except NotAUnit as exc:
        raise DerivativeNotUnit(
            f"derivative at the seed is not a unit: {exc}") from exc
    return prob


def poly_eval(coeffs, x: RamifiedWitt) -> RamifiedWitt:
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = rw.rw_add(rw.rw_mul(acc, x), c)
    return acc


def poly_derivative(coeffs):
    base, ring = coeffs[0].base, coeffs[0].ring
    out = []
    for i, c in enumerate(coeffs[1:], start=1):
        out.append(rw.rw_mul(rw.rw_from_int(i, base, ring), c))
    return tuple(out)


def hensel_lift(prob: HenselProblem) -> RamifiedWitt:
    root, _ = hensel_lift_verbose(prob)
    return root


def hensel_lift_verbose(prob: HenselProblem):
    """Newton iteration with per-step certificates; returns (root, steps)."""
    N = prob.target_precision
    coeffs = prob.coefficients
    deriv = poly_derivative(coeffs)
    r = prob.initial
    steps: list[LiftStep] = []
    s = None  # carried approximation of 1/f'(r)
    window = 2
    prev_ord: int | None = None
    for index in range(64):
        fr = poly_eval(coeffs, r)
        dr = poly_eval(deriv, r)
        o = rw.rw_ord(fr, limit=window)
        do = rw.rw_ord(dr, limit=1)
        steps.append(LiftStep(index, window, o, do))
        if do != 0:
            raise DerivativeNotUnit(
                "derivative order left 0 during iteration; root not simple")
        if o is None and window >= N:
            if not all(d.is_zero() for d in rw.digit_expand(fr, N).digits):
                raise NoConvergence("residual certificate failed at full precision")
            return (rw.rw_truncate(r, N), tuple(steps))
        if o is not None:
            if o == 0:
                raise NoConvergence("f(r) is a unit; the seed left its basin")
            if prev_ord is not None and o < min(2 * prev_ord, window):
                raise NoConvergence(
                    f"order failed to double: {prev_ord} then {o}")
            prev_ord = o
        else:
            prev_ord = window
        s = rw.refine_inverse(dr, s, prev_ord)
        r = rw.rw_sub(r, rw.rw_mul(fr, s))
        window = min(max(2 * window, 4), N)
    raise NoConvergence("step budget exhausted")


def quadratic_problem(base, ring, constant: RamifiedWitt, seed: RamifiedWitt,
                      precision: int) -> HenselProblem:
    """The recurring shape X^2 - c: coefficients (-c, 0, 1)."""
    one = rw.rw_one(base, ring)
    zero = rw.rw_zero(base, ring)
    return make_hensel_problem((rw.rw_neg(constant), zero, one), seed, precision)
