"""Ramified Witt vectors: the free-basis tensor model over an Eisenstein base.

An element is stored as coordinates r_0..r_{f-1} on the basis 1, pi, ...,
pi^(f-1), each r_i a length-n p-typical Witt vector over the coefficient ring
A.  The uniformizer satisfies E(pi) = 0 for a monic Eisenstein polynomial
E(X) = X^f + e_{f-1} X^{f-1} + ... + e_0 over W_n(F_q), so multiplication is
polynomial convolution followed by reduction of pi^f = -sum e_i pi^i.

Precision bookkeeping is zealous: every element carries the number N of
certified Teichmueller pi-digits, which one gate keeps within 0..(n-1)*f.
Constructors give full precision, operations the min of their inputs, division
by pi one digit less, and rw_truncate is the only other way down.  The
internal Witt length is n = ceil(N_max/f) + 1: the +1 guard coordinate absorbs
the Witt-coordinate lost by each divide_by_p, so an untrusted top coordinate
only ever influences pi-digits at order >= (n-1)*f >= N.  Equality compares
canonical digit expansions at the shared precision, never raw coordinates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import base_rings as br
from . import witt_core as wc
from .base_rings import FiniteFieldSpec, Ring, RingElement
from .errors import (
    DepthExhausted,
    MismatchError,
    NoConvergence,
    NoRoot,
    NotAUnit,
    NotDivisible,
    NotEisenstein,
    SpecParseError,
)


@dataclass(frozen=True)
class RamifiedBase:
    p: int
    e: int
    f: int
    level: int  # internal Witt length n of every coordinate
    field: FiniteFieldSpec  # F_q, q = p^e
    eis: tuple  # e_0..e_{f-1} mod p^level: ints, their images in W_n(F_q)
    unit: int = dataclasses.field(repr=False)  # e_0/p mod p^level
    # c in F_q^* when E = X^f - p*[c], else None; found from the integers
    c: RingElement | None = dataclasses.field(default=None, compare=False,
                                              repr=False)

    __hash__ = br._hash_once

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def default_precision(self) -> int:
        # the guard margin: (level-1)*f pi-digits are certifiable
        return (self.level - 1) * self.f


def make_ramified_base(p: int, e: int, f: int, coeffs, level: int) -> RamifiedBase:
    """Validated Eisenstein base for E(X) = X^f + sum coeffs[i] X^i.

    Each coefficient is an int, whose image in W_n(F_q) is its class mod
    p^level (W_n(F_p) = Z/p^n), so every test is one on integers.  Raises
    NotEisenstein when a coefficient is not divisible by p or p^2 divides
    the constant term.  E = X^f - p*[c] exactly when p^level divides
    e_1..e_{f-1} and u = -e_0/p is [c] mod p^(level-1), i.e. when
    u^p = u mod p^(level-1), the Teichmueller lifts of Z/p^k being the
    roots of t^p = t there; then c = u mod p.
    """
    if f < 1:
        raise NotEisenstein("degree f must be >= 1")
    if level < 2:
        raise SpecParseError("working level must be >= 2")
    if len(coeffs) != f:
        raise SpecParseError(f"expected {f} coefficients e_0..e_{f - 1}")
    field = br.make_field(p, e)
    for i, c in enumerate(coeffs):
        if not isinstance(c, int):
            raise SpecParseError(f"bad Eisenstein coefficient {c!r}")
        if c % p:
            raise NotEisenstein(f"coefficient e_{i} is not divisible by p")
    if coeffs[0] % p ** 2 == 0:
        raise NotEisenstein(
            "constant term lies in the square of the maximal ideal")
    pn, pm, u = p ** level, p ** (level - 1), -(coeffs[0] // p)
    shape = not any(c % pn for c in coeffs[1:]) and pow(u, p, pm) == u % pm
    return RamifiedBase(p, e, f, level, field, tuple(c % pn for c in coeffs),
                        coeffs[0] // p % pn, br.from_int(field, u) if shape else None)


def parse_eisenstein(text: str):
    """Parse E as a monic integer polynomial in X; returns (f, [e_0..e_{f-1}])."""
    *coeffs, lead = br.parse_all(text, br.PolyAlgebra(br.INTEGERS, "X", "Eisenstein"),
                                 "Eisenstein polynomial")
    if lead != 1:
        raise NotEisenstein("Eisenstein polynomial must be monic")
    return len(coeffs), coeffs


@dataclass(frozen=True, eq=False)
class RamifiedWitt:
    base: RamifiedBase
    ring: Ring
    coords: tuple  # f WittVectors over ring, common length base.level
    precision: int

    def __post_init__(self):
        _gate(self.base, self.ring, self.precision)

    def __eq__(self, other):
        if not isinstance(other, RamifiedWitt):
            return NotImplemented
        return rw_equal(self, other)

    def __add__(self, other):
        return rw_arith("add", self, other)

    def __sub__(self, other):
        return rw_arith("add", self, rw_arith("neg", other))

    def __mul__(self, other):
        return rw_arith("mul", self, other)

    def __neg__(self):
        return rw_arith("neg", self)

    def __str__(self) -> str:
        inner = " | ".join(str(w) for w in self.coords)
        return f"RW[N={self.precision}]{{ {inner} }}"


@dataclass(frozen=True)
class DigitExpansion:
    base: RamifiedBase
    ring: Ring
    digits: tuple  # RingElements of ring

    def __post_init__(self):
        _gate(self.base, self.ring, len(self.digits))

    def __str__(self) -> str:
        inner = ";".join(br.format_element(d) for d in self.digits)
        return f"DIGITS[{len(self.digits)}]{{{inner}}}"


def _gate(base: RamifiedBase, ring: Ring, n: int) -> None:
    """The one precision rule: 0 <= N <= (level-1)*f, over the base's F_q."""
    F = ring.base
    if (F.p, F.e, F.modulus) != (base.field.p, base.field.e, base.field.modulus):
        raise MismatchError("coefficient ring does not extend the base's F_q")
    if not 0 <= n <= base.default_precision:
        raise SpecParseError(
            f"N={n} outside 0..{base.default_precision} for this base")


def rw_truncate(x: RamifiedWitt, n: int) -> RamifiedWitt:
    """x at precision n <= x.precision, the one way to lower a precision."""
    if not 0 <= n <= x.precision:
        raise NotDivisible(
            f"requested {n} digits but only {x.precision} are certified")
    return RamifiedWitt(x.base, x.ring, x.coords, n)


@lru_cache(maxsize=64)
def _ctx(base: RamifiedBase, ring: Ring):
    """Per-(base, ring) data: the Eisenstein coefficients and the negated
    inverse unit -(e_0/p)^(-1), as integers mapped into W_n(A)."""
    n = base.level
    inv_u = pow(base.unit, -1, base.p ** n)
    return (tuple(wc.int_to_witt(v, ring, n) for v in base.eis),
            wc.int_to_witt(-inv_u, ring, n))


def _from_witt(base: RamifiedBase, ring: Ring, w: wc.WittVector) -> RamifiedWitt:
    """w in the zeroth slot, at full precision."""
    z = wc.witt_zero(ring, base.level)
    return RamifiedWitt(base, ring, (w,) + (z,) * (base.f - 1),
                        base.default_precision)


def rw_zero(base: RamifiedBase, ring: Ring) -> RamifiedWitt:
    return _from_witt(base, ring, wc.witt_zero(ring, base.level))


def rw_one(base: RamifiedBase, ring: Ring) -> RamifiedWitt:
    return _from_witt(base, ring, wc.witt_one(ring, base.level))


def rw_from_int(m: int, base: RamifiedBase, ring: Ring) -> RamifiedWitt:
    return _from_witt(base, ring, wc.int_to_witt(m, ring, base.level))


def rw_pi(base: RamifiedBase, ring: Ring) -> RamifiedWitt:
    """The uniformizer pi*1: basis vector pi (for f = 1, -e_0 = p*unit)."""
    return rw_mul_pi(rw_one(base, ring))


def teich_embed(a: RingElement, base: RamifiedBase) -> RamifiedWitt:
    """Teichmueller section of reduce_mod_pi: a -> [a] in the zeroth slot."""
    return _from_witt(base, a.ring, wc.teichmuller(a, base.level))


def _match(x: RamifiedWitt, y: RamifiedWitt) -> None:
    if x.base != y.base or x.ring != y.ring:
        raise MismatchError("ramified operands over different bases or rings")


def rw_arith(op: str, x: RamifiedWitt, y: RamifiedWitt | None = None) -> RamifiedWitt:
    """Ring operation; op in {add, mul, neg, inv}.  Precision: min of inputs."""
    if op not in ("add", "mul", "neg", "inv"):
        raise SpecParseError(f"unknown op {op!r}")
    if op == "neg":
        return RamifiedWitt(x.base, x.ring,
                            tuple(wc.witt_neg(r) for r in x.coords), x.precision)
    if op == "inv":
        return _rw_inv(x)
    if y is None:
        raise SpecParseError(f"op {op!r} needs two operands")
    _match(x, y)
    prec = min(x.precision, y.precision)
    if op == "add":
        coords = tuple(wc.witt_add(a, b) for a, b in zip(x.coords, y.coords))
        return RamifiedWitt(x.base, x.ring, coords, prec)
    return _rw_mul(x, y, prec)


def rw_add(x, y):
    return rw_arith("add", x, y)


def rw_sub(x, y):
    return rw_arith("add", x, rw_arith("neg", y))


def rw_mul(x, y):
    return rw_arith("mul", x, y)


def rw_neg(x):
    return rw_arith("neg", x)


def rw_inv(x):
    return rw_arith("inv", x)


def _rw_mul(x: RamifiedWitt, y: RamifiedWitt, prec: int) -> RamifiedWitt:
    f, ring = x.base.f, x.ring
    eis, _ = _ctx(x.base, ring)
    s = [wc.witt_zero(ring, x.base.level)] * (2 * f - 1)
    # the zero guards skip a product and its sum outright; a first product
    # added to a zero s[i + j] is free already (the zero-operand rule of
    # witt_arith hands the product back as it is)
    ys = [(j, b) for j, b in enumerate(y.coords) if not wc.witt_is_zero(b)]
    for i, a in enumerate(x.coords):
        if not wc.witt_is_zero(a):
            for j, b in ys:
                s[i + j] = wc.witt_add(s[i + j], wc.witt_mul(a, b))
    # reduce pi^k for k >= f via pi^f = -sum e_j pi^j
    live = [j for j, v in enumerate(x.base.eis) if v]
    for k in range(2 * f - 2, f - 1, -1):
        if not wc.witt_is_zero(s[k]):
            for j in live:
                s[k - f + j] = wc.witt_sub(s[k - f + j], wc.witt_mul(s[k], eis[j]))
    return RamifiedWitt(x.base, ring, tuple(s[:f]), prec)


def rw_mul_pi(x: RamifiedWitt) -> RamifiedWitt:
    """Fast multiply by pi: shift the basis coordinates and fold the overflow."""
    f = x.base.f
    eis, _ = _ctx(x.base, x.ring)
    top = x.coords[f - 1]
    out = []
    for j in range(f):
        prev = x.coords[j - 1] if j > 0 else wc.witt_zero(x.ring, x.base.level)
        out.append(wc.witt_sub(prev, wc.witt_mul(top, eis[j])))
    return RamifiedWitt(x.base, x.ring, tuple(out), x.precision)


def _rw_inv(x: RamifiedWitt) -> RamifiedWitt:
    return rw_truncate(refine_inverse(x, None, x.precision), x.precision)


def refine_inverse(x: RamifiedWitt, s: RamifiedWitt | None, bound: int) -> RamifiedWitt:
    """s with x*s = 1 mod pi^bound, refined from s (from the Teichmueller lift
    of the residue's inverse when s is None) by s <- s + s*err, err = 1 - x*s.

    Each round squares err, which lies in the kernel (pi, V) of the residue
    map, nilpotent in W_n(A)[pi]/(E).  An order walk that finds no p-th root
    (off a perfect ring, err = V[a] has residue 0 but is no multiple of pi)
    certifies nothing, so s is refined on.
    """
    if s is None:
        try:
            s = teich_embed(br.invert(reduce_mod_pi(x)), x.base)
        except NotAUnit as exc:
            raise NotAUnit(f"not a unit mod pi: {exc}") from exc
    one = rw_one(x.base, x.ring)
    for _ in range(40):
        err = rw_sub(one, rw_mul(x, s))
        try:
            if rw_ord(err, limit=bound) is None:
                return s
        except DepthExhausted:
            pass
        s = rw_add(s, rw_mul(s, err))
    raise NoConvergence("inversion failed to stabilize")


def frobenius_pi(x: RamifiedWitt, k: int = 1) -> RamifiedWitt:
    """The q-Witt-Frobenius: e*k iterated Frobenius on every coordinate."""
    ek = x.base.e * k
    coords = tuple(wc.frobenius_map(r, ek) for r in x.coords)
    return RamifiedWitt(x.base, x.ring, coords, x.precision)


def reduce_mod_pi(x: RamifiedWitt) -> RingElement:
    """The residue map onto A: zeroth Witt coordinate of the zeroth slot."""
    return x.coords[0].coords[0]


def divide_by_pi(x: RamifiedWitt) -> RamifiedWitt:
    """The unique y with pi*y = x mod pi^N; precision drops by exactly one."""
    if not reduce_mod_pi(x).is_zero():
        raise NotDivisible("element is not divisible by pi (nonzero residue)")
    if x.precision < 1:
        raise NotDivisible("no certified digits left to divide")
    f = x.base.f
    eis, neg_inv_u = _ctx(x.base, x.ring)
    y_top = wc.witt_mul(neg_inv_u, _slot0_over_p(x))
    out = [None] * f
    out[f - 1] = y_top
    for i in range(f - 1, 0, -1):
        out[i - 1] = wc.witt_add(x.coords[i], wc.witt_mul(eis[i], y_top))
    return RamifiedWitt(x.base, x.ring, tuple(out), x.precision - 1)


def _slot0_over_p(x: RamifiedWitt) -> wc.WittVector:
    """Slot 0 divided by p at fixed length, its top coordinate an untrusted 0.

    Coordinate i of slot 0 carries digit f*i, so one with f*i >= N is read by
    no certified digit: where its p-th root is missing it reads as 0.
    """
    w, cut = x.coords[0], -(-x.precision // x.base.f)
    head = wc.divide_by_p(wc.WittVector(x.ring, w.coords[:cut])).coords
    tail = []
    for a in w.coords[cut:]:
        try:
            tail.append(br.frobenius(a, -1))
        except (NoRoot, DepthExhausted):
            tail.append(br.zero(x.ring))
    return wc.WittVector(x.ring, head + tuple(tail) + (br.zero(x.ring),))


def rw_ord(x: RamifiedWitt, limit: int | None = None) -> int | None:
    """pi-adic order below min(limit, N); None when 0 mod pi^min(limit, N).

    For E = X^f - p*[c] digit fi + j vanishes exactly when coordinate i of
    slot j does.  Where every nonzero slot carries a strict image z_j in
    Z_q[M]/p^n (``wc._perf_order``), the order is min_j (f*v_p(z_j) + j),
    read from the images with no coordinate:
    1. The index is right.  In W_n(A^perf) = Z_q[M^(1/p^inf)]/p^n,
       z = sum_i p^i [t_i] uniquely (Serre, Local Fields, II.5-6), so
       coordinate i is the first nonzero one exactly when p^i || z, and
       A inside A^perf changes no coordinate.
    2. The roots exist.  [x^a] = x^a for a in M, so Z_q[M] lies in W(A).
       If z_j = p^d u with u in Z_q[M], then z_j = V^d F^d(u), so every
       coordinate i >= d of slot j is a p^d-th power in A.  At k steps
       ``_walk_roots`` takes ceil((k - j)/f) <= v_p(z_j) roots of slot j, so
       all of them exist: the coordinate reading below returns the same k
       and never reaches the walk.
    Elsewhere x is first truncated to the bound, so a coordinate that no
    digit below it reads never refuses a root, and the order is read off the
    coordinates; other bases walk the digit expansion up to the first
    nonzero digit.
    """
    bound = max(0, x.precision if limit is None else min(limit, x.precision))
    f = x.base.f
    if x.base.c is not None:
        vs = [wc._perf_order(r) for r in x.coords]
        if None not in vs:
            k = min(f * v + j for j, v in enumerate(vs))
            return k if k < bound else None
    x = rw_truncate(x, bound)
    if x.base.c is not None:
        k = next((k for k in range(bound)
                  if not x.coords[k % f].coords[k // f].is_zero()), None)
        if _walk_roots(x, bound if k is None else k) is not None:
            return k
    return _ord_walk(x, bound)


def _ord_walk(x: RamifiedWitt, bound: int) -> int | None:
    cur = x
    for i in range(bound):
        if not reduce_mod_pi(cur).is_zero():
            return i
        cur = divide_by_pi(cur)
    return None


def rw_is_zero(x: RamifiedWitt) -> bool:
    return rw_ord(x) is None


def rw_equal(x: RamifiedWitt, y: RamifiedWitt, precision: int | None = None) -> bool:
    """Equality mod pi^min(Nx, Ny) via canonical digit expansion."""
    if x.base != y.base or x.ring != y.ring:
        return False
    prec = min(x.precision, y.precision)
    if precision is not None:
        prec = min(prec, precision)
    return rw_ord(rw_sub(x, y), prec) is None


# For E = X^f - p*[c] we have p = [c]^-1 pi^f and p^i [a] = V^i [a^(p^i)], so
# the Witt vector (r_0, r_1, ...) in slot j is sum_i [c^-i F^-i(r_i)] pi^(fi+j):
# digit fi + j is c^-i F^-i(r_{j,i}), read off with no Witt arithmetic.  The
# digit walk divides slot j D_j = ceil((steps - j)/f) times, taking a p-th
# root of each coordinate i >= 1 still in the slot, so it roots r_{j,i}
# min(i, D_j) times, one p-th root at a time.  A coordinate with fi + j >= N
# is read by no certified digit, and divide_by_pi reads its missing root as 0.
# The closed forms take the same roots, iterated as the walk does (on a
# non-reduced ring a single p-th root can miss a p^k-th root that exists, and
# then the two would differ), and leave any refusal to the walk.


def _walk_roots(x: RamifiedWitt, steps: int):
    """F^-min(i, D_j)(r_{j,i}) for every slot j and coordinate i with
    f*i + j < N, or None when one of these roots is missing."""
    f = x.base.f
    out = []
    for j, r in enumerate(x.coords):
        d = -(-(steps - j) // f)
        cut = -(-(x.precision - j) // f)  # f*i + j < N exactly when i < cut
        row = []
        for i, a in enumerate(r.coords[:cut]):
            try:
                for _ in range(min(i, d)):
                    a = br.frobenius(a, -1)
            except (NoRoot, DepthExhausted):
                return None
            row.append(a)
        out.append(row)
    return out


def _powers(u: RingElement, ring: Ring, k: int) -> list:
    """[u^i for i < k], u in F_q^*, as elements of ring."""
    out, pw = [], br.one(u.ring)
    for _ in range(k):
        out.append(br.from_coeff(ring, pw.terms[0][1]))
        pw = br.mul(pw, u)
    return out


def digit_expand(x: RamifiedWitt, digits: int | None = None) -> DigitExpansion:
    """Teichmueller digits a_0..a_{N-1} with x = sum [a_i] pi^i mod pi^N.

    For E = X^f - p*[c] digit fi + j is c^-i F^-i(r_{j,i}); other bases, and
    elements whose digit walk would refuse, go through the walk.
    """
    if digits is not None:
        x = rw_truncate(x, digits)
    want, base, f = x.precision, x.base, x.base.f
    roots = None if base.c is None else _walk_roots(x, want)
    if roots is None:
        return _digit_walk(x, want)
    cinv = _powers(br.invert(base.c), x.ring, -(-want // f))
    out = []
    for k in range(want):
        i, j = divmod(k, f)
        out.append(br.mul(cinv[i], roots[j][i]))
    return DigitExpansion(base, x.ring, tuple(out))


def _digit_walk(x: RamifiedWitt, want: int) -> DigitExpansion:
    """Greedy extraction: a_i = residue, subtract [a_i], then divide by pi.

    The walk runs at precision want, so that a coordinate no digit below
    want reads is a guard coordinate to divide_by_pi."""
    out = []
    cur = rw_truncate(x, want)
    for _ in range(want):
        a = reduce_mod_pi(cur)
        out.append(a)
        cur = divide_by_pi(rw_sub(cur, teich_embed(a, x.base)))
    return DigitExpansion(x.base, x.ring, tuple(out))


def digits_assemble(d: DigitExpansion) -> RamifiedWitt:
    """sum [a_i] pi^i at precision len(digits).

    For E = X^f - p*[c] coordinate i of slot j is F^i(c^i a_{fi+j}); other
    bases use Horner's rule.
    """
    base, ring = d.base, d.ring
    if base.c is None:
        return _horner_assemble(d)
    f, n = base.f, base.level
    cpow = _powers(base.c, ring, -(-len(d.digits) // f))
    slots = [[br.zero(ring)] * n for _ in range(f)]
    for k, a in enumerate(d.digits):
        i, j = divmod(k, f)
        slots[j][i] = br.frobenius(br.mul(cpow[i], a), i)
    return RamifiedWitt(base, ring, tuple(wc.WittVector(ring, tuple(s)) for s in slots),
                        len(d.digits))


def _horner_assemble(d: DigitExpansion) -> RamifiedWitt:
    """Sum [a_i] pi^i by a Horner walk from the top digit down."""
    acc = rw_zero(d.base, d.ring)
    for a in reversed(d.digits):
        acc = rw_mul_pi(acc)
        acc = rw_add(acc, teich_embed(a, d.base))
    return rw_truncate(acc, len(d.digits))


# ---------------------------------------------------------------------------
# the polynomial-model embedding and twisted products


class EmbedAlgebra:
    """The embedding of V-polynomial expressions into the ramified ring.

    Integers go through W_n and pi maps to pi.  A name of A stays a ring
    element, so it can take rational powers, until a ramified operation needs
    it; then it becomes its Teichmueller lift.  Ramified values take
    non-negative integer powers only.
    """

    def __init__(self, base: RamifiedBase, ring: Ring):
        self.base, self.ring = base, ring

    def int(self, n: int) -> RamifiedWitt:
        return rw_from_int(n, self.base, self.ring)

    def name(self, s: str):
        if s == "pi":
            return rw_pi(self.base, self.ring)
        return br.variable(self.ring, s)

    def lift(self, v) -> RamifiedWitt:
        if isinstance(v, RingElement):
            return teich_embed(v, self.base)
        return v

    def add(self, a, b) -> RamifiedWitt:
        return rw_add(self.lift(a), self.lift(b))

    def sub(self, a, b) -> RamifiedWitt:
        return rw_sub(self.lift(a), self.lift(b))

    def neg(self, a) -> RamifiedWitt:
        return rw_neg(self.lift(a))

    def mul(self, a, b) -> RamifiedWitt:
        return rw_mul(self.lift(a), self.lift(b))

    def pow(self, a, r: Fraction):
        if isinstance(a, RingElement):
            return br.pow_fraction(a, r)
        if r.denominator != 1 or r < 0:
            raise SpecParseError("only variables take fractional or negative powers")
        return br._power(rw_mul, a, r.numerator, rw_one(self.base, self.ring))


def embed_expr(base: RamifiedBase, ring: Ring, text: str) -> RamifiedWitt:
    """Embed a V-polynomial expression: variables of A, `pi`, and integers.

    Every monomial maps to the Teichmueller lift of its residue, pi maps to
    pi, integer constants go through W_n; sums and products are then formed in
    the ramified ring, which makes the map a homomorphism by construction.
    The multiplicativity across separate embeds is a theorem checked by the
    test suite, not by this function.
    """
    alg = EmbedAlgebra(base, ring)
    return alg.lift(br.parse_all(text, alg, "embed expression"))


def twisted_product(base: RamifiedBase, ring: Ring, text: str, n: int) -> RamifiedWitt:
    """prod_{k=-n..n} F_pi^k of the embedded expression."""
    if n < 0:
        raise SpecParseError("twist index must be >= 0")
    a = embed_expr(base, ring, text)
    acc = a
    for k in range(1, n + 1):
        acc = rw_mul(acc, frobenius_pi(a, k))
        acc = rw_mul(acc, frobenius_pi(a, -k))
    return acc
