"""Characteristic-p coefficient rings with exact, canonical elements.

Every ring here is built on one coefficient ring (Z/p^K)[u]/(M~), where M~
is the integer lift of a monic irreducible M over F_p of degree e.
Coefficients are e-tuples of integers in [0, p^K).  At K = 1 this is the
finite field F_q, q = p^e, and ``FiniteFieldSpec`` is that instance; the
Witt lift route (``witt_core``) runs the same code at K = n+1, where each
F_p digit is its own integer lift.  At K = n it is Z_q/p^n = W_n(F_q), the
ring the Z_q route of ``witt_core`` computes in for Witt vectors over F_q.
That route runs the same way over a squarefree M, ``EtaleAlgebra``: a
reduced F_p[T]/(g) is its own coefficient ring, with M = g.
Three ring kinds sit on top, each a monomial ring followed by a reduction
(``_Monomials``): elements are sparse term dicts {exponent key: coefficient},
a key holds the integer numerators of the exponents over the lattice
denominator B, one per variable, and ``_reduce`` applies the ring's relations:

* ``FiniteFieldSpec`` -- F_q itself, the monomial ring in no variables: a
  single term with key ().
* ``FracLaurentRing`` -- (Laurent) polynomials over F_q whose exponents live in
  the lattice (1/B)Z with B = 2^depth_2 * p^depth_p, optionally cut down by a
  monomial ideal.  The p-part of B is the declared perfection depth; the 2-part
  exists so square roots of monomials have a home.  Rational exponents exist
  only where they enter a ring (``_frac_term``) and where they are printed.
* ``UnivariateQuotient`` -- F_q[T]/(g) for a monic g: keys (n,), B = 1, and a
  product and reduction by g on lists indexed by degree.  F_q[T] itself is
  the one-variable ``FracLaurentRing`` ``_poly_ring(F, var)``, same keys.

The kernel ops (``_kadd``, ``_kneg``, ``_kscale``, ``_kdiv_p``, the two
``_kmul`` and the one ``_kpow``) take the coefficient ring as an argument,
read their operands as (key, coefficient) pairs (an element's ``terms`` or a
dict's ``items()``; ``_kpow`` takes a dict), return term dicts and keep no
zero coefficients.  The monomial ``_kmul`` loops over pairs of terms, except
for dense products in one variable over Z/p^K (e = 1, no monomial quotient,
at least 16 pairs): each of those is one packed big-integer product
(``_kmul_packed``, Kronecker substitution), and ``_kpow`` and the Witt lift
and strict p-ring routes reach it unchanged.  Exponents are checked for the
lattice (and, outside Laurent rings, for sign) where they enter a ring, never
in products of keys already in it.

Elements are immutable: a ``RingElement`` holds a sorted tuple of
(exponent key, field coefficient) pairs, so equal elements have identical
representations and hash equal.  All operations return new elements.

Frobenius F^k is F_p-linear, and ``_frob_matrix`` gives its matrix on the
F_p-basis of F_q, of an ``EtaleAlgebra`` or of a ``UnivariateQuotient``: a
matrix power, so p^k is never formed.  On F_q and frac rings F^k scales
every key by p^k, on a uq ring it is one product with that matrix.  Its
inverse divides the keys by p^k, in one pass, and is partial: on a
``FracLaurentRing`` it fails with ``DepthExhausted`` where an exponent
denominator would leave the lattice.  On a ``UnivariateQuotient`` it is
exact: where the division refuses, one F_p-linear solve decides
y^(p^k) = x, so ``NoRoot`` means that no p^k-th root exists.
"""

from __future__ import annotations

import operator
import re
import struct
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from itertools import zip_longest
from math import gcd, log10

from .errors import (
    BudgetExceeded,
    DepthExhausted,
    IntegralityViolation,
    LatticeError,
    MismatchError,
    NoRoot,
    NotAUnit,
    SpecParseError,
)

FieldCoeff = tuple[int, ...]
_KEY = operator.itemgetter(0)


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n >= 1, with multiplicity, ascending."""
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + [n] if n > 1 else out


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _digits(n: int, p: int, e: int) -> tuple[int, ...]:
    """The e base-p digits of n, lowest first (element n of F_q in order)."""
    return tuple(n // p ** i % p for i in range(e))


def _hash_once(self) -> int:
    """``__hash__`` of a frozen dataclass over its compared fields, computed
    on first use and kept on the instance: the generated one rebuilds and
    hashes the field tuple, recursively, on every memo lookup."""
    try:
        return self._hash
    except AttributeError:
        h = hash(tuple(getattr(self, f.name) for f in fields(self) if f.compare))
        object.__setattr__(self, "_hash", h)
        return h


def _power(mul, a, n: int, one):
    """a^n for n >= 0 by square-and-multiply; ``one`` is returned for n = 0
    and never multiplied in otherwise, so n >= 1 takes
    n.bit_length() + popcount(n) - 2 calls of ``mul``."""
    acc = None
    while n:
        if n & 1:
            acc = a if acc is None else mul(acc, a)
        n >>= 1
        if n:
            a = mul(a, a)
    return one if acc is None else acc


# ---------------------------------------------------------------------------
# coefficients: (Z/p^K)[u]/(M~), with F_q at K = 1


class _CoeffRing:
    """(Z/p^K)[u]/(M~): e-tuples of integers mod p^K, reduced by monic M~."""

    def __init__(self, F: FiniteFieldSpec, K: int):
        self.p, self.e, self.modulus = F.p, F.e, F.modulus
        self.pk = F.p ** K

    def zero(self) -> FieldCoeff:
        return (0,) * self.e

    def one(self) -> FieldCoeff:
        return (1,) + (0,) * (self.e - 1)

    def cadd(self, a: FieldCoeff, b: FieldCoeff) -> FieldCoeff:
        if self.e == 1:
            return ((a[0] + b[0]) % self.pk,)
        pk = self.pk
        return tuple([(x + y) % pk for x, y in zip(a, b)])

    def csub(self, a: FieldCoeff, b: FieldCoeff) -> FieldCoeff:
        if self.e == 1:
            return ((a[0] - b[0]) % self.pk,)
        pk = self.pk
        return tuple([(x - y) % pk for x, y in zip(a, b)])

    def cneg(self, a: FieldCoeff) -> FieldCoeff:
        if self.e == 1:
            return (-a[0] % self.pk,)
        pk = self.pk
        return tuple([(-x) % pk for x in a])

    def cscale(self, a: FieldCoeff, s: int) -> FieldCoeff:
        if self.e == 1:
            return (a[0] * s % self.pk,)
        pk = self.pk
        return tuple([(x * s) % pk for x in a])

    def cmul(self, a: FieldCoeff, b: FieldCoeff) -> FieldCoeff:
        pk, e = self.pk, self.e
        if e == 1:
            return ((a[0] * b[0]) % pk,)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % pk
        # reduce by the monic modulus
        for d in range(2 * e - 2, e - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(e):
                    prod[d - e + j] = (prod[d - e + j] - c * self.modulus[j]) % pk
        return tuple(prod[:e])

    def cpow(self, a: FieldCoeff, n: int) -> FieldCoeff:
        if n < 0:
            return self.cpow(self.cinv(a), -n)
        return _power(self.cmul, a, n, self.one())


# ---------------------------------------------------------------------------
# the monomial kernel of every ring kind, on term dicts {key: coefficient}


class _Monomials:
    """The kernel every ring kind shares: a key is the tuple of integer
    numerators of the exponents over ``lattice_b``, one per variable, so
    F_q, the ring in no variables, has the one key ().  A ring kind is this
    monomial ring followed by its reduction ``_reduce``."""

    @property
    def lattice_b(self) -> int:
        return (2 ** self.depth_2) * (self.base.p ** self.depth_p)

    @property
    def monoid_algebra(self) -> bool:
        """Whether A is F_q[M], a monoid algebra with no monomial quotient:
        then W_n(A) lies in W_n(A^perf) = Z_q[M^(1/p^inf)]/p^n."""
        return not self.quotient

    @property
    def zq_coeffs(self) -> ZqCoeffs | None:
        """The ring A' whose lift to K = n is W_n(A), where A is finite
        etale over F_p: F_q itself, F_p[u]/(g) for a reduced F_p[T]/(g);
        None elsewhere."""
        return None

    @property
    def _unit_key(self) -> tuple[int, ...]:
        return (0,) * len(self.variables)

    def _killed(self, key) -> bool:
        """Whether the monomial ideal contains x^key."""
        return any(all(e >= g for e, g in zip(key, gen)) for gen in self.quotient)

    def _reduce(self, C: _CoeffRing, d: dict) -> dict:
        """d without its killed keys and zero coefficients, in d's order."""
        quo = self.quotient
        return {k: c for k, c in d.items()
                if any(c) and not (quo and self._killed(k))}

    def _kmul(self, C: _CoeffRing, a, b) -> dict:
        """One packed product for dense one-variable products over Z/p^K
        (``_kmul_packed``), the loop over pairs of terms otherwise."""
        if len(a) > len(b):
            a, b = b, a
        if (C.e == 1 and len(a) * len(b) >= _PACK_PAIRS
                and len(self.variables) == 1 and not self.quotient):
            out = _kmul_packed(C.pk, a, b)
            if out is not None:
                return out
        out: dict = {}
        get, cmul, cadd = out.get, C.cmul, C.cadd
        plus, quo = operator.add, self.quotient
        for k1, c1 in a:
            for k2, c2 in b:
                k = tuple(map(plus, k1, k2))
                if quo and self._killed(k):
                    continue
                c = cmul(c1, c2)
                cur = get(k)
                out[k] = c if cur is None else cadd(cur, c)
        return _nonzero(out)

    def _kpow(self, C: _CoeffRing, a: dict, n: int) -> dict:
        """a^n for n >= 0: one term scales its key, anything else takes
        square-and-multiply on the ring's product."""
        if len(a) == 1:
            ((key, c),) = a.items()
            return self._reduce(C, {tuple([e * n for e in key]): C.cpow(c, n)})
        acc, kmul = None, self._kmul
        while n:
            if n & 1:
                acc = a if acc is None else kmul(C, acc.items(), a.items())
            n >>= 1
            if n:
                a = kmul(C, a.items(), a.items())
        return {self._unit_key: C.one()} if acc is None else acc


# ---------------------------------------------------------------------------
# finite fields


@dataclass(frozen=True)
class FiniteFieldSpec(_Monomials, _CoeffRing):
    """F_p[u]/(modulus), the coefficient ring at K = 1; modulus is monic of
    degree e, stored low-to-high.  As a ring kind it is the monomial ring in
    no variables over itself: its elements are single terms with key ()."""

    p: int
    e: int
    modulus: tuple[int, ...]
    gen_name: str = "u"

    # class constants, not fields: equality, hash and descriptor ignore them
    variables = quotient = ()
    laurent = False
    depth_p = depth_2 = 0
    __hash__ = _hash_once

    def __post_init__(self):
        object.__setattr__(self, "pk", self.p)

    @property
    def base(self) -> FiniteFieldSpec:
        return self

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def zq_coeffs(self) -> FiniteFieldSpec:
        return self

    def from_int(self, n: int) -> FieldCoeff:
        return (n % self.p,) + (0,) * (self.e - 1)

    def gen(self) -> FieldCoeff:
        if self.e == 1:
            raise SpecParseError("prime field has no generator symbol")
        return (0, 1) + (0,) * (self.e - 2)

    def cinv(self, a: FieldCoeff) -> FieldCoeff:
        if a == self.zero():
            raise NotAUnit("zero is not invertible")
        # a^(q-2); q is desk-sized so this is fine
        return self.cpow(a, self.q - 2)

    def cfrob(self, a: FieldCoeff, k: int) -> FieldCoeff:
        """k-fold Frobenius c -> c^(p^k); every k is defined since Frob^e = id.
        It is F_p-linear, so one product with a memoized matrix."""
        k %= self.e
        if k == 0:
            return a
        p = self.p
        return tuple([sum([m * x for m, x in zip(row, a)]) % p
                      for row in self._frob_rows[k]])

    @cached_property
    def _frob_rows(self) -> tuple:
        """Per k in 0..e-1 the rows of c -> c^(p^k) (``_frob_matrix``)."""
        return tuple(_frob_matrix(self, k) for k in range(self.e))

    def nth_root(self, a: FieldCoeff, n: int) -> FieldCoeff:
        """The smallest b (as a coefficient tuple) with b^n = a, or NoRoot.

        With m = q-1 and d = gcd(n, m), a nonzero a has an n-th root iff
        a^(m/d) = 1.  A d-th root r is taken one prime l | d at a time, each
        by Adleman-Manders-Miller (Tonelli-Shanks for l = 2); then r^x with
        x*n = d mod m is an n-th root, and the n-th roots are its multiples
        by the d-th roots of unity.
        """
        if n <= 0:
            raise SpecParseError("root index must be positive")
        if a == self.zero():
            return a
        m, one = self.q - 1, self.one()
        d = gcd(n, m)
        if self.cpow(a, m // d) != one:
            raise NoRoot(f"no {n}-th root in F_{self.q}")
        # the root AMM picks is again a power of every index still to come
        r = reduce(self._lth_root, _prime_factors(d), a)
        roots = [self.cpow(r, pow(n // d, -1, m // d))]
        zeta = self._unity_root(d)
        for _ in range(d - 1):
            roots.append(self.cmul(roots[-1], zeta))
        return min(roots)

    def _lth_root(self, a: FieldCoeff, ell: int) -> FieldCoeff:
        """An l-th root of an l-th power a, for a prime l = ell dividing q-1."""
        s, t = 0, self.q - 1
        while t % ell == 0:
            s, t = s + 1, t // ell
        z = self._unity_root(ell ** s)  # generates the l-Sylow subgroup
        zi = self.cinv(z)
        x = self.cpow(a, pow(ell, -1, t))
        err = self.cmul(self.cpow(x, ell), self.cinv(a))  # x^l / a, in <z^l>
        zeta = self.cpow(z, ell ** (s - 1))
        k = 0  # log of err to base z, one base-l digit at a time
        for i in range(s):
            h = self.cpow(self.cmul(err, self.cpow(zi, k)), ell ** (s - 1 - i))
            j, w = 0, self.one()
            while w != h:
                j, w = j + 1, self.cmul(w, zeta)
            k += j * ell ** i
        return self.cmul(x, self.cpow(zi, k // ell))

    def _unity_root(self, d: int) -> FieldCoeff:
        """A primitive d-th root of unity, for d dividing q-1."""
        return self.cpow(_multiplicative_generator(self), (self.q - 1) // d)


@lru_cache(maxsize=64)
def _multiplicative_generator(F: FiniteFieldSpec) -> FieldCoeff:
    """A generator of F_q^*, searched for once per field."""
    m, one = F.q - 1, F.one()
    primes = set(_prime_factors(m))
    # any order finds one; from the top, elements of F_p (never generators
    # when e > 1) come last
    for idx in range(m, 0, -1):
        g = _digits(idx, F.p, F.e)
        if all(F.cpow(g, m // ell) != one for ell in primes):
            return g


def _poly_is_irreducible(p: int, coeffs: tuple[int, ...]) -> bool:
    """Ben-Or's test for a monic g over F_p, given low-to-high: g has no
    factor of degree i <= deg g / 2, i.e. gcd(T^(p^i) - T, g) = 1."""
    if len(coeffs) < 2:
        return False
    Fp = FiniteFieldSpec(p, 1, (0, 1))
    g = _poly_elt(Fp, "T", [(c,) for c in coeffs])
    t = variable(UnivariateQuotient(Fp, "T", tuple((c,) for c in coeffs)), "T")
    x = t
    for _ in range((len(coeffs) - 1) // 2):
        x = pow_int(x, p)
        if _fq_gcd(_as_poly(sub(x, t)), g) != one(g.ring):
            return False
    return True


@lru_cache(maxsize=64)
def _default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree e over F_p,
    searched for once per (p, e)."""
    if e == 1:
        return (0, 1)
    for idx in range(p ** e):
        cand = _digits(idx, p, e) + (1,)
        if _poly_is_irreducible(p, cand):
            return cand
    raise SpecParseError(f"no irreducible modulus found for p={p}, e={e}")


def make_field(p: int, e: int, modulus: tuple[int, ...] | None = None,
               gen_name: str = "u") -> FiniteFieldSpec:
    if not _is_prime(p):
        raise SpecParseError(f"p={p} is not prime")
    if e < 1:
        raise SpecParseError("e must be >= 1")
    if p ** e > 1 << 20:
        raise SpecParseError(f"q = p^e = {p ** e} exceeds the 2^20 desk bound")
    if modulus is None:
        modulus = _default_modulus(p, e)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise SpecParseError("modulus must be monic of degree e")
        if e > 1 and not _poly_is_irreducible(p, modulus):
            raise SpecParseError("modulus is reducible")
    return FiniteFieldSpec(p, e, modulus, gen_name)


@dataclass(frozen=True)
class EtaleAlgebra(_CoeffRing):
    """F_p[u]/(g) for a squarefree monic g over F_p of degree e, stored
    low-to-high: the coefficient ring at K = 1 of a reduced F_p[T]/(g), u = T.
    It is a product of fields, not one, so it has no ``cinv`` or roots."""

    p: int
    e: int
    modulus: tuple[int, ...]

    __hash__ = _hash_once

    def __post_init__(self):
        object.__setattr__(self, "pk", self.p)

    def cfrob(self, a: FieldCoeff, k: int) -> FieldCoeff:
        """c -> c^(p^k) for every integer k: Frobenius is an automorphism of
        period lcm(deg g_i), not e (6 for T^5+T^4+1 over F_2, 4620 for some g
        of degree 30), so k is never reduced: a product with F^k's matrix
        (``_frob_matrix``), built for the k asked for and kept per k on the
        instance, None for the identity."""
        try:
            rows = self._frob_memo[k]
        except KeyError:
            rows = _frob_matrix(self, k)
            rows = self._frob_memo[k] = None if rows == _frob_matrix(self, 0) else rows
        if rows is None:
            return a
        p = self.p
        return tuple([sum([m * x for m, x in zip(row, a)]) % p for row in rows])

    @cached_property
    def _frob_memo(self) -> dict:
        return {0: None}


# ---------------------------------------------------------------------------
# ring descriptors


@dataclass(frozen=True)
class FracLaurentRing(_Monomials):
    """F_q[x_1^(1/B), ...] (or Laurent), exponent lattice (1/B)Z, B = 2^a p^m.

    The monomial x_1^(n_1/B) * ... has the key (n_1, ...), integers over
    B = ``lattice_b``; ``quotient`` holds the monomial ideal's generators as
    keys of the same kind.
    """

    base: FiniteFieldSpec
    variables: tuple[str, ...]
    depth_p: int
    depth_2: int
    laurent: bool
    quotient: tuple[tuple[int, ...], ...] = ()

    __hash__ = _hash_once


@dataclass(frozen=True)
class UnivariateQuotient(_Monomials):
    """F_q[T]/(g) with g monic of degree >= 1, stored low-to-high: the
    monomial ring F_q[T], keys (n,), reduced by g."""

    base: FiniteFieldSpec
    var: str
    modulus: tuple[FieldCoeff, ...]

    # class constants, not fields: equality, hash and descriptor ignore them
    quotient = ()
    laurent = monoid_algebra = False
    depth_p = depth_2 = 0
    __hash__ = _hash_once

    @property
    def variables(self) -> tuple[str]:
        return (self.var,)

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    @property
    def zq_coeffs(self) -> EtaleAlgebra | None:
        """Decided on first use, once per ring (``_zq_coeffs``)."""
        return _zq_coeffs(self)

    @cached_property
    def _tail(self) -> list:  # the terms of g below its leading one
        return [(j, c) for j, c in enumerate(self.modulus[:-1]) if any(c)]

    def _kmul(self, C: _CoeffRing, a, b) -> dict:
        """The product mod g of operands in the ring (degrees below deg g),
        accumulated in a list indexed by degree, so no key is hashed."""
        if not (a and b):
            return {}
        b = [(j, y) for (j,), y in b]
        acc = [None] * (2 * self.degree - 1)
        cmul, cadd = C.cmul, C.cadd
        for (i,), x in a:
            for j, y in b:
                t = cmul(x, y)
                cur = acc[i + j]
                acc[i + j] = t if cur is None else cadd(cur, t)
        return self._fold(C, acc)

    def _reduce(self, C: _CoeffRing, d: dict) -> dict:
        """d mod g, for keys of any degree: long division on a list below
        16 deg g, past it (where that costs more, measured at deg g = 2-11)
        each T^n by square-and-multiply, so no list grows with n."""
        top = max(d, default=(0,))[0]
        if top < 16 * self.degree:
            acc = [None] * (top + 1)
            for (i,), c in d.items():
                acc[i] = c
            return self._fold(C, acc)
        t, out = self._reduce(C, {(1,): C.one()}), {}
        mul = lambda a, b: self._kmul(C, a.items(), b.items())
        for (i,), c in d.items():
            tn = _power(mul, t, i, {(0,): C.one()})
            out = _kadd(C, out, [(k, C.cmul(c, v)) for k, v in tn.items()])
        return _nonzero(out)

    def _fold(self, C: _CoeffRing, acc: list) -> dict:
        """The term dict of acc (coefficients by degree, None where there is
        none) mod g, one pass from the top degree down; consumes acc."""
        deg, tail = self.degree, self._tail
        cmul, cneg, csub = C.cmul, C.cneg, C.csub
        for k in range(len(acc) - 1, deg - 1, -1):
            c = acc[k]
            if c is None or not any(c):
                continue
            for j, mj in tail:
                kk = k - deg + j
                t = cmul(c, mj)
                cur = acc[kk]
                acc[kk] = cneg(t) if cur is None else csub(cur, t)
        return {(i,): c for i, c in zip(range(deg), acc) if c is not None and any(c)}


Ring = FiniteFieldSpec | FracLaurentRing | UnivariateQuotient
ZqCoeffs = FiniteFieldSpec | EtaleAlgebra  # coefficient rings of the Z_q route


def ring_char(ring: Ring) -> int:
    return ring.base.p


# ---------------------------------------------------------------------------
# the kernel: term dicts {key: coefficient} over a coefficient ring C


def _nonzero(d: dict) -> dict:
    """d without its zero coefficients, deleted in place, not rebuilt."""
    for k in [k for k, c in d.items() if not any(c)]:
        del d[k]
    return d


def _kadd(C: _CoeffRing, a, b) -> dict:
    """a + b; a may also be a term dict, copied without rehashing its keys."""
    out = dict(a)
    get, cadd = out.get, C.cadd
    for k, c in b:
        cur = get(k)
        if cur is None:
            out[k] = c
        elif any(c := cadd(cur, c)):
            out[k] = c
        else:
            del out[k]
    return out


def _kneg(C: _CoeffRing, a) -> dict:
    out, cneg = {}, C.cneg
    for k, c in a:
        out[k] = cneg(c)
    return out


def _kscale(C: _CoeffRing, a, s: int) -> dict:
    """s * a for an integer s; over F_q, s = 1 reduces Z/p^K digits mod p."""
    out, cscale = {}, C.cscale
    for k, c in a:
        if any(c := cscale(c, s)):
            out[k] = c
    return out


def _kdiv_p(C: _CoeffRing, a, i: int) -> dict:
    """a / p^i; IntegralityViolation unless every coefficient is divisible."""
    pi = C.p ** i
    out = {}
    for k, c in a:
        for x in c:
            if x % pi:
                raise IntegralityViolation(
                    f"lift coefficient {x} not divisible by {pi}")
        out[k] = tuple(x // pi for x in c)
    return out


# packed products: Kronecker substitution (Harvey, J. Symbolic Comput. 44,
# 2009).  Slots of w bytes hold a polynomial with coefficients in
# [0, 2^(8w)) as the integer sum c_i 2^(8wi), so one big-integer product,
# done in C, is the product polynomial wherever no coefficient of that
# overflows its slot.  Slots of 1, 2, 4 or 8 bytes go through ``struct`` in
# one call each way; wider ones take one ``int`` method call per slot.

_PACK_PAIRS = 16  # the fewest pairs of terms a product is packed for
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct codes by slot width


def _slot_width(bound: int) -> int:
    """Bytes per slot for values in [0, bound], with one spare bit, rounded
    up to 1, 2, 4 or 8 where that holds them."""
    w = (bound.bit_length() + 8) // 8
    return 1 << (w - 1).bit_length() if w <= 8 else w


def _pack(slots: list, w: int) -> int:
    """sum slots[i] * 2^(8wi), for slot values in [0, 2^(8w))."""
    code = _SLOT_CODES.get(w)
    raw = (struct.pack(f"<{len(slots)}{code}", *slots) if code
           else b"".join([c.to_bytes(w, "little") for c in slots]))
    return int.from_bytes(raw, "little")


def _unpack(n: int, count: int, w: int) -> list:
    """The count slots of w bytes of n >= 0, lowest first: ``_pack``'s inverse."""
    raw = n.to_bytes(count * w, "little")
    code = _SLOT_CODES.get(w)
    if code:
        return list(struct.unpack(f"<{count}{code}", raw))
    return [int.from_bytes(raw[i:i + w], "little") for i in range(0, len(raw), w)]


def _kmul_packed(pk: int, a, b) -> dict | None:
    """The product of one-variable term dicts over Z/p^K as one packed
    product, or None where the product is not dense.

    Keys are shifted by their minimum and divided by g, the gcd of all
    offsets of both operands.  A product slot sums at most min(len a, len b)
    products of residues below p^K, which bounds the slot width.  A product
    with as many slots as pairs or more goes to the pair loop: x + x^(10^8)
    would pack into a 100 MB integer."""
    ka, kb = [n for (n,), _ in a], [n for (n,), _ in b]
    lo_a, lo_b = min(ka), min(kb)
    g = gcd(*[n - lo_a for n in ka], *[n - lo_b for n in kb])
    span_a, span_b = (max(ka) - lo_a) // g, (max(kb) - lo_b) // g
    if span_a + span_b >= len(ka) * len(kb):
        return None
    w = _slot_width(min(len(ka), len(kb)) * (pk - 1) ** 2)
    prod = 1
    for x, lo, span in ((a, lo_a, span_a), (b, lo_b, span_b)):
        slots = [0] * (span + 1)
        for (n,), (c,) in x:
            slots[(n - lo) // g] = c
        prod *= _pack(slots, w)
    lo = lo_a + lo_b
    return {(lo + g * i,): (c,)
            for i, v in enumerate(_unpack(prod, span_a + span_b + 1, w)) if (c := v % pk)}


# ---------------------------------------------------------------------------
# elements

# exponent keys: tuples of integer numerators over lattice_b, one per
# variable: () for field constants, (n,) for T^n in a UnivariateQuotient.


@dataclass(frozen=True)
class RingElement:
    ring: Ring
    terms: tuple

    def __add__(self, other):
        return add(self, coerce(self.ring, other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, coerce(self.ring, other))

    def __rsub__(self, other):
        return sub(coerce(self.ring, other), self)

    def __mul__(self, other):
        return mul(self, coerce(self.ring, other))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __pow__(self, n):
        if isinstance(n, Fraction):
            return pow_fraction(self, n)
        return pow_int(self, n)

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        return format_element(self)


def _mk(ring: Ring, d: dict) -> RingElement:
    """The canonical element of a term dict without zero coefficients."""
    return RingElement(ring, tuple(sorted(d.items(), key=_KEY, reverse=True)))


def _term(ring: Ring, key, c: FieldCoeff) -> RingElement:
    """c times the monomial key, for a key already in the ring."""
    return RingElement(ring, ((key, c),) if any(c) else ())


def _frac_term(ring: _Monomials, exps, c: FieldCoeff) -> RingElement:
    """c * x^exps for rational exponents: the one way from exponents to a
    key, which the ring then reduces."""
    b = ring.lattice_b
    key = []
    for ex in map(Fraction, exps):
        if b % ex.denominator != 0:
            raise LatticeError(
                f"exponent {ex} outside lattice (denominator must divide {b})")
        if not ring.laurent and ex < 0:
            raise LatticeError(f"negative exponent {ex} in a non-Laurent ring")
        key.append(ex.numerator * (b // ex.denominator))
    return _mk(ring, ring._reduce(ring.base, {tuple(key): c}))


def _uq_elt(ring: UnivariateQuotient, f: RingElement) -> RingElement:
    """The class in F_q[T]/(g) of f in F_q[T]: the one way into a uq ring."""
    return _mk(ring, ring._reduce(ring.base, dict(f.terms)))


def _as_poly(x: RingElement) -> RingElement:
    """The representative of x in F_q[T]/(g) as an element of F_q[T]."""
    return RingElement(_poly_ring(x.ring.base, x.ring.var), x.terms)


def zero(ring: Ring) -> RingElement:
    return RingElement(ring, ())


def one(ring: Ring) -> RingElement:
    return from_coeff(ring, ring.base.one())


def from_coeff(ring: Ring, c: FieldCoeff) -> RingElement:
    return _term(ring, ring._unit_key, c)


def from_int(ring: Ring, n: int) -> RingElement:
    return from_coeff(ring, ring.base.from_int(n))


def coerce(ring: Ring, v) -> RingElement:
    if isinstance(v, RingElement):
        if v.ring != ring:
            raise MismatchError("elements from different rings")
        return v
    if isinstance(v, int):
        return from_int(ring, v)
    return NotImplemented


def variable(ring: Ring, name: str) -> RingElement:
    F = ring.base
    if name in ring.variables:
        return _frac_term(ring, [int(v == name) for v in ring.variables], F.one())
    if name == F.gen_name and F.e > 1:
        return from_coeff(ring, F.gen())
    raise SpecParseError(f"unknown symbol {name!r} in this ring")


def add(x: RingElement, y: RingElement) -> RingElement:
    if x.ring != y.ring:
        raise MismatchError("elements from different rings")
    return _mk(x.ring, _kadd(x.ring.base, x.terms, y.terms))


def neg(x: RingElement) -> RingElement:
    # the keys stay as they are, and so does their order
    return RingElement(x.ring, tuple(_kneg(x.ring.base, x.terms).items()))


def sub(x: RingElement, y: RingElement) -> RingElement:
    return add(x, neg(y))


def mul(x: RingElement, y: RingElement) -> RingElement:
    if x.ring != y.ring:
        raise MismatchError("elements from different rings")
    ring = x.ring
    return _mk(ring, ring._kmul(ring.base, x.terms, y.terms))


def pow_int(x: RingElement, n: int) -> RingElement:
    if n < 0:
        return pow_int(invert(x), -n)
    ring = x.ring
    return _mk(ring, ring._kpow(ring.base, dict(x.terms), n))


def is_monomial(x: RingElement) -> bool:
    return len(x.terms) == 1


def invert(x: RingElement) -> RingElement:
    """Multiplicative inverse where one exists; NotAUnit otherwise."""
    ring = x.ring
    F = ring.base
    if x.is_zero():
        raise NotAUnit("zero is not invertible")
    if isinstance(ring, UnivariateQuotient):
        # extended gcd of the representative with the modulus
        r = _fq_poly_invmod(_as_poly(x), _poly_elt(F, ring.var, ring.modulus))
        if r is None:
            raise NotAUnit("representative shares a factor with the modulus")
        return _uq_elt(ring, r)
    if not is_monomial(x):
        raise NotAUnit("only monomials are invertible here")
    key, c = x.terms[0]
    if not ring.laurent and any(e != 0 for e in key):
        raise NotAUnit("non-constant monomial in a non-Laurent ring")
    return _term(ring, tuple(-n for n in key), F.cinv(c))


def pow_fraction(x: RingElement, r: Fraction) -> RingElement:
    """x^r for rational r; only single-term elements and zero of ff and frac
    rings support a fractional part (0^r = 0 for r > 0)."""
    ring = x.ring
    uq = isinstance(ring, UnivariateQuotient)
    # a negative power of a monomial takes the lattice checks of its exponents
    if r.denominator == 1 and (uq or r >= 0 or not is_monomial(x)):
        return pow_int(x, r.numerator)
    if uq:
        raise LatticeError("fractional powers need an exponent lattice")
    if x.is_zero():
        if r < 0:
            raise NotAUnit("zero is not invertible")
        return x
    if not is_monomial(x):
        raise NoRoot("fractional power of a non-monomial")
    F = ring.base
    key, c = x.terms[0]
    croot = F.nth_root(F.cpow(c, r.numerator), r.denominator)
    return _frac_term(ring, [Fraction(n, ring.lattice_b) * r for n in key], croot)


# ---------------------------------------------------------------------------
# Frobenius


_EXP_DIGITS = 4300  # the longest int that int() and str() convert by default


def frobenius(x: RingElement, k: int) -> RingElement:
    """k-fold Frobenius y -> y^(p^k): on a uq ring k >= 0 is a product with
    F^k's matrix (``_frob_matrix``), elsewhere it scales the keys by p^k; k < 0
    divides them by p^|k| (capped past k = -64 where p^|k| exceeds every
    numerator), and where that fails a frac ring raises DepthExhausted and a
    uq ring decides exactly (``_uq_root``).  A frac k that scales a key past
    _EXP_DIGITS digits is refused (BudgetExceeded) before p^k is formed."""
    ring, F = x.ring, x.ring.base
    p, uq = F.p, isinstance(ring, UnivariateQuotient)
    if uq and k >= 0:
        return _uq_frob(_frob_matrix(ring, k), x)
    if k >= 0:
        top = max([abs(n) for key, _ in x.terms for n in key], default=0)
        if top and log10(top) + k * log10(p) >= _EXP_DIGITS:
            raise BudgetExceeded(
                f"Frobenius power k={k} would scale an exponent numerator past "
                f"{_EXP_DIGITS} digits, the most an exponent prints with")
        q, quo, terms = p ** k if top else 1, ring.quotient, []
        for key, c in x.terms:
            key = tuple([e * q for e in key])
            if not (quo and ring._killed(key)):
                terms.append((key, F.cfrob(c, k)))
        # scaling every key by p^k keeps their order
        return RingElement(ring, tuple(terms))
    m = -k if k > -64 else min(-k, max(  # p^m > every numerator: it divides as p^-k
        [abs(n).bit_length() for ks, _ in x.terms for n in ks], default=0))
    q, terms = p ** m, []
    for key, c in x.terms:
        if any(n % q for n in key):
            # name the exponent where single p-th roots stop: after the s
            # roots that every exponent admits, the first that p^(s+1) misses
            ns, s = [n for ks, _ in x.terms for n in ks], 0
            while all(n % p ** (s + 1) == 0 for n in ns):
                s += 1
            bad = next(n for n in ns if n % p ** (s + 1)) // p ** s
            if uq:
                return _uq_root(x, -k, bad)
            b = ring.lattice_b
            e = Fraction(bad, b * p)
            raise DepthExhausted(
                f"p-th root of exponent {e * p} leaves the lattice "
                f"(denominator {e.denominator} does not divide {b})")
        terms.append((tuple([n // q for n in key]), F.cfrob(c, k)))
    # dividing every key by p^|k| keeps their order
    return RingElement(ring, tuple(terms))


def _uq_root(x: RingElement, k: int, bad: int) -> RingElement:
    """The y with y^(p^k) = x in F_q[T]/(g); NoRoot when there is none.

    ``frobenius`` first divides the exponents of the representative by p^k,
    and comes here where p^k does not divide one; bad is the T-exponent at
    which p-th roots taken one at a time would stop.  On g = T^m that
    refusal is already exact: the p^k-th powers there are the elements
    whose exponents p^k divides.
    Otherwise one F_p-linear solve of F^k y = x decides (iterated p-th
    roots would not: on a non-reduced ring the p-th root found first can fail
    to be a p^(k-1)-th power while another one is); only its check F^k y = x
    rejects an x outside the image.
    """
    ring, F = x.ring, x.ring.base
    if not ring._tail:  # g = T^m
        raise NoRoot("canonical representative is not a p-th power "
                     f"(T-exponent {bad} not divisible by {F.p})")
    y = _uq_frob(_frob_matrix(ring, -k), x)
    if _uq_frob(_frob_matrix(ring, k), y) != x:
        raise NoRoot(f"not a p^{k}-th power, p = {F.p} (decided by an "
                     f"F_{F.p}-linear solve)")
    return y


def _uq_vec(z: RingElement) -> list[int]:
    """The F_p-coordinates of z in F_q[T]/(g): digit a of the coefficient of
    T^i at index i*e + a."""
    e = z.ring.base.e
    out = [0] * (z.ring.degree * e)
    for (i,), c in z.terms:
        out[i * e:(i + 1) * e] = c
    return out


def _uq_frob(rows: tuple, z: RingElement) -> RingElement:
    """The element of z's uq ring whose ``_uq_vec`` is rows times z's."""
    ring, F = z.ring, z.ring.base
    p, e, v = F.p, F.e, _uq_vec(z)
    out = [sum([m * x for m, x in zip(row, v)]) % p for row in rows]
    return _mk(ring, _nonzero({(i,): tuple(out[i * e:(i + 1) * e])
                               for i in range(ring.degree)}))


def _row_reduce(rows: list[list[int]], ncols: int, p: int) -> list[int]:
    """Gauss-Jordan elimination over F_p on the first ncols columns, in
    place; returns the pivot columns, the one of row r at index r."""
    piv_cols = []
    for c in range(ncols):
        r = len(piv_cols)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                m = rows[i][c]
                rows[i] = [(v - m * w) % p for v, w in zip(rows[i], rows[r])]
        piv_cols.append(c)
    return piv_cols


@lru_cache(maxsize=64)
def _frob_matrix(R: FiniteFieldSpec | EtaleAlgebra | UnivariateQuotient,
                 k: int) -> tuple:
    """The rows of F^k on R's F_p-basis: coefficient tuples of F_q or an
    ``EtaleAlgebra``, ``_uq_vec`` on a uq ring.  Column j of F is basis
    vector j to the p, F^k (k > 1) a square-and-multiply matrix power.  For
    k < 0 it solves F^|k| y = x: [F^|k| | I] row-reduced once gives y's
    coordinate at each pivot column, 0 elsewhere: F^k where F is bijective,
    else a candidate, which the caller checks."""
    uq = isinstance(R, UnivariateQuotient)
    F = R.base if uq else R
    p, dim = F.p, R.degree * F.e if uq else F.e
    if k < 0:
        aug = [list(r + u) for r, u in zip(_frob_matrix(R, -k), _frob_matrix(R, 0))]
        out = [(0,) * dim] * dim
        for r, c in enumerate(_row_reduce(aug, dim, p)):
            out[c] = tuple(aug[r][dim:])
        return tuple(out)
    if k > 1:
        def mul(a, b):
            cols = list(zip(*b))
            return tuple([tuple([sum([x * y for x, y in zip(row, col)]) % p
                                 for col in cols]) for row in a])
        return _power(mul, _frob_matrix(R, 1), k, None)
    if k == 0:
        return tuple([tuple([int(i == j) for j in range(dim)]) for i in range(dim)])
    unit = _frob_matrix(F, 0)  # the basis of F_q, or of R itself
    cols = ([_uq_vec(pow_int(_term(R, (i,), u), p)) for i in range(R.degree) for u in unit]
            if uq else [R.cpow(u, p) for u in unit])
    return tuple(zip(*cols))


# ---------------------------------------------------------------------------
# polynomial helpers over F_q: elements of F_q[T] = _poly_ring(F, var)


def _fq_divmod(a: RingElement, b: RingElement) -> tuple[RingElement, RingElement]:
    """(q, r) with a = q*b + r and deg r < deg b, by long division."""
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring, F = b.ring, b.ring.base
    ((db,), lead), *tail = b.terms
    inv_lead = F.cinv(lead)
    r = {k: c for (k,), c in a.terms}
    q = {}
    for k in range(max(r, default=-1), db - 1, -1):
        c = r.pop(k, None)
        if c is None or not any(c):
            continue
        c = q[(k - db,)] = F.cmul(c, inv_lead)
        for (j,), bj in tail:
            r[k - db + j] = F.csub(r.get(k - db + j, F.zero()), F.cmul(c, bj))
    return _mk(ring, q), _mk(ring, {(k,): c for k, c in r.items() if any(c)})


def _fq_monic(a: RingElement) -> RingElement:
    if a.is_zero():
        return a
    F = a.ring.base
    return mul(a, from_coeff(a.ring, F.cinv(a.terms[0][1])))


def _fq_gcd(a: RingElement, b: RingElement) -> RingElement:
    """The monic gcd (zero for a = b = 0)."""
    while not b.is_zero():
        a, b = b, _fq_divmod(a, b)[1]
    return _fq_monic(a)


def _dense(f: RingElement) -> list[FieldCoeff]:
    """The coefficients of f in F_q[T], low to high, up to its degree."""
    out = [f.ring.base.zero()] * (f.terms[0][0][0] + 1 if f.terms else 0)
    for (k,), c in f.terms:
        out[k] = c
    return out


def _fq_deriv(a: RingElement) -> RingElement:
    F = a.ring.base
    return _mk(a.ring, _nonzero({(k - 1,): F.cscale(c, k) for (k,), c in a.terms if k}))


def _fq_poly_invmod(a: RingElement, m: RingElement) -> RingElement | None:
    """Inverse of a modulo m via extended Euclid, or None."""
    r0, r1 = m, a
    s0, s1 = zero(a.ring), one(a.ring)
    while not r1.is_zero():
        q, r = _fq_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, sub(s0, mul(q, s1))
    if r0.terms[0][0] != (0,):
        return None
    return mul(s0, invert(r0))  # r0 = a*s0 mod m is a nonzero constant


def fq_multiplicity_layers(g: RingElement) -> list[tuple[int, RingElement]]:
    """[(k, A_k)] with g = prod A_k^k in F_q[T], A_k squarefree and pairwise
    coprime; every A_k is monic and not constant.  k ascends.

    Yun's squarefree factorization in characteristic p: the gcd loop on
    g / gcd(g, g') peels off the A_k with p not dividing k, and what is left
    of gcd(g, g') is a p-th power, whose p-th root is factored the same way
    with every multiplicity scaled by p.
    """
    g, unit, scale, layers = _fq_monic(g), one(g.ring), 1, []
    while g != unit:
        c = _fq_gcd(g, _fq_deriv(g))
        w, k = _fq_divmod(g, c)[0], scale
        while w != unit:
            y = _fq_gcd(w, c)
            a = _fq_divmod(w, y)[0]
            if a != unit:
                layers.append((k, a))
            w, c, k = y, _fq_divmod(c, y)[0], k + scale
        g, scale = frobenius(c, -1), scale * g.ring.base.p
    return sorted(layers, key=_KEY)


# ---------------------------------------------------------------------------
# reducedness certificate (squarefree layers, nilpotent witness on failure)


@dataclass(frozen=True)
class ReducednessReport:
    reduced: bool
    witness: RingElement | None
    nilpotency: int | None


def is_reduced_univariate(ring: UnivariateQuotient) -> ReducednessReport:
    """Decide whether F_q[T]/(g) is reduced; if not, exhibit a nilpotent.

    With g = prod A_k^k the ring is reduced exactly when every k is 1.  The
    witness is the class of the radical prod A_k, and rad^m = 0 mod g
    exactly when m >= every k, so its nilpotency is the largest k.
    """
    layers = fq_multiplicity_layers(_poly_elt(ring.base, ring.var, ring.modulus))
    top = layers[-1][0]
    if top == 1:
        return ReducednessReport(True, None, None)
    return ReducednessReport(False, _uq_elt(ring, reduce(mul, (a for _, a in layers))), top)


@lru_cache(maxsize=64)
def _zq_coeffs(ring: UnivariateQuotient) -> EtaleAlgebra | None:
    """F_p[u]/(g) for a reduced ring F_p[T]/(g), u = T; None for base e > 1
    or g not squarefree.  Such a ring is finite etale over F_p, so its Witt
    ring is the etale lift Z_p[u]/(g~), for any monic integer lift g~ of g
    (Serre, Local Fields, II.5), and W_n of it is (Z/p^n)[u]/(g~)."""
    F = ring.base
    if F.e > 1 or not is_reduced_univariate(ring).reduced:
        return None
    return EtaleAlgebra(F.p, ring.degree, tuple([c for (c,) in ring.modulus]))


# ---------------------------------------------------------------------------
# monomial intersection certificates (desk colon-ideal checks)


@dataclass(frozen=True)
class IntersectionWitness:
    status: str  # "member" | "refuted" | "not_applicable"
    element: RingElement | None
    note: str


def _support(x: RingElement) -> set[int]:
    vs: set[int] = set()
    for key, _ in x.terms:
        for i, e in enumerate(key):
            if e != 0:
                vs.add(i)
    return vs


def intersection_witness(f: RingElement, g: RingElement, a: RingElement,
                         b: RingElement, m: int, n: int) -> IntersectionWitness:
    """Certify a*g^n = b*f^m and produce h with h*f^m = a, h*g^n = b.

    Only handles the monomial regular-sequence shape: f and g monomials on
    disjoint variable sets in a polynomial (non-Laurent, quotient-free)
    FracLaurentRing.  Everything else is reported not_applicable.
    """
    ring = f.ring
    if not isinstance(ring, FracLaurentRing) or ring.laurent or ring.quotient:
        return IntersectionWitness("not_applicable", None,
                                  "needs a quotient-free polynomial ring")
    if any(x.ring != ring for x in (g, a, b)):
        raise MismatchError("all inputs must share one ring")
    if not (is_monomial(f) and is_monomial(g)):
        return IntersectionWitness("not_applicable", None, "f and g must be monomials")
    sf, sg = _support(f), _support(g)
    if not sf or not sg or sf & sg:
        return IntersectionWitness(
            "not_applicable", None,
            "monomial criterion needs disjoint nonempty supports")
    if m < 1 or n < 1:
        return IntersectionWitness("not_applicable", None, "exponents must be >= 1")
    fm = pow_int(f, m)
    gn = pow_int(g, n)
    if mul(a, gn) != mul(b, fm):
        return IntersectionWitness("refuted", None, "a*g^n != b*f^m")
    # divide a by f^m termwise
    F = ring.base
    fkey, fc = fm.terms[0]
    fcinv = F.cinv(fc)
    d: dict = {}
    for key, c in a.terms:
        new_key = tuple(e - fe for e, fe in zip(key, fkey))
        if any(e < 0 for e in new_key):
            return IntersectionWitness("refuted", None,
                                      "termwise division by f^m leaves the ring")
        d[new_key] = F.cmul(c, fcinv)
    h = _mk(ring, d)
    if mul(h, fm) != a or mul(h, gn) != b:
        return IntersectionWitness("refuted", None, "candidate failed re-verification")
    return IntersectionWitness("member", h, "h*f^m = a and h*g^n = b hold exactly")


# ---------------------------------------------------------------------------
# descriptor and expression grammar

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                       r"|(?P<sym>[()=+\-*^,/]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    pos = 0
    out = []
    while pos < len(text):
        mt = _TOKEN_RE.match(text, pos)
        if not mt or mt.end() == pos:
            if text[pos:].strip():
                raise SpecParseError(f"bad character at {text[pos:pos + 10]!r}")
            break
        pos = mt.end()
        if mt.group("int") is not None:
            out.append(("int", mt.group("int")))
        elif mt.group("ident") is not None:
            out.append(("ident", mt.group("ident")))
        else:
            out.append(("sym", mt.group("sym")))
    return out


def read_int(digits: str) -> int:
    """A decimal integer token; SpecParseError past the digits int() reads
    (4300 by default, ``sys.set_int_max_str_digits``)."""
    try:
        return int(digits)
    except ValueError:
        raise SpecParseError(f"integer literal of {len(digits)} digits is too long") from None


def _shown(v: str | None) -> str:
    """A token value as a parse error quotes it; None is the end of input."""
    return "end of input" if v is None else repr(v)


class _Tokens:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else (None, None)

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, kind, val=None):
        k, v = self.next()
        if k != kind or (val is not None and v != val):
            raise SpecParseError(f"expected {val or kind}, got {_shown(v)}")
        return v

    def at_end(self):
        return self.i >= len(self.toks)


def _expect_key(ts: _Tokens, key: str, need: str | None = None) -> None:
    """Consume ``key =``; a missing key raises need (or a generic message)."""
    k, v = ts.next()
    if (k, v) != ("ident", key):
        raise SpecParseError(need or f"expected {key}=..., got {_shown(v)}")
    ts.expect("sym", "=")


def _expect_kv_int(ts: _Tokens, key: str) -> int:
    _expect_key(ts, key)
    sign = 1
    if ts.peek() == ("sym", "-"):
        ts.next()
        sign = -1
    return sign * read_int(ts.expect("int"))


def make_ring(text: str) -> Ring:
    """Parse a ring descriptor: ``ff ...``, ``frac ...`` or ``uq ...``."""
    ts = _Tokens(_tokenize(text))
    ring = _parse_ring(ts)
    if not ts.at_end():
        raise SpecParseError(f"trailing junk after descriptor: {ts.peek()[1]!r}")
    return ring


def _parse_ring(ts: _Tokens) -> Ring:
    kind = ts.expect("ident")
    if kind == "ff":
        p = _expect_kv_int(ts, "p")
        e = _expect_kv_int(ts, "e")
        modulus = None
        gen_name = "u"
        if ts.peek() == ("ident", "modulus"):
            _expect_key(ts, "modulus")
            alg = PolyAlgebra(INTEGERS, what="modulus")
            modulus = tuple(parse_expression(ts, alg))
            gen_name = alg.var or gen_name
        return make_field(p, e, modulus, gen_name)
    if kind == "frac":
        base = _parse_base_field(ts, "frac")
        _expect_key(ts, "vars", "frac needs vars=...")
        names = [ts.expect("ident")]
        while ts.peek() == ("sym", ","):
            ts.next()
            names.append(ts.expect("ident"))
        depth_p = _expect_kv_int(ts, "depth_p")
        depth_2 = _expect_kv_int(ts, "depth_2")
        _expect_key(ts, "laurent", "frac needs laurent=true|false")
        flag = ts.expect("ident")
        if flag not in ("true", "false"):
            raise SpecParseError("laurent must be true or false")
        laurent = flag == "true"
        if depth_p < 0 or depth_2 < 0:
            raise SpecParseError("depths must be >= 0")
        quotient: list[tuple[int, ...]] = []
        if ts.peek() == ("ident", "mod"):
            _expect_key(ts, "mod")
            ring0 = FracLaurentRing(base, tuple(names), depth_p, depth_2, laurent, ())
            quotient.append(_parse_monomial_exps(ts, ring0))
            while ts.peek() == ("sym", ","):
                ts.next()
                quotient.append(_parse_monomial_exps(ts, ring0))
        ring = FracLaurentRing(base, tuple(names), depth_p, depth_2, laurent,
                               tuple(quotient))
        if quotient and laurent:
            raise SpecParseError("a monomial quotient needs laurent=false "
                                 "(monomials are units in a Laurent ring)")
        if any(not any(gen) for gen in quotient):
            raise SpecParseError("quotient generator must be non-constant")
        if len(set(names)) != len(names):
            raise SpecParseError("duplicate variable names")
        return ring
    if kind == "uq":
        base = _parse_base_field(ts, "uq")
        _expect_key(ts, "var", "uq needs var=...")
        var = ts.expect("ident")
        if var == base.gen_name and base.e > 1:
            raise SpecParseError("quotient variable collides with the field generator")
        _expect_key(ts, "modulus", "uq needs modulus=...")
        coeffs = _parse_uq_modulus(ts, base, var)
        if len(coeffs) < 2:
            raise SpecParseError("uq modulus must have degree >= 1")
        if coeffs[-1] != base.one():
            raise SpecParseError("uq modulus must be monic")
        return UnivariateQuotient(base, var, tuple(coeffs))
    raise SpecParseError(f"unknown ring kind {kind!r}")


def _parse_base_field(ts: _Tokens, kind: str) -> FiniteFieldSpec:
    _expect_key(ts, "base", f"{kind} needs base=(...)")
    ts.expect("sym", "(")
    base = _parse_ring(ts)
    if not isinstance(base, FiniteFieldSpec):
        raise SpecParseError(f"{kind} base must be a finite field")
    ts.expect("sym", ")")
    return base


def _poly_ring(F: FiniteFieldSpec, var: str) -> FracLaurentRing:
    """F[var], the kernel's one-variable polynomial ring: ff and uq moduli
    are read and printed here, and the F_q[T] helpers work on its elements."""
    return FracLaurentRing(F, (var,), 0, 0, False)


def _poly_elt(F: FiniteFieldSpec, var: str, coeffs) -> RingElement:
    """The element of F[var] with the given coefficients, low-to-high."""
    d = {(k,): c for k, c in enumerate(coeffs) if any(c)}
    return _mk(_poly_ring(F, var), d)


def _parse_uq_modulus(ts: _Tokens, base: FiniteFieldSpec, var: str) -> list[FieldCoeff]:
    """Parse g(T) with coefficients in the base field, low-to-high."""
    return _dense(parse_expression(ts, RingAlgebra(_poly_ring(base, var))))


def _parse_monomial_exps(ts: _Tokens, ring: FracLaurentRing) -> tuple[int, ...]:
    elt = parse_expression(ts, RingAlgebra(ring))
    if not is_monomial(elt) or elt.terms[0][1] != ring.base.one():
        raise SpecParseError("quotient generators must be coefficient-1 monomials")
    return elt.terms[0][0]


# the expression grammar ----------------------------------------------------
#
#   expr  := term (('+'|'-') term)*
#   term  := unary (['*'] unary)*       juxtaposition multiplies: 2x, X(X+1)
#   unary := '-' unary | atom ['^' exp]
#   exp   := '-' exp | '(' exp ')' | int ['/' int]
#   atom  := int | ident | '(' expr ')'
#
# The grammar only shapes the input.  An algebra object gives each node its
# meaning through int(n), name(s), add, sub, neg, mul and pow(a, Fraction):
# ring elements, ramified embeddings, and one PolyAlgebra in a named variable
# over the integers (ff moduli, eis=) or the ramified embeddings (--poly).


def parse_expression(ts: _Tokens, alg):
    """Parse the longest expression at the front of ts, valued in alg."""
    v = _parse_term(ts, alg)
    while True:
        tok = ts.peek()
        if tok == ("sym", "+"):
            ts.next()
            v = alg.add(v, _parse_term(ts, alg))
        elif tok == ("sym", "-"):
            ts.next()
            v = alg.sub(v, _parse_term(ts, alg))
        else:
            return v


def parse_all(text: str, alg, what: str = "expression"):
    """Parse all of text as one expression valued in alg."""
    ts = _Tokens(_tokenize(text))
    v = parse_expression(ts, alg)
    if not ts.at_end():
        raise SpecParseError(f"trailing junk in {what}: {ts.peek()[1]!r}")
    return v


def _parse_term(ts: _Tokens, alg):
    v = _parse_unary(ts, alg)
    while True:
        k, s = ts.peek()
        if (k, s) == ("sym", "*"):
            ts.next()
        elif k not in ("int", "ident") and (k, s) != ("sym", "("):
            return v
        v = alg.mul(v, _parse_unary(ts, alg))


def _parse_unary(ts: _Tokens, alg):
    if ts.peek() == ("sym", "-"):
        ts.next()
        return alg.neg(_parse_unary(ts, alg))
    v = _parse_atom(ts, alg)
    if ts.peek() == ("sym", "^"):
        ts.next()
        v = alg.pow(v, _parse_exponent(ts))
    return v


def _parse_exponent(ts: _Tokens) -> Fraction:
    k, v = ts.next()
    if (k, v) == ("sym", "-"):
        return -_parse_exponent(ts)
    if (k, v) == ("sym", "("):
        r = _parse_exponent(ts)
        ts.expect("sym", ")")
        return r
    if k != "int":
        raise SpecParseError("exponent must be an integer or (rational)")
    if ts.peek() != ("sym", "/"):
        return Fraction(read_int(v))
    ts.next()
    den = read_int(ts.expect("int"))
    if den == 0:
        raise SpecParseError("zero denominator in exponent")
    return Fraction(read_int(v), den)


def _parse_atom(ts: _Tokens, alg):
    k, v = ts.next()
    if k == "int":
        return alg.int(read_int(v))
    if k == "ident":
        return alg.name(v)
    if (k, v) == ("sym", "("):
        inner = parse_expression(ts, alg)
        ts.expect("sym", ")")
        return inner
    if v is None:
        raise SpecParseError("unexpected end of input in expression")
    raise SpecParseError(f"unexpected token {v!r} in expression")


class RingAlgebra:
    """Elements of one ring, with rational powers of monomials."""

    def __init__(self, ring: Ring):
        self.ring = ring
        # looked up per instance, so wrappers put on the module functions
        # (by a tracer, say) see every call
        self.add, self.sub, self.neg, self.mul = add, sub, neg, mul
        self.pow = pow_fraction

    def int(self, n: int) -> RingElement:
        return from_int(self.ring, n)

    def name(self, s: str) -> RingElement:
        return variable(self.ring, s)


class _Integers:
    """Z as a coefficient algebra: no names, non-negative integer powers."""

    int = staticmethod(int)
    add, neg, mul = map(staticmethod, (operator.add, operator.neg, operator.mul))

    @staticmethod
    def pow(a: int, r: Fraction) -> int:
        if r.denominator != 1 or r < 0:
            raise SpecParseError("integer exponents must be non-negative integers")
        return a ** r.numerator


INTEGERS = _Integers()


class PolyAlgebra:
    """Polynomials in one named variable over a coefficient algebra.

    Values are coefficient lists, low degree first.  A constant takes the
    powers its coefficient algebra allows, any other polynomial non-negative
    integer powers.  With var=None the first name becomes the variable;
    other names are the coefficient algebra's.  Written degrees stay when
    their coefficients cancel, so "X^2-X^2+3" has degree 2.
    """

    def __init__(self, coeffs, var: str | None = None, what: str = "polynomial"):
        self.coeffs, self.var, self.what = coeffs, var, what
        # one zero object, so that mul can skip the rows that hold it
        self.zero, self.one = coeffs.int(0), coeffs.int(1)

    def int(self, n: int) -> list:
        return [self.coeffs.int(n)]

    def name(self, s: str) -> list:
        if self.var is None:
            self.var = s
        if s == self.var:
            return [self.zero, self.one]
        if self.coeffs is INTEGERS:
            raise SpecParseError(f"{self.what} variable must be {self.var}")
        return [self.coeffs.name(s)]

    def add(self, a: list, b: list) -> list:
        return [self.coeffs.add(u, v)
                for u, v in zip_longest(a, b, fillvalue=self.zero)]

    def neg(self, a: list) -> list:
        return [self.coeffs.neg(u) for u in a]

    def sub(self, a: list, b: list) -> list:
        return self.add(a, self.neg(b))

    def mul(self, a: list, b: list) -> list:
        cadd, cmul = self.coeffs.add, self.coeffs.mul
        out = [self.zero] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            if u is self.zero:
                continue
            for j, v in enumerate(b):
                out[i + j] = cadd(out[i + j], cmul(u, v))
        return out

    def pow(self, a: list, r: Fraction) -> list:
        if len(a) == 1:
            return [self.coeffs.pow(a[0], r)]
        if r.denominator != 1 or r < 0:
            raise SpecParseError(
                f"{self.what} exponents must be non-negative integers")
        return _power(self.mul, a, r.numerator, [self.one])


def evaluate(ring: Ring, text: str) -> RingElement:
    """Evaluate an element expression (ints, symbols, + - *, ^int, ^(rational))."""
    return parse_all(text, RingAlgebra(ring))


# canonical printing ---------------------------------------------------------


def format_coeff(F: FiniteFieldSpec, c: FieldCoeff) -> str:
    if F.e == 1:
        return str(c[0])
    parts = []
    for d in range(F.e - 1, -1, -1):
        v = c[d]
        if v == 0:
            continue
        if d == 0:
            parts.append(str(v))
        else:
            head = "" if v == 1 else f"{v}*"
            tail = F.gen_name if d == 1 else f"{F.gen_name}^{d}"
            parts.append(head + tail)
    return "+".join(parts) if parts else "0"


def _format_exp(name: str, e) -> str:
    if isinstance(e, Fraction) and e.denominator == 1:
        e = e.numerator
    if e == 1:
        return name
    if isinstance(e, int):
        if e < 0:
            return f"{name}^({e})"
        return f"{name}^{e}"
    if e.numerator < 0:
        return f"{name}^(-{-e.numerator}/{e.denominator})"
    return f"{name}^({e.numerator}/{e.denominator})"


def format_element(x: RingElement) -> str:
    ring = x.ring
    F = ring.base
    if not x.terms:
        return "0"
    parts, b = [], ring.lattice_b
    for key, c in x.terms:
        mono = "*".join([_format_exp(v, Fraction(n, b))
                         for v, n in zip(ring.variables, key) if n])
        cs = format_coeff(F, c)
        if not mono:
            parts.append(cs)
        elif c == F.one():
            parts.append(mono)
        else:
            if "+" in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{mono}")
    return "+".join(parts)


def canonical_descriptor(ring: Ring) -> str:
    if isinstance(ring, FiniteFieldSpec):
        if ring.e == 1:
            return f"ff p={ring.p} e=1"
        mod = format_element(_poly_elt(FiniteFieldSpec(ring.p, 1, (0, 1)),
                                       ring.gen_name, [(c,) for c in ring.modulus]))
        return f"ff p={ring.p} e={ring.e} modulus={mod}"
    if isinstance(ring, FracLaurentRing):
        s = (f"frac base=({canonical_descriptor(ring.base)}) "
             f"vars={','.join(ring.variables)} depth_p={ring.depth_p} "
             f"depth_2={ring.depth_2} laurent={'true' if ring.laurent else 'false'}")
        if ring.quotient:
            one = ring.base.one()
            s += " mod=" + ",".join(format_element(RingElement(ring, ((gen, one),)))
                                    for gen in ring.quotient)
        return s
    return (f"uq base=({canonical_descriptor(ring.base)}) var={ring.var} "
            f"modulus={format_element(_poly_elt(ring.base, ring.var, ring.modulus))}")


# random elements for property tests ----------------------------------------


def random_coeff(F: FiniteFieldSpec, rng) -> FieldCoeff:
    return tuple(rng.randrange(F.p) for _ in range(F.e))


def random_element(ring: Ring, rng, max_terms: int = 3, exp_bound: int = 3,
                   denom_depth: int = 0, allow_zero: bool = True) -> RingElement:
    """Random canonical element; denom_depth controls p-power denominators."""
    F = ring.base
    d: dict = {}
    nterms = rng.randint(0 if allow_zero else 1, max_terms)
    for _ in range(nterms):
        if isinstance(ring, UnivariateQuotient):
            k = rng.randrange(ring.degree)
            t = _term(ring, (k,), random_coeff(F, rng))
        else:
            exps = []
            for _ in ring.variables:
                num = rng.randint(0 if not ring.laurent else -exp_bound, exp_bound)
                den = F.p ** rng.randint(0, min(denom_depth, ring.depth_p))
                exps.append(Fraction(num, den))
            try:
                t = _frac_term(ring, exps, random_coeff(F, rng))
            except LatticeError:
                continue
        d = _kadd(F, d, t.terms)
    out = _mk(ring, d)
    if not allow_zero and out.is_zero():
        return one(ring)
    return out
