"""Independent reference computations for checking wittforge outputs.

Nothing here imports wittforge.  Outputs are read from their canonical text
(the byte-stable stdout format), never from the program's internal
representation, so the checks keep working when that representation changes.

* Text readers for elements, ``W{..}``, ``RW[..]{..}`` and ``DIGITS[..]{..}``.
* Own finite fields F_q and the unramified rings Z_q / p^n.
* Own ghost map and its inversion over Z.
* The ring isomorphism W_n(F_q) -> Z_q / p^n, x -> sum_i p^i [x_i^(p^-i)],
  used to check Witt arithmetic over F_q, and through evaluation maps over
  the fraction-power and quotient rings.
"""

from __future__ import annotations

import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# finite fields: elements are tuples of e ints in [0, p), low degree first


class GF:
    def __init__(self, p: int, modulus: tuple[int, ...]):
        self.p = p
        self.mod = tuple(c % p for c in modulus)  # monic, low-to-high
        self.e = len(self.mod) - 1
        self.q = p ** self.e

    def zero(self):
        return (0,) * self.e

    def one(self):
        return (1,) + (0,) * (self.e - 1)

    def const(self, n: int):
        return (n % self.p,) + (0,) * (self.e - 1)

    def gen(self):
        return (0, 1) + (0,) * (self.e - 2)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(self, a, b):
        return tuple(poly_mulmod(a, b, self.mod, self.p))

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.pow(a, self.q - 2), -n
        r, b = self.one(), a
        while n:
            if n & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            n >>= 1
        return r

    def frob(self, a, k: int):
        """a^(p^k) for any integer k (Frobenius has order e)."""
        return self.pow(a, self.p ** (k % self.e))


def poly_mulmod(a, b, mod, m: int) -> list[int]:
    """(a * b) mod (monic mod, m) for coefficient lists, low-to-high."""
    e = len(mod) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    for d in range(len(prod) - 1, e - 1, -1):
        c = prod[d] % m
        if c:
            for j in range(e + 1):
                prod[d - e + j] -= c * mod[j]
    out = [c % m for c in prod[:e]]
    return out + [0] * (e - len(out))


def _fp_divides(p: int, div, num) -> bool:
    num = list(num)
    dd = len(div) - 1
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k] % p
        if c:
            for j in range(dd + 1):
                num[k - dd + j] = (num[k - dd + j] - c * div[j]) % p
    return all(c % p == 0 for c in num)


def irreducible_modulus(p: int, e: int) -> tuple[int, ...]:
    """Some monic irreducible of degree e over F_p, by trial division."""
    def monic(deg, idx):
        low = []
        for _ in range(deg):
            low.append(idx % p)
            idx //= p
        return tuple(low) + (1,)

    for idx in range(p ** e):
        cand = monic(e, idx)
        if cand[0] == 0:
            continue
        if not any(_fp_divides(p, monic(d, j), cand)
                   for d in range(1, e // 2 + 1) for j in range(p ** d)):
            return cand
    raise ValueError(f"no irreducible of degree {e} over F_{p}")


# ---------------------------------------------------------------------------
# Z_q / p^n = (Z/p^n)[u]/(M~) and the Teichmueller map


def teichmuller(F: GF, a, n: int) -> tuple[int, ...]:
    """[a] in Z_q/p^n: any lift raised to q^(n-1) (converges p-adically)."""
    m = F.p ** n
    r, b, k = [1] + [0] * (F.e - 1), list(a), F.q ** (n - 1)
    while k:
        if k & 1:
            r = poly_mulmod(r, b, F.mod, m)
        b = poly_mulmod(b, b, F.mod, m)
        k >>= 1
    return tuple(r)


def witt_to_zq(F: GF, coords) -> tuple[int, ...]:
    """The ring isomorphism W_n(F_q) -> Z_q/p^n on coordinates in F_q."""
    n = len(coords)
    m = F.p ** n
    acc = [0] * F.e
    for i, a in enumerate(coords):
        t = teichmuller(F, F.frob(a, -i), n)
        acc = [(x + F.p ** i * y) % m for x, y in zip(acc, t)]
    return tuple(acc)


def zq_op(F: GF, op: str, x, y, n: int) -> tuple[int, ...]:
    m = F.p ** n
    if op == "add":
        return tuple((a + b) % m for a, b in zip(x, y))
    if op == "sub":
        return tuple((a - b) % m for a, b in zip(x, y))
    if op == "neg":
        return tuple((-a) % m for a in x)
    return tuple(poly_mulmod(x, y, F.mod, m))


# ---------------------------------------------------------------------------
# ghost map over Z


def ghost(coords, p: int) -> list[int]:
    out = []
    for i in range(len(coords)):
        out.append(sum(p ** j * coords[j] ** (p ** (i - j)) for j in range(i + 1)))
    return out


def from_ghost(comps, p: int, modulus: int | None = None) -> list[int]:
    """Witt coordinates over Z with the given ghost components.

    With ``modulus`` = p^K the walk runs mod p^K and coordinate i is exact
    mod p^(K-i), which is all a caller reducing mod p needs.
    """
    coords: list[int] = []
    for i, w in enumerate(comps):
        num = w - sum(p ** j * coords[j] ** (p ** (i - j)) for j in range(i))
        if modulus is not None:
            num %= modulus
        if num % p ** i:
            raise ArithmeticError(f"ghost component {i} is not in the image")
        c = num // p ** i
        coords.append(c % modulus if modulus is not None else c)
    return coords


def int_to_witt_fp(m: int, p: int, n: int) -> list[int]:
    """Coordinates in F_p of the image of the integer m in W_n(F_p)."""
    return [c % p for c in from_ghost([m] * n, p, p ** (2 * n))]


# ---------------------------------------------------------------------------
# reading canonical text

_TOK = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(\S))")


def _tokens(text: str):
    out = []
    for m in _TOK.finditer(text):
        if m.group(1) is not None:
            out.append(("int", int(m.group(1))))
        elif m.group(2) is not None:
            out.append(("id", m.group(2)))
        elif m.group(3) is not None:
            out.append(("sym", m.group(3)))
    return out


class Element:
    """An element read from text: {exponent: F_q coefficient}.

    ``var`` is the ring variable (x or T) or None for a field; exponents are
    Fractions (0 for constants).  ``gen`` is the field generator's name.
    """

    def __init__(self, F: GF, var: str | None, terms: dict):
        self.F, self.var = F, var
        self.terms = {k: c for k, c in terms.items() if any(c)}

    def __eq__(self, other):
        return self.terms == other.terms


def read_element(F: GF, var: str | None, text: str, gen: str = "u") -> Element:
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else (None, None)

    def take():
        nonlocal pos
        pos += 1
        return toks[pos - 1]

    def exponent():
        if peek() != ("sym", "^"):
            return Fraction(1)
        take()
        if peek()[0] == "int":
            return Fraction(take()[1])
        take()  # (
        sign = 1
        if peek() == ("sym", "-"):
            take()
            sign = -1
        num, den = take()[1], 1
        if peek() == ("sym", "/"):
            take()
            den = take()[1]
        take()  # )
        return Fraction(sign * num, den)

    def field_sum():
        acc = F.zero()
        while True:
            acc = F.add(acc, field_product())
            if peek() != ("sym", "+"):
                return acc
            take()

    def field_product():
        acc = F.one()
        while True:
            acc = F.mul(acc, field_factor(take()))
            if peek() != ("sym", "*"):
                return acc
            take()

    def field_factor(tok):
        if tok[0] == "int":
            return F.const(tok[1])
        if tok == ("id", gen):
            return F.pow(F.gen(), int(exponent()))
        raise ValueError(f"bad field factor {tok!r} in {text!r}")

    terms: dict = {}
    if text.strip() == "0":
        return Element(F, var, terms)
    while True:
        coeff, exp = F.one(), Fraction(0)
        while True:
            tok = take()
            if tok == ("sym", "("):
                coeff = F.mul(coeff, field_sum())
                take()  # )
            elif var is not None and tok == ("id", var):
                exp += exponent()
            else:
                coeff = F.mul(coeff, field_factor(tok))
            if peek() != ("sym", "*"):
                break
            take()
        terms[exp] = F.add(terms.get(exp, F.zero()), coeff)
        if peek() != ("sym", "+"):
            break
        take()
    if pos != len(toks):
        raise ValueError(f"trailing text in {text!r}")
    return Element(F, var, terms)


def read_witt(F: GF, var, text: str, gen: str = "u") -> list[Element]:
    m = re.fullmatch(r"\s*W\{(.*)\}\s*", text, re.S)
    if not m:
        raise ValueError(f"not a Witt literal: {text!r}")
    return [read_element(F, var, part, gen) for part in m.group(1).split(";")]


def read_rw(F: GF, var, text: str, gen: str = "u"):
    """(N, slots) from ``RW[..N=..]{ W{..} | .. }``; slots are coordinate lists."""
    m = re.fullmatch(r"\s*RW\[[^\]]*N=(\d+)\]\{(.*)\}\s*", text, re.S)
    if not m:
        raise ValueError(f"not a ramified literal: {text!r}")
    return int(m.group(1)), [read_witt(F, var, s, gen) for s in m.group(2).split("|")]


def read_digits(F: GF, var, text: str, gen: str = "u") -> list[Element]:
    m = re.fullmatch(r"\s*DIGITS\[(\d+)\]\{(.*)\}\s*", text, re.S)
    if not m:
        raise ValueError(f"not a digit literal: {text!r}")
    parts = m.group(2).split(";")
    if len(parts) != int(m.group(1)):
        raise ValueError(f"digit count mismatch in {text!r}")
    return [read_element(F, var, part, gen) for part in parts]


def frob_inv_frac(x: Element, i: int) -> Element:
    """F^(-i) on a fraction-power element over a prime field: x^e -> x^(e/p^i)."""
    p = x.F.p
    if x.F.e != 1:
        raise ValueError("closed form implemented over prime fields")
    return Element(x.F, x.var, {k / p ** i: c for k, c in x.terms.items()})


def closed_form_digits_ok(slots, digits, f: int, frob_inv) -> bool:
    """For E = X^f - p: digit d_{f*i+j} equals F^(-i)(r_j.coords[i])."""
    for k, d in enumerate(digits):
        i, j = divmod(k, f)
        if frob_inv(slots[j][i], i) != d:
            return False
    return True


# ---------------------------------------------------------------------------
# evaluation maps into finite fields


def eval_frac(x: Element, K: GF, t, root: int = 1) -> tuple:
    """x -> x(t) for x over F_p, t in K^* the image of x^(1/root).

    Every exponent times ``root`` must have a p-power denominator; the map is
    then a ring map (on the ring in y = x^(1/root), y -> t).
    """
    p = K.p
    acc = K.zero()
    for ex, c in x.terms.items():
        ex = ex * root
        k = 0
        den = ex.denominator
        while den % p == 0:
            den //= p
            k += 1
        if den != 1:
            raise ValueError(f"exponent {ex} has a non-p-power denominator")
        v = K.frob(K.pow(t, ex.numerator), -k)
        acc = K.add(acc, K.mul(K.const(c[0]), v))
    return acc


def eval_uq(x: Element, F: GF, t) -> tuple:
    acc = F.zero()
    for ex, c in x.terms.items():
        acc = F.add(acc, F.mul(c, F.pow(t, int(ex))))
    return acc


# ---------------------------------------------------------------------------
# Z_q[pi]/(pi^f - p) modulo pi^N: the image of the ramified Witt ring
# W(R)[pi]/(pi^f - p) under an evaluation map R -> F_q, which sends the
# Teichmueller lift [a] to [a(t)] and pi to pi.  An element is a list of f
# elements of Z_q/p^M (M = ceil(N/f)): its coefficients of 1, pi, ..,
# pi^(f-1).


class PiAdic:
    def __init__(self, K: GF, f: int, N: int):
        self.K, self.f, self.N = K, f, N
        self.M = -(-N // f)
        self.m = K.p ** self.M

    def zero(self):
        return [(0,) * self.K.e] * self.f

    def monomial(self, a, k: int):
        """a * pi^k for a in Z_q/p^M; pi^k = p^(k // f) pi^(k % f)."""
        out = self.zero()
        c = self.K.p ** (k // self.f)
        out[k % self.f] = tuple(c * v % self.m for v in a)
        return out

    def add(self, x, y):
        return [tuple((a + b) % self.m for a, b in zip(u, v)) for u, v in zip(x, y)]

    def neg(self, x):
        return [tuple(-a % self.m for a in u) for u in x]

    def mul(self, x, y):
        out = self.zero()
        for i, u in enumerate(x):
            for j, v in enumerate(y):
                out = self.add(out, self.monomial(
                    tuple(poly_mulmod(u, v, self.K.mod, self.m)), i + j))
        return out

    def is_zero(self, x) -> bool:
        """x = 0 mod pi^N: the pi^j coefficient vanishes mod p^ceil((N-j)/f)."""
        p = self.K.p
        return all(a % p ** -(-(self.N - j) // self.f) == 0
                   for j, u in enumerate(x) for a in u)


def digits_at(R: PiAdic, digits, t, root: int = 1):
    """sum_k [d_k(t)] pi^k, each digit evaluated by eval_frac."""
    acc = R.zero()
    for k, d in enumerate(digits):
        acc = R.add(acc, R.monomial(
            teichmuller(R.K, eval_frac(d, R.K, t, root), R.M), k))
    return acc
