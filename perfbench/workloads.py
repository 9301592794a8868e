"""The four workloads: seeded inputs, set-up, one round of jobs, and checks.

A workload is built in three steps:

* ``make_inputs(seed)`` draws every input as text, without wittforge, and
  computes what the checks need from those inputs alone;
* ``setup(wf, inputs)`` turns the text into wittforge objects (this is the
  timed set-up, together with the import);
* ``round(state)`` lists the jobs of one round.  A run repeats whole rounds,
  after one untimed warm-up round that fills the module memos.

Each ``Job`` has ``run()``, the timed call into wittforge, which returns
``(ok, output)``, ``check(output)``, which returns None or a message, and
``key(output)``, a canonical text used to compare later rounds with the
checked first one.  Costs depend on the seed only through values, never
through sizes: every round of a workload has the same make-up of ring
kinds, lengths, term counts and precisions on every seed.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction

import oracles as orc

F2 = orc.GF(2, (0, 1))
F3 = orc.GF(3, (0, 1))
F4 = orc.GF(2, (1, 1, 1))
F9 = orc.GF(3, (1, 0, 1))
F16 = orc.GF(2, orc.irreducible_modulus(2, 4))
F81 = orc.GF(3, orc.irreducible_modulus(3, 4))


class Job:
    __slots__ = ("label", "run", "check", "key", "ref")

    def __init__(self, label, run, check, key, ref="interp"):
        self.label, self.run, self.check, self.key = label, run, check, key
        self.ref = ref  # the reference kernel that scales this job's time


def _ftext(F: orc.GF, c) -> str:
    """Text of a field element for the wittforge expression parser."""
    parts = []
    for d, v in enumerate(c):
        if v:
            parts.append(str(v) if d == 0 else f"{v}*u^{d}")
    return "+".join(parts) if parts else "0"


def _nonzero(rng, F: orc.GF):
    while True:
        c = tuple(rng.randrange(F.p) for _ in range(F.e))
        if any(c):
            return c


# ---------------------------------------------------------------------------
# witt-arith

OPS = ("add", "mul", "neg", "sub")

# ring key -> (descriptor, field of coefficients, variable)
ARITH_RINGS = {
    "F3": ("ff p=3 e=1", F3, None),
    "F9": ("ff p=3 e=2 modulus=u^2+1", F9, None),
    "F4": ("ff p=2 e=2 modulus=u^2+u+1", F4, None),
    "frac": ("frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true",
             F3, "x"),
    "uq": ("uq base=(ff p=3 e=1) var=T modulus=T^3-T", F3, "T"),
}
# job kinds: the (ring, length) cases of one job; each case runs add, mul,
# neg and sub on one pair of dense operands
ARITH_KINDS = {
    "uq-short": (("uq", 2), ("uq", 4)),
    "ff": (("F3", 2), ("F3", 3), ("F3", 5), ("F3", 8), ("F9", 2), ("F9", 4),
           ("F9", 6), ("F4", 3), ("F4", 5), ("F4", 8)),
    "uq-long": (("uq", 6), ("uq", 8)),
    "frac": (("frac", 2), ("frac", 2), ("frac", 3)),
}
# one round, cheapest kind first (about 5, 12, 25 and 50 ms here).  Three
# cheap jobs, four of one middle kind, one above it and two on top, so that
# the median and the 90th percentile fall inside a block of equal jobs and
# not on a step between two kinds
ARITH_ROUND = ("uq-short",) * 3 + ("ff",) * 4 + ("uq-long",) + ("frac",) * 2
# exponent templates (numerators over 9) for the frac operands, per length;
# the seed scales them by a unit s, which keeps their additive structure and
# so the cost of the lift route
FRAC_TEMPLATES = {
    2: (((1, 4, -2), (2, -1, 5)), ((3, -4, 1), (-2, 2, 7))),
    3: (((1, -2), (4, 1), (-1, 2)), ((2, -1), (-3, 1), (1, 5))),
}


def _arith_operand(rng, key, n, side, s):
    """(coordinate texts, coordinates as oracle Elements) of one dense operand."""
    desc, F, var = ARITH_RINGS[key]
    texts = []
    if key == "frac":
        for exps in FRAC_TEMPLATES[n][side]:
            terms = [f"{rng.randrange(1, 3)}*x^({a * s}/9)" for a in exps]
            texts.append("+".join(terms))
    elif key == "uq":
        for _ in range(n):
            c = [rng.randrange(1, 3) for _ in range(3)]
            texts.append(f"{c[2]}*T^2+{c[1]}*T+{c[0]}")
    else:
        texts = [_ftext(F, _nonzero(rng, F)) for _ in range(n)]
    return texts, [orc.read_element(F, var, t) for t in texts]


def _dense_int(rng, n):
    """An integer below 3^n whose image in W_n(F_3) has no zero coordinate."""
    while True:
        a = rng.randrange(3 ** n)
        coords = orc.int_to_witt_fp(a, 3, n)
        if all(coords):
            return a, coords


def _arith_case(rng, key, n):
    desc, F, var = ARITH_RINGS[key]
    if key == "F3":
        # operands are images of integers, through the benchmark's own ghost
        # inversion; the expected results come from Z/3^n
        (a, xa), (b, yb) = _dense_int(rng, n), _dense_int(rng, n)
        m = 3 ** n
        want = {op: orc.int_to_witt_fp(v % m, 3, n) for op, v in
                (("add", a + b), ("mul", a * b), ("neg", -a), ("sub", a - b))}
        return {"key": key, "n": n, "x": [str(c) for c in xa],
                "y": [str(c) for c in yb], "want": ("ints", want)}
    s = rng.choice((1, 2, 4, 5, 7, 8))
    xt, xe = _arith_operand(rng, key, n, 0, s)
    yt, ye = _arith_operand(rng, key, n, 1, s)
    if key == "frac":
        # evaluation maps x -> t into F_81, then W_n(F_81) ~ Z_81/3^n
        points = [_nonzero(rng, F81) for _ in range(3)]
        images = [(F81, [orc.eval_frac(c, F81, t) for c in xe],
                   [orc.eval_frac(c, F81, t) for c in ye]) for t in points]
        maps = [("frac", t) for t in points]
    elif key == "uq":
        # F_3[T]/(T^3-T) ~ F_3^3 by evaluation at 0, 1, 2 (injective)
        points = [F3.const(v) for v in range(3)]
        images = [(F3, [orc.eval_uq(c, F3, t) for c in xe],
                   [orc.eval_uq(c, F3, t) for c in ye]) for t in points]
        maps = [("uq", t) for t in points]
    else:
        images = [(F, [c.terms.get(Fraction(0), F.zero()) for c in xe],
                   [c.terms.get(Fraction(0), F.zero()) for c in ye])]
        maps = [("ff", None)]
    want = []
    for K, xi, yi in images:
        zx, zy = orc.witt_to_zq(K, xi), orc.witt_to_zq(K, yi)
        want.append({op: orc.zq_op(K, op, zx, zy, n) for op in OPS})
    return {"key": key, "n": n, "x": xt, "y": yt, "want": ("zq", maps, want)}


def _arith_check_case(case, results) -> str | None:
    key, n = case["key"], case["n"]
    desc, F, var = ARITH_RINGS[key]
    for op, res in zip(OPS, results):
        coords = orc.read_witt(F, var, str(res))
        if len(coords) != n:
            return f"{key} n={n} {op}: length {len(coords)}"
        if case["want"][0] == "ints":
            got = [c.terms.get(Fraction(0), F.zero())[0] for c in coords]
            if got != case["want"][1][op]:
                return f"{key} n={n} {op}: {got} != Z/3^{n} image {case['want'][1][op]}"
            continue
        _, maps, wants = case["want"]
        for (kind, t), want in zip(maps, wants):
            if kind == "frac":
                K, vals = F81, [orc.eval_frac(c, F81, t) for c in coords]
            elif kind == "uq":
                K, vals = F3, [orc.eval_uq(c, F3, t) for c in coords]
            else:
                K, vals = F, [c.terms.get(Fraction(0), F.zero()) for c in coords]
            if orc.witt_to_zq(K, vals) != want[op]:
                return f"{key} n={n} {op}: image at {t} differs from Z_q/p^n"
    return None


def arith_inputs(seed: int):
    rng = random.Random(f"witt-arith:{seed}")
    jobs = []
    for kind in ARITH_ROUND:
        jobs.append((kind, [_arith_case(rng, key, n) for key, n in ARITH_KINDS[kind]]))
    return jobs


def arith_setup(wf, inputs, tr):
    br, wc = wf.base_rings, wf.witt_core
    rings = {k: br.make_ring(v[0]) for k, v in ARITH_RINGS.items()}
    batches = []
    for kind, cases in inputs:
        ops = []
        for case in cases:
            ring = rings[case["key"]]
            x = wc.make_witt(ring, [br.evaluate(ring, t) for t in case["x"]])
            y = wc.make_witt(ring, [br.evaluate(ring, t) for t in case["y"]])
            ops.append((x, y))
        batches.append((kind, cases, ops))
    return {"wf": wf, "tr": tr, "batches": batches}


def arith_round(state):
    wc = state["wf"].witt_core
    jobs = []
    for kind, cases, ops in state["batches"]:
        def run(ops=ops):
            out = []
            for x, y in ops:
                out.append((wc.witt_add(x, y), wc.witt_mul(x, y),
                            wc.witt_neg(x), wc.witt_sub(x, y)))
            return True, out

        def check(out, cases=cases):
            for case, results in zip(cases, out):
                msg = _arith_check_case(case, results)
                if msg:
                    return msg
            return None

        def key(out):
            return "|".join(str(r) for rs in out for r in rs)

        jobs.append(Job(kind, run, check, key))
    return jobs


# ---------------------------------------------------------------------------
# hensel-digits

R3_FRAC = "frac base=(ff p=3 e=1) vars=x depth_p=10 depth_2=1 laurent=true"
R2_FRAC = "frac base=(ff p=2 e=1) vars=x depth_p=10 depth_2=0 laurent=true"
# (p, f, degree of the root, ring) per family; E = X^f - p in every family,
# which is the shape the closed-form digit check needs
FAMILIES = {
    "sqrt3": (3, 2, 2, R3_FRAC),
    "cbrt2_f3": (2, 3, 3, R2_FRAC),
    "cbrt2_f2": (2, 2, 3, R2_FRAC),
}
# per p: residue field, evaluation field of the same characteristic, and r
# such that the ring's exponents lie in (1/r) Z[1/p] (R3_FRAC has depth_2=1)
HENSEL_FIELDS = {3: (F3, F81, 2), 2: (F2, F16, 1)}
# one round, cheapest first.  Three cheap jobs, four of one middle kind, one
# above it and two on top, so that the median and the 90th percentile fall
# inside a block of equal jobs and not on a step between two kinds
HENSEL_ROUND = (
    ("sqrt3", 4), ("cbrt2_f3", 5), ("cbrt2_f3", 6),
    ("cbrt2_f2", 6), ("cbrt2_f2", 6), ("cbrt2_f2", 6), ("cbrt2_f2", 6),
    ("sqrt3", 5), ("sqrt3", 6), ("sqrt3", 6),
)


# per job of HENSEL_ROUND: (k, b) of X^d - (p*x^b + x^(d*k)) with seed digit
# x^k.  The seed applies one exponent scaling x -> x^s (s a unit mod 2p), a
# ring automorphism, so it changes values and never the cost of a job
HENSEL_SHAPES = (
    (Fraction(1, 2), 0), (Fraction(1), 1), (Fraction(1, 2), -1),
    (Fraction(1), 0), (Fraction(-1), 2), (Fraction(1, 2), 1), (Fraction(3, 2), 0),
    (Fraction(1, 2), 0), (Fraction(3, 2), 2), (Fraction(-1, 2), 0),
)
HENSEL_SCALES = (1, -1, 5, -5, 7, -7, 11, -11, 13, -13)


def hensel_inputs(seed: int):
    """Per job: X^d - c with c = p*[x^B] + [x^D], seed digit x^k, and three
    points of the evaluation field for the root check (images of x^(1/r))."""
    rng = random.Random(f"hensel-digits:{seed}")
    s = rng.choice(HENSEL_SCALES)
    out = []
    for (fam, N), (k, b) in zip(HENSEL_ROUND, HENSEL_SHAPES):
        p, f, d, ring = FAMILIES[fam]
        B, D = b * s, k * d * s
        K = HENSEL_FIELDS[p][1]
        out.append({"family": fam, "N": N, "p": p, "f": f, "eis": f"X^{f}-{p}",
                    "d": d, "ring": ring, "const": f"{p}*x^({B})+x^({D})",
                    "c_exps": (B, D), "seed": f"x^({k * s})",
                    "points": [_nonzero(rng, K) for _ in range(3)]})
    return out


def _hensel_base(wf, spec):
    rw = wf.witt_ramified
    f, coeffs = rw.parse_eisenstein(spec["eis"])
    level = -(-spec["N"] // f) + 1
    return rw.make_ramified_base(spec["p"], 1, f, coeffs, level)


def hensel_setup(wf, inputs, tr):
    br, rw, lf = wf.base_rings, wf.witt_ramified, wf.lifting
    problems = []
    for spec in inputs:
        base = _hensel_base(wf, spec)
        ring = br.make_ring(spec["ring"])
        c = rw.embed_expr(base, ring, spec["const"])
        zero, one = rw.rw_zero(base, ring), rw.rw_one(base, ring)
        coeffs = (rw.rw_neg(c),) + (zero,) * (spec["d"] - 1) + (one,)
        seed = rw.embed_expr(base, ring, spec["seed"])
        problems.append((spec, lf.make_hensel_problem(coeffs, seed, spec["N"])))
    return {"wf": wf, "tr": tr, "problems": problems}


def _hensel_root_ok(spec, ds) -> bool:
    """r^d = p*[x^B] + [x^D] mod pi^N, r = sum_k [d_k] pi^k, at every point.

    Computed in Z_q[pi]/(pi^f - p) by the oracle, from the digits alone.
    """
    F, K, root = HENSEL_FIELDS[spec["p"]]
    R = orc.PiAdic(K, spec["f"], spec["N"])
    B, D = spec["c_exps"]

    def teich(e, t):  # [t^e] in Z_q/p^M
        x_e = orc.Element(F, "x", {Fraction(e): (1,)})
        return orc.teichmuller(K, orc.eval_frac(x_e, K, t, root), R.M)

    for t in spec["points"]:
        r = orc.digits_at(R, ds, t, root)
        acc = r
        for _ in range(spec["d"] - 1):
            acc = R.mul(acc, r)
        # p = pi^f
        c = R.add(R.monomial(teich(B, t), spec["f"]), R.monomial(teich(D, t), 0))
        if not R.is_zero(R.add(acc, R.neg(c))):
            return False
    return True


def _hensel_check(spec, out) -> str | None:
    root, steps, digits, back = out
    N, f, tag = spec["N"], spec["f"], f"{spec['family']} N={spec['N']}"
    F = HENSEL_FIELDS[spec["p"]][0]
    ds = orc.read_digits(F, "x", str(digits))
    if len(ds) != N:
        return f"{tag}: {len(ds)} digits"
    if ds[0] != orc.read_element(F, "x", spec["seed"]):
        return f"{tag}: leading digit is not the seed digit"
    if not _hensel_root_ok(spec, ds):
        return f"{tag}: the root fails its polynomial mod pi^{N}"
    for name, x in (("the root", root), ("digits_assemble(digit_expand(r))", back)):
        _, slots = orc.read_rw(F, "x", str(x))
        if not orc.closed_form_digits_ok(slots, ds, f, orc.frob_inv_frac):
            return f"{tag}: {name} differs from the closed form F^-i(r_j,i)"
    return None


def hensel_round(state):
    wf = state["wf"]
    rw, lf = wf.witt_ramified, wf.lifting
    jobs = []
    for spec, prob in state["problems"]:
        def run(prob=prob, N=spec["N"]):
            root, steps = lf.hensel_lift_verbose(prob)
            digits = rw.digit_expand(root, N)
            return True, (root, steps, digits, rw.digits_assemble(digits))

        def check(out, spec=spec):
            return _hensel_check(spec, out)

        def key(out):
            return f"{out[0]}|{out[2]}|{len(out[1])}"

        jobs.append(Job(f"{spec['family']}:N={spec['N']}", run, check, key))
    return jobs


# ---------------------------------------------------------------------------
# tables

# a subset of verify's structural-tables check; (3, 3) is the level-3
# prefix of its (3, 4) tables, whose sum table alone takes seconds to make
TABLES = (
    (2, 4, "sum"), (2, 4, "product"), (2, 4, "negation"),
    (3, 3, "sum"), (3, 3, "product"), (3, 3, "negation"),
    (5, 3, "product"), (5, 3, "negation"), (5, 4, "negation"),
)
LARGE = ((5, 3, "product"),)
SMALL = tuple(t for t in TABLES if t not in LARGE)
# one round, cheapest kind first (about 5, 10, 35 and 65 ms here), blocks
# placed as in ARITH_ROUND: (job kind, tables, integer points per table)
TABLE_ROUND = ((("eval", SMALL, 8),) * 3 + (("verify", SMALL, 0),) * 4
               + (("verify", LARGE, 0),) + (("eval", LARGE, 30),) * 2)


def _table_value(rng) -> int:
    # magnitudes 8 and 9 only: the cost of evaluating a table grows with the
    # size of the powers of the point, so it must not depend on the seed
    return rng.choice((-9, -8, 8, 9))


def tables_inputs(seed: int):
    """Per job: its kind, tables and (xs, ys, Witt coordinates over Z) points."""
    rng = random.Random(f"tables:{seed}")
    jobs = []
    for kind, tables, npts in TABLE_ROUND:
        pts = []
        for p, lv, tkind in tables:
            n = lv + 1
            for _ in range(npts):
                xs = tuple(_table_value(rng) for _ in range(n))
                ys = tuple(_table_value(rng) for _ in range(n))
                gx, gy = orc.ghost(xs, p), orc.ghost(ys, p)
                if tkind == "sum":
                    g = [a + b for a, b in zip(gx, gy)]
                elif tkind == "product":
                    g = [a * b for a, b in zip(gx, gy)]
                else:
                    g = [-a for a in gx]
                pts.append((xs, ys, tuple(orc.from_ghost(g, p))))
        jobs.append((kind, tables, npts, pts))
    return jobs


def tables_setup(wf, inputs, tr):
    wc = wf.witt_core
    tables = {}
    for key in TABLES:
        t = wc.structural_polys(key[0], key[1], key[2])
        tables[key] = (t, wc.compile_table(t))
    return {"wf": wf, "tr": tr, "tables": tables, "jobs": inputs}


def tables_round(state):
    wc, span = state["wf"].witt_core, state["tr"].span
    jobs = []
    for kind, keys, npts, pts in state["jobs"]:
        tables = [state["tables"][k] for k in keys]
        if kind == "verify":
            def run(tables=tables):
                for t, _ in tables:
                    wc.verify_table(t)  # raises on a broken ghost identity
                return True, None

            jobs.append(Job("verify", run, lambda out: None, repr))
            continue

        def run(tables=tables, pts=pts, npts=npts):
            out = []
            it = iter(pts)
            with span("witt_core.table_eval"):
                for _, fns in tables:
                    for _ in range(npts):
                        xs, ys, _ = next(it)
                        out.append(tuple(f(xs, ys) for f in fns))
            return True, out

        def check(out, pts=pts):
            for (xs, ys, want), got in zip(pts, out):
                if got != want:
                    return f"table value at {xs}, {ys}: {got} != ghost oracle {want}"
            return None

        jobs.append(Job("eval", run, check, repr, ref="bigint"))
    return jobs


# ---------------------------------------------------------------------------
# cli-requests

CLI_BASE6 = "rw p=3 e=1 eis=(X^2-3) prec=6"
CLI_EMBED_RING = "frac base=(ff p=3 e=1) vars=x depth_p=6 depth_2=0 laurent=true"
CLI_EVAL_RING = "frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true"
FONT_RING = "uq base=(ff p=2 e=1) var=u modulus=u^8"
# a request that fails on every seed because of a program fault:
# FiniteFieldSpec.nth_root only searches q <= 2^14, so the square root 2x of
# 4x^2 over F_(1009^2) is reported as NoRoot (exit 2)
KNOWN_FAILING = ("eval", "--ring",
                 "frac base=(ff p=1009 e=2) vars=x depth_p=0 depth_2=1 laurent=true",
                 "--expr", "(4*x^2)^(1/2)")


def _want_lines(*want):
    def check(text):
        lines = text.splitlines()
        for w in want:
            if w not in lines:
                return f"missing line {w!r}"
        return None
    return check


def _cli_ring_check(rng, kind):
    p = rng.choice((2, 3, 5, 7))
    desc = {
        "ff": f"ff p={p} e=1",
        "frac": f"frac base=(ff p={p} e=1) vars=x,y depth_p=2 depth_2=1 laurent=false",
        "uq": f"uq base=(ff p={p} e=1) var=T modulus=T^4+1",
    }[kind]
    return ("ring", "check", "--ring", desc), _want_lines(
        f"KIND: {kind}", f"CHAR: {p}", "VERDICT: PASS")


def _cli_eval(rng):
    a, b, c, d = (rng.randrange(1, 3) for _ in range(4))
    i, j = rng.randrange(-4, 5), rng.randrange(-4, 5)
    expr = f"({a}*x^({i}/3)+{b})*({c}*x^({j}/3)-{d})"
    want: dict = {}
    for e1, c1 in ((Fraction(i, 3), a), (Fraction(0), b)):
        for e2, c2 in ((Fraction(j, 3), c), (Fraction(0), -d)):
            want[e1 + e2] = (want.get(e1 + e2, 0) + c1 * c2) % 3
    want = {k: (v,) for k, v in want.items()}

    def check(text):
        got = orc.read_element(F3, "x", text.strip())
        return None if got.terms == {k: v for k, v in want.items() if v[0]} \
            else f"eval {expr}: {text.strip()}"
    return ("eval", "--ring", CLI_EVAL_RING, "--expr", expr), check


def _cli_witt(rng, op):
    n = 4
    (a, _), (b, _) = _dense_int(rng, n), _dense_int(rng, n)
    lit = lambda v: "W{" + ";".join(map(str, orc.int_to_witt_fp(v, 3, n))) + "}"
    want = lit((a + b if op == "add" else a * b) % 3 ** n)
    return (("witt", op, "--ring", "ff p=3 e=1", "--n", str(n), "--x", lit(a),
             "--y", lit(b)), _want_lines(want))


def _cli_embed(rng):
    a = rng.choice([v for v in range(-8, 9) if v % 3])
    slot = rng.randrange(2)
    expr = f"x^({a}/3)" if slot == 0 else f"pi*x^({a}/3)"
    mono = orc.read_element(F3, "x", f"x^({a}/3)")

    def check(text):
        n, slots = orc.read_rw(F3, "x", text.strip())
        zero = orc.Element(F3, "x", {})
        for j, coords in enumerate(slots):
            want = [mono if j == slot and i == 0 else zero for i in range(len(coords))]
            if coords != want:
                return f"embed {expr}: {text.strip()}"
        return None
    return ("rw", "embed", "--base", CLI_BASE6, "--ring", CLI_EMBED_RING,
            "--expr", expr), check


def _digits_check(slots, text, N):
    ds = orc.read_digits(F3, None, text.strip())
    if len(ds) != N:
        return f"{len(ds)} digits, want {N}"
    # over F_3 the inverse Frobenius is the identity on coefficients
    ok = orc.closed_form_digits_ok(slots, ds, 2, lambda x, i: x)
    return None if ok else f"digits {text.strip()} differ from the closed form"


def _cli_expand(rng):
    coords = [[F3.const(rng.randrange(1, 3)) for _ in range(4)] for _ in range(2)]
    lit = "RW[base=b0, N=6]{ " + " | ".join(
        "W{" + ";".join(str(c[0]) for c in w) + "}" for w in coords) + " }"
    slots = [[orc.Element(F3, None, {Fraction(0): c}) for c in w] for w in coords]
    return (("rw", "expand", "--base", CLI_BASE6, "--ring", "ff p=3 e=1",
             "--x", lit), lambda text: _digits_check(slots, text, 6))


def _cli_assemble(rng):
    digits = [rng.randrange(1, 3) for _ in range(6)]
    lit = "DIGITS[6]{" + ";".join(map(str, digits)) + "}"

    def check(text):
        _, slots = orc.read_rw(F3, None, text.strip())
        return _digits_check(slots, lit, 6)
    return ("rw", "assemble", "--base", CLI_BASE6, "--ring", "ff p=3 e=1",
            "--digits", lit), check


def _cli_hensel(rng):
    spec = hensel_inputs(rng.randrange(1 << 30))[7]  # a sqrt3 problem at N=5
    d, N = spec["d"], spec["N"]
    poly = f"X^{d}-({spec['const'].replace('3*', 'p*', 1)})"
    argv = ("hensel", "lift", "--base", f"rw p=3 e=1 eis=(X^2-3) prec={N}",
            "--ring", spec["ring"], "--poly", poly, "--seed-digit", spec["seed"],
            "--prec", str(N))

    def check(text):
        # the printed digits must give a root of the polynomial
        lines = text.splitlines()
        if not lines or not lines[0].startswith(f"DIGITS[{N}]{{"):
            return f"hensel lift: {lines[:1]}"
        if not any(ln.startswith("STEP ") for ln in lines[1:]):
            return "hensel lift printed no steps"
        ds = orc.read_digits(F3, "x", lines[0])
        if ds[0] != orc.read_element(F3, "x", spec["seed"]):
            return "hensel lift: leading digit is not the seed digit"
        return None if _hensel_root_ok(spec, ds) else "hensel root fails X^2 = c"
    return argv, check


def _cli_poly_dump(rng):
    # p=2 at level 2: the sum and product tables have 13 terms each
    p, kind, level = 2, rng.choice(("sum", "product")), 2

    def check(text):
        polys = []
        for ln in text.splitlines():
            _, rhs = ln.split(" = ")
            polys.append(_read_int_poly(rhs))
        if len(polys) != level + 1:
            return f"poly dump: {len(polys)} polynomials"
        prng = random.Random(repr((p, kind)))
        for _ in range(5):
            xs = [prng.randrange(-9, 10) for _ in range(level + 1)]
            ys = [prng.randrange(-9, 10) for _ in range(level + 1)]
            gx, gy = orc.ghost(xs, p), orc.ghost(ys, p)
            g = [a + b if kind == "sum" else a * b for a, b in zip(gx, gy)]
            want = orc.from_ghost(g, p)
            got = [_eval_int_poly(q, xs, ys) for q in polys]
            if got != want:
                return f"poly dump p={p} {kind}: ghost identity fails"
        return None
    return ("poly", "dump", "--p", str(p), "--kind", kind, "--level",
            str(level)), check


def _read_int_poly(text: str):
    """'X0^2*Y1-2*X1*Y1+3' -> [(coeff, {var: exp})]."""
    terms = []
    for sign, body in _split_signed(text):
        c, mono = 1, {}
        for f in body.split("*"):
            if f[0].isdigit():
                c *= int(f)
            else:
                name, _, e = f.partition("^")
                mono[name] = int(e) if e else 1
        terms.append((sign * c, mono))
    return terms


def _split_signed(text: str):
    out, sign, start = [], 1, 0
    for i, ch in enumerate(text):
        if ch in "+-" and i > 0:
            out.append((sign, text[start:i]))
            sign, start = (1 if ch == "+" else -1), i + 1
        elif ch == "-" and i == 0:
            sign, start = -1, 1
    out.append((sign, text[start:]))
    return out


def _eval_int_poly(poly, xs, ys):
    total = 0
    for c, mono in poly:
        v = c
        for name, e in mono.items():
            v *= (xs if name[0] == "X" else ys)[int(name[1:])] ** e
        total += v
    return total


def _cli_frob_report(rng):
    m = rng.choice((10, 11))
    gen = -(-m // 3)
    return (("frob", "report", "--ring", f"uq base=(ff p=3 e=1) var=T modulus=T^{m}"),
            _want_lines(f"KERNEL_GENERATORS: T^{gen}", "VERDICT: PASS"))


def _cli_frob_tower(rng):
    p, depth = 2, 3
    return (("frob", "tower", "--p", str(p), "--depth", str(depth)),
            _want_lines(f"P: {p}", f"DEPTH: {depth}", "VERDICT: PASS"))


def _font_seq(k: int):
    """(u^(4k), u^(2k), u^k) in F_2[u]/(u^8): a compatible sequence."""
    return [4 * k, 2 * k, k]


def _font_text(exps):
    return "FONT{" + ";".join("0" if e >= 8 else ("1" if e == 0 else
                                                   ("u" if e == 1 else f"u^{e}"))
                              for e in exps) + "}"


def _cli_fontaine_mul(rng):
    a, b = 1, 1
    want = _font_text([x + y for x, y in zip(_font_seq(a), _font_seq(b))])
    return (("fontaine", "mul", "--ring", FONT_RING, "--x", _font_text(_font_seq(a)),
             "--y", _font_text(_font_seq(b))), _want_lines(want))


def _cli_fontaine_shift(rng):
    seq = _font_seq(1)
    want = _font_text([2 * seq[0]] + seq[:-1])
    return (("fontaine", "shift", "--ring", FONT_RING, "--x", _font_text(seq),
             "--dir", "bwd"), _want_lines(want))


def _cli_known_failing(rng):
    def check(text):
        # for when the fault is mended: the root must square to 4x^2
        got = orc.read_element(orc.GF(1009, (0, 1)), "x", text.strip())
        ok = got.terms in ({1: (2,)}, {1: (1007,)})
        return None if ok else f"sqrt(4x^2) = {text.strip()}"
    return KNOWN_FAILING, check


def cli_inputs(seed: int):
    rng = random.Random(f"cli-requests:{seed}")
    # every request has the same size on every seed; several take no seeded
    # values at all
    makers = (
        lambda r: _cli_ring_check(r, "ff"), _cli_eval, lambda r: _cli_witt(r, "add"),
        lambda r: _cli_witt(r, "mul"), _cli_embed, _cli_expand, _cli_assemble,
        _cli_poly_dump, _cli_frob_report, _cli_frob_tower, _cli_fontaine_mul,
        _cli_fontaine_shift, lambda r: _cli_ring_check(r, "frac"), _cli_eval,
        _cli_hensel, _cli_hensel, _cli_hensel, _cli_known_failing,
    )
    return [m(rng) for m in makers]


def cli_setup(wf, inputs, tr):
    return {"wf": wf, "tr": tr, "requests": inputs}


def cli_round(state):
    cli, tr = state["wf"].cli_io, state["tr"]
    jobs = []
    for argv, check in state["requests"]:
        def run(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            code = cli.main(list(argv), stdout=out, stderr=err)
            text = out.getvalue()
            tr.add_size("cli_io.stdout_bytes", len(text.encode()))
            return code == 0, text

        jobs.append(Job(" ".join(argv[:2]), run, check, str))
    return jobs


WORKLOADS = {
    "witt-arith": (arith_inputs, arith_setup, arith_round),
    "hensel-digits": (hensel_inputs, hensel_setup, hensel_round),
    "tables": (tables_inputs, tables_setup, tables_round),
    "cli-requests": (cli_inputs, cli_setup, cli_round),
}


def probe(wf, tr):
    """One fixed call into each layer, so a traced run measures every layer.

    Seed-independent and the same on every workload: its counts are a
    constant offset in every per-layer row.
    """
    br, wc, rw, lf, fl = (wf.base_rings, wf.witt_core, wf.witt_ramified,
                          wf.lifting, wf.frobenius_lab)
    ring = br.make_ring("ff p=3 e=1")
    x = wc.make_witt(ring, [br.evaluate(ring, "1+1"), 1])
    wc.witt_mul(wc.witt_add(x, x), wc.frobenius_map(x, 1))
    br.frobenius(br.evaluate(ring, "2"), 1)
    table = wc.structural_polys(2, 1, "sum")
    wc.verify_table(table)
    fns = wc.compile_table(table)
    with tr.span("witt_core.table_eval"):
        [f((1, 2), (3, 4)) for f in fns]
    base = rw.make_ramified_base(3, 1, 2, [-3, 0], 2)
    one_pi = rw.embed_expr(base, ring, "1+pi")
    rw.digit_expand(rw.rw_mul(one_pi, one_pi))
    c = rw.embed_expr(base, ring, "4")
    zero, one = rw.rw_zero(base, ring), rw.rw_one(base, ring)
    prob = lf.make_hensel_problem((rw.rw_neg(c), zero, one),
                                  rw.embed_expr(base, ring, "1"), 2)
    lf.hensel_lift(prob)
    fl.render_perfection_report(fl.perfection_report(ring))
    out = io.StringIO()
    wf.cli_io.main(["witt", "add", "--ring", "ff p=3 e=1", "--n", "2",
                    "--x", "W{1;2}", "--y", "W{2;2}"], stdout=out, stderr=io.StringIO())
    tr.add_size("cli_io.stdout_bytes", len(out.getvalue().encode()))
