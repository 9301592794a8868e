"""No traceback reaches the user: a fixed corpus of generated commands.

A seeded generator draws `witt add/mul/neg`, `eval`, `rw embed` and
`hensel lift` commands over ff, frac and uq rings (reduced uq rings, which
take the Z_q route, among them) from the descriptors and the expression
grammar of the README, with random expressions, some of them ill-formed
or out of range on purpose.  Each runs in process through ``cli_io.main``
under a fixed alarm: it must exit 0, 2 or 3, print an ``error:`` line on
every non-zero exit, and raise nothing.  Nothing is written to disk.
"""

import random
import shlex
import signal
from io import StringIO

import wittforge.cli_io as cli

SEED = 20261020
COUNT = 600
ALARM_S = 5  # per command; the slowest takes well under a second

# (descriptor, names usable in element expressions, p, longest Witt length):
# frac lengths stay short, since nothing bounds coordinate growth there yet
RINGS = [
    ("ff p=2 e=1", [], 2, 6),
    ("ff p=3 e=2", ["u"], 3, 6),
    ("ff p=5 e=1", [], 5, 5),
    ("frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true", ["x"], 3, 3),
    ("frac base=(ff p=2 e=1) vars=x,y depth_p=1 depth_2=0 laurent=false", ["x", "y"], 2, 3),
    ("frac base=(ff p=2 e=1) vars=x,y depth_p=1 depth_2=0 laurent=false mod=x^2,x*y^(3/2)",
     ["x", "y"], 2, 3),
    ("uq base=(ff p=3 e=1) var=T modulus=T^3-T", ["T"], 3, 6),
    ("uq base=(ff p=3 e=1) var=T modulus=T^4+1", ["T"], 3, 6),
    ("uq base=(ff p=2 e=1) var=T modulus=T^3+T+1", ["T"], 2, 6),
    ("uq base=(ff p=2 e=1) var=T modulus=T^3+T^2+T", ["T"], 2, 6),
    ("uq base=(ff p=5 e=1) var=T modulus=T^3-1", ["T"], 5, 5),
    ("uq base=(ff p=2 e=1) var=T modulus=T^3+T^2", ["T"], 2, 4),
    ("uq base=(ff p=3 e=2) var=T modulus=T^2+2*T+2", ["T", "u"], 3, 4),
]
# ramified bases by (p, e of the ring's base field)
BASES = {
    (2, 1): ["rw p=2 e=1 eis=(X^2-2) prec=6", "rw p=2 e=1 eis=(X^3-2) prec=6"],
    (3, 1): ["rw p=3 e=1 eis=(X^2-3) prec=4", "rw p=3 e=1 eis=(X^2-3*X-3) prec=4"],
    (3, 2): ["rw p=3 e=2 eis=(X^2-3) prec=4"],
    (5, 1): ["rw p=5 e=1 eis=(X^2-5) prec=4"],
}


def _power(rng, p):
    """Mostly integer exponents; the rational and negative ones refuse
    outside the rings that hold their roots and inverses."""
    return rng.choice(["", "", "", "^2", "^3", f"^{p}", "^0",
                       f"^(1/{p})", "^(1/2)", "^-1"])


def _expr(rng, names, p, depth=0):
    """A random expression of the README grammar over the given names."""
    r = rng.random()
    if depth >= 2 or r < 0.3 or not names and r < 0.6:
        return str(rng.randrange(0, 2 * p))
    if r < 0.65 and names:
        return f"{rng.randrange(1, p + 1)}*{rng.choice(names)}{_power(rng, p)}"
    parts = [_expr(rng, names, p, depth + 1) for _ in range(rng.randrange(1, 4))]
    body = "+".join(parts) if rng.random() < 0.7 else "-".join(parts)
    return f"({body})" + rng.choice(["", "", "^2"])


def _command(rng):
    desc, names, p, top = rng.choice(RINGS)
    kind = rng.choices(["witt", "eval", "embed", "hensel"], [5, 2, 2, 2])[0]
    if kind == "witt":
        op = rng.choice(["add", "mul", "neg"])
        n = rng.randrange(1, top + 1)
        lit = lambda: "W{" + ";".join(_expr(rng, names, p, 1) for _ in range(n)) + "}"
        argv = ["witt", op, "--ring", desc, "--n", str(n), "--x", lit()]
        return argv + ([] if op == "neg" else ["--y", lit()])
    if kind == "eval":
        return ["eval", "--ring", desc, "--expr", _expr(rng, names, p)]
    e = 2 if "e=2" in desc else 1
    base = rng.choice(BASES[p, e] if rng.random() < 0.9 else rng.choice(list(BASES.values())))
    if kind == "embed":
        expr = _expr(rng, names + ["pi"], p)
        prec = ["--prec", str(rng.randrange(1, 7))] if rng.random() < 0.3 else []
        return ["rw", "embed", "--base", base, "--ring", desc, "--expr", expr, *prec]
    a = _expr(rng, names, p, 1)
    # seeds that are roots mod pi, and one that need not be
    poly, seed = rng.choice([(f"X^2-(p+({a})^2)", a), (f"X^2+X-(p+({a})^2+{a})", a),
                             (f"X^3-X-(({a})^3-({a}))", a), (f"X^2-(p+{a})", a)])
    return ["hensel", "lift", "--base", base, "--ring", desc, "--poly", poly,
            "--seed-digit", seed, "--prec", str(rng.randrange(1, 7))]


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout


def test_generated_commands_exit_cleanly():
    rng = random.Random(SEED)
    bad, codes = [], {}
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for _ in range(COUNT):
            argv = _command(rng)
            out, err = StringIO(), StringIO()
            signal.alarm(ALARM_S)
            try:
                code = cli.main(argv, stdout=out, stderr=err)
            except CommandTimeout:
                bad.append(f"over {ALARM_S} s: {shlex.join(argv)}")
                continue
            except Exception as exc:  # a traceback that reached the user
                bad.append(f"{type(exc).__name__}: {exc}: {shlex.join(argv)}")
                continue
            finally:
                signal.alarm(0)
            codes[code] = codes.get(code, 0) + 1
            if code not in (0, 2, 3):
                bad.append(f"exit {code}: {shlex.join(argv)}")
            elif code and not any(line.startswith("error:")
                                  for line in err.getvalue().splitlines()):
                bad.append(f"exit {code} without an error line: {shlex.join(argv)}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert bad == []
    # the corpus exercises the commands, not only their refusals
    assert codes.get(0, 0) >= COUNT // 2, codes
