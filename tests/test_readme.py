"""The README's command-line examples, run in process against recorded output.

Every fenced ``wittforge`` command in README.md runs through ``cli_io.main``
and must print exactly the recorded stdout and return the recorded exit code,
so a change that alters a documented answer fails here.  Two are left out:
``bench poly`` prints wall times, and ``verify`` is the acceptance gate in
``test_acceptance.py``.  Commands run in a temporary directory, so ``poly gen
--out ./tables`` prints the README's relative path and writes its file there.
"""

import hashlib
import shlex
from io import StringIO
from pathlib import Path

import pytest

import wittforge.cli_io as cli
import wittforge.witt_core as wc

README = Path(__file__).resolve().parent.parent / "README.md"
SKIP = (("bench", "poly"), ("verify",))


def readme_commands() -> list[str]:
    """Each ``wittforge ...`` line of a fenced block, continuations joined."""
    out, fenced, cmd = [], False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            fenced = not fenced
            continue
        if cmd is not None:
            cmd += " " + line.strip()
        elif fenced and line.startswith("wittforge "):
            cmd = line
        else:
            continue
        if cmd.endswith("\\"):
            cmd = cmd[:-1].rstrip()
        else:
            out.append(shlex.join(shlex.split(cmd, comments=True)[1:]))
            cmd = None
    return [c for c in out
            if not any(shlex.split(c)[:len(s)] == list(s) for s in SKIP)]


# command (its argv, shell-quoted) -> (exit code, stdout)
GOLDEN = {
    "witt add --ring 'ff p=2 e=1' --n 2 --x 'W{1;0}' --y 'W{1;0}'":
        (0, 'W{0;1}\n'),
    'poly gen --p 2 --kind sum --level 3 --out ./tables':
        (0, 'TABLE: p=2 kind=sum level=3\n'
            'TERMS: 2 3 8 40\n'
            'DIGEST: c92fb04d36c4875d1cb64583bf1af1184b2f3cf2c387cf34ff44ac47b3eeb863\n'
            'DIR: ./tables\n'),
    'poly dump --p 2 --kind product --level 1':
        (0, 'P_0 = X0*Y0\n'
            'P_1 = X0^2*Y1+X1*Y0^2+2*X1*Y1\n'),
    "rw embed --base 'rw p=3 e=1 eis=(X^2-3) prec=8' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=6 depth_2=0 laurent=true' --expr 'x^(1/3)'":
        (0, 'RW[base=b0, N=8]{ W{x^(1/3);0;0;0;0} | W{0;0;0;0;0} }\n'),
    "rw expand --base 'rw p=3 e=1 eis=(X^2-3) prec=6' --ring 'ff p=3 e=1' --x 'RW[base=b0, N=6]{ W{1;0;0;0} | W{1;0;0;0} }'":
        (0, 'DIGITS[6]{1;1;0;0;0;0}\n'),
    "hensel lift --base 'rw p=3 e=1 eis=(X^2-3) prec=8' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=10 depth_2=1 laurent=true' --poly 'X^2-(p+x)' --seed-digit 'x^(1/2)' --prec 8":
        (0, 'DIGITS[8]{x^(1/2);0;2*x^(-1/2);0;2*x^(-1/2)+x^(-3/2);0;'
            '2*x^(-1/2)+2*x^(-5/6)+x^(-7/6)+x^(-5/2);0}\n'
            'STEP 0: window=2 ord>=2 dord=0\n'
            'STEP 1: window=4 ord>=4 dord=0\n'
            'STEP 2: window=8 ord>=8 dord=0\n'),
    "frob report --ring 'uq base=(ff p=3 e=1) var=T modulus=T^9'":
        (0, 'KIND: perfection\n'
            'RING: uq base=(ff p=3 e=1) var=T modulus=T^9\n'
            'BUDGET: 4\n'
            'INJECTIVE_UP_TO: 0\n'
            'SURJECTIVE_UP_TO: 0\n'
            'KERNEL_GENERATORS: T^3\n'
            'WITNESS: injectivity T^3 (kernel generator, p-th power vanishes)\n'
            'WITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))\n'
            'VERDICT: PASS\n'),
    'frob tower --p 2 --depth 3':
        (0, 'KIND: semiperfect-tower\n'
            'P: 2\n'
            'DEPTH: 3\n'
            'MODEL: mod-p shadow of Z[T]/(T^(p^M) - p); finite stage of a colimit, not the colimit itself\n'
            'ITEM pi-power-vanishes: PASS (pi^p = 0 = image of p)\n'
            'ITEM kernel-principal: PASS (generator u^4 vs pi, sample h^p=0 <=> pi|h)\n'
            'ITEM residue-iso: PASS (basis images distinct, homomorphism, phi(x mod pi) = x^p)\n'
            'ITEM cross-level-roots: PASS (u -> u^p is a homomorphism; images acquire verified roots)\n'
            'VERDICT: PASS\n'),
    "fontaine mul --ring 'uq base=(ff p=2 e=1) var=u modulus=u^8' --x 'FONT{u^4;u^2;u}' --y 'FONT{u^4;u^2;u}'":
        (0, 'FONT{0;u^4;u^2}\n'),
}

# command -> {file it writes, relative to its directory: sha256}
WRITTEN = {
    'poly gen --p 2 --kind sum --level 3 --out ./tables':
        {'tables/tables/p2_sum_l3.json':
         '5810b7ab1e70daba1f828cd516c8b892a0a50ece8912d585a1ed97b908871737'},
}


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out, err = StringIO(), StringIO()
    code = cli.main(shlex.split(command), stdout=out, stderr=err)
    assert (code, out.getvalue()) == GOLDEN[command], err.getvalue()
    for name, digest in WRITTEN.get(command, {}).items():
        data = (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


HENSEL = next(c for c in GOLDEN if c.startswith("hensel lift "))
# the README `hensel lift` example's strict p-ring conversions: read-backs
# (``_from_perf``, one per Witt result whose coordinates are read) and
# embeddings (``_to_perf``, one per vector built from coordinates that a
# strict op takes)
HENSEL_READ_BACKS = 13
HENSEL_EMBEDDINGS = 9


def test_readme_hensel_lift_solve_count(monkeypatch):
    """The README `hensel lift` example prints its pinned stdout with at most
    HENSEL_READ_BACKS read-backs and HENSEL_EMBEDDINGS embeddings, and no
    lift-route solve, since its frac ring takes the strict p-ring route.  A
    count does not flake as a timing does.  It catches a change that brings
    back Witt arithmetic on zero operands (94 lift solves before
    ``witt_core.witt_arith`` answered them without a route) or a conversion
    per Witt op (13 read-backs and 26 embeddings before results carried
    their image).  With the coordinate-union sum and the single-coordinate
    product the lift took 10 read-backs and 12 embeddings; without them
    sparse results stay strict images, so it takes 13 and 9."""
    calls = []

    def counting(name):
        step = getattr(wc, name)

        def counted(*args):
            calls.append(name)
            return step(*args)
        return counted

    for name in ("_from_perf", "_to_perf", "_lift_solve"):
        monkeypatch.setattr(wc, name, counting(name))
    out, err = StringIO(), StringIO()
    code = cli.main(shlex.split(HENSEL), stdout=out, stderr=err)
    assert (code, out.getvalue()) == GOLDEN[HENSEL], err.getvalue()
    assert 0 < calls.count("_from_perf") <= HENSEL_READ_BACKS
    assert calls.count("_to_perf") <= HENSEL_EMBEDDINGS
    assert "_lift_solve" not in calls
