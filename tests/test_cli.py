"""CLI surface: literal codecs, command output, exit codes, determinism."""

import argparse
import os
import random
import re
import shlex
import signal
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

import wittforge.base_rings as br
import wittforge.cli_io as cli
import wittforge.frobenius_lab as fl
import wittforge.witt_core as wc
import wittforge.witt_ramified as rw
from wittforge.errors import IncompatibleSequence, NoRoot, SpecParseError


def run_cli(*argv):
    out, err = StringIO(), StringIO()
    code = cli.main(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


F9 = br.make_field(3, 2)
FRAC = br.make_ring(
    "frac base=(ff p=3 e=1) vars=x depth_p=3 depth_2=1 laurent=true")
BASE = rw.make_ramified_base(3, 1, 2, [-3, 0], 4)
F3 = br.make_field(3, 1)


class TestWittLiteral:
    def test_short_form(self):
        x = cli.parse_witt(F9, "W{1;u;2*u+1}")
        assert x.length == 3
        assert br.format_element(x.coords[1]) == "u"

    def test_header_form(self):
        x = cli.parse_witt(F9, "W[p=3, n=2]{u;0}", 2)
        assert x.length == 2

    def test_header_char_mismatch(self):
        with pytest.raises(SpecParseError, match="characteristic"):
            cli.parse_witt(F9, "W[p=2, n=2]{1;0}")

    def test_header_length_mismatch(self):
        with pytest.raises(SpecParseError, match="n=3"):
            cli.parse_witt(F9, "W[p=3, n=3]{1;0;0}", 2)

    def test_body_length_mismatch(self):
        with pytest.raises(SpecParseError, match="coordinates"):
            cli.parse_witt(F9, "W{1;0;0}", 2)

    def test_not_a_literal(self):
        with pytest.raises(SpecParseError, match="literal"):
            cli.parse_witt(F9, "V{1;0}")

    def test_round_trip_random(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 4)
            x = wc.make_witt(FRAC, [br.random_element(FRAC, rng, max_terms=2)
                                    for _ in range(n)])
            assert cli.parse_witt(FRAC, cli.format_witt(x)) == x


class TestBaseDescriptor:
    def test_parse(self):
        base = cli.parse_base("rw p=3 e=1 eis=(X^2-3) prec=8")
        assert (base.p, base.e, base.f) == (3, 1, 2)
        assert base.level == 5
        assert base.default_precision == 8

    def test_level_covers_requested_precision(self):
        base = cli.parse_base("rw p=2 e=1 eis=(X^3-2) prec=7")
        assert base.f == 3
        assert base.default_precision >= 7

    @pytest.mark.parametrize("eis", ["X^2-(3)", "X*(X)-3"])
    def test_parenthesized_eisenstein(self, eis):
        assert (cli.parse_base(f"rw p=3 e=1 eis=({eis}) prec=8")
                == cli.parse_base("rw p=3 e=1 eis=(X^2-3) prec=8"))

    def test_rejects_garbage(self):
        with pytest.raises(SpecParseError, match="base descriptor"):
            cli.parse_base("rw p=3 eis=(X^2-3)")


class TestRamifiedLiteral:
    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(20):
            x = cli._rand_rw(BASE, F3, rng)
            back = cli.parse_rw(BASE, F3, cli.format_rw(x))
            assert back.coords == x.coords
            assert back.precision == x.precision

    def test_unknown_base_id(self):
        with pytest.raises(SpecParseError, match="b0"):
            cli.parse_rw(BASE, F3, "RW[base=k9, N=4]{ W{1;0;0;0} | W{0;0;0;0} }")

    def test_precision_out_of_range(self):
        with pytest.raises(SpecParseError, match="outside"):
            cli.parse_rw(BASE, F3, "RW[base=b0, N=9]{ W{1;0;0;0} | W{0;0;0;0} }")

    def test_precision_zero_parses(self):
        x = cli.parse_rw(BASE, F3, "RW[base=b0, N=0]{ W{1;0;0;0} | W{0;0;0;0} }")
        assert x.precision == 0
        assert cli.format_rw(x) == "RW[base=b0, N=0]{ W{1;0;0;0} | W{0;0;0;0} }"

    def test_wrong_slot_count(self):
        with pytest.raises(SpecParseError, match="slots"):
            cli.parse_rw(BASE, F3, "RW[base=b0, N=4]{ W{1;0;0;0} }")


class TestDigitAndSequenceLiterals:
    def test_digit_round_trip(self):
        x = rw.rw_from_int(7, BASE, F3)
        d = rw.digit_expand(x, 5)
        back = cli.parse_digits(BASE, F3, str(d))
        assert back.digits == d.digits

    def test_zero_digits_round_trip(self):
        d = rw.digit_expand(rw.rw_from_int(7, BASE, F3), 0)
        assert str(d) == "DIGITS[0]{}"
        assert cli.parse_digits(BASE, F3, str(d)).digits == d.digits == ()

    def test_digit_count_mismatch(self):
        with pytest.raises(SpecParseError, match="digits"):
            cli.parse_digits(BASE, F3, "DIGITS[3]{1;0}")

    def test_fontaine_round_trip(self):
        ring = br.make_ring("uq base=(ff p=2 e=1) var=u modulus=u^8")
        x = fl.fontaine_make(ring, [br.evaluate(ring, t)
                                    for t in ("u^4", "u^2", "u")])
        assert cli.parse_fontaine(ring, str(x)).seq == x.seq

    def test_fontaine_rejects_incompatible(self):
        ring = br.make_ring("uq base=(ff p=2 e=1) var=u modulus=u^8")
        with pytest.raises(IncompatibleSequence):
            cli.parse_fontaine(ring, "FONT{u;u}")


class TestPolyParser:
    RING = br.make_ring(
        "frac base=(ff p=3 e=1) vars=x depth_p=6 depth_2=1 laurent=true")

    def test_quadratic_shape(self):
        coeffs = cli.parse_poly_x(BASE, self.RING, "X^2-(p+x)")
        assert len(coeffs) == 3
        assert rw.rw_is_zero(coeffs[1])
        assert rw.rw_equal(coeffs[2], rw.rw_one(BASE, self.RING))
        want = rw.rw_neg(rw.rw_add(rw.rw_from_int(3, BASE, self.RING),
                                   rw.teich_embed(br.variable(self.RING, "x"),
                                                  BASE)))
        assert rw.rw_equal(coeffs[0], want)

    def test_pi_atom(self):
        coeffs = cli.parse_poly_x(BASE, self.RING, "X-pi")
        assert rw.rw_equal(coeffs[0], rw.rw_neg(rw.rw_pi(BASE, self.RING)))

    def test_juxtaposition(self):
        coeffs = cli.parse_poly_x(BASE, self.RING, "2X+1")
        assert len(coeffs) == 2
        assert rw.rw_equal(coeffs[1], rw.rw_from_int(2, BASE, self.RING))

    def test_fractional_power_on_coefficient_variable(self):
        coeffs = cli.parse_poly_x(BASE, self.RING, "X-x^(1/2)")
        seed = rw.embed_expr(BASE, self.RING, "x^(1/2)")
        assert rw.rw_equal(coeffs[0], rw.rw_neg(seed))

    def test_rejects_negative_x_power(self):
        with pytest.raises(SpecParseError, match="negative"):
            cli.parse_poly_x(BASE, self.RING, "X^(-1)+1")

    def test_rejects_trailing_input(self):
        with pytest.raises(SpecParseError, match="trailing"):
            cli.parse_poly_x(BASE, self.RING, "X+1)")

    def test_leading_zero_coefficients_trimmed(self):
        coeffs = cli.parse_poly_x(BASE, self.RING, "X^2-X^2+X")
        assert len(coeffs) == 2


class TestWittCommands:
    def test_frozen_add(self):
        code, out, _ = run_cli("witt", "add", "--ring", "ff p=2 e=1",
                               "--n", "2", "--x", "W{1;0}", "--y", "W{1;0}")
        assert code == 0
        assert out == "W{0;1}\n"

    def test_mul_matches_library(self):
        code, out, _ = run_cli("witt", "mul", "--ring", "ff p=3 e=1",
                               "--n", "2", "--x", "W{2;1}", "--y", "W{2;2}")
        ring = br.make_field(3, 1)
        want = wc.witt_mul(wc.make_witt(ring, [2, 1]),
                           wc.make_witt(ring, [2, 2]))
        assert code == 0
        assert out == str(want) + "\n"

    def test_teich_and_project(self):
        code, out, _ = run_cli("witt", "teich", "--ring", "ff p=5 e=1",
                               "--n", "3", "--a", "3")
        assert (code, out) == (0, "W{3;0;0}\n")
        code, out, _ = run_cli("witt", "project", "--ring", "ff p=5 e=1",
                               "--n", "3", "--x", "W{3;0;0}")
        assert (code, out) == (0, "3\n")

    def test_header_literal_accepted(self):
        code, out, _ = run_cli("witt", "neg", "--ring", "ff p=3 e=1",
                               "--n", "2", "--x", "W[p=3, n=2]{1;0}")
        assert code == 0
        ring = br.make_field(3, 1)
        assert out == str(wc.witt_neg(wc.make_witt(ring, [1, 0]))) + "\n"

    def test_header_mismatch_is_input_error(self):
        code, _, err = run_cli("witt", "neg", "--ring", "ff p=3 e=1",
                               "--n", "2", "--x", "W[p=2, n=2]{1;0}")
        assert code == 2
        assert "characteristic" in err

    def test_versch_then_divp(self):
        code, out, _ = run_cli("witt", "versch", "--ring", "ff p=2 e=1",
                               "--n", "3", "--x", "W{1;1;0}")
        assert (code, out) == (0, "W{0;1;1}\n")
        # p * (result of dividing) reproduces the truncated vector
        code2, out2, _ = run_cli("witt", "divp", "--ring", "ff p=2 e=1",
                                 "--n", "2", "--x", "W{0;1}")
        assert code2 == 0
        ring = br.make_field(2, 1)
        got = cli.parse_witt(ring, out2)
        assert wc.witt_pmul(got) == wc.make_witt(ring, [0])

    def test_divp_at_length_one_is_refused(self):
        # the quotient would have length 0, and its literal W{} does not
        # parse back
        code, out, err = run_cli("witt", "divp", "--ring", "ff p=3 e=1",
                                 "--n", "1", "--x", "W{0}")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "--n >= 2" in err


class TestRwCommands:
    BASE_TXT = "rw p=3 e=1 eis=(X^2-3) prec=6"

    def test_embed_then_reduce(self):
        ringtxt = ("frac base=(ff p=3 e=1) vars=x depth_p=6 depth_2=0 "
                   "laurent=true")
        code, out, _ = run_cli("rw", "embed", "--base", self.BASE_TXT,
                               "--ring", ringtxt, "--expr", "x^(1/3)")
        assert code == 0
        code, out2, _ = run_cli("rw", "reduce", "--base", self.BASE_TXT,
                                "--ring", ringtxt, "--x", out.strip())
        assert (code, out2) == (0, "x^(1/3)\n")

    def test_expand_assemble_round_trip(self):
        code, out, _ = run_cli("rw", "expand", "--base", self.BASE_TXT,
                               "--ring", "ff p=3 e=1",
                               "--x", "RW[base=b0, N=6]"
                               "{ W{1;0;0;0} | W{1;0;0;0} }")
        assert code == 0
        assert out.startswith("DIGITS[6]{")
        code2, out2, _ = run_cli("rw", "assemble", "--base", self.BASE_TXT,
                                 "--ring", "ff p=3 e=1",
                                 "--digits", out.strip())
        assert code2 == 0
        code3, out3, _ = run_cli("rw", "expand", "--base", self.BASE_TXT,
                                 "--ring", "ff p=3 e=1", "--x", out2.strip())
        assert (code3, out3) == (0, out)

    def test_zero_digits_expand_assemble_round_trip(self):
        args = ("--base", self.BASE_TXT, "--ring", "ff p=3 e=1")
        code, out, _ = run_cli("rw", "expand", *args,
                               "--x", "RW[base=b0, N=6]"
                               "{ W{1;0;0;0} | W{1;0;0;0} }",
                               "--digits", "0")
        assert (code, out) == (0, "DIGITS[0]{}\n")
        code, out2, _ = run_cli("rw", "assemble", *args, "--digits", out.strip())
        assert (code, out2) == (0, "RW[base=b0, N=0]{ W{0;0;0;0} | W{0;0;0;0} }\n")

    @pytest.mark.parametrize("p,prec,expr,out", [
        (5, 10, "1", "RW[base=b0, N=10]{ W{1;0;0;0;0;0;0;0;0;0;0} }\n"),
        (5, 8, "1+pi", "RW[base=b0, N=8]{ W{1;1;0;0;0;0;0;0;0} }\n"),
        (3, 12, "1+pi", "RW[base=b0, N=12]{ W{1;1;0;0;0;0;0;0;0;0;0;0;0} }\n"),
    ])
    def test_deep_base_embeds_within_an_alarm(self, p, prec, expr, out):
        # integers enter W_n through Z/p^n; inverting the ghost map over Z,
        # whose integers grow like m^(p^(n-1)), took 10-90 s on these
        # commands
        base = f"rw p={p} e=1 eis=(X-{p}) prec={prec}"

        def on_alarm(signum, frame):
            raise TimeoutError(f"rw embed over {base!r} ran past 10 s")

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(10)
        try:
            got = run_cli("rw", "embed", "--base", base,
                          "--ring", f"ff p={p} e=1", "--expr", expr)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert got == (0, out, "")

    def test_uncertified_precision_is_input_error(self):
        # E = X^2 - 3 at prec=4 certifies 4 digits: 28 and 1 differ at pi^6
        base, ring = "rw p=3 e=1 eis=(X^2-3) prec=4", "ff p=3 e=1"
        x = "RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }"
        for argv, msg in (
                (("embed", "--expr", "28", "--prec", "8"),
                 "requested 8 digits but only 4 are certified"),
                (("embed", "--expr", "1", "--prec", "-2"),
                 "requested -2 digits but only 4 are certified"),
                (("expand", "--x", x, "--digits", "-1"),
                 "requested -1 digits but only 4 are certified"),
                (("assemble", "--digits", "DIGITS[9]{1;0;0;0;0;0;1;0;0}"),
                 "N=9 outside 0..4 for this base"),
                (("assemble", "--digits", "DIGITS[9]{1;0;0;0;0;0;0;0;0}"),
                 "N=9 outside 0..4 for this base"),
                (("add", "--x", x, "--y", x.replace("N=4", "N=5")),
                 "N=5 outside 0..4 for this base")):
            code, out, err = run_cli("rw", argv[0], "--base", base, "--ring", ring,
                                     *argv[1:])
            assert (code, out, err) == (2, "", f"error: {msg}\n")

    def test_ring_off_the_base_is_input_error(self):
        code, out, err = run_cli("rw", "add", "--base", self.BASE_TXT,
                                 "--ring", "ff p=2 e=1",
                                 "--x", "RW[base=b0, N=4]{ W{1;0;0;0} | W{0;0;0;0} }",
                                 "--y", "RW[base=b0, N=4]{ W{1;0;0;0} | W{0;0;0;0} }")
        assert (code, out) == (2, "")
        assert "does not extend the base's F_q" in err

    def test_precision_zero_round_trips(self):
        args = ("--base", self.BASE_TXT, "--ring", "ff p=3 e=1")
        code, out, _ = run_cli("rw", "embed", *args, "--expr", "1+pi", "--prec", "0")
        assert (code, out) == (0, "RW[base=b0, N=0]{ W{1;0;0;0} | W{1;0;0;0} }\n")
        code, out2, _ = run_cli("rw", "frobpi", *args, "--x", out.strip())
        assert (code, out2) == (0, out)

    def test_inv_of_nonunit_is_input_error(self):
        code, _, err = run_cli("rw", "inv", "--base", self.BASE_TXT,
                               "--ring", "ff p=3 e=1",
                               "--x", "RW[base=b0, N=6]"
                               "{ W{0;0;0;0} | W{1;0;0;0} }")
        assert code == 2
        assert "error:" in err


class TestHenselCommand:
    ARGS = ("--base", "rw p=3 e=1 eis=(X^2-3) prec=8",
            "--ring", "frac base=(ff p=3 e=1) vars=x depth_p=10 depth_2=1 "
            "laurent=true")

    def test_square_root_lift_output(self):
        # digit expansion cost grows quickly with the digit count on dense
        # symbolic roots, so the shape test stays at a modest precision
        code, out, _ = run_cli("hensel", "lift", *self.ARGS,
                               "--poly", "X^2-(p+x)",
                               "--seed-digit", "x^(1/2)", "--prec", "5")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("DIGITS[5]{x^(1/2);")
        steps = [ln for ln in lines[1:] if ln.startswith("STEP ")]
        assert len(steps) >= 2
        assert steps[0] == "STEP 0: window=2 ord>=2 dord=0"
        assert steps[-1].endswith("dord=0")

    def test_square_root_of_x_plus_pi_golden(self):
        # the residual's order is certified exactly (ord=1, 2, 4) until the
        # window reaches the requested precision, and only bounded after it
        code, out, _ = run_cli("hensel", "lift", *self.ARGS,
                               "--poly", "X^2-(x+pi)",
                               "--seed-digit", "x^(1/2)", "--prec", "8")
        assert (code, out) == (0, (
            "DIGITS[8]{x^(1/2);2*x^(-1/2);x^(-3/2);2*x^(-1/2)+x^(-5/2);"
            "2*x^(-7/2);2*x^(-1/2)+2*x^(-7/6)+x^(-11/6)+x^(-5/2)+x^(-9/2);"
            "x^(-3/2)+x^(-7/2);2*x^(-1/2)+x^(-17/18)+2*x^(-11/6)+x^(-41/18)"
            "+x^(-49/18)+x^(-53/18)+x^(-61/18)+2*x^(-65/18)+2*x^(-23/6)"
            "+x^(-9/2)}\n"
            "STEP 0: window=2 ord=1 dord=0\n"
            "STEP 1: window=4 ord=2 dord=0\n"
            "STEP 2: window=8 ord=4 dord=0\n"
            "STEP 3: window=8 ord>=8 dord=0\n"))

    def test_seed_with_residual_order_two_golden(self):
        # the residual at the seed already has pi-order 2, so a correction
        # by an inverse of f'(r) that is right mod pi only would gain one
        # order, not two, and the doubling check would refuse
        code, out, _ = run_cli("hensel", "lift",
                               "--base", "rw p=3 e=1 eis=(X^2-3) prec=8",
                               "--ring", "ff p=3 e=1",
                               "--poly", "X^2+pi*X-(1+pi+p)",
                               "--seed-digit", "1", "--prec", "8")
        assert (code, out) == (0, (
            "DIGITS[8]{1;0;2;2;2;0;2;1}\n"
            "STEP 0: window=2 ord>=2 dord=0\n"
            "STEP 1: window=4 ord>=4 dord=0\n"
            "STEP 2: window=8 ord>=8 dord=0\n"))

    @pytest.mark.parametrize("base,ring,poly,digits", [
        ("rw p=3 e=1 eis=(X^2-3) prec=6",
         "uq base=(ff p=3 e=1) var=T modulus=T^2+1", "X^2-(p+T^2)",
         "DIGITS[6]{T;0;T;0;2*T;0}"),
        ("rw p=2 e=1 eis=(X^2-2) prec=6",
         "uq base=(ff p=2 e=1) var=T modulus=T^4", "X^2+X-(p+T^2+T)",
         "DIGITS[6]{T;0;1;0;1;0}"),
    ])
    def test_lift_over_a_uq_ring_golden(self, base, ring, poly, digits):
        code, out, _ = run_cli("hensel", "lift", "--base", base,
                               "--ring", ring, "--poly", poly,
                               "--seed-digit", "T", "--prec", "6")
        assert (code, out) == (0, (
            f"{digits}\n"
            "STEP 0: window=2 ord>=2 dord=0\n"
            "STEP 1: window=4 ord>=4 dord=0\n"
            "STEP 2: window=6 ord>=6 dord=0\n"))

    def test_vanishing_derivative_is_input_error(self):
        code, _, err = run_cli("hensel", "lift", *self.ARGS,
                               "--poly", "X^3-x",
                               "--seed-digit", "x^(1/3)", "--prec", "6")
        assert code == 2
        assert "derivative" in err

    def test_bad_seed_is_input_error(self):
        code, _, err = run_cli("hensel", "lift", *self.ARGS,
                               "--poly", "X^2-(p+x)",
                               "--seed-digit", "x", "--prec", "8")
        assert code == 2
        assert "not a root" in err


class TestPolyCommands:
    def test_dump_known_table(self):
        code, out, _ = run_cli("poly", "dump", "--p", "2",
                               "--kind", "product", "--level", "1")
        assert code == 0
        assert out == "P_0 = X0*Y0\nP_1 = X0^2*Y1+X1*Y0^2+2*X1*Y1\n"

    def test_gen_writes_table_and_digest(self, tmp_path):
        code, out, _ = run_cli("poly", "gen", "--p", "2", "--kind", "sum",
                               "--level", "3", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "tables" / "p2_sum_l3.json").exists()
        digest = [ln for ln in out.splitlines()
                  if ln.startswith("DIGEST: ")][0]
        assert re.fullmatch(r"DIGEST: [0-9a-f]{64}", digest)
        assert "TERMS: 2 3 8 40" in out

    def test_budget_refusal_exit_code(self):
        code, _, err = run_cli("poly", "gen", "--p", "5", "--kind", "sum",
                               "--level", "4")
        assert code == 3
        assert "130941098" in err

    def test_packing_refusal_exit_code(self):
        code, _, err = run_cli("poly", "dump", "--p", "257", "--kind", "negation",
                               "--level", "2")
        assert code == 3
        assert "66049" in err


class TestReportCommands:
    def test_perfection_report_quotient(self):
        code, out, _ = run_cli("frob", "report", "--ring",
                               "uq base=(ff p=3 e=1) var=T modulus=T^9")
        assert code == 0
        assert "KERNEL_GENERATORS: T^3" in out
        assert out.rstrip().endswith("VERDICT: PASS")

    def test_perfection_report_field(self):
        code, out, _ = run_cli("frob", "report", "--ring", "ff p=3 e=2")
        assert code == 0
        assert f"INJECTIVE_UP_TO: {fl.UNBOUNDED}" in out

    def test_tower_report(self):
        code, out, _ = run_cli("frob", "tower", "--p", "2", "--depth", "3")
        assert code == 0
        assert "ITEM kernel-principal: PASS" in out

    def test_quotient_without_monomial_kernel_golden(self):
        # mod=x kills x itself: the one kernel candidate x^ceil(1/p) = x is
        # zero in the ring, so the report takes the "no monomial kernel" arm
        code, out, _ = run_cli(
            "frob", "report", "--ring",
            "frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 laurent=false mod=x")
        assert (code, out) == (0, (
            "KIND: perfection\n"
            "RING: frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 laurent=false mod=x\n"
            "BUDGET: 4\n"
            "INJECTIVE_UP_TO: unbounded-within-budget\n"
            "SURJECTIVE_UP_TO: unbounded-within-budget\n"
            "KERNEL_GENERATORS: none\n"
            "NOTE: no monomial kernel below the quotient exponents\n"
            "VERDICT: PASS\n"))

    @pytest.mark.parametrize("argv,flag", [
        (("report", "--ring", "ff p=3 e=1", "--budget", "-1"), "budget"),
        (("report", "--ring", "ff p=3 e=1", "--samples", "-2"), "samples"),
        (("tower", "--p", "2", "--depth", "2", "--samples", "-3"), "samples"),
        (("tower", "--p", "2", "--depth", "2", "--samples", "0"), "samples"),
    ])
    def test_negative_probe_counts_are_input_errors(self, argv, flag):
        # a negative count probes nothing, so a verdict over it says nothing;
        # the tower's cross-level-roots item is sampled only, so it needs one
        code, out, err = run_cli("frob", *argv)
        assert (code, out) == (2, "")
        least = 1 if argv[0] == "tower" else 0
        assert f"error: {flag} must be >= {least}" in err


class TestFontaineCommands:
    RING = "uq base=(ff p=2 e=1) var=u modulus=u^8"

    def test_make_echoes_canonical_form(self):
        code, out, _ = run_cli("fontaine", "make", "--ring", self.RING,
                               "--seq", "FONT{u^4;u^2;u}")
        assert (code, out) == (0, "FONT{u^4;u^2;u}\n")

    def test_mul(self):
        code, out, _ = run_cli("fontaine", "mul", "--ring", self.RING,
                               "--x", "FONT{u^4;u^2;u}",
                               "--y", "FONT{u^4;u^2;u}")
        assert (code, out) == (0, "FONT{0;u^4;u^2}\n")

    def test_shift_depth_exhaustion_exit_code(self):
        code, _, err = run_cli("fontaine", "shift", "--ring", self.RING,
                               "--x", "FONT{u}", "--dir", "fwd")
        assert code == 3
        assert "deeper" in err


class TestVerifyCommand:
    def test_single_check_passes(self):
        code, out, _ = run_cli("verify", "paper-examples",
                               "--filter", "reduced-quotient")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "SEED: 1729"
        assert lines[1] == "CHECK reduced-quotient [4.8]: PASS"
        assert lines[-1] == "VERDICT: PASS"

    def test_anchor_filter(self):
        code, out, _ = run_cli("verify", "paper-examples", "--filter", "6.4")
        assert code == 0
        assert "CHECK square-root-lift [6.4]: PASS" in out

    def test_unmatched_filter_notes_and_passes(self):
        code, out, _ = run_cli("verify", "paper-examples",
                               "--filter", "zz-nothing")
        assert code == 0
        assert "NOTE: no checks match filter 'zz-nothing'" in out
        assert out.rstrip().endswith("VERDICT: PASS")

    def test_seed_is_printed(self):
        code, out, _ = run_cli("verify", "paper-examples",
                               "--filter", "zz-nothing", "--seed", "7")
        assert code == 0
        assert out.splitlines()[0] == "SEED: 7"

    def test_broken_addition_fails_with_its_first_witness(self, monkeypatch):
        add = wc.witt_add

        def broken_add(x, y):  # zero on W_3(F_5) only
            if br.ring_char(x.ring) == 5 and x.length == 3:
                return wc.witt_zero(x.ring, 3)
            return add(x, y)

        monkeypatch.setattr(wc, "witt_add", broken_add)
        code, out, _ = run_cli("verify", "paper-examples",
                               "--filter", "small-witt-rings")
        assert (code, out) == (1, (
            "SEED: 1729\n"
            "CHECK small-witt-rings [2]: FAIL\n"
            "  WITNESS: unit order below 125 at (p=5, n=3)\n"
            "  REPRO: wittforge verify paper-examples "
            "--filter small-witt-rings --seed 1729\n"
            "VERDICT: FAIL\n"))

    def test_raising_check_is_one_raised_witness(self, monkeypatch):
        def crashes(cfg):
            raise ValueError("boom")
            yield

        monkeypatch.setattr(cli, "CHECKS", (("crashes", "t", crashes),))
        [res] = cli.run_verify_suite()
        assert (res.ok, res.witnesses) == (False, ("raised ValueError: boom",))
        code, out, _ = run_cli("verify", "paper-examples")
        assert code == 1
        assert "CHECK crashes [t]: FAIL\n  WITNESS: raised ValueError: boom\n" in out

    def test_check_stops_at_its_first_witness(self, monkeypatch):
        resumed = []

        def twice(cfg):
            yield "first"
            resumed.append(True)
            yield "second"

        monkeypatch.setattr(cli, "CHECKS", (("twice", "t", twice),))
        code, out, _ = run_cli("verify", "paper-examples")
        assert code == 1
        assert [ln for ln in out.splitlines() if "WITNESS" in ln] == [
            "  WITNESS: first"]
        assert not resumed

    def test_registry_names_are_unique(self):
        names = [name for name, _, _ in cli.CHECKS]
        assert len(set(names)) == len(names)
        assert len(names) == 12


class TestDeterminism:
    COMMANDS = (
        ("witt", "add", "--ring", "ff p=2 e=1", "--n", "2",
         "--x", "W{1;0}", "--y", "W{1;0}"),
        ("eval", "--ring", "frac base=(ff p=3 e=1) vars=x depth_p=2 "
         "depth_2=0 laurent=true", "--expr", "(x+1)*(x-1)"),
        ("poly", "dump", "--p", "3", "--kind", "sum", "--level", "2"),
        ("verify", "paper-examples", "--filter", "reduced-quotient"),
    )

    def test_byte_identical_reruns(self):
        first = [run_cli(*cmd) for cmd in self.COMMANDS]
        second = [run_cli(*cmd) for cmd in self.COMMANDS]
        assert [r[1] for r in first] == [r[1] for r in second]
        assert all(r[0] == 0 for r in first)


class TestModuleEntryPoint:
    def test_python_m_wittforge_matches_main(self):
        argv = ["ring", "check", "--ring", "ff p=3 e=1"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-m", "wittforge", *argv],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})
        code, out, _ = run_cli(*argv)
        assert (proc.returncode, proc.stdout) == (code, out)


class TestExitCodeMapping:
    def test_bad_ring_descriptor(self):
        code, _, err = run_cli("eval", "--ring", "ff p=4 e=1", "--expr", "1")
        assert code == 2
        assert "prime" in err

    @pytest.mark.parametrize("argv,message", [
        (("eval", "--ring", "ff p=3 e=1", "--expr", "(1+"),
         "unexpected end of input in expression"),
        (("eval", "--ring", "ff p=3 e=1", "--expr", "(1"),
         "expected ), got end of input"),
        (("ring", "check", "--ring", "ff p=3"), "expected e=..., got end of input"),
    ], ids=["operand", "paren", "key"])
    def test_parse_errors_name_the_end_of_input(self, argv, message):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert message in err and "None" not in err

    def test_missing_argument(self):
        code, _, _ = run_cli("witt", "mul", "--ring", "ff p=2 e=1",
                             "--n", "2", "--x", "W{1;0}")
        assert code == 2

    def test_square_root_in_a_large_field(self):
        # (4x^2)^(1/2) over F_(1009^2): 2*x, the smaller of the two roots
        code, out, _ = run_cli(
            "eval", "--ring",
            "frac base=(ff p=1009 e=2) vars=x depth_p=0 depth_2=1 laurent=true",
            "--expr", "(4*x^2)^(1/2)")
        assert code == 0
        assert out.strip() == "2*x"

    def test_help_exits_zero(self):
        code, _, _ = run_cli("--help")
        assert code == 0

    LONG = "1" * 5000  # past the 4300 digits int() converts by default
    BASE_TXT = "rw p=3 e=1 eis=(X^2-3) prec=6"
    FRAC3 = "frac base=(ff p=3 e=1) vars=x depth_p=1 depth_2=0 laurent=true"

    @pytest.mark.parametrize("argv", [
        ("eval", "--ring", "ff p=3 e=1", "--expr", LONG),
        ("ring", "check", "--ring", f"ff p={LONG} e=1"),
        ("rw", "embed", "--base", f"rw p=3 e=1 eis=(X^2-3) prec={LONG}",
         "--ring", "ff p=3 e=1", "--expr", "1"),
        ("rw", "expand", "--base", BASE_TXT, "--ring", "ff p=3 e=1",
         "--x", f"RW[base=b0, N={LONG}]{{ W{{1;0;0;0}} | W{{1;0;0;0}} }}"),
        ("eval", "--ring", FRAC3, "--expr", f"x^({LONG}/3)"),
    ], ids=["element", "descriptor", "base", "rw-literal", "exponent"])
    def test_overlong_integer_literal_is_a_parse_error(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, out) == (2, "")
        assert err == "error: integer literal of 5000 digits is too long\n"

    @pytest.mark.parametrize("argv", [
        ("witt", "frob", "--ring", FRAC3, "--n", "1", "--x", "W{x}"),
        ("rw", "frobpi", "--base", BASE_TXT, "--ring", FRAC3,
         "--x", "RW[base=b0, N=6]{ W{x;0;0;0} | W{0;0;0;0} }"),
    ], ids=["witt-frob", "rw-frobpi"])
    def test_frobenius_power_past_printable_exponents_is_refused(self, argv):
        # x^(3^9000) has a 4295-digit exponent and prints; at k = 9100 it
        # would have 4343 digits, and at k = 10^9 p^k alone is 200 MB
        code, out, _ = run_cli(*argv, "--k", "9000")
        assert code == 0 and f"x^{3 ** 9000}" in out
        for k in ("9100", "1000000000"):
            code, out, err = run_cli(*argv, "--k", k)
            assert (code, out) == (3, "")
            assert err.startswith(f"error: Frobenius power k={k} ") and "4300 digits" in err

    def test_taxonomy_mapping(self):
        from wittforge import errors as er
        assert er.DepthExhausted("x").exit_code == 3
        assert er.BudgetExceeded("x").exit_code == 3
        assert er.LevelTooLarge("x").exit_code == 3
        assert er.NoConvergence("x").exit_code == 1
        assert er.NoRoot("x").exit_code == 2
        assert er.SpecParseError("x").exit_code == 2


def _parser_structure(parser, path=("wittforge",)):
    """One line per parser path (depth first, in declaration order) and one
    per action below it: option strings (the dest for a positional), dest,
    type name, default, required, choices and help; a subcommand action
    lists its dest, required and op names with their help.  argparse wraps
    --help to the terminal width, so the structure is pinned, not the text."""
    handler = parser._defaults.get("handler")
    lines = [" ".join(path) + f": description={parser.description!r} "
             f"handler={getattr(handler, '__name__', None)}"]
    subs = []
    for a in parser._actions:
        if isinstance(a, argparse._SubParsersAction):
            helps = {c.dest: c.help for c in a._choices_actions}
            ops = ", ".join(f"{name}={helps.get(name)!r}" for name in a.choices)
            lines.append(f"  SUBCOMMANDS dest={a.dest} required={a.required}: {ops}")
            subs += [(path + (name,), sub) for name, sub in a.choices.items()]
        else:
            lines.append("  " + repr((a.option_strings or a.dest, a.dest,
                                      getattr(a.type, "__name__", a.type),
                                      a.default, a.required, a.choices, a.help)))
    for sub_path, sub in subs:
        lines += _parser_structure(sub, sub_path)
    return lines


def test_parser_structure_golden():
    # recorded from the parser as it was declared branch by branch per op
    golden = Path(__file__).with_name("cli_parser_structure.txt")
    got = _parser_structure(cli.build_parser())
    assert got == golden.read_text().splitlines()
    assert sum(not line.startswith(" ") for line in got) == 40


# Commands that no other test runs: rw add / mul / frobpi / divpi / twist over
# E = X^2-3, X^3-2 at p = 2, X^2-2 over F_4, X^2-3X-3 and X^2-2 at p = 2, on
# ff, frac and uq rings, plus witt frob and fontaine shift, and witt add, mul
# and neg over reduced uq rings over F_2, F_3 and F_5 (split, mixed-degree
# and inert moduli), recorded while the lift route still ran them.  Recorded
# from the CLI: command (its argv, shell-quoted) -> (exit code, stdout).  The five divpi
# lines at p = 2 marked "was" changed only in the top (guard) coordinate of
# their last slot, when the unit -(e_0/p)^-1 became exact for an integer e_0;
# the certified digits are the same.  The divpi and twist lines marked
# "was (3, '')" or "was (2, '')" refused while the uq inverse Frobenius only
# dilated exponents; the two rw expand lines marked so, over non-reduced
# rings, refused on a guard coordinate that no certified digit reads.  The
# rw inv line marked "was" differs from the counted Newton loop's inverse
# only at digit 2*3 + 2 = 8 >= N.
CLI_GOLDEN = {
    "rw add --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'ff p=3 e=1' --x 'RW[base=b0, N=4]{ W{1;2;0} | W{0;1;1} }' --y 'RW[base=b0, N=3]{ W{2;2;1} | W{1;0;2} }'":
        (0, 'RW[base=b0, N=3]{ W{0;1;0} | W{1;1;0} }\n'),
    "rw mul --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'ff p=3 e=1' --x 'RW[base=b0, N=4]{ W{1;2;0} | W{0;1;1} }' --y 'RW[base=b0, N=3]{ W{2;2;1} | W{1;0;2} }'":
        (0, 'RW[base=b0, N=3]{ W{2;0;0} | W{1;1;2} }\n'),
    "rw divpi --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'ff p=3 e=1' --x 'RW[base=b0, N=4]{ W{0;1;2} | W{1;0;1} }'":
        (0, 'RW[base=b0, N=3]{ W{1;0;1} | W{1;2;0} }\n'),
    "rw divpi --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'ff p=3 e=1' --x 'RW[base=b0, N=4]{ W{1;0;0} | W{0;0;0} }'":
        (2, ''),
    "rw frobpi --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true' --x 'RW[base=b0, N=4]{ W{x;0;0} | W{x^(1/3);0;0} }'":
        (0, 'RW[base=b0, N=4]{ W{x^3;0;0} | W{x;0;0} }\n'),
    "rw frobpi --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true' --x 'RW[base=b0, N=4]{ W{x;1;0} | W{x^(1/3);0;0} }' --k -1":
        (0, 'RW[base=b0, N=4]{ W{x^(1/3);1;0} | W{x^(1/9);0;0} }\n'),
    "rw mul --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true' --x 'RW[base=b0, N=4]{ W{x;0;0} | W{1;0;0} }' --y 'RW[base=b0, N=4]{ W{x^(1/3);0;0} | W{0;0;0} }'":
        (0, 'RW[base=b0, N=4]{ W{x^(4/3);0;0} | W{x^(1/3);0;0} }\n'),
    "rw divpi --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true' --x 'RW[base=b0, N=4]{ W{0;x;0} | W{x^(1/3);0;0} }'":
        (0, 'RW[base=b0, N=3]{ W{x^(1/3);0;0} | W{x^(1/3);0;0} }\n'),
    "rw twist --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true' --expr x --n 1":
        (0, 'RW[base=b0, N=4]{ W{x^(13/3);0;0} | W{0;0;0} }\n'),
    "rw twist --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true' --expr 'x^(1/3)' --n 0":
        (0, 'RW[base=b0, N=4]{ W{x^(1/3);0;0} | W{0;0;0} }\n'),
    "rw twist --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'ff p=3 e=1' --expr 1+pi --n 2":
        (0, 'RW[base=b0, N=4]{ W{1;1;2} | W{2;0;2} }\n'),
    "rw mul --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --x 'RW[base=b0, N=4]{ W{T;0;0} | W{T^2;0;0} }' --y 'RW[base=b0, N=4]{ W{T+1;0;0} | W{0;0;0} }'":
        (0, 'RW[base=b0, N=4]{ W{T^2+T;0;0} | W{T^2+T+2;0;0} }\n'),
    "rw divpi --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --x 'RW[base=b0, N=4]{ W{0;T;0} | W{T^2;0;0} }'":
        (0, 'RW[base=b0, N=3]{ W{T^2;0;0} | W{T+1;0;0} }\n'),  # was (3, '')
    "rw frobpi --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --x 'RW[base=b0, N=4]{ W{T;0;0} | W{T^2;1;0} }'":
        (0, 'RW[base=b0, N=4]{ W{T+2;0;0} | W{T^2+T+1;1;0} }\n'),
    "rw add --base 'rw p=2 e=1 eis=(X^3-2) prec=6' --ring 'ff p=2 e=1' --x 'RW[base=b0, N=6]{ W{1;1;0} | W{0;1;1} | W{1;0;1} }' --y 'RW[base=b0, N=6]{ W{1;0;1} | W{1;1;0} | W{0;0;1} }'":
        (0, 'RW[base=b0, N=6]{ W{0;0;0} | W{1;0;0} | W{1;0;0} }\n'),
    "rw mul --base 'rw p=2 e=1 eis=(X^3-2) prec=6' --ring 'ff p=2 e=1' --x 'RW[base=b0, N=6]{ W{1;1;0} | W{0;1;1} | W{1;0;1} }' --y 'RW[base=b0, N=5]{ W{1;0;1} | W{1;1;0} | W{0;0;1} }'":
        (0, 'RW[base=b0, N=5]{ W{1;0;1} | W{1;1;1} | W{1;1;1} }\n'),
    "rw divpi --base 'rw p=2 e=1 eis=(X^3-2) prec=6' --ring 'ff p=2 e=1' --x 'RW[base=b0, N=6]{ W{0;1;1} | W{1;0;1} | W{0;1;0} }'":
        (0, 'RW[base=b0, N=5]{ W{1;0;1} | W{0;1;0} | W{1;1;0} }\n'),  # was W{1;1;1}
    "rw frobpi --base 'rw p=2 e=1 eis=(X^3-2) prec=6' --ring 'ff p=2 e=1' --x 'RW[base=b0, N=6]{ W{1;1;0} | W{0;1;1} | W{1;0;1} }'":
        (0, 'RW[base=b0, N=6]{ W{1;1;0} | W{0;1;1} | W{1;0;1} }\n'),
    "rw mul --base 'rw p=2 e=1 eis=(X^3-2) prec=6' --ring 'uq base=(ff p=2 e=1) var=T modulus=T^3+T+1' --x 'RW[base=b0, N=6]{ W{T;0;0} | W{1;0;0} | W{0;0;0} }' --y 'RW[base=b0, N=6]{ W{T^2;0;0} | W{0;0;0} | W{T;0;0} }'":
        (0, 'RW[base=b0, N=6]{ W{T+1;T^2;0} | W{T^2;0;0} | W{T^2;0;0} }\n'),
    "rw divpi --base 'rw p=2 e=1 eis=(X^3-2) prec=6' --ring 'uq base=(ff p=2 e=1) var=T modulus=T^3+T+1' --x 'RW[base=b0, N=6]{ W{0;T;0} | W{T^2;0;0} | W{0;0;0} }'":
        (0, 'RW[base=b0, N=5]{ W{T^2;0;0} | W{0;0;0} | W{T^2+T;0;0} }\n'),  # was (3, '')
    "rw twist --base 'rw p=2 e=1 eis=(X^3-2) prec=6' --ring 'uq base=(ff p=2 e=1) var=T modulus=T^3+T+1' --expr T+pi --n 1":
        (0, 'RW[base=b0, N=6]{ W{1;1;0} | W{1;0;1} | W{0;1;0} }\n'),  # was (2, '')
    "rw add --base 'rw p=2 e=2 eis=(X^2-2) prec=4' --ring 'ff p=2 e=2' --x 'RW[base=b0, N=4]{ W{u;1;0} | W{0;u+1;1} }' --y 'RW[base=b0, N=4]{ W{u+1;u;1} | W{1;0;u} }'":
        (0, 'RW[base=b0, N=4]{ W{1;u;1} | W{1;u+1;u+1} }\n'),
    "rw mul --base 'rw p=2 e=2 eis=(X^2-2) prec=4' --ring 'ff p=2 e=2' --x 'RW[base=b0, N=4]{ W{u;1;0} | W{0;u+1;1} }' --y 'RW[base=b0, N=4]{ W{u+1;u;1} | W{1;0;u} }'":
        (0, 'RW[base=b0, N=4]{ W{1;u+1;1} | W{u;0;0} }\n'),
    "rw divpi --base 'rw p=2 e=2 eis=(X^2-2) prec=4' --ring 'ff p=2 e=2' --x 'RW[base=b0, N=4]{ W{0;u;1} | W{u;0;1} }'":
        (0, 'RW[base=b0, N=3]{ W{u;0;1} | W{u+1;1;0} }\n'),  # was W{u+1;1;u+1}
    "rw frobpi --base 'rw p=2 e=2 eis=(X^2-2) prec=4' --ring 'ff p=2 e=2' --x 'RW[base=b0, N=4]{ W{u;1;0} | W{0;u+1;1} }'":
        (0, 'RW[base=b0, N=4]{ W{u;1;0} | W{0;u+1;1} }\n'),
    "rw twist --base 'rw p=2 e=2 eis=(X^2-2) prec=4' --ring 'ff p=2 e=2' --expr u+pi --n 1":
        (0, 'RW[base=b0, N=4]{ W{1;u+1;u} | W{u+1;u+1;u} }\n'),
    "rw add --base 'rw p=3 e=1 eis=(X^2-3*X-3) prec=4' --ring 'ff p=3 e=1' --x 'RW[base=b0, N=4]{ W{1;2;0} | W{0;1;1} }' --y 'RW[base=b0, N=4]{ W{2;2;1} | W{1;0;2} }'":
        (0, 'RW[base=b0, N=4]{ W{0;1;0} | W{1;1;0} }\n'),
    "rw mul --base 'rw p=3 e=1 eis=(X^2-3*X-3) prec=4' --ring 'ff p=3 e=1' --x 'RW[base=b0, N=4]{ W{1;2;0} | W{0;1;1} }' --y 'RW[base=b0, N=4]{ W{2;2;1} | W{1;0;2} }'":
        (0, 'RW[base=b0, N=4]{ W{2;0;0} | W{1;1;0} }\n'),
    "rw divpi --base 'rw p=3 e=1 eis=(X^2-3*X-3) prec=4' --ring 'ff p=3 e=1' --x 'RW[base=b0, N=4]{ W{0;1;2} | W{1;0;1} }'":
        (0, 'RW[base=b0, N=3]{ W{1;2;2} | W{1;2;0} }\n'),
    "rw frobpi --base 'rw p=3 e=1 eis=(X^2-3*X-3) prec=4' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true' --x 'RW[base=b0, N=4]{ W{x;0;0} | W{1;0;0} }'":
        (0, 'RW[base=b0, N=4]{ W{x^3;0;0} | W{1;0;0} }\n'),
    "rw divpi --base 'rw p=3 e=1 eis=(X^2-3*X-3) prec=4' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true' --x 'RW[base=b0, N=4]{ W{0;x;0} | W{x^(1/3);0;0} }'":
        (0, 'RW[base=b0, N=3]{ W{x^(1/3);2*x;0} | W{x^(1/3);0;0} }\n'),
    "rw mul --base 'rw p=3 e=1 eis=(X^2-3*X-3) prec=4' --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --x 'RW[base=b0, N=4]{ W{T;0;0} | W{1;0;0} }' --y 'RW[base=b0, N=4]{ W{T^2;0;0} | W{T;0;0} }'":
        (0, 'RW[base=b0, N=4]{ W{T+2;T+2;0} | W{2*T^2;T^2+2*T;1} }\n'),
    "rw divpi --base 'rw p=3 e=1 eis=(X^2-3*X-3) prec=4' --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --x 'RW[base=b0, N=3]{ W{0;T;0} | W{T;0;0} }'":
        (0, 'RW[base=b0, N=2]{ W{T;2*T;0} | W{T+1;0;0} }\n'),  # was (3, '')
    "rw twist --base 'rw p=3 e=1 eis=(X^2-3*X-3) prec=4' --ring 'ff p=3 e=1' --expr 2+pi --n 1":
        (0, 'RW[base=b0, N=4]{ W{2;0;1} | W{0;2;2} }\n'),
    "rw divpi --base 'rw p=2 e=1 eis=(X^2-2) prec=6' --ring 'ff p=2 e=1' --x 'RW[base=b0, N=6]{ W{0;1;0;0} | W{0;0;0;0} }'":
        (0, 'RW[base=b0, N=5]{ W{0;0;0;0} | W{1;0;0;0} }\n'),  # was W{1;0;0;1}
    "rw divpi --base 'rw p=2 e=1 eis=(X^2-2) prec=6' --ring 'ff p=2 e=1' --x 'RW[base=b0, N=6]{ W{0;1;1;0} | W{1;0;1;0} }'":
        (0, 'RW[base=b0, N=5]{ W{1;0;1;0} | W{1;1;0;0} }\n'),  # was W{1;1;0;1}
    "rw divpi --base 'rw p=2 e=1 eis=(X^2-2) prec=6' --ring 'uq base=(ff p=2 e=1) var=T modulus=T^3+T+1' --x 'RW[base=b0, N=6]{ W{0;T^2;0;0} | W{0;0;0;0} }'":
        (0, 'RW[base=b0, N=5]{ W{0;0;0;0} | W{T;0;0;0} }\n'),  # was W{T;0;0;T}
    "rw divpi --base 'rw p=2 e=1 eis=(X^2-2) prec=6' --ring 'uq base=(ff p=2 e=1) var=T modulus=T^3+T+1' --x 'RW[base=b0, N=6]{ W{0;T;T;0} | W{T;0;0;0} }'":
        (0, 'RW[base=b0, N=5]{ W{T;0;0;0} | W{T^2+T;T^2+T;0;0} }\n'),  # was (3, '')
    "rw divpi --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'ff p=3 e=1' --x 'RW[base=b0, N=1]{ W{0;1;2} | W{1;0;1} }'":
        (0, 'RW[base=b0, N=0]{ W{1;0;1} | W{1;2;0} }\n'),
    "rw twist --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true' --expr x --n -1":
        (2, ''),
    "rw frobpi --base 'rw p=3 e=1 eis=(X^2-3) prec=4' --ring 'frac base=(ff p=3 e=1) vars=x depth_p=0 depth_2=0 laurent=true' --x 'RW[base=b0, N=4]{ W{x;0;0} | W{0;0;0} }' --k -1":
        (3, ''),
    "rw expand --base 'rw p=2 e=1 eis=(X^2-2) prec=6' --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4' --x 'RW[base=b0, N=5]{ W{0;0;0;0} | W{T;0;0;T} }'":
        (0, 'DIGITS[5]{0;T;0;0;0}\n'),  # was (3, '')
    "rw expand --base 'rw p=2 e=1 eis=(X^2-2) prec=6' --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4' --x 'RW[base=b0, N=5]{ W{0;0;0;0} | W{T;0;0;0} }'":
        (0, 'DIGITS[5]{0;T;0;0;0}\n'),
    "rw expand --base 'rw p=2 e=1 eis=(X^2-2) prec=6' --ring 'uq base=(ff p=2 e=1) var=T modulus=T^3+T^2' --x 'RW[base=b0, N=5]{ W{0;0;0;0} | W{T;0;0;T} }'":
        (0, 'DIGITS[5]{0;T;0;0;0}\n'),  # was (3, '')
    "rw expand --base 'rw p=2 e=1 eis=(X^2-2) prec=6' --ring 'uq base=(ff p=2 e=1) var=T modulus=T^3+T^2' --x 'RW[base=b0, N=5]{ W{0;0;0;0} | W{T;0;0;0} }'":
        (0, 'DIGITS[5]{0;T;0;0;0}\n'),
    "rw inv --base 'rw p=3 e=1 eis=(X^2-3) prec=6' --ring 'ff p=3 e=1' --x 'RW[base=b0, N=6]{ W{1;0;0;0} | W{1;0;0;0} }'":
        (0, 'RW[base=b0, N=6]{ W{1;1;1;1} | W{2;2;2;2} }\n'),
    "rw inv --base 'rw p=2 e=1 eis=(X^3-2) prec=6' --ring 'ff p=2 e=1' --x 'RW[base=b0, N=6]{ W{1;1;0} | W{0;1;1} | W{1;0;1} }'":
        (0, 'RW[base=b0, N=6]{ W{1;1;1} | W{0;0;0} | W{1;1;0} }\n'),  # was W{1;1;1}
    "witt frob --ring 'ff p=3 e=2' --n 3 --x 'W{u;1;2*u}'":
        (0, 'W{2*u;1;u}\n'),
    "witt frob --ring 'ff p=3 e=2' --n 3 --x 'W{u;1;2*u}' --k -1":
        (0, 'W{2*u;1;u}\n'),
    "witt frob --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true' --n 2 --x 'W{x+1;x^(1/3)}' --k 2":
        (0, 'W{x^9+1;x^3}\n'),
    "witt frob --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=true' --n 2 --x 'W{x;x^2}' --k -2":
        (0, 'W{x^(1/9);x^(2/9)}\n'),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --n 2 --x 'W{T;T^2+1}'":
        (0, 'W{T+2;T^2+T+2}\n'),
    "fontaine shift --ring 'uq base=(ff p=2 e=1) var=u modulus=u^8' --x 'FONT{u^4;u^2;u}' --dir fwd":
        (0, 'FONT{u^2;u}\n'),
    "fontaine shift --ring 'uq base=(ff p=2 e=1) var=u modulus=u^8' --x 'FONT{u^4;u^2;u}' --dir bwd":
        (0, 'FONT{0;u^4;u^2}\n'),
    "fontaine shift --ring 'frac base=(ff p=3 e=1) vars=x depth_p=2 depth_2=0 laurent=false' --x 'FONT{x;x^(1/3)}' --dir bwd":
        (0, 'FONT{x^3;x}\n'),
    "witt add --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --n 6 --x 'W{T^2+2*T+1;2*T^2+T;T+2;2*T^2+1;T^2+T+1;2*T+2}' --y 'W{2*T^2+1;T^2+T;2*T+1;T^2+2*T+2;2;T^2+2}'":
        (0, 'W{2*T+2;2*T^2+2*T+1;0;2*T;T^2+T;T^2+2*T+1}\n'),
    "witt mul --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --n 6 --x 'W{T^2+2*T+1;2*T^2+T;T+2;2*T^2+1;T^2+T+1;2*T+2}' --y 'W{2*T^2+1;T^2+T;2*T+1;T^2+2*T+2;2;T^2+2}'":
        (0, 'W{2*T^2+1;T^2+T;0;2*T^2;2*T^2+T+2;0}\n'),
    "witt add --ring 'uq base=(ff p=3 e=1) var=T modulus=T^4+1' --n 6 --x 'W{T^3+2*T+1;2*T^2+T;T^3+T+2;2*T^3+T^2+1;T^2+T+1;2*T^3+2}' --y 'W{2*T^3+T^2+1;T^2+T;2*T^3+2*T+1;T^3+T^2+2*T+2;2*T;T^3+2}'":
        (0, 'W{T^2+2*T+2;2*T;T^3+T;2*T^3+2*T^2+T;T^3+2*T^2+2*T;2*T+2}\n'),
    "witt mul --ring 'uq base=(ff p=3 e=1) var=T modulus=T^4+1' --n 6 --x 'W{T^3+2*T+1;2*T^2+T;T^3+T+2;2*T^3+T^2+1;T^2+T+1;2*T^3+2}' --y 'W{2*T^3+T^2+1;T^2+T;2*T^3+2*T+1;T^3+T^2+2*T+2;2*T;T^3+2}'":
        (0, 'W{2*T^3+2*T^2+T;T^3;T^3+T^2+2*T;T^3+1;T^3+1;1}\n'),
    "witt neg --ring 'uq base=(ff p=2 e=1) var=T modulus=T^3+T^2+T' --n 5 --x 'W{T^2+1;T;T^2+T;1;T^2}'":
        (0, 'W{T^2+1;1;1;0;T^2+1}\n'),
    "witt mul --ring 'uq base=(ff p=5 e=1) var=T modulus=T^3-1' --n 4 --x 'W{T^2+3*T+1;4*T;2*T^2+1;T+4}' --y 'W{3*T^2+2;T^2+T;4;2*T^2+3*T}'":
        (0, 'W{4*T+1;4*T^2+2*T+4;3*T;4*T^2+2*T+1}\n'),
}


@pytest.mark.parametrize("cmd", sorted(CLI_GOLDEN))
def test_cli_golden(cmd):
    code, out, _ = run_cli(*shlex.split(cmd))
    assert (code, out) == CLI_GOLDEN[cmd]


def _golden_operands(cmd):
    opts = shlex.split(cmd)
    opts = dict(zip(opts[2::2], opts[3::2]))
    base, ring = cli.parse_base(opts["--base"]), br.make_ring(opts["--ring"])
    return base, ring, opts


@pytest.mark.parametrize("cmd", [c for c in sorted(CLI_GOLDEN) if c.startswith("rw divpi")
                                 and "modulus=T^3+" in c and CLI_GOLDEN[c][0] == 0])
def test_uq_field_divpi_goldens_multiply_back(cmd):
    # over F_27 and F_8, where four of these refused while the uq inverse
    # Frobenius only dilated exponents: pi * y = x to y's certified precision,
    # by the shift-and-fold product rather than by division
    base, ring, opts = _golden_operands(cmd)
    y = cli.parse_rw(base, ring, CLI_GOLDEN[cmd][1].strip())
    assert rw.rw_equal(rw.rw_mul_pi(y), cli.parse_rw(base, ring, opts["--x"]))


# digits of each rw inv golden, as the counted Newton loop's inverse expands
INV_DIGITS = {"rw p=3 e=1 eis=(X^2-3) prec=6": "DIGITS[6]{1;2;1;2;1;2}\n",
              "rw p=2 e=1 eis=(X^3-2) prec=6": "DIGITS[6]{1;0;1;1;0;1}\n"}


@pytest.mark.parametrize("cmd", [c for c in sorted(CLI_GOLDEN) if c.startswith("rw inv")])
def test_inv_goldens_keep_their_digits(cmd):
    base, ring, opts = _golden_operands(cmd)
    code, out, _ = run_cli("rw", "expand", "--base", opts["--base"], "--ring", opts["--ring"],
                           "--x", CLI_GOLDEN[cmd][1].strip())
    assert (code, out) == (0, INV_DIGITS[opts["--base"]])
    y = cli.parse_rw(base, ring, CLI_GOLDEN[cmd][1].strip())
    assert rw.rw_equal(rw.rw_mul(y, cli.parse_rw(base, ring, opts["--x"])),
                       rw.rw_one(base, ring))


def test_uq_field_twist_golden():
    # F^-1(a) * a * F(a) for a = T + pi over F_8: its residue is
    # T^4 * T * T^2 = T^7 = 1, and F(F^-1(a)) = a
    cmd = next(c for c in CLI_GOLDEN if c.startswith("rw twist") and "T^3+T+1" in c)
    base, ring, opts = _golden_operands(cmd)
    got = cli.parse_rw(base, ring, CLI_GOLDEN[cmd][1].strip())
    assert rw.reduce_mod_pi(got) == br.pow_int(br.variable(ring, "T"), 7) == br.one(ring)
    a = rw.embed_expr(base, ring, opts["--expr"])
    assert rw.rw_equal(rw.frobenius_pi(rw.frobenius_pi(a, -1), 1), a)


# Univariate quotients: witt frob (forward and inverse), witt divp, eval and
# frob report on F_3[T]/(T^3-T) (reduced, split), F_2[T]/(T^4+T^2) (not
# reduced), F_3[T]/(T^3+2T+1) = F_27, F_4[T]/(T+1) (degree 1, e = 2), plus
# inverse Frobenius on F_3[u]/(u^9), where dilation alone decides.
# Recorded from the CLI: command -> (exit code, stdout, "error:" line of
# stderr or "").
UQ_GOLDEN = {
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --n 3 --x 'W{T;T^2+1;2*T}' --k -2":
        (0, 'W{T;T^2+1;2*T}\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --n 3 --x 'W{T;T^2+1;2*T}' --k -1":
        (0, 'W{T;T^2+1;2*T}\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --n 3 --x 'W{T;T^2+1;2*T}' --k 1":
        (0, 'W{T;T^2+1;2*T}\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --n 3 --x 'W{T;T^2+1;2*T}' --k 2":
        (0, 'W{T;T^2+1;2*T}\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --n 3 --x 'W{T^2+1;T;0}' --k -2":
        (0, 'W{T^2+1;T;0}\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --n 3 --x 'W{T^2+1;T;0}' --k -1":
        (0, 'W{T^2+1;T;0}\n', ''),
    "witt divp --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --n 3 --x 'W{0;T+1;T^2}'":
        (0, 'W{T+1;T^2}\n', ''),
    "eval --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --expr 'T^-1'":
        (2, '', 'error: representative shares a factor with the modulus'),
    "eval --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --expr 'T^(1/2)'":
        (2, '', 'error: fractional powers need an exponent lattice'),
    "eval --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --expr '(T+1)^-1'":
        (2, '', 'error: representative shares a factor with the modulus'),
    "eval --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --expr 'T^7+2*T^5+T'":
        (0, 'T\n', ''),
    "frob report --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3-T' --budget 3 --samples 6 --seed 5":
        (0, 'KIND: perfection\nRING: uq base=(ff p=3 e=1) var=T modulus=T^3+2*T\nBUDGET: 3\nINJECTIVE_UP_TO: unbounded-within-budget\nSURJECTIVE_UP_TO: unbounded-within-budget\nKERNEL_GENERATORS: none\nNOTE: squarefree modulus: Frobenius kernel is trivial\nVERDICT: PASS\n', ''),
    "witt frob --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --n 3 --x 'W{T^2;T^3+1;T}' --k -2":
        (2, '', 'error: not a p^2-th power, p = 2 (decided by an F_2-linear solve)'),
    "witt frob --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --n 3 --x 'W{T^2;T^3+1;T}' --k -1":
        (2, '', 'error: not a p^1-th power, p = 2 (decided by an F_2-linear solve)'),
    "witt frob --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --n 3 --x 'W{T^2;T^3+1;T}' --k 1":
        (0, 'W{T^2;T^2+1;T^2}\n', ''),
    "witt frob --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --n 3 --x 'W{T^2;T^3+1;T}' --k 2":
        (0, 'W{T^2;T^2+1;T^2}\n', ''),
    "witt frob --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --n 3 --x 'W{T^2;1;0}' --k -2":
        (0, 'W{T;1;0}\n', ''),
    "witt frob --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --n 3 --x 'W{T^2;1;0}' --k -1":
        (0, 'W{T;1;0}\n', ''),
    "witt divp --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --n 3 --x 'W{0;T^2;T}'":
        (3, '', 'error: p-th root unavailable: not a p^1-th power, p = 2 (decided by an F_2-linear solve)'),
    "eval --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --expr 'T^-1'":
        (2, '', 'error: representative shares a factor with the modulus'),
    "eval --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --expr 'T^(1/2)'":
        (2, '', 'error: fractional powers need an exponent lattice'),
    "eval --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --expr '(T+1)^-1'":
        (2, '', 'error: representative shares a factor with the modulus'),
    "eval --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --expr 'T^7+2*T^5+T'":
        (0, 'T^3+T\n', ''),
    "frob report --ring 'uq base=(ff p=2 e=1) var=T modulus=T^4+T^2' --budget 3 --samples 6 --seed 5":
        (0, 'KIND: perfection\nRING: uq base=(ff p=2 e=1) var=T modulus=T^4+T^2\nBUDGET: 3\nINJECTIVE_UP_TO: 0\nSURJECTIVE_UP_TO: 0\nKERNEL_GENERATORS: T^2+T\nWITNESS: injectivity T^2+T (kernel generator, p-th power vanishes)\nWITNESS: surjectivity T (no p^1-th root (exact F_p-linear solve))\nVERDICT: PASS\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --n 3 --x 'W{T;T^2+1;2*T}' --k -2":
        (0, 'W{T+2;T^2+T+2;2*T+1}\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --n 3 --x 'W{T;T^2+1;2*T}' --k -1":
        (0, 'W{T+1;T^2+2*T+2;2*T+2}\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --n 3 --x 'W{T;T^2+1;2*T}' --k 1":
        (0, 'W{T+2;T^2+T+2;2*T+1}\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --n 3 --x 'W{T;T^2+1;2*T}' --k 2":
        (0, 'W{T+1;T^2+2*T+2;2*T+2}\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --n 3 --x 'W{T^2+2;0;T}' --k -2":
        (0, 'W{T^2+T;0;T+2}\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --n 3 --x 'W{T^2+2;0;T}' --k -1":
        (0, 'W{T^2+2*T;0;T+1}\n', ''),
    "witt divp --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --n 3 --x 'W{0;T;T^2+1}'":
        (0, 'W{T+1;T^2+2*T+2}\n', ''),
    "eval --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --expr 'T^-1'":
        (0, '2*T^2+1\n', ''),
    "eval --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --expr 'T^(1/2)'":
        (2, '', 'error: fractional powers need an exponent lattice'),
    "eval --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --expr '(T+1)^-1'":
        (0, '2*T^2+T\n', ''),
    "eval --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --expr 'T^7+2*T^5+T'":
        (0, '2*T^2+2*T\n', ''),
    "frob report --ring 'uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1' --budget 3 --samples 6 --seed 5":
        (0, 'KIND: perfection\nRING: uq base=(ff p=3 e=1) var=T modulus=T^3+2*T+1\nBUDGET: 3\nINJECTIVE_UP_TO: unbounded-within-budget\nSURJECTIVE_UP_TO: unbounded-within-budget\nKERNEL_GENERATORS: none\nNOTE: squarefree modulus: Frobenius kernel is trivial\nVERDICT: PASS\n', ''),
    "witt frob --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --n 3 --x 'W{u*T;u+1;T}' --k -2":
        (0, 'W{u;u+1;1}\n', ''),
    "witt frob --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --n 3 --x 'W{u*T;u+1;T}' --k -1":
        (0, 'W{u+1;u;1}\n', ''),
    "witt frob --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --n 3 --x 'W{u*T;u+1;T}' --k 1":
        (0, 'W{u+1;u;1}\n', ''),
    "witt frob --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --n 3 --x 'W{u*T;u+1;T}' --k 2":
        (0, 'W{u;u+1;1}\n', ''),
    "witt frob --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --n 3 --x 'W{u;0;u}' --k -2":
        (0, 'W{u;0;u}\n', ''),
    "witt frob --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --n 3 --x 'W{u;0;u}' --k -1":
        (0, 'W{u+1;0;u+1}\n', ''),
    "witt divp --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --n 3 --x 'W{0;u;u+1}'":
        (0, 'W{u+1;u}\n', ''),
    "eval --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --expr 'T^-1'":
        (0, '1\n', ''),
    "eval --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --expr 'T^(1/2)'":
        (2, '', 'error: fractional powers need an exponent lattice'),
    "eval --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --expr '(T+1)^-1'":
        (2, '', 'error: zero is not invertible'),
    "eval --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --expr 'T^7+2*T^5+T'":
        (0, '0\n', ''),
    "frob report --ring 'uq base=(ff p=2 e=2) var=T modulus=T+1' --budget 3 --samples 6 --seed 5":
        (0, 'KIND: perfection\nRING: uq base=(ff p=2 e=2 modulus=u^2+u+1) var=T modulus=T+1\nBUDGET: 3\nINJECTIVE_UP_TO: unbounded-within-budget\nSURJECTIVE_UP_TO: unbounded-within-budget\nKERNEL_GENERATORS: none\nNOTE: squarefree modulus: Frobenius kernel is trivial\nVERDICT: PASS\n', ''),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=u modulus=u^9' --n 2 --x 'W{u^3+u;0}' --k -1":
        (2, '', 'error: canonical representative is not a p-th power (T-exponent 1 not divisible by 3)'),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=u modulus=u^9' --n 2 --x 'W{u^3;u^6}' --k -2":
        (2, '', 'error: canonical representative is not a p-th power (T-exponent 1 not divisible by 3)'),
    "witt frob --ring 'uq base=(ff p=3 e=1) var=u modulus=u^9' --n 2 --x 'W{u^6+2;u^3}' --k -1":
        (0, 'W{u^2+2;u}\n', ''),
}


@pytest.mark.parametrize("cmd", sorted(UQ_GOLDEN))
def test_uq_golden(cmd):
    code, out, err = run_cli(*shlex.split(cmd))
    line = next((s for s in err.splitlines() if s.startswith("error:")), "")
    assert (code, out, line) == UQ_GOLDEN[cmd]


@pytest.mark.parametrize("argv,code,message", [
    (("--p", "2", "--level", "7", "--kind", "negation"), 3, "level 7 above cap 6"),
    (("--p", "2", "--level", "7", "--kind", "sum"), 3, "level 7 above cap 6"),
    (("--p", "5", "--level", "4", "--kind", "sum"), 3, "130941098"),
    (("--p", "257", "--level", "2", "--kind", "negation"), 3, "16-bit"),
    (("--p", "4", "--level", "1"), 2, "p=4 is not prime"),
])
def test_bench_poly_refuses_before_the_first_level(argv, code, message):
    # the top level's refusal comes first: no LEVEL line is printed, and no
    # lower table (the level-6 sum at p=2 takes minutes) is generated
    got, out, err = run_cli("bench", "poly", *argv)
    assert (got, out) == (code, "")
    assert message in err


@pytest.mark.parametrize("kind,shape", [
    ("sum", ((2, 1), (3, 1), (8, 2))),
    ("product", ((1, 1), (3, 2), (9, 3))),
    ("negation", ((1, 1), (2, 1), (4, 1))),
])
def test_bench_poly_lines(kind, shape):
    # the wall times vary from run to run; everything else is fixed
    code, out, _ = run_cli("bench", "poly", "--p", "2", "--level", "2",
                           "--kind", kind)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == len(shape)
    for level, (line, (terms, bits)) in enumerate(zip(lines, shape)):
        assert re.fullmatch(rf"LEVEL {level}: kind={kind} terms={terms} "
                            rf"peak_bits={bits} wall=\d+\.\d{{3}}s", line)
