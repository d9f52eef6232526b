"""Command-line surface: outputs, exit codes, warnings, trace files."""

import contextlib
import dataclasses
import io
import os
import subprocess
import sys
import tracemalloc

import pytest

from kbgb import ReductionBudgetExceeded, correspondence, ncpoly, rewriting
from kbgb.cli import main as cli_main

from helpers import run_cli

BASIC = """\
mode: sgp
alphabet: a b
order: shortlex a < b
rules:
  b.a -> a.b
"""

ABA_B = """\
mode: sgp
alphabet: a b
order: shortlex a < b
rules:
  a.b.a -> b
"""

MON = BASIC.replace("mode: sgp", "mode: mon")

ALG_BINOMIAL = """\
mode: alg
field: Q
alphabet: a b
order: shortlex a < b
polys:
  b.a - a.b
"""

ALG_GENERAL = """\
mode: alg
alphabet: a b
order: shortlex a < b
polys:
  a.b - a.a - b
"""


# two rules a pass, 82 after 40 passes; the pair records of a pass grow with it
CHAIN = """\
mode: sgp
alphabet: a b c
order: shortlex a < b < c
rules:
  b.b -> a.a
  b.a.a.c -> a.c.c
"""


@pytest.fixture
def pres(tmp_path):
    def write(text, name="input.pres"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


class TestComplete:
    def test_basic(self, pres):
        code, out, err = run_cli(["complete", pres(BASIC)])
        assert code == 0
        assert out == "status: complete passes=1\nrule: b.a -> a.b\n"

    def test_trace_on_stdout(self, pres):
        code, out, _ = run_cli(["complete", pres(ABA_B)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("pass=1 rules=(0,0) kind=SuffixPrefix")
        assert "status: complete passes=2" in lines
        assert lines[-1] == "rule: b.b.a -> a.b.b"

    def test_zero_passes_limit(self, pres):
        code, out, _ = run_cli(["complete", pres(ABA_B), "--max-passes", "0"])
        assert code == 2
        assert "status: limit-exceeded reason=max_passes passes=0" in out

    def test_empty_rules(self, pres):
        code, out, _ = run_cli(["complete", pres("mode: sgp\nalphabet: a\norder: shortlex a\nrules:\n")])
        assert code == 0
        assert out == "status: complete passes=1\n"

    def test_alg_mode_runs_buchberger(self, pres):
        code, out, _ = run_cli(["complete", pres(ALG_BINOMIAL)])
        assert code == 0
        assert "poly: b.a - a.b" in out

    def test_alg_general_polynomials(self, pres):
        code, out, _ = run_cli(["complete", pres(ALG_GENERAL), "--max-passes", "3",
                                "--max-rules", "20", "--max-word-len", "12"])
        assert code in (0, 2)
        assert "status:" in out

    def test_trace_file(self, pres, tmp_path):
        trace = tmp_path / "out.trace"
        code, out, _ = run_cli(["complete", pres(ABA_B), "--trace", str(trace)])
        assert code == 0
        assert trace.read_text() == out


class TestLockstep:
    def test_corresponds(self, pres):
        for text in (BASIC, ABA_B):
            code, out, _ = run_cli(["lockstep", pres(text)])
            assert code == 0
            assert out.rstrip().endswith("VERDICT: Corresponds")

    def test_fields_give_identical_output(self, pres):
        path = pres(ABA_B)
        outputs = []
        for field in ("Q", "F3"):
            code, out, _ = run_cli(["lockstep", path, "--field", field])
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_limit_exit_code_and_truncation_lines(self, pres):
        code, out, _ = run_cli(["lockstep", pres(ABA_B), "--max-rules", "1"])
        assert code == 2
        assert "limit: engine=rewriting pass=1 reason=max_rules" in out
        assert "limit: engine=ncpoly pass=1 reason=max_rules" in out
        assert out.rstrip().endswith("VERDICT: LimitExceeded reason=max_rules")

    def test_alg_binomial_file(self, pres):
        code, out, _ = run_cli(["lockstep", pres(ALG_BINOMIAL)])
        assert code == 0
        assert "final rule: b.a -> a.b" in out

    def test_alg_non_binomial_is_input_error(self, pres):
        code, _, err = run_cli(["lockstep", pres(ALG_GENERAL)])
        assert code == 1
        assert "two-term" in err


class TestNf:
    def test_example(self, pres):
        code, out, _ = run_cli(["nf", pres(BASIC), "b.a.b"])
        assert code == 0
        assert out == "a.b.b\n"

    def test_identity(self, pres):
        code, out, _ = run_cli(["nf", pres(BASIC), "a"])
        assert code == 0
        assert out == "a\n"

    def test_warning_when_incomplete(self, pres):
        code, out, err = run_cli(["nf", pres(ABA_B), "b.a.b", "--max-passes", "1"])
        assert code == 0
        assert "warning" in err and "not be unique" in err
        assert out.strip()

    def test_alg_polynomial_argument(self, pres):
        code, out, _ = run_cli(["nf", pres(ALG_BINOMIAL), "b.a + b"])
        assert code == 0
        assert out == "a.b + b\n"

    def test_unknown_generator(self, pres):
        code, _, err = run_cli(["nf", pres(BASIC), "c"])
        assert code == 1
        assert "unknown generator" in err


class TestEqual:
    def test_examples(self, pres):
        path = pres(BASIC)
        assert run_cli(["equal", path, "ab", "ba"])[1] == "EQUAL\n"
        assert run_cli(["equal", path, "ab", "ab"])[1] == "EQUAL\n"
        assert run_cli(["equal", path, "a", "b"])[1] == "DISTINCT\n"

    def test_alg_monomial_equality(self, pres):
        path = pres(ALG_BINOMIAL)
        assert run_cli(["equal", path, "a.b", "b.a"])[1] == "EQUAL\n"
        assert run_cli(["equal", path, "a", "b"])[1] == "DISTINCT\n"


class TestIsoCheck:
    def test_pass(self, pres):
        code, out, _ = run_cli(["iso-check", pres(BASIC), "-L", "3"])
        assert code == 0
        assert out == (
            "iso: bound=3 field=Q\n"
            "normal-forms: len=1 count=2\n"
            "normal-forms: len=2 count=3\n"
            "normal-forms: len=3 count=4\n"
            "VERDICT: Pass\n"
        )

    def test_inconclusive_on_limits(self, pres):
        code, out, _ = run_cli(["iso-check", pres(ABA_B), "--max-passes", "1"])
        assert code == 2
        assert "VERDICT: Inconclusive" in out

    def test_field_flag(self, pres):
        code, out, _ = run_cli(["iso-check", pres(BASIC), "--field", "F3"])
        assert code == 0
        assert out.startswith("iso: bound=4 field=F3\n")

    def test_alg_binomial_file(self, pres):
        code, out, _ = run_cli(["iso-check", pres(ALG_BINOMIAL), "-L", "3"])
        assert code == 0
        assert out.rstrip().endswith("VERDICT: Pass")

    def test_header_precedes_completion(self, pres, monkeypatch):
        def failing(*args):
            raise ReductionBudgetExceeded("no fixed point within 1 steps")

        monkeypatch.setattr(correspondence, "lockstep_passes", failing)
        code, out, err = run_cli(["iso-check", pres(BASIC), "-L", "3"])
        assert (code, out, err) == (3, "iso: bound=3 field=Q\n",
                                    "error: no fixed point within 1 steps\n")

    @pytest.mark.parametrize("bound, rep", [("1", "b.b"), ("2", "b.b.b")])
    def test_class_without_irreducible_word_fails(self, pres, bound, rep):
        # a weighs more than b.b, so the normal form of a is longer than a
        # and falls outside the bound: check (b) names the first such class
        text = ("mode: sgp\nalphabet: a b\norder: wtlex a=3 b=1\n"
                "precedence: b < a\nrules:\n  a -> b.b\n")
        code, out, _ = run_cli(["iso-check", pres(text), "-L", bound])
        assert code == 3
        assert out.splitlines()[-1] == (
            f"VERDICT: Fail detail=class of {rep} holds 0 irreducible words within length {bound}"
        )


class TestErrorsAndExitCodes:
    def test_parse_error_is_exit_one(self, pres):
        code, _, err = run_cli(["complete", pres("mode: sgp\nalphabet: a a\norder: shortlex a\n")])
        assert code == 1
        assert "line 2" in err

    def test_zero_denominator_is_parse_error(self, pres):
        text = ALG_GENERAL.replace("a.b - a.a - b", "1/0*a - b")
        code, out, err = run_cli(["complete", pres(text)])
        assert (code, out, err) == (1, "", "error: line 5: coefficient 1/0 has a zero denominator\n")

    def test_stray_star_is_parse_error(self, pres):
        # a * joins a coefficient to a monomial; a trailing one is not dropped
        text = ALG_GENERAL.replace("a.b - a.a - b", "b.a - 2*")
        code, out, err = run_cli(["complete", pres(text)])
        assert (code, out, err) == (1, "", "error: line 5: malformed term near '2 *'\n")

    def test_missing_right_side_is_parse_error(self, pres):
        # the empty word is written 1; a blank side is not read as it
        text = BASIC.replace("mode: sgp", "mode: mon").replace("b.a -> a.b", "a.a ->")
        code, out, err = run_cli(["complete", pres(text)])
        assert (code, out, err) == (1, "", "error: line 5: empty word; write the empty word as '1'\n")

    def test_missing_file(self):
        code, _, err = run_cli(["complete", "/nonexistent/x.pres"])
        assert code == 1

    def test_usage_error_is_exit_one(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 1

    def test_misoriented_rule_is_exit_one(self, pres):
        text = BASIC.replace("b.a -> a.b", "a.b -> b.a")
        code, _, err = run_cli(["complete", pres(text)])
        assert code == 1
        assert "oriented" in err

    @pytest.mark.parametrize("command", [
        ["complete"], ["lockstep"], ["nf", "b.a"], ["equal", "a", "b"], ["iso-check"],
    ], ids=lambda command: command[0])
    def test_bad_field_flag(self, pres, command):
        code, out, err = run_cli([command[0], pres(BASIC), *command[1:], "--field", "F6"])
        assert code == 1
        assert out == ""
        assert err == "error: modulus is not prime: 6\n"

    @pytest.mark.parametrize("command", [
        ["complete"], ["lockstep"], ["nf", "b.a"], ["equal", "a", "b"], ["iso-check"],
    ], ids=lambda command: command[0])
    def test_member_vanishing_over_field_flag(self, pres, command):
        text = ALG_BINOMIAL.replace("b.a - a.b", "b.a - a.b\n  3*a")
        code, out, err = run_cli([command[0], pres(text), *command[1:], "--field", "F3"])
        assert (code, out, err) == (1, "", "error: polynomial 2 (3*a) is zero over F3\n")

    @pytest.mark.parametrize("command", [
        ["complete"], ["lockstep"], ["nf", "b.a"], ["equal", "a", "b"], ["iso-check"],
    ], ids=lambda command: command[0])
    def test_member_denominator_vanishing_over_field_flag(self, pres, command):
        text = ALG_BINOMIAL.replace("b.a - a.b", "1/3*a - b")
        code, out, err = run_cli([command[0], pres(text), *command[1:], "--field", "F3"])
        assert (code, out, err) == (
            1, "", "error: polynomial 1 (-b + 1/3*a): denominator of 1/3 vanishes mod 3\n"
        )

    @pytest.mark.parametrize("field, code, message", [
        ("F1000000000000000003", 0, ""),
        ("F1000000016000000063", 1, "modulus is not prime: 1000000016000000063"),
        ("F18446744073709551629", 1, "modulus must be below 2**64: 18446744073709551629"),
    ], ids=["prime", "composite", "too-large"])
    def test_large_field_modulus(self, pres, field, code, message):
        # decided in bounded time, from the flag and from a field: line alike
        flag_code, _, flag_err = run_cli(["complete", pres(ABA_B), "--field", field])
        text = ABA_B.replace("mode: sgp", f"mode: sgp\nfield: {field}")
        line_code, _, line_err = run_cli(["complete", pres(text)])
        assert (flag_code, line_code) == (code, code)
        assert flag_err == (f"error: {message}\n" if message else "")
        assert line_err == (f"error: line 2: {message}\n" if message else "")

    @pytest.mark.parametrize("command", [["nf", "1"], ["equal", "1", "a"], ["equal", "a", "1"]],
                             ids=["nf", "equal-first", "equal-second"])
    def test_empty_word_rejected_in_sgp_mode(self, pres, command):
        code, out, err = run_cli([command[0], pres(BASIC), *command[1:]])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "empty word" in err

    @pytest.mark.parametrize("text", [BASIC.replace("mode: sgp", "mode: mon"), ALG_BINOMIAL],
                             ids=["mon", "alg"])
    def test_empty_word_accepted_in_mon_and_alg_modes(self, pres, text):
        assert run_cli(["nf", pres(text), "1"]) == (0, "1\n", "")
        assert run_cli(["equal", pres(text), "1", "a"]) == (0, "DISTINCT\n", "")

    @pytest.mark.parametrize("text, command, message", [
        (ABA_B, ["nf", "1"], "empty word needs mon mode"),
        (ABA_B, ["equal", "a", "1"], "empty word needs mon mode"),
        (ALG_GENERAL, ["nf", "a*b"], "malformed term near 'a b'"),
        (ALG_GENERAL, ["nf", "1/0*a"], "coefficient 1/0 has a zero denominator"),
        (MON, ["nf", ""], "empty word; write the empty word as '1'"),
        (MON, ["equal", "a", ""], "empty word; write the empty word as '1'"),
        (ALG_GENERAL, ["nf", "2*"], "malformed term near '2 *'"),
        (ALG_GENERAL, ["nf", "*a"], "malformed term near '* a'"),
        (ALG_GENERAL, ["nf", "2**a"], "malformed term near '2 * * a'"),
        (ALG_GENERAL, ["nf", "2*a*"], "malformed term near '2 * a *'"),
    ], ids=["nf", "equal", "alg-nf", "alg-nf-zero-denominator", "nf-blank", "equal-blank",
            "alg-nf-trailing-star", "alg-nf-leading-star", "alg-nf-double-star",
            "alg-nf-star-after-word"])
    def test_bad_query_fails_before_completion(self, pres, text, command, message):
        # --max-passes 0 trips the completion limit, so its warning would
        # come first if the query were parsed after completion
        code, out, err = run_cli([command[0], pres(text), *command[1:], "--max-passes", "0"])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_reduction_budget_is_exit_three(self, pres, monkeypatch):
        real = rewriting.normal_form
        monkeypatch.setattr(
            rewriting, "normal_form", lambda system, word, max_steps=1: real(system, word, max_steps)
        )
        code, out, err = run_cli(["nf", pres(BASIC), "b.a.b.a"])
        assert code == 3
        assert out == ""
        assert err == "error: no fixed point within 1 steps\n"

    def test_closure_violation_is_exit_three(self, pres, monkeypatch):
        real = ncpoly.s_polynomials

        def widened(basis):
            first, *rest = real(basis)
            extra = ncpoly.NcPolynomial.monomial(basis.field, first.match.superposition)
            return [dataclasses.replace(first, raw=first.raw + extra), *rest]

        monkeypatch.setattr(ncpoly, "s_polynomials", widened)
        text = ALG_BINOMIAL.replace("b.a - a.b", "a.b.a - b")
        code, out, err = run_cli(["complete", pres(text)])
        assert code == 3
        assert out == ""
        assert err.startswith("error: two-term closure violated by ")


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, pres, tmp_path):
        path = pres(ABA_B)
        for argv in (
            ["complete", path],
            ["lockstep", path],
            ["nf", path, "b.a.b"],
            ["equal", path, "ab", "ba"],
            ["iso-check", path, "-L", "3"],
        ):
            first = run_cli(argv)
            second = run_cli(argv)
            assert first == second

    def test_subprocess_runs_byte_identical(self, pres, tmp_path):
        path = pres(ABA_B)
        trace = tmp_path / "t.trace"
        cmd = [sys.executable, "-m", "kbgb", "lockstep", path, "--trace", str(trace)]
        first = subprocess.run(cmd, capture_output=True)
        blob1 = trace.read_bytes()
        second = subprocess.run(cmd, capture_output=True)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert blob1 == trace.read_bytes()


class TestStreaming:
    @staticmethod
    def _first_pass(path, command):
        # pass 1's lines, as a one-pass run prints them before its closing lines
        _, out, _ = run_cli([command, path, "--max-passes", "1"])
        return "".join(line for line in out.splitlines(keepends=True)
                       if line.startswith("pass=1 "))

    @pytest.mark.parametrize("command, module", [
        ("lockstep", correspondence), ("complete", rewriting),
    ], ids=["lockstep", "complete"])
    def test_finished_passes_survive_an_engine_error(self, pres, tmp_path, monkeypatch,
                                                     command, module):
        path = pres(ABA_B)  # completes in two passes
        expected = self._first_pass(path, command)
        real, calls = module.kb_pass, []

        def failing_second_pass(state, limits):
            calls.append(state)
            if len(calls) == 2:
                raise ReductionBudgetExceeded("no fixed point within 1 steps")
            return real(state, limits)

        monkeypatch.setattr(module, "kb_pass", failing_second_pass)
        trace = tmp_path / "out.trace"
        code, out, err = run_cli([command, path, "--trace", str(trace)])
        assert (code, out, err) == (3, expected, "error: no fixed point within 1 steps\n")
        assert out.count("\n") > 1 and trace.read_text() == out
        if command == "lockstep":
            assert out.splitlines()[-1] == "pass=1 checks: sources=ok pairs=ok sets=ok"

    def test_closed_stdout_stops_the_run(self, pres, monkeypatch):
        class ClosedAfterFirstPass(io.StringIO):
            def write(self, text):
                if self.getvalue():
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        path = pres(CHAIN)
        expected = self._first_pass(path, "lockstep")
        real, calls = correspondence.kb_pass, []
        monkeypatch.setattr(correspondence, "kb_pass",
                            lambda state, limits: calls.append(state) or real(state, limits))
        out, err = ClosedAfterFirstPass(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["lockstep", path, "--max-passes", "40"])
        assert (code, out.getvalue(), err.getvalue()) == (
            1, expected, "error: [Errno 32] Broken pipe\n")
        assert len(calls) == 2  # the pass whose write failed was the last computed

    def test_closed_pipe_exits_one_without_traceback(self, pres):
        cmd = [sys.executable, "-m", "kbgb", "lockstep", pres(CHAIN), "--max-passes", "40"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"pass=1 ")
            proc.stdout.close()  # what head does after its lines
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert (code, err) == (1, b"error: [Errno 32] Broken pipe\n")

    def test_lockstep_holds_one_pass(self, pres):
        path = pres(CHAIN)

        def peak(max_passes):
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                tracemalloc.start()
                try:
                    assert cli_main(["lockstep", path, "--max-passes", str(max_passes)]) == 2
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        # a run that holds every pass to its end peaks at about 5.6 and 26 MB
        # (ratio 4.6); holding the pass being written and the one being
        # computed, at about 1.5 and 3.5 MB (ratio 2.3)
        assert peak(40) < 3.5 * peak(20)
