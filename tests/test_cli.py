"""Command-line surface: outputs, exit codes, warnings, trace files."""

import contextlib
import dataclasses
import gc
import io
import os
import subprocess
import sys
import tracemalloc
import weakref

import pytest

from kbgb import (
    Alphabet,
    CompletionLimits,
    ReductionBudgetExceeded,
    Word,
    completion,
    correspondence,
    ncpoly,
    parse_presentation,
    rewriting,
)
from kbgb.cli import main as cli_main
from kbgb.completion import PassRecord

from helpers import (
    ROOT,
    child_env,
    record_inserted,
    record_kept,
    record_renders,
    record_search_calls,
    record_searches,
    record_starts,
    record_walk,
    run_cli,
    step_budget,
)
from test_golden import ALG_EXPLODE, ALG_EXPLODE_QUERY

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


COMMUTING3 = (ROOT / "tests" / "corpus" / "commuting3.pres").read_text()

EXPLODE = """\
mode: sgp
alphabet: a b
order: shortlex a < b
rules:
  a.b.a.b -> b.a
"""


CORPUS_FILES = sorted((ROOT / "tests" / "corpus").glob("*.pres"))
CORPUS_LIMIT_ARGS = ["--max-passes", "6", "--max-rules", "48", "--max-word-len", "40"]


class ClosedAfterFirstPass(io.StringIO):
    """A stdout whose reader goes away after the first block is written."""

    def write(self, text):
        if self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


class WriteSizes(io.StringIO):
    """A stdout that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


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

    def test_unwritable_trace_path_fails_before_any_output(self, pres, tmp_path):
        trace = tmp_path / "missing" / "out.trace"
        code, out, err = run_cli(["complete", pres(ABA_B), "--trace", str(trace)])
        assert (code, out) == (1, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(trace)!r}\n"


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

    def test_divergence_exit_code(self, pres, monkeypatch):
        # pass 2 of the polynomial engine returns its basis reversed: the
        # same set, so the translation check holds, but not its own input
        real, calls = correspondence.buchberger_pass, []

        def reversed_second_pass(basis, limits, *carry):
            calls.append(basis)
            nxt, records = real(basis, limits, *carry)
            if len(calls) == 2:
                nxt = dataclasses.replace(nxt, polys=nxt.polys[::-1])
            return nxt, records

        monkeypatch.setattr(correspondence, "buchberger_pass", reversed_second_pass)
        code, out, err = run_cli(["lockstep", pres(ABA_B)])
        assert (code, err) == (3, "")
        assert out.splitlines()[-5:] == [
            "final rule: a.b.a -> b",
            "final rule: b.b.a -> a.b.b",
            "final poly: b.b.a - a.b.b",
            "final poly: a.b.a - b",
            "VERDICT: Divergence pass=2 detail=fixed point on one side only: "
            "rewriting=True polynomials=False",
        ]

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
        assert (code, err) == (1, "error: [Errno 2] No such file or directory: '/nonexistent/x.pres'\n")

    def test_usage_error_is_exit_one(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 1

    def test_misoriented_rule_is_exit_one(self, pres):
        text = BASIC.replace("b.a -> a.b", "a.b -> b.a")
        code, out, err = run_cli(["complete", pres(text)])
        assert (code, out, err) == (1, "", "error: line 5: rule is not oriented descending: a.b->b.a\n")

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

        def lowered(system, word):
            with step_budget(1):
                return real(system, word)

        monkeypatch.setattr(rewriting, "normal_form", lowered)
        code, out, err = run_cli(["nf", pres(BASIC), "b.a.b.a"])
        assert code == 3
        assert out == ""
        assert err == "error: no fixed point within 1 steps\n"

    def test_closure_violation_is_exit_three(self, pres, monkeypatch):
        # every reduced S-polynomial gains the scalar term 1 inside the
        # examination of its pair, where the closure is checked
        real = ncpoly._sum_forms
        unit = Word(Alphabet(("a", "b")), ())

        def widened(form, field, terms):
            return ncpoly.NcPolynomial(field, {**real(form, field, terms).terms, unit: 1})

        monkeypatch.setattr(ncpoly, "_sum_forms", widened)
        text = ALG_BINOMIAL.replace("b.a - a.b", "a.b.a - b")
        code, out, err = run_cli(["complete", pres(text)])
        assert code == 3
        assert out == ""
        # the offending polynomial in the notation of every other output line
        assert err == "error: two-term closure violated by -b.b.a + a.b.b + 1\n"


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
        first = subprocess.run(cmd, capture_output=True, env=child_env())
        blob1 = trace.read_bytes()
        second = subprocess.run(cmd, capture_output=True, env=child_env())
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert blob1 == trace.read_bytes()

    @pytest.mark.parametrize("text, argv", [
        (EXPLODE, ["lockstep", "--max-passes", "4"]),
        (CHAIN, ["lockstep", "--max-passes", "10"]),
        (COMMUTING3, ["iso-check", "-L", "5"]),
        (ALG_EXPLODE, ["complete", "--max-passes", "3"]),
    ], ids=["lockstep-explode", "lockstep-chain", "iso-commuting3", "complete-alg-explode"])
    def test_output_does_not_depend_on_the_hash_seed(self, pres, text, argv):
        # the seed orders the iteration of every set of words or witnesses
        cmd = [sys.executable, "-m", "kbgb", argv[0], pres(text), *argv[1:]]
        runs = [subprocess.run(cmd, capture_output=True, env=dict(child_env(), PYTHONHASHSEED=seed))
                for seed in ("0", "1")]
        assert runs[0].returncode == runs[1].returncode in (0, 2)
        assert runs[0].stdout == runs[1].stdout


def test_import_loads_neither_typing_nor_pathlib():
    # a launch pays only for the modules it runs: a fresh interpreter
    # without site imports kbgb.cli, and the modules that adds are counted
    code = ("import sys; before = set(sys.modules); import kbgb.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=child_env(), check=True)
    loaded = proc.stdout.split()
    assert "kbgb.cli" in loaded
    assert "typing" not in loaded and "pathlib" not in loaded
    if sys.version_info[:2] == (3, 11):  # 64 on Python 3.11.7; other versions load others
        assert len(loaded) <= 64


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

        def failing_second_pass(state, limits, *carry):
            calls.append(state)
            if len(calls) == 2:
                raise ReductionBudgetExceeded("no fixed point within 1 steps")
            return real(state, limits, *carry)

        monkeypatch.setattr(module, "kb_pass", failing_second_pass)
        trace = tmp_path / "out.trace"
        code, out, err = run_cli([command, path, "--trace", str(trace)])
        assert (code, out, err) == (3, expected, "error: no fixed point within 1 steps\n")
        assert out.count("\n") > 1 and trace.read_text() == out
        if command == "lockstep":
            assert out.splitlines()[-1] == "pass=1 checks: sources=ok pairs=ok sets=ok"

    def test_closed_stdout_stops_the_run(self, pres, monkeypatch):
        path = pres(CHAIN)
        expected = self._first_pass(path, "lockstep")
        real, calls = correspondence.kb_pass, []
        monkeypatch.setattr(correspondence, "kb_pass", lambda state, limits, *carry:
                            calls.append(state) or real(state, limits, *carry))
        out, err = ClosedAfterFirstPass(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["lockstep", path, "--max-passes", "40"])
        assert (code, out.getvalue(), err.getvalue()) == (
            1, expected, "error: [Errno 32] Broken pipe\n")
        assert len(calls) == 2  # the pass whose write failed was the last computed

    def test_closed_pipe_exits_one_without_traceback(self, pres):
        cmd = [sys.executable, "-m", "kbgb", "lockstep", pres(CHAIN), "--max-passes", "40"]
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=child_env()) as proc:
            assert proc.stdout.readline().startswith(b"pass=1 ")
            proc.stdout.close()  # what head does after its lines
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert (code, err) == (1, b"error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("command", ["lockstep", "complete"])
    def test_a_pass_is_written_in_blocks(self, pres, command):
        # explode's pass 5 is 3.9 MB of lockstep trace, once one write
        out = WriteSizes()
        with contextlib.redirect_stdout(out):
            assert cli_main([command, pres(EXPLODE), "--max-passes", "5"]) == 2
        longest = max(map(len, out.getvalue().splitlines()))
        assert 1 << 16 <= max(out.sizes) <= (1 << 16) + longest

    def test_last_pass_is_checked_and_written_in_little_memory(self, pres, monkeypatch):
        # tracing starts when the last pass of the polynomial engine returns,
        # so the peak is what checking and writing that pass allocate: about
        # 1.4 MB streamed, 13.1 MB when its source keys, translated rule set,
        # lines, text and bytes are each held whole
        real, calls = correspondence.buchberger_pass, []

        def trace_after_last(basis, limits, *carry):
            result = real(basis, limits, *carry)
            calls.append(None)
            if len(calls) == 5:
                tracemalloc.start()
            return result

        monkeypatch.setattr(correspondence, "buchberger_pass", trace_after_last)
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                assert cli_main(["lockstep", pres(EXPLODE), "--max-passes", "5"]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 5 and peak < 2 << 20, peak

    def test_a_pass_holds_each_distinct_word_once(self):
        # what explode's checked pass 5 holds: with letters as int tuples,
        # 22.8 MiB when every record builds its own raw words, reduced zero
        # and witnesses, 15.2 MiB when a pass builds each distinct one once;
        # 11.6 MiB with each distinct one once and letters as one str, and
        # 11.5 MiB once a polynomial caches no hash (13.6 MiB with fresh raw
        # words)
        pf = parse_presentation(EXPLODE)
        stream = correspondence.lockstep_passes(pf.system(), pf.field,
                                                CompletionLimits(max_passes=5))
        for _ in range(4):
            next(stream)
        tracemalloc.start()
        try:
            last = next(stream)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert last.rewriting.index == 5 and held <= 13 << 20, held

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


class TestSearchCounts:
    # In one in-process run: the words RedexIndex.walk searches, each once
    # in a memo of every word a reduction passes through. The walk row
    # counts the matches RedexIndex.overlaps yields instead, 316 per engine.
    # The starts rows count the walk's trie walks, one per search that
    # matches a path cut after _DEPTH letters: none on explode, 762 on
    # chain's long left sides. The search-calls rows count the searches: one
    # per word searched, and on chain 380 more, each from one letter past a
    # cut start that no left side begins at
    @pytest.mark.parametrize("text, argv, exit_code, record, count", [
        (COMMUTING3, ["iso-check", "-L", "5"], 0, record_searches, 736),
        (EXPLODE, ["lockstep", "--max-passes", "4"], 2, record_searches, 1134),
        (CHAIN, ["lockstep", "--max-passes", "40"], 2, record_searches, 2600),
        (CHAIN, ["lockstep", "--max-passes", "40"], 2, record_walk, 632),
        (EXPLODE, ["lockstep", "--max-passes", "4"], 2, record_starts, 0),
        (CHAIN, ["lockstep", "--max-passes", "40"], 2, record_starts, 762),
        (COMMUTING3, ["iso-check", "-L", "5"], 0, record_search_calls, 736),
        (EXPLODE, ["lockstep", "--max-passes", "4"], 2, record_search_calls, 1134),
        (CHAIN, ["lockstep", "--max-passes", "40"], 2, record_search_calls, 2980),
    ], ids=["iso-commuting3", "lockstep-explode", "lockstep-chain", "walk-lockstep-chain",
            "starts-lockstep-explode", "starts-lockstep-chain", "search-calls-iso-commuting3",
            "search-calls-lockstep-explode", "search-calls-lockstep-chain"])
    def test_pinned(self, pres, monkeypatch, text, argv, exit_code, record, count):
        path = pres(text)
        calls = record(monkeypatch)
        code, _, _ = run_cli([argv[0], path, *argv[1:]])
        assert (code, len(calls)) == (exit_code, count)

    def test_chain_renders_and_indexes_only_what_is_new(self, pres, monkeypatch):
        # of chain's 6,400 records per engine, the 5,700 re-emitted as they
        # were carried reprint their text: 700 are rendered. The next states
        # insert the left sides of the 80 new members into their tries,
        # 3,401 letters, where rebuilding every trie inserted 48,660
        rendered, inserted = record_renders(monkeypatch), record_inserted(monkeypatch)
        code, out, _ = run_cli(["lockstep", pres(CHAIN), "--max-passes", "40"])
        assert (code, out.count(" rules=("), out.count(" polys=(")) == (2, 6400, 6400)
        assert rendered == {"rewriting": 700, "ncpoly": 700}
        assert inserted == {"rewriting": 3401, "ncpoly": 3401}

    def test_chain_reemits_the_same_records_in_both_engines(self, pres, monkeypatch):
        # chain's 40 passes carry 6,084 records into the next pass, 5,928 of
        # them resolved; 5,700 of those weigh less than every new member.
        # Of the 6,400 records per engine, the other 700 are examined
        kept, examined = record_kept(monkeypatch)
        code, out, _ = run_cli(["lockstep", pres(CHAIN), "--max-passes", "40"])
        assert (code, out.count(" rules=("), out.count(" polys=(")) == (2, 6400, 6400)
        assert len(kept["rewriting"]) == 5700
        assert kept["rewriting"] == kept["ncpoly"]
        assert examined == {"rewriting": 700, "ncpoly": 700}

    def test_chain_checks_the_closure_where_a_record_is_made(self, pres, monkeypatch):
        # each of the 82 members is checked once, as it joins a basis, and
        # the raw and reduced polynomial of each of the 700 records examined;
        # a re-emitted record was checked when it was made. Checking every
        # record of every pass took 14,440 calls; checking each pass's input
        # members again took 3,040, 2 + 4 + ... + 80 = 1,640 on the members
        calls = []
        real = ncpoly.is_pm_binomial
        monkeypatch.setattr(ncpoly, "is_pm_binomial", lambda *args: calls.append(1) or real(*args))
        code, _, _ = run_cli(["lockstep", pres(CHAIN), "--max-passes", "40"])
        assert (code, len(calls)) == (2, 82 + 2 * 700)


def _fresh_lines(line):
    """completion.trace_lines without its memo: every record rendered."""
    return lambda p: (line(p.index, rec) for rec in p.records)


class TestReprintedLines:
    # a record re-emitted as the same object reprints the text it had in the
    # pass before; every line must equal the one rendered afresh
    @pytest.mark.parametrize("command", ["lockstep", "complete"])
    @pytest.mark.parametrize("source, extra", [
        (CHAIN, ["--max-passes", "12"]),
        ((ROOT / "perfbench" / "inputs" / "s5.pres").read_text(), []),
    ], ids=["chain", "s5"])
    def test_every_line_equals_a_fresh_one(self, pres, monkeypatch, command, source, extra):
        argv = [command, pres(source), *extra]
        with monkeypatch.context() as patch:
            rendered = record_renders(patch)
            reprinting = run_cli(argv)
        lines = reprinting[1].count(" rules=(") + reprinting[1].count(" polys=(")
        assert 0 < sum(rendered.values()) < lines
        monkeypatch.setattr(completion, "trace_lines", _fresh_lines)
        monkeypatch.setattr(correspondence, "trace_lines", _fresh_lines)
        assert run_cli(argv) == reprinting

    def test_the_renderer_keeps_one_pass_and_never_the_last(self):
        # a resolved record's text is reprinted for the same object in the
        # next pass only; an unresolved one's, or a last pass's, is not kept,
        # and nothing of a pass is held once the next one is written
        class Record:
            def __init__(self, text, new=None):
                self.text, self.new = text, new

        lines = completion.trace_lines(lambda index, rec: f"pass={index} {rec.text}")
        kept, added, other = Record("kept"), Record("added", new="rule"), Record("other")
        assert list(lines(PassRecord(1, (kept, added, other), None))) == \
            ["pass=1 kept", "pass=1 added", "pass=1 other"]
        gone = weakref.ref(other)
        del other
        kept.text = added.text = "changed"
        assert list(lines(PassRecord(2, (kept, added), None))) == \
            ["pass=2 kept", "pass=2 changed"]
        assert gone() is None
        kept.text = "last"
        assert list(lines(PassRecord(3, (kept,), None, "max_passes"))) == ["pass=3 kept"]
        assert list(lines(PassRecord(4, (kept,), None))) == ["pass=4 last"]


def _unreachable_after(argv):
    """What gc.collect() finds after an in-process run of argv with the
    collector off from a clean heap."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(io.StringIO()):
            cli_main(argv)
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestCollectorOff:
    # main runs each command with the cyclic collector off, which is sound
    # only while the engines build no reference cycles: whatever a run leaves
    # for the collector must be what a run of no passes leaves (argparse's).
    # The ALG_EXPLODE rows reduce under a member that is not a binomial
    @pytest.mark.parametrize("argv", [
        *[[command, str(path), *extra, *CORPUS_LIMIT_ARGS]
          for path in CORPUS_FILES
          for command, *extra in (["lockstep"], ["complete"], ["iso-check", "-L", "4"])],
        ["lockstep", "EXPLODE", "--max-passes", "4"],
        ["complete", "ALG_EXPLODE", "--max-passes", "3"],
        ["nf", "ALG_EXPLODE", ALG_EXPLODE_QUERY, "--max-passes", "3"],
    ], ids=lambda argv: f"{argv[0]}-{argv[1].rsplit('/', 1)[-1].removesuffix('.pres')}")
    def test_runs_leave_no_cycles(self, pres, argv):
        inline = {"EXPLODE": EXPLODE, "ALG_EXPLODE": ALG_EXPLODE}
        if argv[1] in inline:
            argv = [argv[0], pres(inline[argv[1]]), *argv[2:]]
        assert _unreachable_after(argv) == _unreachable_after([*argv, "--max-passes", "0"])

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case, exit_code", [
        ("complete", 0), ("usage-error", 1), ("parse-error", 1), ("closed-stdout", 1),
        ("limit", 2), ("engine-error", 3),
    ])
    def test_main_restores_the_collector(self, pres, monkeypatch, enabled, case, exit_code):
        argv = ["lockstep", pres(ABA_B)]
        stdout = io.StringIO()
        if case == "usage-error":
            argv = ["lockstep"]
        elif case == "parse-error":
            argv = ["lockstep", pres("mode: sgp\n")]
        elif case == "closed-stdout":
            argv, stdout = ["lockstep", pres(CHAIN), "--max-passes", "40"], ClosedAfterFirstPass()
        elif case == "limit":
            argv.extend(["--max-passes", "1"])
        elif case == "engine-error":
            def failing_pass(state, limits, *carry):
                raise ReductionBudgetExceeded("no fixed point within 1 steps")

            monkeypatch.setattr(correspondence, "kb_pass", failing_pass)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli_main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            assert (code, gc.isenabled()) == (exit_code, enabled)
        finally:
            (gc.enable if was else gc.disable)()


class TestPerObjectCounts:
    def test_lockstep_runs_no_collection(self, pres):
        path = pres(EXPLODE)
        starts = []

        def count(phase, info):
            # only collections that start inside main: the one that main's
            # handback of the collector makes due runs after it returns
            frame = sys._getframe()
            while frame is not None and frame.f_code is not cli_main.__code__:
                frame = frame.f_back
            if phase == "start" and frame is not None:
                starts.append(info["generation"])

        gc.callbacks.append(count)
        try:
            code, _, _ = run_cli(["lockstep", path, "--max-passes", "4"])
        finally:
            gc.callbacks.remove(count)
        assert (code, starts) == (2, [])

    @pytest.mark.parametrize("symbols, letters, text", [
        ("ab", (), "1"),
        ("ab", (0, 1, 1, 0), "a.b.b.a"),
        (("ab", "c", "d2"), (0, 1, 2, 0), "ab.c.d2.ab"),
    ], ids=["empty", "single-char", "multi-char"])
    def test_dotted_joins_each_word_once(self, symbols, letters, text):
        alphabet = Alphabet(symbols)
        first = Word(alphabet, letters).dotted()
        assert first == (".".join(symbols[ix] for ix in letters) or "1") == text
        # a second word with the same letters gets the first one's string
        assert Word(alphabet, letters).dotted() is first

    def test_alphabets_keep_their_own_dotted_forms(self):
        # the same letters over two alphabets: neither reads the other's text
        ab, xy = Alphabet("ab"), Alphabet("xy")
        assert [Word(ab, (0, 1)).dotted(), Word(xy, (0, 1)).dotted()] == ["a.b", "x.y"]

    def test_dotted_memo_is_bounded(self):
        # 70,000 distinct words of 17 letters over a b, each printed once:
        # the memo starts over when full, and no text goes wrong across it
        alphabet = Alphabet("ab")
        words = [Word(alphabet, tuple(n >> bit & 1 for bit in range(17))) for n in range(70_000)]
        texts = [word.dotted() for word in words]
        assert len(alphabet._dotted) <= 1 << 16
        assert texts == [".".join("ab"[ord(c)] for c in word.letters) for word in words]
        assert [word.dotted() for word in words[:3]] == texts[:3]
