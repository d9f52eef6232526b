"""Golden CLI output: exit codes and output digests pinned across commits.

The manifest ``golden_cli.json`` records, for every invocation below, the
exit code and the sha256 of stdout and stderr. The invocations cover all
five subcommands on the named corpus files, once with the acceptance
limits and once with a cap that trips, plus inline presentations that
reach the alg, mon and wtlex branches, shortlex orders whose precedence
is not the alphabet order, a system with two rules sharing a left side,
and an alg basis of three-term members with non-unit coefficients that
completes in 4 passes over Q and 3 over F3. The explode relation also runs once under its own flags, to pin
reduction against 57 rules with nested left sides, and so does the one-member alg basis
2*a.b.a.b - 5*b.a + 1/2*a, whose third pass reaches members of up to 68 terms, to pin
reduction of many-term polynomials with non-integral coefficients over Q and F5, and so does
the chain system b.b -> a.a, b.a.a.c -> a.c.c, which adds two rules a pass with left sides
of up to 27 letters after 12 passes, to pin overlap detection where most pairs of left sides
do not overlap. Explode at 5 passes and chain at 40 are the benchmark's own lockstep traces:
passes that carry the last pass's pairs into the next, 40 of them on chain, and on explode a
fifth pass of 8,364 pairs, 248 of them carried. The sgp relation a.b.a -> b and its alg
translation a.b.a - b run every subcommand with no pass at all (--max-passes 0), and the sgp
one runs complete and lockstep with one pass, which installs a rule and so ends by the cap,
not at a fixed point. After completing, the alg one also decides one
EQUAL and one DISTINCT pair, and an alg form of commuting3 reduces three terms whose
monomials share one normal form. The benchmark's iso input (commuting3 at -L 5 and -L 7) and
S5 (-L 6) run iso-check on thousands of words whose reductions pass through each other,
and the wtlex rule a -> b.b (a=3, b=1) runs it where reductions lengthen words past the
bound. Regenerate the
manifest (only when an output change is intended) with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from kbgb import parse_presentation

from helpers import ROOT, run_cli

CORPUS_DIR = Path(__file__).parent / "corpus"
MANIFEST = Path(__file__).parent / "golden_cli.json"

# the acceptance limits (conftest.CORPUS_LIMITS), and caps that trip on
# several inputs: max_rules on most of them, max_word_length on wtlex
FLAG_SETS = {
    "limits": ["--max-passes", "6", "--max-rules", "48", "--max-word-len", "40"],
    "tight": ["--max-passes", "6", "--max-rules", "2", "--max-word-len", "3"],
}

INLINE = {
    "alg_general": (
        "mode: alg\nalphabet: a b\norder: shortlex a < b\npolys:\n  a.b - a.a - b\n",
        [["complete"], ["nf", "a.b.b + 2*a"], ["equal", "a.b", "a.a.b"]],
    ),
    "alg_binomial_f3": (
        "mode: alg\nfield: F3\nalphabet: a b\norder: shortlex a < b\n"
        "polys:\n  a.b.a - b\n",
        [["complete"], ["lockstep"], ["nf", "b.a.b.a - a"], ["equal", "b.b.a", "a.b.b"],
         ["iso-check", "-L", "3"]],
    ),
    "mon_s3": (
        "mode: mon\nalphabet: a b\norder: shortlex a < b\n"
        "rules:\n  a.a -> 1\n  b.b.b -> 1\n  b.a.b.a -> 1\n",
        [["complete"], ["lockstep"], ["nf", "b.a.b.b.a"], ["equal", "a.b.a", "b.b"],
         ["iso-check", "-L", "3"]],
    ),
    "wtlex": (
        "mode: sgp\nalphabet: a b\norder: wtlex a=1 b=2\nprecedence: a < b\n"
        "rules:\n  a.a.a -> b.a\n",
        [["complete"], ["lockstep"], ["nf", "a.a.a.a.a"], ["equal", "a.a.a.a", "b.a.a"],
         ["iso-check", "-L", "3"]],
    ),
    "shared_lhs": (
        "mode: sgp\nalphabet: a b c\norder: shortlex a < b < c\nrules:\n  c -> b\n  c -> a\n",
        [["complete"], ["lockstep"], ["nf", "c.b.c"], ["equal", "c", "a"],
         ["iso-check", "-L", "2"]],
    ),
    "shortlex_b_lt_a": (
        "mode: mon\nalphabet: a b\norder: shortlex b < a\n"
        "rules:\n  a.b.a -> b.b\n  b.b.b -> 1\n",
        [["complete"], ["lockstep"], ["nf", "a.b.a.b.a.a"], ["equal", "a.b.a.b", "b.b.b.a"],
         ["iso-check", "-L", "3"]],
    ),
    "shortlex_shuffled3": (
        "mode: sgp\nalphabet: a b c\norder: shortlex c < a < b\n"
        "rules:\n  b.a -> a.b\n  b.c -> c.b\n  a.c.a -> c\n",
        [["complete"], ["lockstep"], ["nf", "b.a.c.b.a.a"], ["equal", "a.c.a.b", "c.b"],
         ["iso-check", "-L", "3"]],
    ),
    "alg_shuffled3": (
        "mode: alg\nalphabet: a b c\norder: shortlex b < c < a\n"
        "polys:\n  a.b - b.a - c\n  c.a - a.c\n",
        [["complete"], ["nf", "a.b.a + 2*c.a.b"], ["equal", "a.b.c", "b.a.c"]],
    ),
    "alg_three_term": (
        "mode: alg\nalphabet: a b\norder: shortlex a < b\n"
        "polys:\n  2*b.a - a.b + 5*a\n  b.b - 2*a.b + 1/2\n",
        [["complete"], ["complete", "--field", "F3"], ["nf", "b.b.a.b + 3*b.a.a - a"],
         ["nf", "b.b.a.b + 3*b.a.a - a", "--field", "F3"]],
    ),
}

EXPLODE = "mode: sgp\nalphabet: a b\norder: shortlex a < b\nrules:\n  a.b.a.b -> b.a\n"
ALG_EXPLODE = "mode: alg\nalphabet: a b\norder: shortlex a < b\npolys:\n  2*a.b.a.b - 5*b.a + 1/2*a\n"
ALG_EXPLODE_QUERY = "b.a.b.a.b.a.b.b.a.b.a + 3*a.b.b.a.b.a.b - b"
BENCH_INPUTS = ROOT / "perfbench" / "inputs"
LENGTHENING = "mode: sgp\nalphabet: a b\norder: wtlex a=3 b=1\nprecedence: a < b\nrules:\n  a -> b.b\n"
CHAIN = "mode: sgp\nalphabet: a b c\norder: shortlex a < b < c\nrules:\n  b.b -> a.a\n  b.a.a.c -> a.c.c\n"
ABA_B = "mode: sgp\nalphabet: a b\norder: shortlex a < b\nrules:\n  a.b.a -> b\n"
ALG_ABA_B = "mode: alg\nalphabet: a b\norder: shortlex a < b\npolys:\n  a.b.a - b\n"
ALG_COMMUTING3 = ("mode: alg\nalphabet: a b c\norder: shortlex a < b < c\n"
                  "polys:\n  b.a - a.b\n  c.a - a.c\n  c.b - b.c\n")
# all five subcommands with no pass run
NO_PASS = [["complete", "--max-passes", "0"], ["lockstep", "--max-passes", "0"],
           ["nf", "b.a.b.a", "--max-passes", "0"], ["equal", "b.a.b.a", "b.b", "--max-passes", "0"],
           ["iso-check", "-L", "3", "--max-passes", "0"]]

# run once each with exactly these arguments: four passes reach 57 rules
OWN_FLAGS = {
    "explode": (
        EXPLODE,
        [["lockstep", "--max-passes", "4"], ["complete", "--max-passes", "4"],
         ["nf", "a.b.b.a.b.a.b.a.a.b.a.b.b.a", "--max-passes", "4"],
         ["lockstep", "--max-passes", "5"]],
    ),
    "alg_explode": (
        ALG_EXPLODE,
        [["complete", "--max-passes", "3"], ["complete", "--max-passes", "3", "--field", "F5"],
         ["nf", ALG_EXPLODE_QUERY, "--max-passes", "3"],
         ["nf", ALG_EXPLODE_QUERY, "--max-passes", "3", "--field", "F5"]],
    ),
    "chain": (
        CHAIN,
        [["lockstep", "--max-passes", "12"], ["complete", "--max-passes", "12"],
         ["lockstep", "--max-passes", "40"]],
    ),
    # pass 1 installs a rule, so a cap of one pass ends the run by the cap
    "aba_b": (
        ABA_B,
        [*NO_PASS, ["complete", "--max-passes", "1"], ["lockstep", "--max-passes", "1"]],
    ),
    # after completion, one EQUAL pair and one DISTINCT pair
    "alg_aba_b": (ALG_ABA_B, [*NO_PASS, ["equal", "b.b.a.a", "a.a.b.b"],
                              ["equal", "a.b.a.b.a", "b.b.b"]]),
    # three terms whose monomials share the normal form a.a.b.b.c.c
    "alg_commuting3": (ALG_COMMUTING3, [["nf", "c.b.a.c.b.a + 2*c.c.b.b.a.a - a.b.c.a.b.c"]]),
    "commuting3": ((BENCH_INPUTS / "commuting3.pres").read_text(),
                   [["iso-check", "-L", "5"], ["iso-check", "-L", "7"]]),
    "s5": ((BENCH_INPUTS / "s5.pres").read_text(), [["iso-check", "-L", "6"]]),
    # a reduces to b.b, so normal forms outgrow the words they reduce
    "lengthening": (LENGTHENING, [["iso-check", "-L", "2"], ["iso-check", "-L", "4"]]),
}


def _corpus_commands(path):
    symbol = parse_presentation(path.read_text()).alphabet.symbols[0]
    sample = f"{symbol}.{symbol}"
    return [["complete"], ["lockstep"], ["nf", sample], ["equal", sample, symbol],
            ["iso-check", "-L", "3"]]


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def golden_outputs(workdir):
    """Run every invocation in-process: {key: [exit code, stdout sha, stderr sha]}."""
    cases = []
    for path in sorted(CORPUS_DIR.glob("*.pres")):
        cases.append((path.name, path, _corpus_commands(path)))
    for name, (text, commands) in INLINE.items():
        path = Path(workdir) / f"{name}.pres"
        path.write_text(text)
        cases.append((name, path, commands))
    out = {}

    def record(key, argv):
        code, stdout, stderr = run_cli(argv)
        out[key] = [code, _digest(stdout), _digest(stderr)]

    for name, path, commands in cases:
        for command in commands:
            for label, flags in FLAG_SETS.items():
                record(" ".join([command[0], name, *command[1:], label]),
                       [command[0], str(path), *command[1:], *flags])
    for name, (text, commands) in OWN_FLAGS.items():
        path = Path(workdir) / f"{name}.pres"
        path.write_text(text)
        for command in commands:
            record(" ".join([command[0], name, *command[1:]]),
                   [command[0], str(path), *command[1:]])
    return out


def test_cli_output_matches_golden_manifest(tmp_path):
    expected = json.loads(MANIFEST.read_text())
    actual = golden_outputs(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [key for key in expected if actual[key] != expected[key]]
    assert changed == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        outputs = golden_outputs(workdir)
    MANIFEST.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(outputs)} entries to {MANIFEST}\n")
