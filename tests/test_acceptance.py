"""Acceptance suite.

One test per criterion; each prints an ``ACCEPTANCE n (<name>): PASS/FAIL``
line. The corpus (named files plus seeded random systems) comes from
conftest. All tolerances are exact: these are discrete algorithms.
"""

import random
import time

import pytest

from kbgb import (
    QQ,
    Alphabet,
    PrimeField,
    Word,
    knuth_bendix,
    lockstep_passes,
    normal_form,
    parse_presentation,
)

from helpers import pair_matches, run_cli
from oracles import (
    all_words,
    candidate_matches,
    congruence_partition,
    match_set,
    reduction_endpoints,
)

from conftest import CORPUS_LIMITS as LIMITS

LIMIT_FLAGS = [
    "--max-passes", str(LIMITS.max_passes),
    "--max-rules", str(LIMITS.max_rules),
    "--max-word-len", str(LIMITS.max_word_length),
]
# caps that trip on most corpus files (tests/test_golden.py "tight")
TIGHT_FLAGS = ["--max-passes", "6", "--max-rules", "2", "--max-word-len", "3"]
F3 = PrimeField(3)


class criterion:
    """Prints the one-line verdict for a criterion, pass or fail."""

    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"\nACCEPTANCE {self.number} ({self.name}): {verdict}")
        return False


def _load_system(path):
    return parse_presentation(path.read_text()).system()


@pytest.fixture(scope="module")
def complete_instances(corpus_files):
    """Corpus members whose completion finishes within the suite limits."""
    out = []
    for path in corpus_files:
        system = _load_system(path)
        result = knuth_bendix(system, LIMITS)
        if result.fixed:
            out.append((path, system, result.state))
    assert len(out) >= 8
    return out


def test_criterion_1_lockstep_suite(corpus_files):
    with criterion(1, "lockstep suite"):
        assert len(corpus_files) >= 20
        started = time.monotonic()
        for path in corpus_files:
            outputs = {}
            for field in ("Q", "F3"):
                code, out, err = run_cli(
                    ["lockstep", str(path), "--field", field, *LIMIT_FLAGS]
                )
                assert code in (0, 2), f"{path.name} [{field}]: exit {code}\n{out}{err}"
                if code == 0:
                    assert out.rstrip().endswith("VERDICT: Corresponds"), path.name
                else:
                    assert "VERDICT: LimitExceeded" in out, path.name
                    assert "limit: engine=rewriting" in out, path.name
                    assert "limit: engine=ncpoly" in out, path.name
                outputs[field] = out
            # the lockstep report never mentions the field; identical bytes
            # mean identical pass structure, truncation, and final sets
            assert outputs["Q"] == outputs["F3"], path.name
            final_q = [l for l in outputs["Q"].splitlines() if l.startswith("final")]
            final_f3 = [l for l in outputs["F3"].splitlines() if l.startswith("final")]
            assert final_q == final_f3 and final_q, path.name
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"lockstep suite took {elapsed:.1f}s"


def test_criterion_2_confluence_oracle(complete_instances):
    with criterion(2, "confluence oracle"):
        for path, _, system in complete_instances:
            memo = {}
            for word in all_words(system.alphabet, 6):
                endpoints = reduction_endpoints(system, word, memo)
                assert len(endpoints) == 1, f"{path.name}: {word.dotted()} -> {endpoints}"


def test_criterion_3_word_problem_oracle(complete_instances):
    with criterion(3, "word problem oracle"):
        for path, original, system in complete_instances:
            blocks = {}
            for word in all_words(system.alphabet, 5):
                blocks.setdefault(normal_form(system, word), []).append(word)
            by_normal_form = frozenset(frozenset(b) for b in blocks.values())
            by_closure = congruence_partition(original, 5)
            assert by_normal_form == by_closure, path.name


def test_criterion_4_proposition_check(complete_instances):
    with criterion(4, "truncated isomorphism check"):
        for path, _, _ in complete_instances:
            for field in ("Q", "F3"):
                code, out, err = run_cli(
                    ["iso-check", str(path), "-L", "4", "--field", field, *LIMIT_FLAGS]
                )
                assert code == 0, f"{path.name} [{field}]: exit {code}\n{out}{err}"
                assert out.rstrip().endswith("VERDICT: Pass"), path.name


def test_criterion_5_four_match_exactness():
    with criterion(5, "four-match exactness"):
        rng = random.Random(97)
        alphabets = [Alphabet("a"), Alphabet("ab"), Alphabet("abc")]
        for _ in range(1000):
            alpha = rng.choice(alphabets)
            size = len(alpha)
            l1 = Word(alpha, [rng.randrange(size) for _ in range(rng.randint(1, 6))])
            l2 = Word(alpha, [rng.randrange(size) for _ in range(rng.randint(1, 6))])
            assert match_set(pair_matches(l1, l2)) == candidate_matches(l1, l2), (
                l1.dotted(),
                l2.dotted(),
            )


def test_criterion_6_binomial_closure(corpus_files):
    with criterion(6, "two-term closure of S-polynomials"):
        violations = 0
        for path in corpus_files:
            system = _load_system(path)
            for field in (QQ, F3):
                allowed = {field.one, field.neg(field.one)}
                for p in lockstep_passes(system, field, LIMITS):
                    for rec in p.records:
                        for poly in (rec.raw, rec.reduced):
                            if len(poly.terms) > 2 or not all(
                                c in allowed for c in poly.terms.values()
                            ):
                                violations += 1
        assert violations == 0


def test_criterion_7_determinism(corpus_files, tmp_path):
    with criterion(7, "byte-identical reruns"):
        named = [p for p in corpus_files if not p.name.startswith("random_")]
        exits = set()
        for index, path in enumerate(corpus_files):
            commands = [["complete", str(path), *LIMIT_FLAGS],
                        ["lockstep", str(path), *LIMIT_FLAGS]]
            if path in named:
                symbol = _load_system(path).alphabet.symbols[0]
                sample = f"{symbol}.{symbol}"
                commands += [
                    ["nf", str(path), sample, *LIMIT_FLAGS],
                    ["equal", str(path), sample, symbol, *LIMIT_FLAGS],
                    ["iso-check", str(path), "-L", "3", *LIMIT_FLAGS],
                ]
            # capped runs end in exit 2 on most files; the trace file
            # streams alongside stdout on those too
            commands += [["complete", str(path), *TIGHT_FLAGS],
                         ["lockstep", str(path), *TIGHT_FLAGS]]
            for number, argv in enumerate(commands):
                trace = tmp_path / f"{index}_{number}_{argv[0]}.trace"
                full = argv + ["--trace", str(trace)]
                first = run_cli(full)
                blob1 = trace.read_bytes()
                assert blob1 == first[1].encode(), (path.name, argv)
                exits.add(first[0])
                second = run_cli(full)
                assert first == second, (path.name, argv[0])
                assert blob1 == trace.read_bytes(), (path.name, argv[0])
            # an input error prints nothing and creates no trace file
            trace = tmp_path / f"{index}_input_error.trace"
            code, out, _ = run_cli(["iso-check", str(path), "-L", "0", "--trace", str(trace)])
            assert (code, out, trace.exists()) == (1, "", False), path.name
        assert {0, 2} <= exits
