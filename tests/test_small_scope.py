"""Small-scope families: every presentation over {a, b} of a shape, in
lockstep at the corpus limits.

Most bugs already show on small inputs (the small-scope hypothesis), so
each family runs every presentation of its shape: in shortlex, one rule in
sgp mode with sides of at most 3 letters (91 systems), one rule in mon mode
with sides of at most 3 letters (105), and two rules in mon mode with sides
of at most 2 letters (210); in wtlex with weights a=1, b=2, one rule in sgp
mode with sides of at most 3 letters (91). Each rule is oriented by the
oracle's own order key, not the engines'. No run may end in Divergence, and
the final rules of every Corresponds run must pass the engine-free
confluence oracle and, interreduced, equal the reference completion's
reduced complete system. The word-problem oracle ``congruence_partition``
is not used: it stops deepening once its partition has held for two more
letters, and some of these systems need more before two equal words meet.
The same families also run the ``equal`` command after 0, 1 and 2 passes,
where most runs stop at the cap: its EQUAL and DISTINCT answers must match
the reference completion's normal forms, and DISTINCT needs a fixed point.
"""

import dataclasses
import itertools

import pytest

from kbgb import (MONOID, QQ, SEMIGROUP, Alphabet, MonomialOrder, RewriteSystem, Rule,
                  knuth_bendix, lockstep_passes)
from kbgb.presentation import PresentationFile

from conftest import CORPUS_LIMITS
from helpers import reference_systems, render_presentation, run_cli
from oracles import _reduce, all_words, interreduce, is_locally_confluent, letter_key, reference_completion

AB = Alphabet("ab")
WEIGHTS = {"a": 1, "b": 2}


def family(mode, rules, max_side, weights=None):
    """Every system of the given number of rules whose sides are distinct
    words of at most max_side letters, each rule oriented down the oracle's
    key: shortlex, or wtlex under weights."""
    key = letter_key(AB, AB.symbols, weights and [weights[name] for name in AB.symbols])
    order = MonomialOrder(AB, weights=weights)
    words = sorted(all_words(AB, max_side, min_len=0 if mode == MONOID else 1),
                   key=lambda word: key(word.letters))
    oriented = [Rule(big, small) for small, big in itertools.combinations(words, 2)]
    return [RewriteSystem(order, combo, mode)
            for combo in itertools.combinations(oriented, rules)]


FAMILIES = {
    "sgp-one-rule-3": (SEMIGROUP, 1, 3, None),
    "mon-one-rule-3": (MONOID, 1, 3, None),
    "mon-two-rules-2": (MONOID, 2, 2, None),
    "sgp-wtlex-one-rule-3": (SEMIGROUP, 1, 3, WEIGHTS),
}


@pytest.mark.parametrize("mode, rules, max_side, weights, size, completed", [
    (*FAMILIES["sgp-one-rule-3"], 91, 71),
    (*FAMILIES["mon-one-rule-3"], 105, 85),
    (*FAMILIES["mon-two-rules-2"], 210, 210),
    (*FAMILIES["sgp-wtlex-one-rule-3"], 91, 71),
], ids=list(FAMILIES))
def test_family_corresponds_and_completes_confluent(mode, rules, max_side, weights, size, completed):
    systems = family(mode, rules, max_side, weights)
    assert len(systems) == size
    complete = 0
    for system in systems:
        *_, last = lockstep_passes(system, QQ, CORPUS_LIMITS)
        rendered = [rule.render() for rule in system.rules]
        assert last.verdict != "Divergence", (rendered, last.detail)
        if last.verdict == "Corresponds":
            complete += 1
            final = last.rewriting.state
            assert is_locally_confluent(final), rendered
            reduced, reference = reference_systems(system, final)
            assert reduced == reference, rendered
    assert complete == completed


# word pairs for the equal command; system k of a family asks pairs k and k + 1
EQUAL_PAIRS = [("a.b", "b.a"), ("a.a", "b.b"), ("a.b.a", "b"), ("a.a.a", "a")]
# every system of these families that completes at the corpus limits
# reaches its reference within these caps, which the others break quickly
EQUAL_REFERENCE_CAPS = (6, 16, 8)  # rounds, rules, word length


@pytest.mark.parametrize("family_id", list(FAMILIES))
def test_equal_says_distinct_only_at_a_fixed_point(family_id, tmp_path):
    mode, rules, max_side, weights = FAMILIES[family_id]
    seen = set()
    for k, system in enumerate(family(mode, rules, max_side, weights)):
        path = tmp_path / f"{k}.pres"
        path.write_text(render_presentation(PresentationFile(mode, system.order, rules=system.rules)))
        order = system.order
        key = letter_key(AB, order.precedence, order.weights)
        reference = reference_completion(
            [(rule.lhs.letters, rule.rhs.letters) for rule in system.rules], key, EQUAL_REFERENCE_CAPS)
        for text1, text2 in (EQUAL_PAIRS[k % 4], EQUAL_PAIRS[(k + 1) % 4]):
            w1, w2 = AB.parse_word(text1), AB.parse_word(text2)
            for passes in (0, 1, 2):
                limits = dataclasses.replace(CORPUS_LIMITS, max_passes=passes)
                code, out, _ = run_cli(["equal", str(path), text1, text2,
                                        "--max-passes", str(passes),
                                        "--max-rules", str(limits.max_rules),
                                        "--max-word-len", str(limits.max_word_length)])
                result = knuth_bendix(system, limits)
                where = ([rule.render() for rule in system.rules], text1, text2, passes)
                seen.add(out.split(" ")[0])
                if out in ("EQUAL\n", "DISTINCT\n"):
                    assert code == 0, where
                    assert out == "EQUAL\n" or result.fixed, where
                    # a run that completed has its reference, so every DISTINCT is checked
                    assert reference is not None or not result.fixed, where
                    if reference is not None:
                        same = _reduce(reference, w1.letters) == _reduce(reference, w2.letters)
                        assert out == ("EQUAL\n" if same else "DISTINCT\n"), where
                else:
                    assert not result.fixed, where
                    assert (code, out) == (2, f"UNKNOWN reason={result.limit_reason}\n"), where
    assert seen == {"EQUAL\n", "DISTINCT\n", "UNKNOWN"}


def test_interreduction_is_sequential():
    # simplifying both rules against each other at once would drop both,
    # and with them a.a = a
    key = letter_key(AB, AB.symbols)
    a, b = chr(0), chr(1)
    assert interreduce([(a + b, a), (a + b, b)], key) == [(b, a), (a + a, a)]
