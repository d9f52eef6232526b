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
"""

import itertools

import pytest

from kbgb import MONOID, QQ, SEMIGROUP, Alphabet, MonomialOrder, RewriteSystem, Rule, lockstep_passes

from conftest import CORPUS_LIMITS
from helpers import reference_systems
from oracles import all_words, interreduce, is_locally_confluent, letter_key

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
    return [RewriteSystem(AB, order, combo, mode)
            for combo in itertools.combinations(oriented, rules)]


@pytest.mark.parametrize("mode, rules, max_side, weights, size, completed", [
    (SEMIGROUP, 1, 3, None, 91, 71),
    (MONOID, 1, 3, None, 105, 85),
    (MONOID, 2, 2, None, 210, 210),
    (SEMIGROUP, 1, 3, WEIGHTS, 91, 71),
], ids=["sgp-one-rule-3", "mon-one-rule-3", "mon-two-rules-2", "sgp-wtlex-one-rule-3"])
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


def test_interreduction_is_sequential():
    # simplifying both rules against each other at once would drop both,
    # and with them a.a = a
    key = letter_key(AB, AB.symbols)
    a, b = chr(0), chr(1)
    assert interreduce([(a + b, a), (a + b, b)], key) == [(b, a), (a + a, a)]
