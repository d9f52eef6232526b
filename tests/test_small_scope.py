"""Small-scope families: every presentation over {a, b} in shortlex, in
lockstep at the corpus limits.

Most bugs already show on small inputs (the small-scope hypothesis), so
each family runs every presentation of its shape: one rule in sgp mode with
sides of at most 3 letters (91 systems), one rule in mon mode with sides of
at most 3 letters (105), and two rules in mon mode with sides of at most 2
letters (210). No run may end in Divergence, and the final rules of every
Corresponds run must pass the engine-free confluence oracle. The
word-problem oracle ``congruence_partition`` is not used: it stops
deepening once its partition has held for two more letters, and some of
these systems need more before two equal words meet.
"""

import itertools

import pytest

from kbgb import MONOID, QQ, SEMIGROUP, Alphabet, MonomialOrder, RewriteSystem, Rule, lockstep_passes

from conftest import CORPUS_LIMITS
from oracles import all_words, is_locally_confluent, shortlex_key

AB = Alphabet("ab")
SHORTLEX = MonomialOrder.shortlex(AB)


def family(mode, rules, max_side):
    """Every system of the given number of rules whose sides are distinct
    words of at most max_side letters, each rule oriented down shortlex."""
    words = sorted(all_words(AB, max_side, min_len=0 if mode == MONOID else 1),
                   key=shortlex_key(AB, AB.symbols))
    oriented = [Rule(big, small) for small, big in itertools.combinations(words, 2)]
    return [RewriteSystem(AB, SHORTLEX, combo, mode)
            for combo in itertools.combinations(oriented, rules)]


@pytest.mark.parametrize("mode, rules, max_side, size", [
    (SEMIGROUP, 1, 3, 91),
    (MONOID, 1, 3, 105),
    (MONOID, 2, 2, 210),
], ids=["sgp-one-rule-3", "mon-one-rule-3", "mon-two-rules-2"])
def test_family_corresponds_and_completes_confluent(mode, rules, max_side, size):
    systems = family(mode, rules, max_side)
    assert len(systems) == size
    complete = 0
    for system in systems:
        *_, last = lockstep_passes(system, QQ, CORPUS_LIMITS)
        rendered = [rule.render() for rule in system.rules]
        assert last.verdict != "Divergence", (rendered, last.detail)
        if last.verdict == "Corresponds":
            complete += 1
            assert is_locally_confluent(last.rewriting.state), rendered
    assert complete > size // 2
