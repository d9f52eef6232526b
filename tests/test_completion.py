"""The pairs a completion pass carries into the next.

``passes`` hands each pass the last pass's input and records, its carry,
and the pass reuses their matches and raw pairs and walks only the
overlaps that touch the new members. Every pass of a carried run must
examine exactly what a pass on a fresh copy of its input examines, record
by record, and a pass handed no carry examines the full walk.
"""

import random

import pytest

from kbgb import (
    QQ,
    Basis,
    CompletionLimits,
    PrimeField,
    RewriteSystem,
    buchberger_pass,
    critical_pairs,
    kb_pass,
    rules_to_basis,
    s_polynomials,
)
from kbgb.completion import passes

from helpers import random_general_basis, random_redex_system, record_walk, redex_features

F3 = PrimeField(3)
LIMITS = CompletionLimits(max_passes=3, max_rules=30, max_word_length=12)


def fresh_copy(state):
    """The same members, built anew."""
    if isinstance(state, RewriteSystem):
        return RewriteSystem(state.alphabet, state.order, state.rules, state.mode)
    return Basis(state.alphabet, state.order, state.field, state.polys)


def examine(state):
    return critical_pairs(state) if isinstance(state, RewriteSystem) else s_polynomials(state)


def check_run(start, one_pass, limits=LIMITS):
    """Compare every pass of the run with a pass on a fresh copy of its
    input; the number of records the previous passes carried in."""
    state, carried, previous = start, 0, None
    stream = passes(start, one_pass, limits)
    while True:
        try:
            record = next(stream)
        except StopIteration:
            return carried
        except ValueError as exc:  # a general basis whose ideal holds a unit
            assert "empty leading monomial" in str(exc)
            return carried
        expected = examine(fresh_copy(state))
        assert len(record.records) == len(expected)
        for got, want in zip(record.records, expected):
            assert (got.first, got.second, got.match, got.raw, got.reduced, got.new) == \
                (want.first, want.second, want.match, want.raw, want.reduced, want.new)
        if previous is not None:
            carried += len(previous.records)
        state, previous = record.state, record


def test_pass_without_carry_examines_what_a_fresh_copy_examines(monkeypatch):
    # the state a pass builds holds nothing of that pass: handed no carry,
    # the next pass walks every overlap, as it does on a fresh copy
    walked = record_walk(monkeypatch)
    system = random_redex_system(random.Random(3))
    for start, one_pass in ((system, kb_pass), (rules_to_basis(system, QQ), buchberger_pass)):
        nxt, _ = one_pass(start, LIMITS)
        examined = []
        for state in (nxt, fresh_copy(nxt)):
            walked.clear()
            examined.append((one_pass(state, LIMITS)[1], len(walked)))
        assert examined[0] == examined[1]
        assert examined[0][1] > 0


def test_carried_rewriting_and_binomial_passes_equal_fresh_passes():
    # nested and duplicate left sides under shuffled precedences, in both
    # engines; the binomial bases are the translations of the rule sets
    rng = random.Random(83)
    features = set()
    carried = 0
    for _ in range(20):
        system = random_redex_system(rng)
        features |= redex_features(system)
        carried += check_run(system, kb_pass)
        carried += check_run(rules_to_basis(system, QQ), buchberger_pass)
    assert len(features) == 4
    assert carried > 1000


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
def test_carried_general_passes_equal_fresh_passes(field):
    # three-term members with rational coefficients
    rng = random.Random(101)
    limits = CompletionLimits(max_passes=3, max_rules=20, max_word_length=8)
    carried = sum(check_run(random_general_basis(rng, field), buchberger_pass, limits)
                  for _ in range(8))
    assert carried > 50
