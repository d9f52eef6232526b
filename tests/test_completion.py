"""The pairs a completion pass carries into the next.

A pass attaches its records to the state it builds, and the next pass
reuses their matches and raw pairs and walks only the overlaps that touch
the new members. Every pass of a carried run must examine exactly what a
pass on a fresh copy of its input examines, record by record.
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

from helpers import random_general_basis, random_redex_system, redex_features

F3 = PrimeField(3)
LIMITS = CompletionLimits(max_passes=3, max_rules=30, max_word_length=12)


def fresh_copy(state):
    """The same members, built anew: no carry."""
    if isinstance(state, RewriteSystem):
        return RewriteSystem(state.alphabet, state.order, state.rules, state.mode)
    return Basis(state.alphabet, state.order, state.field, state.polys)


def examine(state):
    return critical_pairs(state) if isinstance(state, RewriteSystem) else s_polynomials(state)


def check_run(start, one_pass, limits=LIMITS):
    """Compare every pass of the run with a pass on a fresh copy of its
    input; the number of records the input state carried in."""
    state, carried = start, 0
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
        if record.index > 1:
            carried += len(state._carry[1])
        state = record.state


def test_fresh_state_has_no_carry():
    system = random_redex_system(random.Random(3))
    nxt, _ = kb_pass(system, LIMITS)
    assert not hasattr(system, "_carry")
    assert not hasattr(fresh_copy(nxt), "_carry")
    assert nxt._carry[0] == len(system.rules)


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
