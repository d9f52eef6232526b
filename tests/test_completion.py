"""The pairs a completion pass carries into the next.

``passes`` hands each pass the last pass's input and records, its carry,
and ``pair_records``, the pair loop of both engines, reuses their matches
and raw pairs, re-emits the resolved records that no new member can reach,
and walks only the overlaps that touch the new members. Every pass of a
carried run must examine exactly what a pass on a fresh copy of its input
examines, record by record, and a pass handed no carry examines the full
walk.
"""

import random

import pytest

from kbgb import (
    MONOID,
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
from kbgb.completion import pair_records, passes

from helpers import (
    make_system,
    random_general_basis,
    random_redex_system,
    random_wtlex_system,
    record_walk,
    redex_features,
)

F3 = PrimeField(3)
LIMITS = CompletionLimits(max_passes=3, max_rules=30, max_word_length=12)


def fresh_copy(state):
    """The same members, built anew."""
    if isinstance(state, RewriteSystem):
        return RewriteSystem(state.order, state.rules, state.mode)
    return Basis(state.order, state.field, state.polys)


def examine(state):
    return critical_pairs(state) if isinstance(state, RewriteSystem) else s_polynomials(state)


def check_run(start, one_pass, limits=LIMITS):
    """Compare every pass of the run with a pass on a fresh copy of its
    input: (the number of records the previous passes carried in, the
    (pass, position) of every record a pass re-emitted as it was carried)."""
    state, carried, kept, previous = start, 0, [], None
    stream = passes(start, one_pass, limits)
    while True:
        try:
            record = next(stream)
        except StopIteration:
            return carried, kept
        except ValueError as exc:  # a general basis whose ideal holds a unit
            assert "empty leading monomial" in str(exc)
            return carried, kept
        expected = examine(fresh_copy(state))
        assert len(record.records) == len(expected)
        for got, want in zip(record.records, expected):
            assert (got.first, got.second, got.match, got.raw, got.reduced, got.new) == \
                (want.first, want.second, want.match, want.raw, want.reduced, want.new)
        if previous is not None:
            carried += len(previous.records)
            ids = {id(rec) for rec in previous.records}
            kept += [(record.index, n) for n, rec in enumerate(record.records) if id(rec) in ids]
        state, previous = record.state, record


def check_both_engines(system):
    """check_run on the rule set and on its binomial translation, which
    must re-emit the same records: (records carried in, records re-emitted)."""
    carried, kept = check_run(system, kb_pass)
    poly_carried, poly_kept = check_run(rules_to_basis(system, QQ), buchberger_pass)
    assert (poly_carried, poly_kept) == (carried, kept)
    return carried, len(kept)


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
    systems = [random_redex_system(rng) for _ in range(20)]
    features = set().union(*map(redex_features, systems))
    carried, kept = map(sum, zip(*map(check_both_engines, systems)))
    assert len(features) == 4
    assert carried > 1000
    assert kept > 0


def test_carried_wtlex_passes_equal_fresh_passes():
    # generator weights 1 to 3, so weight and length differ, in both engines
    rng = random.Random(89)
    systems = [random_wtlex_system(rng) for _ in range(20)]
    assert all(set(system.order.weights) != {1} for system in systems)
    carried, kept = map(sum, zip(*map(check_both_engines, systems)))
    assert carried > 500
    assert kept > 0


@pytest.mark.parametrize("field", [QQ, F3], ids=["Q", "F3"])
def test_carried_general_passes_equal_fresh_passes(field):
    # three-term members with rational coefficients; few records are
    # re-emitted, two over Q and six over F3 in these 40 runs
    rng = random.Random(101)
    limits = CompletionLimits(max_passes=3, max_rules=20, max_word_length=8)
    runs = [check_run(random_general_basis(rng, field), buchberger_pass, limits) for _ in range(40)]
    assert sum(carried for carried, _ in runs) > 250
    assert sum(len(kept) for _, kept in runs) > 0


def pair_1_3(run, index):
    """The one record of rules (1, 3) in pass index of a run."""
    (rec,) = [rec for rec in run[index - 1].records if (rec.first, rec.second) == (1, 3)]
    return rec


def test_resolved_pair_as_heavy_as_a_new_member_is_reduced_again():
    # a.b -> 1, b.a -> a.a. Pass 1 adds b -> a (rule 3), pass 2 adds
    # a.a -> 1, of weight 2, and resolves the pair (1, 3) at its
    # superposition b.a, of weight 2 as well, to (a.a, a.a). In pass 3
    # a.a -> 1 applies to those forms, which become (1, 1): the carried
    # record cannot be re-emitted as it is
    system = make_system(["ab->", "ba->aa"], mode=MONOID)
    run = list(passes(system, kb_pass, LIMITS))
    assert [rule.render() for rule in run[1].state.rules[4:]] == ["a.a->1"]
    assert [p.fixed for p in run] == [False, False, True]
    before, after = pair_1_3(run, 2), pair_1_3(run, 3)
    assert before.match == after.match
    assert [w.dotted() for w in before.reduced] == ["a.a", "a.a"]
    assert [w.dotted() for w in after.reduced] == ["1", "1"]
    assert before.new is None and after.new is None
    # the raw S-polynomial is zero, so its record cannot change, but the
    # polynomial engine decides from the same weights and reduces it again
    run = list(passes(rules_to_basis(system, QQ), buchberger_pass, LIMITS))
    before, after = pair_1_3(run, 2), pair_1_3(run, 3)
    assert before.raw.is_zero() and before.new is None
    assert after is not before


def logging_examine():
    """A stub examine for pair_records: (examine, the (first, second, match,
    raw) of each call, the fresh object each call returned)."""
    calls, made = [], []

    def examine(*args):
        calls.append(args)
        made.append(object())
        return made[-1]

    return examine, calls, made


# the chain workload's two rules: each pass adds two
CHAIN = make_system(["bb->aa", "baac->acc"], letters="abc")


def test_pair_records_without_carry_examines_every_overlap():
    examine, calls, made = logging_examine()
    records = pair_records(CHAIN, None, examine)
    assert calls == [(i, j, m, None) for i, j, m in CHAIN._index.overlaps(0)]
    assert len(calls) == 4
    assert records == made  # the stub's objects compare by identity


def test_pair_records_reemits_light_resolved_records_and_examines_the_rest():
    # pass 3 of the chain, handed pass 2's input and records: in each row
    # the carried records come first, then the walk's new pairs. A carried
    # record that resolved at a superposition lighter than every rule pass 2
    # added is re-emitted as the same object, and examine never sees it;
    # every other carried pair reaches examine with its raw pair
    middle, _ = kb_pass(CHAIN, LIMITS)
    state, carried = kb_pass(middle, LIMITS)
    walk = list(state._index.overlaps(len(middle.rules)))
    rows = sorted([(rec.first, 0, n) for n, rec in enumerate(carried)]
                  + [(i, 1, n) for n, (i, _, _) in enumerate(walk)])
    expected = [(*walk[n], None, None) if side else
                (carried[n].first, carried[n].second, carried[n].match, carried[n].raw, carried[n])
                for _, side, n in rows]
    weight = state.order.weight
    light = min(weight(rule.lhs.letters) for rule in state.rules[len(middle.rules):])
    examine, calls, made = logging_examine()
    records = pair_records(state, (middle, carried), examine)
    examined, counts = iter(zip(calls, made)), {"kept": 0, "carried": 0, "walk": 0}
    for got, (i, j, m, raw, rec) in zip(records, expected, strict=True):
        if rec is not None and rec.new is None and weight(m[0] + state.rules[i].lhs.letters + m[1]) < light:
            assert got is rec
            counts["kept"] += 1
        else:
            call, out = next(examined)
            assert got is out and call == (i, j, m, raw)
            counts["carried" if rec else "walk"] += 1
            assert (raw is None) == (rec is None)
    assert next(examined, None) is None
    assert counts == {"kept": 2, "carried": 10, "walk": 8}
