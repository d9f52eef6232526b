"""Reduction, critical pairs, completion passes, and the word problem."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbgb import (
    MONOID,
    CompletionLimits,
    LimitExceeded,
    MatchKind,
    Rule,
    Word,
    critical_pairs,
    is_locally_confluent,
    kb_pass,
    knuth_bendix,
    normal_form,
    reduce_once,
    words_equal,
)
from kbgb.completion import PassRecord, passes
from kbgb.rewriting import bounded_words, pair_line

from helpers import make_system, random_redex_system, random_system, redex_features
from oracles import (
    all_words,
    congruence_partition,
    one_step_reducts,
    reduction_endpoints,
    reference_reduce_once,
)

BA_AB = make_system(["ba->ab"])
AA_A = make_system(["aa->a"])
ABA_B = make_system(["aba->b"])


def w(text, system=BA_AB):
    return system.alphabet.parse_word(text)


class TestSystemValidation:
    def test_orientation_enforced(self):
        with pytest.raises(ValueError):
            make_system(["ab->ba"])  # ab < ba under a < b
        # fine under the reversed precedence
        system = make_system(["ab->ba"], precedence=("b", "a"))
        assert system.rules[0].lhs == system.alphabet.parse_word("ab")

    def test_semigroup_forbids_empty_rhs(self):
        with pytest.raises(ValueError):
            make_system(["aa->"])
        system = make_system(["aa->"], mode=MONOID)
        assert len(system.rules[0].rhs) == 0

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            make_system(["ba->ab", "ba->ab"])


class TestReduceOnce:
    def test_examples(self):
        assert reduce_once(BA_AB, w("bab")) == w("abb")
        assert reduce_once(BA_AB, w("aab")) is None
        assert reduce_once(AA_A, w("aaa", AA_A)) == w("aa", AA_A)

    def test_leftmost_position_wins(self):
        system = make_system(["ba->ab", "bb->ab"])
        # rule 1 applies at position 0, rule 0 only at position 1
        assert reduce_once(system, system.alphabet.parse_word("bba")) == \
            system.alphabet.parse_word("aba")

    def test_lowest_rule_index_breaks_position_ties(self):
        system = make_system(["ba->ab", "ba->aa"])
        assert reduce_once(system, system.alphabet.parse_word("ba")) == \
            system.alphabet.parse_word("ab")

    def test_agrees_with_some_one_step_reduct(self):
        rng = random.Random(11)
        for _ in range(100):
            system = random_system(rng)
            for word in all_words(system.alphabet, 4):
                got = reduce_once(system, word)
                reducts = one_step_reducts(system, word)
                if got is None:
                    assert reducts == []
                else:
                    assert got in reducts

    def test_matches_reference_redex_policy(self):
        rng = random.Random(29)
        features = set()
        for _ in range(80):
            system = random_redex_system(rng)
            features |= redex_features(system)
            for word in all_words(system.alphabet, 6, min_len=0):
                assert reduce_once(system, word) == reference_reduce_once(system, word)
        assert len(features) == 4


class TestNormalForm:
    def test_examples(self):
        assert normal_form(BA_AB, w("bba")) == w("abb")
        empty = make_system([])
        assert normal_form(empty, empty.alphabet.parse_word("abab")) == \
            empty.alphabet.parse_word("abab")
        assert normal_form(AA_A, w("aaaa", AA_A)) == w("a", AA_A)

    def test_result_irreducible_and_reachable(self):
        rng = random.Random(13)
        for _ in range(60):
            system = random_system(rng)
            for word in all_words(system.alphabet, 4):
                nf = normal_form(system, word)
                assert reduce_once(system, nf) is None
                assert nf in reduction_endpoints(system, word)

    @given(st.lists(st.integers(0, 1), max_size=6))
    @settings(max_examples=100)
    def test_idempotent(self, letters):
        word = Word(BA_AB.alphabet, letters)
        nf = normal_form(BA_AB, word)
        assert normal_form(BA_AB, nf) == nf

    def test_each_step_descends(self):
        rng = random.Random(17)
        for _ in range(60):
            system = random_system(rng)
            for word in all_words(system.alphabet, 4):
                nxt = reduce_once(system, word)
                if nxt is not None:
                    assert system.order.greater(word, nxt)


class TestCriticalPairs:
    def test_aba_example(self):
        pairs = critical_pairs(ABA_B)
        assert [p.match.kind for p in pairs] == [
            MatchKind.SUFFIX_PREFIX,
            MatchKind.PREFIX_SUFFIX,
        ]
        sp = pairs[0]
        assert sp.raw == (w("bba", ABA_B), w("abb", ABA_B))
        assert sp.reduced == sp.raw
        assert sp.new == Rule(w("bba", ABA_B), w("abb", ABA_B))

    def test_resolved_example(self):
        # the single-letter self overlap of aa appears in both symmetric kinds
        pairs = critical_pairs(AA_A)
        assert [p.match.kind for p in pairs] == [
            MatchKind.SUFFIX_PREFIX,
            MatchKind.PREFIX_SUFFIX,
        ]
        for pair in pairs:
            assert pair.raw == (w("aa", AA_A), w("aa", AA_A))
            assert pair.reduced == (w("a", AA_A), w("a", AA_A))
            assert pair.new is None

    def test_no_overlap_example(self):
        assert critical_pairs(BA_AB) == []

    def test_duplicate_lhs_boundary(self):
        system = make_system(["ab->a", "ab->b"])
        pairs = critical_pairs(system)
        boundary = [
            p for p in pairs
            if p.match.kind is MatchKind.CONTAINMENT_12 and p.match.witness_lengths() == (0, 0, 0, 0)
        ]
        assert {(p.first, p.second) for p in boundary} == {(0, 1), (1, 0)}
        raw = {p.raw for p in boundary}
        assert raw == {(w("a"), w("b")), (w("b"), w("a"))}

    def test_raw_pairs_come_from_the_superposition(self):
        # definitional oracle: in every configuration the superposition is
        # u1.l1.v1 and u2.l2.v2, and the raw pair applies each rule there
        rng = random.Random(29)
        for _ in range(40):
            system = random_system(rng)
            for cp in critical_pairs(system):
                m = cp.match
                r1 = system.rules[cp.first]
                r2 = system.rules[cp.second]
                assert m.u1 * r1.lhs * m.v1 == m.superposition
                assert m.u2 * r2.lhs * m.v2 == m.superposition
                assert cp.raw == (m.u1 * r1.rhs * m.v1, m.u2 * r2.rhs * m.v2)

    def test_new_rule_sides_are_normal_forms(self):
        rng = random.Random(19)
        for _ in range(40):
            system = random_system(rng)
            for pair in critical_pairs(system):
                for side in pair.reduced:
                    assert reduce_once(system, side) is None
                if pair.new is not None:
                    assert system.order.greater(pair.new.lhs, pair.new.rhs)

    def test_reduced_is_normal_form_of_raw(self):
        # critical_pairs reduces each distinct raw word once per call
        rng = random.Random(59)
        repeats = changed = 0
        for _ in range(60):
            system = random_redex_system(rng)
            pairs = critical_pairs(system)
            for cp in pairs:
                assert cp.reduced == (normal_form(system, cp.raw[0]), normal_form(system, cp.raw[1]))
                changed += cp.reduced != cp.raw
            words = [word for cp in pairs for word in cp.raw]
            repeats += len(words) - len(set(words))
        assert repeats and changed


class TestKbPass:
    def test_examples(self):
        nxt, pairs = kb_pass(BA_AB, CompletionLimits())
        assert nxt.rules == BA_AB.rules and pairs == []
        nxt, pairs = kb_pass(AA_A, CompletionLimits())
        assert nxt.rules == AA_A.rules and pairs and all(p.new is None for p in pairs)
        nxt, pairs = kb_pass(ABA_B, CompletionLimits())
        assert [r.render() for r in nxt.rules] == ["a.b.a->b", "b.b.a->a.b.b"]

    def test_max_rules_limit(self):
        with pytest.raises(LimitExceeded) as info:
            kb_pass(ABA_B, CompletionLimits(max_rules=1))
        assert info.value.reason == "max_rules"
        assert len(info.value.partial) == 2

    def test_max_word_length_limit(self):
        with pytest.raises(LimitExceeded) as info:
            kb_pass(ABA_B, CompletionLimits(max_word_length=2))
        assert info.value.reason == "max_word_length"


class TestKnuthBendix:
    def test_examples(self):
        result = knuth_bendix(BA_AB)
        assert result.fixed and result.index == 1
        assert result.state.rules == BA_AB.rules

        result = knuth_bendix(AA_A)
        assert result.fixed and result.state.rules == AA_A.rules

        empty = make_system([])
        result = knuth_bendix(empty)
        assert result.fixed and result.state.rules == ()

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            CompletionLimits(max_passes=-1)
        with pytest.raises(ValueError):
            CompletionLimits(max_rules=0)
        with pytest.raises(ValueError):
            CompletionLimits(max_word_length=0)
        assert CompletionLimits(max_passes=0).max_passes == 0

    def test_zero_passes_is_a_limit(self):
        result = knuth_bendix(ABA_B, CompletionLimits(max_passes=0))
        assert not result.fixed
        assert result.limit_reason == "max_passes"
        assert result.index == 0 and result.records == ()
        # the stream is pass 0 alone: the input, ended by the cap
        limits = CompletionLimits(max_passes=0)
        assert tuple(passes(ABA_B, kb_pass, limits)) == (PassRecord(0, (), ABA_B, "max_passes"),)

    def test_aba_completes_in_two_passes(self):
        result = knuth_bendix(ABA_B)
        assert result.fixed and result.index == 2
        assert [r.render() for r in result.state.rules] == ["a.b.a->b", "b.b.a->a.b.b"]
        # only the last pass is a fixed point; no cap tripped
        trace = tuple(passes(ABA_B, kb_pass, CompletionLimits()))
        assert [(p.limit_reason, p.fixed) for p in trace] == [(None, False), (None, True)]
        assert trace[-1].state == result.state
        assert trace[-1] == result

    def test_tripped_cap_ends_the_trace(self):
        limits = CompletionLimits(max_rules=1)
        result = knuth_bendix(ABA_B, limits)
        assert not result.fixed and result.limit_reason == "max_rules"
        (only,) = passes(ABA_B, kb_pass, limits)
        assert (only.limit_reason, only.fixed) == ("max_rules", False)
        assert only.state == ABA_B == result.state  # nothing was installed
        assert len(only.records) == 2

        limits = CompletionLimits(max_passes=1)
        result = knuth_bendix(ABA_B, limits)
        assert result.limit_reason == "max_passes"
        (only,) = passes(ABA_B, kb_pass, limits)
        assert (only.limit_reason, only.fixed) == ("max_passes", False)
        assert len(only.state.rules) == 2 and result.state == only.state

    def test_complete_systems_are_locally_confluent(self):
        for system in (BA_AB, AA_A):
            assert is_locally_confluent(system)
        assert not is_locally_confluent(ABA_B)
        assert is_locally_confluent(make_system([]))

    def test_unique_endpoints_after_completion(self):
        for start in (BA_AB, AA_A, ABA_B, make_system(["ab->a", "ba->a"])):
            result = knuth_bendix(start)
            assert result.fixed
            memo = {}
            for word in all_words(result.state.alphabet, 6):
                endpoints = reduction_endpoints(result.state, word, memo)
                assert len(endpoints) == 1


class TestWordProblem:
    def test_words_equal_examples(self):
        assert words_equal(BA_AB, w("ab"), w("ba"))
        assert words_equal(BA_AB, w("ab"), w("ab"))
        assert not words_equal(BA_AB, w("a"), w("b"))

    def test_partition_matches_congruence_closure(self):
        for start in (BA_AB, AA_A, ABA_B):
            result = knuth_bendix(start)
            assert result.fixed
            system = result.state
            blocks = {}
            for word in all_words(system.alphabet, 5):
                blocks.setdefault(normal_form(system, word), []).append(word)
            ours = frozenset(frozenset(b) for b in blocks.values())
            # closure uses the original rules, not the completed ones
            assert ours == congruence_partition(start, 5)


class TestEnumerateNormalForms:
    def test_monoid_includes_empty_word(self):
        system = make_system(["aa->"], mode=MONOID, letters="a")
        result = knuth_bendix(system)
        assert result.fixed
        forms = [w for w in bounded_words(result.state, 3)
                 if normal_form(result.state, w) == w]
        assert [f.display() for f in forms] == ["1", "a"]


class TestTraceFormat:
    def test_pair_line_golden(self):
        pairs = critical_pairs(ABA_B)
        assert pair_line(1, pairs[0]) == (
            "pass=1 rules=(0,0) kind=SuffixPrefix raw=(b.b.a,a.b.b) "
            "reduced=(b.b.a,a.b.b) disp=Added:b.b.a->a.b.b"
        )

    def test_resolved_line_and_determinism(self):
        def trace_lines():
            trace = passes(ABA_B, kb_pass, CompletionLimits())
            return [pair_line(p.index, rec) for p in trace for rec in p.records]

        lines = trace_lines()
        assert lines == trace_lines()
        assert any(line.endswith("disp=Resolved") for line in lines)


class TestRandomizedCompletionSoundness:
    def test_partitions_survive_completion(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(30):
            start = random_system(rng, letters="ab", max_rules=3, max_side=3)
            result = knuth_bendix(start, CompletionLimits(max_passes=6, max_rules=40, max_word_length=24))
            if not result.fixed:
                continue
            checked += 1
            system = result.state
            blocks = {}
            for word in all_words(system.alphabet, 4):
                blocks.setdefault(normal_form(system, word), []).append(word)
            ours = frozenset(frozenset(b) for b in blocks.values())
            assert ours == congruence_partition(start, 4)
        assert checked >= 5
