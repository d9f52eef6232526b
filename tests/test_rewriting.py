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
    ReductionBudgetExceeded,
    Rule,
    Word,
    critical_pairs,
    is_irreducible,
    kb_pass,
    knuth_bendix,
    normal_form,
    words_equal,
)
from kbgb.completion import PassRecord, passes
from kbgb.rewriting import bounded_words, normal_forms, pair_line

from helpers import (
    make_system,
    random_redex_system,
    random_system,
    record_searches,
    redex_features,
    step_budget,
    twins,
    witness_lengths,
)
from oracles import (
    all_words,
    congruence_partition,
    is_locally_confluent,
    one_step_reducts,
    reduction_endpoints,
    reference_normal_form,
    reference_reduce_once,
)

BA_AB = make_system(["ba->ab"])
AA_A = make_system(["aa->a"])
ABA_B = make_system(["aba->b"])


def w(text, system=BA_AB):
    return system.alphabet.parse_word(text)


def engine_step(system, word):
    """The engine's rewrite of the word, the first step that normal_forms
    takes: the second word of a walk of at most two; None if the word is
    irreducible."""
    path = []
    system._index.walk(word.letters, [rule.rhs.letters for rule in system.rules], {}, path, 2)
    return Word(system.alphabet, path[1]) if len(path) == 2 else None


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

    def test_extension_checks_its_rules_as_the_constructor_does(self):
        # a rule equal to an old one or to another new one, misoriented, or
        # with an empty right side in semigroup mode: the constructor's own
        # errors; a new rule with an old left side and another right side is
        # no duplicate
        system = make_system(["ba->ab"])
        ba_ab, bb_a = system.rules[0], make_system(["bb->a"]).rules[0]
        for extra in ([ba_ab], [bb_a, bb_a]):
            with pytest.raises(ValueError, match=r"^duplicate rule: "):
                system.with_rules(extra)
        flipped = Rule(ba_ab.rhs, ba_ab.lhs)
        with pytest.raises(ValueError, match=r"^rule is not oriented descending: a\.b->b\.a$"):
            system.with_rules([flipped])
        with pytest.raises(ValueError, match=r"^empty right side needs monoid mode: b->1$"):
            system.with_rules(make_system(["b->"], mode=MONOID).rules)
        other = make_system(["ba->aa"]).rules
        assert system.with_rules(other) == make_system(["ba->ab", "ba->aa"])


class TestReduceOnce:
    def test_examples(self):
        assert engine_step(BA_AB, w("bab")) == w("abb")
        assert engine_step(BA_AB, w("aab")) is None
        assert engine_step(AA_A, w("aaa", AA_A)) == w("aa", AA_A)

    def test_leftmost_position_wins(self):
        system = make_system(["ba->ab", "bb->ab"])
        # rule 1 applies at position 0, rule 0 only at position 1
        assert engine_step(system, system.alphabet.parse_word("bba")) == \
            system.alphabet.parse_word("aba")

    def test_lowest_rule_index_breaks_position_ties(self):
        system = make_system(["ba->ab", "ba->aa"])
        assert engine_step(system, system.alphabet.parse_word("ba")) == \
            system.alphabet.parse_word("ab")

    def test_agrees_with_some_one_step_reduct(self):
        rng = random.Random(11)
        for _ in range(100):
            system = random_system(rng)
            for word in all_words(system.alphabet, 4):
                got = engine_step(system, word)
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
                assert engine_step(system, word) == reference_reduce_once(system, word)
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
                assert reference_reduce_once(system, nf) is None
                assert nf in reduction_endpoints(system, word)

    def test_matches_reference_normal_form(self):
        rng = random.Random(31)
        for _ in range(40):
            system = random_redex_system(rng)
            for word in all_words(system.alphabet, 6, min_len=0):
                assert normal_form(system, word) == reference_normal_form(system, word)

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
                nxt = engine_step(system, word)
                if nxt is not None:
                    assert system.order.compare(word, nxt) == 1


class TestNormalForms:
    def test_shared_memo_answers_like_one_shot_in_any_call_order(self):
        # what a memo holds depends on the order of its calls; its answers
        # must not
        rng = random.Random(23)
        walked = 0
        for _ in range(15):
            system = random_redex_system(rng)
            words = list(bounded_words(system, 6))
            expected = [reference_normal_form(system, word) for word in words]
            shuffled = list(range(len(words)))
            rng.shuffle(shuffled)
            for order in (range(len(words)), reversed(range(len(words))), shuffled):
                nf = normal_forms(system)
                assert {i: nf(words[i]) for i in order} == dict(enumerate(expected))
            walked += sum(1 for word in words
                          if not is_irreducible(system, reference_reduce_once(system, word) or word))
        assert walked > 1000

    def test_budget_counts_the_steps_of_a_first_walk(self):
        rng = random.Random(29)
        for _ in range(10):
            system = random_redex_system(rng)
            for word in bounded_words(system, 5):
                steps, nxt = 0, reference_reduce_once(system, word)
                while nxt is not None:
                    steps, nxt = steps + 1, reference_reduce_once(system, nxt)
                # the same budget as normal_form: a k-step reduction needs k + 1
                with step_budget(steps):
                    with pytest.raises(ReductionBudgetExceeded):
                        normal_forms(system)(word)
                    with pytest.raises(ReductionBudgetExceeded):
                        normal_form(system, word)
                with step_budget(steps + 1):
                    assert normal_forms(system)(word) == reference_normal_form(system, word)

    def test_every_word_on_a_walk_is_recorded(self, monkeypatch):
        # a.a.a.a walks through a.a.a and a.a to a; each then answers with
        # no search
        searches = record_searches(monkeypatch)
        nf = normal_forms(AA_A)
        assert nf(w("aaaa", AA_A)) == w("a", AA_A)
        assert searches == [(w(text, AA_A).letters,) for text in ("aaaa", "aaa", "aa", "a")]
        searches.clear()
        assert [nf(w(text, AA_A)) for text in ("aaa", "aa", "a")] == [w("a", AA_A)] * 3
        assert searches == []

    def test_an_irreducible_word_is_its_own_form(self):
        # the same object, not a copy: a pass's records hold each word once
        rng = random.Random(67)
        irreducible = 0
        for _ in range(20):
            system = random_redex_system(rng)
            for word in bounded_words(system, 5):
                if is_irreducible(system, word):
                    assert normal_forms(system)(word) is word
                    irreducible += 1
        assert irreducible > 100

    def test_words_equal_shares_one_memo(self, monkeypatch):
        # a.a.a.a walks through a.a.a, so the second word costs no search;
        # two separate reductions would search 4 + 3 words
        searches = record_searches(monkeypatch)
        assert words_equal(AA_A, w("aaaa", AA_A), w("aaa", AA_A))
        assert len(searches) == 4


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
            if p.match.kind is MatchKind.CONTAINMENT_12 and witness_lengths(p.match) == (0, 0, 0, 0)
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
                assert m.u1 + r1.lhs.letters + m.v1 == m.u2 + r2.lhs.letters + m.v2
                assert cp.raw == (Word(system.alphabet, m.u1 + r1.rhs.letters + m.v1),
                                  Word(system.alphabet, m.u2 + r2.rhs.letters + m.v2))

    def test_new_rule_sides_are_normal_forms(self):
        rng = random.Random(19)
        for _ in range(40):
            system = random_system(rng)
            for pair in critical_pairs(system):
                for side in pair.reduced:
                    assert reference_reduce_once(system, side) is None
                if pair.new is not None:
                    assert system.order.compare(pair.new.lhs, pair.new.rhs) == 1

    def test_reduced_is_normal_form_of_raw(self):
        # critical_pairs reduces each distinct raw word once per call
        rng = random.Random(59)
        repeats = changed = 0
        for _ in range(60):
            system = random_redex_system(rng)
            pairs = critical_pairs(system)
            for cp in pairs:
                assert cp.reduced == tuple(reference_normal_form(system, raw) for raw in cp.raw)
                changed += cp.reduced != cp.raw
            words = [word for cp in pairs for word in cp.raw]
            repeats += len(words) - len(set(words))
        assert repeats and changed

    def test_a_call_holds_each_raw_word_once(self):
        # raw words with equal letters are one Word within one call, and a
        # twin's raw pair is its twin's swapped, as the same objects
        rng = random.Random(71)
        repeats = 0
        for _ in range(60):
            pairs = critical_pairs(random_redex_system(rng))
            one = {}
            for cp in pairs:
                assert all(one.setdefault(word.letters, word) is word for word in cp.raw)
            for cp, twin in twins(pairs):
                assert twin.raw[0] is cp.raw[1] and twin.raw[1] is cp.raw[0]
            repeats += 2 * len(pairs) - len(one)
        assert repeats > 1000


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
        # 16-letter left sides, each overlapping itself at 1 to 15 letters
        assert is_locally_confluent(make_system(["a" * 16 + "->a"]))
        assert not is_locally_confluent(make_system(["ab" * 8 + "->b"]))

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
        assert [f.dotted() for f in forms] == ["1", "a"]


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
