"""Words, orderings, the redex index, and overlap detection."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kbgb import (
    MONOID,
    Alphabet,
    AlphabetMismatch,
    MatchKind,
    MonomialOrder,
    Word,
)
from kbgb.words import RedexIndex

from helpers import make_system, pair_matches, random_redex_system, redex_features
from oracles import (
    all_words,
    exhaustive_matches,
    leftmost_redex,
    letter_key,
    match_set,
    reference_overlaps,
    shortlex_key,
)

AB = Alphabet("ab")
SHORTLEX = MonomialOrder(AB)


def w(text, alpha=AB):
    return alpha.parse_word(text)


words_ab = st.builds(lambda ls: Word(AB, ls), st.lists(st.integers(0, 1), max_size=6))
nonempty_ab = st.builds(lambda ls: Word(AB, ls), st.lists(st.integers(0, 1), min_size=1, max_size=5))


class TestAlphabet:
    def test_distinct_nonempty(self):
        with pytest.raises(ValueError):
            Alphabet([])
        with pytest.raises(ValueError):
            Alphabet(["a", "a"])
        with pytest.raises(ValueError):
            Alphabet(["a", ""])
        with pytest.raises(ValueError):
            Alphabet(["a b"])

    @pytest.mark.parametrize("name", ["1", "a.b", "a-b", "x<y", "w=2", "#c", "é", "", "a b", 3])
    def test_rejects_names_outside_the_file_grammar(self, name):
        with pytest.raises(ValueError, match="invalid generator name"):
            Alphabet([name, "x"])

    # grammar names and near misses, of one to three characters: a name
    # the alphabet admits prints words that read back
    @given(st.lists(st.builds(str.__add__, st.sampled_from("ab_"), st.text("ab_1.", max_size=2)),
                    min_size=1, max_size=4, unique=True),
           st.lists(st.integers(0, 3), max_size=6))
    def test_dotted_reads_back(self, names, picks):
        try:
            alphabet = Alphabet(names)
        except ValueError:
            assume(False)
        word = Word(alphabet, [pick % len(alphabet) for pick in picks])
        assert alphabet.parse_word(word.dotted()) == word

    def test_multichar_names(self):
        alpha = Alphabet(["x1", "x2"])
        word = alpha.parse_word("x1.x2.x1")
        assert word.dotted() == "x1.x2.x1"
        with pytest.raises(ValueError):
            alpha.parse_word("x1x2")

    def test_parse_word_forms(self):
        assert w("b.a") == Word(AB, (1, 0))
        assert w("ba") == Word(AB, (1, 0))
        assert w("1") == Word(AB)


class TestWord:
    @given(st.lists(st.integers(0, 1), max_size=6))
    def test_indices_and_own_letters_build_one_word(self, indices):
        word = Word(AB, indices)
        again = Word(AB, word.letters)
        assert word.letters == "".join(chr(ix) for ix in indices)
        assert again == word and hash(again) == hash(word)

    # a str of letters holds chr(index) per letter: "ab" is the indices 97, 98
    @pytest.mark.parametrize("letters", [(0, 2), (-1,), "\x02", "ab"],
                             ids=["index", "negative", "str", "names"])
    def test_rejects_letters_outside_the_alphabet(self, letters):
        with pytest.raises(ValueError, match="outside alphabet"):
            Word(AB, letters)

    def test_an_alphabet_has_no_cap_of_256_generators(self):
        # letters past chr(255) build, print, read back and order under wtlex
        # with a shuffled precedence as the reference key has it
        rng = random.Random(11)
        alpha = Alphabet([f"x{ix}" for ix in range(300)])
        precedence = list(alpha.symbols)
        rng.shuffle(precedence)
        weights = {name: rng.randint(1, 3) for name in alpha.symbols}
        order = MonomialOrder(alpha, precedence, weights)
        rows = [[rng.randrange(300) for _ in range(rng.randint(0, 5))] for _ in range(400)]
        sample = [Word(alpha, row) for row in rows]
        assert sum(max(row, default=0) > 255 for row in rows) > 100
        assert [word.dotted() for word in sample] == [
            ".".join(f"x{ix}" for ix in row) or "1" for row in rows]
        assert all(alpha.parse_word(word.dotted()) == word for word in sample)
        reference = letter_key(alpha, precedence, [weights[name] for name in alpha.symbols])
        assert sorted(sample, key=order.key) == sorted(sample, key=lambda w: reference(w.letters))
        assert [order.weight(w.letters) for w in sample] == \
            [reference(w.letters)[0] for w in sample]


class TestConcat:
    def test_examples(self):
        assert w("ab") * w("ba") == w("abba")
        assert w("a") * w("1") == w("a")
        assert w("ba") * w("b") == w("bab")

    def test_alphabet_mismatch(self):
        other = Alphabet("ab")
        assert w("a") * other.parse_word("b") == w("ab")  # equal alphabets are fine
        with pytest.raises(AlphabetMismatch):
            w("a") * Alphabet("abc").parse_word("b")


class TestCompare:
    def test_examples(self):
        assert SHORTLEX.compare(w("abb"), w("bba")) == -1
        assert SHORTLEX.compare(w("ba"), w("ba")) == 0
        assert SHORTLEX.compare(w("aaa"), w("ba")) == 1

    def test_reversed_precedence(self):
        rev = MonomialOrder(AB, precedence=("b", "a"))
        assert rev.compare(w("ab"), w("ba")) == 1

    def test_wtlex_agrees_with_shortlex_on_unit_weights(self):
        wt = MonomialOrder(AB, weights={"a": 1, "b": 1})
        sample = [w("a"), w("b"), w("ab"), w("ba"), w("bba"), w("aab"), w("1")]
        assert sorted(sample, key=wt.key) == sorted(sample, key=SHORTLEX.key)

    def test_shortlex_is_wtlex_with_unit_weights(self):
        unit = MonomialOrder(AB, weights={"a": 1, "b": 1})
        assert unit == SHORTLEX and hash(unit) == hash(SHORTLEX)

    def test_wtlex_weight_dominates(self):
        wt = MonomialOrder(AB, weights={"a": 3, "b": 1})
        assert wt.compare(w("a"), w("bb")) == 1  # weight 3 beats weight 2

    def test_wtlex_length_breaks_weight_ties(self):
        # a.a and b both weigh 2 and b precedes a.a letter by letter: only
        # the length puts a.a above b
        wt = MonomialOrder(AB, weights={"a": 1, "b": 2})
        assert wt.compare(w("aa"), w("b")) == 1
        assert sorted([w("aa"), w("b"), w("ab")], key=wt.key) == [w("b"), w("aa"), w("ab")]

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            MonomialOrder(AB, precedence=("a",))
        with pytest.raises(ValueError):
            MonomialOrder(AB, weights={"a": 0, "b": 1})
        with pytest.raises(AlphabetMismatch):
            SHORTLEX.compare(w("a"), Alphabet("abc").parse_word("a"))

    # weights map names to weights: a sequence, even of valid weights or of
    # every name, is rejected
    @pytest.mark.parametrize("weights", [
        {"a": 1}, {"a": 1, "b": 2, "c": 3}, {"a": True, "b": 1}, (1, 2), ("a", "b"),
        {"a": 1.0, "b": 1},
    ], ids=["missing", "extra", "bool", "sequence", "name-sequence", "float"])
    def test_invalid_weights(self, weights):
        with pytest.raises(ValueError):
            MonomialOrder(AB, weights=weights)

    @pytest.mark.parametrize("precedence", ["abc", "cab", "bca"])
    def test_shortlex_key_sorts_like_reference(self, precedence):
        alpha = Alphabet("abc")
        order = MonomialOrder(alpha, tuple(precedence))
        sample = list(all_words(alpha, 3, min_len=0))
        random.Random(3).shuffle(sample)
        reference = shortlex_key(alpha, tuple(precedence))
        assert sorted(sample, key=order.key) == sorted(sample, key=reference)
        assert [order.weight(w.letters) for w in sample] == [len(w) for w in sample]

    @pytest.mark.parametrize("precedence", ["cab", "bca"])
    def test_unit_weight_mapping_sorts_like_reference(self, precedence):
        # explicit unit weights under a precedence other than the alphabet's
        # take the general key, (weight, length, ranks), which must sort as
        # shortlex does
        alpha = Alphabet("abc")
        order = MonomialOrder(alpha, tuple(precedence), {"a": 1, "b": 1, "c": 1})
        sample = list(all_words(alpha, 3, min_len=0))
        random.Random(5).shuffle(sample)
        reference = letter_key(alpha, tuple(precedence))
        assert sorted(sample, key=order.key) == sorted(sample, key=lambda w: reference(w.letters))

    @given(words_ab, words_ab)
    def test_total(self, w1, w2):
        cmp = SHORTLEX.compare(w1, w2)
        assert cmp in (-1, 0, 1)
        assert (cmp == 0) == (w1 == w2)
        assert SHORTLEX.compare(w2, w1) == -cmp

    @given(words_ab, words_ab, words_ab, words_ab)
    @settings(max_examples=200)
    def test_admissible(self, w1, w2, left, right):
        if SHORTLEX.compare(w1, w2) > 0:
            assert SHORTLEX.compare(left * w1 * right, left * w2 * right) > 0

    @given(st.lists(words_ab, max_size=12))
    def test_sort_stable_under_resort(self, sample):
        once = sorted(sample, key=SHORTLEX.key)
        assert sorted(once, key=SHORTLEX.key) == once

    @given(words_ab, words_ab, words_ab, words_ab)
    @settings(max_examples=150)
    def test_wtlex_admissible(self, w1, w2, left, right):
        wt = MonomialOrder(AB, weights={"a": 2, "b": 1})
        if wt.compare(w1, w2) > 0:
            assert wt.compare(left * w1 * right, left * w2 * right) > 0


class TestRedexIndex:
    def test_leftmost_start_then_lowest_index(self):
        index = RedexIndex([(1, 0), (1,), (1, 0)])  # ba, b, ba
        assert index.find((0, 1, 0)) == (1, 0, 3)
        assert index.find((0, 1, 1)) == (1, 1, 2)
        assert index.find((0,)) is None
        assert RedexIndex([]).find((0, 1)) is None

    def test_overlap_candidates(self):
        def pairs(patterns):
            return {(i, j) for i, j, _ in RedexIndex(patterns).overlaps()}

        # aab and acb share letters, but neither is a factor of the other and
        # no suffix of one begins the other; ab, ba, abab and a second ab all
        # meet, except ab and ba with themselves
        assert pairs([(0, 0, 1), (0, 2, 1)]) == set()
        everything = {(i, j) for i in range(4) for j in range(4)}
        assert pairs([(0, 1), (1, 0), (0, 1, 0, 1), (0, 1)]) == everything - {(0, 0), (1, 1), (3, 3)}

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            RedexIndex([(0,), ()])

    def test_matches_reference_scan_from_every_start(self):
        rng = random.Random(17)
        for _ in range(200):
            lhss = [tuple(rng.randrange(2) for _ in range(rng.randint(1, 4)))
                    for _ in range(rng.randint(1, 6))]
            index = RedexIndex(lhss)
            # a scan from a later start is the scan of a suffix, itself one
            # of the words
            for word in all_words(AB, 6, min_len=0):
                hit = leftmost_redex(lhss, word.letters)
                if hit is not None:
                    pos, i = hit
                    hit = (pos, i, pos + len(lhss[i]))
                assert index.find(word.letters) == hit


class TestFindMatches:
    def test_containment_example(self):
        matches = pair_matches(w("abba"), w("bb"))
        assert len(matches) == 1
        m = matches[0]
        assert m.kind is MatchKind.CONTAINMENT_12
        assert (m.u2, m.v2) == (w("a").letters, w("a").letters)
        assert m.u2 + w("bb").letters + m.v2 == w("abba").letters

    def test_self_overlap_example(self):
        matches = pair_matches(w("aba"), w("aba"))
        aba = w("aba").letters
        kinds = [(m.kind, m.u1 + aba + m.v1, m.u2 + aba + m.v2) for m in matches]
        assert kinds == [
            (MatchKind.SUFFIX_PREFIX, w("ababa").letters, w("ababa").letters),
            (MatchKind.PREFIX_SUFFIX, w("ababa").letters, w("ababa").letters),
        ]
        sp = matches[0]
        assert (sp.v1, sp.u2) == (w("ba").letters, w("ab").letters)

    def test_no_self_overlap(self):
        assert pair_matches(w("ba"), w("ba")) == []

    def test_identity_containment_is_opt_in(self):
        assert pair_matches(w("ab"), w("ab")) == []
        matches = pair_matches(w("ab"), w("ab"), include_identity=True)
        assert [m.kind for m in matches] == [MatchKind.CONTAINMENT_12]
        assert matches[0].witness_lengths() == (0, 0, 0, 0)

    def test_superposition_equations(self):
        rng = random.Random(7)
        for _ in range(300):
            l1 = Word(AB, [rng.randrange(2) for _ in range(rng.randint(1, 4))])
            l2 = Word(AB, [rng.randrange(2) for _ in range(rng.randint(1, 4))])
            a, b = l1.letters, l2.letters
            for m in pair_matches(l1, l2):
                assert m.u1 + a + m.v1 == m.u2 + b + m.v2
                if m.kind is MatchKind.CONTAINMENT_12:
                    assert m.u2 + b + m.v2 == a
                elif m.kind is MatchKind.CONTAINMENT_21:
                    assert m.u1 + a + m.v1 == b
                elif m.kind is MatchKind.SUFFIX_PREFIX:
                    assert a + m.v1 == m.u2 + b
                    assert 1 <= len(a) - len(m.u2) < min(len(a), len(b)) + 1
                else:
                    assert m.u1 + a == b + m.v2

    @given(nonempty_ab, nonempty_ab)
    @settings(max_examples=250, deadline=None)
    def test_matches_exhaustive_oracle(self, l1, l2):
        assert match_set(pair_matches(l1, l2)) == exhaustive_matches(l1, l2)

    @given(nonempty_ab, nonempty_ab)
    @settings(max_examples=150, deadline=None)
    def test_suffix_prefix_mirrors(self, l1, l2):
        # l1.v1 = u2.l2 read with the arguments swapped is u1.l2 = l1.v2
        # with u1 = u2 and v2 = v1
        forward = {
            (m.v1, m.u2)
            for m in pair_matches(l1, l2)
            if m.kind is MatchKind.SUFFIX_PREFIX
        }
        mirrored = {
            (m.v2, m.u1)
            for m in pair_matches(l2, l1)
            if m.kind is MatchKind.PREFIX_SUFFIX
        }
        assert forward == mirrored


class TestOverlaps:
    def test_matches_every_pair_reference(self):
        # nested, repeated and self-overlapping left sides under shuffled
        # precedences; the reference tries all n * n ordered pairs
        rng = random.Random(29)
        features = set()
        pruned = 0
        for _ in range(120):
            system = random_redex_system(rng)
            features |= redex_features(system)
            lhss = [rule.lhs for rule in system.rules]
            stream = RedexIndex([lhs.letters for lhs in lhss]).overlaps()
            pairs = [(i, j) for i, j, _ in stream]
            assert pairs == sorted(pairs)  # row-major, j ascending
            got = {}
            for i, j, m in stream:
                got.setdefault((i, j), []).append(m)
            expected = reference_overlaps(lhss)
            assert list(got) == list(expected)  # no pair with a match is missing
            assert {key: match_set(found) for key, found in got.items()} == expected
            identity = {key for key, found in got.items()
                        if any(m.witness_lengths() == (0, 0, 0, 0) for m in found)}
            assert identity == {(i, j) for i, l1 in enumerate(lhss)
                                for j, l2 in enumerate(lhss) if i != j and l1 == l2}
            pruned += len(lhss) ** 2 - len(got)
        assert {"duplicate", "prefix at lower index", "prefix at higher index"} <= features
        assert pruned > 0

    def test_since_walk_matches_filtered_reference(self):
        # every boundary k: exactly the reference's pairs with i or j >= k,
        # in the order of the whole walk; equal left sides meet across the
        # boundary and above it, in the identity containment
        rng = random.Random(37)
        systems = [random_redex_system(rng) for _ in range(80)]
        systems.append(make_system(["ab->a", "ba->b", "ab->b", "aba->a", "ab->1", "ba->a"],
                                   mode=MONOID))
        identity = set()
        for system in systems:
            lhss = [rule.lhs for rule in system.rules]
            index = RedexIndex([lhs.letters for lhs in lhss])
            whole = index.overlaps()
            expected = reference_overlaps(lhss)
            for k in range(len(lhss) + 1):
                stream = index.overlaps(since=k)
                assert stream == [entry for entry in whole if max(entry[:2]) >= k]
                got = {}
                for i, j, m in stream:
                    got.setdefault((i, j), []).append(m)
                assert {key: match_set(found) for key, found in got.items()} == \
                    {key: found for key, found in expected.items() if max(key) >= k}
                identity |= {("across" if min(i, j) < k else "above")
                             for i, j, m in stream if m.witness_lengths() == (0, 0, 0, 0)}
        assert identity == {"across", "above"}

    def test_a_row_lists_kind_before_witness_lengths(self):
        # in row (0, 1) of b.a and a.b.a, the containment a.(b.a) = a.b.a
        # has u1 = a, the overlap (b.a).b.a = b.(a.b.a) has u1 empty: kind
        # first puts the containment first, witness lengths first would not
        rows = [pair_matches(w("ba"), w("aba"))]
        assert [(m.kind, m.witness_lengths()) for m in rows[0]] == [
            (MatchKind.CONTAINMENT_21, (1, 0, 0, 0)), (MatchKind.SUFFIX_PREFIX, (0, 2, 1, 0))]
        rng = random.Random(53)
        for _ in range(60):
            lhss = [rule.lhs for rule in random_redex_system(rng).rules]
            for l1 in lhss:
                rows += [pair_matches(l1, l2, include_identity=True) for l2 in lhss]
        kinds = list(MatchKind)
        for row in rows:
            keys = [(kinds.index(m.kind), m.witness_lengths()) for m in row]
            assert keys == sorted(keys)

    def test_equal_witnesses_of_a_call_are_one_tuple(self):
        rng = random.Random(59)
        repeats = 0
        for _ in range(60):
            index = RedexIndex([rule.lhs.letters for rule in random_redex_system(rng).rules])
            for since in (0, 1):
                witnesses = [t for _, _, m in index.overlaps(since) for t in m[1:] if t]
                one = {}
                assert all(one.setdefault(t, t) is t for t in witnesses)
                repeats += len(witnesses) - len({id(t) for t in witnesses})
        assert repeats > 1000

    def test_walk_builds_no_words(self, monkeypatch):
        # a match is letter strings sliced from the patterns: neither walk
        # builds a Word on either path
        rng = random.Random(43)
        indexes = [RedexIndex([rule.lhs.letters for rule in random_redex_system(rng).rules])
                   for _ in range(20)]
        built = []
        monkeypatch.setattr(Word, "_raw", classmethod(lambda cls, *args: built.append(args)))
        monkeypatch.setattr(Word, "__init__", lambda word, *args: built.append(args))
        walks = [(index.overlaps(), index.overlaps(since=1)) for index in indexes]
        assert built == []
        assert all(whole and since for whole, since in walks)
        assert all(type(witness) is str
                   for whole, _ in walks for _, _, m in whole for witness in m[1:])
