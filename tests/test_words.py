"""Words, orderings, the redex index, and overlap detection."""

import copy
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kbgb import (
    MONOID,
    QQ,
    Alphabet,
    AlphabetMismatch,
    Basis,
    MatchKind,
    MonomialOrder,
    NcPolynomial,
    RewriteSystem,
    Word,
)
from kbgb import words
from kbgb.ncpoly import monomial_forms
from kbgb.words import RedexIndex

from helpers import (
    make_system,
    pair_matches,
    random_redex_system,
    redex_features,
    witness_lengths,
)
from oracles import (
    all_words,
    exhaustive_matches,
    leftmost_redex,
    letter_key,
    match_set,
    reference_overlaps,
    reference_reduce_on,
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


def reference_find(patterns, letters):
    """RedexIndex.find's answer by the oracle's plain scan."""
    hit = leftmost_redex(patterns, letters)
    return hit and (hit[0], hit[1], hit[0] + len(patterns[hit[1]]))


def reference_walk(patterns, swaps, letters):
    """The words RedexIndex.walk searches from letters with no memo and no
    limit, and the redex with no swap it stops at (None at an irreducible
    word), by the oracle's scan."""
    chain = [letters]
    while True:
        hit = reference_find(patterns, letters)
        if hit is None or swaps[hit[1]] is None:
            return chain, hit
        pos, index, end = hit
        letters = letters[:pos] + swaps[index] + letters[end:]
        chain.append(letters)


def walk_cases(seed):
    """(index, patterns, swaps, words): 30 random_redex_systems, each with
    its words of up to 5 letters, and 30 sets of patterns over a and b up
    to 4 letters past the depth cut, each with a shorter swap, with random
    words that have patterns spliced in. Every swap is shorter than its
    pattern, so every walk ends."""
    rng = random.Random(seed)
    for _ in range(30):
        system = random_redex_system(rng)
        patterns = [rule.lhs.letters for rule in system.rules]
        swaps = [rule.rhs.letters for rule in system.rules]
        texts = [word.letters for word in all_words(system.alphabet, 5, min_len=0)]
        yield system._index, patterns, swaps, texts
    longest = words._DEPTH + 4
    for _ in range(30):
        patterns = ["".join(chr(rng.randrange(2)) for _ in range(rng.randint(1, longest)))
                    for _ in range(rng.randint(1, 5))]
        swaps = ["".join(chr(rng.randrange(2)) for _ in range(rng.randrange(len(p))))
                 for p in patterns]
        found = []
        for _ in range(20):
            word = "".join(chr(rng.randrange(2)) for _ in range(rng.randint(0, 8)))
            for _ in range(rng.randint(1, 3)):
                at = rng.randint(0, len(word))
                word = word[:at] + rng.choice(patterns) + word[at:]
            found.append(word)
        yield RedexIndex(patterns), patterns, swaps, found


class TestRedexIndex:
    def test_leftmost_start_then_lowest_index(self):
        index = RedexIndex(["\1\0", "\1", "\1\0"])  # ba, b, ba
        assert index.find("\0\1\0") == (1, 0, 3)
        assert index.find("\0\1\1") == (1, 1, 2)
        assert index.find("\1\0") == (0, 0, 2)  # equal patterns: the lower index
        assert index.find("\0") is None
        assert index.find("") is None

    def test_one_pattern_inside_another(self):
        # the start expression tries a longer pattern of lower index before
        # the end inside it
        assert RedexIndex(["\0\1\0", "\0\1"]).find("\1\0\1\0") == (1, 0, 4)
        assert RedexIndex(["\0\1", "\0\1\0"]).find("\1\0\1\0") == (1, 0, 3)
        # a pattern inside another starts later than it
        assert RedexIndex(["\1", "\0\1\0"]).find("\0\1\0") == (0, 1, 3)
        assert RedexIndex(["\1", "\0\1\0"]).find("\0\1\1") == (1, 0, 2)

    @pytest.mark.parametrize("length", [6, words._DEPTH + 8], ids=["short", "past-the-cut"])
    @pytest.mark.parametrize("falling", [True, False], ids=["falling", "rising"])
    def test_a_chain_of_nested_prefixes(self, falling, length):
        # the prefixes of one word, the longest of lowest index (each end is
        # tried after the patterns below it) or of highest (each end drops
        # every pattern below it); past the cut the trie walk decides
        whole = "".join(chr(k % 3) for k in range(length))
        sizes = range(length, 0, -1) if falling else range(1, length + 1)
        prefixes = [whole[:k] for k in sizes]
        index = RedexIndex(prefixes)
        for k in range(1, length + 1):
            found = (1, length - k, k + 1) if falling else (1, 0, 2)
            assert index.find("\2" + whole[:k]) == found
        rng = random.Random(29)
        for _ in range(400):
            word = "".join(chr(rng.randrange(3)) for _ in range(rng.randint(0, 8)))
            at, cut = rng.randint(0, len(word)), rng.randint(0, length)
            word = word[:at] + whole[:cut] + word[at:]
            assert index.find(word) == reference_find(prefixes, word)

    def test_an_end_drops_the_higher_patterns_below_it(self):
        # a (1) ends inside abc (0) and ab (2): ab is never a redex
        index = RedexIndex(["\0\1\2", "\0", "\0\1"])
        assert index.find("\0\1") == (0, 1, 1)
        assert index.find("\2\0\1\2") == (1, 0, 4)
        assert index.find("\1\0\1\1") == (1, 1, 2)
        assert "\0\1" not in index._lowest

    @pytest.mark.parametrize("members, bab, babb", [
        ([("ab", "a"), ("ab", "b"), ("abb", "a")], (1, 0, 3), (1, 0, 3)),
        ([("abb", "a"), ("ab", "a"), ("ab", "b")], (1, 1, 3), (1, 0, 4)),
    ], ids=["ahead-of-abb", "behind-abb"])
    def test_equal_patterns_the_lower_index_wins(self, members, bab, babb):
        # two basis members with one leading monomial ab: the lower index
        # wins, in find and in every reduction
        polys = [NcPolynomial(QQ, [(w(lm), QQ.one), (w(tail), QQ.neg(QQ.one))])
                 for lm, tail in members]
        basis = Basis(SHORTLEX, QQ, polys)
        lms = [w(lm).letters for lm, _ in members]
        assert (basis._index.find("\1\0\1"), basis._index.find("\1\0\1\1")) == (bab, babb)
        form = monomial_forms(basis)
        for word in all_words(AB, 6, min_len=0):
            assert basis._index.find(word.letters) == reference_find(lms, word.letters)
            assert form(word) == NcPolynomial(QQ, reference_reduce_on(basis, {word: QQ.one})[1])

    def test_extension_by_patterns_that_extend_or_contain_old_ones(self):
        # each new pattern extends an old one on either side or is a factor
        # of one; the extension finds as the scan does, and the base as before
        rng = random.Random(31)
        for _ in range(60):
            old = ["".join(chr(rng.randrange(2)) for _ in range(rng.randint(1, 4)))
                   for _ in range(rng.randint(1, 4))]
            new = []
            for _ in range(rng.randint(1, 4)):
                p, tail = rng.choice(old), chr(rng.randrange(2)) * rng.randint(1, 2)
                i = rng.randrange(len(p))
                new.append(rng.choice([p + tail, tail + p, p[i:rng.randint(i + 1, len(p))]]))
            base = RedexIndex(old)
            extended = RedexIndex(new, base)
            for word in all_words(AB, 6, min_len=0):
                assert extended.find(word.letters) == reference_find(old + new, word.letters)
                assert base.find(word.letters) == reference_find(old, word.letters)

    def test_no_patterns(self):
        empty = RedexIndex([])
        assert empty.find("") is None and empty.find("\0\1") is None
        assert RedexIndex(["\0"], empty).find("\1\0") == (1, 0, 2)

    def test_patterns_longer_than_the_depth_cut(self):
        # a path cut at _DEPTH letters is a start the walk rejects: the
        # search goes on from the next letter, and from there only
        long = "\0" * (words._DEPTH + 6)
        index = RedexIndex([long + "\1", "\2"])
        assert index.find("\0" + long + "\1") == (1, 0, len(long) + 2)
        assert index.find("\0\0" + long + "\1") == (2, 0, len(long) + 3)
        assert index.find(long + "\2") == (len(long), 1, len(long) + 1)
        assert index.find(long + "\0") is None
        assert RedexIndex([long]).find(long[1:] + "\1" + long) == (len(long), 0, 2 * len(long))

    def test_letters_that_expressions_treat_as_syntax(self):
        # over 128 generators the letters are the ASCII characters, among
        # them ( ) * . ? [ and the backslash, which the expression escapes
        letters = Word(Alphabet([f"g{i}" for i in range(128)]), range(128)).letters
        special = "()*.?[\\"
        assert set(special) < set(letters)
        rng = random.Random(23)
        hits = 0
        for _ in range(300):
            patterns = ["".join(rng.choice(special if rng.random() < 0.7 else letters)
                                for _ in range(rng.randint(1, 3)))
                        for _ in range(rng.randint(1, 6))]
            index = RedexIndex(patterns)
            for _ in range(20):
                word = "".join(rng.choice(special) for _ in range(rng.randint(0, 8)))
                found = index.find(word)
                assert found == reference_find(patterns, word)
                hits += found is not None
        assert hits == 1843  # of 6,000 searches

    def test_a_trie_deeper_than_the_expression_nests(self):
        # 900 branch levels, more than re.compile can nest as groups
        index = RedexIndex(["\0" * k + "\1" for k in range(900)])
        assert index.find("\2" + "\0" * 850 + "\1") == (1, 850, 852)
        assert index.find("\0" * 1000) is None
        assert index.find("\0" * 899 + "\1") == (0, 899, 900)
        assert RedexIndex(["\0" * 2000]).find("\1" + "\0" * 2000) == (1, 0, 2001)
        # a 2,000-letter unary left side below a one-letter end of higher index
        unary = RedexIndex(["\0" * 2000, "\0" * 1999 + "\1", "\0"])
        assert unary.find("\0" * 2000) == (0, 0, 2000)
        assert unary.find("\0" * 1999 + "\1") == (0, 1, 2000)
        assert unary.find("\1" + "\0" * 1999) == (1, 2, 2)

    def test_walk_follows_the_reference_chain(self):
        # every word the walk searches is on its path, and an irreducible
        # last word is what it returns; some searches match a cut path,
        # where find's trie walk picks the redex or rejects the start
        steps = cut = 0
        for index, patterns, swaps, found in walk_cases(37):
            for letters in found:
                chain, _ = reference_walk(patterns, swaps, letters)
                path = []
                end = index.walk(letters, swaps, {}, path, len(chain) + 1)
                assert path == chain and end is path[-1]
                steps += len(chain) - 1
                matches = filter(None, map(index._search, chain))
                cut += sum(index._lowest[match.group()] is None for match in matches)
        assert (steps, cut) == (9374, 109)

    def test_walk_stops_at_the_first_known_word(self):
        # the first word is searched whether known holds it or not
        for index, patterns, swaps, found in walk_cases(41):
            for letters in found:
                chain, _ = reference_walk(patterns, swaps, letters)
                for k in range(1, len(chain)):
                    known = {word: j for j, word in enumerate(chain) if j == 0 or j >= k}
                    path = []
                    assert index.walk(letters, swaps, known, path, len(chain)) == k
                    assert path == chain[:k]

    def test_walk_stops_at_a_member_without_a_swap(self):
        rng = random.Random(43)
        stopped = 0
        for index, patterns, swaps, found in walk_cases(43):
            swaps = [None if rng.random() < 0.4 else swap for swap in swaps]
            for letters in found:
                chain, hit = reference_walk(patterns, swaps, letters)
                path = []
                end = index.walk(letters, swaps, {}, path, len(chain))
                assert path == chain
                assert end == (hit if hit is not None else chain[-1])
                stopped += hit is not None
        assert stopped == 2301  # of 7,908 walks

    def test_walk_stops_with_exactly_limit_words(self):
        # a k-step walk needs k + 1 words: with fewer, the last word's
        # successor is neither searched nor known
        for index, patterns, swaps, found in walk_cases(47):
            for letters in found[::3]:
                chain, _ = reference_walk(patterns, swaps, letters)
                for limit in range(len(chain) + 2):
                    path = []
                    end = index.walk(letters, swaps, {}, path, limit)
                    assert path == chain[:limit]
                    assert end is (path[-1] if limit >= len(chain) else None)

    def test_overlap_candidates(self):
        def pairs(patterns):
            return {(i, j) for i, j, _ in RedexIndex(patterns).overlaps()}

        # aab and acb share letters, but neither is a factor of the other and
        # no suffix of one begins the other; ab, ba, abab and a second ab all
        # meet, except ab and ba with themselves
        assert pairs(["\0\0\1", "\0\2\1"]) == set()
        everything = {(i, j) for i in range(4) for j in range(4)}
        assert pairs(["\0\1", "\1\0", "\0\1\0\1", "\0\1"]) == everything - {(0, 0), (1, 1), (3, 3)}

    def test_rejects_empty_pattern(self):
        with pytest.raises(ValueError):
            RedexIndex(["\0", ""])

    def test_matches_reference_scan_from_every_start(self):
        rng = random.Random(17)
        hits = 0
        for _ in range(200):
            lhss = ["".join(chr(rng.randrange(2)) for _ in range(rng.randint(1, 4)))
                    for _ in range(rng.randint(1, 6))]
            index = RedexIndex(lhss)
            # a scan from a later start is the scan of a suffix, itself one
            # of the words
            for word in all_words(AB, 6, min_len=0):
                found = index.find(word.letters)
                assert found == reference_find(lhss, word.letters)
                hits += found is not None
        assert hits == 20718  # of 25,400 searches

    def test_long_patterns_match_reference_scan(self):
        # patterns over a and b up to 4 letters past the depth cut; each word
        # is a random word with a prefix or a suffix of a pattern spliced in,
        # so that some candidate starts are cut paths that the walk rejects
        rng = random.Random(19)
        longest, hits = words._DEPTH + 4, 0
        for _ in range(200):
            lhss = ["".join(chr(rng.randrange(2)) for _ in range(rng.randint(1, longest)))
                    for _ in range(rng.randint(1, 6))]
            index = RedexIndex(lhss)
            for _ in range(60):
                word = "".join(chr(rng.randrange(2)) for _ in range(rng.randint(0, longest + 4)))
                lhs, at = rng.choice(lhss), rng.randint(0, len(word))
                cut = rng.randint(0, len(lhs))
                word = word[:at] + (lhs[:cut] if rng.random() < 0.5 else lhs[cut:]) + word[at:]
                found = index.find(word)
                assert found == reference_find(lhss, word)
                hits += found is not None
        assert hits == 5677  # of 12,000 searches

    def test_extended_system_answers_as_one_built_whole(self):
        # one base extended two ways, by the tail of a random system and by
        # part of that tail reversed: each finds and walks as the system
        # built whole, and the base's trie is left as it was
        rng = random.Random(101)
        for _ in range(80):
            system = random_redex_system(rng)
            cut = rng.randint(0, len(system.rules))
            base = RewriteSystem(system.order, system.rules[:cut], system.mode)
            trie = copy.deepcopy(base._index._root)
            tail = system.rules[cut:]
            for extra in (tail, tail[::-1][:rng.randint(0, len(tail))]):
                extended = base.with_rules(extra)
                whole = RewriteSystem(system.order, base.rules + extra, system.mode)
                assert extended == whole
                for word in all_words(system.alphabet, 6, min_len=0):
                    assert extended._index.find(word.letters) == whole._index.find(word.letters)
                for since in (0, cut, len(whole.rules)):
                    assert extended._index.overlaps(since) == whole._index.overlaps(since)
            assert base._index._root == trie
            fresh = RedexIndex(rule.lhs.letters for rule in base.rules)
            assert all(base._index.find(word.letters) == fresh.find(word.letters)
                       for word in all_words(system.alphabet, 6, min_len=0))

    def test_extension_copies_only_the_new_paths(self):
        # nodes off the new pattern's path are the base's own objects
        base = RedexIndex(["\0\0", "\1\1\1"])
        extended = RedexIndex(["\0\1"], base)
        assert extended._root["\1"] is base._root["\1"]
        assert extended._root["\0"]["\0"] is base._root["\0"]["\0"]
        assert extended._root["\0"] is not base._root["\0"]
        assert extended.find("\1\0\1") == (1, 2, 3) and base.find("\1\0\1") is None


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
        assert witness_lengths(matches[0]) == (0, 0, 0, 0)

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
                        if any(witness_lengths(m) == (0, 0, 0, 0) for m in found)}
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
                             for i, j, m in stream if witness_lengths(m) == (0, 0, 0, 0)}
        assert identity == {"across", "above"}

    def test_a_row_lists_kind_before_witness_lengths(self):
        # in row (0, 1) of b.a and a.b.a, the containment a.(b.a) = a.b.a
        # has u1 = a, the overlap (b.a).b.a = b.(a.b.a) has u1 empty: kind
        # first puts the containment first, witness lengths first would not
        rows = [pair_matches(w("ba"), w("aba"))]
        assert [(m.kind, witness_lengths(m)) for m in rows[0]] == [
            (MatchKind.CONTAINMENT_21, (1, 0, 0, 0)), (MatchKind.SUFFIX_PREFIX, (0, 2, 1, 0))]
        rng = random.Random(53)
        for _ in range(60):
            lhss = [rule.lhs for rule in random_redex_system(rng).rules]
            for l1 in lhss:
                rows += [pair_matches(l1, l2, include_identity=True) for l2 in lhss]
        kinds = list(MatchKind)
        for row in rows:
            keys = [(kinds.index(m.kind), witness_lengths(m)) for m in row]
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
