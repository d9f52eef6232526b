"""Free-semigroup words, admissible orderings, and overlap detection.

Shared vocabulary for the string-rewriting and noncommutative-polynomial
engines: alphabets of named generators, words stored as index sequences,
shortlex and weighted-shortlex orderings, the redex index both engines
search, and the four configurations in which two left-hand sides can share
ground on one word. One walk of an engine's redex index yields every match
of every pair of its left sides, as letters; there is no subword search and
no search of one pair at a time, and a walk can skip the pairs of patterns
all below a given index.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class AlphabetMismatch(ValueError):
    """Mixing words (or orders) that belong to different alphabets."""


class Alphabet:
    """Ordered collection of distinct generator names."""

    __slots__ = ("symbols", "_index", "_dotted")

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must name at least one generator")
        seen = set()
        for name in symbols:
            if not isinstance(name, str) or not name:
                raise ValueError(f"generator name must be a nonempty string: {name!r}")
            if any(ch.isspace() or not ch.isprintable() for ch in name):
                raise ValueError(f"generator name contains whitespace or unprintable characters: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate generator name: {name!r}")
            seen.add(name)
        self.symbols = symbols
        self._index = {name: i for i, name in enumerate(symbols)}
        self._dotted = {}  # letters -> Word.dotted text, filled as words are printed

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return other is self or (isinstance(other, Alphabet) and self.symbols == other.symbols)

    def __hash__(self):
        return hash(self.symbols)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown generator: {name!r}") from None

    def word(self, *names: str) -> "Word":
        """Build a word from generator names."""
        return Word(self, tuple(self.index(n) for n in names))

    def parse_word(self, text: str) -> "Word":
        """Parse ``"b.a"`` (dotted), ``"ba"`` (single-char alphabets), or ``"1"``."""
        if not text:
            raise ValueError("empty word; write the empty word as '1'")
        if text == "1":
            return Word(self, ())
        if "." in text:
            names = text.split(".")
        elif text in self._index:
            names = [text]
        elif all(len(s) == 1 for s in self.symbols):
            names = list(text)
        else:
            raise ValueError(f"cannot split {text!r}; separate generator names with '.'")
        if any(not n for n in names):
            raise ValueError(f"malformed word: {text!r}")
        return self.word(*names)


class Word:
    """Immutable sequence of generator indices; may be empty."""

    __slots__ = ("alphabet", "letters", "_hash")

    def __init__(self, alphabet: Alphabet, letters=()):
        letters = tuple(letters)
        n = len(alphabet)
        for ix in letters:
            if not 0 <= ix < n:
                raise ValueError(f"letter index {ix} outside alphabet of size {n}")
        self.alphabet = alphabet
        self.letters = letters
        self._hash = hash((alphabet.symbols, letters))

    @classmethod
    def _raw(cls, alphabet, letters):
        # internal fast path: letters already known to be valid indices
        word = object.__new__(cls)
        word.alphabet = alphabet
        word.letters = letters
        word._hash = hash((alphabet.symbols, letters))
        return word

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and (self.alphabet is other.alphabet or self.alphabet == other.alphabet)
        )

    def __hash__(self):
        return self._hash

    def __mul__(self, other):
        if not isinstance(other, Word):
            return NotImplemented
        if other.alphabet != self.alphabet:
            raise AlphabetMismatch("cannot concatenate words over different alphabets")
        return Word._raw(self.alphabet, self.letters + other.letters)

    def dotted(self) -> str:
        """Canonical text form: names joined with '.', empty word as '1'."""
        if not self.letters:
            return "1"
        memo = self.alphabet._dotted
        text = memo.get(self.letters)
        if text is None:
            symbols = self.alphabet.symbols
            text = memo[self.letters] = ".".join([symbols[ix] for ix in self.letters])
        return text

    def __repr__(self):
        return f"Word({self.dotted()!r})"


class MonomialOrder:
    """Total word order compatible with concatenation on both sides.

    ``shortlex`` compares length first, then letters by precedence.
    ``wtlex`` compares total weight, then length, then letters; with all
    weights equal to one it coincides with shortlex. Both are admissible
    and well-founded.
    """

    SHORTLEX = "shortlex"
    WTLEX = "wtlex"

    __slots__ = ("kind", "alphabet", "precedence", "weights", "_rank", "_ranks_are_letters")

    def __init__(self, kind, alphabet, precedence=None, weights=None):
        if kind not in (self.SHORTLEX, self.WTLEX):
            raise ValueError(f"unknown order kind: {kind!r}")
        if precedence is None:
            precedence = alphabet.symbols
        precedence = tuple(precedence)
        if sorted(precedence) != sorted(alphabet.symbols):
            raise ValueError("precedence must list every generator exactly once")
        rank = [0] * len(alphabet)
        for pos, name in enumerate(precedence):
            rank[alphabet.index(name)] = pos
        if kind == self.WTLEX:
            if weights is None:
                raise ValueError("wtlex needs a weight for every generator")
            if hasattr(weights, "keys"):
                if set(weights.keys()) != set(alphabet.symbols):
                    raise ValueError("one weight per generator required")
                weights = tuple(weights[name] for name in alphabet.symbols)
            else:
                weights = tuple(weights)
            if len(weights) != len(alphabet):
                raise ValueError("one weight per generator required")
            if any(type(w) is not int or w <= 0 for w in weights):
                raise ValueError("weights must be positive integers")
        else:
            if weights is not None:
                raise ValueError("shortlex takes no weights")
        self.kind = kind
        self.alphabet = alphabet
        self.precedence = precedence
        self.weights = weights
        self._rank = tuple(rank)
        # shortlex in alphabet order: the rank tuple of a word is its letters
        self._ranks_are_letters = kind == self.SHORTLEX and precedence == alphabet.symbols

    @classmethod
    def shortlex(cls, alphabet, precedence=None):
        return cls(cls.SHORTLEX, alphabet, precedence)

    @classmethod
    def weighted_shortlex(cls, alphabet, weights, precedence=None):
        return cls(cls.WTLEX, alphabet, precedence, weights)

    def key(self, word: Word):
        """Sort key; tuples compare exactly as the order does."""
        if self._ranks_are_letters:
            return (len(word.letters), word.letters)
        ranks = tuple(self._rank[ix] for ix in word.letters)
        if self.kind == self.SHORTLEX:
            return (len(word.letters), ranks)
        weight = sum(self.weights[ix] for ix in word.letters)
        return (weight, len(word.letters), ranks)

    def compare(self, w1: Word, w2: Word) -> int:
        """-1, 0, or 1 as w1 is below, equal to, or above w2."""
        if w1.alphabet != self.alphabet or w2.alphabet != self.alphabet:
            raise AlphabetMismatch("words do not belong to this order's alphabet")
        k1, k2 = self.key(w1), self.key(w2)
        if k1 < k2:
            return -1
        if k1 > k2:
            return 1
        return 0

    def greater(self, w1: Word, w2: Word) -> bool:
        return self.compare(w1, w2) > 0

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.alphabet == other.alphabet
            and self.precedence == other.precedence
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.kind, self.alphabet, self.precedence, self.weights))


# trie node keys besides the letters (>= 0), holding ascending pattern indices:
# of the patterns ending at the node; passing through or ending at it. Not -2:
# hash(-2) == hash(-1), and the collision slows every lookup of _END in find.
_END, _BELOW = -1, -3


def _trie(patterns, first=0):
    """The root of the trie over patterns, numbered from first."""
    root = {}
    for index, letters in enumerate(patterns, first):
        if not letters:
            raise ValueError("patterns must be nonempty")
        node = root
        for letter in letters:
            node = node.setdefault(letter, {})
            node.setdefault(_BELOW, []).append(index)
        node.setdefault(_END, []).append(index)
    return root


class RedexIndex:
    """Trie over letter tuples, for redex search and overlap detection in both engines.

    The patterns are the rule left sides or the basis leading monomials, in
    index order. Nodes are plain dicts from letter to child, plus the keys
    _END and _BELOW. This is the trie of the index automaton in Sims,
    Computation with Finitely Presented Groups (CUP 1994), without failure
    transitions: the walk restarts at each start, so the redex policy
    "leftmost start, then lowest index" holds exactly even when one pattern
    contains another.
    """

    __slots__ = ("_root", "_patterns")

    def __init__(self, patterns):
        self._patterns = patterns = tuple(patterns)
        self._root = _trie(patterns)

    def find(self, letters):
        """(pos, index, end) of the leftmost pattern occurrence, with the
        lowest index among the patterns occurring there: letters[pos:end] is
        pattern number index. None if nothing occurs. Every reduction in
        both engines picks its redex here."""
        root = self._root
        n = len(letters)
        for pos in range(n):
            node = root.get(letters[pos])
            best = None
            at = pos
            while node is not None:
                at += 1
                ends = node.get(_END)
                if ends is not None and (best is None or ends[0] < best):
                    best, end = ends[0], at
                if at == n:
                    break
                node = node.get(letters[at])
            if best is not None:
                return pos, best, end
        return None

    def overlaps(self, since=0):
        """Every match of every ordered pair (i, j) of patterns with i or j
        at least since (every pair by default), as (i, j, match); it builds no Word.

        This is the examination order of a completion pass in both engines:
        first index, then second index, then match kind, then witness
        lengths. Two distinct patterns that coincide meet in the identity
        containment, every witness empty; a pattern never forms it with
        itself. The walks from the starts of pattern p meet every pattern q
        inside p, one containment of each kind; where a walk from inside p
        uses up the suffix, every longer pattern below the node begins with
        it, one overlap of each kind. The walks of one of its two patterns
        find each match, so those below since walk a trie of patterns[since:]."""
        patterns = self._patterns
        newer = _trie(patterns[since:], since) if since else self._root
        found = []
        for i, letters in enumerate(patterns):
            root = self._root if i >= since else newer
            n = len(letters)
            for start in range(n):
                node = root.get(letters[start])
                at = start + 1
                while node is not None:
                    ends = node.get(_END)
                    if ends is not None and at - start == n:
                        # every pattern ending here is p or a duplicate of it
                        for j in ends:
                            if j != i:
                                found.append((i, j, 0, 0, 0, 0, 0, OverlapMatch(
                                    MatchKind.CONTAINMENT_12, (), (), (), ())))
                    elif ends is not None:
                        u, v = letters[:start], letters[at:]
                        for j in ends:
                            found.append((i, j, 0, 0, 0, start, n - at, OverlapMatch(
                                MatchKind.CONTAINMENT_12, (), (), u, v)))
                            found.append((j, i, 1, start, n - at, 0, 0, OverlapMatch(
                                MatchKind.CONTAINMENT_21, u, v, (), ())))
                    if at == n:
                        if start:
                            u, shared = letters[:start], n - start
                            for j in node[_BELOW]:
                                v = patterns[j][shared:]
                                if v:
                                    found.append((i, j, 2, 0, len(v), start, 0, OverlapMatch(
                                        MatchKind.SUFFIX_PREFIX, (), v, u, ())))
                                    found.append((j, i, 3, start, 0, 0, len(v), OverlapMatch(
                                        MatchKind.PREFIX_SUFFIX, u, (), (), v)))
                        break
                    node = node.get(letters[at])
                    at += 1
        # the first seven fields never tie, so no match is ever compared
        found.sort()
        return [(entry[0], entry[1], entry[7]) for entry in found]


class MatchKind(enum.Enum):
    """How two left-hand sides can occupy one superposition word."""

    CONTAINMENT_12 = "Containment12"  # l1 = u2.l2.v2
    CONTAINMENT_21 = "Containment21"  # u1.l1.v1 = l2
    SUFFIX_PREFIX = "SuffixPrefix"    # l1.v1 = u2.l2
    PREFIX_SUFFIX = "PrefixSuffix"    # u1.l1 = l2.v2


class OverlapMatch(NamedTuple):
    """One configuration of two left-hand sides, with its letter-tuple witnesses.

    In every configuration u1.l1.v1 = u2.l2.v2, the smallest word on which
    both sides apply; the witnesses a configuration does not use are empty,
    so the kind only labels which ones are empty.
    """

    kind: MatchKind
    u1: tuple
    v1: tuple
    u2: tuple
    v2: tuple

    def witness_lengths(self):
        return (len(self.u1), len(self.v1), len(self.u2), len(self.v2))

