"""Free-semigroup words, admissible orderings, and overlap detection.

Shared vocabulary for the string-rewriting and noncommutative-polynomial
engines: alphabets of named generators, words whose letters are one str with
the character chr(index) for each generator, shortlex and weighted-shortlex
orderings, the redex index whose walk takes every reduction step of both
engines (the first match of one regular expression is the redex, at the
leftmost start the lowest index), and the four configurations in which two
left-hand sides can share ground on one word. One trie walk of an engine's
redex index, overlaps, yields every match of every pair of its left sides,
as letter strings; there is no subword search and no search of one pair at
a time, and overlaps can skip the pairs of patterns all below a given index.
"""

from __future__ import annotations

import enum
import functools
import re
from typing import NamedTuple

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")  # a generator name, as the file grammar has it
_DOTTED_MEMO = 1 << 16  # word texts an alphabet keeps; a full memo starts over


class AlphabetMismatch(ValueError):
    """Mixing words (or orders) that belong to different alphabets."""


class Alphabet:
    """Ordered collection of distinct generator names, each matching
    ``[A-Za-z_][A-Za-z0-9_]*``: no name is "1" or holds a ".", so the
    dotted text of every word reads back as that word."""

    __slots__ = ("symbols", "_index", "_dotted")

    def __init__(self, symbols):
        symbols = tuple(symbols)
        if not symbols:
            raise ValueError("alphabet must name at least one generator")
        for name in symbols:
            if not isinstance(name, str) or not _NAME.fullmatch(name):
                raise ValueError(f"invalid generator name: {name!r}")
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate generator name in alphabet")
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
        return Word(self, [self.index(n) for n in names])


class Word:
    """Immutable word over an alphabet; may be empty. Its letters are a str
    holding chr(index) of each generator, so a word hashes once (str caches
    its hash) and is spliced by slicing and concatenation."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters=""):
        """letters: the generator indices, as ints or as a str of chr(index)."""
        indices = tuple(map(ord, letters) if isinstance(letters, str) else letters)
        n = len(alphabet)
        for ix in indices:
            if not 0 <= ix < n:
                raise ValueError(f"letter index {ix} outside alphabet of size {n}")
        self.alphabet = alphabet
        self.letters = "".join(map(chr, indices))

    @classmethod
    def _raw(cls, alphabet, letters):
        # internal fast path: letters already a str of valid indices
        word = object.__new__(cls)
        word.alphabet = alphabet
        word.letters = letters
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
        return hash(self.letters)

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
            if len(memo) >= _DOTTED_MEMO:
                memo.clear()
            symbols = self.alphabet.symbols
            text = memo[self.letters] = ".".join([symbols[ord(c)] for c in self.letters])
        return text

    def __repr__(self):
        return f"Word({self.dotted()!r})"


def word_table(alphabet):
    """word(letters), the Word of valid letters (not checked) over the
    alphabet: one Word per distinct letters for the function's life."""
    table = {}

    def word(letters):
        found = table.get(letters)
        if found is None:
            found = table[letters] = Word._raw(alphabet, letters)
        return found

    return word


class MonomialOrder:
    """Total word order compatible with concatenation on both sides.

    Weighted shortlex (wtlex) compares total weight, then length, then
    letters by precedence. Weights map each generator name to a positive
    integer; an order given none weighs every generator one, which is
    shortlex: length first, then letters. Both are admissible and
    well-founded.
    """

    __slots__ = ("alphabet", "precedence", "weights", "_rank", "_ranks_are_letters", "_weight_of")

    def __init__(self, alphabet, precedence=None, weights=None):
        if precedence is None:
            precedence = alphabet.symbols
        precedence = tuple(precedence)
        if sorted(precedence) != sorted(alphabet.symbols):
            raise ValueError("precedence must list every generator exactly once")
        rank = [0] * len(alphabet)
        for pos, name in enumerate(precedence):
            rank[alphabet.index(name)] = pos
        if weights is None:
            weights = dict.fromkeys(alphabet.symbols, 1)
        if not hasattr(weights, "keys") or set(weights.keys()) != set(alphabet.symbols):
            raise ValueError("weights must map every generator to its weight")
        weights = tuple(weights[name] for name in alphabet.symbols)
        if any(type(w) is not int or w <= 0 for w in weights):
            raise ValueError("weights must be positive integers")
        self.alphabet = alphabet
        self.precedence = precedence
        self.weights = weights  # by letter index
        self._weight_of = {chr(ix): w for ix, w in enumerate(weights)}.__getitem__
        self._rank = "".join(map(chr, rank))  # a str.translate table: letter -> its rank
        # shortlex in alphabet order: the ranks of a word are its letters
        self._ranks_are_letters = set(weights) == {1} and precedence == alphabet.symbols

    def key(self, word: Word):
        """Sort key; keys compare exactly as the order does."""
        if self._ranks_are_letters:
            return (len(word.letters), word.letters)
        letters = word.letters
        return (self.weight(letters), len(letters), letters.translate(self._rank))

    def weight(self, letters: str) -> int:
        """The first component of a key: the sum of the generator weights."""
        return sum(map(self._weight_of, letters))

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

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.alphabet == other.alphabet
            and self.precedence == other.precedence
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.alphabet, self.precedence, self.weights))


# trie node keys besides the letters (one-character strings), holding ascending
# pattern indices: of the patterns ending at the node; passing through or ending
# at it. Not -2: hash(-2) == hash(-1), and the collision slows every lookup of
# _END in find.
_END, _BELOW = -1, -3
# letters of a trie path that _starts spells, each nesting one group at most:
# re.compile raises RecursionError somewhere between 400 and 800 nested
# groups. On a path cut here find's trie walk picks the redex, if any
_DEPTH = 24
_escape = functools.cache(re.escape)  # a letter as the expression spells it


def _starts(node, lowest, best, text=""):
    """The alternatives of the expression that matches from where a path
    below node begins (node's path spelling text) up to the pattern of
    lowest index, below best, that occurs there: on each path the patterns
    below an end of lower index are dropped, and the rest are tried before
    the end. lowest maps each text an alternative can match to its index,
    or to None where a path is cut after _DEPTH letters."""
    branches = []
    for letter, child in node.items():
        if type(letter) is str and child[_BELOW][0] < best:
            here, ends, branch = text + letter, child.get(_END), _escape(letter)
            low = ends[0] if ends and ends[0] < best else best
            if low < best:
                lowest[here] = low
            if child[_BELOW][0] < low and len(here) == _DEPTH:
                lowest[here] = None
            elif child[_BELOW][0] < low:  # a pattern of lower index goes on
                deeper = _starts(child, lowest, low, here)
                if low < best:
                    deeper.append("")
                branch += deeper[0] if len(deeper) == 1 else "(?:" + "|".join(deeper) + ")"
            branches.append(branch)
    return branches


def _trie(patterns, first=0, root=None):
    """The root of the trie over patterns, numbered from first, extending the
    trie at root by path copying: their own trie merges into a copy of root
    that copies each node both hold and shares the rest; root is unchanged."""
    new = {}
    for index, letters in enumerate(patterns, first):
        if not letters:
            raise ValueError("patterns must be nonempty")
        node = new
        for letter in letters:
            node = node.setdefault(letter, {})
            node.setdefault(_BELOW, []).append(index)
        node.setdefault(_END, []).append(index)
    top = dict(root or {})
    todo = [(top, new)]
    while todo:
        merged, node = todo.pop()
        for key, value in node.items():
            if type(value) is list:  # root's indices, then the new ones
                merged[key] = merged.get(key, []) + value
            elif key in merged:
                merged[key] = dict(merged[key])
                todo.append((merged[key], value))
            else:
                merged[key] = value
    return top


class RedexIndex:
    """Trie over letter strings, for redex search and overlap detection in both engines.

    The patterns are the rule left sides or the basis leading monomials, in
    index order. Nodes are plain dicts from letter (a one-character str) to
    child, plus the keys _END and _BELOW. This is the trie of the index
    automaton in Sims, Computation with Finitely Presented Groups (CUP 1994),
    without failure transitions. The trie compiles into one expression
    (_starts) whose search finds in C the leftmost start of a path and, on
    it, the pattern of lowest index: the text matched names it. Only on a
    path cut after _DEPTH letters does a walk of the trie pick the index,
    or reject the start and the search resume one letter on. So the redex
    policy "leftmost start, then lowest index" holds exactly even when one
    pattern contains another. Members are only appended, so an engine's
    next state extends its index: the two share every node off the new
    patterns' paths, and the old index answers as before.
    """

    __slots__ = ("_root", "_patterns", "_search", "_lowest")

    def __init__(self, patterns, base=None):
        """The index of base's patterns (none by default), then these."""
        old = base._patterns if base else ()
        self._patterns = old + tuple(patterns)
        self._root = _trie(self._patterns[len(old):], len(old), base and base._root)
        self._lowest = {}  # the text of each match of the search -> its redex's index
        starts = _starts(self._root, self._lowest, len(self._patterns))
        self._search = re.compile("|".join(starts) or "(?!)").search

    def duplicate(self, members, since):
        """The first of members[since:] equal to an earlier member, or None,
        where members[k] has pattern k: equal members end at one node."""
        for k in range(since, len(members)):
            node = self._root
            for letter in self._patterns[k]:
                node = node[letter]
            if any(members[j] == members[k] for j in node[_END] if j < k):
                return members[k]

    def find(self, letters):
        """(pos, index, end) of the leftmost pattern occurrence, with the
        lowest index among the patterns occurring there: letters[pos:end] is
        pattern number index. None if nothing occurs. A walk calls it only
        on a path cut after _DEPTH letters."""
        search, lowest = self._search, self._lowest
        start = search(letters)
        while start is not None:
            pos, end = start.span()
            best = lowest[start.group()]
            if best is None:  # a cut path: the walk from pos decides
                node = self._root[letters[pos]]
                at, n = pos, len(letters)
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
            start = search(letters, pos + 1)
        return None

    def walk(self, letters, swaps, known, path, limit):
        """Reduce letters at the redexes find picks, appending each word it
        searches to path; a step splices swaps[index] over pattern index. It
        returns the value known (a memo of no str, tuple or None) holds for a
        word a step reaches, an irreducible word's letters, (pos, index, end)
        at a redex whose swap is None, or None once path holds limit words."""
        search, lowest = self._search, self._lowest
        while len(path) < limit:
            path.append(letters)
            match = search(letters)
            if match is None:
                return letters
            pos, end = match.span()
            index = lowest[match.group()]
            if index is None:  # a cut path: find's trie walk decides
                hit = self.find(letters)
                if hit is None:
                    return letters
                pos, index, end = hit
            swap = swaps[index]
            if swap is None:
                return pos, index, end
            letters = letters[:pos] + swap + letters[end:]
            found = known.get(letters)
            if found is not None:
                return found

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
        find each match, so those below since walk a trie of patterns[since:].
        A witness is a letter string, "" when empty. Equal witnesses of one
        call are one str, and twin matches, (i, j) and (j, i) of one meeting,
        hold the same ones."""
        patterns = self._patterns
        newer = _trie(patterns[since:], since) if since else self._root
        found = []
        keep = {}.setdefault  # one str per distinct witness of the call
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
                                    MatchKind.CONTAINMENT_12, "", "", "", "")))
                    elif ends is not None:
                        u, v = letters[:start], letters[at:]
                        u, v = keep(u, u), keep(v, v)
                        for j in ends:
                            found.append((i, j, 0, 0, 0, start, n - at, OverlapMatch(
                                MatchKind.CONTAINMENT_12, "", "", u, v)))
                            found.append((j, i, 1, start, n - at, 0, 0, OverlapMatch(
                                MatchKind.CONTAINMENT_21, u, v, "", "")))
                    if at == n:
                        if start:
                            u, shared = letters[:start], n - start
                            u = keep(u, u)
                            for j in node[_BELOW]:
                                v = patterns[j][shared:]
                                if v:
                                    v = keep(v, v)
                                    found.append((i, j, 2, 0, len(v), start, 0, OverlapMatch(
                                        MatchKind.SUFFIX_PREFIX, "", v, u, "")))
                                    found.append((j, i, 3, start, 0, 0, len(v), OverlapMatch(
                                        MatchKind.PREFIX_SUFFIX, u, "", "", v)))
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
    """One configuration of two left-hand sides, with its letter-string witnesses.

    In every configuration u1.l1.v1 = u2.l2.v2, the smallest word on which
    both sides apply; the witnesses a configuration does not use are empty,
    so the kind only labels which ones are empty.
    """

    kind: MatchKind
    u1: str
    v1: str
    u2: str
    v2: str

