"""String rewriting systems, completion passes, and the word problem.

Reduction is deterministic: the leftmost redex wins, and at a given
position the lowest-index rule wins. Each system holds one words.RedexIndex
over its left sides, and the index's walk takes every reduction step, the
same walk as the polynomial engine's; with_rules checks only the rules it
appends, and its index extends the old one's. A completion pass computes
every critical pair against the fixed input system and only then installs
the oriented survivors, so pass results do not depend on examination order
and rules are never removed or rewritten mid-run. Because the system is
fixed, a normal form depends on the word alone, nf(w) = nf(step(w)), and
the one reduction, normal_forms, memoizes it on every word a reduction
passes through, for one pass, one iso-check or one query. A word's letters
are one str, so a step splices strings and the memo keys on them. A pass
builds and reduces one critical pair at a time, and completion.pair_records
decides which pairs it examines. The raw words a pass builds come from one
words.word_table, so twin pairs share theirs, and an irreducible raw word
is its own normal form.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

from . import completion
from .completion import (
    CompletionLimits,
    PairRecord,
    PassRecord,
    ReductionBudgetExceeded,
    complete,
    next_state,
    pair_records,
)
from .words import (
    AlphabetMismatch,
    MonomialOrder,
    RedexIndex,
    Word,
    word_table,
)

SEMIGROUP = "sgp"
MONOID = "mon"


@dataclass(frozen=True, slots=True)
class Rule:
    """Oriented rewrite rule; the left side is greater under the order."""

    lhs: Word
    rhs: Word

    def render(self) -> str:
        return f"{self.lhs.dotted()}->{self.rhs.dotted()}"


@dataclass(frozen=True)
class RewriteSystem:
    """A finite set of oriented rules over the alphabet of one order."""

    order: MonomialOrder
    rules: tuple = ()
    mode: str = SEMIGROUP
    alphabet = property(lambda self: self.order.alphabet)

    def __post_init__(self, base=None):
        # base, from with_rules: the index of the leading rules, checked already
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.mode not in (SEMIGROUP, MONOID):
            raise ValueError(f"mode must be {SEMIGROUP!r} or {MONOID!r}")
        since = len(base._patterns) if base else 0
        for rule in self.rules[since:]:
            if rule.lhs.alphabet != self.alphabet or rule.rhs.alphabet != self.alphabet:
                raise AlphabetMismatch(f"rule over a different alphabet: {rule.render()}")
            if len(rule.lhs) == 0:
                raise ValueError("rule left side must be nonempty")
            if self.mode == SEMIGROUP and len(rule.rhs) == 0:
                raise ValueError(f"empty right side needs monoid mode: {rule.render()}")
            if self.order.compare(rule.lhs, rule.rhs) <= 0:
                raise ValueError(f"rule is not oriented descending: {rule.render()}")
        index = RedexIndex((rule.lhs.letters for rule in self.rules[since:]), base)
        twin = index.duplicate(self.rules, since)
        if twin is not None:
            raise ValueError(f"duplicate rule: {twin.render()}")
        object.__setattr__(self, "_index", index)

    def with_rules(self, extra) -> "RewriteSystem":
        """This system and then extra, which alone is checked, by extending its index."""
        nxt = copy.copy(self)
        object.__setattr__(nxt, "rules", self.rules + tuple(extra))
        nxt.__post_init__(self._index)
        return nxt


def is_irreducible(system: RewriteSystem, word: Word) -> bool:
    """True when no left side of the system occurs in the word."""
    if word.alphabet != system.alphabet:
        raise AlphabetMismatch("word over a different alphabet")
    return system._index.find(word.letters) is None


def normal_form(system: RewriteSystem, word: Word) -> Word:
    """The normal form of the word, by a normal_forms memo of its own."""
    if word.alphabet != system.alphabet:
        raise AlphabetMismatch("word over a different alphabet")
    return normal_forms(system)(word)


def normal_forms(system: RewriteSystem):
    """nf(word), the normal form of a word over the system's alphabet (not
    checked), memoized on every word a reduction passes through.

    A step rewrites the leftmost redex, at the lowest rule index on ties,
    and every step descends, so a miss walks these steps (RedexIndex.walk,
    each right side the swap of its rule) to an irreducible or known word,
    and every word of the walk gets its form. An irreducible word given is
    its own form, the same object.

    A call raises ReductionBudgetExceeded when it would search more than
    completion.STEP_BUDGET words not yet in the memo, as it was when the
    memo was made, the irreducible one that ends the walk included: a
    k-step walk needs k + 1. Whether a call raises thus depends on the
    calls before it."""
    alphabet, budget = system.alphabet, completion.STEP_BUDGET
    walk, swaps = system._index.walk, [rule.rhs.letters for rule in system.rules]
    forms = {}  # letters -> normal form

    def nf(word):
        found = forms.get(word.letters)
        if found is None:
            path = []
            found = walk(word.letters, swaps, forms, path, budget)
            if found is None:
                raise ReductionBudgetExceeded(f"no fixed point within {budget} steps")
            if type(found) is str:  # irreducible
                found = word if found is word.letters else Word._raw(alphabet, found)
            for letters in path:
                forms[letters] = found
        return found

    return nf


def critical_pairs(system: RewriteSystem, carry=None) -> list:
    """A PairRecord for every critical pair of every ordered rule pair,
    reduced against the system, in the examination order of
    RedexIndex.overlaps; carry, the last pass's (input system, pairs), goes
    to completion.pair_records as it is. A match is one word
    u1.l1.v1 = u2.l2.v2, its witnesses letter strings, and its raw critical
    pair is (u1.r1.v1, u2.r2.v2), one Word each from one word_table of the
    call, so equal raw words of the call are one Word.

    One normal_forms memo serves the call, so no word that a reduction
    passes through is searched twice in it."""
    rules, order = system.rules, system.order
    reduce, word = normal_forms(system), word_table(system.alphabet)

    def examine(i, j, m, raw):
        if raw is None:
            raw = (word(m.u1 + rules[i].rhs.letters + m.v1),
                   word(m.u2 + rules[j].rhs.letters + m.v2))
        c1, c2 = reduce(raw[0]), reduce(raw[1])
        new = None if c1 == c2 else Rule(c1, c2) if order.key(c1) > order.key(c2) else Rule(c2, c1)
        return PairRecord(i, j, m, raw, (c1, c2), new)

    return pair_records(system, carry, examine)


def kb_pass(system: RewriteSystem, limits: CompletionLimits, carry=None):
    """One pass, carry as for critical_pairs: (next system, pairs examined).

    Reductions use the input system only; new rules land as a batch at the
    end, deduplicated. Raises LimitExceeded (with the pairs attached) when
    the result would break a cap.
    """
    pairs = critical_pairs(system, carry)
    nxt = next_state(system.rules, pairs, lambda rule: (rule.lhs, rule.rhs), system.with_rules, limits)
    return nxt, pairs


def knuth_bendix(system: RewriteSystem, limits: CompletionLimits = CompletionLimits()) -> PassRecord:
    """Iterate kb_pass to the fixed point or to a resource limit; the last pass."""
    return complete(system, kb_pass, limits)


def words_equal(system: RewriteSystem, w1: Word, w2: Word) -> bool:
    """Decide w1 = w2 in the presented semigroup, nf(w1) == nf(w2) for one
    normal_forms memo nf; needs a complete system."""
    if w1.alphabet != system.alphabet or w2.alphabet != system.alphabet:
        raise AlphabetMismatch("word over a different alphabet")
    nf = normal_forms(system)
    return nf(w1) == nf(w2)


def bounded_words(system: RewriteSystem, max_len: int):
    """Every word of length up to max_len, by length and then letter index;
    the empty word is included in monoid mode only."""
    alphabet = system.alphabet
    letters = [Word(alphabet, (ix,)).letters for ix in range(len(alphabet))]
    for n in range(0 if system.mode == MONOID else 1, max_len + 1):
        for word in itertools.product(letters, repeat=n):
            yield Word._raw(alphabet, "".join(word))


def pair_line(pass_index: int, cp: PairRecord) -> str:
    """One trace record; bit-exact across runs."""
    raw = f"({cp.raw[0].dotted()},{cp.raw[1].dotted()})"
    reduced = f"({cp.reduced[0].dotted()},{cp.reduced[1].dotted()})"
    disp = "Resolved" if cp.new is None else f"Added:{cp.new.render()}"
    return (
        f"pass={pass_index} rules=({cp.first},{cp.second}) kind={cp.match.kind.value} "
        f"raw={raw} reduced={reduced} disp={disp}"
    )
