"""String rewriting systems, completion passes, and the word problem.

Reduction is deterministic: the leftmost redex wins, and at a given
position the lowest-index rule wins. Each system builds one
words.RedexIndex over its left sides and finds every redex through it,
under that same policy. A completion pass computes every
critical pair against the fixed input system and only then installs the
oriented survivors, so pass results do not depend on examination order and
rules are never removed or rewritten mid-run. Because the system is fixed,
a normal form depends on the word alone, nf(w) = nf(step(w)), and the one
reduction, normal_forms, memoizes it on every word a reduction passes
through, for one pass, one iso-check or one query. A word's letters are one
str, so a step splices strings and the memo keys on them. Handed the last
pass's input and pairs (its carry), a pass reuses their matches and raw
critical pairs but still reduces every pair. A pass holds each distinct word
once: its raw words come from one words.word_table, so twin pairs share
theirs, and an irreducible raw word is its own normal form.
"""

from __future__ import annotations

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
    pair_sources,
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

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.mode not in (SEMIGROUP, MONOID):
            raise ValueError(f"mode must be {SEMIGROUP!r} or {MONOID!r}")
        seen = set()
        for rule in self.rules:
            if rule.lhs.alphabet != self.alphabet or rule.rhs.alphabet != self.alphabet:
                raise AlphabetMismatch(f"rule over a different alphabet: {rule.render()}")
            if len(rule.lhs) == 0:
                raise ValueError("rule left side must be nonempty")
            if self.mode == SEMIGROUP and len(rule.rhs) == 0:
                raise ValueError(f"empty right side needs monoid mode: {rule.render()}")
            if self.order.compare(rule.lhs, rule.rhs) <= 0:
                raise ValueError(f"rule is not oriented descending: {rule.render()}")
            if rule in seen:
                raise ValueError(f"duplicate rule: {rule.render()}")
            seen.add(rule)
        object.__setattr__(self, "_index", RedexIndex(r.lhs.letters for r in self.rules))

    def with_rules(self, extra) -> "RewriteSystem":
        return RewriteSystem(self.order, self.rules + tuple(extra), self.mode)


def _rewrite_at(system, wl):
    """The letters after one rewrite of the redex RedexIndex.find picks, or
    None when the letters are irreducible."""
    hit = system._index.find(wl)
    if hit is None:
        return None
    pos, index, end = hit
    return wl[:pos] + system.rules[index].rhs.letters + wl[end:]


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

    A step rewrites the leftmost redex, at the lowest rule index on ties
    (_rewrite_at), and every step descends, so a miss walks these steps to
    an irreducible or known word, and every word of the walk gets its form:
    the binomial walk of ncpoly.monomial_forms. An irreducible word given
    is its own form, the same object.

    A call raises ReductionBudgetExceeded when it would search more than
    completion.STEP_BUDGET words not yet in the memo, as it was when the
    memo was made, the irreducible one that ends the walk included: a
    k-step walk needs k + 1. Whether a call raises thus depends on the
    calls before it."""
    alphabet, budget = system.alphabet, completion.STEP_BUDGET
    forms = {}  # letters -> normal form

    def nf(word):
        letters, walk = word.letters, []
        found = forms.get(letters)
        while found is None:
            if len(walk) == budget:
                raise ReductionBudgetExceeded(f"no fixed point within {budget} steps")
            walk.append(letters)
            nxt = _rewrite_at(system, letters)
            if nxt is None:
                found = word if letters is word.letters else Word._raw(alphabet, letters)
            else:
                found = forms.get(nxt)
            letters = nxt
        for letters in walk:
            forms[letters] = found
        return found

    return nf


def critical_pairs(system: RewriteSystem, carry=None) -> list:
    """A PairRecord for every critical pair of every ordered rule pair,
    reduced against the system, in the examination order of
    RedexIndex.overlaps. A match is one word u1.l1.v1 = u2.l2.v2, its
    witnesses letter strings, and its raw critical pair is
    (u1.r1.v1, u2.r2.v2), one Word each from one word_table of the call, so
    equal raw words of the call are one Word. A carry, the last pass's
    (input system, pairs), lends their matches and raw pairs (pair_sources).

    One normal_forms memo serves the call, so no word that a reduction
    passes through is searched twice in it."""
    pairs = []
    rules, alphabet = system.rules, system.alphabet
    reduce, word = normal_forms(system), word_table(alphabet)
    since, carried = (len(carry[0].rules), carry[1]) if carry else (0, ())
    for i, j, m, raw in pair_sources(system._index, since, carried):
        if raw is None:
            raw = (word(m.u1 + rules[i].rhs.letters + m.v1),
                   word(m.u2 + rules[j].rhs.letters + m.v2))
        c1 = reduce(raw[0])
        c2 = reduce(raw[1])
        if c1 == c2:
            new = None
        elif system.order.key(c1) > system.order.key(c2):
            new = Rule(c1, c2)
        else:
            new = Rule(c2, c1)
        pairs.append(PairRecord(i, j, m, raw, (c1, c2), new))
    return pairs


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
