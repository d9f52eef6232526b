"""String rewriting systems, completion passes, and the word problem.

Reduction is deterministic: the leftmost redex wins, and at a given
position the lowest-index rule wins. Each system builds one
words.RedexIndex over its left sides and finds every redex through it,
under that same policy. A completion pass computes every
critical pair against the fixed input system and only then installs the
oriented survivors, so pass results do not depend on examination order and
rules are never removed or rewritten mid-run. Because the system is fixed
for the pass, a normal form depends on the word alone, nf(w) = nf(step(w)),
and a pass memoizes it on every word a reduction passes through
(normal_forms). Handed the last pass's input and pairs (its carry), a pass
reuses their matches and raw critical pairs but still reduces every pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .completion import (
    DEFAULT_STEP_BUDGET,
    CompletionLimits,
    PairRecord,
    PassRecord,
    ReductionBudgetExceeded,
    complete,
    next_state,
    pair_sources,
)
from .words import (
    Alphabet,
    AlphabetMismatch,
    MonomialOrder,
    RedexIndex,
    Word,
)

SEMIGROUP = "semigroup"
MONOID = "monoid"


@dataclass(frozen=True)
class Rule:
    """Oriented rewrite rule; the left side is greater under the order."""

    lhs: Word
    rhs: Word

    def render(self) -> str:
        return f"{self.lhs.dotted()}->{self.rhs.dotted()}"


@dataclass(frozen=True)
class RewriteSystem:
    """A finite set of oriented rules over one alphabet and order."""

    alphabet: Alphabet
    order: MonomialOrder
    rules: tuple = ()
    mode: str = SEMIGROUP

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.mode not in (SEMIGROUP, MONOID):
            raise ValueError(f"mode must be {SEMIGROUP!r} or {MONOID!r}")
        if self.order.alphabet != self.alphabet:
            raise AlphabetMismatch("order and system alphabets differ")
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
        object.__setattr__(
            self, "_max_lhs", max((len(r.lhs) for r in self.rules), default=1)
        )

    def with_rules(self, extra) -> "RewriteSystem":
        return RewriteSystem(self.alphabet, self.order, self.rules + tuple(extra), self.mode)


def _rewrite_at(system, wl, start):
    """Leftmost rewrite at a position >= start: (new letters, position)."""
    hit = system._index.find(wl, start)
    if hit is None:
        return None, -1
    pos, index, end = hit
    return wl[:pos] + system.rules[index].rhs.letters + wl[end:], pos


def is_irreducible(system: RewriteSystem, word: Word) -> bool:
    """True when no left side of the system occurs in the word."""
    if word.alphabet != system.alphabet:
        raise AlphabetMismatch("word over a different alphabet")
    return system._index.find(word.letters) is None


def normal_form(system: RewriteSystem, word: Word, max_steps: int = DEFAULT_STEP_BUDGET) -> Word:
    """Reduce to a fixed point; terminates because every step descends.

    Each step rewrites the leftmost redex, at the lowest rule index on
    ties (_rewrite_at); after a rewrite at position p the scan resumes at
    p - max_lhs + 1, which is where the leftmost new redex can first appear.
    """
    if word.alphabet != system.alphabet:
        raise AlphabetMismatch("word over a different alphabet")
    wl = word.letters
    back = system._max_lhs - 1
    scan_from = 0
    for _ in range(max_steps):
        nxt, pos = _rewrite_at(system, wl, scan_from)
        if nxt is None:
            # nothing right of the resume point, and the skipped prefix is
            # redex-free by the resume invariant
            return Word._raw(system.alphabet, wl)
        wl = nxt
        scan_from = pos - back if pos > back else 0
    raise ReductionBudgetExceeded(f"no fixed point within {max_steps} steps")


def normal_forms(system: RewriteSystem, max_steps: int = DEFAULT_STEP_BUDGET):
    """nf(word) = normal_form(system, word) for a word over the system's
    alphabet (not checked), memoized on every word a reduction passes
    through: a miss walks normal_form's resume loop to a fixed point or a
    known word, then records what it found for every word on the walk. A
    walk of max_steps steps raises ReductionBudgetExceeded; a call counts
    only the steps it adds to the memo, so whether it raises depends on the
    calls before it. max_steps is set by the budget tests only."""
    alphabet, back = system.alphabet, system._max_lhs - 1
    forms = {}  # letters -> normal form

    def nf(word):
        wl, walk, scan_from = word.letters, [], 0
        found = forms.get(wl)
        while found is None:
            if len(walk) == max_steps:
                raise ReductionBudgetExceeded(f"no fixed point within {max_steps} steps")
            walk.append(wl)
            nxt, pos = _rewrite_at(system, wl, scan_from)
            if nxt is None:
                found = Word._raw(alphabet, wl)
            else:
                wl, scan_from = nxt, (pos - back if pos > back else 0)
                found = forms.get(wl)
        for wl in walk:
            forms[wl] = found
        return found

    return nf


def critical_pairs(system: RewriteSystem, carry=None) -> list:
    """A PairRecord for every critical pair of every ordered rule pair,
    reduced against the system, in the examination order of
    RedexIndex.overlaps. A match is one word u1.l1.v1 = u2.l2.v2, its
    witnesses letters, and its raw critical pair is (u1.r1.v1, u2.r2.v2), one
    Word each. A carry, the last pass's (input system, pairs), lends their
    matches and raw pairs (pair_sources).

    One normal_forms memo serves the call, so no word that a reduction
    passes through is searched twice in it."""
    pairs = []
    rules, alphabet = system.rules, system.alphabet
    reduce = normal_forms(system)
    since, carried = (len(carry[0].rules), carry[1]) if carry else (0, ())
    for i, j, m, raw in pair_sources(system._index, since, carried):
        if raw is None:
            raw = (Word._raw(alphabet, m.u1 + rules[i].rhs.letters + m.v1),
                   Word._raw(alphabet, m.u2 + rules[j].rhs.letters + m.v2))
        c1 = reduce(raw[0])
        c2 = reduce(raw[1])
        if c1 == c2:
            new = None
        elif system.order.greater(c1, c2):
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
    """Decide w1 = w2 in the presented semigroup; needs a complete system."""
    return normal_form(system, w1) == normal_form(system, w2)


def bounded_words(system: RewriteSystem, max_len: int):
    """Every word of length up to max_len, by length and then letter index;
    the empty word is included in monoid mode only."""
    size = len(system.alphabet)
    for n in range(0 if system.mode == MONOID else 1, max_len + 1):
        for letters in itertools.product(range(size), repeat=n):
            yield Word._raw(system.alphabet, letters)


def pair_line(pass_index: int, cp: PairRecord) -> str:
    """One trace record; bit-exact across runs."""
    raw = f"({cp.raw[0].dotted()},{cp.raw[1].dotted()})"
    reduced = f"({cp.reduced[0].dotted()},{cp.reduced[1].dotted()})"
    disp = "Resolved" if cp.new is None else f"Added:{cp.new.render()}"
    return (
        f"pass={pass_index} rules=({cp.first},{cp.second}) kind={cp.match.kind.value} "
        f"raw={raw} reduced={reduced} disp={disp}"
    )
