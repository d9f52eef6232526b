"""String rewriting systems, completion passes, and the word problem.

Reduction is deterministic: the leftmost redex wins, and at a given
position the lowest-index rule wins. Each system builds one
words.RedexIndex over its left sides and finds every redex through it,
under that same policy. A completion pass computes every
critical pair against the fixed input system and only then installs the
oriented survivors, so pass results do not depend on examination order and
rules are never removed or rewritten mid-run. Because the system is fixed
for the pass, a normal form depends on the word alone, and the pass reduces
each distinct raw word once. A pass reuses the previous pass's matches and
raw critical pairs but still reduces every pair.
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

    def __repr__(self):
        return f"Rule({self.lhs.display()} -> {self.rhs.display()})"


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


def reduce_once(system: RewriteSystem, word: Word):
    """One rewrite step at the leftmost redex (lowest rule index on ties),
    or None if irreducible."""
    if word.alphabet != system.alphabet:
        raise AlphabetMismatch("word over a different alphabet")
    letters, _ = _rewrite_at(system, word.letters, 0)
    return None if letters is None else Word._raw(system.alphabet, letters)


def is_irreducible(system: RewriteSystem, word: Word) -> bool:
    letters, _ = _rewrite_at(system, word.letters, 0)
    return letters is None


def normal_form(system: RewriteSystem, word: Word, max_steps: int = DEFAULT_STEP_BUDGET) -> Word:
    """Reduce to a fixed point; terminates because every step descends.

    Follows exactly the reduce_once redex policy; after a rewrite at
    position p the scan resumes at p - max_lhs + 1, which is where the
    leftmost new redex can first appear.
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


def critical_pairs(system: RewriteSystem) -> list:
    """A PairRecord for every critical pair of every ordered rule pair,
    reduced against the system, in the examination order of
    RedexIndex.overlaps. A match is one word u1.l1.v1 = u2.l2.v2, and its
    raw critical pair is (u1.r1.v1, u2.r2.v2).

    Each distinct raw word is reduced once per call: normal_form is a
    function of the word and the fixed input system, so later pairs reuse
    the first result. The memo lives only for this call."""
    pairs = []
    rules = system.rules
    nfs = {}

    def reduce(word):
        nf = nfs.get(word)
        if nf is None:
            nf = nfs[word] = normal_form(system, word)
        return nf

    for i, j, m, raw in pair_sources(system, system._index):
        if raw is None:
            raw = (m.u1 * rules[i].rhs * m.v1, m.u2 * rules[j].rhs * m.v2)
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


def kb_pass(system: RewriteSystem, limits: CompletionLimits):
    """One completion pass: (next system, critical pairs examined).

    Reductions use the input system only; new rules land as a batch at the
    end, deduplicated. Raises LimitExceeded (with the pairs attached) when
    the result would break a cap.
    """
    pairs = critical_pairs(system)
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


def is_locally_confluent(system: RewriteSystem) -> bool:
    """True when every critical pair resolves."""
    return all(cp.new is None for cp in critical_pairs(system))


def pair_line(pass_index: int, cp: PairRecord) -> str:
    """One trace record; bit-exact across runs."""
    raw = f"({cp.raw[0].dotted()},{cp.raw[1].dotted()})"
    reduced = f"({cp.reduced[0].dotted()},{cp.reduced[1].dotted()})"
    disp = "Resolved" if cp.new is None else f"Added:{cp.new.render()}"
    return (
        f"pass={pass_index} rules=({cp.first},{cp.second}) kind={cp.match.kind.value} "
        f"raw={raw} reduced={reduced} disp={disp}"
    )
