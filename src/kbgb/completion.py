"""The completion loop both engines share, with its limits and budget errors.

Knuth-Bendix completion and the noncommutative Buchberger algorithm differ
only in how a pass examines its input; the install policy, the caps and
the loop to the fixed point live here once, and so does ``PairRecord``,
what either engine records of one examined pair. Both engines emit their
records in the examination order of ``RedexIndex.overlaps``, so the
records of one pass align one for one across engines. ``passes`` is the
loop: a stream of one record per pass, which ``complete`` runs to its end
holding only the last pass, and the lockstep driver (``correspondence``)
zips across both engines. The stream always yields at least one pass, and
its last pass is the run's result: it says whether the run reached a fixed
point or which cap ended it. Members are only appended, so ``pair_records``,
the pair loop of both engines, reuses the last pass's matches, raw pairs and
light resolved records, and ``trace_lines`` the text of each re-emitted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from operator import itemgetter

from .words import OverlapMatch

# words or monomials one call of a reduction memo may search; each memo
# (rewriting.normal_forms, ncpoly.monomial_forms) reads it when it is made
STEP_BUDGET = 1_000_000


class ReductionBudgetExceeded(RuntimeError):
    """Reduction failed to reach a fixed point within the step budget.

    Reduction along an admissible well-founded order always terminates, so
    tripping this signals a broken ordering, not a long input.
    """


class LimitExceeded(Exception):
    """A completion resource limit tripped.

    The caps are checked only once every pair of the pass is built, so
    ``partial`` holds all of that pass's pair records.
    """

    def __init__(self, reason: str, partial=()):
        super().__init__(reason)
        self.reason = reason
        self.partial = tuple(partial)


@dataclass(frozen=True)
class CompletionLimits:
    """Caps that keep completion finite; completion need not terminate.

    ``max_passes`` may be zero (run nothing, report the limit); the other
    two caps must be positive.
    """

    max_passes: int = 50
    max_rules: int = 10_000
    max_word_length: int = 256

    def __post_init__(self):
        if self.max_passes < 0:
            raise ValueError("max_passes must be nonnegative")
        if self.max_rules <= 0 or self.max_word_length <= 0:
            raise ValueError("max_rules and max_word_length must be positive")


@dataclass(frozen=True, slots=True)
class PairRecord:
    """One examined pair of members, from one match of their left sides.

    ``raw`` and ``reduced`` are the critical pair's two words (rewriting)
    or the S-polynomial (polynomials), before and after reduction. ``new``
    is the member the pair adds, the oriented rule or the monic reduced
    S-polynomial, or None when the pair resolved.
    """

    first: int
    second: int
    match: OverlapMatch
    raw: object
    reduced: object
    new: object


def pair_records(state, carry, examine):
    """The records of one pass over state, in the examination order of
    RedexIndex.overlaps; carry is the last pass's (input state, records) or
    None. In each row come the carried records, then the walk's pairs that
    touch members from since, the carry's input size, on. examine(first,
    second, match, raw) builds and reduces one pair's record, handed the
    carried raw pair, or None for a walk pair; a match's witnesses are
    letter strings. A carried record is re-emitted as the same object when
    it resolved at a superposition u1.l1.v1 lighter than every member from
    since on. Its reduction holds: the order compares weight first, so each
    word it reached, each target lo.t.hi too, weighs no more than u1.l1.v1;
    a word weighs at least its left sides; members are only appended; so no
    new member occurs and find picks the same redexes."""
    weight, patterns = state.order.weight, state._index._patterns
    since, carried = (len(carry[0]._index._patterns), carry[1]) if carry else (0, ())
    light = min(map(weight, patterns[since:]), default=float("inf"))
    old = ((r.first, r.second, r.match, r.raw, r) for r in carried)
    walk = ((i, j, m, None, None) for i, j, m in state._index.overlaps(since))
    return [rec if rec is not None and rec.new is None and weight(m.u1 + patterns[i] + m.v1) < light
            else examine(i, j, m, raw)
            for i, j, m, raw, rec in merge(old, walk, key=itemgetter(0))]


def next_state(existing, records, words, extend, limits: CompletionLimits):
    """The state a pass builds, extend(new members): each record's ``new``,
    resolved pairs skipped, deduplicated in order. A new member is reduced,
    so it is no existing one; extend checks the new members only.

    Raises LimitExceeded with the pass's records when a member has a word
    (from ``words(member)``) over ``max_word_length``, else when the total
    would exceed ``max_rules``.
    """
    fresh = []
    seen = set()
    for rec in records:
        if rec.new is not None and rec.new not in seen:
            seen.add(rec.new)
            fresh.append(rec.new)
    for member in fresh:
        if any(len(w) > limits.max_word_length for w in words(member)):
            raise LimitExceeded("max_word_length", records)
    if len(existing) + len(fresh) > limits.max_rules:
        raise LimitExceeded("max_rules", records)
    return extend(fresh)


@dataclass(frozen=True)
class PassRecord:
    """One pass of a run; the last pass of a run is its result."""

    index: int  # 1-based; 0 for a run with max_passes 0
    records: tuple  # PairRecords, in examination order
    state: object  # rule set or basis after the pass (unchanged if a cap tripped inside it)
    limit_reason: str | None = None  # the cap that ended the run at this pass
    fixed: bool = False  # the pass installed nothing: the rule set is confluent, the basis Groebner


def passes(state, one_pass, limits: CompletionLimits):
    """One PassRecord per ``one_pass(state, limits, carry)``, lazily; the one
    place where a run's end is decided. Pass 1's carry is None, a later
    pass's the last pass's (input state, records).

    The stream ends after the pass that installs nothing (``fixed``), the
    pass in which a cap trips (``limit_reason``; its state is the input
    left as it was), or pass ``max_passes``, which carries ``limit_reason``
    "max_passes" unless it is a fixed point. With ``max_passes`` 0 it is
    pass 0 alone: no records, the input state.
    """
    if not limits.max_passes:
        yield PassRecord(0, (), state, "max_passes")
    carry = None
    for index in range(1, limits.max_passes + 1):
        try:
            nxt, records = one_pass(state, limits, carry)
        except LimitExceeded as exc:
            yield PassRecord(index, exc.partial, state, exc.reason)
            return
        fixed = nxt == state
        reason = None if fixed or index < limits.max_passes else "max_passes"
        yield PassRecord(index, tuple(records), nxt, reason, fixed)
        if fixed:
            return
        carry, state = (state, records), nxt


def trace_lines(line):
    """lines(p), the lines line(p.index, record) of PassRecord p's records,
    for the passes of one run in order. A record re-emitted as the same
    object reprints its text after "pass=N " in the pass before."""
    texts = {}  # id(record) -> (record, text), of the last pass's resolved records

    def lines(p):
        nonlocal texts
        head, kept = f"pass={p.index} ", {}
        for rec in p.records:
            entry = texts.get(id(rec))
            tail = entry[1] if entry and entry[0] is rec else None
            text = line(p.index, rec) if tail is None else head + tail
            if rec.new is None and not (p.fixed or p.limit_reason):  # no pass follows the last
                kept[id(rec)] = rec, tail or text[len(head):]
            yield text
        texts = kept

    return lines


def complete(state, one_pass, limits: CompletionLimits) -> PassRecord:
    """Run ``passes`` to its end, holding one pass at a time, and return
    the last pass."""
    for last in passes(state, one_pass, limits):
        pass
    return last
