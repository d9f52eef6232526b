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
point or which cap ended it. Members are only appended, so a pass reuses the
last pass's matches and raw pairs (``pair_sources``); it reduces every pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge
from operator import itemgetter

from .words import OverlapMatch

DEFAULT_STEP_BUDGET = 1_000_000


class ReductionBudgetExceeded(RuntimeError):
    """Reduction failed to reach a fixed point within the step budget.

    Reduction along an admissible well-founded order always terminates, so
    tripping this signals a broken ordering, not a long input.
    """


class LimitExceeded(Exception):
    """A completion resource limit tripped.

    Carries the pair records of the pass that was being examined so a
    caller can report the truncation point.
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


@dataclass(frozen=True)
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


def pair_sources(state, index):
    """(first, second, match, raw) of every pair of index.overlaps, in order.
    A state from next_state carries the last pass's records: they keep
    match and raw, and the walk yields only the pairs touching newer
    members, with raw None, after the carried ones of their row."""
    since, carried = getattr(state, "_carry", (0, ()))
    old = ((rec.first, rec.second, rec.match, rec.raw) for rec in carried)
    new = ((i, j, m, None) for i, j, m in index.overlaps(state.alphabet, since))
    return merge(old, new, key=itemgetter(0))


def next_state(existing, records, words, extend, limits: CompletionLimits):
    """The state a pass builds, extend(new members), carrying the input size
    and the records, beside its fields, to pair_sources. The new members are
    each record's ``new``, resolved pairs skipped, deduplicated in order.

    Raises LimitExceeded with the pass's records when a member has a word
    (from ``words(member)``) over ``max_word_length``, else when the total
    would exceed ``max_rules``.
    """
    fresh = []
    seen = set(existing)
    for rec in records:
        if rec.new is not None and rec.new not in seen:
            seen.add(rec.new)
            fresh.append(rec.new)
    for member in fresh:
        if any(len(w) > limits.max_word_length for w in words(member)):
            raise LimitExceeded("max_word_length", records)
    if len(existing) + len(fresh) > limits.max_rules:
        raise LimitExceeded("max_rules", records)
    nxt = extend(fresh)
    object.__setattr__(nxt, "_carry", (len(existing), records))
    return nxt


@dataclass(frozen=True)
class PassRecord:
    """One pass of a run; the last pass of a run is its result."""

    index: int  # 1-based; 0 for a run with max_passes 0
    records: tuple  # PairRecords, in examination order
    state: object  # rule set or basis after the pass (unchanged if a cap tripped inside it)
    limit_reason: str | None = None  # the cap that ended the run at this pass
    fixed: bool = False  # the pass installed nothing: the rule set is confluent, the basis Groebner


def passes(state, one_pass, limits: CompletionLimits):
    """One PassRecord per ``one_pass(state, limits)``, lazily; the one place
    where a run's end is decided.

    The stream ends after the pass that installs nothing (``fixed``), the
    pass in which a cap trips (``limit_reason``; its state is the input
    left as it was), or pass ``max_passes``, which carries ``limit_reason``
    "max_passes" unless it is a fixed point. With ``max_passes`` 0 it is
    pass 0 alone: no records, the input state.
    """
    if not limits.max_passes:
        yield PassRecord(0, (), state, "max_passes")
    for index in range(1, limits.max_passes + 1):
        try:
            nxt, records = one_pass(state, limits)
        except LimitExceeded as exc:
            yield PassRecord(index, exc.partial, state, exc.reason)
            return
        fixed = nxt == state
        reason = None if fixed or index < limits.max_passes else "max_passes"
        yield PassRecord(index, tuple(records), nxt, reason, fixed)
        if fixed:
            return
        state = nxt


def complete(state, one_pass, limits: CompletionLimits) -> PassRecord:
    """Run ``passes`` to its end, holding one pass at a time, and return
    the last pass."""
    for last in passes(state, one_pass, limits):
        pass
    return last
