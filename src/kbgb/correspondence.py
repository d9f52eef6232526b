"""Lockstep execution of the two completion engines.

A rule set R translates to the basis F of two-term polynomials l - r, one
per rule. The driver zips the two engines' pass streams
(completion.passes), so when completion stops is decided in one place,
and is itself a stream of checked passes (lockstep_passes). Its last pass
is the run's result and carries the verdict; a run of max_passes 0 is
pass 0 alone, the input sets.
Both engines record each examined pair as one completion.PairRecord, in
the same examination order, so a pass's two record lists are compared
position by position: the i-th overlap must be the i-th match, the pair
resolves exactly when the S-polynomial reduces to zero, and an unresolved
pair's oriented sides reappear as the monic reduced S-polynomial. Last,
the next basis must be exactly the translation of the next rule set. Any
failure, a reordered pass included, is reported as a divergence verdict,
never papered over.

The truncated isomorphism check compares the two engines' canonical forms
on every word up to a length bound: equal words stay equal, every class
holds exactly one irreducible word, and canonical forms multiply the way
the words do. Each engine's memoized normal forms (normal_forms,
monomial_forms) fill one table over the bounded words, and every check
reads those two tables. It verifies a finite fragment only and says so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .completion import CompletionLimits, PassRecord, passes
from .ncpoly import (
    Basis,
    NcPolynomial,
    buchberger_pass,
    monomial_forms,
    record_line,
    render_poly,
)
from .rewriting import (
    MONOID,
    SEMIGROUP,
    RewriteSystem,
    Rule,
    bounded_words,
    kb_pass,
    normal_forms,
    pair_line,
)

VERDICT_CORRESPONDS = "Corresponds"
VERDICT_DIVERGENCE = "Divergence"
VERDICT_LIMIT = "LimitExceeded"
# verdicts of the truncated isomorphism check
VERDICT_PASS = "Pass"
VERDICT_FAIL = "Fail"
VERDICT_INCONCLUSIVE = "Inconclusive"


class NonBinomialError(ValueError):
    """A basis member is not of the two-term l - r shape."""


def rule_binomial(rule: Rule, field) -> NcPolynomial:
    return NcPolynomial(field, [(rule.lhs, 1), (rule.rhs, -1)])


def rules_to_basis(system: RewriteSystem, field) -> Basis:
    """One monic two-term polynomial l - r per rule, under the same order."""
    polys = tuple(rule_binomial(rule, field) for rule in system.rules)
    return Basis(system.order, field, polys)


def split_binomial(poly: NcPolynomial, order) -> tuple:
    """The (greater, smaller) monomials of a monic l - r polynomial."""
    if len(poly.terms) != 2:
        raise NonBinomialError(f"not a two-term polynomial: {render_poly(poly, order)}")
    (lhs, c1), (rhs, c2) = poly.sorted_terms(order)
    field = poly.field
    if c1 != field.one or c2 != field.neg(field.one):
        raise NonBinomialError(f"coefficients are not 1 and -1: {render_poly(poly, order)}")
    return lhs, rhs


def basis_to_rules(basis: Basis) -> RewriteSystem:
    """Inverse translation; every member must be a monic l - r polynomial.

    The basis does not remember whether empty words are allowed, so the
    mode is inferred: monoid when some right side is empty.
    """
    rules = tuple(Rule(*split_binomial(poly, basis.order)) for poly in basis.polys)
    mode = MONOID if any(len(r.rhs) == 0 for r in rules) else SEMIGROUP
    return RewriteSystem(basis.order, rules, mode)


@dataclass(frozen=True)
class LockstepPass:
    """One synchronized pass: each engine's own PassRecord, of the same
    index, and the three correspondence checks; the last pass of a run
    also carries the run's verdict."""

    rewriting: PassRecord  # kb_pass's record of the pass; its state is the rule set
    polynomials: PassRecord  # buchberger_pass's record of the pass; its state is the basis
    sources_ok: bool  # overlaps and matches name the same sources, in order
    pairs_ok: bool  # dispositions and contents align pairwise
    sets_ok: bool  # next basis = translation of next rule set
    verdict: str | None = None  # set on the last pass only
    detail: str | None = None


def _source_key(rec) -> tuple:
    return (rec.first, rec.second, rec.match.kind.value, rec.match.witness_lengths())


def _check_pass(kb, gb, field) -> LockstepPass:
    """One pass of each engine with the three checks, and the run's
    verdict when the run ends at this pass."""
    sources_ok = len(kb.records) == len(gb.records) and all(
        _source_key(cp) == _source_key(rec) for cp, rec in zip(kb.records, gb.records))
    pairs_ok = sources_ok
    detail = verdict = None
    if sources_ok:
        for cp, rec in zip(kb.records, gb.records):
            disposition_ok = (cp.new is None) == (rec.new is None)
            if disposition_ok and (cp.new is None or rec.new == rule_binomial(cp.new, field)):
                continue
            pairs_ok = False
            where = f"rules=({cp.first},{cp.second}) kind={cp.match.kind.value}"
            detail = (f"disposition mismatch at {where}" if not disposition_ok
                      else f"content mismatch at {where}: rule {cp.new.render()}")
            break
    else:
        pair_keys = [_source_key(cp) for cp in kb.records]
        record_keys = [_source_key(rec) for rec in gb.records]
        pair_set, record_set = set(pair_keys), set(record_keys)
        only_pairs = [k for k in pair_keys if k not in record_set]
        only_records = [k for k in record_keys if k not in pair_set]
        detail = f"sources differ: overlaps-only={only_pairs} matches-only={only_records}"
    # neither state holds a duplicate and rule_binomial is injective, so the
    # sets are equal exactly when these hold
    polys = set(gb.state.polys)
    sets_ok = len(polys) == len(kb.state.rules) and all(
        rule_binomial(rule, field) in polys for rule in kb.state.rules)
    if not sets_ok and detail is None:
        detail = "next basis is not the translation of the next rule set"
    if detail is not None:
        verdict = VERDICT_DIVERGENCE
    elif kb.limit_reason or gb.limit_reason:
        if kb.limit_reason == gb.limit_reason:
            verdict = VERDICT_LIMIT
        else:
            verdict, detail = VERDICT_DIVERGENCE, (
                f"one-sided resource limit: rewriting={kb.limit_reason} "
                f"polynomials={gb.limit_reason}")
    elif kb.fixed != gb.fixed:
        verdict, detail = VERDICT_DIVERGENCE, (
            f"fixed point on one side only: rewriting={kb.fixed} polynomials={gb.fixed}")
    elif kb.fixed:
        verdict = VERDICT_CORRESPONDS
    return LockstepPass(kb, gb, sources_ok, pairs_ok, sets_ok, verdict, detail)


def lockstep_passes(system: RewriteSystem, field, limits: CompletionLimits = CompletionLimits()):
    """Run both engines in alternation and yield each pass once checked.

    Zips the two engines' pass streams. Ends at the mutual fixed point
    (Corresponds), at the first failed check (Divergence), or when both
    engines trip the same resource limit at the same pass (LimitExceeded),
    ``max_passes`` included; the last pass carries that verdict. A one-sided
    limit or fixed point is itself a divergence. Yields at least one pass:
    pass 0 alone, the input sets, when ``max_passes`` is 0.
    """
    for kb, gb in zip(passes(system, kb_pass, limits),
                      passes(rules_to_basis(system, field), buchberger_pass, limits)):
        checked = _check_pass(kb, gb, field)
        yield checked
        if checked.verdict:
            return


def pass_lines(p: LockstepPass, order):
    """Both engines' trace lines of one pass, then its check summary, each
    rendered when it is asked for; none for pass 0."""
    kb, gb = p.rewriting, p.polynomials
    if not kb.index:
        return
    flag = {True: "ok", False: "FAIL"}
    yield from (pair_line(kb.index, cp) for cp in kb.records)
    yield from (record_line(gb.index, rec, order) for rec in gb.records)
    yield (f"pass={kb.index} checks: sources={flag[p.sources_ok]} "
           f"pairs={flag[p.pairs_ok]} sets={flag[p.sets_ok]}")


def verdict_lines(last: LockstepPass) -> list:
    """What follows the passes, from the last one: limit lines, final sets,
    one VERDICT line."""
    kb, gb = last.rewriting, last.polynomials
    lines = []
    if last.verdict == VERDICT_LIMIT:
        lines.append(f"limit: engine=rewriting pass={kb.index} reason={kb.limit_reason}")
        lines.append(f"limit: engine=ncpoly pass={gb.index} reason={gb.limit_reason}")
    lines += [f"final rule: {rule.lhs.dotted()} -> {rule.rhs.dotted()}" for rule in kb.state.rules]
    lines += [f"final poly: {render_poly(poly, gb.state.order)}" for poly in gb.state.polys]
    if last.verdict == VERDICT_CORRESPONDS:
        lines.append("VERDICT: Corresponds")
    elif last.verdict == VERDICT_LIMIT:
        lines.append(f"VERDICT: LimitExceeded reason={kb.limit_reason}")
    else:
        lines.append(f"VERDICT: Divergence pass={kb.index} detail={last.detail}")
    return lines


@dataclass(frozen=True)
class IsoCheckReport:
    """Truncated verification, over the caller's field and up to the length
    ``bound``, that canonical forms agree between engines.

    A Pass verdict certifies the checks up to the bound only, never a full
    isomorphism.
    """

    bound: int
    counts: tuple  # (length, number of normal forms) pairs
    verdict: str  # Pass | Fail | Inconclusive
    detail: str | None = None


def verify_algebra_iso(
    system: RewriteSystem,
    field,
    bound: int,
    limits: CompletionLimits = CompletionLimits(),
) -> IsoCheckReport:
    """Complete both engines in lockstep, then compare canonical forms on
    every word up to the bound.

    Checks: (a) two words are equal under the rule engine exactly when
    their monomials are equal modulo the ideal; (b) every class of bounded
    words holds exactly one irreducible word, its canonical representative;
    (c) canonical forms are multiplicative, for every product of normal
    forms that stays within the bound. One memo per engine serves them all.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    for lock in lockstep_passes(system, field, limits):  # the last carries the verdict
        pass
    if lock.verdict != VERDICT_CORRESPONDS:
        # a limit has a reason and no detail, a divergence the other way round
        detail = (f"completion unavailable: {lock.verdict}"
                  + (f" detail={lock.detail}" if lock.detail
                     else f" reason={lock.rewriting.limit_reason}"))
        return IsoCheckReport(bound, (), VERDICT_INCONCLUSIVE, detail)
    complete, groebner = lock.rewriting.state, lock.polynomials.state
    order = complete.order

    # the tables hold the bounded words only, not the memos' other words; a
    # word is irreducible exactly when it is its own normal form
    universe = list(bounded_words(complete, bound))
    rule_form = normal_forms(complete)
    nf_rules = {w: rule_form(w) for w in universe}
    forms = sorted((w for w in universe if nf_rules[w] == w), key=order.key)
    counts = tuple(
        (n, sum(1 for w in forms if len(w) == n)) for n in range(len(universe[0]), bound + 1)
    )

    def fail(detail):
        return IsoCheckReport(bound, counts, VERDICT_FAIL, detail)

    nf_ideal = {}
    for w, image in zip(universe, map(monomial_forms(groebner), universe)):
        if len(image.terms) != 1:
            return fail(f"monomial image is not a monomial: {w.dotted()}")
        (iw, coeff), = image.terms.items()
        if coeff != field.one:
            return fail(f"monomial image is not monic: {w.dotted()}")
        nf_ideal[w] = iw

    # (a) the two engines induce the same equality relation: exactly when
    # the map from rewriting classes to ideal classes is well defined and
    # injective; only a disagreement pays for the pairwise scan that names
    # its first pair
    ideal_of = {}
    for w in universe:
        ideal_of.setdefault(nf_rules[w], nf_ideal[w])
    if (len(set(ideal_of.values())) != len(ideal_of)
            or any(ideal_of[nf_rules[w]] != nf_ideal[w] for w in universe)):
        for w1, w2 in itertools.combinations(universe, 2):
            if (nf_rules[w1] == nf_rules[w2]) != (nf_ideal[w1] == nf_ideal[w2]):
                return fail(f"equality disagreement on ({w1.dotted()},{w2.dotted()})")

    # (b) each bounded class holds exactly one irreducible word; a member w
    # of the class of rep is irreducible exactly when w == nf_rules[w] ==
    # rep, so the class holds one when rep is its own table entry and none
    # otherwise. Under an order where canonical forms can outgrow the bound
    # (possible with weights) this reports the truncation honestly
    for rep in sorted(set(nf_rules.values()), key=order.key):
        if nf_rules.get(rep) != rep:
            return fail(f"class of {rep.dotted()} holds 0 irreducible words within length {bound}")

    # (c) canonical forms multiply like the words they represent; every
    # product within the bound is in both tables
    for n1 in forms:
        for n2 in forms:
            if len(n1) + len(n2) > bound:
                continue
            product = n1 * n2
            if nf_rules[product] != nf_ideal[product]:
                return fail(f"multiplicativity fails on {n1.dotted()} * {n2.dotted()}")

    return IsoCheckReport(bound, counts, VERDICT_PASS)


def iso_header(bound: int, field_name: str) -> str:
    """The first line of an iso-check report, known before the check runs."""
    return f"iso: bound={bound} field={field_name}"


def iso_report_lines(report: IsoCheckReport) -> list:
    """The lines of an iso-check report after its iso_header line: the
    normal-form counts per length, then one VERDICT line."""
    lines = [f"normal-forms: len={length} count={count}" for length, count in report.counts]
    if report.verdict == VERDICT_PASS:
        lines.append(f"VERDICT: {VERDICT_PASS}")
    else:
        lines.append(f"VERDICT: {report.verdict} detail={report.detail}")
    return lines
