"""Lockstep correspondence of the two engines and the truncated iso check."""

import dataclasses
import gc
import random
import tracemalloc

import pytest

from kbgb import (
    MONOID,
    QQ,
    Alphabet,
    Basis,
    CompletionLimits,
    LimitExceeded,
    MonomialOrder,
    NcPolynomial,
    NonBinomialError,
    PrimeField,
    RewriteSystem,
    Rule,
    basis_to_rules,
    knuth_bendix,
    lockstep_passes,
    normal_form,
    poly_normal_form,
    render_poly,
    rules_to_basis,
    verify_algebra_iso,
)
from kbgb.correspondence import iso_header, iso_report_lines, pass_lines, verdict_lines
from kbgb.words import OverlapMatch

from helpers import make_system, random_system
from oracles import (
    all_words,
    congruence_partition,
    poly_difference,
    reference_reduce_on,
    term_sum,
)

F3 = PrimeField(3)


def binomial(system, lhs_text, rhs_text, field=QQ):
    alpha = system.alphabet
    return NcPolynomial(field, [(alpha.parse_word(lhs_text), 1),
                                (alpha.parse_word(rhs_text), -1)])


class TestTranslation:
    def test_rules_to_basis_examples(self):
        system = make_system(["ba->ab"])
        basis = rules_to_basis(system, QQ)
        assert list(basis.polys) == [binomial(system, "ba", "ab")]

        empty = make_system([])
        assert rules_to_basis(empty, QQ).polys == ()

        two = make_system(["aa->a", "ba->ab"])
        basis = rules_to_basis(two, QQ)
        assert list(basis.polys) == [binomial(two, "aa", "a"), binomial(two, "ba", "ab")]

    def test_basis_to_rules_examples(self):
        system = make_system(["ba->ab"])
        basis = rules_to_basis(system, QQ)
        assert basis_to_rules(basis).rules == system.rules

        single = make_system(["aa->a"])
        assert basis_to_rules(rules_to_basis(single, QQ)).rules == single.rules

        alpha = Alphabet("ab")
        order = MonomialOrder(alpha)
        three_terms = NcPolynomial(QQ, [
            (alpha.parse_word("ab"), 1),
            (alpha.parse_word("ba"), 1),
            (alpha.parse_word("a"), -1),
        ])
        with pytest.raises(NonBinomialError):
            basis_to_rules(Basis(order, QQ, (three_terms,)))

    def test_basis_to_rules_rejects_wrong_coefficients(self):
        alpha = Alphabet("ab")
        order = MonomialOrder(alpha)
        skew = NcPolynomial(QQ, [(alpha.parse_word("ba"), 1), (alpha.parse_word("a"), 2)])
        with pytest.raises(NonBinomialError):
            basis_to_rules(Basis(order, QQ, (skew,)))

    def test_round_trip_random(self):
        rng = random.Random(53)
        for _ in range(40):
            system = random_system(rng)
            for field in (QQ, F3):
                basis = rules_to_basis(system, field)
                back = basis_to_rules(basis)
                assert back == system
                assert rules_to_basis(back, field).polys == basis.polys

    def test_monoid_mode_inferred_from_empty_side(self):
        system = make_system(["aa->"], mode=MONOID, letters="a")
        basis = rules_to_basis(system, QQ)
        assert basis_to_rules(basis).mode == MONOID


class TestLockstep:
    def test_immediate_fixpoint(self):
        checked = tuple(lockstep_passes(make_system(["ba->ab"]), QQ))
        assert checked[-1].verdict == "Corresponds"
        assert len(checked) == 1
        assert checked[0].rewriting.records == ()
        assert checked[0].polynomials.records == ()

    def test_empty_system(self):
        *_, last = lockstep_passes(make_system([]), QQ)
        assert last.verdict == "Corresponds"
        assert last.rewriting.state.rules == () and last.polynomials.state.polys == ()

    def test_resolution_alignment(self):
        (only,) = lockstep_passes(make_system(["aa->a"]), QQ)
        assert only.verdict == "Corresponds"
        assert all(cp.new is None for cp in only.rewriting.records)
        assert all(rec.new is None for rec in only.polynomials.records)

    def test_growing_run(self):
        system = make_system(["aba->b"])
        for field in (QQ, F3):
            checked = tuple(lockstep_passes(system, field))
            last = checked[-1]
            assert last.verdict == "Corresponds"
            assert len(checked) == 2
            assert [r.render() for r in last.rewriting.state.rules] == \
                ["a.b.a->b", "b.b.a->a.b.b"]
            assert basis_to_rules(last.polynomials.state).rules == last.rewriting.state.rules

    def test_passes_align_with_standalone_engines(self):
        from kbgb import buchberger, buchberger_pass, kb_pass
        from kbgb.completion import passes

        system = make_system(["aba->b"])
        checked = tuple(lockstep_passes(system, QQ))
        kb = knuth_bendix(system)
        gb = buchberger(rules_to_basis(system, QQ))
        assert kb.fixed and gb.fixed
        kb_trace = tuple(passes(system, kb_pass, CompletionLimits()))
        gb_trace = tuple(passes(rules_to_basis(system, QQ), buchberger_pass, CompletionLimits()))
        assert len(checked) == len(kb_trace) == len(gb_trace) == kb.index == gb.index
        assert gb_trace == tuple(p.polynomials for p in checked)
        assert kb_trace == tuple(p.rewriting for p in checked)
        assert checked[-1].rewriting.state.rules == kb.state.rules
        assert checked[-1].polynomials.state.polys == gb.state.polys

    def test_identical_truncation(self):
        system = make_system(["aba->b"])
        *_, last = lockstep_passes(system, QQ, CompletionLimits(max_rules=1))
        assert last.verdict == "LimitExceeded"
        assert (last.rewriting.limit_reason, last.polynomials.limit_reason) == \
            ("max_rules", "max_rules")
        assert last.rewriting.state.rules == system.rules  # nothing was installed
        assert len(last.polynomials.state.polys) == 1

    def test_max_passes_truncation(self):
        system = make_system(["aba->b"])
        (only,) = lockstep_passes(system, QQ, CompletionLimits(max_passes=1))
        assert only.verdict == "LimitExceeded"
        assert (only.rewriting.limit_reason, only.polynomials.limit_reason) == \
            ("max_passes", "max_passes")

    def test_wtlex_lockstep(self):
        alpha = Alphabet("ab")
        order = MonomialOrder(alpha, weights={"a": 3, "b": 1})
        system = RewriteSystem(
            order,
            (
                Rule(alpha.parse_word("a"), alpha.parse_word("bb")),
                Rule(alpha.parse_word("bbb"), alpha.parse_word("b")),
            ),
        )
        for field in (QQ, F3):
            *_, last = lockstep_passes(system, field)
            assert last.verdict == "Corresponds"
        completed = knuth_bendix(system)
        assert completed.fixed
        w = alpha.parse_word
        # a.b -> b.b.b -> b, so a.b and b share a class
        assert normal_form(completed.state, w("a.b")) == normal_form(completed.state, w("b"))
        assert normal_form(completed.state, w("a.a")) == w("b.b")

    def test_monoid_lockstep(self):
        system = make_system(["aa->1"], mode=MONOID, letters="a")
        (only,) = lockstep_passes(system, QQ)
        assert only.verdict == "Corresponds"
        assert all(cp.new is None for cp in only.rewriting.records)
        assert all(rec.new is None for rec in only.polynomials.records)

    def test_random_corpus_always_corresponds(self):
        rng = random.Random(59)
        limits = CompletionLimits(max_passes=4, max_rules=40, max_word_length=24)
        verdicts = set()
        for _ in range(25):
            system = random_system(rng, max_rules=4, max_side=4)
            for field in (QQ, F3):
                checked = tuple(lockstep_passes(system, field, limits))
                assert checked[-1].verdict in ("Corresponds", "LimitExceeded")
                verdicts.add(checked[-1].verdict)
                for p in checked:
                    assert p.sources_ok and p.pairs_ok and p.sets_ok
        assert "Corresponds" in verdicts

    def test_long_lived_process_keeps_no_memo(self):
        # a process that serves many runs must keep nothing of a run once it
        # ends: the memory still held after 10 runs on distinct systems does
        # not grow over 40 more
        rng = random.Random(61)
        limits = CompletionLimits(max_passes=3, max_rules=40, max_word_length=24)
        systems = {}
        while len(systems) < 50:
            system = random_system(rng, max_rules=4, max_side=4)
            systems.setdefault(system.rules, system)
        systems = list(systems.values())

        def held_after(batch):
            for system in batch:
                tuple(lockstep_passes(system, QQ, limits))
            gc.collect()
            return tracemalloc.get_traced_memory()[0]

        tracemalloc.start()
        try:
            first = held_after(systems[:10])
            more = held_after(systems[10:])
        finally:
            tracemalloc.stop()
        assert more - first < 64 * 1024, (first, more)

    def test_divergence_detected_when_one_engine_lies(self, monkeypatch):
        import kbgb.ncpoly as ncpoly_module

        # the memoized monomial forms that s_polynomials sums
        real = ncpoly_module.monomial_forms

        def skewed(basis):
            form = real(basis)

            def lying(word):
                result = form(word)
                # drop the reduction outcome to zero: misreport resolution
                return NcPolynomial(basis.field) if not result.is_zero() else result

            return lying

        monkeypatch.setattr(ncpoly_module, "monomial_forms", skewed)
        *_, last = lockstep_passes(make_system(["aba->b"]), QQ)
        assert last.verdict == "Divergence"
        assert last.rewriting.index == 1
        assert "disposition mismatch" in last.detail

    # each change(state, next state, records) misreports one pass of one
    # engine on a.b.a -> b, which completes in two passes
    @staticmethod
    def _wrong_content(state, nxt, records):
        return nxt, [dataclasses.replace(rec, new=state.polys[0])
                     if rec.new is not None else rec for rec in records]

    @staticmethod
    def _dropped_record(state, nxt, records):
        return nxt, records[:-1]

    @staticmethod
    def _reversed_records(state, nxt, records):
        # the same records in another order: the sets agree, the
        # examination order does not
        return nxt, records[::-1]

    @staticmethod
    def _renumbered_record(state, nxt, records):
        # one record keeps its match but names another pair
        return nxt, [dataclasses.replace(records[0], second=records[0].second + 1), *records[1:]]

    @staticmethod
    def _relettered_match(state, nxt, records):
        # every witness with a and b swapped: each record keeps its pair,
        # its kind and its witness lengths, but not its match
        swap = str.maketrans("\x00\x01", "\x01\x00")
        return nxt, [dataclasses.replace(rec, match=OverlapMatch(
            rec.match.kind, *(w.translate(swap) for w in rec.match[1:]))) for rec in records]

    @staticmethod
    def _nothing_installed(state, nxt, records):
        return state, records

    @staticmethod
    def _extra_member(state, nxt, records):
        # the basis installs b.b.b - a beside the translation of the rules
        extra = NcPolynomial(nxt.field, {nxt.alphabet.parse_word("b.b.b"): 1,
                                         nxt.alphabet.parse_word("a"): -1})
        return nxt.with_polys([extra]), records

    @staticmethod
    def _rules_cap(state, nxt, records):
        raise LimitExceeded("max_rules", records)

    @staticmethod
    def _reversed_members(state, nxt, records):
        # the same set in another order: the translation check holds, but
        # the state differs from the pass's input
        field = "polys" if hasattr(nxt, "polys") else "rules"
        return dataclasses.replace(nxt, **{field: getattr(nxt, field)[::-1]}), records

    ABA_RULES = ["a.b.a->b", "b.b.a->a.b.b"]
    ABA_POLYS = ["a.b.a - b", "b.b.a - a.b.b"]

    # max_passes None is the default cap; the other rows make the
    # misbehaving pass also the last pass allowed
    @pytest.mark.parametrize(
        "engine, at, change, max_passes, pass_index, detail, rules, polys", [
            ("buchberger_pass", 1, "_wrong_content", None, 1,
             "content mismatch at rules=(0,0) kind=SuffixPrefix: rule b.b.a->a.b.b",
             ABA_RULES, ABA_POLYS),
            ("buchberger_pass", 1, "_dropped_record", None, 1,
             "sources differ: overlaps-only=[(0, 0, 'PrefixSuffix', (2, 0, 0, 2))] matches-only=[]",
             ABA_RULES, ABA_POLYS),
            ("buchberger_pass", 1, "_renumbered_record", None, 1,
             "sources differ: overlaps-only=[(0, 0, 'SuffixPrefix', (0, 2, 2, 0))] "
             "matches-only=[(0, 1, 'SuffixPrefix', (0, 2, 2, 0))]",
             ABA_RULES, ABA_POLYS),
            ("buchberger_pass", 1, "_relettered_match", None, 1,
             "sources differ: overlaps-only=[] matches-only=[]",
             ABA_RULES, ABA_POLYS),
            ("buchberger_pass", 1, "_nothing_installed", None, 1,
             "next basis is not the translation of the next rule set",
             ABA_RULES, ABA_POLYS[:1]),
            ("buchberger_pass", 1, "_extra_member", None, 1,
             "next basis is not the translation of the next rule set",
             ABA_RULES, ABA_POLYS + ["b.b.b - a"]),
            ("buchberger_pass", 2, "_rules_cap", None, 2,
             "one-sided resource limit: rewriting=None polynomials=max_rules",
             ABA_RULES, ABA_POLYS),
            ("kb_pass", 2, "_rules_cap", None, 2,
             "one-sided resource limit: rewriting=max_rules polynomials=None",
             ABA_RULES, ABA_POLYS),
            ("buchberger_pass", 2, "_reversed_members", None, 2,
             "fixed point on one side only: rewriting=True polynomials=False",
             ABA_RULES, ABA_POLYS[::-1]),
            ("kb_pass", 2, "_reversed_members", None, 2,
             "fixed point on one side only: rewriting=False polynomials=True",
             ABA_RULES[::-1], ABA_POLYS),
            ("buchberger_pass", 1, "_reversed_records", None, 1,
             "sources differ: overlaps-only=[] matches-only=[]",
             ABA_RULES, ABA_POLYS),
            ("buchberger_pass", 1, "_wrong_content", 1, 1,
             "content mismatch at rules=(0,0) kind=SuffixPrefix: rule b.b.a->a.b.b",
             ABA_RULES, ABA_POLYS),
            ("buchberger_pass", 1, "_dropped_record", 1, 1,
             "sources differ: overlaps-only=[(0, 0, 'PrefixSuffix', (2, 0, 0, 2))] matches-only=[]",
             ABA_RULES, ABA_POLYS),
            ("buchberger_pass", 1, "_nothing_installed", 1, 1,
             "next basis is not the translation of the next rule set",
             ABA_RULES, ABA_POLYS[:1]),
            ("buchberger_pass", 2, "_rules_cap", 2, 2,
             "one-sided resource limit: rewriting=None polynomials=max_rules",
             ABA_RULES, ABA_POLYS),
            ("kb_pass", 2, "_rules_cap", 2, 2,
             "one-sided resource limit: rewriting=max_rules polynomials=None",
             ABA_RULES, ABA_POLYS),
            # at the last pass allowed, the side that is not a fixed point
            # has reached the max_passes cap
            ("buchberger_pass", 2, "_reversed_members", 2, 2,
             "one-sided resource limit: rewriting=None polynomials=max_passes",
             ABA_RULES, ABA_POLYS[::-1]),
            ("kb_pass", 2, "_reversed_members", 2, 2,
             "one-sided resource limit: rewriting=max_passes polynomials=None",
             ABA_RULES[::-1], ABA_POLYS),
            ("buchberger_pass", 1, "_reversed_records", 1, 1,
             "sources differ: overlaps-only=[] matches-only=[]",
             ABA_RULES, ABA_POLYS),
        ],
        ids=["content", "sources", "renumbered", "relettered", "sets", "extra-member", "gb-limit", "kb-limit", "gb-fixed",
             "kb-fixed", "order", "content-last", "sources-last", "sets-last", "gb-limit-last",
             "kb-limit-last", "gb-fixed-last", "kb-fixed-last", "order-last"])
    def test_every_divergence_branch(self, monkeypatch, engine, at, change, max_passes,
                                     pass_index, detail, rules, polys):
        import kbgb.correspondence as corr

        real = getattr(corr, engine)
        calls = []

        def misbehaving(state, limits=None, *carry):
            calls.append(state)
            nxt, records = real(state, limits, *carry)
            if len(calls) == at:
                return getattr(self, change)(state, nxt, records)
            return nxt, records

        limits = CompletionLimits() if max_passes is None else CompletionLimits(max_passes)
        monkeypatch.setattr(corr, engine, misbehaving)
        *_, last = lockstep_passes(make_system(["aba->b"]), QQ, limits)
        assert last.verdict == "Divergence"
        assert last.rewriting.index == last.polynomials.index == pass_index
        assert last.detail == detail
        assert verdict_lines(last)[-1] == \
            f"VERDICT: Divergence pass={pass_index} detail={detail}"
        assert [rule.render() for rule in last.rewriting.state.rules] == rules
        basis = last.polynomials.state
        assert [render_poly(p, basis.order) for p in basis.polys] == polys

    def test_report_lines_shape(self):
        checked = tuple(lockstep_passes(make_system(["aba->b"]), QQ))
        render = pass_lines(checked[-1].rewriting.state.order)
        lines = [line for p in checked for line in render(p)]
        lines += verdict_lines(checked[-1])
        assert lines[-1] == "VERDICT: Corresponds"
        assert any(line.startswith("pass=1 rules=") for line in lines)
        assert any(line.startswith("pass=1 polys=") for line in lines)
        assert any(line.startswith("pass=1 checks:") for line in lines)
        assert "final rule: b.b.a -> a.b.b" in lines
        assert "final poly: b.b.a - a.b.b" in lines


class TestFieldInvariance:
    def test_verdicts_and_sets_match_across_fields(self):
        rng = random.Random(61)
        limits = CompletionLimits(max_passes=5, max_rules=50, max_word_length=30)
        for _ in range(25):
            system = random_system(rng, max_rules=3, max_side=3)
            runs = [tuple(lockstep_passes(system, f, limits)) for f in (QQ, F3)]
            lasts = [run[-1] for run in runs]
            assert lasts[0].verdict == lasts[1].verdict
            assert len(runs[0]) == len(runs[1])
            assert lasts[0].rewriting.state.rules == lasts[1].rewriting.state.rules
            assert [basis_to_rules(r.polynomials.state).rules for r in lasts[:1]] == \
                [basis_to_rules(r.polynomials.state).rules for r in lasts[1:]]


class TestIsoCheck:
    def test_commuting_example(self):
        report = verify_algebra_iso(make_system(["ba->ab"]), QQ, 3)
        assert report.verdict == "Pass"
        assert report.counts == ((1, 2), (2, 3), (3, 4))

    def test_single_generator_example(self):
        report = verify_algebra_iso(make_system(["aa->a"], letters="a"), QQ, 4)
        assert report.verdict == "Pass"
        assert report.counts == ((1, 1), (2, 0), (3, 0), (4, 0))

    def test_free_semigroup_example(self):
        report = verify_algebra_iso(make_system([], letters="ab"), QQ, 2)
        assert report.verdict == "Pass"
        assert report.counts == ((1, 2), (2, 4))

    # irreducible words per length: a,b / aa,ab,bb; a; a / aa
    @pytest.mark.parametrize("rules, letters, bound, counts", [
        (["ba->ab"], "ab", 2, ((1, 2), (2, 3))),
        (["aa->a"], "a", 3, ((1, 1), (2, 0), (3, 0))),
        ([], "a", 2, ((1, 1), (2, 1))),
    ], ids=["commuting", "idempotent", "free"])
    def test_normal_form_counts(self, rules, letters, bound, counts):
        report = verify_algebra_iso(make_system(rules, letters=letters), QQ, bound)
        assert report.verdict == "Pass"
        assert report.counts == counts

    def test_monoid_counts_include_empty_word(self):
        # the empty word and a are the only normal forms
        system = make_system(["aa->"], mode=MONOID, letters="a")
        report = verify_algebra_iso(system, QQ, 3)
        assert report.verdict == "Pass"
        assert report.counts == ((0, 1), (1, 1), (2, 0), (3, 0))

    def test_inconclusive_on_limits(self):
        report = verify_algebra_iso(make_system(["aba->b"]), QQ, 3,
                                    CompletionLimits(max_passes=1))
        assert report.verdict == "Inconclusive"
        assert "max_passes" in report.detail

    def test_agrees_with_closure_oracle(self):
        rng = random.Random(67)
        limits = CompletionLimits(max_passes=6, max_rules=40, max_word_length=24)
        checked = 0
        for _ in range(25):
            system = random_system(rng, letters="ab", max_rules=3, max_side=3)
            completed = knuth_bendix(system, limits)
            if not completed.fixed:
                continue
            checked += 1
            report = verify_algebra_iso(system, QQ, 4, limits)
            assert report.verdict == "Pass"
            blocks = {}
            for word in all_words(system.alphabet, 4):
                blocks.setdefault(normal_form(completed.state, word), []).append(word)
            ours = frozenset(frozenset(b) for b in blocks.values())
            assert ours == congruence_partition(system, 4)
        assert checked >= 5

    def test_linearity_on_random_three_term_samples(self):
        # images of arbitrary combinations follow from the monomial case by
        # linearity; spot-check on random samples that the summed monomial
        # forms of p - q equal the reference's forms of p and q
        rng = random.Random(71)
        system = make_system(["ba->ab", "aa->a"])
        *_, last = lockstep_passes(system, QQ)
        basis = last.polynomials.state
        words = list(all_words(system.alphabet, 4))
        for _ in range(50):
            terms_p = [(rng.choice(words), rng.randint(-3, 3)) for _ in range(3)]
            terms_q = [(rng.choice(words), rng.randint(-3, 3)) for _ in range(3)]
            p = NcPolynomial(QQ, terms_p)
            q = NcPolynomial(QQ, terms_q)
            nf_p, nf_q = (NcPolynomial(QQ, reference_reduce_on(basis, r.terms)[1]) for r in (p, q))
            nf_sum = poly_normal_form(basis, poly_difference(p, q))
            assert nf_sum == poly_difference(nf_p, nf_q)
            assert nf_sum.is_zero() == (nf_p == nf_q)

    def test_fail_verdict_when_canonical_forms_disagree(self, monkeypatch):
        import kbgb.correspondence as corr

        # a rule engine that refuses to reduce makes the two canonical-form
        # maps disagree, which the equality comparison must catch
        monkeypatch.setattr(corr, "normal_forms", lambda system: lambda w: w)
        report = verify_algebra_iso(make_system(["ba->ab"]), QQ, 2)
        assert report.verdict == "Fail"
        assert "equality disagreement" in report.detail

    # b.a.b left unreduced splits a class; b.b sent to a.a merges two
    @pytest.mark.parametrize("skewed_word, image", [("b.a.b", "b.a.b"), ("b.b", "a.a")])
    def test_disagreement_names_first_pair_of_pairwise_scan(self, monkeypatch, skewed_word, image):
        import kbgb.correspondence as corr

        system = make_system(["ba->ab"])
        skewed = system.alphabet.parse_word(skewed_word)

        def rule_nf(system, word):
            if word == skewed:
                return system.alphabet.parse_word(image)
            return normal_form(system, word)

        monkeypatch.setattr(corr, "normal_forms", lambda system: lambda word: rule_nf(system, word))
        report = verify_algebra_iso(system, QQ, 3)
        basis = rules_to_basis(system, QQ)
        universe = list(all_words(system.alphabet, 3))
        first = next(
            (w1, w2)
            for i, w1 in enumerate(universe)
            for w2 in universe[i + 1:]
            if (rule_nf(system, w1) == rule_nf(system, w2))
            != (poly_normal_form(basis, NcPolynomial(QQ, {w1: 1}))
                == poly_normal_form(basis, NcPolynomial(QQ, {w2: 1})))
        )
        assert report.verdict == "Fail"
        assert report.detail == f"equality disagreement on ({first[0].dotted()},{first[1].dotted()})"

    @staticmethod
    def _swapped(image, w):
        # the images of the classes of a.b and b.b trade places
        (word, coeff), = image.terms.items()
        swap = {w("a.b"): w("b.b"), w("b.b"): w("a.b")}
        return NcPolynomial(image.field, {swap.get(word, word): coeff})

    # each skew of the polynomial engine's canonical forms fails one check
    # of verify_algebra_iso; under b.a -> a.b the swap keeps the equality
    # relation and the irreducible words, and fails (c)
    @pytest.mark.parametrize("skew, detail", [
        (lambda image, w: NcPolynomial(image.field, term_sum(image.field, image.terms, {w("a.a.a"): 1})),
         "monomial image is not a monomial: a"),
        (lambda image, w: NcPolynomial(image.field, {m: 2 * c for m, c in image.terms.items()}),
         "monomial image is not monic: a"),
        (_swapped, "multiplicativity fails on a * b"),
    ], ids=["not-monomial", "not-monic", "multiplicativity"])
    def test_skewed_polynomial_images_fail(self, monkeypatch, skew, detail):
        import kbgb.correspondence as corr

        system = make_system(["ba->ab"])
        monkeypatch.setattr(corr, "monomial_forms", lambda basis: lambda w: skew(
            poly_normal_form(basis, NcPolynomial(basis.field, {w: 1})),
            system.alphabet.parse_word))
        report = verify_algebra_iso(system, QQ, 2)
        assert (report.verdict, report.detail) == ("Fail", detail)
        assert report.counts == ((1, 2), (2, 3))

    def test_iso_report_lines(self):
        report = verify_algebra_iso(make_system(["ba->ab"]), QQ, 3)
        lines = iso_report_lines(report)
        assert iso_header(report.bound, "Q") == "iso: bound=3 field=Q"
        assert lines[0] == "normal-forms: len=1 count=2"
        assert lines[-1] == "VERDICT: Pass"
        assert "normal-forms: len=2 count=3" in lines
