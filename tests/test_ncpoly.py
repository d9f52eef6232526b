"""Exact fields, noncommutative polynomials, and Buchberger completion."""

import random
from fractions import Fraction

import pytest

from kbgb import (
    QQ,
    Alphabet,
    Basis,
    CompletionLimits,
    LimitExceeded,
    MatchKind,
    MonomialOrder,
    NcPolynomial,
    PrimeField,
    ReductionBudgetExceeded,
    ReductionStep,
    Word,
    buchberger,
    buchberger_pass,
    critical_pairs,
    field_from_name,
    is_pm_binomial,
    knuth_bendix,
    leading_monomial,
    make_monic,
    monomials_equal_mod_ideal,
    normal_form,
    poly_normal_form,
    reduce_with_steps,
    render_poly,
    replay_steps,
    rules_to_basis,
    s_polynomials,
)
from kbgb.completion import passes
from kbgb.ncpoly import record_line
from kbgb.rewriting import bounded_words

from helpers import (
    make_system,
    random_general_basis,
    random_redex_system,
    random_system,
    redex_features,
)
from oracles import all_words, reference_reduce, reference_step, shortlex_key

AB = Alphabet("ab")
ORDER = MonomialOrder.shortlex(AB)


def w(text):
    return AB.parse_word(text)


def poly(field, *pairs):
    return NcPolynomial(field, [(w(t), c) for t, c in pairs])


def binomial_basis(rule_texts, field=QQ, letters="ab"):
    return rules_to_basis(make_system(rule_texts, letters=letters), field)


def reduce_once(basis, p):
    """p after the first recorded reduction step, or None if p is reduced."""
    _, steps = reduce_with_steps(basis, p)
    return p - replay_steps(basis, steps[:1]) if steps else None


class TestFields:
    def test_prime_validation(self):
        # moduli near 2**64 must be decided in bounded work
        for p in (2, 3, 17, 10**18 + 3, 2**64 - 59):
            assert PrimeField(p).p == p
        # (10**9+7)(10**9+9), a strong pseudoprime to the bases 2..23, 2**64
        for bad in (0, 1, 4, 9, 15, 1000000016000000063, 3825123056546413051, 2**64):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_field_from_name(self):
        assert field_from_name("Q") == QQ
        assert field_from_name("F3") == PrimeField(3)
        with pytest.raises(ValueError):
            field_from_name("F6")
        with pytest.raises(ValueError):
            field_from_name("R")

    def test_canonical_representations(self):
        f3 = PrimeField(3)
        assert f3.coerce(-1) == 2
        assert f3.coerce(Fraction(1, 2)) == 2  # 1/2 = 1 * inv(2) = 2 mod 3
        assert QQ.coerce("3/6") == Fraction(1, 2)
        with pytest.raises(ZeroDivisionError):
            f3.coerce(Fraction(1, 3))

    @pytest.mark.parametrize("field", [QQ, PrimeField(3), PrimeField(5)])
    def test_field_axioms_sampled(self, field):
        rng = random.Random(31)
        sample = [field.coerce(rng.randint(-20, 20)) for _ in range(40)]
        for _ in range(300):
            a, b, c = (rng.choice(sample) for _ in range(3))
            assert field.add(a, b) == field.add(b, a)
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(a, b) == field.mul(b, a)
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            assert field.add(a, field.neg(a)) == field.zero
            if a != field.zero:
                assert field.mul(a, field.inv(a)) == field.one

    def test_rationals_are_ints_exactly_when_integral(self):
        # every result equals plain Fraction arithmetic, and is an int
        # exactly when it is integral
        values = [0, 1, -1, 2, -3, 7, Fraction(1, 2), Fraction(-3, 2), Fraction(2, 3),
                  Fraction(-5, 4), Fraction(7, 6)]

        def canonical(result, expected):
            return result == expected and (type(result) is int) == (expected.denominator == 1)

        for a in values:
            fa = Fraction(a)
            assert canonical(QQ.neg(a), -fa)
            assert canonical(QQ.coerce(a), fa) and canonical(QQ.coerce(str(fa)), fa)
            if a != 0:
                assert canonical(QQ.inv(a), 1 / fa)
            for b in values:
                assert canonical(QQ.add(a, b), fa + Fraction(b))
                assert canonical(QQ.mul(a, b), fa * Fraction(b))
        for text in ("4/2", "-6/3", "0/5"):
            assert canonical(QQ.coerce(text), Fraction(text))
            assert canonical(QQ.coerce(Fraction(text)), Fraction(text))
        assert QQ.zero == 0 and QQ.one == 1
        assert type(QQ.zero) is int and type(QQ.one) is int
        assert type(QQ.coerce(True)) is int

    def test_rational_inverse_of_int_is_exact(self):
        assert QQ.inv(2) == Fraction(1, 2)
        assert not isinstance(QQ.inv(2), float)
        assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
        with pytest.raises(ZeroDivisionError):
            QQ.inv(0)


class TestPolynomialArithmetic:
    def test_zero_pruning_and_merge(self):
        p = NcPolynomial(QQ, [(w("a"), 1), (w("a"), -1), (w("b"), 2)])
        assert p.terms == {w("b"): Fraction(2)}
        assert (p - p).is_zero()

    def test_sandwich(self):
        p = poly(QQ, ("ba", 1), ("b", -1))
        q = p.sandwich(w("a"), w("b"))
        assert q == poly(QQ, ("abab", 1), ("abb", -1))

    def test_product(self):
        p = poly(QQ, ("a", 1), ("b", 1))
        q = poly(QQ, ("a", 1), ("b", -1))
        assert p * q == poly(QQ, ("aa", 1), ("ab", -1), ("ba", 1), ("bb", -1))

    def test_field_mix_rejected(self):
        with pytest.raises(ValueError):
            poly(QQ, ("a", 1)) + poly(PrimeField(3), ("a", 1))


class TestLeadingMonomialAndMonic:
    def test_examples(self):
        p = poly(QQ, ("ba", 1), ("ab", -1))
        assert leading_monomial(p, ORDER) == (w("ba"), 1)
        assert leading_monomial(poly(QQ, ("a", 3)), ORDER) == (w("a"), 3)
        assert leading_monomial(poly(QQ, ("aa", 1), ("a", 1)), ORDER) == (w("aa"), 1)
        with pytest.raises(ValueError):
            leading_monomial(NcPolynomial.zero(QQ), ORDER)

    def test_make_monic_examples(self):
        assert make_monic(poly(QQ, ("ab", 1), ("ba", -1)), ORDER) == \
            poly(QQ, ("ba", 1), ("ab", -1))
        already = poly(QQ, ("ba", 1), ("ab", -1))
        assert make_monic(already, ORDER) == already
        assert make_monic(poly(QQ, ("aa", 2), ("a", -2)), ORDER) == \
            poly(QQ, ("aa", 1), ("a", -1))


class TestReduction:
    def test_examples(self):
        basis = binomial_basis(["ba->ab"])
        assert reduce_once(basis, poly(QQ, ("ba", 1), ("b", 1))) == \
            poly(QQ, ("ab", 1), ("b", 1))
        assert reduce_once(basis, poly(QQ, ("ab", 1), ("b", 1))) is None
        basis2 = binomial_basis(["aa->a"])
        assert reduce_once(basis2, poly(QQ, ("aa", 1), ("a", -1))).is_zero()

    def test_step_record_fields_equality_and_repr(self):
        _, steps = reduce_with_steps(binomial_basis(["ba->ab"]), poly(QQ, ("bba", 3)))
        assert steps[0] == ReductionStep(3, w("b"), 0, w("1"))
        assert steps[0] != ReductionStep(3, w("1"), 0, w("b"))
        assert repr(steps[0]) == "ReductionStep(coeff=3, left=Word('b'), index=0, right=Word('1'))"
        with pytest.raises(AttributeError):
            steps[0].coeff = 1

    def test_normal_form_examples(self):
        basis = binomial_basis(["ba->ab"])
        assert poly_normal_form(basis, poly(QQ, ("bba", 1))) == poly(QQ, ("abb", 1))
        empty = Basis(AB, ORDER, QQ, ())
        p = poly(QQ, ("ba", 1), ("ab", 2))
        assert poly_normal_form(empty, p) == p
        basis2 = binomial_basis(["aa->a"], letters="a")
        alpha = basis2.alphabet
        p = NcPolynomial.monomial(QQ, alpha.parse_word("aaaa"))
        assert poly_normal_form(basis2, p) == NcPolynomial.monomial(QQ, alpha.parse_word("a"))

    def test_mirrors_string_reduction_on_monomials(self):
        from kbgb import normal_form

        rng = random.Random(37)
        for _ in range(40):
            system = random_system(rng, letters="ab", max_rules=3, max_side=3)
            basis = rules_to_basis(system, QQ)
            for word in all_words(system.alphabet, 5):
                image = poly_normal_form(basis, NcPolynomial.monomial(QQ, word))
                assert image == NcPolynomial.monomial(QQ, normal_form(system, word))

    def test_replay_witnesses_membership(self):
        basis = binomial_basis(["ba->ab", "aa->a"])
        p = poly(QQ, ("baba", 2), ("ab", 1), ("b", -3))
        nf, steps = reduce_with_steps(basis, p)
        assert p - nf == replay_steps(basis, steps)

    def test_replay_on_general_polynomials(self):
        f = poly(QQ, ("ab", 1), ("a", Fraction(1, 2)), ("b", -1))
        basis = Basis(AB, ORDER, QQ, (f,))
        p = poly(QQ, ("abab", 3), ("abb", -2), ("b", 1))
        nf, steps = reduce_with_steps(basis, p)
        assert p - nf == replay_steps(basis, steps)
        assert poly_normal_form(basis, nf) == nf

    def test_greatest_monomial_reduced_first(self):
        basis = binomial_basis(["ba->ab"])
        p = poly(QQ, ("bba", 1), ("ba", 1))
        stepped = reduce_once(basis, p)
        assert stepped == poly(QQ, ("bab", 1), ("ba", 1))

    def test_first_step_matches_reference_redex_policy(self):
        rng = random.Random(31)
        features = set()
        for _ in range(60):
            system = random_redex_system(rng)
            features |= redex_features(system)
            alpha = system.alphabet
            basis = rules_to_basis(system, QQ)
            lhss = [rule.lhs.letters for rule in system.rules]
            key = shortlex_key(alpha, system.order.precedence)
            words = list(all_words(alpha, 5, min_len=0))
            for _ in range(30):
                p = NcPolynomial(QQ, [(rng.choice(words), rng.randint(-3, 3)) for _ in range(3)])
                expected = reference_step(lhss, p, key)
                _, steps = reduce_with_steps(basis, p)
                once = reduce_once(basis, p)
                if expected is None:
                    assert steps == () and once is None
                    continue
                first = steps[0]
                assert (first.coeff, first.left.letters, first.index, first.right.letters) == expected
                coeff, left, index, right = expected
                product = (NcPolynomial.monomial(QQ, Word(alpha, left)) * basis.polys[index]
                           * NcPolynomial.monomial(QQ, Word(alpha, right)))
                assert once == p - product.scaled(coeff)
        assert len(features) == 4

    @staticmethod
    def whole_reduction_inputs(field, kind):
        """(basis, polynomial): 20 polynomials on each of 40 bases."""
        rng = random.Random(71)
        for _ in range(40):
            if kind == "general":
                basis = random_general_basis(rng, field)
            else:
                basis = rules_to_basis(random_redex_system(rng), field)
            words = list(all_words(basis.alphabet, 6, min_len=0))
            for _ in range(20):
                terms = [(rng.choice(words), Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                                      rng.randint(1, 2)))
                         for _ in range(rng.randint(1, 5))]
                yield basis, NcPolynomial(field, terms)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    @pytest.mark.parametrize("kind", ["general", "redex"])
    def test_whole_reduction_matches_reference(self, field, kind):
        # every step and the normal form, against a plain-dict reduction
        # that shares no reduction code with the engine
        total_steps = 0
        for basis, p in self.whole_reduction_inputs(field, kind):
            key = shortlex_key(basis.alphabet, basis.order.precedence)
            members = [dict(f.terms) for f in basis.polys]
            expected_steps, expected_nf, _ = reference_reduce(members, field, key, p.terms)
            nf, steps = reduce_with_steps(basis, p)
            assert [(s.coeff, s.left.letters, s.index, s.right.letters)
                    for s in steps] == expected_steps
            assert nf.terms == expected_nf
            total_steps += len(steps)
        assert total_steps > 2000

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    @pytest.mark.parametrize("kind", ["general", "redex"])
    def test_normal_form_is_reduction_without_steps(self, field, kind):
        # poly_normal_form runs the same loop as reduce_with_steps but
        # records no steps; the normal forms must not differ
        changed = 0
        for basis, p in self.whole_reduction_inputs(field, kind):
            nf = poly_normal_form(basis, p)
            assert nf == reduce_with_steps(basis, p)[0]
            changed += nf != p
        assert changed > 500

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    def test_many_term_reduction_matches_reference(self, field):
        # 20-60-term polynomials over words up to length 8: many steps per
        # reduction, terms that cancel and are created again, and monomials
        # searched that stay in the normal form
        rng = random.Random(79)
        recreated = 0
        for _ in range(6):
            basis = random_general_basis(rng, field)
            alpha = basis.alphabet
            key = shortlex_key(alpha, basis.order.precedence)
            members = [dict(p.terms) for p in basis.polys]
            for _ in range(3):
                size = rng.randint(20, 60)
                words = set()
                while len(words) < size:
                    words.add(Word(alpha, [rng.randrange(len(alpha))
                                           for _ in range(rng.randint(0, 8))]))
                # numerators and denominators prime to 3, so no term vanishes over F3
                p = NcPolynomial(field, [(word, Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)))
                                         for word in words])
                assert len(p.terms) == size
                expected_steps, expected_nf, again = reference_reduce(members, field, key, p.terms)
                nf, steps = reduce_with_steps(basis, p)
                assert [(s.coeff, s.left.letters, s.index, s.right.letters)
                        for s in steps] == expected_steps
                assert nf.terms == expected_nf
                recreated += len(again)
        assert recreated > 0

    def test_budget_boundary(self):
        # a reduction that needs exactly k steps raises at max_steps=k and
        # returns at k+1, in both engines
        rng = random.Random(73)
        for _ in range(20):
            system = random_redex_system(rng)
            basis = rules_to_basis(system, QQ)
            key = shortlex_key(system.alphabet, system.order.precedence)
            members = [dict(p.terms) for p in basis.polys]
            for word in rng.sample(list(all_words(system.alphabet, 6)), 10):
                p = NcPolynomial.monomial(QQ, word)
                k = len(reference_reduce(members, QQ, key, p.terms)[0])
                nf, steps = reduce_with_steps(basis, p, k + 1)
                assert len(steps) == k
                assert poly_normal_form(basis, p, k + 1) == nf
                (image,) = nf.terms
                assert normal_form(system, word, k + 1) == image
                for run in (lambda: reduce_with_steps(basis, p, k),
                            lambda: poly_normal_form(basis, p, k),
                            lambda: normal_form(system, word, k)):
                    with pytest.raises(ReductionBudgetExceeded, match=f"within {k} steps"):
                        run()


class TestSPolynomials:
    def test_aba_example(self):
        basis = binomial_basis(["aba->b"])
        records = s_polynomials(basis)
        assert [r.match.kind for r in records] == [
            MatchKind.SUFFIX_PREFIX,
            MatchKind.PREFIX_SUFFIX,
        ]
        sp = records[0]
        assert sp.raw == poly(QQ, ("abb", 1), ("bba", -1))
        assert sp.reduced == sp.raw
        assert sp.new == poly(QQ, ("bba", 1), ("abb", -1))

    def test_zero_example(self):
        basis = binomial_basis(["aa->a"])
        records = s_polynomials(basis)
        assert records and all(r.raw.is_zero() and r.new is None for r in records)

    def test_no_match_example(self):
        assert s_polynomials(binomial_basis(["ba->ab"])) == []

    def test_raw_is_difference_of_pair_sides(self):
        rng = random.Random(41)
        for _ in range(40):
            system = random_system(rng, letters="ab", max_rules=3, max_side=3)
            basis = rules_to_basis(system, QQ)
            pairs = critical_pairs(system)
            records = s_polynomials(basis)
            assert len(pairs) == len(records)
            for cp, rec in zip(pairs, records):
                first = NcPolynomial.monomial(QQ, cp.raw[0])
                second = NcPolynomial.monomial(QQ, cp.raw[1])
                assert rec.raw == second - first

    def test_raw_is_difference_of_sandwiched_members(self):
        # definitional oracle on general bases: raw = u1.f1.v1 - u2.f2.v2,
        # built from products with monomials; the superposition cancels
        rng = random.Random(47)
        shapes = set()
        for _ in range(40):
            basis = random_general_basis(rng)
            precedence = basis.order.precedence
            for rec in s_polynomials(basis):
                m = rec.match

                def product(left, member, right):
                    return (NcPolynomial.monomial(QQ, left) * basis.polys[member]
                            * NcPolynomial.monomial(QQ, right))

                assert rec.raw == product(m.u1, rec.first, m.v1) - product(m.u2, rec.second, m.v2)
                assert m.superposition not in rec.raw.terms
                shapes.add((m.kind, precedence != basis.alphabet.symbols,
                            any(c.denominator != 1 for c in rec.raw.terms.values())))
        assert {kind for kind, _, _ in shapes} == set(MatchKind)
        assert (True, True) in {(shuffled, fractional) for _, shuffled, fractional in shapes}

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    def test_reduced_is_normal_form_of_raw(self, field):
        # s_polynomials reduces each distinct monomial once and sums c . nf(m);
        # poly_normal_form is linear, so that equals reducing raw whole
        rng = random.Random(53)
        repeats = changed = 0
        for _ in range(40):
            basis = random_general_basis(rng, field)
            records = s_polynomials(basis)
            for rec in records:
                assert rec.reduced == poly_normal_form(basis, rec.raw)
                changed += rec.reduced != rec.raw
            monomials = [m for rec in records for m in rec.raw.terms]
            repeats += len(monomials) - len(set(monomials))
        assert repeats and changed

    def test_reductions_leave_system_and_basis_unchanged(self):
        # the per-pass memos live for one call; one kept on a long-lived
        # system or basis would grow with every query against it
        system = knuth_bendix(make_system(["abab->ba"]), CompletionLimits(max_passes=3)).state
        basis = random_general_basis(random.Random(61))
        before = [dict(vars(system)), dict(vars(basis))]
        for _ in range(2):
            critical_pairs(system)
            s_polynomials(basis)
            for word in bounded_words(system, 5):
                normal_form(system, word)
                monomial = Word(basis.alphabet, word.letters)
                poly_normal_form(basis, NcPolynomial.monomial(basis.field, monomial))
        for state, snapshot in zip((system, basis), before):
            assert vars(state).keys() == snapshot.keys()
            assert all(vars(state)[key] is value for key, value in snapshot.items())


class TestBuchberger:
    def test_pass_examples(self):
        basis = binomial_basis(["ba->ab"])
        nxt, records = buchberger_pass(basis, CompletionLimits())
        assert nxt.polys == basis.polys and records == []

        basis = binomial_basis(["aa->a"])
        nxt, records = buchberger_pass(basis, CompletionLimits())
        assert nxt.polys == basis.polys and all(r.new is None for r in records)

        basis = binomial_basis(["aba->b"])
        nxt, _ = buchberger_pass(basis, CompletionLimits())
        assert list(nxt.polys) == list(basis.polys) + [poly(QQ, ("bba", 1), ("abb", -1))]

    def test_completion_examples(self):
        result = buchberger(binomial_basis(["ba->ab"]))
        assert result.fixed and result.index == 1

        result = buchberger(binomial_basis(["aa->a"]))
        assert result.fixed and len(result.state.polys) == 1

        result = buchberger(Basis(AB, ORDER, QQ, ()))
        assert result.fixed and result.state.polys == ()

    def test_limits(self):
        basis = binomial_basis(["aba->b"])
        with pytest.raises(LimitExceeded):
            buchberger_pass(basis, CompletionLimits(max_rules=1))
        result = buchberger(basis, CompletionLimits(max_passes=1))
        assert not result.fixed and result.limit_reason == "max_passes"
        (only,) = passes(basis, buchberger_pass, CompletionLimits(max_passes=1))
        assert (only.limit_reason, only.fixed) == ("max_passes", False)
        assert len(only.state.polys) == 2 and result.state == only.state

        result = buchberger(basis, CompletionLimits(max_passes=0))
        assert result.limit_reason == "max_passes" and result.index == 0
        assert result.state == basis

        result = buchberger(basis, CompletionLimits(max_rules=1))
        assert result.limit_reason == "max_rules"
        (only,) = passes(basis, buchberger_pass, CompletionLimits(max_rules=1))
        assert (only.limit_reason, only.fixed) == ("max_rules", False)
        assert only.state == basis == result.state  # nothing was installed

        result = buchberger(basis)
        assert result.fixed and result.limit_reason is None
        trace = tuple(passes(basis, buchberger_pass, CompletionLimits()))
        assert [(p.limit_reason, p.fixed) for p in trace] == [(None, False), (None, True)]
        assert trace[-1] == result

    def test_monomials_equal_examples(self):
        result = buchberger(binomial_basis(["ba->ab"]))
        G = result.state
        assert monomials_equal_mod_ideal(G, w("ab"), w("ba"))
        assert not monomials_equal_mod_ideal(G, w("a"), w("b"))
        assert monomials_equal_mod_ideal(G, w("bab"), w("bab"))

    def test_binomial_closure_across_runs(self):
        rng = random.Random(43)
        for _ in range(25):
            system = random_system(rng, letters="ab", max_rules=3, max_side=3)
            for field in (QQ, PrimeField(3)):
                basis = rules_to_basis(system, field)
                units = {field.one, field.neg(field.one)}
                limits = CompletionLimits(max_passes=5, max_rules=40, max_word_length=24)
                for record in passes(basis, buchberger_pass, limits):
                    for rec in record.records:
                        assert is_pm_binomial(rec.raw, units)
                        assert is_pm_binomial(rec.reduced, units)

    def test_field_independence_of_binomial_completion(self):
        from kbgb import basis_to_rules

        rng = random.Random(47)
        checked = 0
        for _ in range(25):
            system = random_system(rng, letters="ab", max_rules=3, max_side=3)
            limits = CompletionLimits(max_passes=5, max_rules=40, max_word_length=24)
            results = {}
            for field in (QQ, PrimeField(3), PrimeField(2)):
                res = buchberger(rules_to_basis(system, field), limits)
                results[field.name] = res
            kinds = {name: r.fixed for name, r in results.items()}
            assert len(set(kinds.values())) == 1
            if not results["Q"].fixed:
                continue
            checked += 1
            rule_sets = {
                name: tuple(r.render() for r in basis_to_rules(res.state).rules)
                for name, res in results.items()
            }
            assert len(set(rule_sets.values())) == 1
        assert checked >= 5

    def test_general_engine_smoke(self):
        # a three-term member: the machine is not restricted to binomials
        f = poly(QQ, ("ab", 1), ("aa", -1), ("b", -1))
        basis = Basis(AB, ORDER, QQ, (f,))
        limits = CompletionLimits(max_passes=3, max_rules=30, max_word_length=12)
        for record in passes(basis, buchberger_pass, limits):
            for rec in record.records:
                assert (rec.new is None) == rec.reduced.is_zero()
                if rec.new is not None:
                    assert leading_monomial(rec.new, ORDER)[1] == QQ.one


class TestBasisValidation:
    def test_monic_required(self):
        with pytest.raises(ValueError):
            Basis(AB, ORDER, QQ, (poly(QQ, ("ba", 2), ("ab", -2)),))

    def test_unit_member_rejected(self):
        with pytest.raises(ValueError):
            Basis(AB, ORDER, QQ, (NcPolynomial.monomial(QQ, Word(AB)),))

    def test_duplicates_rejected(self):
        p = poly(QQ, ("ba", 1), ("ab", -1))
        with pytest.raises(ValueError):
            Basis(AB, ORDER, QQ, (p, p))


class TestRendering:
    def test_render_examples(self):
        assert render_poly(poly(QQ, ("ba", 1), ("ab", -1)), ORDER) == "b.a - a.b"
        assert render_poly(NcPolynomial.zero(QQ), ORDER) == "0"
        assert render_poly(poly(QQ, ("ba", -1), ("ab", 1)), ORDER) == "-b.a + a.b"
        assert render_poly(poly(QQ, ("aa", 2), ("1", Fraction(-1, 2))), ORDER) == "2*a.a - 1/2"

    def test_prime_field_folding(self):
        f3 = PrimeField(3)
        p = NcPolynomial(f3, [(w("ba"), 1), (w("ab"), 2)])
        assert render_poly(p, ORDER) == "b.a - a.b"

    def test_record_line_golden(self):
        basis = binomial_basis(["aba->b"])
        records = s_polynomials(basis)
        assert record_line(1, records[0], ORDER) == (
            "pass=1 polys=(0,0) kind=SuffixPrefix raw=(-b.b.a + a.b.b) "
            "reduced=(-b.b.a + a.b.b) disp=Added:(b.b.a - a.b.b)"
        )
