"""Exact fields, noncommutative polynomials, and Buchberger completion."""

import random
from fractions import Fraction

import pytest

from kbgb import (
    QQ,
    Alphabet,
    AlphabetMismatch,
    Basis,
    CompletionLimits,
    LimitExceeded,
    MatchKind,
    MonomialOrder,
    NcPolynomial,
    PrimeField,
    ReductionBudgetExceeded,
    Word,
    buchberger,
    buchberger_pass,
    critical_pairs,
    basis_to_rules,
    field_from_name,
    is_irreducible,
    is_pm_binomial,
    knuth_bendix,
    leading_monomial,
    make_monic,
    monomials_equal_mod_ideal,
    normal_form,
    poly_normal_form,
    render_poly,
    rules_to_basis,
    s_polynomials,
)
from kbgb.completion import passes
from kbgb.ncpoly import monomial_forms, record_line
from kbgb.rewriting import bounded_words

from helpers import (
    make_system,
    random_general_basis,
    random_redex_system,
    random_system,
    record_searches,
    redex_features,
    step_budget,
    twins,
)
from oracles import (
    all_words,
    leftmost_redex,
    poly_difference,
    reachable_monomials,
    reference_reduce,
    reference_reduce_on,
    replay_steps,
    shortlex_key,
    term_product,
    term_sum,
)

AB = Alphabet("ab")
ORDER = MonomialOrder(AB)


def w(text):
    return AB.parse_word(text)


def poly(field, *pairs):
    return NcPolynomial(field, [(w(t), c) for t, c in pairs])


def binomial_basis(rule_texts, field=QQ, letters="ab"):
    return rules_to_basis(make_system(rule_texts, letters=letters), field)


def membership_certificate(basis, p):
    """N(p) by poly_normal_form, and the steps by which reference_reduce_on
    takes p - N(p) to zero: nf is linear and N(p) is reduced, so it must."""
    nf = poly_normal_form(basis, p)
    steps, rest, _ = reference_reduce_on(basis, poly_difference(p, nf).terms)
    assert rest == {}
    return nf, steps


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


class TestLeadingMonomialAndMonic:
    def test_examples(self):
        p = poly(QQ, ("ba", 1), ("ab", -1))
        assert leading_monomial(p, ORDER) == (w("ba"), 1)
        assert leading_monomial(poly(QQ, ("a", 3)), ORDER) == (w("a"), 3)
        assert leading_monomial(poly(QQ, ("aa", 1), ("a", 1)), ORDER) == (w("aa"), 1)
        with pytest.raises(ValueError):
            leading_monomial(NcPolynomial(QQ), ORDER)

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
        assert poly_normal_form(basis, poly(QQ, ("ba", 1), ("b", 1))) == \
            poly(QQ, ("ab", 1), ("b", 1))
        reduced = poly(QQ, ("ab", 1), ("b", 1))
        assert poly_normal_form(basis, reduced) == reduced
        basis2 = binomial_basis(["aa->a"])
        assert poly_normal_form(basis2, poly(QQ, ("aa", 1), ("a", -1))).is_zero()

    def test_normal_form_examples(self):
        basis = binomial_basis(["ba->ab"])
        assert poly_normal_form(basis, poly(QQ, ("bba", 1))) == poly(QQ, ("abb", 1))
        empty = Basis(ORDER, QQ, ())
        p = poly(QQ, ("ba", 1), ("ab", 2))
        assert poly_normal_form(empty, p) == p
        basis2 = binomial_basis(["aa->a"], letters="a")
        alpha = basis2.alphabet
        p = NcPolynomial(QQ, {alpha.parse_word("aaaa"): 1})
        assert poly_normal_form(basis2, p) == NcPolynomial(QQ, {alpha.parse_word("a"): 1})

    def test_mirrors_string_reduction_on_monomials(self):
        from kbgb import normal_form

        rng = random.Random(37)
        for _ in range(40):
            system = random_system(rng, letters="ab", max_rules=3, max_side=3)
            basis = rules_to_basis(system, QQ)
            for word in all_words(system.alphabet, 5):
                image = poly_normal_form(basis, NcPolynomial(QQ, {word: 1}))
                assert image == NcPolynomial(QQ, {normal_form(system, word): 1})

    def test_replay_witnesses_membership(self):
        basis = binomial_basis(["ba->ab", "aa->a"])
        p = poly(QQ, ("baba", 2), ("ab", 1), ("b", -3))
        nf, steps = membership_certificate(basis, p)
        assert steps and poly_difference(p, nf).terms == replay_steps(basis, steps)

    def test_replay_on_general_polynomials(self):
        f = poly(QQ, ("ab", 1), ("a", Fraction(1, 2)), ("b", -1))
        basis = Basis(ORDER, QQ, (f,))
        p = poly(QQ, ("abab", 3), ("abb", -2), ("b", 1))
        nf, steps = membership_certificate(basis, p)
        assert steps and poly_difference(p, nf).terms == replay_steps(basis, steps)
        assert poly_normal_form(basis, nf) == nf

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
        # the normal form against a plain-dict reduction that shares no
        # reduction code with the engine; the redex bases have ties, left
        # sides that are prefixes of others at a lower and at a higher
        # index, and shuffled precedences, so the leftmost start and the
        # lowest index decide the forms that are checked
        total_steps = 0
        features = set()
        for basis, p in self.whole_reduction_inputs(field, kind):
            if kind == "redex":
                features |= redex_features(basis_to_rules(basis))
            steps, expected_nf, _ = reference_reduce_on(basis, p.terms)
            assert poly_normal_form(basis, p).terms == expected_nf
            total_steps += len(steps)
        assert total_steps > 2000
        assert len(features) == (4 if kind == "redex" else 0)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    @pytest.mark.parametrize("kind", ["general", "redex"])
    def test_normal_form_is_reduction_without_steps(self, field, kind):
        # poly_normal_form makes no steps, but its form is a reduction: the
        # reference's steps take p - N(p) to zero, and replayed on plain
        # dicts they rebuild p - N(p), a membership certificate
        changed = 0
        for basis, p in self.whole_reduction_inputs(field, kind):
            nf, steps = membership_certificate(basis, p)
            assert poly_difference(p, nf).terms == replay_steps(basis, steps)
            changed += nf != p
        assert changed > 500

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    def test_many_term_reduction_matches_reference(self, field):
        # 20-60-term polynomials over words up to length 8: many steps per
        # reduction, terms that cancel and are created again, and monomials
        # searched that stay in the normal form; poly_normal_form sums the
        # monomials' memoized forms to the reference's normal form, and the
        # reference certifies it
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
                _, expected_nf, again = reference_reduce(members, field, key, p.terms)
                nf, steps = membership_certificate(basis, p)
                assert nf.terms == expected_nf
                assert poly_difference(p, nf).terms == replay_steps(basis, steps)
                recreated += len(again)
        assert recreated > 0

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    def test_normal_form_is_reduction_where_terms_cancel(self, field):
        # on lockstep binomial bases, sums of c.u + c.v or c.u - c.v for
        # words u, v of one normal form, so each c.u - c.v reduces to zero
        rng = random.Random(97)
        cancelled = kept = 0
        for _ in range(20):
            basis = rules_to_basis(random_redex_system(rng), field)
            classes = {}
            for word in all_words(basis.alphabet, 5, min_len=0):
                image = poly_normal_form(basis, NcPolynomial(field, {word: 1}))
                classes.setdefault(image, []).append(word)
            shared = [words for words in classes.values() if len(words) > 1]
            for _ in range(10):
                terms, pairs = [], rng.sample(shared, min(len(shared), 6))
                for words in pairs:
                    u, v = rng.sample(words, 2)
                    c = rng.choice([-2, -1, 1, 2])
                    terms += [(u, c), (v, rng.choice([c, -c]))]
                p = NcPolynomial(field, terms)
                expected = NcPolynomial(field, reference_reduce_on(basis, p.terms)[1])
                assert poly_normal_form(basis, p) == expected
                kept += len(expected.terms)
                cancelled += len(pairs) - len(expected.terms)
        assert cancelled > 200 and kept > 200

    def test_budget_bounds_each_monomial_walk(self):
        # under b.a - a.b, b.b.a.a takes 4 steps and b.a one: a reduction
        # of their sum makes 5, poly_normal_form bounds each monomial's walk
        basis = binomial_basis(["ba->ab"])
        p = poly(QQ, ("bbaa", 1), ("ba", 1))
        steps, expected, _ = reference_reduce_on(basis, p.terms)
        nf = NcPolynomial(QQ, expected)
        assert (nf, len(steps)) == (poly(QQ, ("aabb", 1), ("ab", 1)), 5)
        with step_budget(5):
            assert poly_normal_form(basis, p) == nf
        with step_budget(4), pytest.raises(ReductionBudgetExceeded, match="within 4 steps"):
            poly_normal_form(basis, p)

    def test_budget_boundary(self):
        # a reduction that needs exactly k steps raises at a budget of k and
        # returns at k+1, in both engines
        rng = random.Random(73)
        for _ in range(20):
            system = random_redex_system(rng)
            basis = rules_to_basis(system, QQ)
            key = shortlex_key(system.alphabet, system.order.precedence)
            members = [dict(p.terms) for p in basis.polys]
            for word in rng.sample(list(all_words(system.alphabet, 6)), 10):
                p = NcPolynomial(QQ, {word: 1})
                steps, expected, _ = reference_reduce(members, QQ, key, p.terms)
                k = len(steps)
                with step_budget(k + 1):
                    nf = poly_normal_form(basis, p)
                    assert nf.terms == expected
                    (image,) = nf.terms
                    assert normal_form(system, word) == image
                for run in (lambda: poly_normal_form(basis, p),
                            lambda: normal_form(system, word)):
                    with step_budget(k), \
                            pytest.raises(ReductionBudgetExceeded, match=f"within {k} steps"):
                        run()


def with_random_binomial(rng, basis):
    """basis plus one monic member u + c.v of monomials of length 1 to 3, c
    mostly -1, so that a reduction mixes steps under one tail of coefficient
    one with steps under the other members."""
    alpha = basis.alphabet
    words = set()
    while len(words) < 2:
        words.add(Word(alpha, [rng.randrange(len(alpha)) for _ in range(rng.randint(1, 3))]))
    u, v = words
    c = rng.choice([-1, -1, -1, 1, 2])
    member = make_monic(NcPolynomial(basis.field, [(u, 1), (v, c)]), basis.order)
    return basis.with_polys([member])


class TestMonomialForms:
    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    def test_matches_poly_normal_form_on_general_bases(self, field):
        # one memo per basis, fed its monomials in a shuffled order, against
        # the reference
        rng = random.Random(83)
        combined = 0
        for _ in range(12):
            general = random_general_basis(rng, field)
            for basis in (general, with_random_binomial(rng, general)):
                form = monomial_forms(basis)
                words = list(all_words(basis.alphabet, 5, min_len=0))
                rng.shuffle(words)
                for word in words:
                    expected = NcPolynomial(field, reference_reduce_on(basis, {word: field.one})[1])
                    assert form(word) == expected
                    combined += len(expected.terms) > 1
        assert combined > 1000

    def test_budget_counts_the_steps_of_a_first_call(self):
        # a first call searches once each of the k monomials reachable from
        # m by first-redex steps, the irreducible ones included: it raises
        # at a budget of k - 1 and returns the reference's form at k
        rng = random.Random(89)
        for _ in range(8):
            general = random_general_basis(rng)
            for basis in (general, with_random_binomial(rng, general)):
                for word in all_words(basis.alphabet, 4, min_len=0):
                    k = len(reachable_monomials(basis, word))
                    with step_budget(k - 1), \
                            pytest.raises(ReductionBudgetExceeded, match=f"within {k - 1} steps"):
                        monomial_forms(basis)(word)
                    expected = reference_reduce_on(basis, {word: 1})[1]
                    with step_budget(k):
                        assert monomial_forms(basis)(word).terms == expected
        # a.a.a.a.a walks four steps under a.a - a
        with step_budget(4), pytest.raises(ReductionBudgetExceeded):
            monomial_forms(binomial_basis(["aa->a"]))(w("aaaaa"))
        with step_budget(5):
            assert monomial_forms(binomial_basis(["aa->a"]))(w("aaaaa")) == poly(QQ, ("a", 1))

    def test_an_irreducible_monomial_keys_its_own_form(self):
        # the form's one term is at the monomial given, not at a copy
        rng = random.Random(73)
        irreducible = 0
        for _ in range(12):
            basis = random_general_basis(rng)
            lms = [leading_monomial(f, basis.order)[0].letters for f in basis.polys]
            for word in all_words(basis.alphabet, 5, min_len=0):
                if leftmost_redex(lms, word.letters) is None:
                    (key,) = monomial_forms(basis)(word).terms
                    assert key is word
                    irreducible += 1
        assert irreducible > 100

    def test_binomial_forms_are_shared(self, monkeypatch):
        # under a lockstep binomial N(m) is N of m's reduct, the same object,
        # and every monomial the reduction passes through answers with no search
        form = monomial_forms(binomial_basis(["ba->ab"]))
        image = form(w("bbaa"))
        assert image == poly(QQ, ("aabb", 1))
        searches = record_searches(monkeypatch)
        assert all(form(w(text)) is image for text in ("baba", "abba", "abab", "aabb"))
        assert searches == []


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
                first = NcPolynomial(QQ, {cp.raw[0]: 1})
                second = NcPolynomial(QQ, {cp.raw[1]: 1})
                assert rec.raw == poly_difference(second, first)

    def test_raw_is_difference_of_sandwiched_members(self):
        # definitional oracle on general bases: raw = u1.f1.v1 - u2.f2.v2,
        # built by the oracle's term products; the superposition cancels
        rng = random.Random(47)
        shapes = set()
        for _ in range(40):
            basis = random_general_basis(rng)
            precedence = basis.order.precedence
            for rec in s_polynomials(basis):
                m, alphabet = rec.match, basis.alphabet
                f1, f2 = basis.polys[rec.first], basis.polys[rec.second]
                first = term_product(QQ, {Word(alphabet, m.u1): 1}, f1.terms, {Word(alphabet, m.v1): 1})
                second = term_product(QQ, {Word(alphabet, m.u2): -1}, f2.terms, {Word(alphabet, m.v2): 1})
                assert rec.raw.terms == term_sum(QQ, first, second)
                lm1 = leading_monomial(f1, basis.order)[0].letters
                lm2 = leading_monomial(f2, basis.order)[0].letters
                superposition = m.u1 + lm1 + m.v1
                assert superposition == m.u2 + lm2 + m.v2
                assert Word(alphabet, superposition) not in rec.raw.terms
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

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=["Q", "F3"])
    def test_a_call_holds_each_raw_monomial_and_zero_once(self, field):
        # raw monomials with equal letters are one Word within one call, a
        # twin's raw S-polynomial is its twin's negated at the same Words,
        # and every resolved record holds one zero
        rng = random.Random(79)
        repeats = resolved = 0
        for _ in range(40):
            system = random_redex_system(rng)
            for basis in (rules_to_basis(system, field), random_general_basis(rng, field)):
                records = s_polynomials(basis)
                one = {}
                for rec in records:
                    assert all(one.setdefault(m.letters, m) is m for m in rec.raw.terms)
                for rec, twin in twins(records):
                    assert {id(m): field.neg(c) for m, c in rec.raw.terms.items()} == \
                        {id(m): c for m, c in twin.raw.terms.items()}
                zeros = {id(rec.reduced) for rec in records if rec.new is None}
                assert len(zeros) <= 1
                repeats += sum(len(rec.raw.terms) for rec in records) - len(one)
                resolved += sum(rec.new is None for rec in records) - len(zeros)
        assert repeats > 1000 and resolved > 100

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
                poly_normal_form(basis, NcPolynomial(basis.field, {monomial: 1}))
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

    def test_max_word_length_limit(self):
        # a.b.a -> b adds b.b.a - a.b.b, whose words have three letters
        basis = binomial_basis(["aba->b"])
        with pytest.raises(LimitExceeded) as info:
            buchberger_pass(basis, CompletionLimits(max_word_length=2))
        assert info.value.reason == "max_word_length"
        assert len(info.value.partial) == 2
        nxt, _ = buchberger_pass(basis, CompletionLimits(max_word_length=3))
        assert len(nxt.polys) == 2

    def test_completion_examples(self):
        result = buchberger(binomial_basis(["ba->ab"]))
        assert result.fixed and result.index == 1

        result = buchberger(binomial_basis(["aa->a"]))
        assert result.fixed and len(result.state.polys) == 1

        result = buchberger(Basis(ORDER, QQ, ()))
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

    def test_monomials_equal_is_reduction_of_the_difference(self):
        # every pair of words up to length 3, against the reference on m1 - m2,
        # on completed lockstep bases and one of three-term members
        rng = random.Random(101)
        three_term = [make_monic(poly(QQ, ("ba", 2), ("ab", -1), ("a", 5)), ORDER),
                      poly(QQ, ("bb", 1), ("ab", -2), ("1", Fraction(1, 2)))]
        bases = [buchberger(binomial_basis(["aba->b"])).state,
                 buchberger(binomial_basis(["ba->ab", "bb->a"], PrimeField(3))).state,
                 buchberger(Basis(ORDER, QQ, three_term)).state]
        while len(bases) < 7:
            system = random_system(rng, letters="ab", max_rules=3, max_side=3)
            result = buchberger(rules_to_basis(system, QQ), CompletionLimits(max_passes=5, max_rules=20))
            if result.fixed:
                bases.append(result.state)
        verdicts = set()
        for basis in bases:
            words = list(all_words(basis.alphabet, 3, min_len=0))
            for m1 in words:
                for m2 in words:
                    diff = poly_difference(NcPolynomial(basis.field, {m1: 1}),
                                           NcPolynomial(basis.field, {m2: 1}))
                    expected = not reference_reduce_on(basis, diff.terms)[1]
                    assert monomials_equal_mod_ideal(basis, m1, m2) == expected
                    verdicts.add((expected, m1 != m2))
        assert verdicts == {(True, False), (True, True), (False, True)}

    def test_queries_take_the_monomial_walk(self, monkeypatch):
        # on a completed lockstep basis a query searches each monomial that
        # its terms reach once, and answers as the reference does
        G = buchberger(binomial_basis(["aba->b"])).state
        p = poly(QQ, ("bbaa", 1), ("aabb", -1), ("abab", 2))
        reached = set().union(*(reachable_monomials(G, word) for word in p.terms))
        searches = record_searches(monkeypatch)
        assert poly_normal_form(G, p).terms == reference_reduce_on(G, p.terms)[1]
        assert sorted(searches) == sorted((word.letters,) for word in reached)
        assert monomials_equal_mod_ideal(G, w("bbaa"), w("aabb"))
        assert not monomials_equal_mod_ideal(G, w("ab"), w("ba"))

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
        basis = Basis(ORDER, QQ, (f,))
        limits = CompletionLimits(max_passes=3, max_rules=30, max_word_length=12)
        for record in passes(basis, buchberger_pass, limits):
            for rec in record.records:
                assert (rec.new is None) == rec.reduced.is_zero()
                if rec.new is not None:
                    assert leading_monomial(rec.new, ORDER)[1] == QQ.one


class TestBasisValidation:
    def test_monic_required(self):
        # the member in render_poly's notation, not the debugging repr
        with pytest.raises(ValueError, match=r"^basis member is not monic: 2\*b\.a - 2\*a\.b$"):
            Basis(ORDER, QQ, (poly(QQ, ("ba", 2), ("ab", -2)),))

    def test_unit_member_rejected(self):
        with pytest.raises(ValueError):
            Basis(ORDER, QQ, (NcPolynomial(QQ, {Word(AB): 1}),))

    def test_duplicates_rejected(self):
        p = poly(QQ, ("ba", 1), ("ab", -1))
        with pytest.raises(ValueError, match=r"^duplicate basis member: b\.a - a\.b$"):
            Basis(ORDER, QQ, (p, p))


XYZ = Alphabet("xyz")


def xyz(text):
    return XYZ.parse_word(text)


class TestForeignOperands:
    # each call used to answer as if x, y were a, b: letters are indices
    @pytest.mark.parametrize("call, error, message", [
        (lambda basis: poly_normal_form(basis, NcPolynomial(QQ, {xyz("yx"): 1})),
         AlphabetMismatch, "polynomial over a different alphabet than the basis"),
        (lambda basis: poly_normal_form(basis, poly(PrimeField(3), ("ba", 2))),
         ValueError, "polynomial over a different scalar field than the basis"),
        (lambda basis: monomials_equal_mod_ideal(basis, xyz("yx"), xyz("xy")),
         AlphabetMismatch, "monomial over a different alphabet than the basis"),
        (lambda basis: monomials_equal_mod_ideal(basis, w("ab"), xyz("xy")),
         AlphabetMismatch, "monomial over a different alphabet than the basis"),
        (lambda basis: is_irreducible(basis_to_rules(basis), xyz("yx")),
         AlphabetMismatch, "word over a different alphabet"),
    ], ids=["nf-alphabet", "nf-field", "equal-alphabet",
            "equal-second-alphabet", "irreducible"])
    def test_rejected(self, call, error, message):
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            call(binomial_basis(["ba->ab"]))
        assert type(info.value) is error


class TestRendering:
    def test_render_examples(self):
        assert render_poly(poly(QQ, ("ba", 1), ("ab", -1)), ORDER) == "b.a - a.b"
        assert render_poly(NcPolynomial(QQ), ORDER) == "0"
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
