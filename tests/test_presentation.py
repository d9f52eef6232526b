"""Presentation file grammar: parsing, validation, and round-trips."""

from fractions import Fraction

import pytest

from kbgb import (
    NcPolynomial,
    MONOID,
    QQ,
    ParseError,
    PrimeField,
    parse_presentation,
)
from kbgb.presentation import parse_poly_terms

from helpers import render_presentation

BASIC = """\
mode: sgp
alphabet: a b
order: shortlex a < b
rules:
  b.a -> a.b
"""


class TestParseRules:
    def test_basic(self):
        pf = parse_presentation(BASIC)
        system = pf.system()
        assert [r.render() for r in system.rules] == ["b.a->a.b"]
        assert system.mode == "semigroup"

    def test_comments_and_blank_lines(self):
        text = "# heading\nmode: sgp\n\nalphabet: a b  # generators\norder: shortlex a < b\nrules:\n  b.a -> a.b # swap\n"
        assert parse_presentation(text).rules == parse_presentation(BASIC).rules

    def test_packed_words_for_single_char_alphabets(self):
        text = BASIC.replace("b.a -> a.b", "ba -> ab")
        assert parse_presentation(text).rules == parse_presentation(BASIC).rules

    def test_unknown_symbol_carries_line_number(self):
        text = BASIC.replace("b.a -> a.b", "c.a -> a.c")
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        assert info.value.line == 5
        assert "unknown generator" in str(info.value)

    def test_reversed_precedence_orients_as_declared(self):
        text = "mode: sgp\nalphabet: a b\norder: shortlex b < a\nrules:\n  a.b -> b.a\n"
        system = parse_presentation(text).system()
        assert system.order.compare(system.alphabet.parse_word("ab"),
                                    system.alphabet.parse_word("ba")) == 1

    def test_misoriented_rule_fails_at_system_build(self):
        # the parser builds each rule's one-rule system, so it fails at the rule's line
        text = BASIC.replace("b.a -> a.b", "a.b -> b.a")
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        assert info.value.line == 5

    def test_monoid_empty_rhs(self):
        text = "mode: mon\nalphabet: a\norder: shortlex a\nrules:\n  a.a -> 1\n"
        system = parse_presentation(text).system()
        assert system.mode == MONOID
        assert len(system.rules[0].rhs) == 0

    def test_empty_rhs_needs_monoid(self):
        text = "mode: sgp\nalphabet: a\norder: shortlex a\nrules:\n  a.a -> 1\n"
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        assert info.value.line == 5


class TestParseErrors:
    def test_duplicate_symbol(self):
        with pytest.raises(ParseError) as info:
            parse_presentation("mode: sgp\nalphabet: a a\norder: shortlex a\n")
        assert info.value.line == 2

    def test_bad_generator_name(self):
        with pytest.raises(ParseError):
            parse_presentation("mode: sgp\nalphabet: a 1x\norder: shortlex a 1x\n")

    def test_order_must_cover_alphabet(self):
        with pytest.raises(ParseError) as info:
            parse_presentation("mode: sgp\nalphabet: a b\norder: shortlex a\n")
        assert info.value.line == 3

    def test_malformed_rule(self):
        text = BASIC.replace("b.a -> a.b", "b.a a.b")
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        assert "malformed rule" in str(info.value)

    def test_unknown_directive(self):
        with pytest.raises(ParseError):
            parse_presentation("mode: sgp\nalpha: a\n")

    def test_duplicate_directive(self):
        with pytest.raises(ParseError):
            parse_presentation("mode: sgp\nmode: mon\nalphabet: a\norder: shortlex a\n")

    def test_missing_directive(self):
        with pytest.raises(ParseError) as info:
            parse_presentation("mode: sgp\nalphabet: a b\n")
        assert "order" in str(info.value)

    def test_indented_line_outside_section(self):
        with pytest.raises(ParseError):
            parse_presentation("mode: sgp\n  b.a -> a.b\n")

    def test_rules_in_alg_mode(self):
        with pytest.raises(ParseError):
            parse_presentation("mode: alg\nalphabet: a b\norder: shortlex a < b\nrules:\n  b.a -> a.b\n")

    def test_polys_in_sgp_mode(self):
        with pytest.raises(ParseError):
            parse_presentation("mode: sgp\nalphabet: a b\norder: shortlex a < b\npolys:\n  b.a - a.b\n")

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ParseError) as info:
            parse_presentation("mode: alg\nalphabet: a\norder: shortlex a\npolys:\n  a - a\n")
        assert "zero" in str(info.value)

    def test_precedence_line_needs_wtlex(self):
        with pytest.raises(ParseError):
            parse_presentation(
                "mode: sgp\nalphabet: a b\norder: shortlex a < b\nprecedence: a < b\n"
            )


WTLEX = "mode: sgp\nalphabet: a b\norder: wtlex a=3 b=1\nprecedence: a < b\n"
ALG_F3 = "mode: alg\nfield: F3\nalphabet: a b\norder: shortlex a < b\npolys:\n"


class TestParseErrorLines:
    @pytest.mark.parametrize("text, line, message", [
        (BASIC.replace("a < b", "a < < b"), 3,
         "malformed precedence chain: expected names separated by '<'"),
        (BASIC.replace("a < b", "a b"), 3, "malformed precedence chain near 'a b': missing '<'?"),
        (BASIC.replace("mode: sgp", "mode sgp"), 1, "expected 'key: value'"),
        (BASIC.replace("rules:\n ", "rules:"), 4, "'rules:' takes no value on its line"),
        (BASIC + "polys:\n", 6, "only one rules/polys section allowed"),
        (BASIC + "field: Q\n", 6, "directive 'field' after the rules section"),
        (BASIC.replace("sgp", "grp"), 1, "mode must be one of sgp/mon/alg: 'grp'"),
        (BASIC.replace("alphabet: a b", "alphabet:"), 2,
         "alphabet must name at least one generator"),
        (BASIC.replace("a < b", "a < c"), 3, "unknown generator in order: 'c'"),
        (WTLEX.replace("b=1", "c=1"), 3, "unknown generator in order: 'c'"),
        (WTLEX.replace("b=1", "a=1"), 3, "duplicate weight for 'a'"),
        (WTLEX.replace(" b=1", ""), 3, "order must weight every generator exactly once"),
        (WTLEX.replace("a < b", "a < c"), 4, "unknown generator in precedence: 'c'"),
        (WTLEX.replace("a < b", "a"), 4, "precedence must list every generator exactly once"),
        (BASIC.replace("shortlex", "lex"), 3, "unknown order kind: 'lex'"),
        (BASIC.replace("b.a -> a.b", "1 -> a"), 5, "rule left side must be nonempty"),
        (BASIC.replace("b.a -> a.b", "a -> b.b"), 5, "rule is not oriented descending: a->b.b"),
        (BASIC + "  a.b.a -> a\n  ba -> ab\n", 7, "duplicate rule: b.a->a.b"),
        (ALG_F3 + "  1/3*a - b\n", 6, "denominator of 1/3 vanishes mod 3"),
    ], ids=["chain", "chain-missing-lt", "no-colon", "section-value", "second-section",
            "directive-after-section", "mode", "empty-alphabet", "shortlex-unknown",
            "wtlex-unknown", "wtlex-duplicate", "wtlex-missing", "precedence-unknown",
            "precedence-cover", "order-kind", "empty-left-side", "misoriented-rule",
            "duplicate-rule", "vanishing-denominator"])
    def test_line_and_message(self, text, line, message):
        with pytest.raises(ParseError) as info:
            parse_presentation(text)
        assert info.value.line == line
        assert str(info.value) == f"line {line}: {message}"


class TestWtlex:
    TEXT = (
        "mode: sgp\nalphabet: a b\norder: wtlex a=3 b=1\nprecedence: a < b\n"
        "rules:\n  a -> b.b\n"
    )

    def test_parse_and_orientation(self):
        system = parse_presentation(self.TEXT).system()
        assert system.order.weights == (3, 1)
        # a outweighs b.b, so the rule is oriented even though a is shorter
        assert system.order.compare(system.alphabet.parse_word("a"),
                                    system.alphabet.parse_word("bb")) == 1

    def test_missing_precedence_line(self):
        bad = self.TEXT.replace("precedence: a < b\n", "")
        with pytest.raises(ParseError):
            parse_presentation(bad)

    def test_bad_weight(self):
        bad = self.TEXT.replace("a=3", "a=0")
        with pytest.raises(ParseError):
            parse_presentation(bad)


class TestAlg:
    TEXT = """\
mode: alg
field: F3
alphabet: a b
order: shortlex a < b
polys:
  b.a - a.b
  2*a.a - 2*a
"""

    def test_parse_basis(self):
        pf = parse_presentation(self.TEXT)
        basis = pf.basis()
        assert basis.field == PrimeField(3)
        assert len(basis.polys) == 2

    def test_field_defaults_to_rationals(self):
        text = self.TEXT.replace("field: F3\n", "")
        assert parse_presentation(text).basis().field == QQ

    def test_members_are_normalized_monic(self):
        pf = parse_presentation(self.TEXT)
        basis = pf.basis(QQ)
        alpha = pf.alphabet
        assert basis.polys[1] == NcPolynomial(QQ, [
            (alpha.parse_word("aa"), 1), (alpha.parse_word("a"), -1),
        ])

    def test_coefficient_forms(self):
        alpha = parse_presentation(self.TEXT).alphabet
        terms = parse_poly_terms(1, alpha, "2 a.b - 1/2*b + 3 - a")
        assert terms == (
            (alpha.parse_word("ab"), Fraction(2)),
            (alpha.parse_word("b"), Fraction(-1, 2)),
            (alpha.parse_word("1"), Fraction(3)),
            (alpha.parse_word("a"), Fraction(-1)),
        )

    def test_malformed_terms(self):
        alpha = parse_presentation(self.TEXT).alphabet
        # a * that does not join a coefficient to a monomial
        for bad in ("a ++ b", "2 3 a", "a b", "", "2*", "*a", "2**a", "2*a*", "2*-a"):
            with pytest.raises(ParseError):
                parse_poly_terms(1, alpha, bad)


class TestRoundTrip:
    CASES = [
        BASIC,
        "mode: mon\nalphabet: a\norder: shortlex a\nrules:\n  a.a -> 1\n",
        "mode: sgp\nalphabet: x1 x2\norder: shortlex x2 < x1\nrules:\n  x1.x2 -> x2.x1\n",
        "mode: sgp\nalphabet: a b\norder: wtlex a=3 b=1\nprecedence: a < b\nrules:\n  a -> b.b\n",
        "mode: alg\nfield: F3\nalphabet: a b\norder: shortlex a < b\npolys:\n  b.a - a.b\n  a.a - a\n",
        "mode: alg\nalphabet: a b\norder: shortlex a < b\npolys:\n  2*a.b - 1/2*b + 1\n",
        "mode: sgp\nalphabet: a b\norder: shortlex a < b\nrules:\n",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_render_parse(self, text):
        pf = parse_presentation(text)
        rendered = render_presentation(pf)
        assert parse_presentation(rendered) == pf

    def test_render_is_stable(self):
        pf = parse_presentation(BASIC)
        rendered = render_presentation(pf)
        assert render_presentation(parse_presentation(rendered)) == rendered
