"""Every guard of the library that no other test reaches rejects its input
with its own exception type and message.

Each row builds one rejected call; the row's exception must be raised
with exactly that type (AlphabetMismatch is a ValueError, so a plain
ValueError would not do) and the row's message.
"""

import re

import pytest

from kbgb import (
    QQ,
    Alphabet,
    AlphabetMismatch,
    Basis,
    MonomialOrder,
    NcPolynomial,
    PrimeField,
    RewriteSystem,
    Rule,
    Word,
    leading_monomial,
    normal_form,
    parse_presentation,
    verify_algebra_iso,
    words_equal,
)

AB = Alphabet("ab")
XY = Alphabet("xy")
AB_ORDER = MonomialOrder(AB)
XY_ORDER = MonomialOrder(XY)
F5 = PrimeField(5)
BA_AB = RewriteSystem(AB_ORDER, (Rule(AB.parse_word("b.a"), AB.parse_word("a.b")),))
SGP_FILE = "mode: sgp\nalphabet: a b\norder: shortlex a < b\nrules:\n  b.a -> a.b\n"
ALG_FILE = "mode: alg\nalphabet: a b\norder: shortlex a < b\npolys:\n  b.a - a.b\n"


def _binomial(alphabet, field=QQ):
    """The second letter times the first, minus the first times the second."""
    return NcPolynomial(field, {Word(alphabet, (1, 0)): 1, Word(alphabet, (0, 1)): -1})


GUARDS = {
    "parse-word-empty-name": (
        lambda: AB.parse_word("a..b"), ValueError, "malformed word: 'a..b'"),
    # Word.__mul__ returns NotImplemented, and str's repeat then rejects a Word
    "word-times-str": (
        lambda: Word(AB, (0,)) * "x", TypeError, "can't multiply sequence by non-int of type 'Word'"),
    "rational-from-float": (
        lambda: QQ.coerce(1.5), TypeError, "cannot use 1.5 as a rational scalar"),
    "residue-from-float": (
        lambda: F5.coerce(1.5), TypeError, "cannot use 1.5 as a residue mod 5"),
    # "1/2" is the residue 3; a text whose denominator vanishes mod 5 is not one
    "residue-from-text-denominator-zero": (
        lambda: F5.coerce("1/5"), ZeroDivisionError, "denominator of 1/5 vanishes mod 5"),
    "residue-inverse-of-zero": (
        lambda: F5.inv(0), ZeroDivisionError, "inverse of zero"),
    "polynomial-monomial-not-a-word": (
        lambda: NcPolynomial(QQ, {"a": 1}), TypeError, "monomial must be a Word: 'a'"),
    "polynomial-mixed-alphabets": (
        lambda: NcPolynomial(QQ, {Word(AB, (0,)): 1, Word(XY, (0,)): 1}), AlphabetMismatch,
        "polynomial mixes alphabets"),
    "leading-monomial-other-order": (
        lambda: leading_monomial(_binomial(AB), XY_ORDER), AlphabetMismatch,
        "polynomial over a different alphabet than the order"),
    "basis-member-zero": (
        lambda: Basis(AB_ORDER, QQ, (NcPolynomial(QQ),)), ValueError,
        "basis members must be nonzero polynomials"),
    "basis-member-other-field": (
        lambda: Basis(AB_ORDER, QQ, (_binomial(AB, F5),)), ValueError,
        "basis member over a different scalar field"),
    "basis-member-other-alphabet": (
        lambda: Basis(AB_ORDER, QQ, (_binomial(XY),)), AlphabetMismatch,
        "basis member over a different alphabet"),
    "system-bad-mode": (
        lambda: RewriteSystem(AB_ORDER, (), "group"), ValueError,
        "mode must be 'sgp' or 'mon'"),
    "system-rule-other-alphabet": (
        lambda: RewriteSystem(AB_ORDER, (Rule(XY.parse_word("y.x"), XY.parse_word("x.y")),)),
        AlphabetMismatch, "rule over a different alphabet: y.x->x.y"),
    "normal-form-other-alphabet": (
        lambda: normal_form(BA_AB, XY.parse_word("x")), AlphabetMismatch,
        "word over a different alphabet"),
    "words-equal-other-alphabet": (
        lambda: words_equal(BA_AB, AB.parse_word("a"), XY.parse_word("x")), AlphabetMismatch,
        "word over a different alphabet"),
    "iso-bound-zero": (
        lambda: verify_algebra_iso(BA_AB, QQ, bound=0), ValueError, "bound must be positive"),
    "alg-file-system": (
        lambda: parse_presentation(ALG_FILE).system(), ValueError,
        "an alg presentation has no rewrite rules"),
    "sgp-file-basis": (
        lambda: parse_presentation(SGP_FILE).basis(), ValueError,
        "only an alg presentation carries polynomials"),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_rejects_with_its_own_error(name):
    call, kind, message = GUARDS[name]
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is kind
