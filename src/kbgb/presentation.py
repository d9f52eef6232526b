"""Line-oriented presentation files.

Grammar (``#`` starts a comment, blank lines are ignored)::

    mode: sgp | mon | alg
    field: Q | F<p>              # coefficient field; default Q
    alphabet: <name> <name> ...
    order: shortlex a < b < c
    order: wtlex a=2 b=1         # weighted shortlex; needs a precedence line
    precedence: a < b            # wtlex only
    rules:                       # sgp / mon
      b.a -> a.b
    polys:                       # alg
      b.a - a.b

Generator names match ``[A-Za-z_][A-Za-z0-9_]*``. Words join names with
'.'; alphabets whose names are all single characters may pack letters
("ba"). "1" denotes the empty word. Polynomial terms take an optional
integer or a/b rational coefficient, as in ``2*a.b - 1/2*b``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .ncpoly import QQ, Basis, NcPolynomial, field_from_name, make_monic, render_poly
from .rewriting import MONOID, SEMIGROUP, RewriteSystem, Rule
from .words import Alphabet, MonomialOrder, Word

MODES = (SEMIGROUP, MONOID, "alg")
_NUMBER = re.compile(r"\d+(?:/\d+)?\Z")


class ParseError(ValueError):
    """Input rejected, with the offending line number (None for text that
    does not come from a file, such as a command-line argument)."""

    def __init__(self, line: int | None, message: str):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class PresentationFile:
    """Parsed form of one presentation file.

    ``mode`` is alg, or sgp or mon as its rule set's; ``alphabet`` is
    the order's; ``field`` is the file's coefficient field, QQ when it names
    none; ``rules`` holds the Rules the parser checked, in source order;
    ``polys_raw`` keeps the source coefficients exactly (as Fractions, in
    source order) so a basis can be built over any requested field.
    """

    mode: str
    order: MonomialOrder
    field: object = QQ
    rules: tuple = ()
    polys_raw: tuple = ()
    alphabet = property(lambda self: self.order.alphabet)

    def system(self) -> RewriteSystem:
        if self.mode == "alg":
            raise ValueError("an alg presentation has no rewrite rules")
        return RewriteSystem(self.order, self.rules, self.mode)

    def basis(self, field=None) -> Basis:
        """Basis over the requested field; members are normalized monic.
        A member that vanishes over that field, or has a coefficient whose
        denominator does, is rejected by number."""
        if self.mode != "alg":
            raise ValueError("only an alg presentation carries polynomials")
        field = field if field is not None else self.field
        polys = []
        for n, terms in enumerate(self.polys_raw, 1):
            # parsing rejects these over the file's own field; they fail
            # only over the field asked for
            try:
                poly = NcPolynomial(field, terms)
                problem = f" is zero over {field.name}" if poly.is_zero() else None
            except ZeroDivisionError as exc:
                problem = f": {exc}"
            if problem:
                source = render_poly(NcPolynomial(QQ, terms), self.order)
                raise ValueError(f"polynomial {n} ({source}){problem}")
            poly = make_monic(poly, self.order)
            if poly not in polys:
                polys.append(poly)
        return Basis(self.order, field, tuple(polys))


def _strip_comment(raw: str) -> str:
    cut = raw.find("#")
    return raw if cut < 0 else raw[:cut]


def _precedence(line: int, text: str, alphabet: Alphabet, where: str) -> tuple:
    """The names of a precedence chain ``a < b < c``, which must list every
    generator once; where names its line, "order" or "precedence"."""
    names = [part.strip() for part in text.split("<")]
    if any(not n for n in names):
        raise ParseError(line, "malformed precedence chain: expected names separated by '<'")
    for name in names:
        if " " in name or "\t" in name:
            raise ParseError(line, f"malformed precedence chain near {name!r}: missing '<'?")
    for name in names:
        if name not in alphabet:
            raise ParseError(line, f"unknown generator in {where}: {name!r}")
    if sorted(names) != sorted(alphabet.symbols):
        raise ParseError(line, f"{where} must list every generator exactly once")
    return tuple(names)


def _parse_word(line: int, alphabet: Alphabet, text: str) -> Word:
    try:
        return alphabet.parse_word(text)
    except ValueError as exc:
        raise ParseError(line, str(exc)) from None


def parse_poly_terms(line: int | None, alphabet: Alphabet, text: str) -> tuple:
    """Signed term list as ((Word, Fraction), ...), in source order."""
    padded = text.replace("*", " * ").replace("+", " + ").replace("-", " - ")
    tokens = padded.split()
    if not tokens:
        raise ParseError(line, "empty polynomial")
    terms = []
    sign = 1
    pending: list = []
    first = True

    def flush():
        if not pending:
            raise ParseError(line, "malformed polynomial: empty term")
        # a * only joins a coefficient to a monomial, as in 2*a
        if pending.count("*") > (len(pending) == 3 and pending[1] == "*"):
            raise ParseError(line, f"malformed term near {' '.join(pending)!r}")
        factors = [token for token in pending if token != "*"]
        if _NUMBER.fullmatch(factors[0]):
            try:
                coeff = Fraction(factors[0])
            except ZeroDivisionError:
                raise ParseError(line, f"coefficient {factors[0]} has a zero denominator") from None
            rest = factors[1:]
        else:
            coeff = Fraction(1)
            rest = factors
        if len(rest) > 1:
            raise ParseError(line, f"malformed term near {' '.join(factors)!r}")
        word = _parse_word(line, alphabet, rest[0]) if rest else Word(alphabet)
        terms.append((word, sign * coeff))

    for token in tokens:
        if token in ("+", "-"):
            if not first:
                flush()
                pending.clear()
            first = False
            sign = 1 if token == "+" else -1
            continue
        pending.append(token)
        first = False
    flush()
    return tuple(terms)


def parse_presentation(text: str) -> PresentationFile:
    """Parse one presentation; whitespace-insensitive within lines."""
    directives = {}
    items = []
    section = None
    total = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        total = lineno
        line = _strip_comment(raw)
        if not line.strip():
            continue
        if line[0] in " \t":
            if section is None:
                raise ParseError(lineno, "indented line outside a rules/polys section")
            items.append((lineno, section, line.strip()))
            continue
        key, colon, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if not colon:
            raise ParseError(lineno, "expected 'key: value'")
        if key in ("rules", "polys"):
            if value:
                raise ParseError(lineno, f"'{key}:' takes no value on its line")
            if section is not None:
                raise ParseError(lineno, "only one rules/polys section allowed")
            section = key
            continue
        if key not in ("mode", "field", "alphabet", "order", "precedence"):
            raise ParseError(lineno, f"unknown directive: {key!r}")
        if key in directives:
            raise ParseError(lineno, f"duplicate directive: {key!r}")
        if section is not None:
            raise ParseError(lineno, f"directive {key!r} after the {section} section")
        directives[key] = (lineno, value)

    def require(key):
        if key not in directives:
            raise ParseError(total, f"missing required directive: {key!r}")
        return directives[key]

    lineno, mode = require("mode")
    if mode not in MODES:
        raise ParseError(lineno, f"mode must be one of {'/'.join(MODES)}: {mode!r}")

    field = QQ
    if "field" in directives:
        lineno, value = directives["field"]
        try:
            field = field_from_name(value)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None

    lineno, value = require("alphabet")
    try:  # the alphabet's own name rule, at the alphabet line
        alphabet = Alphabet(value.split())
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None

    lineno, value = require("order")
    kind, _, body = value.partition(" ")
    body = body.strip()
    weights = None
    if kind == "shortlex":
        precedence = _precedence(lineno, body, alphabet, "order")
        if "precedence" in directives:
            raise ParseError(directives["precedence"][0], "precedence line needs a wtlex order")
    elif kind == "wtlex":
        weights = {}
        for part in body.split():
            name, eq, weight = part.partition("=")
            if not eq or not weight.isdigit() or int(weight) <= 0:
                raise ParseError(lineno, f"malformed weight (expected name=positive): {part!r}")
            if name not in alphabet:
                raise ParseError(lineno, f"unknown generator in order: {name!r}")
            if name in weights:
                raise ParseError(lineno, f"duplicate weight for {name!r}")
            weights[name] = int(weight)
        if sorted(weights) != sorted(alphabet.symbols):
            raise ParseError(lineno, "order must weight every generator exactly once")
        if "precedence" not in directives:
            raise ParseError(lineno, "wtlex order needs a precedence line")
        precedence = _precedence(*directives["precedence"], alphabet, "precedence")
    else:
        raise ParseError(lineno, f"unknown order kind: {kind!r}")
    order = MonomialOrder(alphabet, precedence, weights)

    system = RewriteSystem(order, (), SEMIGROUP if mode == "alg" else mode)  # alg adds no rules
    polys_raw = []
    for lineno, where, body in items:
        if where == "rules":
            if mode == "alg":
                raise ParseError(lineno, "rules section requires sgp or mon mode")
            lhs_text, arrow, rhs_text = body.partition("->")
            if not arrow:
                raise ParseError(lineno, f"malformed rule (expected 'lhs -> rhs'): {body!r}")
            lhs = _parse_word(lineno, alphabet, lhs_text.strip())
            rhs = _parse_word(lineno, alphabet, rhs_text.strip())
            try:  # the rule system's own checks, duplicates included, at the rule's line
                system = system.with_rules([Rule(lhs, rhs)])
            except ValueError as exc:
                raise ParseError(lineno, str(exc)) from None
        else:
            if mode != "alg":
                raise ParseError(lineno, "polys section requires alg mode")
            terms = parse_poly_terms(lineno, alphabet, body)
            try:
                if NcPolynomial(field, terms).is_zero():
                    raise ParseError(lineno, "polynomial is zero")
            except ZeroDivisionError as exc:
                raise ParseError(lineno, str(exc)) from None
            polys_raw.append(terms)

    return PresentationFile(mode, order, field, system.rules, tuple(polys_raw))
