"""Noncommutative polynomials over exact fields, and Buchberger completion.

Monomials are free-monoid words, each holding its letters as one str; a
polynomial is a finite scalar combination with no stored zeros. Coefficients are plain Python values
(over the rationals an int when integral and a fractions.Fraction
otherwise, canonical residues over a prime field) interpreted through a
small field object carried by every polynomial.

The reduction policy mirrors the string engine exactly: a monomial is
reduced at the leftmost occurrence of a leading monomial, and at a tied
position by the lowest basis index. Each basis builds one
words.RedexIndex over its leading monomials and finds every redex through
it, under that same policy. On bases of two-term polynomials the
whole machine therefore behaves as string rewriting term by term.
There is one reduction: monomial_forms memoizes the normal form N of
every monomial a reduction passes through, and a polynomial's is the sum
of c . N(m) over its terms c . m. That is the form that reducing the
greatest reducible monomial first reaches, since nf is linear.
Completion, iso-check and the queries all take it. Every sum of terms
goes through _add_term. Handed the last pass's input and records (its
carry), a pass reuses their matches and raw S-polynomials, and reduces
every S-polynomial. A pass holds each distinct monomial once: its raw
monomials come from one words.word_table, an irreducible raw monomial is
the term of its own form, and its resolved records share one zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import completion
from .completion import (
    CompletionLimits,
    PairRecord,
    PassRecord,
    ReductionBudgetExceeded,
    complete,
    next_state,
    pair_sources,
)
from .words import (
    AlphabetMismatch,
    MonomialOrder,
    RedexIndex,
    Word,
    word_table,
)


class RationalField:
    """Arbitrary-precision rationals: an integral value is held as an int,
    any other as a Fraction in lowest terms. An int and the equal Fraction
    agree in str, == and hash, so output does not depend on the choice."""

    name = "Q"
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, int):
            return int(value)
        if isinstance(value, (Fraction, str)):
            return _int_if_integral(Fraction(value))
        raise TypeError(f"cannot use {value!r} as a rational scalar")

    def add(self, a, b):
        return _int_if_integral(a + b)

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return _int_if_integral(a * b)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        # 1 / a would give a float for an int a
        return _int_if_integral(Fraction(1, a))

    def is_negative(self, a) -> bool:
        return a < 0

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


def _int_if_integral(q):
    """The int equal to q when q is an integral Fraction; q otherwise."""
    if type(q) is Fraction and q.denominator == 1:
        return q.numerator
    return q


QQ = RationalField()


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 2 <= n < 2**64; the prime bases up
    to 37 make it exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    return all(pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
               for b in bases)


class PrimeField:
    """Integers mod p for a prime p < 2**64, residues kept canonical in 0..p-1."""

    __slots__ = ("p", "name")

    zero = 0
    one = 1

    def __init__(self, p: int):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"modulus must be an integer >= 2: {p!r}")
        if p >= 2**64:
            raise ValueError(f"modulus must be below 2**64: {p}")
        if not _is_prime(p):
            raise ValueError(f"modulus is not prime: {p}")
        self.p = p
        self.name = f"F{p}"

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, -1, self.p) % self.p
        raise TypeError(f"cannot use {value!r} as a residue mod {self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_negative(self, a) -> bool:
        # treat residues above p/2 as negatives, so F3 prints like {-1,0,1}
        return 2 * a > self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


def field_from_name(name: str):
    """Resolve "Q" or "F<p>" to a field object."""
    if name == "Q":
        return QQ
    m = re.fullmatch(r"F(\d+)", name)
    if m:
        return PrimeField(int(m.group(1)))
    raise ValueError(f"unknown field: {name!r} (expected Q or F<p>)")


def _add_term(field, data, word, c):
    """Add the nonzero scalar c at word in the term dict data, dropping the
    term if it cancels; a new term is stored with no field addition."""
    old = data.get(word)
    if old is not None:
        c = field.add(old, c)
        if c == field.zero:
            del data[word]
            return
    data[word] = c


class NcPolynomial:
    """Finite map from monomials to nonzero scalars; immutable by contract."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=()):
        data = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for word, coeff in items:
            if not isinstance(word, Word):
                raise TypeError(f"monomial must be a Word: {word!r}")
            c = field.coerce(coeff)
            if c != field.zero:
                _add_term(field, data, word, c)
        alphabets = {w.alphabet for w in data}
        if len(alphabets) > 1:
            raise AlphabetMismatch("polynomial mixes alphabets")
        self.field = field
        self.terms = data

    @classmethod
    def _raw(cls, field, data):
        # internal fast path: data already canonical (nonzero coerced
        # scalars, one alphabet)
        poly = object.__new__(cls)
        poly.field = field
        poly.terms = data
        return poly

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, NcPolynomial)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def sorted_terms(self, order: MonomialOrder) -> list:
        return [(w, self.terms[w]) for w in sorted(self.terms, key=order.key, reverse=True)]

    def __repr__(self):
        if self.is_zero():
            return "NcPolynomial(0)"
        body = " + ".join(
            f"{c}*{w.dotted()}"
            for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0].letters))
        )
        return f"NcPolynomial({body})"


def leading_monomial(poly: NcPolynomial, order: MonomialOrder):
    """The order-maximal monomial and its coefficient; rejects zero."""
    if poly.is_zero():
        raise ValueError("the zero polynomial has no leading monomial")
    if next(iter(poly.terms)).alphabet != order.alphabet:
        raise AlphabetMismatch("polynomial over a different alphabet than the order")
    word = max(poly.terms, key=order.key)
    return word, poly.terms[word]


def make_monic(poly: NcPolynomial, order: MonomialOrder) -> NcPolynomial:
    """Scale so the leading coefficient is one; for two-term polynomials
    with unit coefficients this is exactly a sign flip when needed."""
    _, coeff = leading_monomial(poly, order)
    field = poly.field
    if coeff == field.one:
        return poly
    c = field.inv(coeff)
    return NcPolynomial._raw(field, {w: field.mul(k, c) for w, k in poly.terms.items()})


@dataclass(frozen=True)
class Basis:
    """Ordered list of monic nonzero polynomials over the alphabet of one order.

    Members must have a nonempty leading monomial; a basis containing a
    unit generates the whole algebra and is rejected.
    """

    order: MonomialOrder
    field: object
    polys: tuple = ()
    alphabet = property(lambda self: self.order.alphabet)

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        seen = set()
        lms = []
        neg_tails = []
        for poly in self.polys:
            if not isinstance(poly, NcPolynomial) or poly.is_zero():
                raise ValueError("basis members must be nonzero polynomials")
            if poly.field != self.field:
                raise ValueError("basis member over a different scalar field")
            for w in poly.terms:
                if w.alphabet != self.alphabet:
                    raise AlphabetMismatch("basis member over a different alphabet")
            lm, coeff = leading_monomial(poly, self.order)
            if coeff != self.field.one:
                raise ValueError(f"basis member is not monic: {render_poly(poly, self.order)}")
            if len(lm) == 0:
                raise ValueError("basis member with empty leading monomial (a unit)")
            if poly in seen:
                raise ValueError(f"duplicate basis member: {render_poly(poly, self.order)}")
            seen.add(poly)
            lms.append(lm)
            neg_tails.append(tuple((w.letters, self.field.neg(c))
                                   for w, c in poly.terms.items() if w != lm))
        object.__setattr__(self, "_index", RedexIndex(lm.letters for lm in lms))
        # per member, (letters, -c) for every term c.w but the leading one
        object.__setattr__(self, "_neg_tails", tuple(neg_tails))

    def with_polys(self, extra) -> "Basis":
        return Basis(self.order, self.field, self.polys + tuple(extra))


def poly_normal_form(basis: Basis, poly: NcPolynomial) -> NcPolynomial:
    """The normal form, the sum of c . N(m) over the terms c . m for one
    monomial_forms memo N of the call; no result monomial contains a
    leading monomial of the basis. The step budget bounds each term's call
    of N, not the whole polynomial. A polynomial over another field or
    alphabet than the basis is rejected; a polynomial holds one alphabet."""
    if poly.field != basis.field:
        raise ValueError("polynomial over a different scalar field than the basis")
    if poly.terms and next(iter(poly.terms)).alphabet != basis.alphabet:
        raise AlphabetMismatch("polynomial over a different alphabet than the basis")
    return _sum_forms(monomial_forms(basis), poly.field, poly.terms.items())


def monomial_forms(basis: Basis):
    """N(m), the normal form of a monomial m over the basis's alphabet (not
    checked), memoized on every monomial a reduction passes through.

    A step replaces m = lo.lm(f).hi, at the redex RedexIndex.find picks, by
    the sum of c . lo.t.hi over the tail terms -c . t of the member f. It
    depends on m alone and every lo.t.hi is below m, so nf is linear and
    N(m) is the sum of c . N(lo.t.hi). Under a member of one tail with
    coefficient one (a lockstep binomial) that is one monomial: a miss walks
    these steps to an irreducible or known monomial, and every monomial of
    the walk gets its form. Under any other member the walk waits on an
    explicit stack, with the targets lo.t.hi above it, until each target has
    a form; its form is then their sum. The stack and not the closure
    itself holds the pending work, so the memo forms no reference cycle.
    The form of an irreducible monomial given is one term at that Word.

    A call raises ReductionBudgetExceeded when it would search more than
    completion.STEP_BUDGET monomials not yet in the memo, as it was when
    the memo was made, the irreducible one that ends each walk included: a
    k-step walk needs k + 1, and a first call as many as the distinct
    monomials reachable from m. Whether a call raises thus depends on the
    calls before it."""
    field, alphabet, one = basis.field, basis.alphabet, basis.field.one
    budget = completion.STEP_BUDGET
    find, neg_tails = basis._index.find, basis._neg_tails
    forms = {}  # letters -> normal form

    def form(word):
        todo, searched = [(word.letters, None)], 0
        while todo:
            head, targets = todo.pop()
            if targets is None:  # a monomial to walk from
                letters, walk, found = head, [], forms.get(head)
            else:  # a waiting walk whose targets all have forms now
                walk, found = head, _sum_forms(forms.__getitem__, field, targets)
            while found is None:
                if searched == budget:
                    raise ReductionBudgetExceeded(f"no fixed point within {budget} steps")
                searched += 1
                walk.append(letters)
                hit = find(letters)
                if hit is None:
                    irreducible = word if letters is word.letters else Word._raw(alphabet, letters)
                    found = NcPolynomial._raw(field, {irreducible: one})
                    break
                pos, index, end = hit
                tails, lo, hi = neg_tails[index], letters[:pos], letters[end:]
                if len(tails) != 1 or tails[0][1] != one:
                    targets = [(lo + tail + hi, c) for tail, c in tails]
                    todo.append((walk, targets))
                    todo.extend((target, None) for target, _ in targets)
                    break
                letters = lo + tails[0][0] + hi
                found = forms.get(letters)
            if found is not None:
                for letters in walk:
                    forms[letters] = found
        return found

    return form


def _sum_forms(form, field, terms):
    """The sum of c . form(m) over the pairs (m, c) of terms."""
    data = {}
    for word, coeff in terms:
        for target, c in form(word).terms.items():
            _add_term(field, data, target, field.mul(coeff, c))
    return NcPolynomial._raw(field, data)


def s_polynomials(basis: Basis, carry=None) -> list:
    """A PairRecord for the S-polynomial of every match of every ordered pair,
    reduced against the basis, in the examination order of RedexIndex.overlaps.
    A carry, the last pass's (input basis, records), lends raw S-polynomials.

    A match is one monomial u1.lm(f1).v1 = u2.lm(f2).v2, its witnesses
    letter strings, and the raw S-polynomial is u1.f1.v1 - u2.f2.v2: both
    members are monic, so that monomial cancels, and the raw S-polynomial
    is the sum of -c . u1.t.v1 over the tail terms -c . t of f1 and of
    c . u2.t.v2 over those of f2. The monomial that cancels is never built.

    The reduced S-polynomial is the sum of c . N(m) over the raw terms
    c . m, for one monomial_forms memo N of the call, each under its budget.
    Equal raw monomials of the call are one Word (word_table), and its
    resolved records hold one zero polynomial.
    """
    field, neg_tails = basis.field, basis._neg_tails
    reduce, word = monomial_forms(basis), word_table(basis.alphabet)
    zero = NcPolynomial._raw(field, {})
    records = []
    since, carried = (len(carry[0].polys), carry[1]) if carry else (0, ())
    for i, j, m, raw in pair_sources(basis._index, since, carried):
        if raw is None:
            data = {}
            for tail, c in neg_tails[i]:
                _add_term(field, data, word(m.u1 + tail + m.v1), field.neg(c))
            for tail, c in neg_tails[j]:
                _add_term(field, data, word(m.u2 + tail + m.v2), c)
            raw = NcPolynomial._raw(field, data)
        reduced = _sum_forms(reduce, field, raw.terms.items())
        new = None if reduced.is_zero() else make_monic(reduced, basis.order)
        records.append(PairRecord(i, j, m, raw, zero if new is None else reduced, new))
    return records


class ClosureViolation(RuntimeError):
    """An S-polynomial of two-term unit-coefficient members left that shape."""


def is_pm_binomial(poly: NcPolynomial, units) -> bool:
    """At most two terms, every coefficient in units, the set {1, -1} of
    the polynomial's field."""
    return len(poly.terms) <= 2 and all(c in units for c in poly.terms.values())


def buchberger_pass(basis: Basis, limits: CompletionLimits, carry=None):
    """One pass, carry as for s_polynomials: (next basis, records examined).

    Reductions use the input basis only; monic survivors land as a batch,
    deduplicated. On a basis of two-term unit-coefficient members, every
    raw and reduced S-polynomial must keep that shape (reduction only ever
    replaces one term with another); a violation is an engine bug.
    """
    records = s_polynomials(basis, carry)
    units = {basis.field.one, basis.field.neg(basis.field.one)}
    if all(is_pm_binomial(p, units) for p in basis.polys):
        for rec in records:
            for poly in (rec.raw, rec.reduced):
                if not is_pm_binomial(poly, units):
                    raise ClosureViolation(
                        f"two-term closure violated by {render_poly(poly, basis.order)}")
    nxt = next_state(basis.polys, records, lambda poly: poly.terms, basis.with_polys, limits)
    return nxt, records


def buchberger(basis: Basis, limits: CompletionLimits = CompletionLimits()) -> PassRecord:
    """Iterate buchberger_pass to the fixed point or to a resource limit; the last pass."""
    return complete(basis, buchberger_pass, limits)


def monomials_equal_mod_ideal(basis: Basis, m1: Word, m2: Word) -> bool:
    """Decide m1 = m2 modulo the ideal, N(m1) == N(m2) for one
    monomial_forms memo N (nf is linear); needs a Groebner basis."""
    if m1.alphabet != basis.alphabet or m2.alphabet != basis.alphabet:
        raise AlphabetMismatch("monomial over a different alphabet than the basis")
    form = monomial_forms(basis)
    return form(m1) == form(m2)


def render_poly(poly: NcPolynomial, order: MonomialOrder) -> str:
    """Deterministic text form, terms in decreasing monomial order.

    Unit coefficients are omitted, negatives fold into the separator, the
    empty monomial prints as a bare scalar, e.g. ``b.a - a.b``.
    """
    if poly.is_zero():
        return "0"
    field = poly.field
    parts = []
    for word, coeff in poly.sorted_terms(order):
        negative = field.is_negative(coeff)
        magnitude = str(field.neg(coeff) if negative else coeff)
        if len(word) == 0:
            body = magnitude
        elif magnitude == "1":
            body = word.dotted()
        else:
            body = f"{magnitude}*{word.dotted()}"
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


def record_line(pass_index: int, rec: PairRecord, order: MonomialOrder) -> str:
    """One trace record; mirrors the rewriting trace with poly fields. A
    reduced S-polynomial that is already monic is rendered once."""
    reduced = render_poly(rec.reduced, order)
    disp = "ReducedToZero" if rec.new is None else (
        f"Added:({reduced if rec.new is rec.reduced else render_poly(rec.new, order)})")
    return (
        f"pass={pass_index} polys=({rec.first},{rec.second}) kind={rec.match.kind.value} "
        f"raw=({render_poly(rec.raw, order)}) reduced=({reduced}) disp={disp}"
    )
