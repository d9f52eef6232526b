"""Noncommutative polynomials over exact fields, and Buchberger completion.

Monomials are free-monoid words; a polynomial is a finite scalar
combination with no stored zeros. Coefficients are plain Python values
(over the rationals an int when integral and a fractions.Fraction
otherwise, canonical residues over a prime field) interpreted through a
small field object carried by every polynomial.

The reduction policy mirrors the string engine exactly: reduce the
greatest reducible monomial, inside it the leftmost occurrence, and at a
tied position the lowest basis index. Each basis builds one
words.RedexIndex over its leading monomials and finds every redex through
it, under that same policy. On bases of two-term polynomials the
whole machine therefore behaves as string rewriting term by term.
_reduce is the one reduction loop, recording steps for reduce_with_steps
only: it pops monomials greatest first from a heap and searches each once.
Every sum of terms, in arithmetic, reduction and S-polynomials alike, goes
through _add_term. A completion pass reuses the previous pass's matches
and raw S-polynomials but reduces every S-polynomial, each distinct
monomial once (reduction is linear; see s_polynomials).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import NamedTuple

from .completion import (
    DEFAULT_STEP_BUDGET,
    CompletionLimits,
    PairRecord,
    PassRecord,
    ReductionBudgetExceeded,
    complete,
    next_state,
    pair_sources,
)
from .words import (
    Alphabet,
    AlphabetMismatch,
    MonomialOrder,
    RedexIndex,
    Word,
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

    def magnitude_str(self, a) -> str:
        return str(-a if a < 0 else a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")

    def __repr__(self):
        return "RationalField()"


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

    def magnitude_str(self, a) -> str:
        return str(self.p - a if self.is_negative(a) else a)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


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

    __slots__ = ("field", "terms", "_hash")

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
        self._hash = None

    @classmethod
    def _raw(cls, field, data):
        # internal fast path: data already canonical (nonzero coerced
        # scalars, one alphabet)
        poly = object.__new__(cls)
        poly.field = field
        poly.terms = data
        poly._hash = None
        return poly

    @classmethod
    def zero(cls, field) -> "NcPolynomial":
        return cls(field, ())

    @classmethod
    def monomial(cls, field, word: Word, coeff=1) -> "NcPolynomial":
        return cls(field, [(word, coeff)])

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, NcPolynomial)
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, frozenset(self.terms.items())))
        return self._hash

    def _check(self, other):
        if not isinstance(other, NcPolynomial):
            raise TypeError(f"expected a polynomial, got {other!r}")
        if other.field != self.field:
            raise ValueError("polynomials over different scalar fields")

    def __add__(self, other):
        self._check(other)
        f = self.field
        data = dict(self.terms)
        for word, coeff in other.terms.items():
            _add_term(f, data, word, coeff)
        return NcPolynomial._raw(f, data)

    def __neg__(self):
        f = self.field
        return NcPolynomial._raw(f, {w: f.neg(c) for w, c in self.terms.items()})

    def __sub__(self, other):
        self._check(other)
        f = self.field
        data = dict(self.terms)
        for word, coeff in other.terms.items():
            _add_term(f, data, word, f.neg(coeff))
        return NcPolynomial._raw(f, data)

    def __mul__(self, other):
        self._check(other)
        f = self.field
        data = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_term(f, data, w1 * w2, f.mul(c1, c2))
        return NcPolynomial._raw(f, data)

    def scaled(self, coeff) -> "NcPolynomial":
        f = self.field
        c = f.coerce(coeff)
        if c == f.zero:
            return NcPolynomial.zero(f)
        return NcPolynomial._raw(f, {w: f.mul(k, c) for w, k in self.terms.items()})

    def sandwich(self, left: Word, right: Word) -> "NcPolynomial":
        """left . p . right; the cofactors are words."""
        if self.is_zero():
            return self
        alphabet = left.alphabet
        if right.alphabet != alphabet or next(iter(self.terms)).alphabet != alphabet:
            raise AlphabetMismatch("sandwich cofactors over a different alphabet")
        lo, hi = left.letters, right.letters
        return NcPolynomial._raw(
            self.field,
            {Word._raw(alphabet, lo + w.letters + hi): c for w, c in self.terms.items()},
        )

    def sorted_terms(self, order: MonomialOrder) -> list:
        return [(w, self.terms[w]) for w in sorted(self.terms, key=order.key, reverse=True)]

    def __repr__(self):
        if self.is_zero():
            return "NcPolynomial(0)"
        body = " + ".join(
            f"{c}*{w.display()}"
            for w, c in sorted(self.terms.items(), key=lambda t: (len(t[0]), t[0].letters))
        )
        return f"NcPolynomial({body})"


def leading_monomial(poly: NcPolynomial, order: MonomialOrder):
    """The order-maximal monomial and its coefficient; rejects zero."""
    if poly.is_zero():
        raise ValueError("the zero polynomial has no leading monomial")
    for word in poly.terms:
        if word.alphabet != order.alphabet:
            raise AlphabetMismatch("polynomial over a different alphabet than the order")
        break
    word = max(poly.terms, key=order.key)
    return word, poly.terms[word]


def make_monic(poly: NcPolynomial, order: MonomialOrder) -> NcPolynomial:
    """Scale so the leading coefficient is one; for two-term polynomials
    with unit coefficients this is exactly a sign flip when needed."""
    _, coeff = leading_monomial(poly, order)
    if coeff == poly.field.one:
        return poly
    return poly.scaled(poly.field.inv(coeff))


@dataclass(frozen=True)
class Basis:
    """Ordered list of monic nonzero polynomials over one alphabet/order.

    Members must have a nonempty leading monomial; a basis containing a
    unit generates the whole algebra and is rejected.
    """

    alphabet: Alphabet
    order: MonomialOrder
    field: object
    polys: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "polys", tuple(self.polys))
        if self.order.alphabet != self.alphabet:
            raise AlphabetMismatch("order and basis alphabets differ")
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
                raise ValueError(f"basis member is not monic: {poly!r}")
            if len(lm) == 0:
                raise ValueError("basis member with empty leading monomial (a unit)")
            if poly in seen:
                raise ValueError(f"duplicate basis member: {poly!r}")
            seen.add(poly)
            lms.append(lm)
            neg_tails.append(tuple((w.letters, self.field.neg(c))
                                   for w, c in poly.terms.items() if w != lm))
        object.__setattr__(self, "_index", RedexIndex(lm.letters for lm in lms))
        # per member, (letters, -c) for every term c.w but the leading one
        object.__setattr__(self, "_neg_tails", tuple(neg_tails))

    def with_polys(self, extra) -> "Basis":
        return Basis(self.alphabet, self.order, self.field, self.polys + tuple(extra))


class ReductionStep(NamedTuple):
    """One replacement p -> p - coeff . left . f[index] . right."""

    coeff: object
    left: Word
    index: int
    right: Word


class _Greatest:
    """Heap entry for one monomial. heapq pops its least entry, and a
    greater monomial ranks lower here, so the heap pops the greatest."""

    __slots__ = ("key", "word")

    def __init__(self, key, word):
        self.key = key
        self.word = word

    def __lt__(self, other):
        return other.key < self.key


def reduce_with_steps(basis: Basis, poly: NcPolynomial, max_steps: int = DEFAULT_STEP_BUDGET):
    """Normal form plus the replay record of every replacement made.

    The one reduction loop, over one mutable term dict and a max-heap of its
    monomials under the order (Monagan and Pearce, CASC 2007). Each step
    pops monomials until one holds a redex, skipping any whose term has
    cancelled. A monomial with no redex is final, since a step only adds
    monomials below the one it reduces. The reducible term k.m, with m =
    left.lm(f).right, leaves the dict, and k.left.t.right is added for every
    negated tail term t of the member f (f is monic, so m cancels exactly).
    A monomial enters the heap once, when it first appears. Raises
    ReductionBudgetExceeded after max_steps steps without a further search.

    The recorded steps witness membership: p - nf(p) equals the sum of
    coeff . left . f . right over the steps (see replay_steps).
    """
    steps = []
    return _reduce(basis, poly, max_steps, steps), tuple(steps)


def _reduce(basis, poly, max_steps, steps):
    """The normal form; each step is appended to steps unless it is None."""
    field = basis.field
    find = basis._index.find
    key = basis.order.key
    data = dict(poly.terms)
    heap = [_Greatest(key(word), word) for word in data]
    heapify(heap)
    queued = set(data)
    for _ in range(max_steps):
        hit = None
        while hit is None and heap:
            word = heappop(heap).word
            if word in data:
                hit = find(word.letters)
        if hit is None:
            return NcPolynomial._raw(field, data)
        pos, index, end = hit
        coeff = data.pop(word)
        alphabet, letters = word.alphabet, word.letters
        lo, hi = letters[:pos], letters[end:]
        if steps is not None:
            steps.append(ReductionStep(coeff, Word._raw(alphabet, lo), index, Word._raw(alphabet, hi)))
        for tail, c in basis._neg_tails[index]:
            target = Word._raw(alphabet, lo + tail + hi)
            _add_term(field, data, target, field.mul(coeff, c))
            if target not in queued:
                queued.add(target)
                heappush(heap, _Greatest(key(target), target))
    raise ReductionBudgetExceeded(f"no fixed point within {max_steps} steps")


def poly_normal_form(basis: Basis, poly: NcPolynomial, max_steps: int = DEFAULT_STEP_BUDGET) -> NcPolynomial:
    """Reduce to a fixed point, the greatest reducible monomial first; no
    result monomial contains a leading monomial of the basis."""
    return _reduce(basis, poly, max_steps, None)


def replay_steps(basis: Basis, steps) -> NcPolynomial:
    """Sum of coeff . left . f . right over recorded steps; equals p - nf(p)."""
    total = NcPolynomial.zero(basis.field)
    for step in steps:
        total = total + basis.polys[step.index].sandwich(step.left, step.right).scaled(step.coeff)
    return total


def s_polynomials(basis: Basis) -> list:
    """A PairRecord for the S-polynomial of every match of every ordered
    pair, reduced against the basis, in the examination order of
    RedexIndex.overlaps.

    A match is one monomial u1.lm(f1).v1 = u2.lm(f2).v2, and the raw
    S-polynomial is u1.f1.v1 - u2.f2.v2: both members are monic, so the
    superposition cancels, leaving the difference of its two one-step
    reducts.

    The reduced S-polynomial is the sum of c . nf(m) over the raw terms
    c . m, and each distinct monomial m is reduced once per call. This is
    exact in any field because poly_normal_form is linear. A step replaces
    the greatest reducible monomial m of p by a combination r(m) of smaller
    monomials that depends on m alone, and m never reappears. By induction
    on the reducible monomials of p along the order, nf(p) = N(p) for the
    linear map N with N(m) = m when m is irreducible and N(m) = N(r(m))
    otherwise. Each monomial is reduced under its own step budget, not the
    S-polynomial as a whole. The memo lives only for this call.
    """
    field = basis.field
    nfs = {}
    records = []
    for i, j, m, raw in pair_sources(basis, basis._index):
        if raw is None:
            raw = basis.polys[i].sandwich(m.u1, m.v1) - basis.polys[j].sandwich(m.u2, m.v2)
        data = {}
        for word, coeff in raw.terms.items():
            nf = nfs.get(word)
            if nf is None:
                nf = nfs[word] = poly_normal_form(basis, NcPolynomial._raw(field, {word: field.one}))
            for target, c in nf.terms.items():
                _add_term(field, data, target, field.mul(coeff, c))
        reduced = NcPolynomial._raw(field, data)
        new = None if reduced.is_zero() else make_monic(reduced, basis.order)
        records.append(PairRecord(i, j, m, raw, reduced, new))
    return records


class ClosureViolation(RuntimeError):
    """An S-polynomial of two-term unit-coefficient members left that shape."""


def is_pm_binomial(poly: NcPolynomial, units) -> bool:
    """At most two terms, every coefficient in units, the set {1, -1} of
    the polynomial's field."""
    return len(poly.terms) <= 2 and all(c in units for c in poly.terms.values())


def buchberger_pass(basis: Basis, limits: CompletionLimits):
    """One completion pass: (next basis, S-polynomial records).

    Reductions use the input basis only; monic survivors land as a batch,
    deduplicated. On a basis of two-term unit-coefficient members, every
    raw and reduced S-polynomial must keep that shape (reduction only ever
    replaces one term with another); a violation is an engine bug.
    """
    records = s_polynomials(basis)
    units = {basis.field.one, basis.field.neg(basis.field.one)}
    if all(is_pm_binomial(p, units) for p in basis.polys):
        for rec in records:
            for poly in (rec.raw, rec.reduced):
                if not is_pm_binomial(poly, units):
                    raise ClosureViolation(f"two-term closure violated by {poly!r}")
    nxt = next_state(basis.polys, records, lambda poly: poly.terms, basis.with_polys, limits)
    return nxt, records


def buchberger(basis: Basis, limits: CompletionLimits = CompletionLimits()) -> PassRecord:
    """Iterate buchberger_pass to the fixed point or to a resource limit; the last pass."""
    return complete(basis, buchberger_pass, limits)


def monomials_equal_mod_ideal(basis: Basis, m1: Word, m2: Word) -> bool:
    """Decide m1 = m2 modulo the ideal; needs a Groebner basis."""
    diff = NcPolynomial.monomial(basis.field, m1) - NcPolynomial.monomial(basis.field, m2)
    return poly_normal_form(basis, diff).is_zero()


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
        magnitude = field.magnitude_str(coeff)
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
    """One trace record; mirrors the rewriting trace with poly fields."""
    disp = "ReducedToZero" if rec.new is None else f"Added:({render_poly(rec.new, order)})"
    return (
        f"pass={pass_index} polys=({rec.first},{rec.second}) kind={rec.match.kind.value} "
        f"raw=({render_poly(rec.raw, order)}) reduced=({render_poly(rec.reduced, order)}) disp={disp}"
    )
