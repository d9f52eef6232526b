"""Construction shortcuts shared across the test modules."""

import contextlib
import io
import os
from fractions import Fraction
from pathlib import Path
from unittest import mock

from kbgb import (
    MONOID,
    QQ,
    Alphabet,
    Basis,
    MatchKind,
    MonomialOrder,
    NcPolynomial,
    RewriteSystem,
    Rule,
    SEMIGROUP,
    Word,
    make_monic,
    render_poly,
)
from kbgb import completion
from kbgb.cli import main as cli_main
from kbgb.words import OverlapMatch, RedexIndex

from oracles import interreduce, letter_key, reference_completion

ROOT = Path(__file__).resolve().parent.parent


def render_presentation(pf):
    """Canonical text for a parsed presentation; reparses to an equal value.

    Polynomial terms keep their source order and coefficients.
    """
    lines = [f"mode: {pf.mode}"]
    if pf.field != QQ:
        lines.append(f"field: {pf.field.name}")
    lines.append("alphabet: " + " ".join(pf.alphabet.symbols))
    if set(pf.order.weights) == {1}:  # shortlex is wtlex with unit weights
        lines.append("order: shortlex " + " < ".join(pf.order.precedence))
    else:
        weights = " ".join(
            f"{name}={pf.order.weights[pf.alphabet.index(name)]}"
            for name in pf.alphabet.symbols
        )
        lines.append(f"order: wtlex {weights}")
        lines.append("precedence: " + " < ".join(pf.order.precedence))
    if pf.mode == "alg":
        lines.append("polys:")
        for terms in pf.polys_raw:
            # one term at a time through render_poly, joined in source order
            text = ""
            for word, coeff in terms:
                term = render_poly(NcPolynomial._raw(QQ, {word: coeff}), pf.order)
                if text:
                    term = f" - {term[1:]}" if term.startswith("-") else f" + {term}"
                text += term
            lines.append(f"  {text}")
    else:
        lines.append("rules:")
        for rule in pf.rules:
            lines.append(f"  {rule.lhs.dotted()} -> {rule.rhs.dotted()}")
    return "\n".join(lines) + "\n"


def make_alphabet(letters="ab"):
    return Alphabet(tuple(letters))


def make_system(rule_texts, letters="ab", mode=SEMIGROUP, precedence=None):
    """Build a shortlex system from "lhs->rhs" strings over single-char letters."""
    alpha = make_alphabet(letters)
    order = MonomialOrder(alpha, precedence)
    rules = []
    for text in rule_texts:
        lhs_text, _, rhs_text = text.partition("->")
        rules.append(Rule(alpha.parse_word(lhs_text.strip() or "1"),
                          alpha.parse_word(rhs_text.strip() or "1")))
    return RewriteSystem(order, tuple(rules), mode)


def random_oriented_rules(rng, alpha, order, max_rules=4, max_side=4, allow_empty_rhs=False):
    """Random distinct oriented rules; sides drawn uniformly by length."""
    count = rng.randint(1, max_rules)
    rules = []
    seen = set()
    attempts = 0
    while len(rules) < count and attempts < 200:
        attempts += 1
        size = len(alpha)
        lhs = tuple(rng.randrange(size) for _ in range(rng.randint(1, max_side)))
        low = 0 if allow_empty_rhs else 1
        rhs = tuple(rng.randrange(size) for _ in range(rng.randint(low, max_side)))
        from kbgb import Word

        w1, w2 = Word(alpha, lhs), Word(alpha, rhs)
        cmp = order.compare(w1, w2)
        if cmp == 0:
            continue
        if cmp < 0:
            w1, w2 = w2, w1
        if len(w1) == 0:
            continue
        rule = Rule(w1, w2)
        if rule in seen:
            continue
        seen.add(rule)
        rules.append(rule)
    return tuple(rules)


def random_system(rng, letters=None, mode=SEMIGROUP, max_rules=4, max_side=4):
    letters = letters or rng.choice(["ab", "ab", "abc"])
    alpha = make_alphabet(letters)
    order = MonomialOrder(alpha)
    rules = random_oriented_rules(rng, alpha, order, max_rules, max_side,
                                  allow_empty_rhs=(mode != SEMIGROUP))
    return RewriteSystem(order, rules, mode)


def random_redex_system(rng):
    """Monoid system whose left sides nest and repeat, under a shuffled
    shortlex precedence (never the alphabet order on three letters).

    Rules are drawn in order: a free left side, a proper prefix of an
    earlier one (nested at a higher index), an extension of an earlier one
    (nested at a lower index), or a repeat of an earlier one with another
    right side. Right sides are shorter than left sides, so every rule is
    oriented under any precedence.
    """
    letters = rng.choice(["ab", "abc"])
    alpha = make_alphabet(letters)
    precedence = list(letters)
    rng.shuffle(precedence)
    if len(letters) == 3 and precedence == list(letters):
        precedence.reverse()
    order = MonomialOrder(alpha, precedence)

    def draw(lo, hi):
        return "".join(chr(rng.randrange(len(letters))) for _ in range(rng.randint(lo, hi)))

    rules = []
    target = rng.randint(3, 7)
    for _ in range(60):
        if len(rules) == target:
            break
        kind = rng.choice(["free", "prefix", "extend", "repeat"]) if rules else "free"
        base = rng.choice(rules).lhs.letters if rules else ""
        if kind == "prefix" and len(base) > 1:
            lhs = base[: rng.randint(1, len(base) - 1)]
        elif kind == "extend":
            lhs = base + draw(1, 2)
        elif kind == "repeat":
            lhs = base
        else:
            lhs = draw(2, 4)
        rule = Rule(Word(alpha, lhs), Word(alpha, draw(0, len(lhs) - 1)))
        if rule not in rules:
            rules.append(rule)
    return RewriteSystem(order, tuple(rules), MONOID)


def random_general_basis(rng, field=QQ):
    """Basis of three monic three-term members with rational coefficients
    (monomials of length up to 3, the empty one included) under a shuffled
    shortlex precedence. Over a prime field the coefficients are taken mod
    p, and a member with a coefficient that vanishes or cannot be taken mod p
    is drawn again; over QQ nothing is redrawn."""
    letters = rng.choice(["ab", "abc"])
    alpha = make_alphabet(letters)
    precedence = list(letters)
    rng.shuffle(precedence)
    order = MonomialOrder(alpha, precedence)
    polys = []
    while len(polys) < 3:
        words = set()
        while len(words) < 3:
            words.add(Word(alpha, [rng.randrange(len(letters)) for _ in range(rng.randint(0, 3))]))
        coeffs = [Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)) for _ in words]
        try:
            poly = NcPolynomial(field, zip(sorted(words, key=order.key), coeffs))
        except ZeroDivisionError:
            continue
        if len(poly.terms) < 3:
            continue
        poly = make_monic(poly, order)
        if poly not in polys:
            polys.append(poly)
    return Basis(order, field, tuple(polys))


def redex_features(system):
    """Which of the shapes random_redex_system aims for this system has."""
    lhss = [rule.lhs.letters for rule in system.rules]
    found = set()
    for i, first in enumerate(lhss):
        for second in lhss[i + 1:]:
            if first == second:
                found.add("duplicate")
            elif second[: len(first)] == first:
                found.add("prefix at lower index")
            elif first[: len(second)] == second:
                found.add("prefix at higher index")
    if system.order.precedence != system.alphabet.symbols:
        found.add("shuffled precedence")
    return found


REFERENCE_CAPS = (30, 200, 60)  # rounds, rules, word length


def reference_systems(initial, final):
    """(final's rules interreduced, reference_completion of initial's
    rules), as letter strings under the oracle key of initial's declared
    order. When final is complete for the congruence of initial, the two
    are the one reduced complete system and equal."""
    order = initial.order
    key = letter_key(initial.alphabet, order.precedence, order.weights)

    def letters(system):
        return [(rule.lhs.letters, rule.rhs.letters) for rule in system.rules]

    return interreduce(letters(final), key), reference_completion(letters(initial), key, REFERENCE_CAPS)


def pair_matches(l1, l2, include_identity=False):
    """The matches of pair (0, 1) of the left sides [l1, l2], in walk
    order. The identity containment of two equal sides, every witness
    empty, is left out unless asked for."""
    return [m for i, j, m in RedexIndex([l1.letters, l2.letters]).overlaps()
            if (i, j) == (0, 1) and (include_identity or any(m.witness_lengths()))]


_TWIN_KIND = {
    MatchKind.CONTAINMENT_12: MatchKind.CONTAINMENT_21,
    MatchKind.CONTAINMENT_21: MatchKind.CONTAINMENT_12,
    MatchKind.SUFFIX_PREFIX: MatchKind.PREFIX_SUFFIX,
    MatchKind.PREFIX_SUFFIX: MatchKind.SUFFIX_PREFIX,
}


def twins(records):
    """(record, twin) for every pair record of one pass: the twin is the
    record of pair (second, first) at the same meeting, its match the
    record's with the witnesses of the two sides swapped. The identity
    containment, every witness empty, is its own kind's twin."""
    by_key = {(rec.first, rec.second, rec.match): rec for rec in records}
    for rec in records:
        m = rec.match
        kind = _TWIN_KIND[m.kind] if any(m.witness_lengths()) else m.kind
        yield rec, by_key[(rec.second, rec.first, OverlapMatch(kind, m.u2, m.v2, m.u1, m.v1))]


def record_searches(monkeypatch):
    """The arguments of every RedexIndex.find call from now on, as a list
    that fills as the calls happen."""
    calls = []
    real = RedexIndex.find
    monkeypatch.setattr(RedexIndex, "find",
                        lambda index, *args: calls.append(args) or real(index, *args))
    return calls


def record_walk(monkeypatch):
    """Every (i, j, match) that RedexIndex.overlaps yields from now on, as a
    list that fills as the walks go."""
    walked = []
    real = RedexIndex.overlaps

    def overlaps(index, *args):
        for triple in real(index, *args):
            walked.append(triple)
            yield triple

    monkeypatch.setattr(RedexIndex, "overlaps", overlaps)
    return walked


def step_budget(steps):
    """A context in which completion.STEP_BUDGET is steps: every reduction
    memo made inside it has that budget."""
    return mock.patch.object(completion, "STEP_BUDGET", steps)


def run_cli(argv):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def child_env():
    """The environment for a child python: this tree's own src first on
    PYTHONPATH, which pytest's pythonpath setting does not reach."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env
