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
    MonomialOrder,
    NcPolynomial,
    RewriteSystem,
    Rule,
    SEMIGROUP,
    Word,
    make_monic,
    render_poly,
)
from kbgb import completion, correspondence, ncpoly, rewriting, words
from kbgb.cli import main as cli_main
from kbgb.words import RedexIndex

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


def random_wtlex_system(rng):
    """Monoid system of up to five rules with sides of up to four letters,
    oriented under a wtlex order of weights 1 to 3, not all one, and a
    shuffled precedence."""
    letters = rng.choice(["ab", "abc"])
    alpha = make_alphabet(letters)
    weights = [1, rng.randint(2, 3), *(rng.randint(1, 3) for _ in letters[2:])]
    rng.shuffle(weights)
    precedence = list(letters)
    rng.shuffle(precedence)
    order = MonomialOrder(alpha, precedence, dict(zip(letters, weights)))
    rules = random_oriented_rules(rng, alpha, order, 5, 4, allow_empty_rhs=True)
    return RewriteSystem(order, rules, MONOID)


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


# the names match_kind gives, in the order of its table and of a row of overlaps
MATCH_KINDS = ("Containment12", "Containment21", "SuffixPrefix", "PrefixSuffix")


def witness_lengths(match):
    """The lengths of a match's witnesses u1, v1, u2, v2."""
    return tuple(map(len, match))


def pair_matches(l1, l2, include_identity=False):
    """The matches of pair (0, 1) of the left sides [l1, l2], in walk
    order. The identity containment of two equal sides, every witness
    empty, is left out unless asked for."""
    return [m for i, j, m in RedexIndex([l1.letters, l2.letters]).overlaps()
            if (i, j) == (0, 1) and (include_identity or any(witness_lengths(m)))]


def twins(records):
    """(record, twin) for every pair record of one pass: the twin is the
    record of pair (second, first) at the same meeting, its match the
    record's with the witnesses of the two sides swapped: the twin of
    (u1, v1, u2, v2) is (u2, v2, u1, v1). The identity containment, every
    witness empty, is its own twin."""
    by_key = {(rec.first, rec.second, rec.match): rec for rec in records}
    for rec in records:
        u1, v1, u2, v2 = rec.match
        yield rec, by_key[(rec.second, rec.first, (u2, v2, u1, v1))]


def first_redex(index, letters):
    """(pos, index, end) of the leftmost pattern occurrence in letters, at
    the lowest index among the patterns occurring there, by RedexIndex.walk
    with no swap and a limit of one word: letters[pos:end] is pattern number
    index. None if nothing occurs."""
    found = index.walk(letters, [None] * len(index._patterns), {}, [], 1)
    return None if type(found) is str else found


def record_searches(monkeypatch):
    """Every word searched from now on, each as a 1-tuple of its letters, as
    a list that fills as the searches go: the words each RedexIndex.walk
    appends to its path, once it returns. No search runs outside a walk."""
    searched, real = [], RedexIndex.walk

    def walk(index, letters, swaps, known, path, limit):
        before = len(path)
        try:
            return real(index, letters, swaps, known, path, limit)
        finally:
            searched.extend((word,) for word in path[before:])

    monkeypatch.setattr(RedexIndex, "walk", walk)
    return searched


def record_search_calls(monkeypatch, cut=False):
    """The match (None where there is none) of every search of its
    expression that an index built from now on runs, as a list that fills as
    the searches go; with cut, only the starts of the matches on a path cut
    after _DEPTH letters, each of which the walk reads the trie from."""
    found, real_init = [], RedexIndex.__init__

    def init(index, *args):
        real_init(index, *args)
        search = index._search

        def counted(*args):
            match = search(*args)
            if not cut:
                found.append(match)
            elif match is not None and index._lowest[match.group()] is None:
                found.append(match.start())
            return match

        index._search = counted

    monkeypatch.setattr(RedexIndex, "__init__", init)
    return found


def record_starts(monkeypatch):
    """The start of every trie walk that RedexIndex.walk runs from now on,
    one per search that matches a path cut after _DEPTH letters."""
    return record_search_calls(monkeypatch, cut=True)


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


def record_kept(monkeypatch):
    """What each engine's pair loop, completion.pair_records, does from now
    on: (the (first, second, match) of every record a pass re-emits as it
    was carried, the number of pairs it hands examine), by engine, a list
    and a count under "rewriting" and "ncpoly" that grow as the passes go."""
    kept, examined = {}, {}
    for module in (rewriting, ncpoly):
        engine = module.__name__.rpartition(".")[2]
        kept[engine], examined[engine] = [], 0

        def records(state, carry, examine, real=module.pair_records, engine=engine):
            def counted(*args):
                examined[engine] += 1
                return examine(*args)

            result = real(state, carry, counted)
            carried = {id(rec) for rec in carry[1]} if carry else set()
            kept[engine] += [(rec.first, rec.second, rec.match) for rec in result if id(rec) in carried]
            return result

        monkeypatch.setattr(module, "pair_records", records)
    return kept, examined


def record_renders(monkeypatch):
    """How many records pair_line and record_line render from now on, by
    engine: counts under "rewriting" and "ncpoly" that grow as lines are
    written."""
    rendered = {"rewriting": 0, "ncpoly": 0}
    for engine, module, name in (("rewriting", rewriting, "pair_line"), ("ncpoly", ncpoly, "record_line")):
        def line(*args, real=getattr(module, name), engine=engine, **kwargs):
            rendered[engine] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, line)
        monkeypatch.setattr(correspondence, name, line)
    return rendered


def record_inserted(monkeypatch):
    """How many letters of patterns each engine's next_state inserts into
    redex-index tries from now on: counts under "rewriting" and "ncpoly"."""
    inserted, engine = {"rewriting": 0, "ncpoly": 0}, []
    real_trie = words._trie

    def trie(patterns, *args):
        patterns = tuple(patterns)
        if engine:
            inserted[engine[-1]] += sum(map(len, patterns))
        return real_trie(patterns, *args)

    monkeypatch.setattr(words, "_trie", trie)
    for module in (rewriting, ncpoly):
        def next_state(*args, real=module.next_state, name=module.__name__.rpartition(".")[2]):
            engine.append(name)
            try:
                return real(*args)
            finally:
                engine.pop()

        monkeypatch.setattr(module, "next_state", next_state)
    return inserted


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
