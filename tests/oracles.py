"""Brute-force reference implementations.

These stay deliberately naive and independent of the engine code paths:
expected values in the tests are computed here by enumeration, never by
the functions under test.
"""

import itertools
import math

from kbgb import MONOID, NcPolynomial, Word


def all_words(alpha, max_len, min_len=1):
    size = len(alpha)
    for n in range(min_len, max_len + 1):
        for letters in itertools.product(range(size), repeat=n):
            yield Word(alpha, letters)


def match_set(matches):
    """(kind name, u1, v1, u2, v2), the witnesses as letter strings, of each match."""
    return {(m.kind.value, m.u1, m.v1, m.u2, m.v2) for m in matches}


def _containments(l1, l2):
    """Solutions of l1 = u2.l2.v2 and u1.l1.v1 = l2, minus the coincidence."""
    out = set()
    a, b = l1.letters, l2.letters
    for i in range(len(a) - len(b) + 1):
        if a[i : i + len(b)] == b:
            u2, v2 = a[:i], a[i + len(b):]
            if len(u2) == 0 and len(v2) == 0:
                continue
            out.add(("Containment12", "", "", u2, v2))
    for i in range(len(b) - len(a) + 1):
        if b[i : i + len(a)] == a:
            u1, v1 = b[:i], b[i + len(a):]
            if len(u1) == 0 and len(v1) == 0:
                continue
            out.add(("Containment21", u1, v1, "", ""))
    return out


def exhaustive_matches(l1, l2):
    """Definitional oracle: try every word shorter than |l1|+|l2| as a
    superposition and test the defining equations on all factorizations."""
    out = _containments(l1, l2)
    for s in all_words(l1.alphabet, len(l1) + len(l2) - 1):
        sl = s.letters
        # l1.v1 = s = u2.l2 with all witnesses nonempty
        if (
            len(s) > len(l1)
            and len(s) > len(l2)
            and sl[: len(l1)] == l1.letters
            and sl[len(s) - len(l2):] == l2.letters
        ):
            out.add(("SuffixPrefix", "", sl[len(l1):], sl[: len(s) - len(l2)], ""))
        # u1.l1 = s = l2.v2 with all witnesses nonempty
        if (
            len(s) > len(l1)
            and len(s) > len(l2)
            and sl[len(s) - len(l1):] == l1.letters
            and sl[: len(l2)] == l2.letters
        ):
            out.add(("PrefixSuffix", sl[: len(s) - len(l1)], "", "", sl[len(l2):]))
    return out


def candidate_matches(l1, l2):
    """Scalable oracle: the containments, plus every overlap of a proper
    suffix of one left side with a proper prefix of the other, found by
    comparing the two letter runs for each overlap length: O(|l1| |l2|)."""
    out = _containments(l1, l2)
    a, b = l1.letters, l2.letters
    for k in range(1, min(len(a), len(b))):
        if a[len(a) - k:] == b[:k]:  # l1.v1 = u2.l2
            out.add(("SuffixPrefix", "", b[k:], a[:len(a) - k], ""))
        if b[len(b) - k:] == a[:k]:  # u1.l1 = l2.v2
            out.add(("PrefixSuffix", b[:len(b) - k], "", "", a[k:]))
    return out


def reference_overlaps(lhss):
    """{(i, j): match set} for every ordered pair of left sides with a
    match, in row-major order: candidate_matches of the pair, plus the
    identity containment when i != j and the two left sides coincide.
    Every one of the n * n pairs is tried."""
    out = {}
    for i, l1 in enumerate(lhss):
        for j, l2 in enumerate(lhss):
            found = candidate_matches(l1, l2)
            if i != j and l1 == l2:
                found.add(("Containment12", "", "", "", ""))
            if found:
                out[(i, j)] = found
    return out


def one_step_reducts(system, word):
    """Every single-step rewrite of the word, over all positions and rules."""
    out = []
    wl = word.letters
    n = len(wl)
    for pos in range(n):
        for rule in system.rules:
            span = len(rule.lhs.letters)
            if pos + span <= n and wl[pos : pos + span] == rule.lhs.letters:
                out.append(Word(system.alphabet, wl[:pos] + rule.rhs.letters + wl[pos + span:]))
    return out


def leftmost_redex(lhss, letters):
    """(pos, index) of the redex the engines' policy picks: the leftmost
    start, and at it the lowest index; None when no left side occurs.
    Plain scan over positions, then over every left side in index order."""
    for pos in range(len(letters)):
        for index, lhs in enumerate(lhss):
            if tuple(letters[pos : pos + len(lhs)]) == tuple(lhs):
                return pos, index
    return None


def reference_reduce_once(system, word):
    """The one-step reduct under the leftmost, then lowest-index policy."""
    lhss = [rule.lhs.letters for rule in system.rules]
    hit = leftmost_redex(lhss, word.letters)
    if hit is None:
        return None
    pos, index = hit
    rule = system.rules[index]
    return Word(system.alphabet, word.letters[:pos] + rule.rhs.letters
                + word.letters[pos + len(rule.lhs.letters):])


def reference_normal_form(system, word):
    """reference_reduce_once iterated to a fixed point."""
    nxt = reference_reduce_once(system, word)
    while nxt is not None:
        word, nxt = nxt, reference_reduce_once(system, nxt)
    return word


def letter_key(alphabet, precedence, weights=None):
    """Sort key on letter strings under a precedence list of generator names:
    shortlex (length, then ranks), or with weights, one per letter index,
    wtlex (total weight, then length, then ranks). Letter i is chr(i)."""
    rank = {alphabet.symbols.index(name): pos for pos, name in enumerate(precedence)}
    if weights is None:
        return lambda letters: (len(letters), [rank[ord(c)] for c in letters])
    return lambda letters: (sum(weights[ord(c)] for c in letters), len(letters),
                            [rank[ord(c)] for c in letters])


def shortlex_key(alphabet, precedence):
    """Sort key of shortlex on words, under a precedence list of generator names."""
    key = letter_key(alphabet, precedence)
    return lambda word: key(word.letters)


def reference_reduce(members, field, key, terms):
    """Full greatest-first reduction of a plain dict from words to scalars.

    members are the basis as plain dicts, each monic under key. Each step
    takes the greatest monomial with a redex under leftmost_redex and
    subtracts coeff . left . member . right, term by term through the
    field's add, mul and neg. Returns (steps, normal form, recreated) with
    every step as (coeff, left letters, index, right letters); recreated is
    the set of monomials whose term cancelled at one step and reappeared at
    a later one.
    """
    lms = [max(member, key=key) for member in members]
    lhss = [lm.letters for lm in lms]
    data = dict(terms)
    steps = []
    cancelled, recreated = set(), set()
    while True:
        for word in sorted(data, key=key, reverse=True):
            hit = leftmost_redex(lhss, word.letters)
            if hit is not None:
                break
        else:
            return steps, data, recreated
        pos, index = hit
        left, right = word.letters[:pos], word.letters[pos + len(lhss[index]):]
        coeff = data[word]
        steps.append((coeff, left, index, right))
        for monomial, c in members[index].items():
            target = Word(word.alphabet, left + monomial.letters + right)
            s = field.add(data.get(target, field.zero), field.neg(field.mul(coeff, c)))
            if s == field.zero:
                data.pop(target, None)
                if target != word:  # the reduced monomial leaves by design
                    cancelled.add(target)
                continue
            if target in cancelled and target not in data:
                recreated.add(target)
            data[target] = s


def reference_reduce_on(basis, terms):
    """reference_reduce of a plain dict over the members of a basis under a
    shortlex order, as plain dicts."""
    key = shortlex_key(basis.alphabet, basis.order.precedence)
    return reference_reduce([dict(f.terms) for f in basis.polys], basis.field, key, terms)


def term_sum(field, *terms):
    """The sum of plain dicts from words to scalars, through the field's add;
    a term that cancels is dropped."""
    out = {}
    for summand in terms:
        for word, c in summand.items():
            s = field.add(out.get(word, field.zero), c)
            if s == field.zero:
                out.pop(word, None)
            else:
                out[word] = s
    return out


def poly_difference(p, q):
    """p - q for two polynomials over one field, by term_sum."""
    field = p.field
    return NcPolynomial(field, term_sum(field, p.terms, {w: field.neg(c) for w, c in q.terms.items()}))


def term_product(field, *factors):
    """The product of plain dicts from words to scalars, left to right:
    letters concatenated, scalars through the field's mul and add."""
    out = factors[0]
    for factor in factors[1:]:
        out = term_sum(field, *({Word(w1.alphabet, w1.letters + w2.letters): field.mul(c1, c2)}
                                for w1, c1 in out.items() for w2, c2 in factor.items()))
    return out


def replay_steps(basis, steps):
    """The sum of coeff . left . f . right over reduction steps in the form
    reference_reduce records them, as a plain dict built by term_sum and
    term_product from the members' terms; for the steps that reduce p to
    nf(p) it equals p - nf(p)."""
    field, alphabet = basis.field, basis.alphabet
    return term_sum(field, *(term_product(field, {Word(alphabet, left): coeff},
                                          basis.polys[index].terms, {Word(alphabet, right): field.one})
                             for coeff, left, index, right in steps))


def reachable_monomials(basis, word):
    """The distinct monomials reachable from word by first-redex steps over
    the members of a basis under a shortlex order, word included: a monomial
    with a leftmost_redex under the member f reaches left.t.right for every
    term t of f but the leading one."""
    key = shortlex_key(basis.alphabet, basis.order.precedence)
    members = [f.terms for f in basis.polys]
    lms = [max(member, key=key) for member in members]
    lhss = [lm.letters for lm in lms]
    seen, todo = {word}, [word]
    while todo:
        monomial = todo.pop()
        hit = leftmost_redex(lhss, monomial.letters)
        if hit is None:
            continue
        pos, index = hit
        left, right = monomial.letters[:pos], monomial.letters[pos + len(lhss[index]):]
        for tail in members[index]:
            target = Word(word.alphabet, left + tail.letters + right)
            if tail != lms[index] and target not in seen:
                seen.add(target)
                todo.append(target)
    return seen


def reduction_endpoints(system, word, memo=None):
    """All irreducible words reachable by any maximal reduction sequence."""
    if memo is None:
        memo = {}
    if word in memo:
        return memo[word]
    memo[word] = frozenset()  # cycle guard; reduction cannot cycle anyway
    reducts = one_step_reducts(system, word)
    if not reducts:
        result = frozenset([word])
    else:
        result = frozenset().union(*(reduction_endpoints(system, r, memo) for r in reducts))
    memo[word] = result
    return result


def is_locally_confluent(system):
    """True when every superposition of two left sides, from
    reference_overlaps, has exactly one reduction_endpoints word. Its two
    one-step reducts then reach that word, so every critical pair joins;
    for a terminating system this is local confluence."""
    lhss = [rule.lhs for rule in system.rules]
    memo = {}
    for (i, _), matches in reference_overlaps(lhss).items():
        for _, u1, v1, _, _ in matches:
            superposition = Word(system.alphabet, u1 + lhss[i].letters + v1)
            if len(reduction_endpoints(system, superposition, memo)) != 1:
                return False
    return True


# A reference completion on letter strings: a rule is a pair (lhs, rhs) of
# letter strings, oriented so that key(lhs) > key(rhs). Reduction is naive
# (leftmost_redex), and the overlaps are found by comparing each proper
# suffix of one left side with the prefix of another.

def _reduce(rules, letters):
    """The normal form of letters under rules, leftmost redex first."""
    lhss = [lhs for lhs, _ in rules]
    while True:
        hit = leftmost_redex(lhss, letters)
        if hit is None:
            return letters
        pos, index = hit
        lhs, rhs = rules[index]
        letters = letters[:pos] + rhs + letters[pos + len(lhs):]


def _orient(key, x, y):
    return (x, y) if key(x) > key(y) else (y, x)


def interreduce(rules, key):
    """The rules simplified one at a time, each against all the others as
    they stand: a rule whose left side another rule reduces leaves, and
    its sides, reduced by the rest, come back as a rule unless they meet;
    otherwise its right side becomes its normal form. Sequential, so the
    congruence is kept: a.b->a, a.b->b leaves b->a, a.a->a. A complete
    system goes to its unique reduced form; returned sorted by key."""
    rules = list(dict.fromkeys(rules))
    k = 0
    while k < len(rules):
        lhs, rhs = rules[k]
        others = rules[:k] + rules[k + 1:]
        if leftmost_redex([l for l, _ in others], lhs) is not None:
            rules = others
            x, y = _reduce(rules, lhs), _reduce(rules, rhs)
            if x != y and _orient(key, x, y) not in rules:
                rules.append(_orient(key, x, y))
            k = 0
            continue
        nf = _reduce(rules, rhs)
        if nf != rhs:
            rules[k] = (lhs, nf)
            k = 0
            continue
        k += 1
    return sorted(rules, key=lambda rule: (key(rule[0]), key(rule[1])))


def reference_completion(rules, key, caps):
    """The reduced complete system of rules, pairs of letter strings oriented
    here by key, or None when it is not reached within caps, (rounds,
    rules, word length). Each round interreduces, then adds every critical
    pair of a suffix-prefix overlap whose two sides do not meet; a round
    that adds none ends it. For a fixed order the reduced complete system
    is unique (Metivier, IPL 16, 1983), so this is an exact target for any
    completion that stops."""
    max_rounds, max_rules, max_len = caps
    rules = [_orient(key, x, y) for x, y in rules if x != y]
    for _ in range(max_rounds):
        rules = interreduce(rules, key)
        if len(rules) > max_rules or any(len(w) > max_len for rule in rules for w in rule):
            return None
        fresh = []
        for l1, r1 in rules:
            for l2, r2 in rules:
                for k in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - k:] == l2[:k]:  # l1.v = u.l2
                        x = _reduce(rules, r1 + l2[k:])
                        y = _reduce(rules, l1[:len(l1) - k] + r2)
                        if x != y:
                            fresh.append(_orient(key, x, y))
        if not fresh:
            return rules
        rules = rules + fresh
    return None


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        parent = self.parent
        parent.setdefault(x, x)
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


class ClosureBudgetExceeded(Exception):
    """The closure's reachable set outgrew the node budget."""


def _undirected_steps(rules, wl, cap):
    """Single rewrite steps from a letter string in both directions, keeping
    results of length <= cap; also reports whether any result was cut."""
    n = len(wl)
    out = []
    cut = False
    for lhs, rhs in rules:
        for pos in range(n - len(lhs) + 1):
            if wl[pos : pos + len(lhs)] == lhs:
                child = wl[:pos] + rhs + wl[pos + len(lhs) :]
                if len(child) <= cap:
                    out.append(child)
                else:
                    cut = True
        if rhs:
            positions = [
                pos for pos in range(n - len(rhs) + 1) if wl[pos : pos + len(rhs)] == rhs
            ]
        else:
            positions = list(range(n + 1))  # the empty word occurs everywhere
        for pos in positions:
            child = wl[:pos] + lhs + wl[pos + len(rhs) :]
            if len(child) <= cap:
                out.append(child)
            else:
                cut = True
    return out, cut


def congruence_partition(system, max_len, max_extra=12, settle=2, node_budget=300_000):
    """Equivalence classes of the bounded words under the congruence the
    rules generate: breadth-first closure applying rules in both
    directions, exploring only words reachable from the bounded seeds.

    Joining two bounded words may need longer intermediates, so the length
    cap deepens until the seed partition has been stable for ``settle``
    consecutive levels. Raises ClosureBudgetExceeded when the reachable set
    outgrows the budget: such an instance is beyond this oracle.
    """
    rules = tuple((r.lhs.letters, r.rhs.letters) for r in system.rules)
    min_len = 0 if system.mode == MONOID else 1
    alpha = system.alphabet
    seeds = [w.letters for w in all_words(alpha, max_len, min_len=min_len)]
    uf = _UnionFind()
    visited = set(seeds)
    truncated = set()

    def expand(frontier, cap):
        stack = list(frontier)
        while stack:
            wl = stack.pop()
            children, cut = _undirected_steps(rules, wl, cap)
            if cut:
                truncated.add(wl)
            else:
                truncated.discard(wl)
            for child in children:
                uf.union(wl, child)
                if child not in visited:
                    visited.add(child)
                    stack.append(child)
            if len(visited) > node_budget:
                raise ClosureBudgetExceeded(f"more than {node_budget} words reached")

    def seed_partition():
        blocks = {}
        for seed in seeds:
            blocks.setdefault(uf.find(seed), []).append(seed)
        return frozenset(
            frozenset(Word(alpha, letters) for letters in block)
            for block in blocks.values()
        )

    expand(seeds, max_len)
    part = seed_partition()
    stable = 0
    for extra in range(1, max_extra + 1):
        expand(sorted(truncated), max_len + extra)
        nxt = seed_partition()
        if nxt == part:
            stable += 1
            if stable >= settle:
                return nxt
        else:
            stable = 0
        part = nxt
    raise AssertionError(
        f"congruence closure did not stabilize within {max_extra} extra letters"
    )


# Known-answer families: groups whose word problem and order are decided
# by integer arithmetic on letter indices, never by the engines. Each
# builder returns (presentation text, equal, order), where equal(u, v)
# decides whether two letter strings name the same group element.

def abelian_group(rows):
    """Z^2/L for the 2x2 integer matrix L given by rows, det L != 0, in mon
    mode over the letters a, A, b, B (A and B the inverses): the four
    inverse rules, every commutator of letters of distinct generators, and
    one relator per row. Two words are equal exactly when the difference of
    their exponent vectors d lies in the row lattice: d.adj(L) is divisible
    by det L. The order is |det L|."""
    (p, q), (s, t) = rows
    det = p * t - q * s
    assert det != 0
    names = ["a", "A", "b", "B"]
    rules = ["a.A -> 1", "A.a -> 1", "b.B -> 1", "B.b -> 1"]
    rules += [f"{y}.{x} -> {x}.{y}" for x in "aA" for y in "bB"]
    for row in rows:
        letters = [names[2 * k + (n < 0)] for k, n in enumerate(row) for _ in range(abs(n))]
        rules.append(".".join(letters) + " -> 1")
    text = _group_text(names, rules)
    signs = (1, -1, 0, 0), (0, 0, 1, -1)  # exponent of a, of b, per letter index

    def exponents(letters):
        return tuple(sum(sign[ord(c)] for c in letters) for sign in signs)

    def equal(u, v):
        (d0, d1), (e0, e1) = exponents(u), exponents(v)
        d0, d1 = d0 - e0, d1 - e1
        return (d0 * t - d1 * s) % det == 0 and (d1 * p - d0 * q) % det == 0

    return text, equal, abs(det)


def symmetric_group(n):
    """S_n in Coxeter relator form over n - 1 letters a, b, ...: s.s -> 1,
    and (s_i s_j)^m -> 1 with m = 3 for adjacent, 2 for other generators.
    Letter i is the transposition of points i and i + 1; the order is n!."""
    names = [chr(ord("a") + i) for i in range(n - 1)]
    rules = [f"{x}.{x} -> 1" for x in names]
    for i, j in itertools.combinations(range(n - 1), 2):
        rules.append(".".join([names[i], names[j]] * (3 if j == i + 1 else 2)) + " -> 1")
    gens = []
    for i in range(n - 1):
        image = list(range(n))
        image[i], image[i + 1] = i + 1, i
        gens.append(tuple(image))
    return _group_text(names, rules), _permutation_equality(gens, n), math.factorial(n)


def dihedral_group(k):
    """D_k over the letters r, s: r^k, s.s and r.s.r.s -> 1. r turns the
    points 0..k-1 by one and s reflects them, i -> -i mod k; the order is 2k."""
    rules = [".".join("r" * k) + " -> 1", "s.s -> 1", "r.s.r.s -> 1"]
    gens = [tuple((i + 1) % k for i in range(k)), tuple(-i % k for i in range(k))]
    return _group_text(["r", "s"], rules), _permutation_equality(gens, k), 2 * k


def _group_text(names, rules):
    return "\n".join(["mode: mon", "alphabet: " + " ".join(names),
                      "order: shortlex " + " < ".join(names), "rules:",
                      *(f"  {rule}" for rule in rules)]) + "\n"


def _permutation_equality(gens, degree):
    """equal(u, v): the two words act alike on the points, letter i acting
    as the permutation gens[i], the word's letters applied in turn."""

    def act(letters):
        points = tuple(range(degree))
        for c in letters:
            points = tuple(gens[ord(c)][p] for p in points)
        return points

    return lambda u, v: act(u) == act(v)


def irreducible_words(lhss, size, most):
    """The letter strings over chr(0) to chr(size - 1) with no left side as a
    factor, by length, if there are at most most of them; else the first
    most + 1. A word is kept only if its prefix one shorter was, and the
    walk stops at the first length with none, or once it has more than most
    words, as in an infinite monoid."""
    level, out = [""], [""]
    while level and len(out) <= most:
        level = [w + chr(x) for w in level for x in range(size)
                 if not any(_ends_with(w + chr(x), lhs) for lhs in lhss)]
        out += level
    return out[:most + 1]


def _ends_with(word, suffix):
    return len(word) >= len(suffix) and word[len(word) - len(suffix):] == suffix
