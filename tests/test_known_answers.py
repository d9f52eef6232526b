"""Known-answer families: groups whose word problem and order are known
from outside the engines.

The lockstep checks each engine against the other, so a fault in the code
they share, the overlap walk, the carried pairs or the monomial order,
goes unseen while it keeps them in step. These presentations have a word
problem and an order decided by integer arithmetic in tests/oracles.py.
Each one must complete in lockstep to Corresponds, and its complete rule
set must give (a) every bounded word an equal normal form, (b) distinct
normal forms to distinct elements, (c) exactly as many irreducible
words as the group has elements, and (d) interreduced, equal the reduced
complete system that the engine-free reference completion reaches.
"""

import itertools
import random

import pytest

from kbgb import QQ, lockstep_passes, normal_form, parse_presentation

from conftest import CORPUS_LIMITS as LIMITS
from helpers import reference_systems
from oracles import abelian_group, all_words, dihedral_group, irreducible_words, symmetric_group


def abelian_lattices(count, seed=11):
    """count random 2x2 matrices with entries in -2..2 and det != 0."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        (p, q), (s, t) = rows = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)]
        if p * t != q * s:
            out.append(rows)
    return out


FAMILY = [(f"abelian{rows}", abelian_group(rows), 4) for rows in abelian_lattices(35)]
FAMILY += [(f"S{n}", symmetric_group(n), 6) for n in (3, 4)]
FAMILY += [(f"D{k}", dihedral_group(k), 8) for k in range(3, 13)]


@pytest.mark.parametrize("group, bound", [(group, bound) for _, group, bound in FAMILY],
                         ids=[name for name, _, _ in FAMILY])
def test_complete_system_decides_the_known_group(group, bound):
    text, equal, order = group
    system = parse_presentation(text).system()
    *_, last = lockstep_passes(system, QQ, LIMITS)
    assert last.verdict == "Corresponds", last.detail
    complete = last.rewriting.state
    for word in all_words(system.alphabet, bound, min_len=0):
        assert equal(word.letters, normal_form(complete, word).letters), word.dotted()
    lhss = [rule.lhs.letters for rule in complete.rules]
    irreducible = irreducible_words(lhss, len(system.alphabet), order)
    assert not any(equal(u, v) for u, v in itertools.combinations(irreducible, 2))
    assert len(irreducible) == order
    reduced, reference = reference_systems(system, complete)
    assert reduced == reference
