"""Session fixtures: the acceptance corpus of presentation files."""

import random
from pathlib import Path

import pytest

from kbgb import CompletionLimits, knuth_bendix, parse_presentation
from kbgb.presentation import PresentationFile

from helpers import random_system, render_presentation
from oracles import ClosureBudgetExceeded, congruence_partition

CORPUS_DIR = Path(__file__).parent / "corpus"
RANDOM_SEED = 20260809
RANDOM_COUNT = 15
CORPUS_LIMITS = CompletionLimits(max_passes=6, max_rules=48, max_word_length=40)


def _presentation_text(system):
    pf = PresentationFile("sgp", system.alphabet, system.order, rules=system.rules)
    return render_presentation(pf)


def _oracle_feasible(system):
    """The word-problem oracle must be able to settle the instance.

    Completion can certify equalities whose shortest two-way rewrite
    certificates pass through words far beyond any desk-scale exploration
    bound; such systems are skipped when drawing the random corpus.
    """
    result = knuth_bendix(system, CORPUS_LIMITS)
    if not result.fixed:
        return True  # only complete instances face the closure oracle
    try:
        congruence_partition(system, 5, node_budget=150_000)
    except (AssertionError, ClosureBudgetExceeded):
        return False
    return True


@pytest.fixture(scope="session")
def corpus_files(tmp_path_factory):
    """Named corpus files plus seeded random systems (rules <= 4, sides <= 4)."""
    named = sorted(CORPUS_DIR.glob("*.pres"))
    assert named, "corpus directory is empty"
    generated_dir = tmp_path_factory.mktemp("corpus")
    rng = random.Random(RANDOM_SEED)
    generated = []
    attempts = 0
    while len(generated) < RANDOM_COUNT and attempts < 10 * RANDOM_COUNT:
        attempts += 1
        system = random_system(rng, max_rules=4, max_side=4)
        if not _oracle_feasible(system):
            continue
        path = generated_dir / f"random_{len(generated):02d}.pres"
        text = _presentation_text(system)
        parse_presentation(text)  # self-check
        path.write_text(text)
        generated.append(path)
    files = list(named) + generated
    assert len(files) >= 20
    return files
