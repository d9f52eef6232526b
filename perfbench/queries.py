"""The ``queries`` workload: the read side of a completed system.

Completes the Coxeter presentation of S5 once through ``kbgb lockstep``
(in process, output captured), rebuilds the rule system and its ideal
basis from the printed final rules, then answers a stream of queries
generated from the seed and the stream's index in the run, cycling three
kinds:

* ``normal_form`` of a random word of length 32-64;
* ``words_equal`` and ``monomials_equal_mod_ideal`` on a pair of such
  words, half of the pairs equal by construction;
* ``poly_normal_form`` of a random 4-term polynomial with rational
  coefficients.

Each answer is printed to stdout as it is produced. Only the engine calls
are timed per query. After the stream every answer is checked: both
equality deciders agree, every word normal form is irreducible, and no
monomial of a polynomial normal form contains a rule left side.

    PYTHONPATH=src python3 perfbench/queries.py --seed N --count N --out OUT.json
        [--stream I] [--setup-only] [--trace]

OUT.json receives the setup digest, the per-query latencies, the stream's
wall and CPU time, the gate's counts and, with --trace, the tracer snapshot
taken at the end of the stream.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

S5 = "perfbench/inputs/s5.pres"
SETUP_ARGV = ("lockstep", S5)


def complete(kbgb):
    """Run the CLI on S5 and rebuild (setup record, system, basis) from its output."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = kbgb.cli.main(list(SETUP_ARGV))
    text = captured.getvalue()
    lines = text.splitlines()
    setup = {
        "exit": code,
        "verdict": lines[-1] if lines else "",
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "bytes": len(text.encode()),
    }
    pf = kbgb.presentation.parse_presentation(Path(S5).read_text())
    rules = []
    for line in lines:
        if line.startswith("final rule: "):
            lhs, rhs = line[len("final rule: "):].split(" -> ")
            rules.append(kbgb.rewriting.Rule(pf.alphabet.parse_word(lhs), pf.alphabet.parse_word(rhs)))
    system = dataclasses.replace(pf.system(), rules=tuple(rules))
    basis = kbgb.correspondence.rules_to_basis(system, kbgb.ncpoly.QQ)
    return setup, system, basis


def make_queries(kbgb, rng: random.Random, system, count: int) -> list:
    alphabet = system.alphabet
    size = len(alphabet)

    def word(lo=32, hi=64):
        return kbgb.words.Word(alphabet, [rng.randrange(size) for _ in range(rng.randint(lo, hi))])

    def coeff():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))

    queries = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            queries.append(("nf", word()))
        elif kind == 1:
            if rng.random() < 0.5:
                queries.append(("equal", word(), word()))
            else:
                # u.lhs.v and u.rhs.v are equal by one rule application
                rule = rng.choice(system.rules)
                u, v = word(12, 28), word(12, 28)
                queries.append(("equal", u * rule.lhs * v, u * rule.rhs * v))
        else:
            terms = [(word(), coeff()) for _ in range(4)]
            queries.append(("poly", kbgb.ncpoly.NcPolynomial(kbgb.ncpoly.QQ, terms)))
    return queries


def answer(kbgb, system, basis, query):
    kind = query[0]
    if kind == "nf":
        return kbgb.rewriting.normal_form(system, query[1])
    if kind == "equal":
        return (
            kbgb.rewriting.words_equal(system, query[1], query[2]),
            kbgb.ncpoly.monomials_equal_mod_ideal(basis, query[1], query[2]),
        )
    return kbgb.ncpoly.poly_normal_form(basis, query[1])


def render(kbgb, basis, kind, result) -> str:
    if kind == "nf":
        return f"nf {result.dotted()}"
    if kind == "equal":
        return f"equal {'EQUAL' if result[0] else 'DISTINCT'}"
    return f"poly {kbgb.ncpoly.render_poly(result, basis.order)}"


def _contains(letters: tuple, factor: tuple) -> bool:
    span = len(factor)
    return any(letters[i : i + span] == factor for i in range(len(letters) - span + 1))


def gate(kbgb, system, queries, results) -> list:
    """Descriptions of the answers that fail the correctness checks."""
    lhss = [rule.lhs.letters for rule in system.rules]
    failures = []
    for index, (query, result) in enumerate(zip(queries, results)):
        kind = query[0]
        if kind == "nf":
            ok = kbgb.rewriting.is_irreducible(system, result)
        elif kind == "equal":
            ok = result[0] == result[1]
        else:
            ok = not any(_contains(w.letters, lhs) for w in result.terms for lhs in lhss)
        if not ok:
            failures.append(f"query {index} ({kind})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--stream", type=int, default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import kbgb.cli

    setup, system, basis = complete(kbgb)
    record = {"setup": setup}
    if not args.setup_only:
        rng = random.Random(f"{args.seed}:{args.stream}")
        queries = make_queries(kbgb, rng, system, args.count)
        latencies = []
        results = []
        out = sys.stdout
        cpu0 = time.process_time()
        start = time.perf_counter()
        for query in queries:
            t0 = time.perf_counter()
            result = answer(kbgb, system, basis, query)
            latencies.append(time.perf_counter() - t0)
            results.append(result)
            out.write(render(kbgb, basis, query[0], result) + "\n")
            out.flush()
        record["stream_s"] = time.perf_counter() - start
        record["stream_cpu_s"] = time.process_time() - cpu0
        record["latencies"] = latencies
        if tracer is not None:
            record["trace"] = tracer.snapshot()
        failures = gate(kbgb, system, queries, results)
        record["attempted"] = len(queries)
        record["failures"] = failures
    with open(args.out, "w") as out:
        json.dump(record, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
