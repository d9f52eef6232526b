"""Command-line frontend.

Subcommands: complete, lockstep, nf, equal, iso-check. Exit codes are a
fixed partition: 0 success, 1 input error, 2 resource limit (and ``equal``'s
UNKNOWN, unequal forms at a cap), 3 divergence or a failed engine check (a
reduction budget or the two-term closure).
Output is byte-identical across runs for identical inputs and flags.

``complete`` and ``lockstep`` print each pass as it ends and hold only the
last one, so a run that ends in exit 3 keeps the passes that finished. A
pass is written in blocks of 64 KiB as its lines are rendered and is never
held as text; a closed stdout (``| head``) stops the run with exit 1 at the
next block written. A command runs with the cyclic garbage collector off,
and ``main`` puts back the state it found.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from pathlib import Path

from . import completion, correspondence, ncpoly, rewriting
from .completion import CompletionLimits, ReductionBudgetExceeded
from .ncpoly import ClosureViolation, field_from_name, render_poly
from .presentation import parse_poly_terms, parse_presentation

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_LIMIT = 2
EXIT_DIVERGENCE = 3

# the exit code of each lockstep and iso-check verdict
EXIT_CODES = {
    correspondence.VERDICT_CORRESPONDS: EXIT_OK,
    correspondence.VERDICT_PASS: EXIT_OK,
    correspondence.VERDICT_LIMIT: EXIT_LIMIT,
    correspondence.VERDICT_INCONCLUSIVE: EXIT_LIMIT,
    correspondence.VERDICT_DIVERGENCE: EXIT_DIVERGENCE,
    correspondence.VERDICT_FAIL: EXIT_DIVERGENCE,
}

BLOCK = 1 << 16  # characters of output joined into one write


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; keep 2 reserved for resource limits
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    defaults = CompletionLimits()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("file", help="presentation file")
    common.add_argument("--max-passes", type=int, default=defaults.max_passes, metavar="N")
    common.add_argument("--max-rules", type=int, default=defaults.max_rules, metavar="N")
    common.add_argument("--max-word-len", type=int, default=defaults.max_word_length,
                        metavar="N")
    common.add_argument("--field", default=None, metavar="Q|F<p>",
                        help="coefficient field (overrides the file)")
    common.add_argument("--trace", default=None, metavar="PATH",
                        help="also write the trace/report to a file")
    common.set_defaults(traced=False)  # set once _emit has created the trace file

    parser = _Parser(prog="kbgb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("complete", parents=[common],
                       help="run completion, print the trace and the final system")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("lockstep", parents=[common],
                       help="run both engines in lockstep and verify each pass")
    p.set_defaults(func=cmd_lockstep)

    p = sub.add_parser("nf", parents=[common], help="normal form of a word")
    p.add_argument("word")
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("equal", parents=[common],
                       help="decide whether two words are equal")
    p.add_argument("word1")
    p.add_argument("word2")
    p.set_defaults(func=cmd_equal)

    p = sub.add_parser("iso-check", parents=[common],
                       help="truncated isomorphism check up to a length bound")
    p.add_argument("-L", "--length", type=int, default=4, metavar="N")
    p.set_defaults(func=cmd_iso_check)

    return parser


def _limits(args) -> CompletionLimits:
    return CompletionLimits(args.max_passes, args.max_rules, args.max_word_len)


def _load(args):
    """The parsed file; args.field becomes the file's field unless --field set it."""
    pf = parse_presentation(Path(args.file).read_text())
    if args.field is None:
        args.field = pf.field
    return pf


def _word(pf, text):
    word = pf.alphabet.parse_word(text)
    if pf.mode == rewriting.SEMIGROUP and len(word) == 0:
        raise ValueError("empty word needs mon mode")
    return word


def _blocks(lines):
    """The lines, each ended by a newline, joined into blocks of at least
    BLOCK characters; the last block may be shorter."""
    block, size = [], 0
    for line in lines:
        block.append(line)
        size += len(line) + 1
        if size >= BLOCK:
            yield "\n".join(block) + "\n"
            block, size = [], 0
    if block:
        yield "\n".join(block) + "\n"


def _emit(lines, args) -> None:
    """Write an iterable of lines to stdout and the --trace file (made by the
    first line written), one block at a time, then flush stdout."""
    for block in _blocks(lines):
        sys.stdout.write(block)
        if args.trace:
            with open(args.trace, "a" if args.traced else "w") as trace:
                trace.write(block)
            args.traced = True
    sys.stdout.flush()


def _lockstep_system(args, pf):
    """A rewrite system for the lockstep/iso commands; alg files must be
    lists of two-term l - r polynomials."""
    if pf.mode == "alg":
        return correspondence.basis_to_rules(pf.basis(args.field))
    return pf.system()


def _complete(args, pf):
    """Complete the file's basis (alg) or rule set (sgp, mon) under the
    command-line limits; say on stderr when a limit tripped."""
    limits = _limits(args)
    if pf.mode == "alg":
        result = ncpoly.buchberger(pf.basis(args.field), limits)
    else:
        result = rewriting.knuth_bendix(pf.system(), limits)
    if not result.fixed:
        sys.stderr.write(
            f"warning: completion hit a limit (reason={result.limit_reason}); "
            "normal forms may not be unique\n"
        )
    return result


def cmd_complete(args) -> int:
    pf = _load(args)
    if pf.mode == "alg":
        start, one_pass = pf.basis(args.field), ncpoly.buchberger_pass
        line = functools.partial(ncpoly.record_line, order=start.order)
    else:
        start, one_pass, line = pf.system(), rewriting.kb_pass, rewriting.pair_line
    lines = completion.trace_lines(line)
    for last in completion.passes(start, one_pass, _limits(args)):
        _emit(lines(last), args)
    final = last.state
    if pf.mode == "alg":
        members = [f"poly: {render_poly(poly, final.order)}" for poly in final.polys]
    else:
        members = [f"rule: {rule.lhs.dotted()} -> {rule.rhs.dotted()}" for rule in final.rules]
    status = "complete" if last.fixed else f"limit-exceeded reason={last.limit_reason}"
    _emit([f"status: {status} passes={last.index}", *members], args)
    return EXIT_OK if last.fixed else EXIT_LIMIT


def cmd_lockstep(args) -> int:
    pf = _load(args)
    system = _lockstep_system(args, pf)
    lines = correspondence.pass_lines(system.order)
    for last in correspondence.lockstep_passes(system, args.field, _limits(args)):
        _emit(lines(last), args)
    _emit(correspondence.verdict_lines(last), args)
    return EXIT_CODES[last.verdict]


def cmd_nf(args) -> int:
    pf = _load(args)
    # the query is parsed before completion, so a bad one fails at once
    if pf.mode == "alg":
        terms = parse_poly_terms(None, pf.alphabet, args.word)
        query = ncpoly.NcPolynomial(args.field, terms)
    else:
        query = _word(pf, args.word)
    final = _complete(args, pf).state
    if pf.mode == "alg":
        line = render_poly(ncpoly.poly_normal_form(final, query), final.order)
    else:
        line = rewriting.normal_form(final, query).dotted()
    _emit([line], args)
    return EXIT_OK


def cmd_equal(args) -> int:
    pf = _load(args)
    w1 = _word(pf, args.word1)
    w2 = _word(pf, args.word2)
    result = _complete(args, pf)
    if pf.mode == "alg":
        equal = ncpoly.monomials_equal_mod_ideal(result.state, w1, w2)
    else:
        equal = rewriting.words_equal(result.state, w1, w2)
    # equal forms prove equality at any pass, distinct ones only at a fixed point
    if equal or result.fixed:
        _emit(["EQUAL" if equal else "DISTINCT"], args)
        return EXIT_OK
    _emit([f"UNKNOWN reason={result.limit_reason}"], args)
    return EXIT_LIMIT


def cmd_iso_check(args) -> int:
    pf = _load(args)
    system = _lockstep_system(args, pf)
    if args.length < 1:  # before the first line is written
        raise ValueError("bound must be positive")
    _emit([correspondence.iso_header(args.length, args.field.name)], args)
    report = correspondence.verify_algebra_iso(system, args.field, args.length, _limits(args))
    _emit(correspondence.iso_report_lines(report), args)
    return EXIT_CODES[report.verdict]


def main(argv=None) -> int:
    # the engines build no reference cycles, so the collector would only walk
    # a growing heap and free nothing; the finally puts it back as found
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        # resolved before dispatch, so a bad --field fails every command
        if args.field is not None:
            args.field = field_from_name(args.field)
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        # ParseError and AlphabetMismatch are ValueErrors
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, BrokenPipeError) and sys.stdout is sys.__stdout__:
            # the reader is gone: point stdout at /dev/null, or the flush at
            # interpreter exit fails again on what is still buffered
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except (ReductionBudgetExceeded, ClosureViolation) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DIVERGENCE
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
