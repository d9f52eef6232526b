"""A standing mutation matrix for the code the two engines share.

    python3 tests/mutants.py [PYTEST_ARGS...]

Each entry of MUTANTS is a named fault: text patches to files under src/,
each of whose old texts must occur exactly once in its file. For the
unmutated tree and then for each mutant, the script copies the repository
into a fresh temporary directory, applies the patches there, and runs
Tier-1 in the copy (or the pytest arguments given, for example
``tests/test_rewriting.py``). A mutant is killed by every test that fails
or errors in its copy and passes in the unmutated copy. The script prints
the killing tests of each mutant, then the table, then separately the
mutants that only test_golden.py kills (golden output pins behaviour but
does not explain a failure) and those that nothing kills.

A mutant may make a reduction loop or grow its word without end, so each
test has an alarm that fails it after TEST_TIMEOUT_S, each run an
address-space limit, and each run a timeout, a run cut by it counting as
killed. Nothing outside the temporary directories is written, and pytest
does not collect this file.
"""

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 1800
TEST_TIMEOUT_S = 120
ADDRESS_SPACE = 512 << 20  # bytes per run; Tier-1 itself fits in it
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work")

# a pytest plugin, loaded in each run. A test still running after its alarm
# fails with an exception that no `except Exception` in the code swallows. A
# MemoryError fails the test as RunawayWord once its traceback, which holds
# every word of the runaway walk, is dropped; so is the traceback that pytest
# keeps of each failure in sys.last_*. The run can then go on within its
# address space.
ALARM_PLUGIN = f"""
import signal
import sys

import pytest


class AlarmExpired(BaseException):
    pass


class RunawayWord(Exception):
    pass


def _expire(signum, frame):
    raise AlarmExpired("no result within {TEST_TIMEOUT_S} s")


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    signal.signal(signal.SIGALRM, _expire)
    signal.alarm({TEST_TIMEOUT_S})
    try:
        return (yield)
    except MemoryError:
        pass
    finally:
        signal.alarm(0)
        for name in ("last_type", "last_value", "last_traceback", "last_exc"):
            if hasattr(sys, name):
                delattr(sys, name)
    raise RunawayWord("out of memory")
"""

# name -> ((file under src/kbgb, old text, new text), ...)
MUTANTS = {
    # find's tie policy: at the leftmost start the shortest left side wins,
    # not the lowest index
    "find-shortest-wins": (
        ("words.py", "if ends is not None and (best is None or ends[0] < best):",
         "if ends is not None and best is None:"),
    ),
    "find-skips-last-start": (
        ("words.py", "        for pos in range(n):\n", "        for pos in range(n - 1):\n"),
    ),
    # overlaps drops a match kind: both proper containments
    "overlaps-drop-containments": (
        ("words.py", "                    elif ends is not None:\n",
         "                    elif False:\n"),
    ),
    "overlaps-drop-long-extensions": (
        ("words.py", "                                if v:\n",
         "                                if v and len(v) <= 4:\n"),
    ),
    # the (j, i) twin of each (i, j) row is dropped
    "overlaps-no-symmetry-closure": (
        ("words.py", """                            found.append((j, i, 1, start, n - at, 0, 0, OverlapMatch(
                                MatchKind.CONTAINMENT_21, u, v, (), ())))
""", ""),
        ("words.py", """                                    found.append((j, i, 3, start, 0, 0, len(v), OverlapMatch(
                                        MatchKind.PREFIX_SUFFIX, u, (), (), v)))
""", ""),
    ),
    "shortlex-reversed-lex": (
        ("words.py", "return (len(word.letters), word.letters)",
         "return (len(word.letters), word.letters[::-1])"),
    ),
    "wtlex-no-length-tiebreak": (
        ("words.py", "return (weight, len(word.letters), ranks)", "return (weight, ranks)"),
    ),
    "next-state-no-length-check": (
        ("completion.py", "if any(len(w) > limits.max_word_length for w in words(member)):",
         "if False:"),
    ),
    # a general member's targets are summed through the closure itself,
    # which then holds a reference to its own cell: a cycle on every memo
    "monomial-forms-closure-cycle": (
        ("ncpoly.py", "_sum_forms(forms.__getitem__, field, targets)",
         "_sum_forms(lambda m: form(Word._raw(alphabet, m)), field, targets)"),
    ),
    "rewrite-keeps-last-letter": (
        ("rewriting.py", "system.rules[index].rhs.letters + wl[end:]",
         "system.rules[index].rhs.letters + wl[end - 1:]"),
    ),
}


def patched(text, old, new, where):
    if text.count(old) != 1:
        raise SystemExit(f"{where}: patch text occurs {text.count(old)} times, not once: {old!r}")
    return text.replace(old, new)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def failures(name, patches, pytest_args):
    """The ids of the tests that fail or error in a patched copy, or None
    when the run hits its timeout."""
    with tempfile.TemporaryDirectory(prefix=f"kbgb-mutant-{name}-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        for filename, old, new in patches:
            path = tree / "src" / "kbgb" / filename
            path.write_text(patched(path.read_text(), old, new, f"{name} {filename}"))
        report = Path(tmp) / "report.xml"
        (Path(tmp) / "mutant_alarm.py").write_text(ALARM_PLUGIN)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), tmp]))
        # hypothesis's pytest plugin imports libcst to report a failure,
        # which fails once a runaway word has used up the address space
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "-p", "no:hypothesispytest", "-p", "mutant_alarm", "--tb=no",
                "--continue-on-collection-errors", f"--junitxml={report}", *pytest_args]
        try:
            subprocess.run(argv, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
                           preexec_fn=_limit_address_space)
        except subprocess.TimeoutExpired:
            return None
        if not report.exists():
            return {"<no report: pytest did not finish>"}
        failed = set()
        for case in ET.parse(report).iter("testcase"):
            if case.find("failure") is not None or case.find("error") is not None:
                # a module that fails to import is one case with no class name
                cls, test = case.get("classname"), case.get("name")
                failed.add(f"{cls}::{test}" if cls else test)
        return failed


def main(pytest_args):
    # the patches are checked before any run starts
    for name, patches in MUTANTS.items():
        for filename, old, new in patches:
            patched((ROOT / "src" / "kbgb" / filename).read_text(), old, new, f"{name} {filename}")
    baseline = failures("none", (), pytest_args)
    if baseline is None:
        raise SystemExit("the unmutated tree timed out")
    if baseline:
        print(f"failing without a mutant, not counted as kills: {sorted(baseline)}")
    rows = []
    for name, patches in MUTANTS.items():
        failed = failures(name, patches, pytest_args)
        killers = None if failed is None else sorted(failed - baseline)
        rows.append((name, killers))
        print(f"{name}: " + ("timeout" if killers is None else f"{len(killers)} killing tests"))
        for test in killers or ():
            print(f"    {test}")
    print()
    print("| mutant | killing tests |")
    print("|---|---|")
    for name, killers in rows:
        print(f"| `{name}` | {'timeout' if killers is None else len(killers)} |")
    golden_only = [name for name, killers in rows
                   if killers and all(t.startswith("tests.test_golden") for t in killers)]
    survivors = [name for name, killers in rows if killers == []]
    print(f"\nkilled only by test_golden.py: {', '.join(golden_only) or 'none'}")
    print(f"killed by no test: {', '.join(survivors) or 'none'}")


if __name__ == "__main__":
    main(sys.argv[1:])
