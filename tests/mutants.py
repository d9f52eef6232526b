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
test has an alarm that fails it, each run an address-space limit, and each
run a timeout, a run cut by it counting as killed. The unmutated run
records each test's call time, and in a mutant's run a test's alarm is
ALARM_MULTIPLE times that, at least ALARM_FLOOR_S and at most
TEST_TIMEOUT_S, the alarm of the unmutated run itself. Nothing outside the
temporary directories is written, and pytest does not collect this file.
"""

import json
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
# the slowest Tier-1 test call takes about 3.4 s. A runaway word holds one
# byte per letter, so it can grow for minutes before the address space runs
# out: the alarm ends it, soon enough that the dozens of runaway tests of
# rewrite-keeps-last-letter end within TIMEOUT_S, and sooner once scaled to
# the test's own call time. The floor leaves room for a mutant that only
# slows a test: next-state-no-length-check takes one test from 0.2 to 4.7 s.
TEST_TIMEOUT_S = 15
ALARM_MULTIPLE = 5
ALARM_FLOOR_S = 8
ADDRESS_SPACE = 512 << 20  # bytes per run; Tier-1 itself fits in it
# test_mutants.py checks the patches against the unmutated source, so it
# fails in every patched copy and is left out of them
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work",
                              "test_mutants.py")

# a pytest plugin, loaded in each run. It reads each test's alarm, in
# seconds by node id, from alarms.json beside it (TEST_TIMEOUT_S for a test
# not listed), and writes each test's call time to call_times.json there. A
# test still running after its alarm fails with an exception that no
# `except Exception` in the code swallows. A MemoryError fails the test as
# RunawayWord once its traceback, which holds every word of the runaway
# walk, is dropped; so is the traceback that pytest keeps of each failure in
# sys.last_*. The run can then go on within its address space.
ALARM_PLUGIN = f"""
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).parent
ALARMS = json.loads((HERE / "alarms.json").read_text())
CALL_TIMES = {{}}


class AlarmExpired(BaseException):
    pass


class RunawayWord(Exception):
    pass


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    alarm = ALARMS.get(item.nodeid, {TEST_TIMEOUT_S})

    def expire(signum, frame):
        raise AlarmExpired(f"no result within {{alarm}} s")

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, alarm)
    start = time.perf_counter()
    try:
        return (yield)
    except MemoryError:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        CALL_TIMES[item.nodeid] = time.perf_counter() - start
        for name in ("last_type", "last_value", "last_traceback", "last_exc"):
            if hasattr(sys, name):
                delattr(sys, name)
    raise RunawayWord("out of memory")


def pytest_sessionfinish(session):
    (HERE / "call_times.json").write_text(json.dumps(CALL_TIMES))
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
                                MatchKind.CONTAINMENT_21, u, v, "", "")))
""", ""),
        ("words.py", """                                    found.append((j, i, 3, start, 0, 0, len(v), OverlapMatch(
                                        MatchKind.PREFIX_SUFFIX, u, "", "", v)))
""", ""),
    ),
    # a row's matches in witness-length order before kind order
    "overlaps-kind-after-lengths": (
        ("words.py", "        found.sort()\n",
         "        found.sort(key=lambda e: (e[0], e[1], e[3], e[4], e[5], e[6], e[2]))\n"),
    ),
    # a pass builds a fresh Word for every raw word, so its records hold
    # each equal word once per occurrence
    "raw-words-fresh": (
        ("words.py", "found = table.get(letters)", "found = None"),
    ),
    "shortlex-reversed-lex": (
        ("words.py", "return (len(word.letters), word.letters)",
         "return (len(word.letters), word.letters[::-1])"),
    ),
    "wtlex-no-length-tiebreak": (
        ("words.py", "return (weight, len(letters), letters.translate(self._rank))",
         "return (weight, letters.translate(self._rank))"),
    ),
    # wtlex compares the letters by index, not by their precedence ranks
    "wtlex-ranks-untranslated": (
        ("words.py", "return (weight, len(letters), letters.translate(self._rank))",
         "return (weight, len(letters), letters)"),
    ),
    # a name may hold a dot, so its words print text that reads back as
    # other words, or as none
    "name-rule-admits-dot": (
        ("words.py", '_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")',
         '_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")'),
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
    # member j's tail terms enter the raw S-polynomial with the wrong sign
    "s-poly-tail-sign": (
        ("ncpoly.py", "word(m.u2 + tail + m.v2), c)", "word(m.u2 + tail + m.v2), field.neg(c))"),
    ),
    # the sets check only asks that every translated rule is in the basis
    "sets-check-no-length": (
        ("correspondence.py", "sets_ok = len(polys) == len(kb.state.rules) and all(",
         "sets_ok = all("),
    ),
    "rewrite-keeps-last-letter": (
        ("rewriting.py", "system.rules[index].rhs.letters + wl[end:]",
         "system.rules[index].rhs.letters + wl[end - 1:]"),
    ),
    # equal answers DISTINCT from unequal forms at a cap, as if complete
    "equal-distinct-at-cap": (
        ("cli.py", "if equal or result.fixed:", "if True:"),
    ),
}


def patched(text, old, new, where):
    if text.count(old) != 1:
        raise SystemExit(f"{where}: patch text occurs {text.count(old)} times, not once: {old!r}")
    return text.replace(old, new)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def failures(name, patches, pytest_args, alarms):
    """(the ids of the tests that fail or error in a patched copy, or None
    when the run hits its timeout; the call time of each test, by node id),
    each test alarmed after its entry of alarms, in seconds."""
    with tempfile.TemporaryDirectory(prefix=f"kbgb-mutant-{name}-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=SKIP)
        for filename, old, new in patches:
            path = tree / "src" / "kbgb" / filename
            path.write_text(patched(path.read_text(), old, new, f"{name} {filename}"))
        report = Path(tmp) / "report.xml"
        (Path(tmp) / "mutant_alarm.py").write_text(ALARM_PLUGIN)
        (Path(tmp) / "alarms.json").write_text(json.dumps(alarms))
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
            return None, {}
        times = Path(tmp) / "call_times.json"
        times = json.loads(times.read_text()) if times.exists() else {}
        if not report.exists():
            return {"<no report: pytest did not finish>"}, times
        failed = set()
        for case in ET.parse(report).iter("testcase"):
            if case.find("failure") is not None or case.find("error") is not None:
                # a module that fails to import is one case with no class name
                cls, test = case.get("classname"), case.get("name")
                failed.add(f"{cls}::{test}" if cls else test)
        return failed, times


def main(pytest_args):
    # the patches are checked before any run starts
    for name, patches in MUTANTS.items():
        for filename, old, new in patches:
            patched((ROOT / "src" / "kbgb" / filename).read_text(), old, new, f"{name} {filename}")
    baseline, times = failures("none", (), pytest_args, {})
    if baseline is None:
        raise SystemExit("the unmutated tree timed out")
    if baseline:
        print(f"failing without a mutant, not counted as kills: {sorted(baseline)}")
    alarms = {test: min(TEST_TIMEOUT_S, max(ALARM_FLOOR_S, ALARM_MULTIPLE * seconds))
              for test, seconds in times.items()}
    rows = []
    for name, patches in MUTANTS.items():
        failed, _ = failures(name, patches, pytest_args, alarms)
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
