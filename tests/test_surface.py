"""The library is what the command line uses.

The CLI runs in process under ``sys.setprofile``: all five subcommands on
the corpus files at both golden flag sets, the golden inline presentations,
a left side longer than the redex index's cut depth, the wtlex lengthening
at ``-L 2`` (a Fail verdict), one usage error and one parse error. Every
public function and method defined in ``src/kbgb`` must be entered, except
the few in ``KEPT``, each kept for the reason it names. Code objects are
compared, not line numbers, so a decorated classmethod counts like any
other method. A second test pins the names ``kbgb``
re-exports to those the README's "Library" section names or a test
imports from ``kbgb``.
"""

import ast
import importlib
import inspect
import re
import sys
import types
from pathlib import Path

import kbgb

from helpers import ROOT, run_cli
from test_golden import CORPUS_DIR, FLAG_SETS, INLINE, LENGTHENING, _corpus_commands

# every module of the package but __init__ (re-exports only) and __main__
MODULES = sorted(path.stem for path in Path(kbgb.__file__).parent.glob("*.py")
                 if not path.stem.startswith("_"))

# unreached from the command line, and kept
KEPT = {
    "rewriting.is_irreducible": "the correctness gate of perfbench/queries.py calls it",
    "words.Word.__repr__": "a readable word in assertion diffs",
    "ncpoly.NcPolynomial.__repr__": "a readable polynomial in assertion diffs",
    "words.MonomialOrder.__eq__": "orders compare by value, so equal states compare equal",
    "words.MonomialOrder.__hash__": "orders hash by value, as __eq__ compares them",
}


def _public(name):
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def public_defs():
    """{"module.Class.name" or "module.name": code object} of every public
    function and method whose source is in src/kbgb; generated dataclass
    and NamedTuple methods have no source there and are left out."""
    found = []
    for stem in MODULES:
        module = importlib.import_module(f"kbgb.{stem}")
        for name, obj in vars(module).items():
            if not _public(name):
                continue
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                found += [(module, f"{stem}.{name}.{attr}", member)
                          for attr, member in vars(obj).items() if _public(attr)]
            else:
                found.append((module, f"{stem}.{name}", obj))
    out = {}
    for module, name, obj in found:
        func = obj.__func__ if isinstance(obj, (classmethod, staticmethod)) else obj
        if isinstance(func, types.FunctionType) and func.__code__.co_filename == module.__file__:
            out[name] = func.__code__
    return out


def cli_runs(workdir):
    """The argv lists the surface is measured on; no explode or chain run."""
    runs = []
    files = [(path.name, path, _corpus_commands(path)) for path in sorted(CORPUS_DIR.glob("*.pres"))]
    for name, (text, commands) in INLINE.items():
        path = workdir / f"{name}.pres"
        path.write_text(text)
        files.append((name, path, commands))
    for _, path, commands in files:
        for command in commands:
            for flags in FLAG_SETS.values():
                runs.append([command[0], str(path), *command[1:], *flags])
    # a left side longer than the redex index's cut depth, so a reduction
    # reaches the walk's own trie walk
    long_lhs = workdir / "long_lhs.pres"
    long_lhs.write_text("mode: sgp\nalphabet: a b\norder: shortlex a < b\n"
                        f"rules:\n  {'.'.join('a' * 25)} -> b\n")
    runs.append(["nf", str(long_lhs), ".".join("a" * 27) + ".b"])
    lengthening = workdir / "lengthening.pres"
    lengthening.write_text(LENGTHENING)
    runs.append(["iso-check", str(lengthening), "-L", "2"])
    bad = workdir / "bad.pres"
    bad.write_text("mode: sgp\nalphabet: a b\norder: shortlex a < c\n")
    runs.append(["complete", str(bad)])
    runs.append(["complete", str(bad), "--max-passes", "many"])
    return runs


def entered_codes(runs):
    """The code objects entered while the CLI runs each argv, and the exit codes."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv in runs:
            codes.append(run_cli(argv)[0])
    finally:
        sys.setprofile(None)
    return entered, codes


def test_every_public_def_is_reached_from_the_cli(tmp_path):
    runs = cli_runs(tmp_path)
    entered, codes = entered_codes(runs)
    # the Fail verdict, the parse error and the usage error did run
    assert codes[-3:] == [3, 1, 1]
    defs = public_defs()
    assert set(KEPT) <= set(defs), "a kept def no longer exists"
    unreached = {name for name, code in defs.items() if code not in entered}
    assert unreached == set(KEPT)


def _library_section():
    text = (ROOT / "README.md").read_text()
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def _imported_from_kbgb():
    names = set()
    for path in (ROOT / "tests").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "kbgb" and not node.level:
                names.update(alias.name for alias in node.names)
    return names


def test_reexports_are_named_or_imported():
    library = _library_section()
    imported = _imported_from_kbgb()
    exported = [name for name, obj in vars(kbgb).items()
                if not name.startswith("__") and not isinstance(obj, types.ModuleType)]
    unused = [name for name in exported
              if name not in imported and not re.search(rf"\b{name}\b", library)]
    assert unused == []
    assert len(exported) == 40
