"""The mutation matrix of tests/mutants.py still applies to the source.

The matrix checks every patch before its first run and stops when one does
not apply, so an edit to the code under a patch would leave it unable to
run. Each patch's old text must occur exactly once in its file, and the
patch must change the file.
"""

import pytest

from mutants import MUTANTS, ROOT, patched


@pytest.mark.parametrize("name", list(MUTANTS))
def test_every_patch_applies_once(name):
    for filename, old, new in MUTANTS[name]:
        text = (ROOT / "src" / "kbgb" / filename).read_text()
        assert text.count(old) == 1, f"{name} {filename}: {old!r}"
        assert patched(text, old, new, f"{name} {filename}") != text
