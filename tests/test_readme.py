"""The README's library example runs and prints what its comments say.

Each ``print(...)`` line of the Python block under "## Library" ends in a
``# value`` comment; the block's output must be those values, in order.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    section = README.read_text().split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_library_example_prints_its_comments():
    code = library_example()
    expected = []
    for line in code.splitlines():
        if line.lstrip().startswith("print("):
            comment = re.search(r"#\s*(.*?)\s*$", line)
            assert comment, f"print line without a # value comment: {line}"
            expected.append(comment.group(1))
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
