"""Run the Python examples of README.md and check the values they promise.

A line of the form `expression  # value` in a ```python block asserts that
the expression evaluates to the literal value; text after a further `==`
in the comment is explanation.  Every other line runs as written.
"""

import ast
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def _run_block(code: str) -> list[object]:
    namespace: dict = {}
    checked = []
    for line in code.splitlines():
        stmt, _, comment = line.partition("#")
        if not comment or not stmt.strip():
            exec(line, namespace)
            continue
        want = ast.literal_eval(comment.split("==")[0].strip())
        assert eval(stmt, namespace) == want, line
        checked.append(want)
    return checked


def test_readme_examples_hold():
    with open(README) as fh:
        blocks = BLOCK.findall(fh.read())
    checked = [want for code in blocks for want in _run_block(code)]
    assert checked == [(2, 1, 2), [1, 2], [(1, 2), (4, 5)], True, 8]
