"""The README's library example runs as written."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    block = re.search(r"## Library example\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    namespace: dict = {}
    checked = 0
    for line in block.group(1).splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        if comment.strip():
            # ``expr  # value``: the expression must evaluate to the value
            assert eval(code, namespace) == ast.literal_eval(comment.strip()), line
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 4
