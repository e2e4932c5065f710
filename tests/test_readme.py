"""The library example in README.md runs, and prints what its comments say.

Each line of the ```python block that is an expression followed by a
comment is checked: the comment is the ``repr`` of the expression's value.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def python_block():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_example_values():
    source = python_block()
    lines = source.splitlines()
    namespace, checked = {}, 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        line = lines[stmt.end_lineno - 1]
        if isinstance(stmt, ast.Expr) and "#" in line:
            expected = line.split("#", 1)[1].strip()
            assert repr(eval(code, namespace)) == expected, code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 6
