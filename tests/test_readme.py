"""The README's "Library use" examples run and print what they say."""

import ast
import re
from decimal import Decimal
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_blocks():
    """Source of each Python block in the README's "Library use" section."""
    text = README.read_text()
    section = text.split("## Library use", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def assert_prints(value, comment):
    """value matches the comment's text to the digits the comment gives."""
    if comment.startswith("["):
        assert repr(value) == comment
        return
    expected = Decimal(comment.split()[0])
    half_ulp = Decimal(5).scaleb(expected.as_tuple().exponent - 1)
    assert abs(Decimal(float(value)) - expected) <= half_ulp, (value, comment)


def test_library_use_examples(tmp_path, monkeypatch):
    # run_scenario writes its CSV into the working directory
    monkeypatch.chdir(tmp_path)
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace = {}
    checked = []
    for source in blocks:
        lines = source.splitlines()
        for node in ast.parse(source).body:
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            if isinstance(node, ast.Expr) and comment:
                value = eval(compile(ast.Expression(node.value), "README", "eval"),
                             namespace)
                assert_prints(value, comment)
                checked.append(comment)
            else:
                exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert checked == ["0.5926", "[None, 1.069]", "3.8e-07 m", "0.0888",
                       "0.0990", "3.0"]
