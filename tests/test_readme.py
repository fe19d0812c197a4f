"""The README's Python blocks run as written and print what their comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
# print(expr)   # < bound
BOUND = re.compile(r"^print\((.*)\)\s*#\s*<\s*(\S+)\s*$", re.M)


def test_every_python_block_runs_and_meets_its_stated_bounds():
    assert BLOCKS
    checked = 0
    for block in BLOCKS:
        namespace = {}
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(block, str(README), "exec"), namespace)
        for expr, bound in BOUND.findall(block):
            value = eval(expr, namespace)
            assert value < float(bound), (expr, value, bound)
            checked += 1
    assert checked
