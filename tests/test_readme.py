"""Every fenced ``python`` block of README.md runs as written."""

import os
import re

import pytest

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")

with open(README, encoding="utf-8") as fh:
    BLOCKS = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {})
