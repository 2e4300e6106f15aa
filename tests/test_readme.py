"""Every ```python block of README.md runs as written.

The blocks read ``demo.txt``, so each runs in a fresh directory holding the
instance that the Quick start's ``pmmwm generate ... --out demo.txt``
command writes.
"""

import os
import re
import shlex

import pytest

from pmmwm import cli

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
with open(README, encoding="utf-8") as fh:
    TEXT = fh.read()
# each block padded to its README line, so that tracebacks name that line
BLOCKS = ["\n" * TEXT.count("\n", 0, match.start(1)) + match[1]
          for match in re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.M | re.S)]


def _generate_args() -> list[str]:
    commands = TEXT.split("## Quick start", 1)[1].replace("\\\n", " ")
    for line in commands.splitlines():
        args = shlex.split(line, comments=True)
        if args[:2] == ["pmmwm", "generate"] and "demo.txt" in args:
            return args[1:]
    raise AssertionError("the Quick start writes no demo.txt")


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_python_block_runs(block, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(_generate_args()) == 0
    capsys.readouterr()
    exec(compile(block, README, "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()
