"""The package root carries its version and nothing else: each name is
imported from the module that defines it.  The README's code runs."""

import re
from pathlib import Path

import invseries

README = Path(__file__).resolve().parents[1] / "README.md"


def test_version():
    assert invseries.__version__


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "| iter | x |" in capsys.readouterr().out
