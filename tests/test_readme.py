"""The examples of README.md run as written.

Every ```python block is executed, and every ```sh block that starts
with `$ avgmix ...` is run through `cli.main`; its stdout must equal the
rest of the block byte for byte.
"""

import re
import shlex
from pathlib import Path

import pytest

from avgmix.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
SHELL = [body for lang, body in BLOCKS if lang == "sh" and body.startswith("$ avgmix ")]


def test_readme_has_examples():
    assert PYTHON and SHELL


@pytest.mark.parametrize("code", PYTHON, ids=lambda code: code.splitlines()[-1])
def test_python_example_runs(code):
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("block", SHELL, ids=lambda block: block.splitlines()[0])
def test_cli_example_prints_its_output(capsys, block):
    command, _, expected = block.partition("\n")
    assert main(shlex.split(command)[2:]) == 0
    assert capsys.readouterr().out == expected
