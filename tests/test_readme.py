"""Every command of README's "Command line" block runs and exits 0."""

import shlex
from pathlib import Path

import pytest

from cantorenv.cli import main

ROOT = Path(__file__).resolve().parent.parent


def readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    block = block.split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("cantorenv ")]


def test_block_lists_the_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_exits_zero(line, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out
