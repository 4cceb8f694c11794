"""README's command line block runs and exits 0, and its Python blocks do what they say."""

import ast
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


def readme_python_blocks() -> list[str]:
    text = (ROOT / "README.md").read_text()
    return [part.split("```", 1)[0] for part in text.split("```python\n")[1:]]


def test_python_blocks_do_what_their_comments_say(capsys):
    # both blocks run in one namespace, as the second reads the first's `flip`;
    # the value of every bare expression is kept under its source text
    namespace, values = {}, {}
    blocks = readme_python_blocks()
    assert len(blocks) == 2
    for block in blocks:
        for stmt in ast.parse(block).body:
            source = ast.get_source_segment(block, stmt)
            if isinstance(stmt, ast.Expr):
                values[source] = eval(source, namespace)
            else:
                exec(source, namespace)
    assert values['hausdorff_decide(flip, bound=4).verdict'] == "clopen"
    cert = namespace["cert"]
    assert (cert.verdict, cert.t, str(cert.point)) == ("non-clopen-witness", -1, "(1)")
    assert next(v for s, v in values.items() if s.startswith("related(")) is True
    assert capsys.readouterr().out.startswith("digraph bratteli {")
    assert namespace["eps"] == -1
    one = namespace["indicator"](namespace["ClopenSet"].parse("{1}"))
    assert values["k.table"] == (((0, -1), one),) and values["k.at(0, -1)"] == one
    assert values["k.shift(1).indices"] == ((-1, -2),)
    assert values["k.corner(0, -1) == k"] is True
