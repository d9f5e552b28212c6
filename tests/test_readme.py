"""The README's examples run as written: the library example's commented
values, and the CLI commands it shows, each exiting with code 0."""

import ast
import re
import shlex
from pathlib import Path

from hodgekit import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def section(title):
    """The README text under the heading ``## title``, up to the next one."""
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def code_blocks(text, lang):
    return re.findall(rf"```{lang}\n(.*?)```", text, re.S)


def test_library_example_gives_its_commented_values():
    (block,) = code_blocks(section("Library example"), "python")
    setup, checks = [], []
    for line in block.splitlines():
        expression, _, value = line.partition("#")
        if value:
            checks.append((expression.strip(), ast.literal_eval(value.strip())))
        else:
            setup.append(line)
    namespace = {}
    exec("\n".join(setup), namespace)
    assert len(checks) == 4
    for expression, value in checks:
        assert eval(expression, namespace) == value, expression


def test_cli_examples_exit_0(capsys):
    # every sh block of the CLI section but the one reading a spec file
    # that the README only describes
    blocks = [b for b in code_blocks(section("CLI"), "sh") if "--spec" not in b]
    commands = [shlex.split(line.partition("#")[0])
                for block in blocks for line in block.splitlines()]
    assert [argv[:2] for argv in commands] == (
        [["hodgekit", "diamond"]] * 6 + [["hodgekit", "verify-paper"]] * 2)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
        assert capsys.readouterr().out
