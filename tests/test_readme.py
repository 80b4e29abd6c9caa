"""Every `hhi ...` line in the README's sh blocks runs and exits 0."""

import pathlib
import re
import shlex

import pytest

from hhi.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The argv of each `hhi` line in the README's sh blocks, comments dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    argvs = (shlex.split(line, comments=True) for block in blocks for line in block.splitlines())
    return [argv[1:] for argv in argvs if argv[:1] == ["hhi"]]


COMMANDS = readme_commands()


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("HHI_CACHE", raising=False)
    assert main(argv) == 0
