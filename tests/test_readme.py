"""Every example of the README's "Command line" block runs and exits 0."""

import shlex
from pathlib import Path

import pytest

from fria.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    """The ``fria ...`` lines of the first ``sh`` block after "## Command line",
    with backslash continuations joined and ``#`` comments stripped."""
    text = README.read_text().split("## Command line", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        line = " ".join(line.split("#", 1)[0].split())
        if line.startswith("fria "):
            commands.append(line)
    assert commands, "README's Command line block has no fria examples"
    return commands


@pytest.mark.parametrize("command", _examples())
def test_readme_example_exits_zero(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(command)[1:])
    err = capsys.readouterr().err
    assert code == 0, err
