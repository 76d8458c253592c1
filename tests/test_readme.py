"""The examples in README.md run as shown: each python block, with the
values its comments claim, and the command-line transcript, replayed
through cli.main."""

import re
import shlex
from pathlib import Path

import pytest

from injhom.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
# a code line and the value its trailing comment claims, up to a ';' or ': '
CLAIM = re.compile(r"^(\S.*?)\s+#\s+(.*?)(?:[;:]\s.*)?$")


def test_readme_examples_found():
    assert len(PYTHON_BLOCKS) == 4
    assert "\n$ injhom " in README


@pytest.mark.parametrize("block", PYTHON_BLOCKS, ids=lambda b: b.split("\n", 1)[0])
def test_python_block_runs_and_shows_what_it_claims(block, capsys):
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    prints = 0
    for line in block.splitlines():
        if line.startswith("print("):
            prints += 1
        claim = CLAIM.match(line)
        if not claim:
            continue
        code, value = claim.groups()
        if code.startswith("print("):
            assert printed[prints - 1] == value, line
        else:
            assert str(eval(code, namespace)) == value, line


def test_command_line_transcript_replays(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    transcript = re.search(r"^```\n(\$ injhom .*?)^```", README, re.M | re.S).group(1)
    for step in re.split(r"^\$ ", transcript, flags=re.M)[1:]:
        command, *shown = step.splitlines()
        main(shlex.split(command)[1:])
        assert capsys.readouterr().out.splitlines() == shown, command
