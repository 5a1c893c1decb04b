"""The README's command lines are ones the CLI accepts."""

import shlex
from pathlib import Path

import pytest

from wlansim.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
COMMANDS = [
    line for line in README.read_text(encoding="utf-8").splitlines() if line.startswith("wlansim ")
]


def test_readme_has_command_lines():
    assert len(COMMANDS) >= 8


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    argv = shlex.split(line, comments=True)[1:]
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        pytest.fail(f"README line rejected by the parser (exit {exc.code}): {line}")
