"""The README's command lines are ones the CLI accepts, and its scenario
example is one the scenario loader accepts."""

import json
import re
import shlex
from pathlib import Path

import pytest

from wlansim.arrays import Scenario
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


def test_readme_scenario_example_loads():
    example = re.search(r"## Scenario files.*?```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert example, "no JSON block under 'Scenario files'"
    Scenario.from_dict(json.loads(example.group(1)))
