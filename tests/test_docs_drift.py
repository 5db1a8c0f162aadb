"""The docs cite only commands and files that exist.

Every ``python -m repro runtime <cmd>`` in the README, EXPERIMENTS and
the verify recipe must name a subcommand the CLI parser knows, and every
``benchmarks/...py`` or ``src/...py`` path they cite must be in the
repository, so deleting a command or a script fails here until the docs
stop citing it.
"""

import argparse
import re
from pathlib import Path

import pytest

from repro.runtime.demo import add_runtime_subparsers

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md")

COMMAND = re.compile(r"python3? -m repro runtime\s+([a-z][\w-]*)")
PATH = re.compile(r"(?<![\w/.-])((?:benchmarks|src)/[\w/.-]*\.py)\b")


def _runtime_commands():
    parser = argparse.ArgumentParser()
    add_runtime_subparsers(parser)
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    return set(sub.choices)


@pytest.mark.parametrize("doc", DOCS)
def test_cited_runtime_commands_exist(doc):
    text = (ROOT / doc).read_text()
    unknown = sorted(set(COMMAND.findall(text)) - _runtime_commands())
    assert unknown == [], f"{doc} cites unknown runtime commands"


@pytest.mark.parametrize("doc", DOCS)
def test_cited_source_paths_exist(doc):
    text = (ROOT / doc).read_text()
    missing = sorted(path for path in set(PATH.findall(text))
                     if not (ROOT / path).is_file())
    assert missing == [], f"{doc} cites missing files"
