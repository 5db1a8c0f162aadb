"""The docs cite only commands, files and numbers that exist.

Every ``python -m repro runtime <cmd>`` in the README, EXPERIMENTS and
the verify recipe must name a subcommand the CLI parser knows, and every
``benchmarks/...py`` or ``src/...py`` path they cite must be in the
repository, so deleting a command or a script fails here until the docs
stop citing it.  The README's membership table (per-peer control rates)
must match the ``member/*`` rows of ``benchmarks/BENCH_runtime.json``,
so re-recording the rows fails here until the README quotes them.  The
crash-detection latencies are wall-clock and move on every re-record,
so the README quotes the bound every row is gated on instead.  The call
budgets the README quotes must be the ones the tier-1 budget tests
enforce, and its span-sampling constants the ones ``spans.py`` uses.
"""

import argparse
import ast
import json
import re
from pathlib import Path

import pytest

from repro.runtime import spans
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


#: One README membership-table line, e.g.
#: ``| cm5 | control frames/peer/period | 2.8 | 3.5 | 3.7 |``.
MEMBER_ROW = re.compile(
    r"^\| (cm5|cr) \| control frames/peer/period "
    r"\| ([\d.]+) \| ([\d.]+) \| ([\d.]+) \|$", re.MULTILINE)

MEMBER_SIZES = (8, 32, 64)

#: The README's statement of the crash-detection bound.
DETECTION_BOUND = re.compile(r"detects the crash within (\d+) ms")


def _member_rows():
    return json.loads(
        (ROOT / "benchmarks" / "BENCH_runtime.json").read_text())["member"]


def test_readme_membership_numbers_match_bench_rows():
    text = (ROOT / "README.md").read_text()
    rows = _member_rows()
    quoted = {mode: values for mode, *values in MEMBER_ROW.findall(text)}
    assert set(quoted) == {"cm5", "cr"}, \
        "README must quote every member/* control rate"
    for mode, values in quoted.items():
        for peers, value in zip(MEMBER_SIZES, values):
            measured = rows[f"{mode}/p{peers}"][
                "control_frames_per_peer_per_period"]
            assert value == f"{measured:.1f}", \
                f"README quotes control rate {value} for member/{mode}/p{peers}"


def test_readme_detection_bound_matches_bench_rows():
    match = DETECTION_BOUND.search(
        " ".join((ROOT / "README.md").read_text().split()))
    assert match, "README must state the crash-detection bound"
    for cell, row in _member_rows().items():
        assert round(row["detection_bound_s"] * 1000) == int(match.group(1)), \
            f"README's detection bound differs from member/{cell}'s"
        assert row["detection_within_bound"] is True, \
            f"member/{cell} did not detect the crash within its bound"


#: The README's statement of the per-frame, per-message, per-ack,
#: per-run, per-send-run and per-burst call budgets.
BUDGET_TEXT = re.compile(
    r"at most (\d+) calls untraced and (\d+) traced\b.*?\bat most (\d+) calls\b"
    r".*?\bat most (\d+) calls\b.*?\bat most (\d+) calls\b"
    r".*?\bat most (\d+) calls\b.*?\bat most (\d+) calls\b")

#: Where the budgets are enforced.
BUDGET_TESTS = ROOT / "tests" / "runtime" / "test_runtime_endpoint.py"


def _module_literal(path, name):
    """The literal value a module assigns to ``name`` at top level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise KeyError(f"{path.name} assigns no {name}")


def test_readme_call_budgets_match_the_budget_tests():
    text = " ".join((ROOT / "README.md").read_text().split())
    match = BUDGET_TEXT.search(text)
    assert match, ("README must state the frame, message, ack, run, "
                   "send-run and burst call budgets")
    frame = _module_literal(BUDGET_TESTS, "FRAME_CALL_BUDGETS")
    message = _module_literal(BUDGET_TESTS, "MESSAGE_CALL_BUDGET")
    ack = _module_literal(BUDGET_TESTS, "ACK_CALL_BUDGET")
    run = _module_literal(BUDGET_TESTS, "RUN_CALL_BUDGET")
    send_run = _module_literal(BUDGET_TESTS, "SEND_RUN_CALL_BUDGET")
    burst = _module_literal(BUDGET_TESTS, "BURST_CALL_BUDGET")
    assert tuple(map(int, match.groups())) == (
        frame["untraced"], frame["traced"], message, ack, run, send_run,
        burst)


#: The README's statement of span sampling and the per-span call costs.
SPAN_TEXT = re.compile(
    r"first (\d+) activations .*? one activation in (\d+) .*?"
    r"timed span costs (\d+) calls .*? untimed one (\d+)\b")

#: Where the per-span budgets are enforced.
SPAN_TESTS = ROOT / "tests" / "runtime" / "test_runtime_spans.py"


def test_readme_span_costs_match_the_budget_tests():
    text = " ".join((ROOT / "README.md").read_text().split())
    match = SPAN_TEXT.search(text)
    assert match, "README must state span sampling and per-span costs"
    prefix, every, timed, untimed = map(int, match.groups())
    assert (prefix, every) == (spans.EXACT_ACTIVATIONS, spans.SAMPLE_EVERY)
    budgets = _module_literal(SPAN_TESTS, "SPAN_CALL_BUDGETS")
    assert (timed, untimed) == (budgets["timed"], budgets["untimed"])
