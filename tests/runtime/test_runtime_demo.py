"""Tests of the runtime CLI (``python -m repro runtime ...``)."""

import json

import pytest

from repro.__main__ import main


@pytest.mark.parametrize("fmt", ["jsonl", "chrome", "events"])
def test_journey_command_exports_each_format(fmt, tmp_path, capsys):
    out = tmp_path / f"journey.{fmt}"
    code = main(["runtime", "journey", "--packets", "4", "--format", fmt,
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().out
    if fmt == "chrome":
        records = json.loads(out.read_text())["traceEvents"]
        phases = [record["ph"] for record in records]
        assert phases.count("s") == phases.count("f") > 0
        assert phases.count("X") >= 1
        return
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    # Both formats carry the run label: all six protocol x mode cells.
    assert len({line["label"] for line in lines}) == 6
    if fmt == "events":
        assert {"ts_ns", "event", "endpoint"} <= set(lines[0])
    else:
        assert {"stages", "total_ns", "complete"} <= set(lines[0])


def test_chaos_trace_carries_counter_tracks_and_fault_marks(tmp_path, capsys):
    """``--trace`` alone exports the timeline's counter tracks and the
    fault schedule as MARK instants, not only the packet events.  Each
    instant's Perfetto category is its event type: the several MARK
    texts share one category, their text stays in ``args``."""
    out = tmp_path / "chaos.json"
    code = main(["runtime", "chaos", "--smoke", "--scenario", "burst-loss",
                 "--mode", "cr", "--trace", str(out)])
    assert code == 0, capsys.readouterr().out
    records = json.loads(out.read_text())["traceEvents"]
    counters = [r for r in records if r["ph"] == "C"]
    assert {r["name"].rsplit("/", 1)[-1] for r in counters} == {
        "tx", "rx", "pending"}
    instants = [r for r in records if r["ph"] == "i"]
    marks = {r["args"]["kind"] for r in instants if r["name"] == "MARK"}
    assert "burst drop=0.25 corrupt=0.05" in marks
    assert len(marks) > 1
    assert {r["cat"] for r in instants if r["name"] == "MARK"} == {"MARK"}
    assert all(r["cat"] == r["name"] for r in instants)


#: The fault and deadline defaults each load-driving command has always
#: had: (drop, dup, reorder, seed, deadline).
COMMAND_DEFAULTS = {
    "demo": (0.0, 0.0, 0.25, 0x5CA1E, 60.0),
    "journey": (0.02, 0.0, 0.25, 0x5CA1E, 60.0),
    "load": (0.01, 0.0, 0.05, 0x5CA1E, 60.0),
    "chaos": (0.01, 0.01, 0.05, 0xC4A05, 30.0),
}


@pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
def test_shared_load_options_keep_each_commands_defaults(command):
    """One parent parser carries the shared LoadConfig fields; each
    command's defaults are its own base config's, and unchanged."""
    import argparse

    from repro.runtime import demo

    parser = argparse.ArgumentParser()
    demo.add_runtime_subparsers(parser)
    args = parser.parse_args([command])
    parsed = tuple(getattr(args, name) for name in demo.LOAD_OPTIONS)
    base = demo.COMMAND_DEFAULTS[command]
    assert parsed == tuple(getattr(base, name) for name in demo.LOAD_OPTIONS)
    assert parsed == COMMAND_DEFAULTS[command]
    args = parser.parse_args([command, "--drop-rate", "0.5", "--seed", "3"])
    assert (args.drop_rate, args.seed) == (0.5, 3)
