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
