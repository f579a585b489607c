"""A wrong output fails the run without skipping the remaining operations."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
from operations import Operation, digest  # noqa: E402


def test_raising_operation_is_counted_and_the_pass_goes_on():
    ops = [Operation("boom", lambda: 1 / 0), Operation("ok", lambda: b"out")]
    result = run.run_pass("cold", ops, {"ok": digest(b"out")}, run.Spans())
    assert (result.attempted, result.failed) == (2, 1)
    assert list(result.outputs) == ["ok"]


def test_corrupted_digest_fails_the_run(capsys):
    expected = dict(run.load_digests("onegpm-compute", 0))
    assert len(expected) == 4
    expected["BPROP@1"] = "0" * 64
    code = run.main(
        ["--workload", "onegpm-compute", "--seed", "0", "--seconds", "1"],
        expected=expected,
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    # One rep: every cold operation and its warm re-pricing still ran.
    assert result["attempted"] == 4 * 2
    assert result["failed"] == 1
    assert result["failed"] / result["attempted"] > 0
