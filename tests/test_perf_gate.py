"""The perfbench throughput gate: its decision on recorded run outputs."""

import json
from pathlib import Path

import pytest

from repro.tools import perf_gate
from repro.tools.perf_gate import METRIC, bound_of, verdict

ROOT = Path(__file__).resolve().parents[1]


def _run(value=1e6, failed=0, code=0):
    """``(returncode, stdout)`` shaped like one ``perfbench/run.py`` run."""
    result = {
        "correct": failed == 0,
        "attempted": 8,
        "failed": failed,
        "metrics": {METRIC: {"value": value, "unit": "winst/s"}},
    }
    header = f"onegpm-compute: seed 15, 1 reps\n  {METRIC} {value:.6g}\n"
    return code, header + json.dumps(result) + "\n"


class TestVerdict:
    def test_passes_within_the_bound(self):
        passed, line = verdict(
            "onegpm-compute", [_run(76.0)] * 3, [_run(100.0)] * 3, 0.25
        )
        assert passed
        assert line.startswith("perf-gate: ok")

    def test_fails_just_beyond_the_bound(self):
        passed, line = verdict(
            "multigpm-mem", [_run(74.9)] * 3, [_run(100.0)] * 3, 0.25
        )
        assert not passed
        assert "\n" not in line
        assert METRIC in line and "multigpm-mem" in line and "25%" in line

    def test_compares_medians(self):
        # One slow outlier per side moves neither median.
        head = [_run(99.0), _run(10.0), _run(101.0)]
        base = [_run(100.0), _run(100.0), _run(1000.0)]
        assert verdict("onegpm-compute", head, base, 0.25)[0]

    @pytest.mark.parametrize(
        "bad",
        [_run(failed=1, code=1), _run(failed=2), (1, ""), (2, "error\n")],
        ids=["failed-ops", "failed-ops-exit-0", "no-output", "no-json"],
    )
    @pytest.mark.parametrize("side", ["change", "base"])
    def test_fails_when_a_run_fails(self, bad, side):
        runs = {"change": [_run()] * 3, "base": [_run()] * 3}
        runs[side] = [_run(), bad, _run()]
        passed, line = verdict(
            "onegpm-compute", runs["change"], runs["base"], 0.25
        )
        assert not passed
        assert f"a {side} run exited" in line

    def test_bound_comes_from_benchmark_json(self, tmp_path):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = next(
            m["bound"] for m in declared["end_to_end"] if m["name"] == METRIC
        )
        assert bound_of(ROOT / "BENCHMARK.json") == expected
        declared["end_to_end"] = [
            {**m, "bound": 0.1} if m["name"] == METRIC else m
            for m in declared["end_to_end"]
        ]
        (tmp_path / "BENCHMARK.json").write_text(json.dumps(declared))
        bound = bound_of(tmp_path / "BENCHMARK.json")
        assert bound == 0.1
        head, base = [_run(85.0)] * 3, [_run(100.0)] * 3
        assert verdict("onegpm-compute", head, base, expected)[0]
        assert not verdict("onegpm-compute", head, base, bound)[0]


def _fake_tree(root: Path, value: float) -> Path:
    """A tree whose ``perfbench/run.py`` always reports ``value``."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    _, stdout = _run(value)
    (root / "perfbench" / "run.py").write_text(
        f"print({stdout.strip().splitlines()[-1]!r})\n"
    )
    return root


class TestMain:
    @pytest.mark.parametrize(("head", "exit_code"), [(95.0, 0), (50.0, 1)])
    def test_runs_both_trees_and_exits_on_the_verdict(
        self, tmp_path, monkeypatch, capsys, head, exit_code
    ):
        base = _fake_tree(tmp_path / "base", 100.0)
        monkeypatch.chdir(_fake_tree(tmp_path / "head", head))
        assert perf_gate.main(["--base", str(base)]) == exit_code
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[4] for line in lines] == [
            f"{workload}:" for workload in perf_gate.WORKLOADS
        ]
