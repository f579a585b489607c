"""The layer map covers the program, and BENCHMARK.json stays in contract."""

import json
import re
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from layers import LAYERS, SRC_REPRO, layer_of  # noqa: E402
from operations import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_every_repro_file_maps_to_a_named_layer():
    files = sorted(SRC_REPRO.rglob("*.py"))
    assert files
    stray = [
        file.relative_to(SRC_REPRO).as_posix()
        for file in files
        if layer_of(str(file)) not in LAYERS or layer_of(str(file)) == "other"
    ]
    assert stray == []


def test_code_outside_repro_is_other():
    assert layer_of(json.__file__) == "other"
    assert layer_of(run.__file__) == "other"
    assert layer_of("~") == "other"


def test_metric_names_units_and_caps():
    end_to_end, per_layer = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]
    assert 1 <= len(end_to_end) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [m["name"] for m in end_to_end + per_layer + BENCHMARK["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in end_to_end + per_layer:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    for metric in end_to_end:
        assert 0 < metric["bound"] <= 0.25, metric


def test_benchmark_json_lists_what_the_run_prints():
    def units(metrics):
        return {m["name"]: m["unit"] for m in metrics}

    assert units(BENCHMARK["end_to_end"]) == run.END_TO_END
    assert units(BENCHMARK["per_layer"]) == run.PER_LAYER
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == WORKLOADS
