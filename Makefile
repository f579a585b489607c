# Convenience targets for the HPCA'19 multi-module GPU reproduction.

PYTHON ?= python

.PHONY: install test bench bench-smoke perf-gate differential reproduce figures figures-smoke examples trace-smoke roofline-smoke idle-smoke clean-cache loc

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# One fast benchmark per family, timing disabled — a CI-sized check that the
# bench harness and its paper-shape assertions still hold.
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest --benchmark-disable -q \
	  benchmarks/bench_config_tables.py \
	  benchmarks/bench_table1b.py \
	  benchmarks/bench_trace_overhead.py \
	  benchmarks/bench_sweetspot.py::test_sweetspot_smoke

# Simulator-throughput gate: perfbench's sim_winst_per_s on this tree
# against the committed files of PERF_BASE (default HEAD: uncommitted edits
# against the last commit), within BENCHMARK.json's bound (see
# docs/PERFORMANCE.md).
PERF_BASE ?= HEAD
perf-gate:
	rm -rf .cache/perf-base && mkdir -p .cache/perf-base
	git archive -o .cache/perf-base.tar $(PERF_BASE)
	tar -xf .cache/perf-base.tar -C .cache/perf-base
	$(PYTHON) src/repro/tools/perf_gate.py --base .cache/perf-base

# Differential suite, all bit-exact: the production cache model against its
# reference oracle, idle-off runs against the pre-idle simulator, and the
# warp/CTA-slot callback chains against generator-process reference bodies.
differential:
	PYTHONPATH=src $(PYTHON) -m pytest tests/differential -q

# Regenerate every paper table/figure (fills .cache/ on first run).
reproduce:
	$(PYTHON) -m repro all

# Regenerate the committed full-tier figure logs in results/fig*/ (run
# this after any change that moves figure numbers; see EXPERIMENTS.md).
figures:
	PYTHONPATH=src $(PYTHON) -m repro figures

# Figure-harness smoke: the quick tier (shrunken workloads, reduced grid)
# regenerates every figure into gitignored quick*.txt files, then the
# workload/figure property tests assert the phase-schedule invariants and
# the llmstudy governor direction (see docs/WORKLOADS.md).
figures-smoke:
	PYTHONPATH=src $(PYTHON) -m repro figures --quick
	PYTHONPATH=src $(PYTHON) -m pytest tests/workloads/test_llm.py \
	  tests/experiments/test_llm_study.py tests/roofline/test_screen_fallback.py -q

# Capture a small Chrome trace and validate it (see docs/OBSERVABILITY.md).
# PYTHONPATH=src keeps this working on boxes that skipped `make install`.
trace-smoke:
	PYTHONPATH=src $(PYTHON) -m repro trace Stream --ctas 32 --gpms 4 --out .cache/trace-smoke.json
	PYTHONPATH=src $(PYTHON) -m repro.tools.validate_trace .cache/trace-smoke.json

# Roofline fast-path check: the committed error-bound manifest must hold
# against a fresh golden re-simulation, the screened-sweep contract tests
# must pass, and the screened-vs-exhaustive bench must clear its >= 5x bar
# (see docs/MODELING.md).
roofline-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.tools.roofline_bounds
	PYTHONPATH=src $(PYTHON) -m pytest tests/roofline -q
	PYTHONPATH=src $(PYTHON) -m pytest --benchmark-disable -q \
	  benchmarks/bench_roofline.py

# Idle-subsystem wall: the differential idle-off bit-identity suite, the
# Hypothesis property wall for sleep states and governors, then a 2-point
# governor comparison that must reproduce the headline race-to-idle win on
# the bursty workload (see docs/POWER.md).
idle-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest tests/differential/test_idle_identity.py \
	  tests/dvfs/test_idle_properties.py -q
	PYTHONPATH=src $(PYTHON) -m repro idle --quick

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/calibrate_gpujoule.py
	$(PYTHON) examples/interconnect_design_space.py
	$(PYTHON) examples/datacenter_upgrade.py

clean-cache:
	rm -rf .cache results

loc:
	@echo "src:";        find src -name '*.py' | xargs wc -l | tail -1
	@echo "tests:";      find tests -name '*.py' | xargs wc -l | tail -1
	@echo "benchmarks:"; find benchmarks -name '*.py' | xargs wc -l | tail -1
	@echo "examples:";   find examples -name '*.py' | xargs wc -l | tail -1
