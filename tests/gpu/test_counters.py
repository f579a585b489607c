"""CounterSet arithmetic."""

import pytest

from repro.gpu.counters import ComputeTally, CounterSet
from repro.isa.opcodes import Opcode


def sample_counters() -> CounterSet:
    counters = CounterSet()
    counters.count_instruction(Opcode.FFMA32, 100)
    counters.count_instruction(Opcode.FADD64, 10)
    counters.shared_rf_txns = 5
    counters.l1_rf_txns = 50
    counters.l2_l1_txns = 80
    counters.dram_l2_txns = 40
    counters.inter_gpm_bytes = 1024
    counters.inter_gpm_byte_hops = 4096
    counters.switch_byte_traversals = 256
    counters.sm_busy_cycles = 500.0
    counters.sm_idle_cycles = 300.0
    counters.elapsed_cycles = 800.0
    counters.local_accesses = 45
    counters.remote_accesses = 5
    counters.l1_hits = 30
    counters.l1_misses = 20
    counters.l2_hits = 8
    counters.l2_misses = 12
    counters.dirty_writebacks = 3
    return counters


class TestCounting:
    def test_instruction_accumulation(self):
        counters = CounterSet()
        counters.count_instruction(Opcode.FFMA32, 3)
        counters.count_instruction(Opcode.FFMA32, 2)
        assert counters.instructions[Opcode.FFMA32] == 5
        assert counters.total_instructions == 5

    def test_compute_map(self):
        counters = CounterSet()
        tally = ComputeTally()
        tally.add({Opcode.FADD32: 4, Opcode.IADD32: 6})
        tally.add({Opcode.FADD32: 1})
        tally.fold_into(counters)
        assert counters.instructions[Opcode.FADD32] == 5
        assert counters.total_instructions == 11

    def test_tally_matches_per_segment_counting(self):
        """Folding a tally gives the counts and the key order that adding
        each segment's map in execution order gives."""
        shared = {Opcode.FFMA32: 3, Opcode.FADD64: 1}
        other = {Opcode.IADD32: 2, Opcode.FFMA32: 1}
        executed = [shared, other, shared, {Opcode.SIN32: 1}, shared, other]
        expected = CounterSet()
        for compute in executed:
            for opcode, count in compute.items():
                expected.count_instruction(opcode, count)
        tally = ComputeTally()
        for compute in executed:
            tally.add(compute)
        counters = CounterSet()
        tally.fold_into(counters)
        assert counters.instructions == expected.instructions
        assert list(counters.instructions) == list(expected.instructions)
        assert tally.entries == {}

    def test_derived_rates(self):
        counters = sample_counters()
        assert counters.remote_fraction == pytest.approx(0.1)
        assert counters.l1_hit_rate == pytest.approx(0.6)
        assert counters.l2_hit_rate == pytest.approx(0.4)

    def test_rates_on_empty(self):
        counters = CounterSet()
        assert counters.remote_fraction == 0.0
        assert counters.l1_hit_rate == 0.0
        assert counters.l2_hit_rate == 0.0


class TestMerge:
    def test_merge_adds_everything(self):
        a = sample_counters()
        b = sample_counters()
        a.merge(b)
        assert a.instructions[Opcode.FFMA32] == 200
        assert a.l1_rf_txns == 100
        assert a.elapsed_cycles == pytest.approx(1600.0)
        assert a.sm_idle_cycles == pytest.approx(600.0)
        assert a.dirty_writebacks == 6

    def test_merge_into_empty(self):
        empty = CounterSet()
        empty.merge(sample_counters())
        assert empty.total_instructions == 110


class TestScaled:
    def test_scaling_multiplies_counts(self):
        scaled = sample_counters().scaled(10.0)
        assert scaled.instructions[Opcode.FFMA32] == 1000
        assert scaled.dram_l2_txns == 400
        assert scaled.elapsed_cycles == pytest.approx(8000.0)

    def test_scaling_preserves_ratios(self):
        original = sample_counters()
        scaled = original.scaled(3.0)
        assert scaled.remote_fraction == pytest.approx(original.remote_fraction)
        assert scaled.l1_hit_rate == pytest.approx(original.l1_hit_rate)

    def test_identity_scaling(self):
        original = sample_counters()
        scaled = original.scaled(1.0)
        assert scaled.instructions == original.instructions
        assert scaled.dram_l2_txns == original.dram_l2_txns
