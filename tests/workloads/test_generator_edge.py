"""Generator edge cases: degenerate shapes and threshold extremes."""

import pytest

from repro.errors import TraceError
from repro.isa.kernel import WorkloadCategory
from repro.isa.opcodes import Opcode
from repro.isa.program import decode_token
from repro.workloads.generator import WarpProgramBuilder, build_workload
from repro.workloads.spec import WorkloadSpec


def spec_with(**overrides) -> WorkloadSpec:
    base = dict(
        name="Edge", abbr="Edge", category=WorkloadCategory.COMPUTE,
        total_ctas=8, warps_per_cta=1, kernels=1, segments_per_warp=1,
        compute_per_segment=4, accesses_per_segment=2,
        compute_mix={Opcode.FFMA32: 1.0},
        footprint_bytes=8 * 65536,
        seed=7,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestDegenerateShapes:
    def test_compute_only_program(self):
        spec = spec_with(accesses_per_segment=0)
        program = WarpProgramBuilder(spec, 0)(0, 0)
        assert program.total_accesses == 0
        assert program.total_instructions == 4

    def test_memory_only_program(self):
        spec = spec_with(compute_per_segment=0, accesses_per_segment=3)
        program = WarpProgramBuilder(spec, 0)(0, 0)
        assert program.total_accesses == 3
        assert all(not s.compute for s in program)

    def test_single_cta_grid(self):
        spec = spec_with(total_ctas=1, footprint_bytes=65536)
        program = WarpProgramBuilder(spec, 0)(0, 0)
        region = spec.cta_region_bytes
        for segment in program:
            for access in map(decode_token, segment.accesses):
                assert access.address < region or access.address >= 65536

    def test_edge_cta_halo_stays_in_bounds(self):
        spec = spec_with(
            frac_stream=0.0, frac_reuse=0.0, frac_halo=1.0, frac_shared=0.0,
            accesses_per_segment=8,
        )
        builder = WarpProgramBuilder(spec, 0)
        region = spec.cta_region_bytes
        for cta in (0, spec.total_ctas - 1):
            for segment in builder(cta, 0):
                for access in map(decode_token, segment.accesses):
                    owner = access.address // region
                    assert 0 <= owner < spec.total_ctas

    def test_hot_block_larger_than_region_clamped(self):
        spec = spec_with(
            frac_stream=0.0, frac_reuse=1.0, frac_halo=0.0, frac_shared=0.0,
            hot_block_bytes=1 << 30,
        )
        builder = WarpProgramBuilder(spec, 0)
        region = spec.cta_region_bytes
        for segment in builder(3, 0):
            for access in map(decode_token, segment.accesses):
                assert 3 * region <= access.address < 4 * region


class TestWorkloadBuilding:
    def test_zero_kernels_rejected(self):
        # WorkloadSpec itself rejects kernels=0 at construction.
        with pytest.raises(Exception):
            spec_with(kernels=0)

    def test_distinct_seeds_distinct_traffic(self):
        a = WarpProgramBuilder(spec_with(seed=1), 0)(0, 0)
        b = WarpProgramBuilder(spec_with(seed=2), 0)(0, 0)
        addresses_a = [x.address for s in a for x in map(decode_token, s.accesses)]
        addresses_b = [x.address for s in b for x in map(decode_token, s.accesses)]
        assert addresses_a != addresses_b
