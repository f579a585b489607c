"""Property-based tests for the GPUJoule energy equation (Eq. 4).

The equation is a fixed-coefficient linear form over the counter vector plus
a constant-power term, so three algebraic properties must hold for *any*
counter values: non-negativity, additivity in the counters (at fixed time),
and linearity under integer scaling.  A fourth pins the EDPSE definition:
a configuration measured against itself at N=1 is 100 % efficient.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.edpse import ScalingPoint, edpse
from repro.core.energy_model import EnergyModel, EnergyParams
from repro.core.epi_tables import EPI_TABLE_NJ
from repro.gpu.counters import CounterSet

#: Only opcodes the EPI table prices may appear in Eq. 4's input.
PRICED_OPCODES = sorted(EPI_TABLE_NJ, key=lambda op: op.value)

counts = st.integers(min_value=0, max_value=10**9)
cycle_counts = st.floats(
    min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
)
times = st.floats(
    min_value=0.0, max_value=1e4, allow_nan=False, allow_infinity=False
)
opcode_counts = st.dictionaries(
    st.sampled_from(PRICED_OPCODES), counts, max_size=len(PRICED_OPCODES)
)


@st.composite
def counter_sets(draw):
    return CounterSet(
        instructions=draw(opcode_counts),
        shared_rf_txns=draw(counts),
        l1_rf_txns=draw(counts),
        l2_l1_txns=draw(counts),
        dram_l2_txns=draw(counts),
        inter_gpm_byte_hops=draw(counts),
        switch_byte_traversals=draw(counts),
        compression_codec_bytes=draw(counts),
        sm_idle_cycles=draw(cycle_counts),
    )


def _add(a: CounterSet, b: CounterSet) -> CounterSet:
    merged = CounterSet(
        instructions=dict(a.instructions),
        shared_rf_txns=a.shared_rf_txns + b.shared_rf_txns,
        l1_rf_txns=a.l1_rf_txns + b.l1_rf_txns,
        l2_l1_txns=a.l2_l1_txns + b.l2_l1_txns,
        dram_l2_txns=a.dram_l2_txns + b.dram_l2_txns,
        inter_gpm_byte_hops=a.inter_gpm_byte_hops + b.inter_gpm_byte_hops,
        switch_byte_traversals=(
            a.switch_byte_traversals + b.switch_byte_traversals
        ),
        compression_codec_bytes=(
            a.compression_codec_bytes + b.compression_codec_bytes
        ),
        sm_idle_cycles=a.sm_idle_cycles + b.sm_idle_cycles,
    )
    for opcode, count in b.instructions.items():
        merged.count_instruction(opcode, count)
    return merged


def _scale(a: CounterSet, k: int) -> CounterSet:
    return CounterSet(
        instructions={op: n * k for op, n in a.instructions.items()},
        shared_rf_txns=a.shared_rf_txns * k,
        l1_rf_txns=a.l1_rf_txns * k,
        l2_l1_txns=a.l2_l1_txns * k,
        dram_l2_txns=a.dram_l2_txns * k,
        inter_gpm_byte_hops=a.inter_gpm_byte_hops * k,
        switch_byte_traversals=a.switch_byte_traversals * k,
        compression_codec_bytes=a.compression_codec_bytes * k,
        sm_idle_cycles=a.sm_idle_cycles * k,
    )


MODEL = EnergyModel(EnergyParams(codec_pj_per_byte=0.5))


class TestEvaluateProperties:
    @given(counter_sets(), times)
    @settings(max_examples=50, deadline=None)
    def test_energy_never_negative(self, counters, exec_time_s):
        breakdown = MODEL.evaluate(counters, exec_time_s)
        assert breakdown.total >= 0.0
        for component in breakdown.as_dict().values():
            assert component >= 0.0

    @given(counter_sets(), counter_sets(), times)
    @settings(max_examples=50, deadline=None)
    def test_additive_in_counters_at_fixed_time(self, a, b, exec_time_s):
        # E(a + b, t) == E(a, t) + E(b, t) - E(0, t): every counter term is
        # linear, and the constant-power term depends on time alone.
        merged = MODEL.evaluate(_add(a, b), exec_time_s).total
        constant_only = MODEL.evaluate(CounterSet(), exec_time_s).total
        split = (
            MODEL.evaluate(a, exec_time_s).total
            + MODEL.evaluate(b, exec_time_s).total
            - constant_only
        )
        assert merged == split or abs(merged - split) <= 1e-9 * max(
            abs(merged), abs(split)
        )

    @given(counter_sets(), times, st.integers(min_value=0, max_value=7))
    @settings(max_examples=50, deadline=None)
    def test_linear_under_counter_scaling(self, counters, exec_time_s, k):
        # E(k.c, t) == k.E(c, t) - (k - 1).E(0, t): counter terms scale with
        # k, the constant-power term does not.  Tolerance is relative to the
        # full totals, not their difference (which can cancel to ~0).
        constant_only = MODEL.evaluate(CounterSet(), exec_time_s).total
        once = MODEL.evaluate(counters, exec_time_s).total
        scaled = MODEL.evaluate(_scale(counters, k), exec_time_s).total
        expected = k * once - (k - 1) * constant_only
        assert abs(scaled - expected) <= 1e-9 * max(scaled, k * once, 1e-300)

    @given(counter_sets(), times)
    @settings(max_examples=50, deadline=None)
    def test_breakdown_components_sum_to_total(self, counters, exec_time_s):
        # as_dict() sums in display order, total in field order — equal up
        # to float addition reordering.
        breakdown = MODEL.evaluate(counters, exec_time_s)
        assert breakdown.total == pytest.approx(
            sum(breakdown.as_dict().values()), rel=1e-12, abs=0.0
        )


positive = st.floats(
    min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestEdpseIdentity:
    @given(positive, positive)
    @settings(max_examples=50, deadline=None)
    def test_edpse_is_100_against_itself_at_n1(self, energy_j, delay_s):
        # A configuration is 100 % scaling-efficient against itself (to one
        # rounding of x * 100.0 / x in float64).
        point = ScalingPoint(n=1, energy_j=energy_j, delay_s=delay_s)
        assert point.edpse_over(point) == pytest.approx(100.0, rel=1e-12)
        assert edpse(point.edp(), point.edp(), n=1) == pytest.approx(
            100.0, rel=1e-12
        )
