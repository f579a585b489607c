"""Property-based tests on warp-program structure and instruction folding."""

from hypothesis import given, settings, strategies as st

from repro.isa.instructions import Instruction
from repro.isa.opcodes import COMPUTE_OPCODES, Opcode
from repro.isa.program import MemAccess, Segment, WarpProgram, decode_token

compute_ops = st.sampled_from(COMPUTE_OPCODES)
instruction_lists = st.lists(
    st.one_of(
        compute_ops.map(Instruction),
        st.integers(min_value=0, max_value=1 << 20).map(
            lambda line: Instruction(Opcode.LDG, address=line * 128, size=128)
        ),
        st.integers(min_value=0, max_value=1 << 20).map(
            lambda line: Instruction(Opcode.STG, address=line * 128, size=128)
        ),
    ),
    min_size=1,
    max_size=64,
)


class TestFoldingProperties:
    @given(instruction_lists)
    @settings(max_examples=100, deadline=None)
    def test_instruction_count_preserved(self, instructions):
        program = WarpProgram.from_instructions(instructions)
        assert program.total_instructions == len(instructions)

    @given(instruction_lists)
    @settings(max_examples=100, deadline=None)
    def test_access_count_preserved(self, instructions):
        program = WarpProgram.from_instructions(instructions)
        memory_count = sum(1 for i in instructions if i.opcode.is_memory)
        assert program.total_accesses == memory_count

    @given(instruction_lists)
    @settings(max_examples=100, deadline=None)
    def test_access_order_preserved(self, instructions):
        program = WarpProgram.from_instructions(instructions)
        original = [
            (i.address, i.is_store)
            for i in instructions
            if i.opcode.is_memory
        ]
        folded = [
            (a.address, a.is_store)
            for segment in program
            for a in map(decode_token, segment.accesses)
        ]
        assert folded == original

    @given(instruction_lists)
    @settings(max_examples=100, deadline=None)
    def test_issue_slots_at_least_instruction_count(self, instructions):
        """Issue weights are >= 1, so slots bound instructions from above."""
        program = WarpProgram.from_instructions(instructions)
        total_slots = sum(segment.issue_slots for segment in program)
        assert total_slots >= program.total_instructions - 1e-9


class TestSegmentProperties:
    @given(
        st.dictionaries(compute_ops, st.integers(min_value=0, max_value=100),
                        max_size=5),
        st.integers(min_value=0, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_segment_totals_consistent(self, compute, num_accesses):
        accesses = tuple(
            MemAccess(address=i * 128, size=128) for i in range(num_accesses)
        )
        segment = Segment(compute=compute, accesses=accesses)
        assert segment.total_instructions == (
            sum(compute.values()) + num_accesses
        )
        assert segment.compute_instructions == sum(compute.values())
        expected_slots = sum(
            count * opcode.issue_weight for opcode, count in compute.items()
        ) + num_accesses
        assert abs(segment.issue_slots - expected_slots) < 1e-9
