"""Warp program, segment, and instruction-folding behaviour."""

import pytest

from repro.errors import TraceError
from repro.isa.instructions import Instruction
from repro.isa.opcodes import MemSpace, Opcode
from repro.isa.program import MemAccess, Segment, WarpProgram, decode_token


class TestMemAccess:
    def test_valid(self):
        access = MemAccess(address=0x1000, size=128)
        assert not access.is_store
        assert access.space is MemSpace.GLOBAL

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            MemAccess(address=-1, size=128)

    def test_zero_size_rejected(self):
        with pytest.raises(TraceError):
            MemAccess(address=0, size=0)


class TestSegment:
    def test_access_tokens_one_per_line_counted_per_warp_access(self):
        segment = Segment(
            compute={Opcode.FFMA32: 2},
            accesses=(
                MemAccess(address=64, size=128, is_store=True),  # two lines
                MemAccess(address=0x30000 + 200, size=128, space=MemSpace.SHARED),
            ),
        )
        fields = [decode_token(token) for token in segment.accesses]
        assert [(f.address, f.is_store, f.space) for f in fields] == [
            (0, True, MemSpace.GLOBAL),
            (128, True, MemSpace.GLOBAL),
            (128, False, MemSpace.SHARED),  # 0x30000 + 200 mod 64 KiB, line-aligned
        ]
        assert segment.warp_accesses == 2
        assert segment.issue_slots == pytest.approx(4.0)
        assert segment.total_instructions == 4
        assert segment.compute_instructions == 2

    def test_issue_slots_include_memory_ops(self):
        segment = Segment(
            compute={Opcode.FFMA32: 10},
            accesses=(MemAccess(address=0, size=128),) * 3,
        )
        assert segment.issue_slots == pytest.approx(13.0)
        assert segment.total_instructions == 13
        assert segment.compute_instructions == 10

    def test_issue_weights_applied(self):
        segment = Segment(compute={Opcode.FFMA64: 4})  # weight 3
        assert segment.issue_slots == pytest.approx(12.0)

    def test_memory_opcode_in_compute_rejected(self):
        with pytest.raises(TraceError):
            Segment(compute={Opcode.LDG: 1})

    def test_negative_count_rejected(self):
        with pytest.raises(TraceError):
            Segment(compute={Opcode.FADD32: -1})

    def test_empty_segment_allowed(self):
        segment = Segment()
        assert segment.issue_slots == 0.0
        assert segment.total_instructions == 0


class TestWarpProgram:
    def test_totals(self):
        segments = [
            Segment(compute={Opcode.FADD32: 5},
                    accesses=(MemAccess(address=0, size=128),)),
            Segment(compute={Opcode.FMUL32: 3}),
        ]
        program = WarpProgram(segments)
        assert len(program) == 2
        assert program.total_instructions == 9
        assert program.total_accesses == 1

    def test_empty_program_rejected(self):
        with pytest.raises(TraceError):
            WarpProgram([])

    def test_iteration_preserves_order(self):
        segments = [Segment(compute={Opcode.FADD32: i + 1}) for i in range(4)]
        program = WarpProgram(segments)
        assert [s.compute[Opcode.FADD32] for s in program] == [1, 2, 3, 4]


class TestFromInstructions:
    def test_folds_consecutive_compute(self):
        instructions = [
            Instruction(Opcode.FADD32),
            Instruction(Opcode.FADD32),
            Instruction(Opcode.LDG, address=0x100, size=128),
            Instruction(Opcode.FMUL32),
        ]
        program = WarpProgram.from_instructions(instructions)
        assert len(program) == 2
        first, second = program.segments
        assert first.compute == {Opcode.FADD32: 2}
        assert len(first.accesses) == 1
        assert second.compute == {Opcode.FMUL32: 1}
        assert second.accesses == ()

    def test_memory_closes_segment_with_mlp_one(self):
        instructions = [
            Instruction(Opcode.LDG, address=0, size=128),
            Instruction(Opcode.LDG, address=128, size=128),
        ]
        program = WarpProgram.from_instructions(instructions)
        # Dependent chase semantics: one access per segment.
        assert len(program) == 2
        assert all(len(s.accesses) == 1 for s in program)

    def test_shared_space_preserved(self):
        program = WarpProgram.from_instructions(
            [Instruction(Opcode.LDS, address=64, size=128)]
        )
        assert decode_token(program.segments[0].accesses[0]).space is MemSpace.SHARED

    def test_store_flag_preserved(self):
        program = WarpProgram.from_instructions(
            [Instruction(Opcode.STG, address=64, size=128)]
        )
        assert decode_token(program.segments[0].accesses[0]).is_store

    def test_control_instructions_folded_away(self):
        program = WarpProgram.from_instructions(
            [Instruction(Opcode.FADD32), Instruction(Opcode.BRA)]
        )
        assert program.total_instructions == 1

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            WarpProgram.from_instructions([])


class TestInstruction:
    def test_memory_requires_address(self):
        with pytest.raises(TraceError):
            Instruction(Opcode.LDG)

    def test_compute_rejects_address(self):
        with pytest.raises(TraceError):
            Instruction(Opcode.FADD32, address=0, size=4)

    def test_spaces(self):
        assert Instruction(Opcode.LDS, address=0, size=128).mem_space is MemSpace.SHARED
        assert Instruction(Opcode.LDG, address=0, size=128).mem_space is MemSpace.GLOBAL
        assert Instruction(Opcode.FADD32).mem_space is None
