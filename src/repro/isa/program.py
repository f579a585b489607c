"""Warp programs: the execution unit consumed by the performance simulator.

A warp program is a sequence of :class:`Segment` objects.  Each segment is a
run of compute instructions followed by a group of memory accesses the warp
issues together; the warp stalls at the end of the segment until all of its
accesses have returned (a per-segment dependence barrier).  This matches how
GPU compilers schedule loads early and consume them later, and gives the
simulator a natural memory-level-parallelism knob: the number of accesses per
segment is the MLP the warp exposes.

Segments keep *aggregate* compute counts (``{opcode: count}``) rather than
instruction lists, so a warp advances in O(1) events per segment instead of
per instruction — the key to simulating 32-GPM systems in pure Python.

A segment's accesses are *access tokens*: plain ints, one per cache line a
global access touches (one per shared access), packed as
``line_address | store | shared << 1``.  The memory path walks a segment's
tokens without an object per access.  :class:`MemAccess` survives only as
the literal, readable input to ``Segment(...)``, which packs it
(:func:`pack_access`); :func:`decode_token` turns a token back into fields.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import TraceError
from repro.isa.instructions import Instruction
from repro.isa.opcodes import MemSpace, Opcode
from repro.units import CACHE_LINE_BYTES

#: Token flag bits, below the line-aligned address.
STORE_FLAG: int = 1
SHARED_FLAG: int = 2
#: ``token & ADDRESS_MASK`` is the token's line-aligned address.
ADDRESS_MASK: int = -CACHE_LINE_BYTES

#: Shared-memory tokens keep the scratchpad offset ``address % 64 KiB``,
#: aligned down to its line; no timing or count depends on it.
SHARED_SPACE_BYTES: int = 64 * 1024


class MemAccess:
    """One coalesced warp-level memory access, as literal program input.

    Attributes:
        address: byte address (the hierarchy aligns it to its line size).
        size: bytes moved for the warp (128 for a fully coalesced access).
        is_store: True for stores.
        space: GLOBAL accesses traverse L1/L2/DRAM; SHARED accesses hit the
            on-SM scratchpad and never leave the SM.

    ``Segment(...)`` packs each access into tokens; simulation never sees
    the object itself.
    """

    __slots__ = ("address", "size", "is_store", "space")

    def __init__(
        self,
        address: int,
        size: int,
        is_store: bool = False,
        space: MemSpace = MemSpace.GLOBAL,
    ):
        if address < 0:
            raise TraceError(f"negative address: {address!r}")
        if size <= 0:
            raise TraceError(f"non-positive access size: {size!r}")
        self.address = address
        self.size = size
        self.is_store = is_store
        self.space = space

    def __repr__(self) -> str:
        return (
            f"MemAccess(address={self.address!r}, size={self.size!r},"
            f" is_store={self.is_store!r}, space={self.space!r})"
        )


def pack_access(access: MemAccess) -> tuple[int, ...]:
    """The tokens of one warp access: one per line touched, in address order.

    A shared access is one token whatever its size: the scratchpad moves it
    as a single shared->RF transaction.
    """
    store = STORE_FLAG if access.is_store else 0
    if access.space is MemSpace.SHARED:
        offset = (access.address % SHARED_SPACE_BYTES) & ADDRESS_MASK
        return (offset | SHARED_FLAG | store,)
    first = access.address // CACHE_LINE_BYTES
    last = (access.address + access.size - 1) // CACHE_LINE_BYTES
    return tuple(
        line * CACHE_LINE_BYTES | store for line in range(first, last + 1)
    )


class TokenFields(NamedTuple):
    """The readable fields of one access token."""

    address: int
    is_store: bool
    space: MemSpace


def decode_token(token: int) -> TokenFields:
    """Unpack an access token (diagnostics and tests; never on a hot path)."""
    return TokenFields(
        address=token & ADDRESS_MASK,
        is_store=bool(token & STORE_FLAG),
        space=MemSpace.SHARED if token & SHARED_FLAG else MemSpace.GLOBAL,
    )


class Segment:
    """A run of compute work followed by a barrier-ed group of memory accesses.

    ``accesses`` holds the segment's access tokens.  ``warp_accesses`` counts
    the warp-level accesses they came from; an unaligned literal access
    spanning two lines is one warp access but two tokens.  ``issue_slots``
    (issue-stage occupancy, one slot per warp access) and
    ``total_instructions`` are computed once at construction.
    """

    __slots__ = (
        "compute",
        "accesses",
        "warp_accesses",
        "issue_slots",
        "total_instructions",
    )

    def __init__(
        self,
        compute: dict[Opcode, int] | None = None,
        accesses: tuple[MemAccess, ...] = (),
    ):
        self.compute = compute if compute is not None else {}
        tokens: list[int] = []
        for access in accesses:
            tokens.extend(pack_access(access))
        self.accesses = tuple(tokens)
        self.warp_accesses = len(accesses)
        slots = 0.0
        instructions = 0
        for opcode, count in self.compute.items():
            if not opcode.is_compute:
                raise TraceError(
                    f"segment compute counts may only hold compute opcodes,"
                    f" got {opcode}"
                )
            if count < 0:
                raise TraceError(
                    f"negative instruction count for {opcode}: {count}"
                )
            slots += count * opcode.issue_weight
            instructions += count
        self.issue_slots = slots + float(len(accesses))
        self.total_instructions = instructions + len(accesses)

    @classmethod
    def prebuilt(
        cls,
        compute: dict[Opcode, int],
        accesses: tuple[int, ...],
        issue_slots: float,
        total_instructions: int,
    ) -> "Segment":
        """Hot-path constructor for pre-validated, pre-aggregated parts.

        ``accesses`` are tokens, one per warp access (the generators emit
        only aligned single-line accesses).  The workload generators
        validate their compute mix once per kernel and reuse the aggregate
        costs for every segment; re-deriving them per segment would dominate
        program materialization.
        """
        segment = object.__new__(cls)
        segment.compute = compute
        segment.accesses = accesses
        segment.warp_accesses = len(accesses)
        segment.issue_slots = issue_slots
        segment.total_instructions = total_instructions
        return segment

    @property
    def compute_instructions(self) -> int:
        """Total compute instructions in the segment."""
        return self.total_instructions - self.warp_accesses

    def __repr__(self) -> str:
        return (
            f"Segment({self.compute_instructions} compute,"
            f" {self.warp_accesses} accesses)"
        )


class WarpProgram:
    """An ordered, immutable sequence of segments executed by one warp."""

    __slots__ = ("segments",)

    def __init__(self, segments: list[Segment] | tuple[Segment, ...]):
        if not segments:
            raise TraceError("a warp program needs at least one segment")
        self.segments = tuple(segments)

    def __len__(self) -> int:
        return len(self.segments)

    def __iter__(self):
        return iter(self.segments)

    @property
    def total_instructions(self) -> int:
        return sum(segment.total_instructions for segment in self.segments)

    @property
    def total_accesses(self) -> int:
        return sum(segment.warp_accesses for segment in self.segments)

    @classmethod
    def from_instructions(cls, instructions: list[Instruction]) -> "WarpProgram":
        """Build a program from a literal instruction list.

        Consecutive compute instructions fold into one segment; each memory
        instruction closes the current segment (so the literal form has MLP 1,
        the behaviour of a true dependent pointer chase — exactly what the
        memory microbenchmarks need).
        """
        if not instructions:
            raise TraceError("cannot build a program from zero instructions")
        segments: list[Segment] = []
        compute: dict[Opcode, int] = {}
        for instruction in instructions:
            if instruction.opcode.is_memory:
                access = MemAccess(
                    address=instruction.address,  # type: ignore[arg-type]
                    size=instruction.size,  # type: ignore[arg-type]
                    is_store=instruction.is_store,
                    space=instruction.mem_space or MemSpace.GLOBAL,
                )
                segments.append(Segment(compute=compute, accesses=(access,)))
                compute = {}
            elif instruction.opcode.is_compute:
                compute[instruction.opcode] = compute.get(instruction.opcode, 0) + 1
            # control instructions carry no cost in the energy model and are
            # folded away, mirroring the paper's instruction vocabulary
        if compute:
            segments.append(Segment(compute=compute))
        return cls(segments)
