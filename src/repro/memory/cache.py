"""A set-associative, write-through/no-write-allocate cache model.

The model is *functional plus counters*: it tracks tag state exactly (true
LRU), and reports hits/misses/evictions so the timing layer can charge
latencies and the energy layer can count transactions.  It does not store
data — the simulator never needs values, only movement.

Write policy: GPU L1s on the modeled (Kepler-class) machine are write-through
and no-write-allocate for global stores; L2 is write-back with write-allocate.
Both behaviours are selectable per instance via :class:`CacheConfig`.

Each cache line remembers the *home GPM* of its page so module-side L2s can
bulk-invalidate remote lines at kernel boundaries (software coherence).

Two implementations share the exact same contract:

* :class:`Cache` — the production tag store on the simulator hot path.  Each
  way is one int, ``(tag << (HOME_BITS + 1)) | (home << 1) | dirty``, held in
  a per-set MRU-first list of ints; sets are created lazily on first touch.  A
  resident line is therefore an untracked int inside one list per set, not
  a container of its own: the cyclic garbage collector walks one object per
  touched set instead of one per line, and a hit or a fill allocates at
  most one int.  The home field is :data:`HOME_BITS` wide (see
  docs/PERFORMANCE.md, "Memory path and the garbage collector").
* :class:`ReferenceCache` — the original per-line-object implementation,
  kept verbatim as the executable specification.  The property suite in
  ``tests/differential/test_cache_equivalence.py`` replays random access
  streams through both and requires identical hit/miss/writeback/eviction
  sequences and :class:`CacheStats`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import CACHE_LINE_BYTES, is_power_of_two


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy for one cache instance."""

    capacity_bytes: int
    line_bytes: int = CACHE_LINE_BYTES
    associativity: int = 4
    write_allocate: bool = False
    write_back: bool = False
    name: str = "cache"

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(f"{self.name}: capacity must be positive")
        if not is_power_of_two(self.line_bytes):
            raise ConfigError(f"{self.name}: line size must be a power of two")
        if self.associativity <= 0:
            raise ConfigError(f"{self.name}: associativity must be positive")
        lines = self.capacity_bytes // self.line_bytes
        if lines == 0:
            raise ConfigError(f"{self.name}: capacity smaller than one line")
        if lines % self.associativity != 0:
            raise ConfigError(
                f"{self.name}: line count {lines} not divisible by"
                f" associativity {self.associativity}"
            )

    @property
    def num_lines(self) -> int:
        return self.capacity_bytes // self.line_bytes

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.associativity


@dataclass
class CacheStats:
    """Hit/miss/traffic counters for one cache instance."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.read_hits + self.read_misses + self.write_hits + self.write_misses

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return 0.0 if total == 0 else 1.0 - self.misses / total

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another instance's counters into this one."""
        self.read_hits += other.read_hits
        self.read_misses += other.read_misses
        self.write_hits += other.write_hits
        self.write_misses += other.write_misses
        self.evictions += other.evictions
        self.dirty_evictions += other.dirty_evictions
        self.invalidations += other.invalidations


#: Width of the home-GPM field of a packed way.  A :class:`Cache` records
#: homes ``0 .. MAX_HOME_GPMS - 1``; ``MultiGpu`` rejects larger GPM counts
#: once, at construction, so the per-access path never checks.
HOME_BITS = 8
MAX_HOME_GPMS = 1 << HOME_BITS
_HOME_MASK = MAX_HOME_GPMS - 1
# A packed way is (tag << _TAG_SHIFT) | (home << 1) | dirty.
_TAG_SHIFT = HOME_BITS + 1


class Cache:
    """True-LRU set-associative cache with per-line home-GPM tracking."""

    __slots__ = (
        "config",
        "stats",
        "_line_shift",
        "_num_sets",
        "_associativity",
        "_store_dirty",
        "_write_allocate",
        "_sets",
    )

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._line_shift = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        # The dirty bit a store leaves on its line: set only by write-back.
        self._store_dirty = 1 if config.write_back else 0
        self._write_allocate = config.write_allocate
        # Sets are created lazily: large caches in large GPM counts touch a
        # small fraction of their sets in a short kernel, and a [None] * n
        # backbone is much cheaper to build than n empty lists.
        self._sets: list[list[int] | None] = [None] * self._num_sets

    def probe(self, address: int) -> bool:
        """Non-mutating presence check (no LRU update, no stats)."""
        tag = address >> self._line_shift
        ways = self._sets[tag % self._num_sets]
        if not ways:
            return False
        for way in ways:
            if way >> _TAG_SHIFT == tag:
                return True
        return False

    def access(
        self, address: int, is_store: bool = False, home: int = 0
    ) -> tuple[bool, bool]:
        """Perform one access.

        Args:
            address: byte address.
            is_store: store accesses follow the configured write policy.
            home: home GPM of the page backing this address (for coherence),
                below :data:`MAX_HOME_GPMS`.

        Returns:
            ``(hit, dirty_eviction)`` — ``dirty_eviction`` is True when the
            access displaced a dirty line that must be written downstream.
        """
        tag = address >> self._line_shift
        sets = self._sets
        index = tag % self._num_sets
        ways = sets[index]
        stats = self.stats
        if ways:
            position = 0
            for way in ways:
                if way >> _TAG_SHIFT == tag:
                    if is_store:
                        stats.write_hits += 1
                        way |= self._store_dirty
                    else:
                        stats.read_hits += 1
                    if position:
                        del ways[position]
                        ways.insert(0, way)
                    elif is_store:
                        ways[0] = way
                    return True, False
                position += 1
        elif ways is None:
            ways = sets[index] = []

        # Miss path.
        if is_store:
            stats.write_misses += 1
            if not self._write_allocate:
                return False, False
            way = (tag << _TAG_SHIFT) | (home << 1) | self._store_dirty
        else:
            stats.read_misses += 1
            way = (tag << _TAG_SHIFT) | (home << 1)

        if len(ways) >= self._associativity:
            victim = ways.pop()
            stats.evictions += 1
            ways.insert(0, way)
            if victim & 1:
                stats.dirty_evictions += 1
                return False, True
            return False, False
        ways.insert(0, way)
        return False, False

    def invalidate_where(self, predicate) -> int:
        """Drop every line for which ``predicate(home_gpm) is True``.

        Models the bulk flash-invalidate of software coherence.  Dirty lines
        are dropped too: the software protocol guarantees writers flushed
        before the boundary, so no writeback traffic is generated here.

        Returns the number of lines invalidated.
        """
        invalidated = 0
        for ways in self._sets:
            if not ways:
                continue
            keep = [
                way for way in ways if not predicate((way >> 1) & _HOME_MASK)
            ]
            invalidated += len(ways) - len(keep)
            ways[:] = keep
        self.stats.invalidations += invalidated
        return invalidated

    def flush(self) -> int:
        """Invalidate everything (kernel-boundary flush of a whole cache)."""
        return self.invalidate_where(lambda _home: True)

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets if ways)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"Cache({cfg.name!r}, {cfg.capacity_bytes // 1024}KiB,"
            f" {cfg.associativity}-way, {cfg.line_bytes}B lines)"
        )


class _Line:
    """Tag-store entry of the reference implementation."""

    __slots__ = ("tag", "dirty", "home")

    def __init__(self, tag: int, home: int):
        self.tag = tag
        self.dirty = False
        self.home = home


class ReferenceCache:
    """The original per-line-object tag store, kept as the executable spec.

    Bit-for-bit the behaviour :class:`Cache` must reproduce; only used by the
    differential property suite and available for ad-hoc cross-checking.  Do
    not put it on a hot path.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self.stats = CacheStats()
        self._line_shift = config.line_bytes.bit_length() - 1
        self._num_sets = config.num_sets
        self._associativity = config.associativity
        self._write_back = config.write_back
        self._write_allocate = config.write_allocate
        # Each set is a list ordered MRU-first; lists are tiny (associativity).
        self._sets: list[list[_Line]] = [[] for _ in range(self._num_sets)]

    def _locate(self, address: int) -> tuple[int, int]:
        line_addr = address >> self._line_shift
        return line_addr % self._num_sets, line_addr

    def probe(self, address: int) -> bool:
        """Non-mutating presence check (no LRU update, no stats)."""
        set_index, tag = self._locate(address)
        return any(line.tag == tag for line in self._sets[set_index])

    def access(
        self, address: int, is_store: bool = False, home: int = 0
    ) -> tuple[bool, bool]:
        """Perform one access (same contract as :meth:`Cache.access`)."""
        tag = address >> self._line_shift
        ways = self._sets[tag % self._num_sets]
        stats = self.stats
        position = 0
        for line in ways:
            if line.tag == tag:
                if position:
                    del ways[position]
                    ways.insert(0, line)
                if is_store:
                    stats.write_hits += 1
                    if self._write_back:
                        line.dirty = True
                else:
                    stats.read_hits += 1
                return True, False
            position += 1

        # Miss path.
        if is_store:
            stats.write_misses += 1
            if not self._write_allocate:
                return False, False
        else:
            stats.read_misses += 1

        dirty_evicted = False
        if len(ways) >= self._associativity:
            victim = ways.pop()
            stats.evictions += 1
            if victim.dirty:
                stats.dirty_evictions += 1
                dirty_evicted = True
        new_line = _Line(tag, home)
        if is_store and self._write_back:
            new_line.dirty = True
        ways.insert(0, new_line)
        return False, dirty_evicted

    def invalidate_where(self, predicate) -> int:
        """Drop every line for which ``predicate(home_gpm) is True``."""
        invalidated = 0
        for ways in self._sets:
            if not ways:
                continue
            keep = [line for line in ways if not predicate(line.home)]
            invalidated += len(ways) - len(keep)
            ways[:] = keep
        self.stats.invalidations += invalidated
        return invalidated

    def flush(self) -> int:
        """Invalidate everything (kernel-boundary flush of a whole cache)."""
        return self.invalidate_where(lambda _home: True)

    @property
    def resident_lines(self) -> int:
        return sum(len(ways) for ways in self._sets)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"ReferenceCache({cfg.name!r}, {cfg.capacity_bytes // 1024}KiB,"
            f" {cfg.associativity}-way, {cfg.line_bytes}B lines)"
        )
