"""Property harness: the fast tag store vs the reference implementation.

:class:`repro.memory.cache.Cache` is the packed-int tag store on the
simulator's hottest path: each way is one int holding the tag, the home GPM
and the dirty bit.  :class:`~repro.memory.cache.ReferenceCache` is the
original object-per-line implementation, kept verbatim as an executable
oracle.  Hypothesis drives random access/probe/invalidate streams through
both and demands identical observable behaviour at every step: per-access
``(hit, dirty_eviction)`` results, probe outcomes, invalidation counts,
resident-line totals, and the final :class:`~repro.memory.cache.CacheStats`.
Homes are drawn across the whole packed home field, its edges included, so
a home that leaked into the tag or dirty bits would diverge; a separate
check round-trips every home value, and ``MultiGpu`` must refuse GPM counts
the field cannot hold.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.gpu.multigpu import MultiGpu
from repro.memory.cache import MAX_HOME_GPMS, Cache, CacheConfig, ReferenceCache

from tests.conftest import small_config

# Small geometries force conflict misses fast; addresses span a few hundred
# lines so streams revisit sets, evict, and re-fill.
_configs = st.builds(
    CacheConfig,
    capacity_bytes=st.sampled_from([256, 512, 1024, 4096]),
    line_bytes=st.sampled_from([32, 64]),
    associativity=st.sampled_from([1, 2, 4]),
    write_allocate=st.booleans(),
    write_back=st.booleans(),
)

# Homes span the whole packed field.  The edges (0, 1, the top bit, the
# maximum) are drawn often enough for streams to revisit them, which is what
# gives a home-keyed invalidation something to drop.
_EDGE_HOMES = (0, 1, 2, 3, MAX_HOME_GPMS // 2, MAX_HOME_GPMS - 2, MAX_HOME_GPMS - 1)
_homes = st.one_of(
    st.sampled_from(_EDGE_HOMES),
    st.integers(min_value=0, max_value=MAX_HOME_GPMS - 1),
)

# One stream operation: an access (address, is_store, home), a probe, or a
# bulk invalidation of every line with one home.
_accesses = st.tuples(
    st.just("access"),
    st.integers(min_value=0, max_value=16 * 1024),
    st.booleans(),
    _homes,
)
_probes = st.tuples(
    st.just("probe"),
    st.integers(min_value=0, max_value=16 * 1024),
    st.none(),
    st.none(),
)
_invalidates = st.tuples(
    st.just("invalidate"),
    _homes,
    st.none(),
    st.none(),
)
_streams = st.lists(
    st.one_of(_accesses, _accesses, _accesses, _probes, _invalidates),
    min_size=1,
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(config=_configs, stream=_streams)
def test_cache_matches_reference(config, stream):
    fast = Cache(config)
    oracle = ReferenceCache(config)
    for step, (op, a, b, c) in enumerate(stream):
        if op == "access":
            got = fast.access(a, is_store=b, home=c)
            want = oracle.access(a, is_store=b, home=c)
        elif op == "probe":
            got = fast.probe(a)
            want = oracle.probe(a)
        else:
            got = fast.invalidate_where(lambda home, m=a: home == m)
            want = oracle.invalidate_where(lambda home, m=a: home == m)
        assert got == want, f"step {step}: {op} diverged: fast={got} ref={want}"
        assert fast.resident_lines == oracle.resident_lines, f"step {step}"
    assert fast.stats == oracle.stats


@settings(max_examples=50, deadline=None)
@given(config=_configs, stream=_streams)
def test_cache_flush_matches_reference(config, stream):
    fast = Cache(config)
    oracle = ReferenceCache(config)
    for op, a, b, c in stream:
        if op == "access":
            fast.access(a, is_store=b, home=c)
            oracle.access(a, is_store=b, home=c)
    assert fast.flush() == oracle.flush()
    assert fast.resident_lines == oracle.resident_lines == 0
    assert fast.stats == oracle.stats


@pytest.mark.parametrize("write_back", [False, True])
def test_every_home_round_trips(write_back):
    # One line per home value, all resident at once (fully associative,
    # one set): invalidating by home must find each line exactly once, and
    # a store's dirty bit must not bleed into the home field.
    config = CacheConfig(
        capacity_bytes=MAX_HOME_GPMS * 64,
        line_bytes=64,
        associativity=MAX_HOME_GPMS,
        write_allocate=True,
        write_back=write_back,
    )
    fast = Cache(config)
    oracle = ReferenceCache(config)
    for home in range(MAX_HOME_GPMS):
        address = home * 64
        assert fast.access(address, True, home) == oracle.access(address, True, home)
    for home in reversed(range(MAX_HOME_GPMS)):
        assert fast.invalidate_where(lambda h, m=home: h == m) == 1
        assert oracle.invalidate_where(lambda h, m=home: h == m) == 1
        assert not fast.probe(home * 64)
    assert fast.resident_lines == oracle.resident_lines == 0
    assert fast.stats == oracle.stats


def test_multigpu_rejects_more_gpms_than_the_home_field_holds():
    MultiGpu(small_config(num_gpms=2))  # well inside the field: builds
    with pytest.raises(ConfigError) as excinfo:
        MultiGpu(small_config(num_gpms=MAX_HOME_GPMS + 1))
    message = str(excinfo.value)
    assert "\n" not in message
    assert str(MAX_HOME_GPMS) in message
