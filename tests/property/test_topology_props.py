"""Property-based routing invariants for every topology."""

from hypothesis import assume, given, settings, strategies as st

from repro.interconnect.mesh import MeshTopology
from repro.interconnect.ring import RingTopology
from repro.interconnect.switch import SwitchTopology
from repro.sim.engine import Engine

gpm_counts = st.sampled_from([2, 4, 8, 16, 32])


@st.composite
def topology_cases(draw, kinds=("ring", "mesh", "switch")):
    """(kind, n, src, dst) with endpoints drawn in range and distinct."""
    kind = draw(st.sampled_from(list(kinds)))
    n = draw(st.sampled_from([2, 4, 8, 16, 32]))
    src = draw(st.integers(min_value=0, max_value=n - 1))
    dst = draw(
        st.integers(min_value=0, max_value=n - 2).map(
            lambda d: d if d < src else d + 1
        )
    )
    return kind, n, src, dst


def build(kind, num_gpms):
    engine = Engine()
    kwargs = dict(
        per_gpm_bandwidth_gbps=256.0,
        link_latency_cycles=15.0,
        energy_pj_per_bit=0.54,
    )
    if kind == "ring":
        return RingTopology(engine, num_gpms, **kwargs)
    if kind == "mesh":
        return MeshTopology(engine, num_gpms, **kwargs)
    return SwitchTopology(engine, num_gpms, **kwargs)


class TestRoutingInvariants:
    @given(topology_cases())
    @settings(max_examples=200, deadline=None)
    def test_route_connects_src_to_dst(self, case):
        kind, n, src, dst = case
        topology = build(kind, n)
        links, _ = topology.route(src, dst)
        assert links, "routes are never empty"
        assert links[0].src == f"gpm{src}" or links[0].src.startswith("gpm")
        if kind != "switch":
            assert links[0].src == f"gpm{src}"
            assert links[-1].dst == f"gpm{dst}"
            for a, b in zip(links, links[1:]):
                assert a.dst == b.src

    @given(topology_cases(kinds=("ring", "mesh")))
    @settings(max_examples=200, deadline=None)
    def test_hop_count_symmetric(self, case):
        kind, n, src, dst = case
        topology = build(kind, n)
        assert topology.hop_count(src, dst) == topology.hop_count(dst, src)

    @given(topology_cases(kinds=("ring", "mesh")))
    @settings(max_examples=200, deadline=None)
    def test_route_length_equals_hop_count(self, case):
        kind, n, src, dst = case
        topology = build(kind, n)
        links, _ = topology.route(src, dst)
        assert len(links) == topology.hop_count(src, dst)

    @given(gpm_counts)
    @settings(max_examples=20, deadline=None)
    def test_mesh_shrinks_diameter_and_mean_hops(self, n):
        """Individual pairs can be farther on the torus (its numbering is
        row-major, the ring's is sequential), but its diameter and average
        hop count never exceed the ring's — the property the topology study
        relies on."""
        assume(n >= 4)
        ring = build("ring", n)
        mesh = build("mesh", n)
        pairs = [(s, d) for s in range(n) for d in range(n) if s != d]
        ring_hops = [ring.hop_count(s, d) for s, d in pairs]
        mesh_hops = [mesh.hop_count(s, d) for s, d in pairs]
        assert max(mesh_hops) <= max(ring_hops)
        assert sum(mesh_hops) <= sum(ring_hops)

    @given(topology_cases(), st.integers(min_value=1, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_traffic_accounting_consistent(self, case, nbytes):
        kind, n, src, dst = case
        topology = build(kind, n)
        result = topology.transfer(src, dst, nbytes)
        assert topology.traffic.bytes_injected == nbytes
        assert topology.traffic.byte_hops == nbytes * result.hops
        assert result.completion_time > 0


def _reference_transfer(topology, src, dst, nbytes, earliest):
    """Per-hop ``Link.reserve`` on a freshly computed route: the transfer
    algorithm the memoized, inlined ``Topology.transfer`` must reproduce."""
    links, switch_traversals = topology.route(src, dst)
    finish = 0.0
    latency = 0.0
    for link in links:
        done = link.reserve(nbytes, earliest=earliest)
        if done > finish:
            finish = done
        latency += link.config.latency_cycles
    return finish + latency, len(links), switch_traversals


def _link_state(topology):
    return [
        (
            link.bytes_transferred, link.transfers, link.server.free_at,
            link.server.busy_time, link.server.units_served,
            link.server.requests,
        )
        for link in topology.links()
    ]


_transfer_streams = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=31),
        st.integers(min_value=1, max_value=31),
        st.sampled_from([32, 128, 4096]),
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=500.0)),
    ),
    min_size=1,
    max_size=40,
)


class TestTransferMatchesPerLinkReservation:
    @given(st.sampled_from(["ring", "mesh", "switch"]), gpm_counts, _transfer_streams)
    @settings(max_examples=100, deadline=None)
    def test_memoized_transfer_matches_reference(self, kind, n, stream):
        fast = build(kind, n)
        oracle = build(kind, n)
        for src, offset, nbytes, earliest in stream:
            src %= n
            dst = (src + offset % (n - 1) + 1) % n
            got = fast.transfer(src, dst, nbytes, earliest=earliest)
            want = _reference_transfer(oracle, src, dst, nbytes, earliest)
            assert tuple(got) == want
        assert _link_state(fast) == _link_state(oracle)
