"""The compiled-world agreement contract, exercised as unit tests.

:mod:`repro.net.compiled` flattens the object graph into numpy tables;
every query it answers must equal the object-graph answer exactly (the
``compiled.world_agreement`` validate contract enforces the same thing on
full-scale worlds at validate time). These tests cover the tiny world
exhaustively — every prefix edge, every AS row, every router — plus the
oracle priming fast path.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.inference.borders import OriginOracle
from repro.net.compiled import (
    NO_ORIGIN,
    compile_world,
    world_digest,
)
from repro.topology.generator import InternetConfig, generate_internet


@pytest.fixture(scope="module")
def world(tiny_internet):
    return compile_world(tiny_internet)


class TestLPMAgreement:
    def test_prefix_edges_and_interiors(self, tiny_internet, world):
        table = tiny_internet.prefix_table
        rng = random.Random(7)
        for prefix in table.prefixes():
            size = 1 << (32 - prefix.length)
            for ip in (prefix.base, prefix.base + size - 1,
                       prefix.base + rng.randrange(size)):
                assert world.origin(ip) == table.origin_asn(ip)

    def test_random_space_including_gaps(self, tiny_internet, world):
        table = tiny_internet.prefix_table
        rng = random.Random(11)
        for _ in range(500):
            ip = rng.randrange(1 << 32)
            assert world.origin(ip) == table.origin_asn(ip)

    def test_batch_matches_scalar(self, world):
        rng = random.Random(13)
        ips = [rng.randrange(1 << 32) for _ in range(400)]
        ips += [int(s) for s in world.lpm_starts[:50]]
        batch = world.origin_batch(np.asarray(ips, dtype=np.int64))
        for ip, raw in zip(ips, batch.tolist()):
            scalar = world.origin(ip)
            assert (None if raw == NO_ORIGIN else raw) == scalar

    def test_intervals_sorted_and_disjoint(self, world):
        starts, ends = world.lpm_starts, world.lpm_ends
        assert (starts < ends).all()
        assert (starts[1:] >= ends[:-1]).all()


class TestIXPAgreement:
    def test_members_and_nonmembers(self, tiny_internet, world):
        spans = [
            (p.base, p.base + (1 << (32 - p.length)))
            for p in tiny_internet.ixps.prefixes()
        ]
        rng = random.Random(17)
        probes = {rng.randrange(1 << 32) for _ in range(300)}
        for lo, hi in spans:
            probes.update((lo, hi - 1, lo - 1, hi))
        for ip in probes:
            expected = any(lo <= ip < hi for lo, hi in spans)
            assert world.is_ixp(ip) == expected
        batch = world.is_ixp_batch(np.asarray(sorted(probes), dtype=np.int64))
        assert batch.tolist() == [world.is_ixp(ip) for ip in sorted(probes)]


class TestAdjacencyAgreement:
    def test_every_as_row(self, tiny_internet, world):
        graph = tiny_internet.graph
        for asn in graph.asns():
            assert world.neighbors_of(asn) == graph.neighbors(asn)

    def test_relationships_including_non_adjacent(self, tiny_internet, world):
        graph = tiny_internet.graph
        asns = graph.asns()
        rng = random.Random(19)
        for _ in range(500):
            a = asns[rng.randrange(len(asns))]
            b = asns[rng.randrange(len(asns))]
            assert world.relationship(a, b) == graph.relationship(a, b)

    def test_unknown_asn(self, world):
        assert world.relationship(999_999_999, 1) is None
        assert world.neighbors_of(999_999_999) == {}


class TestFabricAgreement:
    def test_every_interface_owner(self, tiny_internet, world):
        fabric = tiny_internet.fabric
        for iface in fabric.interfaces():
            assert world.owner_asn_of_ip(iface.ip) == fabric.router(iface.router_id).asn

    def test_router_port_order_preserved(self, tiny_internet, world):
        fabric = tiny_internet.fabric
        routers = {i.router_id for i in fabric.interfaces()}
        for router_id in routers:
            expected = tuple(i.ip for i in fabric.interfaces_of(router_id))
            assert world.interface_ips_of(router_id) == expected

    def test_unknown_lookups(self, world):
        assert world.owner_asn_of_ip(0) is None
        assert world.interface_ips_of(-1) == ()

    def test_link_rows(self, tiny_internet, world):
        for link in tiny_internet.fabric.interconnects():
            assert world.link_row(link.link_id) == (
                link.a_asn, link.b_asn, link.a_router_id, link.b_router_id,
                link.a_ip, link.b_ip, link.numbered_from_asn, link.group_id,
            )
        assert world.link_row(-5) is None


class TestCompileCache:
    def test_memoized_per_digest(self, tiny_internet, world):
        assert compile_world(tiny_internet) is world

    def test_digest_distinguishes_worlds(self, tiny_internet):
        other = generate_internet(InternetConfig(seed=8, n_stub=60, n_transit=6))
        assert world_digest(other) != world_digest(tiny_internet)


class TestOraclePriming:
    def _oracle(self, internet):
        return OriginOracle(
            internet.prefix_table, internet.orgs, internet.ixps.prefixes()
        )

    def test_primed_values_equal_trie_walk(self, tiny_internet):
        world = compile_world(tiny_internet)
        rng = random.Random(29)
        ips = [i.ip for i in tiny_internet.fabric.interfaces()[:200]]
        ips += [rng.randrange(1 << 32) for _ in range(200)]
        primed = self._oracle(tiny_internet)
        count = world.prime_oracle(primed, ips)
        assert count == len(set(ips))
        fresh = self._oracle(tiny_internet)
        for ip in ips:
            assert primed._origin_cache[ip] == fresh.origin(ip)
            assert primed._ixp_cache[ip] == fresh.is_ixp(ip)

    def test_priming_skips_already_cached(self, tiny_internet):
        world = compile_world(tiny_internet)
        oracle = self._oracle(tiny_internet)
        ips = [i.ip for i in tiny_internet.fabric.interfaces()[:50]]
        assert world.prime_oracle(oracle, ips) == len(set(ips))
        assert world.prime_oracle(oracle, ips) == 0

    def test_oracle_with_different_ixp_screen_rejected(self, tiny_internet):
        world = compile_world(tiny_internet)
        ixp_prefixes = tiny_internet.ixps.prefixes()
        assert ixp_prefixes, "tiny world should have IXP space"
        foreign = OriginOracle(
            tiny_internet.prefix_table, tiny_internet.orgs, ixp_prefixes[:-1]
        )
        assert world.prime_oracle(foreign, [1, 2, 3]) == 0
