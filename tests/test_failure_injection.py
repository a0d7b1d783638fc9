"""Failure injection: the pipeline must degrade gracefully, not crash.

Each test forces a pathological condition — total traceroute silence,
unroutable destinations, empty corpora, a world with no congestion at all
— and asserts the analysis layer returns empty/NaN results instead of
raising or fabricating findings.
"""

import math

import numpy as np
import pytest

from repro.core.congestion import classify_series, diurnal_series
from repro.core.matching import match_ndt_to_traceroutes
from repro.core.tomography import (
    aggregate_path_observations,
    binary_tomography,
    simplified_as_tomography,
)
from repro.inference.mapit import MapIt, MapItConfig
from repro.inference.borders import OriginOracle
from repro.measurement.traceroute import TracerouteConfig, TracerouteEngine
from repro.routing.bgp import BGPRouting
from repro.routing.forwarding import Forwarder
from repro.topology.addressing import PrefixTable
from repro.topology.asgraph import AS, ASGraph, ASRole, Relationship


class TestTotalSilence:
    def test_mapit_on_fully_silent_traces(self, tiny_internet):
        forwarder = Forwarder(tiny_internet, BGPRouting(tiny_internet.graph))
        engine = TracerouteEngine(
            tiny_internet,
            forwarder,
            TracerouteConfig(seed=7, silent_router_fraction=1.0,
                             destination_responds_prob=0.0),
        )
        level3 = tiny_internet.as_named("Level3")
        cox = tiny_internet.as_named("Cox")
        traces = []
        for index in range(10):
            record = engine.trace(
                src_ip=1, src_asn=level3.asn, src_city="nyc",
                dst_ip=2, dst_asn=cox.asn, dst_city=cox.home_cities[0],
                timestamp_s=0.0, flow_key=index,
            )
            traces.append(record.router_hop_ips())
        assert all(all(ip is None for ip in trace) for trace in traces)
        oracle = OriginOracle(
            tiny_internet.prefix_table, tiny_internet.orgs, tiny_internet.ixps.prefixes()
        )
        result = MapIt(oracle, tiny_internet.graph, MapItConfig()).infer(traces)
        assert result.links == []
        assert result.flips == 0


class TestEmptyInputs:
    def test_mapit_empty_corpus(self, tiny_internet):
        oracle = OriginOracle(tiny_internet.prefix_table)
        result = MapIt(oracle).infer([])
        assert result.links == [] and result.ownership == {}

    def test_matching_no_traces(self):
        report = match_ndt_to_traceroutes([], [])
        assert report.matched == {} and report.matched_fraction == 0.0

    def test_classify_empty_series(self):
        verdict = classify_series(diurnal_series([]))
        assert not verdict.congested
        assert math.isnan(verdict.relative_drop)

    def test_binary_tomography_no_bad_paths(self):
        assert binary_tomography([((1, 2), False)]) == set()

    def test_aggregation_empty(self):
        assert aggregate_path_observations([]) == []

    def test_simplified_tomography_empty_pairs(self):
        result = simplified_as_tomography({})
        assert result.pairs == []


class TestUnroutableWorlds:
    def _island_graph(self):
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(AS(asn, f"AS{asn}", ASRole.STUB))
        graph.add_edge(1, 2, Relationship.PEER)
        # AS3 is an island.
        return graph

    def test_bgp_unreachable_island(self):
        routing = BGPRouting(self._island_graph())
        assert routing.as_path(1, 3) is None
        assert routing.as_path(3, 1) is None

    def test_no_congestion_world_yields_no_verdicts(self, tiny_internet):
        """With zero provisioned congestion, no aggregate should trip a
        reasonable threshold (the pipeline must not hallucinate)."""
        from repro.net.link import ProvisioningConfig, provision_links
        from repro.net.tcp import TCPModel
        from repro.platforms.campaign import CampaignConfig, run_ndt_campaign
        from repro.platforms.clients import ClientPopulation, PopulationConfig
        from repro.platforms.mlab import MLabConfig, MLabPlatform

        links = provision_links(tiny_internet, ProvisioningConfig(seed=7, directives=()))
        assert not links.congested_link_ids()
        population = ClientPopulation(
            tiny_internet, PopulationConfig(seed=7, clients_per_million=8)
        )
        platform = MLabPlatform(tiny_internet, MLabConfig(seed=7, server_count=30))
        forwarder = Forwarder(tiny_internet, BGPRouting(tiny_internet.graph))
        result = run_ndt_campaign(
            tiny_internet, population, platform, forwarder,
            TCPModel(links, seed=7),
            CampaignConfig(seed=7, days=14, total_tests=2500, orgs=("ATT",)),
        )
        verdict = classify_series(diurnal_series(result.ndt_records), threshold=0.5)
        assert not verdict.congested


class TestDegenerateLookups:
    def test_oracle_unknown_address(self):
        oracle = OriginOracle(PrefixTable())
        assert oracle.origin(123456) is None
        assert oracle.origin_raw(123456) is None
        assert not oracle.is_ixp(123456)

    def test_forwarder_same_host(self, tiny_internet):
        forwarder = Forwarder(tiny_internet, BGPRouting(tiny_internet.graph))
        level3 = tiny_internet.as_named("Level3")
        path = forwarder.route_flow(level3.asn, "nyc", level3.asn, "nyc", "k")
        assert path is not None and path.crossed_links == ()


class TestBatchPathDegradation:
    """The PR-3 batch engine under the same pathological conditions."""

    def test_observe_batch_empty_request_list(self, tiny_internet):
        from repro.net.link import ProvisioningConfig, provision_links
        from repro.net.tcp import TCPModel

        links = provision_links(tiny_internet,
                                ProvisioningConfig(seed=7, directives=()))
        model = TCPModel(links, seed=7)
        observed = model.observe_batch([], [], [], [], [])
        assert all(column == [] for column in observed)
        # An empty batch must not advance the noise stream either.
        untouched = TCPModel(links, seed=7)
        assert model._rng.random() == untouched._rng.random()

    def test_campaign_survives_fully_silent_traceroutes(self, tiny_internet):
        """A world where every router drops probes still produces a full
        NDT campaign via the batched engine; only the traces go dark."""
        from repro.measurement.traceroute import TracerouteEngine
        from repro.net.link import ProvisioningConfig, provision_links
        from repro.net.tcp import TCPModel
        from repro.platforms.campaign import CampaignConfig, run_ndt_campaign
        from repro.platforms.clients import ClientPopulation, PopulationConfig
        from repro.platforms.mlab import MLabConfig, MLabPlatform

        links = provision_links(tiny_internet,
                                ProvisioningConfig(seed=7, directives=()))
        population = ClientPopulation(
            tiny_internet, PopulationConfig(seed=7, clients_per_million=8)
        )
        platform = MLabPlatform(tiny_internet, MLabConfig(seed=7, server_count=30))
        forwarder = Forwarder(tiny_internet, BGPRouting(tiny_internet.graph))
        silent = TracerouteEngine(
            tiny_internet,
            forwarder,
            TracerouteConfig(seed=7, silent_router_fraction=1.0,
                             destination_responds_prob=0.0),
        )
        result = run_ndt_campaign(
            tiny_internet, population, platform, forwarder,
            TCPModel(links, seed=7),
            CampaignConfig(seed=7, days=3, total_tests=400),
            traceroute_engine=silent,
        )
        assert len(result.ndt_records) == 400
        assert result.traceroute_records
        for trace in result.traceroute_records:
            assert all(ip is None for ip in trace.router_hop_ips())
        # The downstream analysis sees nothing rather than crashing.
        oracle = OriginOracle(tiny_internet.prefix_table, tiny_internet.orgs,
                              tiny_internet.ixps.prefixes())
        inferred = MapIt(oracle, tiny_internet.graph, MapItConfig()).infer(
            [t.router_hop_ips() for t in result.traceroute_records]
        )
        assert inferred.links == []

    def test_link_tables_outside_campaign_window_match_scalar(self, tiny_internet):
        """Hours before 0 and past the campaign's last day must give the
        same link state from the columns as from the scalar path (both
        are 24h-periodic)."""
        from repro.net.link import ProvisioningConfig, provision_links

        links = provision_links(tiny_internet,
                                ProvisioningConfig(seed=7, directives=()))
        link_ids = np.flatnonzero(links.provisioned)[:20]

        def cells_at(hour):
            state = links.state(link_ids, np.full(len(link_ids), hour))
            return list(zip(*(column.tolist() for column in state)))

        for hour in (-30.0, -0.25, 24.0, 47.5, 24 * 28 + 3.0, 1e4):
            for link_id, cell, wrapped_cell in zip(
                link_ids.tolist(), cells_at(hour), cells_at(hour % 24.0)
            ):
                params = links.params(link_id)
                assert cell == (
                    params.loss_rate(hour),
                    params.queue_delay_ms(hour),
                    params.utilization(hour) >= 1.0,
                    params.available_bps(hour),
                )
                assert cell == wrapped_cell
