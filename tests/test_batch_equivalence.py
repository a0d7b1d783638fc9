"""The batch engine's byte-identity contract.

``TCPModel.observe_batch`` promises to return exactly what sequential
``observe`` calls would: same floats to the last bit, same noise-stream
consumption, same flow-probe series, same ground-truth labels. These
tests drive both paths over the same randomized request sets (paths,
hours, noise on/off, access loss, probe keys), passed to the batch as
columns and to the scalar reference one request at a time, and compare
with ``==`` on full observations and ``repr`` (which also catches numpy
scalar types leaking into records). The final test pins the whole
campaign pipeline to a golden digest captured before the batch engine
existed.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.net.batch import LinkTableSet
from repro.net.tcp import BOTTLENECK_PRIORITY, classify_bottleneck
from repro.obs import flowprobe
from repro.platforms.campaign import CampaignConfig
from tests.scalar_reference import (
    ObserveRequest,
    observation_rows,
    observe_request,
    request_columns,
)

#: sha256 over every NDT + traceroute record of the campaign below, as
#: produced by the scalar, pre-batch engine (commit 2b1277e). Catching a
#: drift here means batching changed observable output — a contract
#: violation even if the new output looks statistically fine.
GOLDEN_CAMPAIGN_SHA = "909734efe186a546c49dd2b09d1f69bd262dbd28092910126268867f50ef9786"
GOLDEN_CAMPAIGN = CampaignConfig(seed=11, days=5, total_tests=1200)


def _random_requests(study, seed, count, with_probe_keys=False):
    """Build a randomized request mix over real routed paths."""
    rng = random.Random(seed)
    clients = study.population.all_clients()
    servers = study.mlab.servers()
    requests = []
    attempt = 0
    while len(requests) < count and attempt < count * 3:
        attempt += 1
        client = rng.choice(clients)
        server = rng.choice(servers)
        path = study.forwarder.route_flow(
            client.asn, client.city, server.asn, server.city, ("equiv", attempt)
        )
        if path is None:
            continue
        probe_key = None
        if with_probe_keys and rng.random() < 0.3:
            probe_key = ("equiv-probe", len(requests))
        requests.append(
            ObserveRequest(
                path=path,
                hour=rng.uniform(0.0, 24.0),
                access_rate_bps=rng.choice((25e6, 50e6, 100e6, 940e6)),
                home_factor=rng.uniform(0.2, 1.3),
                access_loss=rng.choice((0.0, 0.0, 0.0, 0.005, 0.02, -0.1)),
                with_noise=rng.random() < 0.75,
                probe_key=probe_key,
            )
        )
    assert len(requests) == count
    return requests


class TestObserveBatchEquivalence:
    def test_batch_matches_sequential_observe(self, small_study):
        requests = _random_requests(small_study, seed=101, count=700)
        scalar_model = small_study.tcp.reseeded(4242)
        batch_model = small_study.tcp.reseeded(4242)

        scalar = [observe_request(scalar_model, r) for r in requests]
        batched = observation_rows(batch_model.observe_batch(*request_columns(requests)))

        assert len(batched) == len(scalar)
        for got, want in zip(batched, scalar):
            assert got == want
            assert repr(got) == repr(want)  # catches numpy scalar leaks

    def test_noise_stream_continues_identically(self, small_study):
        """After a batch, the model's RNG sits exactly where scalar left it."""
        requests = _random_requests(small_study, seed=202, count=300)
        scalar_model = small_study.tcp.reseeded(777)
        batch_model = small_study.tcp.reseeded(777)

        for r in requests:
            observe_request(scalar_model, r)
        batch_model.observe_batch(*request_columns(requests))

        assert scalar_model._rng.random() == batch_model._rng.random()
        assert scalar_model._rng.gauss(0.0, 1.0) == batch_model._rng.gauss(0.0, 1.0)

    def test_blocked_dispatch_matches_one_shot(self, small_study):
        """Block size never affects output — only the dispatch grouping."""
        requests = _random_requests(small_study, seed=303, count=256)
        one_shot = observation_rows(
            small_study.tcp.reseeded(99).observe_batch(*request_columns(requests))
        )

        blocked_model = small_study.tcp.reseeded(99)
        blocked = []
        for start in range(0, len(requests), 37):  # deliberately odd size
            blocked.extend(observation_rows(blocked_model.observe_batch(
                *request_columns(requests[start:start + 37])
            )))

        assert blocked == one_shot

    def test_flow_probe_series_identical(self, small_study):
        requests = _random_requests(small_study, seed=404, count=120, with_probe_keys=True)
        assert any(r.probe_key is not None for r in requests)
        try:
            flowprobe.activate(flowprobe.FlowProbeRecorder(max_flows=256))
            small_study.tcp.reseeded(11).observe_batch(*request_columns(requests))
            batched_series = [s.to_dict() for s in flowprobe.active().series()]
            flowprobe.deactivate()

            flowprobe.activate(flowprobe.FlowProbeRecorder(max_flows=256))
            scalar_model = small_study.tcp.reseeded(11)
            for r in requests:
                observe_request(scalar_model, r)
            scalar_series = [s.to_dict() for s in flowprobe.active().series()]
        finally:
            flowprobe.deactivate()

        assert batched_series == scalar_series
        assert batched_series  # the probe actually recorded something

    def test_empty_batch(self, small_study):
        observed = small_study.tcp.reseeded(1).observe_batch(*request_columns([]))
        assert observation_rows(observed) == []
        assert all(column == [] for column in observed)


class TestLinkTableSet:
    def test_cells_match_scalar_link_params(self, small_study):
        links = small_study.links
        tables = LinkTableSet(links)
        rng = random.Random(7)
        link_ids = list(links.param_map())
        for _ in range(500):
            link_id = rng.choice(link_ids)
            hour = rng.uniform(0.0, 24.0)
            loss, queue_ms, standing, available = tables.cell(link_id, hour)
            params = links.params(link_id)
            assert loss == params.loss_rate(hour)
            assert queue_ms == params.queue_delay_ms(hour)
            assert standing == (params.utilization(hour) >= 1.0)
            assert available == params.available_bps(hour)

    def test_parallel_links_share_cells(self, small_study):
        links = small_study.links
        tables = LinkTableSet(links)
        # Group links by shared (profile, capacity) template.
        by_group = {}
        for link_id, params in links.param_map().items():
            by_group.setdefault((id(params.profile), params.capacity_bps), []).append(link_id)
        group = next((ids for ids in by_group.values() if len(ids) > 1), None)
        if group is None:
            pytest.skip("world has no parallel link groups")
        for link_id in group:
            tables.cell(link_id, 20.0)
        assert tables.cells() == 1  # one cell serves the whole group


class TestBottleneckTieBreak:
    def test_priority_order_documented(self):
        assert BOTTLENECK_PRIORITY == ("access", "interconnect", "latency")

    def test_access_beats_interconnect_on_tie(self):
        kind, link = classify_bottleneck(100.0, 100.0, 100.0, bottleneck_link=5)
        assert kind == "access"
        assert link is None

    def test_interconnect_beats_latency_on_tie(self):
        kind, link = classify_bottleneck(100.0, 200.0, 100.0, bottleneck_link=5)
        assert kind == "interconnect"
        assert link == 5

    def test_latency_when_strictly_smallest(self):
        kind, link = classify_bottleneck(50.0, 200.0, 100.0, bottleneck_link=5)
        assert kind == "latency"
        assert link is None


class TestCampaignGolden:
    def test_campaign_records_match_pre_batch_golden(self, small_study):
        """The full pipeline (routing, campaign blocking, TCP batching,
        daemon contention, traceroutes) reproduces the scalar engine's
        output bit-for-bit. Runs uncached so a stale artifact cache can
        never mask a drift."""
        result = small_study._run_campaign_uncached(GOLDEN_CAMPAIGN)
        h = hashlib.sha256()
        for r in result.ndt_records:
            h.update(repr((
                r.test_id, r.timestamp_s, r.local_hour, r.client_ip, r.server_id,
                r.server_ip, r.server_asn, r.server_city, r.download_bps, r.rtt_ms,
                r.retx_rate, r.congestion_signals, r.gt_client_asn, r.gt_client_org,
                r.gt_crossed_links, r.gt_bottleneck_link, r.gt_bottleneck_kind,
                r.rtt_min_ms, r.rtt_max_ms, r.upload_bps,
            )).encode())
        for t in result.traceroute_records:
            h.update(repr((
                t.trace_id, t.timestamp_s, t.src_ip, t.src_asn, t.dst_ip,
                tuple((hop.ttl, hop.ip, hop.rtt_ms) for hop in t.hops),
                t.reached_destination, t.gt_crossed_links, t.gt_as_path,
            )).encode())
        assert h.hexdigest() == GOLDEN_CAMPAIGN_SHA
