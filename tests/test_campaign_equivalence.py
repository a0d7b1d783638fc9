"""The block-column campaign against the test-at-a-time loop it replaced.

``run_ndt_campaign`` runs each block of events as parallel lists:
``NDTRunner.plan`` routes the block, one ``observe_batch`` call evaluates
its transfers, ``NDTRunner.complete`` builds the records, and the daemon
and the Paris traceroute run per test. ``tests/scalar_reference.py``
keeps the loop it replaced: one test at a time, scalar ``observe`` per
transfer and the hop-by-hop traceroute walk. On the small study the two
must produce the same records, lose the same traces to busy daemons and
leave all four random streams (campaign, TCP noise, traceroute artifacts
and daemon) in the same state — across selection policies, bursts,
clients that do not measure upstream, flows that do not route and any
block size.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.measurement.traceroute import TracerouteConfig, TracerouteEngine
from repro.obs import metrics
from repro.platforms import campaign as campaign_module
from repro.platforms.campaign import CampaignConfig, run_ndt_campaign
from tests import scalar_reference

BASE = CampaignConfig(seed=19, days=3, total_tests=500, burst_prob=0.35)


class _Run:
    """What one campaign run leaves behind, ready to compare."""

    def __init__(self, result, lost, campaign_rng, tcp, engine, platform):
        self.ndt_records = result.ndt_records
        self.traceroute_records = result.traceroute_records
        self.lost = lost
        self.campaign_state = campaign_rng.getstate()
        self.tcp_state = tcp._rng.getstate()
        self.trace_state = engine._rng.getstate()
        self.next_trace_id = engine._next_trace_id
        self.daemon_state = platform._daemon_rng.getstate()
        self.daemons = {site: d.busy_until_s for site, d in platform._daemons.items()}


def _run_blocked(study, config, forwarder, population, monkeypatch):
    streams = []

    def capture(seed, *labels):
        rng = scalar_reference.derive_random(seed, *labels)
        streams.append((labels, rng))
        return rng

    monkeypatch.setattr(campaign_module, "derive_random", capture)
    tcp = study.tcp.reseeded(config.seed)
    engine = TracerouteEngine(study.internet, forwarder, TracerouteConfig(seed=3))
    lost_before = metrics.counter("campaign.traces_lost_to_busy_daemon").value
    result = run_ndt_campaign(
        study.internet, population, study.mlab, forwarder, tcp, config,
        traceroute_engine=engine,
    )
    lost = metrics.counter("campaign.traces_lost_to_busy_daemon").value - lost_before
    monkeypatch.undo()
    [campaign_rng] = [rng for labels, rng in streams if labels == ("campaign",)]
    return _Run(result, lost, campaign_rng, tcp, engine, study.mlab)


def _run_reference(study, config, forwarder, population):
    tcp = study.tcp.reseeded(config.seed)
    engine = TracerouteEngine(study.internet, forwarder, TracerouteConfig(seed=3))
    result, lost, campaign_rng = scalar_reference.run_ndt_campaign(
        population, study.mlab, forwarder, tcp, config, engine
    )
    return _Run(result, lost, campaign_rng, tcp, engine, study.mlab)


def _assert_same(blocked: _Run, reference: _Run) -> None:
    assert blocked.ndt_records == reference.ndt_records
    assert [repr(r) for r in blocked.ndt_records] == [repr(r) for r in reference.ndt_records]
    assert blocked.traceroute_records == reference.traceroute_records
    assert blocked.lost == reference.lost
    assert blocked.campaign_state == reference.campaign_state
    assert blocked.tcp_state == reference.tcp_state
    assert blocked.trace_state == reference.trace_state
    assert blocked.next_trace_id == reference.next_trace_id
    assert blocked.daemon_state == reference.daemon_state
    assert blocked.daemons == reference.daemons


def _compare(study, config, monkeypatch, forwarder=None, population=None):
    forwarder = forwarder if forwarder is not None else study.forwarder
    population = population if population is not None else study.population
    blocked = _run_blocked(study, config, forwarder, population, monkeypatch)
    reference = _run_reference(study, config, forwarder, population)
    _assert_same(blocked, reference)
    return blocked


class _UnroutableForwarder:
    """Delegates to a real forwarder, but the download leg toward
    ``no_download`` client ASNs and the upload leg from ``no_upload``
    client ASNs do not route."""

    def __init__(self, forwarder, no_download, no_upload):
        self._forwarder = forwarder
        self._no_download = no_download
        self._no_upload = no_upload

    def route_flow(self, src_asn, src_city, dst_asn, dst_city, flow_key):
        if flow_key[0] == "ndt" and dst_asn in self._no_download:
            return None
        if flow_key[0] == "ndt-up" and src_asn in self._no_upload:
            return None
        return self._forwarder.route_flow(src_asn, src_city, dst_asn, dst_city, flow_key)


class _NoUploadPopulation:
    """Delegates to a real population, but every other client of each org
    has a provisioned upload rate of 0 (no upstream measurement)."""

    def __init__(self, population):
        self._population = population
        self._clients = {
            org: [
                dataclasses.replace(c, upload_rate_bps=0.0) if i % 2 else c
                for i, c in enumerate(population.clients_of(org))
            ]
            for org in population.orgs()
        }

    def orgs(self):
        return self._population.orgs()

    def clients_of(self, org):
        return self._clients[org]

    def draw_conditions(self, client, hour, rng):
        return self._population.draw_conditions(client, hour, rng)


class TestCampaignMatchesScalarLoop:
    @pytest.mark.parametrize("policy", ["nearest", "regional", "direct"])
    @pytest.mark.parametrize("burst_prob", [0.0, 0.35])
    def test_policies_and_bursts(self, small_study, monkeypatch, policy, burst_prob):
        config = dataclasses.replace(BASE, selection_policy=policy, burst_prob=burst_prob)
        blocked = _compare(small_study, config, monkeypatch)
        assert len(blocked.ndt_records) == config.total_tests
        assert blocked.traceroute_records
        assert all(r.upload_bps > 0 for r in blocked.ndt_records)

    @pytest.mark.parametrize("block", [1, 7, 1024])
    def test_block_size_never_changes_output(self, small_study, monkeypatch, block):
        monkeypatch.setattr(campaign_module, "_EVENT_BLOCK", block)
        blocked = _run_blocked(small_study, BASE, small_study.forwarder,
                               small_study.population, monkeypatch)
        reference = _run_reference(small_study, BASE, small_study.forwarder,
                                   small_study.population)
        _assert_same(blocked, reference)
        assert blocked.lost > 0, "daemon contention never exercised"

    def test_clients_without_upload(self, small_study, monkeypatch):
        population = _NoUploadPopulation(small_study.population)
        blocked = _compare(small_study, BASE, monkeypatch, population=population)
        no_upload = {c.ip for org in population.orgs() for c in population.clients_of(org)
                     if c.upload_rate_bps == 0}
        zero = [r for r in blocked.ndt_records if r.client_ip in no_upload]
        assert zero and all(r.upload_bps == 0.0 for r in zero)
        assert any(r.upload_bps > 0 for r in blocked.ndt_records)

    def test_flows_that_do_not_route(self, small_study, monkeypatch):
        orgs = small_study.population.orgs()
        no_download = {c.asn for c in small_study.population.clients_of(orgs[0])}
        no_upload = {c.asn for c in small_study.population.clients_of(orgs[1])}
        forwarder = _UnroutableForwarder(small_study.forwarder, no_download, no_upload)
        config = dataclasses.replace(BASE, orgs=tuple(orgs[:4]))
        blocked = _compare(small_study, config, monkeypatch, forwarder=forwarder)

        records = blocked.ndt_records
        assert 0 < len(records) < config.total_tests
        # A test that does not route consumes no test id.
        assert [r.test_id for r in records] == list(range(1, len(records) + 1))
        assert not any(r.gt_client_asn in no_download for r in records)
        upload_dropped = [r for r in records if r.gt_client_asn in no_upload]
        assert upload_dropped and all(r.upload_bps == 0.0 for r in upload_dropped)
        assert any(r.upload_bps > 0 for r in records)
