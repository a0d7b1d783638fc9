"""Shape checks of the paper's analyses, regenerated on ``small_study``.

Each test recomputes one artifact's analysis over the small world (a
two-week, 8,000-test campaign, and the §5 coverage sweep with 150 Alexa
targets) and asserts the shape the paper reports. The full-scale shapes
are the slow tier's gates (``repro validate``); these are the checks no
other tier-1 test makes: the tomography ablation, TSLP against ground
truth, RTT signatures, the world builder's interconnect count, one
route and one rendered traceroute through the study's engines, Table 3's
per-VP border counts and §5.4's temporal comparison.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import pytest

from repro.core.pipeline import build_study
from repro.core.signatures import FlowLimit, FlowRTTSignature, classify_flow
from repro.core.tomography import (
    aggregate_path_observations,
    binary_tomography,
    simplified_as_tomography,
)
from repro.experiments.common import analyzed_campaign, coverage_reports
from repro.inference.alias import AliasResolver
from repro.inference.bdrmap import collect_bdrmap_traces, run_bdrmap
from repro.measurement.tslp import TSLPProber, detect_level_shift
from repro.platforms.ark import make_ark_vps
from repro.platforms.campaign import CampaignConfig
from repro.topology.asgraph import Relationship
from repro.topology.generator import InternetConfig, generate_internet

CAMPAIGN = CampaignConfig(seed=7, days=14, total_tests=8000)


@pytest.fixture(scope="module")
def small_campaign(small_study):
    return analyzed_campaign(small_study, CAMPAIGN)


@pytest.fixture(scope="module")
def small_coverage(small_study):
    return coverage_reports(small_study, alexa_count=150)


def test_simplified_tomography_classifies_aggregates(small_study, small_campaign):
    tests_by_pair = defaultdict(list)
    for record in small_campaign.campaign.ndt_records:
        pair = (small_study.org_label(record.server_asn), record.gt_client_org)
        tests_by_pair[pair].append(record)

    result = simplified_as_tomography(dict(tests_by_pair), 0.5)
    assert result.pairs, "some aggregates must be classified"


def test_binary_tomography_against_ground_truth(small_study, small_campaign):
    observations = []
    for record in small_campaign.campaign.ndt_records:
        if not 20 <= record.local_hour <= 22:
            continue
        observations.append((record.gt_crossed_links, record.retx_rate > 0.015))

    aggregated = aggregate_path_observations(observations, min_observations=3)
    inferred = binary_tomography(aggregated)
    truth = small_study.links.congested_link_ids()
    # Boolean tomography is only identifiable up to links that appear on
    # some good path; any inferred link must at least be *consistent* —
    # absent from every good path — and most must be truly congested.
    good_links = {l for links, bad in aggregated if not bad for l in links}
    assert not (inferred & good_links), "exonerated links must never be blamed"
    if inferred:
        assert len(inferred & truth) / len(inferred) >= 0.5
    observed_truth = {
        l for l in truth if any(l in links for links, _bad in aggregated)
    }
    identifiable = observed_truth - good_links
    if identifiable:
        assert len(inferred & identifiable) >= max(1, len(identifiable) // 2)


def test_world_generation_builds_the_fabric():
    internet = generate_internet(InternetConfig(seed=7, n_stub=300))
    assert internet.summary()["interconnects"] > 500


def test_tslp_tracks_link_state(small_study):
    internet = small_study.internet
    vp = make_ark_vps(internet)[0]
    prober = TSLPProber(internet, small_study.links, small_study.forwarder, seed=7)
    gtt = internet.as_named("GTT")
    att = internet.as_named("ATT")
    links = internet.fabric.links_between(gtt.asn, att.asn)
    if not links:
        pytest.skip("no GTT-ATT adjacency at this scale")

    verdicts = [
        detect_level_shift(prober.probe_day(vp.asn, vp.city, link))
        for link in links[:6]
    ]
    truths = [small_study.links.params(l.link_id).congested for l in links[:6]]
    agreement = sum(1 for v, t in zip(verdicts, truths) if v.congested == t)
    assert agreement >= len(truths) - 1, "TSLP must track link state"


def test_rtt_signatures_label_every_flow(small_campaign):
    records = small_campaign.campaign.ndt_records
    baselines = {}
    for record in records:
        key = (record.server_id, record.client_ip)
        baselines[key] = min(baselines.get(key, float("inf")), record.rtt_min_ms)
    labels = []
    for record in records:
        signature = FlowRTTSignature(
            baseline_rtt_ms=baselines[(record.server_id, record.client_ip)],
            rtt_min_ms=record.rtt_min_ms,
            rtt_max_ms=record.rtt_max_ms,
        )
        labels.append(classify_flow(signature))

    assert len(labels) == len(records)
    assert FlowLimit.SELF_INDUCED in labels


def test_route_flow_reaches_an_access_isp(small_study):
    level3 = small_study.internet.as_named("Level3")
    comcast = small_study.internet.as_named("Comcast")
    city = comcast.home_cities[0]
    path = small_study.forwarder.route_flow(level3.asn, "nyc", comcast.asn, city, flow_key=0)
    assert path is not None


def test_traceroute_renders_hops(small_study):
    level3 = small_study.internet.as_named("Level3")
    comcast = small_study.internet.as_named("Comcast")
    city = comcast.home_cities[0]
    path = small_study.forwarder.route_flow(level3.asn, "nyc", comcast.asn, city, "k")
    record = small_study.traceroute_engine.trace_along(path, 1, 2, city, 0.0)
    assert record.hops


def test_table3_border_counts(small_study):
    internet = small_study.internet
    vps = [v for v in make_ark_vps(internet) if v.label in ("COM-1", "ATT", "RCN")]
    resolver = AliasResolver(internet, seed=7)
    rows = {}
    for vp in vps:
        traces = collect_bdrmap_traces(internet, vp, small_study.traceroute_engine)
        rows[vp.label] = run_bdrmap(
            internet, vp, traces, small_study.oracle, alias_resolver=resolver
        )

    assert rows["ATT"].as_level_count() > rows["RCN"].as_level_count(), (
        "Table 3 ordering: AT&T has far more borders than RCN"
    )
    for result in rows.values():
        assert result.router_level_count() >= result.as_level_count()
        assert result.as_level_count(Relationship.PEER) > 0


def test_temporal_coverage_does_not_improve(small_study, small_coverage):
    study_2017 = build_study(
        replace(small_study.config, epoch="2017", speedtest_server_count=280)
    )
    reports_2017 = coverage_reports(study_2017, alexa_count=150)
    deltas = {}
    for label, r15 in small_coverage.items():
        r17 = reports_2017.get(label)
        if r17 is None:
            continue
        deltas[label] = (
            r17.coverage_fraction("mlab", "as") - r15.coverage_fraction("mlab", "as"),
            r17.coverage_fraction("speedtest", "as")
            - r15.coverage_fraction("speedtest", "as"),
        )

    assert len(deltas) == 16
    mlab_nonincreasing = sum(1 for m, _s in deltas.values() if m <= 0.02)
    assert mlab_nonincreasing >= 10, (
        "paper: coverage does not improve though the fabric grows"
    )
