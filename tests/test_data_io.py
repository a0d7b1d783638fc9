"""Round-trip tests for dataset export/import."""

import json

import pytest

from repro.data.ndt_io import (
    load_ndt_csv,
    load_traceroutes_jsonl,
    write_ndt_csv,
    write_traceroutes_jsonl,
)
from repro.data.topology_io import (
    load_as_org_map,
    load_prefix_table,
    load_relationships,
    relationships_to_graph_edges,
    write_as_org_map,
    write_prefix_table,
    write_relationships,
)
from repro.measurement.records import TracerouteRecord
from repro.platforms.campaign import CampaignConfig
from repro.topology.asgraph import AS, ASGraph, ASRole
from repro.util.ip import parse_ip


@pytest.fixture(scope="module")
def small_campaign(small_study):
    return small_study.run_campaign(
        CampaignConfig(seed=51, days=2, total_tests=300, orgs=("Cox",))
    )


class TestNDTRoundTrip:
    def test_public_fields_preserved(self, small_campaign, tmp_path):
        path = str(tmp_path / "ndt.csv")
        count = write_ndt_csv(small_campaign.ndt_records, path)
        assert count == len(small_campaign.ndt_records)
        loaded = load_ndt_csv(path)
        assert len(loaded) == count
        for original, reloaded in zip(small_campaign.ndt_records, loaded):
            assert reloaded.test_id == original.test_id
            assert reloaded.client_ip == original.client_ip
            assert reloaded.download_bps == pytest.approx(original.download_bps)
            assert reloaded.rtt_min_ms == pytest.approx(original.rtt_min_ms)

    def test_ground_truth_absent_by_default(self, small_campaign, tmp_path):
        path = str(tmp_path / "ndt.csv")
        write_ndt_csv(small_campaign.ndt_records, path)
        loaded = load_ndt_csv(path)
        assert all(r.gt_client_org == "" for r in loaded)
        assert all(r.gt_crossed_links == () for r in loaded)

    def test_ground_truth_opt_in(self, small_campaign, tmp_path):
        path = str(tmp_path / "ndt_gt.csv")
        write_ndt_csv(small_campaign.ndt_records, path, include_ground_truth=True)
        loaded = load_ndt_csv(path)
        originals = small_campaign.ndt_records
        assert loaded[0].gt_client_org == originals[0].gt_client_org
        assert loaded[0].gt_crossed_links == originals[0].gt_crossed_links


class TestTracerouteRoundTrip:
    def test_hops_preserved(self, small_campaign, tmp_path):
        path = str(tmp_path / "traces.jsonl")
        count = write_traceroutes_jsonl(small_campaign.traceroute_records, path)
        loaded = load_traceroutes_jsonl(path)
        assert len(loaded) == count
        for original, reloaded in zip(small_campaign.traceroute_records, loaded):
            assert reloaded.router_hop_ips() == original.router_hop_ips()
            assert reloaded.reached_destination == original.reached_destination

    def test_analysis_runs_on_reloaded_public_data(
        self, small_study, small_campaign, tmp_path
    ):
        """MAP-IT over exported-then-reloaded traces must match in-memory."""
        from repro.inference.mapit import MapIt

        path = str(tmp_path / "traces.jsonl")
        write_traceroutes_jsonl(small_campaign.traceroute_records, path)
        loaded = load_traceroutes_jsonl(path)
        mapit = MapIt(small_study.oracle, small_study.internet.graph)
        original = mapit.infer(
            [t.router_hop_ips() for t in small_campaign.traceroute_records]
        )
        reloaded = mapit.infer([t.router_hop_ips() for t in loaded])
        assert {l.ip_pair() for l in original.links} == {
            l.ip_pair() for l in reloaded.links
        }

    def test_written_hops_keep_ttl_ip_rtt_objects(self, tmp_path):
        trace = TracerouteRecord(
            trace_id=3, timestamp_s=1.5, src_ip=parse_ip("10.0.0.1"), src_asn=1,
            dst_ip=parse_ip("10.0.0.9"), hop_ips=(parse_ip("10.0.0.2"), None, parse_ip("10.0.0.9")),
            hop_rtts=(1.25, None, 7.5), reached_destination=True,
            gt_crossed_links=(), gt_as_path=(),
        )
        path = tmp_path / "one.jsonl"
        write_traceroutes_jsonl([trace], str(path))
        assert path.read_text() == (
            '{"trace_id": 3, "timestamp_s": 1.5, "src_ip": "10.0.0.1", "src_asn": 1, '
            '"dst_ip": "10.0.0.9", "reached_destination": true, "hops": ['
            '{"ttl": 1, "ip": "10.0.0.2", "rtt_ms": 1.25}, '
            '{"ttl": 2, "ip": null, "rtt_ms": null}, '
            '{"ttl": 3, "ip": "10.0.0.9", "rtt_ms": 7.5}]}\n'
        )
        assert load_traceroutes_jsonl(str(path)) == [trace]

    @pytest.mark.parametrize("ttls", [(1, 3), (1, 1), (2, 3), (2, 1)],
                             ids=["skip", "repeat", "late-start", "reversed"])
    def test_ttls_not_one_to_n_rejected(self, tmp_path, ttls):
        hops = [{"ttl": ttl, "ip": None, "rtt_ms": None} for ttl in ttls]
        line = {"trace_id": 41, "timestamp_s": 0.0, "src_ip": "10.0.0.1", "src_asn": 1,
                "dst_ip": "10.0.0.9", "reached_destination": False, "hops": hops}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(ValueError, match="trace 41"):
            load_traceroutes_jsonl(str(path))


class TestTopologyRoundTrip:
    def test_prefix_table(self, tiny_internet, tmp_path):
        path = str(tmp_path / "pfx2as.txt")
        count = write_prefix_table(tiny_internet.prefix_table, path)
        assert count == len(tiny_internet.prefix_table)
        loaded = load_prefix_table(path)
        for prefix in tiny_internet.prefix_table.prefixes()[:200]:
            assert loaded.origin_asn(prefix.base + 1) == tiny_internet.prefix_table.origin_asn(
                prefix.base + 1
            )

    def test_relationships(self, tiny_internet, tmp_path):
        path = str(tmp_path / "rels.txt")
        count = write_relationships(tiny_internet.graph, path)
        assert count == tiny_internet.graph.edge_count()
        rows = load_relationships(path)
        rebuilt = ASGraph()
        for autonomous_system in tiny_internet.graph:
            rebuilt.add_as(
                AS(autonomous_system.asn, autonomous_system.name, ASRole.STUB)
            )
        relationships_to_graph_edges(rows, rebuilt)
        for asn in tiny_internet.graph.asns()[:100]:
            assert rebuilt.neighbors(asn) == tiny_internet.graph.neighbors(asn)

    def test_org_map(self, tiny_internet, tmp_path):
        path = str(tmp_path / "orgs.txt")
        count = write_as_org_map(tiny_internet.orgs, path)
        assert count == len(tiny_internet.orgs)
        loaded = load_as_org_map(path)
        comcast = tiny_internet.as_named("Comcast")
        assert loaded.siblings(comcast.asn) == tiny_internet.orgs.siblings(comcast.asn)
        assert loaded.canonical_asn(comcast.asn) == tiny_internet.orgs.canonical_asn(
            comcast.asn
        )

    def test_malformed_lines_rejected(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a valid line\n")
        with pytest.raises(ValueError):
            load_prefix_table(str(bad))
        with pytest.raises(ValueError):
            load_relationships(str(bad))
