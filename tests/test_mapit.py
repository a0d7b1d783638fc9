"""Unit tests for MAP-IT on hand-built boundary scenarios, plus an
integration accuracy check on the generated world."""

import pickle

import pytest

from repro.inference.borders import OriginOracle
from repro.inference.mapit import InferredLink, MapIt, MapItConfig, MapItResult
from repro.topology.addressing import Prefix, PrefixTable
from repro.topology.asgraph import AS, ASGraph, ASRole, Relationship
from repro.topology.orgs import Organization, OrgMap
from repro.util.ip import parse_ip

A_ASN, B_ASN = 100, 200

A_CORE = parse_ip("10.0.0.2")
B_CORE = parse_ip("10.1.0.2")
B_ACCESS = parse_ip("10.1.0.4")


def _world(ixp=False):
    table = PrefixTable()
    table.insert(Prefix(parse_ip("10.0.0.0"), 16, A_ASN))
    table.insert(Prefix(parse_ip("10.1.0.0"), 16, B_ASN))
    ixp_prefixes = []
    if ixp:
        ixp_prefixes.append(Prefix(parse_ip("10.9.0.0"), 24, 0))
    graph = ASGraph()
    graph.add_as(AS(A_ASN, "A", ASRole.TIER1))
    graph.add_as(AS(B_ASN, "B", ASRole.ACCESS))
    graph.add_edge(A_ASN, B_ASN, Relationship.PEER)
    oracle = OriginOracle(table, None, ixp_prefixes)
    return MapIt(oracle, graph, MapItConfig()), oracle


class TestBoundaryRules:
    def test_border_numbered_from_near_side(self):
        """/31 from A's space: the far interface must flip to B."""
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        mapit, _ = _world()
        traces = [[A_CORE, near, far, B_CORE, B_ACCESS]] * 4
        result = mapit.infer(traces)
        assert result.ownership[far] == B_ASN
        assert result.ownership[near] == A_ASN
        links = {(l.ip_pair(), l.as_pair()) for l in result.links}
        assert ((near, far), (A_ASN, B_ASN)) in links
        assert len(result.links) == 1

    def test_border_numbered_from_far_side(self):
        """/31 from B's space: the near interface must flip to A."""
        near, far = parse_ip("10.1.0.100"), parse_ip("10.1.0.101")
        mapit, _ = _world()
        traces = [[A_CORE, near, far, B_CORE, B_ACCESS]] * 4
        result = mapit.infer(traces)
        assert result.ownership[near] == A_ASN
        assert result.ownership[far] == B_ASN
        assert len(result.links) == 1
        assert result.links[0].ip_pair() == (near, far)

    def test_converges(self):
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        mapit, _ = _world()
        result = mapit.infer([[A_CORE, near, far, B_CORE]] * 3)
        assert result.passes_used < MapItConfig().max_passes

    def test_boundary_does_not_creep(self):
        """Core interfaces on either side must keep their true owner."""
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        mapit, _ = _world()
        result = mapit.infer([[A_CORE, near, far, B_CORE, B_ACCESS]] * 6)
        assert result.ownership[A_CORE] == A_ASN
        assert result.ownership[B_CORE] == B_ASN
        assert result.ownership[B_ACCESS] == B_ASN

    def test_relationship_gate_blocks_implausible_flip(self):
        """No A–B relationship → no flip, no link."""
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        table = PrefixTable()
        table.insert(Prefix(parse_ip("10.0.0.0"), 16, A_ASN))
        table.insert(Prefix(parse_ip("10.1.0.0"), 16, B_ASN))
        graph = ASGraph()
        graph.add_as(AS(A_ASN, "A", ASRole.TIER1))
        graph.add_as(AS(B_ASN, "B", ASRole.ACCESS))
        # no edge added
        mapit = MapIt(OriginOracle(table), graph, MapItConfig())
        result = mapit.infer([[A_CORE, near, far, B_CORE]] * 4)
        assert result.ownership[far] == A_ASN  # flip rejected


class TestIXPHandling:
    def test_ixp_run_collapsed_to_link(self):
        ixp1, ixp2 = parse_ip("10.9.0.5"), parse_ip("10.9.0.6")
        mapit, _ = _world(ixp=True)
        result = mapit.infer([[A_CORE, ixp1, ixp2, B_CORE, B_ACCESS]] * 4)
        assert len(result.links) == 1
        link = result.links[0]
        assert link.via_ixp
        assert link.as_pair() == (A_ASN, B_ASN)

    def test_ixp_addresses_stay_unowned(self):
        ixp1, ixp2 = parse_ip("10.9.0.5"), parse_ip("10.9.0.6")
        mapit, _ = _world(ixp=True)
        result = mapit.infer([[A_CORE, ixp1, ixp2, B_CORE]] * 4)
        assert result.ownership[ixp1] is None
        assert result.ownership[ixp2] is None


class TestGapsAndNoise:
    def test_gap_produces_no_evidence(self):
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        mapit, _ = _world()
        result = mapit.infer([[A_CORE, None, far, B_CORE]] * 4)
        # Without the near hop, the /31 partner is invisible: no flip, and
        # no (core, far) pseudo-link may be fabricated across the gap.
        pairs = {l.ip_pair() for l in result.links}
        assert (min(A_CORE, far), max(A_CORE, far)) not in pairs

    def test_min_observations_filter(self):
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        table = PrefixTable()
        table.insert(Prefix(parse_ip("10.0.0.0"), 16, A_ASN))
        table.insert(Prefix(parse_ip("10.1.0.0"), 16, B_ASN))
        graph = ASGraph()
        graph.add_as(AS(A_ASN, "A", ASRole.TIER1))
        graph.add_as(AS(B_ASN, "B", ASRole.ACCESS))
        graph.add_edge(A_ASN, B_ASN, Relationship.PEER)
        mapit = MapIt(
            OriginOracle(table), graph, MapItConfig(min_link_observations=3)
        )
        result = mapit.infer([[A_CORE, near, far, B_CORE]] * 2)
        assert result.links == []

    def test_annotate_trace(self):
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        mapit, _ = _world()
        result = mapit.infer([[A_CORE, near, far, B_CORE]] * 4)
        crossings = result.annotate_trace([A_CORE, near, far, B_CORE])
        assert len(crossings) == 1
        index, link = crossings[0]
        assert index == 2
        assert link.as_pair() == (A_ASN, B_ASN)

    def test_sibling_collapse_suppresses_intra_org_links(self):
        near, far = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
        table = PrefixTable()
        table.insert(Prefix(parse_ip("10.0.0.0"), 16, A_ASN))
        table.insert(Prefix(parse_ip("10.1.0.0"), 16, B_ASN))
        orgs = OrgMap()
        orgs.add(Organization("o", "SameOrg", (A_ASN, B_ASN)))
        graph = ASGraph()
        graph.add_as(AS(A_ASN, "A", ASRole.TIER1))
        graph.add_as(AS(B_ASN, "B", ASRole.ACCESS))
        graph.add_edge(A_ASN, B_ASN, Relationship.CUSTOMER)
        mapit = MapIt(OriginOracle(table, orgs), graph, MapItConfig())
        result = mapit.infer([[A_CORE, near, far, B_CORE]] * 4)
        assert result.links == []  # sibling boundary is not interdomain


class TestLinkIndex:
    """``annotate_trace`` reads one ip-pair index, built on first use."""

    NEAR, FAR = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
    TRACE = [A_CORE, NEAR, FAR, B_CORE]

    def _result(self):
        """Two links on one ip pair, seen in opposite trace directions."""
        first = InferredLink(self.NEAR, self.FAR, A_ASN, B_ASN, observations=4)
        later = InferredLink(self.FAR, self.NEAR, B_ASN, A_ASN, observations=2)
        result = MapItResult(
            ownership={self.NEAR: A_ASN, self.FAR: B_ASN},
            links=[first, later],
            passes_used=1,
            flips=1,
        )
        return result, later

    def test_later_link_on_a_pair_wins(self):
        result, later = self._result()
        assert result.annotate_trace(self.TRACE) == [(2, later)]
        assert result.annotate_trace(self.TRACE[::-1]) == [(2, later)]

    def test_index_built_once(self, monkeypatch):
        result, _ = self._result()
        calls = []
        ip_pair = InferredLink.ip_pair

        def counted(link):
            calls.append(link)
            return ip_pair(link)

        monkeypatch.setattr(InferredLink, "ip_pair", counted)
        for _ in range(5):
            assert len(result.annotate_trace(self.TRACE)) == 1
        assert len(calls) == len(result.links)

    def test_pickled_after_index_built(self):
        result, later = self._result()
        crossings = result.annotate_trace(self.TRACE)
        clone = pickle.loads(pickle.dumps(result))
        assert clone == result
        assert clone.annotate_trace(self.TRACE) == crossings == [(2, later)]


class TestIntegrationAccuracy:
    def test_as_pair_accuracy_on_generated_world(self, small_study):
        from repro.platforms.campaign import CampaignConfig

        result = small_study.run_campaign(
            CampaignConfig(seed=2, days=7, total_tests=2500)
        )
        traces = [t.router_hop_ips() for t in result.traceroute_records]
        mapit = MapIt(small_study.oracle, small_study.internet.graph)
        inferred = mapit.infer(traces)

        internet = small_study.internet
        gt_as_pairs = set()
        for trace in result.traceroute_records:
            for link_id in trace.gt_crossed_links:
                link = internet.fabric.interconnect(link_id)
                if internet.orgs.are_siblings(link.a_asn, link.b_asn):
                    continue
                a = internet.orgs.canonical_asn(link.a_asn)
                b = internet.orgs.canonical_asn(link.b_asn)
                gt_as_pairs.add((min(a, b), max(a, b)))
        inf_as_pairs = {l.as_pair() for l in inferred.links}
        tp = len(gt_as_pairs & inf_as_pairs)
        assert tp / len(inf_as_pairs) > 0.9, "AS-pair precision"
        assert tp / len(gt_as_pairs) > 0.8, "AS-pair recall"
