"""MAP-IT, the border walk and alias grouping as array passes.

Each array pass must reproduce its scalar reference
(``tests/scalar_reference.py``) exactly: on hand-made corpora that hit
the corners of the hop columns (empty and all-gap corpora, zero- and
one-hop traces, repeats, duplicates, IXP runs, majority ties), and on
corpora traced in the generated worlds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.coverage import collect_target_traces, coverage_analysis
from repro.inference.alias import AliasResolver
from repro.inference.bdrmap import collect_bdrmap_traces, first_departures, run_bdrmap
from repro.inference.borders import OriginOracle
from repro.inference.corpus import NO_REPLY, TraceCorpus
from repro.inference.mapit import MapIt, MapItConfig
from repro.measurement.traceroute import TracerouteConfig, TracerouteEngine
from repro.platforms.ark import make_ark_vps
from repro.routing.bgp import BGPRouting
from repro.routing.forwarding import Forwarder
from repro.topology.addressing import Prefix, PrefixTable
from repro.topology.asgraph import AS, ASGraph, ASRole, Relationship
from repro.util.ip import parse_ip
from tests import scalar_reference as reference

A, B, C = 100, 200, 300

A1, A2, A3 = parse_ip("10.0.0.2"), parse_ip("10.0.0.6"), parse_ip("10.0.0.10")
B1, B2 = parse_ip("10.1.0.2"), parse_ip("10.1.0.6")
C1, C2 = parse_ip("10.2.0.2"), parse_ip("10.2.0.6")
#: A border /31 numbered from A's space, and one numbered from B's.
NEAR_A, FAR_A = parse_ip("10.0.0.100"), parse_ip("10.0.0.101")
NEAR_B, FAR_B = parse_ip("10.1.0.100"), parse_ip("10.1.0.101")
IXP1, IXP2 = parse_ip("10.9.0.5"), parse_ip("10.9.0.6")
#: Announced by nobody and not an IXP address: an unowned hop.
UNOWNED = parse_ip("192.0.2.1")
#: A /31 whose lower address C announces as a /32: point-to-point
#: neighbors with different origins are no partners.
SPLIT_LOW, SPLIT_HIGH = parse_ip("10.0.0.200"), parse_ip("10.0.0.201")


def _oracle_and_graph():
    table = PrefixTable()
    table.insert(Prefix(parse_ip("10.0.0.0"), 16, A))
    table.insert(Prefix(parse_ip("10.1.0.0"), 16, B))
    table.insert(Prefix(parse_ip("10.2.0.0"), 16, C))
    table.insert(Prefix(SPLIT_LOW, 32, C))
    oracle = OriginOracle(table, None, [Prefix(parse_ip("10.9.0.0"), 24, 0)])
    graph = ASGraph()
    for asn, name in ((A, "A"), (B, "B"), (C, "C")):
        graph.add_as(AS(asn, name, ASRole.TRANSIT))
    graph.add_edge(A, B, Relationship.PEER)
    graph.add_edge(A, C, Relationship.CUSTOMER)
    return oracle, graph


def _assert_same(traces, oracle, graph, config=None):
    fast = MapIt(oracle, graph, config).infer(traces)
    slow = reference.ScalarMapIt(oracle, graph, config).infer(traces)
    assert list(fast.ownership.items()) == list(slow.ownership.items())
    assert fast.links == slow.links
    assert (fast.passes_used, fast.flips) == (slow.passes_used, slow.flips)
    return fast


#: Majority tie at C1: predecessors A1 and B1 seen twice each. The tie
#: goes to the smaller owner (A), which agrees with the successor side.
TIE = [[A1, C1, A2]] * 2 + [[B1, C1, A3]] * 2

HAND_MADE = {
    "empty": [],
    "all-gaps": [[None, None], [None], [None, None, None]],
    "zero-and-one-hop": [[], [A1], [], [B1], [None]],
    "repeated-adjacent-hops": [[A1, A1, NEAR_A, NEAR_A, FAR_A, B1, B1, B2]] * 3,
    "duplicated-traces": [[A2, A1, NEAR_A, FAR_A, B1, B2]] * 5
    + [[B2, B1, FAR_A, NEAR_A, A1, A2]] * 2,
    "far-side-numbering": [[A1, NEAR_B, FAR_B, B1, B2]] * 4,
    "gap-at-the-border": [[A1, NEAR_A, None, FAR_A, B1]] * 3,
    "ixp-run-mid-trace": [[A1, IXP1, IXP2, B1, B2]] * 4,
    "ixp-run-at-start": [[IXP1, IXP2, B1, B2]] * 3,
    "ixp-run-at-end": [[A1, A2, IXP1]] * 3 + [[A1, A2, IXP1, IXP2]],
    "ixp-after-unowned-hop": [[A1, UNOWNED, IXP1, B1], [A1, IXP1, UNOWNED, IXP2, B1]] * 2,
    "ixp-run-across-gap": [[A1, IXP1, None, IXP2, B1]] * 2,
    "ixp-run-within-one-network": [[A1, IXP1, A2]] * 2,
    "partner-with-other-origin": [[A1, SPLIT_LOW, SPLIT_HIGH, B1]]
    + [[A1, A2, SPLIT_HIGH, B1]] * 3,
    "majority-tie": TIE,
    "three-way-tie": [[A1, C1, A2], [B1, C1, A2], [C2, C1, A2]],
}


class TestMapItHandMade:
    @pytest.mark.parametrize("name", list(HAND_MADE))
    def test_matches_reference(self, name):
        oracle, graph = _oracle_and_graph()
        _assert_same(HAND_MADE[name], oracle, graph)

    @pytest.mark.parametrize("name", list(HAND_MADE))
    def test_matches_reference_without_graph(self, name):
        oracle, _graph = _oracle_and_graph()
        _assert_same(HAND_MADE[name], oracle, None)

    def test_tie_goes_to_smallest_owner(self):
        oracle, graph = _oracle_and_graph()
        # A tie share of 0.5 only acts below the default threshold.
        result = _assert_same(TIE, oracle, graph, MapItConfig(majority_threshold=0.4))
        assert result.ownership[C1] == A

    def test_ixp_run_after_unowned_hop_keeps_run_start(self):
        oracle, graph = _oracle_and_graph()
        result = _assert_same(HAND_MADE["ixp-after-unowned-hop"], oracle, graph)
        ixp_links = [link for link in result.links if link.via_ixp]
        assert {(link.near_ip, link.as_pair()) for link in ixp_links} == {
            (IXP1, (A, B)),
            (IXP2, (A, B)),
        }

    def test_partner_needs_the_same_origin(self):
        oracle, graph = _oracle_and_graph()
        result = _assert_same(HAND_MADE["partner-with-other-origin"], oracle, graph)
        assert result.ownership[SPLIT_HIGH] == A  # no boundary flip to B

    def test_first_seen_direction_names_near_and_far(self):
        oracle, graph = _oracle_and_graph()
        traces = HAND_MADE["duplicated-traces"]
        (link,) = _assert_same(traces, oracle, graph).links
        assert (link.near_ip, link.far_ip, link.observations) == (A1, NEAR_A, 7)
        (link,) = _assert_same(traces[::-1], oracle, graph).links
        assert (link.near_ip, link.far_ip, link.observations) == (NEAR_A, A1, 7)

    @pytest.mark.parametrize(
        "config",
        [
            MapItConfig(max_passes=1),
            MapItConfig(max_passes=0),
            MapItConfig(max_flips_per_interface=0),
            MapItConfig(min_link_observations=3),
        ],
        ids=["one-pass", "no-pass", "all-frozen", "min-observations"],
    )
    def test_config_edges(self, config):
        oracle, graph = _oracle_and_graph()
        traces = [trace for corpus in HAND_MADE.values() for trace in corpus]
        _assert_same(traces, oracle, graph, config)

    def test_lists_and_tuples_are_one_corpus(self):
        oracle, graph = _oracle_and_graph()
        traces = HAND_MADE["duplicated-traces"]
        as_lists = MapIt(oracle, graph).infer(traces)
        as_tuples = MapIt(oracle, graph).infer([tuple(t) for t in traces])
        prebuilt = MapIt(oracle, graph).infer(TraceCorpus.of(traces))
        assert as_lists == as_tuples == prebuilt


class TestLinksSkipped:
    def test_ownership_only(self):
        oracle, graph = _oracle_and_graph()
        traces = HAND_MADE["far-side-numbering"] + HAND_MADE["ixp-run-mid-trace"]
        full = MapIt(oracle, graph).infer(traces)
        bare = MapIt(oracle, graph).infer(traces, links=False)
        assert list(bare.ownership.items()) == list(full.ownership.items())
        assert (bare.passes_used, bare.flips) == (full.passes_used, full.flips)
        assert full.links and bare.links is None

    def test_skipped_links_do_not_read_as_none_found(self):
        oracle, graph = _oracle_and_graph()
        bare = MapIt(oracle, graph).infer(HAND_MADE["far-side-numbering"], links=False)
        with pytest.raises(ValueError):
            bare.annotate_trace([A1, NEAR_B, FAR_B, B1])


class TestTraceCorpus:
    def test_columns(self):
        traces = [[A1, None, B1], (A1, None, B1), [], [B1], [A1, None, B1], [B1]]
        corpus = TraceCorpus.of(traces)
        assert len(corpus) == 6
        assert corpus.hops.tolist() == [A1, NO_REPLY, B1, B1]
        assert corpus.offsets.tolist() == [0, 3, 3, 4]
        assert corpus.counts.tolist() == [3, 1, 2]
        assert corpus.inverse.tolist() == [0, 0, 1, 2, 0, 2]
        assert corpus.addresses.tolist() == sorted({A1, B1})
        assert corpus.addresses[corpus.hop_index[[0, 2, 3]]].tolist() == [A1, B1, B1]
        assert corpus.hop_index[1] == -1
        assert corpus.sequence_of_hops().tolist() == [0, 0, 0, 2]

    def test_empty(self):
        corpus = TraceCorpus.of([])
        assert len(corpus) == 0
        assert corpus.offsets.tolist() == [0]
        assert corpus.counts.tolist() == corpus.addresses.tolist() == []


#: Border walk corpus for VP org A: every rule of the first departure.
WALK = [
    [],
    [None],
    [A1],
    [A1, B1],
    [A1, None, B1],
    [A1, IXP1, IXP2, B1],
    [A1, IXP1],
    [A1, IXP1, None, B1],
    [A1, UNOWNED, B1],
    [A1, B1, A2, C1],
    [B1, C1],
    [A1, A1, B1],
    [C2, A1, B1, None],
    [None, A1, IXP1, C1, B1],
    [A1, B1],
    [IXP1, A1, IXP2],
]
WALK_OWNERSHIP = {A1: A, A2: A, B1: B, C1: C, IXP1: None, IXP2: None, UNOWNED: None}


def _assert_walk_matches(paths, ownership, vp_org, oracle):
    corpus = TraceCorpus.of(paths)
    near, neighbor = first_departures(corpus, ownership, vp_org, oracle)
    crossings = 0
    for path, sequence in zip(paths, corpus.inverse.tolist()):
        expected = reference.first_departure(path, ownership, vp_org, oracle)
        if expected is None:
            assert (near[sequence], neighbor[sequence]) == (-1, -1), path
        else:
            near_ip, _far_ip, neighbor_asn = expected
            assert (near[sequence], neighbor[sequence]) == (near_ip, neighbor_asn), path
            crossings += 1
    return crossings


class TestBorderWalk:
    def test_hand_made_traces(self):
        oracle, _graph = _oracle_and_graph()
        assert _assert_walk_matches(WALK, WALK_OWNERSHIP, A, oracle) == 7

    def test_empty_inputs(self):
        oracle, _graph = _oracle_and_graph()
        assert _assert_walk_matches([], WALK_OWNERSHIP, A, oracle) == 0
        assert _assert_walk_matches([[None, None]], WALK_OWNERSHIP, A, oracle) == 0
        assert _assert_walk_matches(WALK, {}, A, oracle) == 0

    def test_generated_vp_corpus(self, small_study):
        study = small_study
        vp = study.ark_vps()[2]
        traces = collect_bdrmap_traces(study.internet, vp, study.traceroute_engine)
        paths = [t.router_hop_ips() for t in traces]
        ownership = MapIt(study.oracle, study.internet.graph).infer(paths).ownership
        vp_org = study.oracle.canonical(vp.asn)
        assert _assert_walk_matches(paths, ownership, vp_org, study.oracle) > 100


def _border_ips(internet, count=300):
    ips = []
    for link in internet.fabric.interconnects()[:count]:
        ips.extend([link.a_ip, link.b_ip])
    return ips


class TestAliasGrouping:
    @pytest.mark.parametrize("recall", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("seed", [7, 11])
    def test_matches_reference(self, tiny_internet, recall, seed):
        fabric = tiny_internet.fabric
        ips = _border_ips(tiny_internet) + [UNOWNED, 999_999_999, 1]
        # Whole routers too, so groups of three and more get split.
        ips += [
            iface.ip
            for link in fabric.interconnects()[:40]
            for iface in fabric.interfaces_of(link.a_router_id)
        ]
        got = AliasResolver(tiny_internet, recall=recall, seed=seed).resolve(ips).group_of
        expected = reference.resolve_aliases(tiny_internet, ips, recall=recall, seed=seed)
        assert list(got.items()) == list(expected.items())

    def test_input_forms(self, tiny_internet):
        ips = _border_ips(tiny_internet, 50)
        resolver = AliasResolver(tiny_internet, seed=7)
        as_list = resolver.resolve(ips).group_of
        assert resolver.resolve(set(ips)).group_of == as_list
        assert resolver.resolve(np.array(ips[::-1], dtype=np.int64)).group_of == as_list
        assert AliasResolver(tiny_internet).resolve([]).group_of == {}

    def test_generated_vp_corpus(self, small_study):
        study = small_study
        vp = study.ark_vps()[0]
        traces = collect_bdrmap_traces(study.internet, vp, study.traceroute_engine)
        observed = {ip for t in traces for ip in t.router_hop_ips() if ip is not None}
        got = AliasResolver(study.internet, seed=3).resolve(observed).group_of
        expected = reference.resolve_aliases(study.internet, observed, seed=3)
        assert list(got.items()) == list(expected.items())


@pytest.fixture(scope="module")
def tiny_vp_traces(tiny_internet):
    forwarder = Forwarder(tiny_internet, BGPRouting(tiny_internet.graph))
    engine = TracerouteEngine(tiny_internet, forwarder, TracerouteConfig(seed=7))
    oracle = OriginOracle(
        tiny_internet.prefix_table, tiny_internet.orgs, tiny_internet.ixps.prefixes()
    )
    vp = next(v for v in make_ark_vps(tiny_internet) if v.label == "COM-1")
    return vp, collect_bdrmap_traces(tiny_internet, vp, engine), oracle


class TestPipelines:
    def test_run_bdrmap_matches_reference(self, tiny_internet, tiny_vp_traces):
        vp, traces, oracle = tiny_vp_traces
        got = run_bdrmap(tiny_internet, vp, traces, oracle)
        assert got.borders
        assert got == reference.run_bdrmap(tiny_internet, vp, traces, oracle)

    def test_run_bdrmap_with_resolver_on_study(self, small_study):
        study = small_study
        vp = study.ark_vps()[5]
        traces = collect_bdrmap_traces(study.internet, vp, study.traceroute_engine)
        traces += traces[:200]  # duplicates count as observations
        resolver = AliasResolver(study.internet, recall=0.5, seed=5)
        got = run_bdrmap(study.internet, vp, traces, study.oracle, alias_resolver=resolver)
        expected = reference.run_bdrmap(
            study.internet, vp, traces, study.oracle, recall=0.5, seed=5
        )
        assert got == expected

    def test_coverage_analysis_matches_reference(self, small_study):
        study = small_study
        vp = next(v for v in study.ark_vps() if v.label == "COX-1")
        engine = study.traceroute_engine
        bdrmap_traces = collect_bdrmap_traces(study.internet, vp, engine)
        mlab = [(s.ip, s.asn, s.city) for s in study.mlab.servers()]
        alexa = [(t.ip, t.asn, t.city) for t in study.alexa_targets(count=80)]
        platform_traces = {
            "mlab": collect_target_traces(study.internet, vp, engine, mlab, "mlab"),
            "alexa": collect_target_traces(study.internet, vp, engine, alexa, "alexa"),
            "empty": [],
            # Repeats of earlier traces, met in another order.
            "reversed": bdrmap_traces[::-1],
        }
        got = coverage_analysis(study.internet, vp, bdrmap_traces, platform_traces, study.oracle)
        expected = reference.coverage_analysis(
            study.internet, vp, bdrmap_traces, platform_traces, study.oracle
        )
        assert got == expected
        # The sets fill in trace order, as the walk trace by trace fills them.
        for name in platform_traces:
            assert list(got.reachable[name].as_level) == list(expected.reachable[name].as_level)
            assert list(got.reachable[name].router_level) == list(
                expected.reachable[name].router_level
            )
        assert list(got.relationships) == list(expected.relationships)
        assert got.discovered.as_level and got.reachable["empty"].as_level == frozenset()
