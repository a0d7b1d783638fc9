"""World contracts: healthy worlds pass; mutated worlds fail by name.

The acceptance bar for the validation subsystem: a deliberately broken
world (a valley-violating route, a prefix announced by an unknown AS, an
interconnect that disagrees with the router fabric, a coverage numerator
outside its denominator) must surface as a *named* contract failure —
never a crash, never a silent pass.
"""

from __future__ import annotations

import pytest

from repro.core.coverage import BorderSet, CoverageReport
from repro.core.pipeline import (
    StudyConfig,
    build_study,
    clear_study_cache,
    set_inline_validation,
)
from repro.platforms.ark import ArkVP
from repro.routing.bgp import BGPRouting, valley_free_violations
from repro.topology.addressing import Prefix
from repro.topology.asgraph import AS, ASGraph, ASRole, Relationship
from repro.topology.generator import InternetConfig, generate_internet
from repro.topology.routers import InterconnectKind
from repro.validate import (
    CONTRACTS,
    ContractViolation,
    check_coverage_report,
    validate_internet,
    validate_world,
)
from repro.validate.contracts import WorldContext, _run_contract

MUTABLE_CONFIG = InternetConfig(seed=11, n_stub=10, n_transit=3)


@pytest.fixture
def mutable_internet():
    """A fresh, private world per test — safe to vandalize."""
    return generate_internet(MUTABLE_CONFIG)


def _result(report, name):
    matches = [r for r in report.results if r.name == name]
    assert len(matches) == 1, f"{name} not reported exactly once"
    return matches[0]


class TestHealthyWorlds:
    def test_tiny_internet_satisfies_all_contracts(self, tiny_internet):
        report = validate_internet(tiny_internet)
        assert report.ok, report.render()
        names = [r.name for r in report.results]
        assert names == list(CONTRACTS)

    def test_internet_only_run_reports_study_contracts_as_skipped(self, tiny_internet):
        report = validate_internet(tiny_internet)
        assert _result(report, "coverage.numerator_subset").skipped
        assert _result(report, "study.seed_wiring").skipped

    def test_small_study_satisfies_all_contracts(self, small_study):
        report = validate_world(
            small_study, coverage_prefixes=25, coverage_alexa=25
        )
        assert report.ok, report.render()
        assert not any(r.skipped for r in report.results)

    def test_report_render_names_every_contract(self, tiny_internet):
        rendered = validate_internet(tiny_internet).render()
        for name in ("routing.valley_free", "topology.prefix_table_consistency"):
            assert name in rendered


class TestValleyFreeChecker:
    def _graph(self):
        graph = ASGraph()
        for asn in (1, 2, 3, 4):
            graph.add_as(AS(asn, f"AS{asn}", ASRole.TRANSIT))
        # 1 is provider of 2 and 3; 2-3 peer; 3 is provider of 4.
        graph.add_edge(1, 2, Relationship.CUSTOMER)
        graph.add_edge(1, 3, Relationship.CUSTOMER)
        graph.add_edge(2, 3, Relationship.PEER)
        graph.add_edge(3, 4, Relationship.CUSTOMER)
        return graph

    def test_valid_shapes_pass(self):
        graph = self._graph()
        assert valley_free_violations(graph, [2, 1, 3, 4]) == []
        assert valley_free_violations(graph, [2, 3, 4]) == []  # peer then down
        assert valley_free_violations(graph, [4, 3, 2]) == []  # up then peer

    def test_valley_is_flagged(self):
        graph = self._graph()
        # Down to the customer, then back up: a classic valley.
        violations = valley_free_violations(graph, [1, 3, 4, 3])
        assert violations  # repeats + valley
        violations = valley_free_violations(graph, [1, 2, 3, 1])
        assert any("valley" in v for v in violations)

    def test_missing_adjacency_is_flagged(self):
        violations = valley_free_violations(self._graph(), [2, 4])
        assert any("not an adjacency" in v for v in violations)

    def test_contract_fails_on_valleyed_routing(self, mutable_internet):
        """A routing layer that fabricates valleyed paths is caught."""
        graph = mutable_internet.graph
        access = [a.asn for a in graph.ases_by_role(ASRole.ACCESS)]
        tier1 = [a.asn for a in graph.ases_by_role(ASRole.TIER1)]

        class ValleyRouting(BGPRouting):
            def as_path(self, src, dst):
                path = super().as_path(src, dst)
                if path is not None and len(path) >= 2:
                    # Bounce through the far end's first hop again: loop +
                    # an uphill edge after the path turned over.
                    return path + [path[-2]]
                return path

        report = validate_internet(mutable_internet, routing=ValleyRouting(graph))
        assert access and tier1  # the contract always samples these pairs
        result = _result(report, "routing.valley_free")
        assert not result.passed
        assert result.violations


class TestPrefixTableContract:
    def test_unknown_asn_prefix_fails_by_name(self, mutable_internet):
        mutable_internet.prefix_table.insert(
            Prefix(base=0xC0000000, length=24, asn=999_999)
        )
        report = validate_internet(mutable_internet)
        result = _result(report, "topology.prefix_table_consistency")
        assert not result.passed
        assert any("unknown AS999999" in v for v in result.violations)

    def test_misattributed_client_prefix_fails(self, mutable_internet):
        asn, prefixes = next(iter(mutable_internet.client_prefixes.items()))
        hijacker = next(
            a for a in mutable_internet.graph.asns() if a != asn
        )
        stolen = Prefix(prefixes[0].base, prefixes[0].length, hijacker)
        mutable_internet.prefix_table.insert(stolen)  # replaces the original
        report = validate_internet(mutable_internet)
        result = _result(report, "topology.prefix_table_consistency")
        assert not result.passed


class TestInterconnectFabricContract:
    def test_foreign_router_interconnect_fails(self, mutable_internet):
        fabric = mutable_internet.fabric
        link = fabric.interconnects()[0]
        # A router from a third AS in another city, wired into the link.
        foreign = next(
            r for r in fabric.routers_of_as(link.other_asn(link.a_asn))
            if r.city_code != link.city_code
        )
        fabric.add_interconnect(
            a_asn=link.a_asn,
            b_asn=link.b_asn,
            a_router_id=foreign.router_id,
            b_router_id=link.b_router_id,
            a_ip=link.a_ip,  # reuses another link's interface: also wrong
            b_ip=link.b_ip,
            city_code=link.city_code,
            kind=InterconnectKind.PRIVATE,
            numbered_from_asn=link.a_asn,
        )
        report = validate_internet(mutable_internet)
        result = _result(report, "topology.interconnect_fabric_agreement")
        assert not result.passed
        assert any("belongs to" in v for v in result.violations)
        assert any("sits in" in v for v in result.violations)

    def test_nonendpoint_numbering_fails(self, mutable_internet):
        fabric = mutable_internet.fabric
        link = fabric.interconnects()[0]
        fabric.add_interconnect(
            a_asn=link.a_asn,
            b_asn=link.b_asn,
            a_router_id=link.a_router_id,
            b_router_id=link.b_router_id,
            a_ip=link.a_ip,
            b_ip=link.b_ip,
            city_code=link.city_code,
            kind=InterconnectKind.PRIVATE,
            numbered_from_asn=424242,
        )
        report = validate_internet(mutable_internet)
        result = _result(report, "topology.interconnect_fabric_agreement")
        assert not result.passed
        assert any("numbered from non-endpoint" in v for v in result.violations)


class TestCoverageContract:
    def _vp(self):
        return ArkVP(code="X", label="X", org_name="X", asn=7922, ip=1,
                     city="nyc")

    def test_consistent_report_passes(self):
        discovered = BorderSet("bdrmap", frozenset({10, 20}),
                               frozenset({(1, 10), (2, 20)}))
        reachable = {
            "mlab": BorderSet("mlab", frozenset({10}), frozenset({(1, 10)})),
        }
        report = CoverageReport(
            vp=self._vp(),
            discovered=discovered,
            reachable=reachable,
            relationships={10: Relationship.PEER, 20: Relationship.CUSTOMER},
        )
        assert check_coverage_report(report) == []

    def test_numerator_outside_denominator_universe_fails(self):
        """An org covered by a platform but absent from the relationship
        universe: the numerator escaped its denominator's domain."""
        discovered = BorderSet("bdrmap", frozenset({10}), frozenset({(1, 10)}))
        reachable = {
            "mlab": BorderSet("mlab", frozenset({10, 99}), frozenset({(1, 10)})),
        }
        report = CoverageReport(
            vp=self._vp(),
            discovered=discovered,
            reachable=reachable,
            relationships={10: Relationship.PEER},
        )
        violations = check_coverage_report(report)
        assert any("outside the relationship universe" in v for v in violations)

    def test_router_level_escaping_as_level_fails(self):
        discovered = BorderSet("bdrmap", frozenset({10}),
                               frozenset({(1, 10), (2, 77)}))
        report = CoverageReport(
            vp=self._vp(),
            discovered=discovered,
            reachable={},
            relationships={10: Relationship.PEER, 77: None},
        )
        violations = check_coverage_report(report)
        assert any("outside its own AS-level set" in v for v in violations)


class TestRegistryRobustness:
    def test_crashing_contract_is_a_named_failure(self, tiny_internet):
        from repro.validate.contracts import Contract

        def explode(ctx):
            raise RuntimeError("boom")

        entry = Contract(name="test.explosive", description="crash test",
                         fn=explode)
        ctx = WorldContext(
            internet=tiny_internet, routing=BGPRouting(tiny_internet.graph)
        )
        result = _run_contract(entry, ctx)
        assert not result.passed
        assert "RuntimeError" in result.violations[0]


class TestInlineValidation:
    def test_build_study_runs_fast_contracts_when_enabled(self):
        config = StudyConfig(seed=13, scale=0.02, mlab_server_count=10,
                             speedtest_server_count=20, clients_per_million=4.0)
        clear_study_cache()
        set_inline_validation(True)
        try:
            study = build_study(config)  # must not raise on a healthy world
            assert study.config is config
        finally:
            set_inline_validation(False)
            clear_study_cache()

    def test_contract_violation_carries_the_report(self):
        from repro.validate.base import CheckResult, ValidationReport

        report = ValidationReport(results=[CheckResult(
            name="routing.valley_free", kind="contract", passed=False,
            violations=("synthetic",),
        )])
        exc = ContractViolation(report)
        assert "routing.valley_free" in str(exc)
        assert exc.report is report
