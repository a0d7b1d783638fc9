"""Shared, memoized heavy steps for the experiment suite.

Several experiments consume the same May-2015-style campaign (fig1, tab2,
sec62) or the same per-VP coverage trace collections (fig2/3/4, sec54).
These helpers run each heavy step once per parameterization and cache the
product twice over: in-process for the current run, and on disk via
:mod:`repro.util.artifact_cache` so the *next* run of the suite or the
benchmarks warm-starts. The per-VP coverage sweep additionally fans out
across a process pool (``jobs``), with parallel results byte-identical
to serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.coverage import CoverageReport, collect_coverage_reports
from repro.core.matching import match_ndt_to_traceroutes
from repro.core.pipeline import Study, StudyConfig, build_study
from repro.inference.mapit import MapIt, MapItConfig, MapItResult
from repro.measurement.records import NDTRecord, TracerouteRecord
from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.platforms.campaign import CampaignConfig, CampaignResult
from repro.topology.isp_data import FIGURE1_ISPS
from repro.util import artifact_cache

_log = get_logger(__name__)

#: Campaign used by the §4 analyses: Figure 1's nine ISPs, Battle-for-the-
#: Net-era burst behaviour, a month of tests.
MAY2015_CAMPAIGN = CampaignConfig(
    seed=7,
    days=28,
    total_tests=60_000,
    orgs=FIGURE1_ISPS,
    burst_prob=0.35,
)


@dataclass
class AnalyzedCampaign:
    """A campaign with matching and MAP-IT already applied."""

    campaign: CampaignResult
    matched_pairs: list[tuple[NDTRecord, TracerouteRecord]]
    mapit_result: MapItResult


_campaign_cache: dict[tuple, AnalyzedCampaign] = {}
_coverage_cache: dict[tuple, dict[str, CoverageReport]] = {}


def analyze_campaign(study: Study, campaign_config: CampaignConfig) -> AnalyzedCampaign:
    """Campaign plus matching plus MAP-IT, recomputed unconditionally."""
    result = study.run_campaign(campaign_config)
    report = match_ndt_to_traceroutes(result.ndt_records, result.traceroute_records)
    traces_by_id = {t.trace_id: t for t in result.traceroute_records}
    matched_pairs = [
        (record, traces_by_id[report.matched[record.test_id]])
        for record in result.ndt_records
        if record.test_id in report.matched
    ]
    mapit = MapIt(study.oracle, study.internet.graph, MapItConfig())
    mapit_result = mapit.infer([t.router_hop_ips() for _r, t in matched_pairs])
    return AnalyzedCampaign(
        campaign=result, matched_pairs=matched_pairs, mapit_result=mapit_result
    )


def analyzed_campaign(
    study: Study, campaign_config: CampaignConfig | None = None
) -> AnalyzedCampaign:
    """Run (once per process, once per cache lifetime on disk) a campaign
    plus matching plus MAP-IT."""
    if campaign_config is None:
        campaign_config = MAY2015_CAMPAIGN
    key = (study.config, campaign_config)
    cached = _campaign_cache.get(key)
    if cached is not None:
        _log.debug("analyzed campaign served from in-process memo")
        return cached

    with span("analyzed_campaign", tests=campaign_config.total_tests):
        analyzed = artifact_cache.fetch(
            "analyzed-campaign",
            (study.config, campaign_config),
            lambda: analyze_campaign(study, campaign_config),
        )
    _campaign_cache[key] = analyzed
    return analyzed


def coverage_reports(
    study: Study,
    alexa_count: int = 500,
    max_prefixes: int | None = None,
    jobs: int | None = None,
) -> dict[str, CoverageReport]:
    """Per-VP §5 coverage reports (bdrmap + M-Lab + Speedtest + Alexa).

    ``jobs`` fans the VPs out across a process pool (None = the session
    default set by ``--jobs``); results are identical whatever the value.
    """
    key = (study.config, alexa_count, max_prefixes)
    cached = _coverage_cache.get(key)
    if cached is not None:
        return cached

    reports = artifact_cache.fetch(
        "coverage-reports",
        (study.config, alexa_count, max_prefixes),
        lambda: collect_coverage_reports(
            study, alexa_count=alexa_count, max_prefixes=max_prefixes, jobs=jobs
        ),
    )
    _coverage_cache[key] = reports
    return reports


def clear_caches() -> None:
    """Drop memoized campaign/coverage products (in-process only; use
    ``repro.util.artifact_cache.clear()`` for the on-disk layer)."""
    _campaign_cache.clear()
    _coverage_cache.clear()
