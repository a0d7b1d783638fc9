"""Study builder: one object wiring the whole stack.

Examples and experiments all need the same preamble — generate the
Internet, provision links, create clients and platforms, stand up routing
and the TCP model. :func:`build_study` does that once per configuration
(memoized, since topology generation and routing caches dominate setup
cost) and hands back a :class:`Study` with everything attached.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.inference.borders import OriginOracle
from repro.obs.log import get_logger
from repro.obs.trace import span
from repro.measurement.traceroute import TracerouteConfig, TracerouteEngine
from repro.net.link import CongestionDirective, LinkNetwork, ProvisioningConfig, provision_links
from repro.net.tcp import TCPModel
from repro.platforms.alexa import AlexaTarget, make_alexa_targets
from repro.platforms.ark import ArkVP, make_ark_vps
from repro.platforms.campaign import CampaignConfig, CampaignResult, run_ndt_campaign
from repro.platforms.clients import ClientPopulation, PopulationConfig
from repro.platforms.mlab import MLabConfig, MLabPlatform
from repro.platforms.speedtest import SpeedtestConfig, SpeedtestPlatform
from repro.routing.bgp import BGPRouting
from repro.routing.forwarding import Forwarder
from repro.topology.generator import InternetConfig, generate_internet
from repro.topology.internet import Internet
from repro.util import artifact_cache
from repro.util.parallel import register_worker_stats

_log = get_logger(__name__)

#: Per-process study-memo traffic, surfaced through
#: ``pool_stats()["worker_stats"]["study_cache"]`` after a fan-out — the
#: direct check that workers reused their world instead of rebuilding it
#: per unit.
_STUDY_POOL_STATS = {"hits": 0, "rebuilds": 0}


def study_cache_stats() -> dict[str, int]:
    """Build-vs-memo counts for this process (see pool worker_stats)."""
    return dict(_STUDY_POOL_STATS)


register_worker_stats("study_cache", study_cache_stats)

#: The congestion scenario of the 2014/2015 M-Lab reports: AT&T's GTT
#: interconnects saturate at peak (the Figure 5(a) case); Verizon↔TATA and
#: TimeWarner↔Cogent join per the 2015 update. Comcast↔GTT is deliberately
#: left healthy — its Figure 5(b) dip must come from the cable access
#: medium, not the interconnect.
DEFAULT_DIRECTIVES: tuple[CongestionDirective, ...] = (
    CongestionDirective("GTT", "ATT", city_code=None, peak_load=1.30),
    CongestionDirective("TATA", "Verizon", city_code=None, peak_load=1.25),
    CongestionDirective("Cogent", "TimeWarnerCable", city_code=None, peak_load=1.20),
)


@dataclass(frozen=True)
class StudyConfig:
    """Everything that determines a study world."""

    seed: int = 7
    epoch: str = "2015"
    scale: float = 1.0
    directives: tuple[CongestionDirective, ...] = DEFAULT_DIRECTIVES
    random_congested_fraction: float = 0.0
    mlab_server_count: int = 261
    speedtest_server_count: int = 900
    clients_per_million: float = 60.0


@dataclass
class Study:
    """A fully wired study world."""

    config: StudyConfig
    internet: Internet
    links: LinkNetwork
    population: ClientPopulation
    mlab: MLabPlatform
    speedtest: SpeedtestPlatform
    routing: BGPRouting
    forwarder: Forwarder
    tcp: TCPModel
    oracle: OriginOracle
    traceroute_engine: TracerouteEngine
    org_names: dict[int, str] = field(default_factory=dict)
    #: Memoized pure derivations (VP set, Alexa target lists) — per-VP
    #: pool units call these once each, so they are worth caching.
    _ark_vps_cache: list[ArkVP] | None = field(
        default=None, repr=False, compare=False
    )
    _alexa_cache: dict[int, list[AlexaTarget]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def run_campaign(self, campaign: CampaignConfig) -> CampaignResult:
        """Run a crowdsourced NDT campaign in this world.

        The campaign gets its own noise and traceroute-artifact streams
        derived from its seed, so identical campaign configs replay
        identically regardless of what ran earlier on this study — which
        is also what makes the result safe to persist in the on-disk
        artifact cache keyed on (study config, campaign config).
        """
        with span("campaign", seed=campaign.seed, tests=campaign.total_tests):
            return artifact_cache.fetch(
                "campaign",
                (self.config, campaign),
                lambda: self._run_campaign_uncached(campaign),
            )

    def _run_campaign_uncached(self, campaign: CampaignConfig) -> CampaignResult:
        engine = TracerouteEngine(
            self.internet,
            self.forwarder,
            TracerouteConfig(seed=self.config.seed),
        )
        return run_ndt_campaign(
            self.internet,
            self.population,
            self.mlab,
            self.forwarder,
            self.tcp.reseeded(campaign.seed),
            campaign,
            traceroute_engine=engine,
        )

    def ark_vps(self) -> list[ArkVP]:
        vps = self._ark_vps_cache
        if vps is None:
            vps = self._ark_vps_cache = make_ark_vps(self.internet)
        return vps

    def alexa_targets(self, count: int = 500) -> list[AlexaTarget]:
        targets = self._alexa_cache.get(count)
        if targets is None:
            targets = make_alexa_targets(self.internet, count=count, seed=self.config.seed)
            self._alexa_cache[count] = targets
        return targets

    def org_label(self, asn: int) -> str:
        canonical = self.oracle.canonical(asn)
        return self.org_names.get(canonical, f"AS{canonical}")


_STUDY_CACHE: dict[StudyConfig, Study] = {}

#: When enabled (``--validate`` or ``REPRO_VALIDATE=1``), every freshly
#: built study runs the fast world contracts before being cached; a
#: violation raises :class:`repro.validate.base.ContractViolation`.
_INLINE_VALIDATION = False


def set_inline_validation(enabled: bool) -> None:
    """Toggle contract validation inside :func:`build_study`."""
    global _INLINE_VALIDATION
    _INLINE_VALIDATION = enabled


def inline_validation_enabled() -> bool:
    import os

    return _INLINE_VALIDATION or os.environ.get("REPRO_VALIDATE", "") not in ("", "0")


def _validate_inline(study: Study) -> None:
    # Imported lazily: repro.validate sits above the pipeline layer.
    from repro.validate.base import ContractViolation
    from repro.validate.contracts import validate_world

    report = validate_world(study, include_slow=False)
    if not report.ok:
        raise ContractViolation(report)
    _log.info("inline validation passed (%d contracts)", len(report.results))


def build_study(config: StudyConfig | None = None) -> Study:
    """Build (or fetch from cache) the study world for a configuration."""
    if config is None:
        config = StudyConfig()
    cached = _STUDY_CACHE.get(config)
    if cached is not None:
        _STUDY_POOL_STATS["hits"] += 1
        _log.debug("build_study memo hit (seed=%d scale=%s)", config.seed, config.scale)
        return cached

    _STUDY_POOL_STATS["rebuilds"] += 1
    start = time.perf_counter()
    with span("pipeline.build_study", seed=config.seed, scale=config.scale, epoch=config.epoch):
        with span("topology.generate_internet"):
            internet = generate_internet(
                InternetConfig(seed=config.seed, scale=config.scale, epoch=config.epoch)
            )
        with span("net.link.provision_links"):
            links = provision_links(
                internet,
                ProvisioningConfig(
                    seed=config.seed,
                    directives=config.directives,
                    random_congested_fraction=config.random_congested_fraction,
                ),
            )
        with span("platforms"):
            population = ClientPopulation(
                internet,
                PopulationConfig(seed=config.seed, clients_per_million=config.clients_per_million),
            )
            mlab = MLabPlatform(internet, MLabConfig(seed=config.seed, server_count=config.mlab_server_count))
            speedtest = SpeedtestPlatform(
                internet, SpeedtestConfig(seed=config.seed, server_count=config.speedtest_server_count)
            )
        with span("routing_and_models"):
            routing = BGPRouting(internet.graph)
            forwarder = Forwarder(internet, routing)
            tcp = TCPModel(links, seed=config.seed)
            oracle = OriginOracle(internet.prefix_table, internet.orgs, internet.ixps.prefixes())
            engine = TracerouteEngine(internet, forwarder, TracerouteConfig(seed=config.seed))
            org_names = {
                org.primary: org.name for org in internet.orgs.organizations()
            }
    _log.info(
        "built study world in %.1fs (seed=%d scale=%s, %d ASes, %d client orgs)",
        time.perf_counter() - start,
        config.seed,
        config.scale,
        len(internet.graph),
        len(population.orgs()),
    )
    study = Study(
        config=config,
        internet=internet,
        links=links,
        population=population,
        mlab=mlab,
        speedtest=speedtest,
        routing=routing,
        forwarder=forwarder,
        tcp=tcp,
        oracle=oracle,
        traceroute_engine=engine,
        org_names=org_names,
    )
    if inline_validation_enabled():
        _validate_inline(study)
    _STUDY_CACHE[config] = study
    return study


def clear_study_cache() -> None:
    """Drop memoized studies (tests use this to control memory)."""
    _STUDY_CACHE.clear()
