"""The fast-path invariants: every cache and every process pool must be
invisible in the output.

Three families of checks:

* the parallel fan-out (``jobs=2``, ``jobs=4``) produces coverage reports
  equal record-for-record to the serial loop;
* the hot-path caches (geo distance matrix, per-city server rankings,
  the Forwarder's segment caches) agree with uncached recomputation;
* the on-disk artifact cache round-trips campaign results so a warm
  start equals a cold one.
"""

from __future__ import annotations

import pytest

from repro.core.coverage import collect_coverage_reports
from repro.core.pipeline import build_study
from repro.platforms.campaign import CampaignConfig, run_ndt_campaign
from repro.routing.forwarding import Forwarder
from repro.topology.geo import (
    CITIES,
    city_by_code,
    distance_matrix,
    geo_distance_km,
    haversine_km,
    propagation_delay_by_code_ms,
    propagation_delay_ms,
)
from repro.obs import trace
from repro.util import artifact_cache
from repro.util.parallel import (
    _WORKER_STATS_PROVIDERS,
    parallel_map,
    partition,
    pool_stats,
    register_worker_stats,
    resolve_jobs,
    worker_context,
)

DETERMINISM_CAMPAIGN = CampaignConfig(seed=11, days=3, total_tests=600)


def _run_campaign(study, forwarder):
    return run_ndt_campaign(
        study.internet,
        study.population,
        study.mlab,
        forwarder,
        study.tcp.reseeded(DETERMINISM_CAMPAIGN.seed),
        DETERMINISM_CAMPAIGN,
        traceroute_engine=None,
    )


class TestGeoCaches:
    def test_matrix_matches_scalar_haversine(self):
        for a in CITIES:
            for b in CITIES:
                assert geo_distance_km(a, b) == pytest.approx(
                    haversine_km(a, b), rel=1e-9
                )

    def test_matrix_symmetric_zero_diagonal(self):
        matrix = distance_matrix()
        assert (matrix == matrix.T).all()
        assert (matrix.diagonal() == 0.0).all()

    def test_delay_by_code_matches_city_objects(self):
        for a in CITIES:
            for b in CITIES:
                assert propagation_delay_by_code_ms(a.code, b.code) == propagation_delay_ms(a, b)


class TestServerRankingCaches:
    def test_mlab_ranking_matches_fresh_computation(self, small_study):
        mlab = small_study.mlab
        for city in CITIES:
            ranked = mlab.sites_by_distance(city.code)
            expected = {}
            for server in mlab.servers():
                if server.site not in expected:
                    expected[server.site] = geo_distance_km(
                        city_by_code(city.code), city_by_code(server.city)
                    )
            assert ranked == sorted((d, s) for s, d in expected.items())

    def test_mlab_ranking_returns_copy(self, small_study):
        first = small_study.mlab.sites_by_distance("nyc")
        first.clear()
        assert small_study.mlab.sites_by_distance("nyc")

    def test_speedtest_ranking_matches_fresh_computation(self, small_study):
        speedtest = small_study.speedtest
        for city in CITIES[:8]:
            ranked = speedtest.servers_by_distance(city.code)
            origin = city_by_code(city.code)
            expected = sorted(
                speedtest.servers(),
                key=lambda s: (geo_distance_km(origin, city_by_code(s.city)), s.server_id),
            )
            assert ranked == expected

    def test_repeated_ranking_identical(self, small_study):
        assert small_study.mlab.sites_by_distance("lax") == small_study.mlab.sites_by_distance("lax")


class TestForwarderCacheTransparency:
    def test_campaign_identical_with_caches_disabled(self, small_study):
        cached = _run_campaign(small_study, small_study.forwarder)
        uncached_forwarder = Forwarder(
            small_study.internet, small_study.routing, segment_cache_size=0
        )
        uncached = _run_campaign(small_study, uncached_forwarder)
        assert cached.ndt_records == uncached.ndt_records

    def test_campaign_repeatable_on_shared_forwarder(self, small_study):
        first = _run_campaign(small_study, small_study.forwarder)
        second = _run_campaign(small_study, small_study.forwarder)
        assert first.ndt_records == second.ndt_records


class TestParallelCoverage:
    @pytest.fixture(scope="class")
    def serial_reports(self, small_study):
        return collect_coverage_reports(small_study, alexa_count=80, jobs=1)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_equals_serial(self, small_study, serial_reports, jobs):
        parallel = collect_coverage_reports(small_study, alexa_count=80, jobs=jobs)
        assert list(parallel) == list(serial_reports)
        for label, report in serial_reports.items():
            assert parallel[label] == report

    def test_reports_cover_every_vp(self, small_study, serial_reports):
        assert list(serial_reports) == [vp.label for vp in small_study.ark_vps()]


class TestArtifactCache:
    def test_cold_and_warm_campaigns_equal(self, small_study, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.set_enabled(True)
        try:
            campaign = CampaignConfig(seed=13, days=2, total_tests=300)
            cold = small_study.run_campaign(campaign)
            assert list(tmp_path.glob("campaign-*.pkl"))
            warm = small_study.run_campaign(campaign)
            assert warm.ndt_records == cold.ndt_records
            assert warm.traceroute_records == cold.traceroute_records
        finally:
            artifact_cache.set_enabled(None)

    def test_disabled_cache_writes_nothing(self, small_study, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.set_enabled(False)
        try:
            small_study.run_campaign(CampaignConfig(seed=17, days=2, total_tests=200))
            assert not list(tmp_path.glob("*.pkl"))
        finally:
            artifact_cache.set_enabled(None)

    def test_corrupt_entry_is_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        artifact_cache.set_enabled(True)
        try:
            key = artifact_cache.artifact_key("unit", "x")
            artifact_cache.store("unit", key, {"v": 1})
            path = next(tmp_path.glob("unit-*.pkl"))
            path.write_bytes(b"not a pickle")
            assert artifact_cache.load("unit", key) is None
            assert not path.exists()
        finally:
            artifact_cache.set_enabled(None)

    def test_key_depends_on_kind_and_parts(self):
        assert artifact_cache.artifact_key("a", 1) != artifact_cache.artifact_key("b", 1)
        assert artifact_cache.artifact_key("a", 1) != artifact_cache.artifact_key("a", 2)
        assert artifact_cache.artifact_key("a", 1) == artifact_cache.artifact_key("a", 1)


class TestObservabilityTransparency:
    """Tracing must be invisible in every result payload."""

    def test_campaign_identical_with_tracing_on(self, small_study):
        baseline = _run_campaign(small_study, small_study.forwarder)
        trace.set_enabled(True)
        trace.reset()
        try:
            traced = _run_campaign(small_study, small_study.forwarder)
        finally:
            trace.set_enabled(False)
            trace.reset()
        assert traced.ndt_records == baseline.ndt_records
        assert traced.traceroute_records == baseline.traceroute_records

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_coverage_identical_with_tracing_on(self, small_study, jobs):
        untraced = collect_coverage_reports(small_study, alexa_count=80, jobs=jobs)
        trace.set_enabled(True)
        trace.reset()
        try:
            traced = collect_coverage_reports(small_study, alexa_count=80, jobs=jobs)
        finally:
            trace.set_enabled(False)
            trace.reset()
        assert traced == untraced


class TestParallelMapPrimitive:
    def test_preserves_order(self, monkeypatch):
        # Force a real pool regardless of core count (the cpu clamp would
        # otherwise make this serial on small machines).
        monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
        assert parallel_map(_square, list(range(20)), jobs=4) == [i * i for i in range(20)]

    def test_serial_fallback(self):
        assert parallel_map(_square, [3], jobs=4) == [9]
        assert parallel_map(_square, [2, 3], jobs=1) == [4, 9]

    def test_resolve_jobs_floors_at_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-3) == 1
        assert resolve_jobs(5) == 5

    def test_pool_stats_reports_requested_vs_effective_on_clamp(self, monkeypatch):
        from repro.util import parallel

        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 1)
        assert parallel_map(_square, list(range(8)), jobs=4) == [i * i for i in range(8)]
        stats = pool_stats()
        assert stats["requested_workers"] == 4
        assert stats["effective_workers"] == 1
        assert stats["cpu_clamped"] is True
        assert stats["fallback"] == "cpu-clamp"

    def test_pool_stats_requested_equals_effective_without_clamp(self, monkeypatch):
        from repro.util import parallel

        monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
        assert parallel_map(_square, list(range(8)), jobs=2) == [i * i for i in range(8)]
        stats = pool_stats()
        assert stats["requested_workers"] == 2
        assert stats["effective_workers"] == 2
        assert stats["cpu_clamped"] is False
        assert stats["fallback"] is None

    def test_effective_jobs_mirrors_parallel_map_resolution(self, monkeypatch):
        from repro.util import parallel
        from repro.util.parallel import effective_jobs

        monkeypatch.setattr(parallel, "_cpu_limit", lambda: 2)
        assert effective_jobs(4) == 2
        assert effective_jobs(1) == 1
        monkeypatch.setattr(parallel, "_cpu_limit", lambda: None)
        assert effective_jobs(4) == 4

    def test_partition_concatenates_to_input(self):
        items = list(range(11))
        parts = partition(items, 4)
        assert len(parts) == 4
        assert [x for part in parts for x in part] == items
        assert max(len(p) for p in parts) - min(len(p) for p in parts) <= 1


class TestSpawnParity:
    """Workers started by spawn (no fork, no copy-on-write inheritance)
    rebuild their world once from the shipped config, yet must return
    the exact records the serial loop does."""

    def test_spawn_pool_equals_serial(self, small_study, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
        kw = dict(alexa_count=40, max_prefixes=60)
        serial = collect_coverage_reports(small_study, jobs=1, **kw)
        monkeypatch.setenv("REPRO_POOL_START", "spawn")
        spawned = collect_coverage_reports(small_study, jobs=2, **kw)
        assert list(spawned) == list(serial)
        for label, report in serial.items():
            assert spawned[label] == report
        stats = pool_stats()
        assert stats["start_method"] == "spawn"
        # Spawn workers cannot inherit the parent's memo: each rebuilds
        # its study once, then every unit hits.
        assert stats["worker_stats"]["study_cache"]["rebuilds"] >= 1

    def test_spawn_without_artifact_cache_equals_serial(self, small_study, monkeypatch):
        """No snapshot on disk: the config alone rebuilds each worker's world."""
        monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
        monkeypatch.setenv("REPRO_CACHE", "0")
        kw = dict(alexa_count=40, max_prefixes=60)
        serial = collect_coverage_reports(small_study, jobs=1, **kw)
        monkeypatch.setenv("REPRO_POOL_START", "spawn")
        spawned = collect_coverage_reports(small_study, jobs=2, **kw)
        assert list(spawned) == list(serial)
        for label, report in serial.items():
            assert spawned[label] == report
        stats = pool_stats()
        assert stats["start_method"] == "spawn"
        assert stats["worker_stats"]["study_cache"]["rebuilds"] >= 1

    def test_fork_workers_inherit_study(self, small_study, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
        monkeypatch.delenv("REPRO_POOL_START", raising=False)
        collect_coverage_reports(small_study, jobs=2, alexa_count=40, max_prefixes=60)
        stats = pool_stats()
        assert stats["start_method"] == "fork"
        worker = stats["worker_stats"]["study_cache"]
        assert worker["rebuilds"] == 0
        assert worker["hits"] >= 1


class TestWorkerContextAndSetup:
    def test_context_and_setup_serial(self):
        out = parallel_map(
            _ctx_unit, [1, 2], jobs=1, context="shared-cfg", setup=_ctx_setup
        )
        assert out == [(1, "shared-cfg", True), (2, "shared-cfg", True)]
        assert worker_context() is None  # restored after the call

    def test_context_and_setup_in_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
        out = parallel_map(
            _ctx_unit, list(range(6)), jobs=2, context={"k": 1}, setup=_ctx_setup
        )
        assert out == [(x, {"k": 1}, True) for x in range(6)]

    def test_worker_stats_fold_excludes_prefork_counts(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
        register_worker_stats("test_probe", _probe_stats)
        try:
            _PROBE_CALLS["count"] = 7  # pre-existing parent count
            parallel_map(_probe_unit, list(range(6)), jobs=2)
            folded = pool_stats()["worker_stats"]["test_probe"]
            # Only work done inside the pool is attributed to it — the
            # parent's 7 fork-inherited calls are subtracted out.
            assert folded["calls"] == 6
            parallel_map(_probe_unit, list(range(3)), jobs=1)
            assert pool_stats()["worker_stats"]["test_probe"]["calls"] == 3
        finally:
            _WORKER_STATS_PROVIDERS.pop("test_probe", None)

    def test_start_method_override_rejects_garbage(self, monkeypatch):
        from repro.util.parallel import pool_start_method

        monkeypatch.setenv("REPRO_POOL_START", "hyperthread")
        with pytest.raises(ValueError):
            pool_start_method()


_SETUP_RAN = False
_PROBE_CALLS = {"count": 0}


def _ctx_setup(context) -> None:
    global _SETUP_RAN
    _SETUP_RAN = True


def _ctx_unit(x):
    return (x, worker_context(), _SETUP_RAN)


def _probe_stats() -> dict:
    return {"calls": _PROBE_CALLS["count"]}


def _probe_unit(x):
    _PROBE_CALLS["count"] += 1
    return x


def _square(x: int) -> int:
    return x * x
