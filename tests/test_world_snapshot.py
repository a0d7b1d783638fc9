"""Persisted world snapshots: round-trip, version gating, eviction, pools.

The table-first pipeline persists every compiled world as a versioned
``.npz`` in the artifact cache and memory-maps it back on cold starts.
These tests pin the durability contract: a snapshot round-trip is
byte-identical to the in-memory world, a stale ``format_version`` warns
and rebuilds (never crashes, never serves wrong tables), eviction only
re-derives, and pooled coverage sweeps return the same reports as the
serial sweep under both start methods.
"""

from __future__ import annotations

import logging
import multiprocessing

import numpy as np
import pytest

from repro.core.coverage import collect_coverage_reports
from repro.measurement.traceroute import TraceRequest, TracerouteConfig, TracerouteEngine
from repro.net import compiled, snapshot
from repro.net.compiled import (
    CompiledWorld,
    clear_compile_cache,
    compile_from_object_graph,
    compile_world,
    compiled_world_for,
    load_snapshot_world,
    persist_snapshot,
    snapshot_path,
    world_digest,
)
from repro.topology.generator import InternetConfig, generate_internet
from repro.util import artifact_cache
from repro.validate.contracts import validate_internet

# Seeds distinct from conftest's TINY_CONFIG so the process-global
# compile memo and cache dir never alias the session fixtures.
_SEEDS = (21, 34)


def _tiny(seed: int) -> InternetConfig:
    return InternetConfig(seed=seed, n_stub=40, n_transit=5)


def _arrays_of(world: CompiledWorld) -> dict[str, np.ndarray]:
    return {
        name: np.ascontiguousarray(getattr(world, name))
        for name in CompiledWorld._ARRAY_FIELDS
    }


def _assert_worlds_byte_equal(a: CompiledWorld, b: CompiledWorld) -> None:
    for name in CompiledWorld._ARRAY_FIELDS:
        left = np.ascontiguousarray(getattr(a, name))
        right = np.ascontiguousarray(getattr(b, name))
        assert left.dtype == right.dtype, name
        assert left.shape == right.shape, name
        assert left.tobytes() == right.tobytes(), name


@pytest.fixture()
def fresh_cache(tmp_path, monkeypatch):
    """A private cache dir plus a clean compile memo for every test."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    clear_compile_cache()
    yield tmp_path
    clear_compile_cache()


class TestRoundTrip:
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_compile_persist_mmap_load_byte_identical(self, fresh_cache, seed):
        internet = generate_internet(_tiny(seed))
        world = compile_world(internet)
        path = snapshot_path(world.digest)
        assert path.exists(), "compile_world must persist the snapshot"

        loaded = load_snapshot_world(world.digest)
        assert loaded is not None
        assert loaded.digest == world.digest
        assert loaded.seed == world.seed
        _assert_worlds_byte_equal(world, loaded)
        # The load must actually map the file, not copy it into memory.
        mapped = [
            name for name in CompiledWorld._ARRAY_FIELDS
            if isinstance(getattr(loaded, name), np.memmap)
        ]
        assert mapped, "no array came back memory-mapped"
        for name in CompiledWorld._ARRAY_FIELDS:
            array = getattr(loaded, name)
            if array.size:
                assert isinstance(array, np.memmap), name

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_mmap_world_passes_world_agreement(self, fresh_cache, seed):
        internet = generate_internet(_tiny(seed))
        digest = world_digest(internet)
        compile_world(internet)
        clear_compile_cache()
        loaded = load_snapshot_world(digest)
        assert loaded is not None
        # Route the contract's compile_world call through the mapped
        # snapshot: the memo is authoritative per digest.
        compiled._COMPILE_CACHE[digest] = loaded
        internet.tables = None
        report = validate_internet(internet)
        result = [r for r in report.results if r.name == "compiled.world_agreement"]
        assert len(result) == 1
        assert result[0].passed, report.render()

    def test_origin_batch_byte_identical_to_in_memory(self, fresh_cache):
        internet = generate_internet(_tiny(_SEEDS[0]))
        reference = compile_from_object_graph(internet)
        compile_world(internet)
        clear_compile_cache()
        loaded = load_snapshot_world(reference.digest)
        assert loaded is not None
        ips = np.concatenate([
            reference.iface_ips,
            reference.iface_ips + 1,
            reference.lpm_starts,
            reference.lpm_ends - 1,
        ]).astype(np.int64)
        assert (
            loaded.origin_batch(ips).tobytes()
            == reference.origin_batch(ips).tobytes()
        )

    def test_trace_batch_byte_identical_to_in_memory(self, fresh_cache, small_study):
        study = small_study
        internet = study.internet
        digest = world_digest(internet)
        vp = study.ark_vps()[0]
        requests = [
            TraceRequest(
                src_ip=vp.ip,
                src_asn=vp.asn,
                src_city=vp.city,
                dst_ip=server.ip,
                dst_asn=server.asn,
                dst_city=server.city,
                timestamp_s=0.0,
                flow_key=("snapshot-parity", vp.code, server.ip),
            )
            for server in study.mlab.servers()[:20]
        ]

        def run() -> list:
            engine = TracerouteEngine(
                internet,
                study.forwarder,
                TracerouteConfig(seed=study.config.seed),
                stream="snapshot-parity",
            )
            return engine.trace_batch(list(requests))

        compile_world(internet)  # wraps the generator tables, persists
        baseline = run()
        clear_compile_cache()
        loaded = load_snapshot_world(digest)
        assert loaded is not None
        compiled._COMPILE_CACHE[digest] = loaded
        assert run() == baseline


class TestFormatVersionMismatch:
    def test_stale_snapshot_warns_and_rebuilds(
        self, fresh_cache, monkeypatch, caplog
    ):
        internet = generate_internet(_tiny(_SEEDS[0]))
        world = compile_world(internet)
        path = snapshot_path(world.digest)
        assert path.exists()

        # Fabricate a snapshot written by an older code version.
        snapshot.save_arrays(
            path, _arrays_of(world),
            digest=world.digest, seed=world.seed, format_version=0,
        )
        clear_compile_cache()
        internet.tables = None  # force the snapshot resolution path

        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        mismatches = snapshot.VERSION_MISMATCHES
        before = mismatches.value
        with caplog.at_level(logging.WARNING, logger="repro"):
            rebuilt = compile_world(internet)

        assert mismatches.value == before + 1
        assert any(
            "format_version" in record.getMessage() for record in caplog.records
        )
        _assert_worlds_byte_equal(world, rebuilt)
        # The stale file was dropped and replaced by a current-version
        # snapshot, so the *next* cold start loads instead of rebuilding.
        assert path.exists()
        clear_compile_cache()
        assert load_snapshot_world(world.digest) is not None

    def test_corrupt_snapshot_is_dropped_and_rebuilt(self, fresh_cache):
        internet = generate_internet(_tiny(_SEEDS[1]))
        world = compile_world(internet)
        path = snapshot_path(world.digest)
        path.write_bytes(b"not a zip archive")
        clear_compile_cache()
        internet.tables = None
        rebuilt = compile_world(internet)
        _assert_worlds_byte_equal(world, rebuilt)
        assert load_snapshot_world(world.digest) is not None


class TestEviction:
    def test_eviction_removes_oldest_then_recompile_is_identical(
        self, fresh_cache, monkeypatch
    ):
        old_internet = generate_internet(_tiny(_SEEDS[0]))
        new_internet = generate_internet(_tiny(_SEEDS[1]))
        old_world = compile_world(old_internet)
        new_world = compile_world(new_internet)
        old_path = snapshot_path(old_world.digest)
        new_path = snapshot_path(new_world.digest)
        assert old_path.exists() and new_path.exists()

        import os
        os.utime(old_path, (1.0, 1.0))  # make it unambiguously the LRU entry
        limit = new_path.stat().st_size + old_path.stat().st_size // 2
        evicted = artifact_cache.evict_to_limit(limit)
        assert evicted == 1
        assert not old_path.exists()
        assert new_path.exists()

        # Eviction only re-derives, never changes answers.
        clear_compile_cache()
        old_internet.tables = None
        recompiled = compile_world(old_internet)
        _assert_worlds_byte_equal(old_world, recompiled)
        assert old_path.exists(), "recompile must re-persist the evicted world"

    def test_env_budget_applies_on_store(self, fresh_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.001")  # ~1 KiB budget
        internet = generate_internet(_tiny(_SEEDS[0]))
        world = compile_world(internet)
        # The snapshot itself blows the budget, so the store-time sweep
        # leaves at most the newest entry standing.
        entries = list(fresh_cache.glob("*.npz")) + list(fresh_cache.glob("*.pkl"))
        assert len(entries) <= 1
        # Whatever was evicted is merely re-derivable.
        clear_compile_cache()
        internet.tables = None
        _assert_worlds_byte_equal(world, compile_world(internet))


class TestSnapshotTransport:
    def test_compiled_world_for_cold_loads_without_generator(self, fresh_cache):
        config = _tiny(_SEEDS[0])
        first = compiled_world_for(config)
        clear_compile_cache()

        def boom(_config):  # the cold path must not generate
            raise AssertionError("generator invoked on a snapshot hit")

        import repro.topology.generator as generator_module

        original = generator_module.generate_internet
        generator_module.generate_internet = boom
        try:
            second = compiled_world_for(config)
        finally:
            generator_module.generate_internet = original
        _assert_worlds_byte_equal(first, second)


class TestPoolParity:
    def test_pooled_sweep_matches_serial_for_both_start_methods(
        self, fresh_cache, monkeypatch, small_study
    ):
        serial = collect_coverage_reports(
            small_study, alexa_count=40, max_prefixes=60, jobs=1
        )
        monkeypatch.setenv("REPRO_POOL_OVERSUBSCRIBE", "1")
        for start in ("fork", "spawn"):
            if start not in multiprocessing.get_all_start_methods():
                continue  # pragma: no cover - platform without fork
            monkeypatch.setenv("REPRO_POOL_START", start)
            pooled = collect_coverage_reports(
                small_study, alexa_count=40, max_prefixes=60, jobs=2
            )
            assert list(pooled) == list(serial), start
            for label in serial:
                assert pooled[label] == serial[label], (start, label)
        # Compiling the world for the sweep persisted its snapshot.
        assert snapshot_path(world_digest(small_study.internet)).exists()
