"""Table-first generation: the recorder's arrays ARE the world.

The generator's :class:`WorldTableRecorder` emits the compiled arrays
during construction; the object-graph walk (``compile_from_object_graph``)
is the reference implementation. These tests pin the core promise: both
builders produce byte-identical arrays (golden-digest equality), and the
lazy object views over table rows equal the fabric's objects.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.net.compiled import (
    CompiledWorld,
    clear_compile_cache,
    compile_from_object_graph,
    compile_world,
)
from repro.topology.generator import InternetConfig, generate_internet
from repro.validate.contracts import validate_internet

_SEEDS = (9, 27)


def _tiny(seed: int) -> InternetConfig:
    return InternetConfig(seed=seed, n_stub=40, n_transit=5)


def _golden_digest(world: CompiledWorld) -> str:
    """One sha256 over every array, in schema order — the byte identity."""
    hasher = hashlib.sha256()
    for name in CompiledWorld._ARRAY_FIELDS:
        array = np.ascontiguousarray(getattr(world, name))
        hasher.update(name.encode())
        hasher.update(str(array.dtype).encode())
        hasher.update(str(array.shape).encode())
        hasher.update(array.tobytes())
    return hasher.hexdigest()


class TestRecorderEmission:
    def test_generator_emits_full_table_schema(self, tiny_internet):
        tables = tiny_internet.tables
        assert tables is not None
        assert set(tables) == set(CompiledWorld._ARRAY_FIELDS)
        for name, array in tables.items():
            assert isinstance(array, np.ndarray), name

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_recorder_arrays_match_object_graph_walk(self, seed):
        internet = generate_internet(_tiny(seed))
        reference = compile_from_object_graph(internet)
        for name in CompiledWorld._ARRAY_FIELDS:
            recorded = internet.tables[name]
            derived = np.ascontiguousarray(getattr(reference, name))
            assert recorded.dtype == derived.dtype, name
            assert recorded.shape == derived.shape, name
            assert recorded.tobytes() == derived.tobytes(), name

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_golden_digest_agrees_across_builders(self, seed):
        internet = generate_internet(_tiny(seed))
        clear_compile_cache()
        table_first = compile_world(internet)
        reference = compile_from_object_graph(internet)
        assert _golden_digest(table_first) == _golden_digest(reference)

    def test_generation_is_deterministic(self):
        clear_compile_cache()
        first = compile_world(generate_internet(_tiny(_SEEDS[0])))
        first_digest = _golden_digest(first)
        clear_compile_cache()
        second = compile_world(generate_internet(_tiny(_SEEDS[0])))
        assert _golden_digest(second) == first_digest


class TestLazyLinkViews:
    def test_interconnect_views_equal_fabric_objects(self, tiny_internet):
        world = compile_world(tiny_internet)
        fabric_links = tiny_internet.fabric.interconnects()
        views = [world.interconnect_view(int(i)) for i in world.link_ids]
        assert len(views) == len(fabric_links)
        for view, link in zip(views, fabric_links):
            assert view == link
        assert world.interconnect_view(fabric_links[0].link_id) == fabric_links[0]

    def test_unknown_link_id_yields_none(self, tiny_internet):
        world = compile_world(tiny_internet)
        assert world.interconnect_view(10**9) is None


class TestContractCoverage:
    def test_world_agreement_passes_on_table_first_world(self):
        internet = generate_internet(_tiny(_SEEDS[1]))
        clear_compile_cache()
        report = validate_internet(internet)
        result = [r for r in report.results if r.name == "compiled.world_agreement"]
        assert len(result) == 1
        assert result[0].passed, report.render()
