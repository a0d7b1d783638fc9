"""Generative fuzzing: random worlds satisfy the contracts; the batch
engine matches the scalar engine on arbitrary request mixes.

Uses the strategies in :mod:`repro.validate.strategies`. Example counts
stay modest because each example builds a world; the ``ci`` hypothesis
profile (``HYPOTHESIS_PROFILE=ci``) derandomizes them for reproducible
CI runs.
"""

from __future__ import annotations

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.pipeline import build_study, clear_study_cache  # noqa: E402
from repro.validate import validate_internet, validate_world  # noqa: E402
from repro.validate.strategies import (  # noqa: E402
    HAVE_HYPOTHESIS,
    internet_configs,
    observe_requests,
    study_configs,
)
from tests.scalar_reference import observation_rows, observe_columns  # noqa: E402


@pytest.fixture(scope="module")
def routed_paths(small_study):
    """A few dozen real forwarding paths for request strategies."""
    rng = random.Random(31)
    clients = small_study.population.all_clients()
    servers = small_study.mlab.servers() + small_study.speedtest.servers()
    paths = []
    attempt = 0
    while len(paths) < 30 and attempt < 300:
        attempt += 1
        client, server = rng.choice(clients), rng.choice(servers)
        path = small_study.forwarder.route_flow(
            client.asn, client.city, server.asn, server.city, ("fuzz", attempt)
        )
        if path is not None:
            paths.append(path)
    assert len(paths) == 30
    return paths


def test_strategies_module_reports_hypothesis_available():
    assert HAVE_HYPOTHESIS


class TestRandomWorldsSatisfyContracts:
    @settings(max_examples=10, deadline=None)
    @given(config=internet_configs(max_stubs=25))
    def test_generated_internet_passes_world_contracts(self, config):
        from repro.topology.generator import generate_internet

        internet = generate_internet(config)
        report = validate_internet(internet, sample_pairs=25)
        assert report.ok, f"seed={config.seed}\n{report.render()}"

    @settings(max_examples=4, deadline=None)
    @given(config=study_configs())
    def test_generated_study_passes_fast_contracts(self, config):
        study = build_study(config)
        try:
            report = validate_world(study, include_slow=False, sample_pairs=25)
            assert report.ok, f"config={config}\n{report.render()}"
        finally:
            clear_study_cache()  # fuzzed studies must not accumulate


class TestBatchScalarEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), reseed=st.integers(min_value=0, max_value=2**16))
    def test_observe_batch_equals_sequential_observe(
        self, small_study, routed_paths, data, reseed
    ):
        requests = data.draw(observe_requests(routed_paths))
        scalar_model = small_study.tcp.reseeded(reseed)
        batch_model = small_study.tcp.reseeded(reseed)

        scalar = observe_columns(scalar_model, requests)
        batched = observation_rows(batch_model.observe_batch(*requests))

        assert batched == scalar
        assert [repr(o) for o in batched] == [repr(o) for o in scalar]
        # The noise streams must land in the same state too.
        assert scalar_model._rng.random() == batch_model._rng.random()

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_split_batches_equal_one_batch(self, small_study, routed_paths, data):
        requests = data.draw(observe_requests(routed_paths, max_size=10))
        cut = data.draw(st.integers(min_value=0, max_value=len(requests[0])))
        head = [c[:cut] for c in requests]
        tail = [c[cut:] for c in requests]

        one_shot = observation_rows(small_study.tcp.reseeded(5).observe_batch(*requests))
        split_model = small_study.tcp.reseeded(5)
        split = (observation_rows(split_model.observe_batch(*head))
                 + observation_rows(split_model.observe_batch(*tail)))
        assert split == one_shot
