"""Hypothesis strategies for generative fuzzing of the pipeline.

These feed the property tests in ``tests/test_validate_properties.py``:
random small worlds must satisfy every world contract, and
``TCPModel.observe_batch`` must be byte-equal to scalar ``observe`` on
arbitrary request batches.

``hypothesis`` is a dev-only dependency; importing this module without it
raises at *use* time with a pointed message, so the production package
never depends on it.
"""

from __future__ import annotations

try:
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ModuleNotFoundError:  # pragma: no cover - CI always installs it
    st = None  # type: ignore[assignment]
    HAVE_HYPOTHESIS = False


def _require_hypothesis() -> None:
    if not HAVE_HYPOTHESIS:
        raise ModuleNotFoundError(
            "repro.validate.strategies needs the 'hypothesis' dev dependency "
            "(pip install hypothesis, or repro[dev])"
        )


def internet_configs(max_stubs: int = 40):
    """Small-but-varied :class:`~repro.topology.generator.InternetConfig`.

    Worlds stay tiny (generation is ~0.1 s) so properties can afford
    dozens of examples; every structural knob still varies.
    """
    _require_hypothesis()
    from repro.topology.generator import InternetConfig

    return st.builds(
        InternetConfig,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n_stub=st.integers(min_value=4, max_value=max_stubs),
        n_transit=st.integers(min_value=2, max_value=8),
        stub_multihome_prob=st.floats(min_value=0.0, max_value=1.0),
        ixp_count=st.integers(min_value=1, max_value=6),
        ixp_peering_prob=st.floats(min_value=0.0, max_value=1.0),
        epoch=st.sampled_from(("2015", "2017")),
    )


def study_configs():
    """Tiny :class:`~repro.core.pipeline.StudyConfig` worlds for fuzzing."""
    _require_hypothesis()
    from repro.core.pipeline import StudyConfig

    return st.builds(
        StudyConfig,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        epoch=st.sampled_from(("2015", "2017")),
        scale=st.floats(min_value=0.01, max_value=0.05),
        random_congested_fraction=st.floats(min_value=0.0, max_value=0.3),
        mlab_server_count=st.integers(min_value=5, max_value=30),
        speedtest_server_count=st.integers(min_value=10, max_value=60),
        clients_per_million=st.floats(min_value=2.0, max_value=10.0),
    )


def observe_requests(paths, max_size: int = 12):
    """Batches of ``TCPModel.observe_batch`` arguments over real paths.

    Each drawn batch is the tuple ``(paths, hours, access_rates_bps,
    home_factors, access_losses, probe_keys, with_noise)`` of parallel
    lists, one entry per transfer (``probe_keys`` is None: no probes).
    ``paths`` is a non-empty sequence of :class:`ForwardingPath` objects
    from an already-built world; hours deliberately range outside a
    campaign's 0–24 window (negative and multi-day) because the link
    columns must behave there too.
    """
    _require_hypothesis()

    if not paths:
        raise ValueError("observe_requests needs at least one forwarding path")
    request = st.tuples(
        st.sampled_from(list(paths)),
        st.floats(min_value=-48.0, max_value=200.0,
                  allow_nan=False, allow_infinity=False),
        st.one_of(
            st.sampled_from((5e6, 25e6, 100e6)),
            st.floats(min_value=1e5, max_value=2e8,
                      allow_nan=False, allow_infinity=False),
        ),
        st.floats(min_value=0.2, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.05),
        st.booleans(),
    )

    def as_columns(requests):
        columns = [list(column) for column in zip(*requests)] or [[] for _ in range(6)]
        *arguments, with_noise = columns
        return (*arguments, None, with_noise)

    return st.lists(request, min_size=0, max_size=max_size).map(as_columns)
