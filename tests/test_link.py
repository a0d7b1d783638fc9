"""Tests for link provisioning and the utilization/loss/queue model."""

import hashlib

import numpy as np
import pytest

from repro.core.pipeline import DEFAULT_DIRECTIVES
from repro.experiments.abl_tomography import REGIONAL_DIRECTIVES
from repro.net.diurnal import DiurnalProfile
from repro.net.link import (
    BASE_LOSS,
    CongestionDirective,
    LinkParams,
    ProvisioningConfig,
    provision_links,
)
from repro.topology.generator import InternetConfig, generate_internet
from repro.util.units import GBPS


def _params(base=0.2, amp=0.3, capacity=10 * GBPS) -> LinkParams:
    profile = DiurnalProfile(base=base, evening_amplitude=amp)
    return LinkParams(
        link_id=1, capacity_bps=capacity, profile=profile,
        congested=profile.peak_value() >= 0.995,
    )


class TestLinkParams:
    def test_loss_floor_off_peak(self):
        params = _params()
        assert params.loss_rate(4.0) == pytest.approx(BASE_LOSS)

    def test_loss_rises_when_saturated(self):
        congested = _params(base=0.4, amp=0.9)
        assert congested.loss_rate(21.0) > 100 * BASE_LOSS

    def test_loss_monotone_in_utilization(self):
        params = _params(base=0.4, amp=0.9)
        hours = [4.0, 12.0, 18.0, 21.0]
        losses = [params.loss_rate(h) for h in hours]
        utils = [params.utilization(h) for h in hours]
        ordered = sorted(zip(utils, losses))
        assert all(a[1] <= b[1] + 1e-12 for a, b in zip(ordered, ordered[1:]))

    def test_loss_capped(self):
        extreme = _params(base=1.0, amp=9.0)
        assert extreme.loss_rate(21.0) <= 0.25

    def test_queue_grows_with_load(self):
        params = _params(base=0.3, amp=0.7)
        assert params.queue_delay_ms(21.0) > params.queue_delay_ms(4.0)

    def test_available_bw_collapses_at_peak(self):
        congested = _params(base=0.4, amp=0.9)
        assert congested.available_bps(21.0) < congested.available_bps(4.0) / 3


class TestProvisioning:
    def test_every_link_provisioned(self, tiny_internet):
        network = provision_links(tiny_internet, ProvisioningConfig(seed=7))
        assert len(network) == tiny_internet.fabric.interconnect_count()

    def test_deterministic(self, tiny_internet):
        one = provision_links(tiny_internet, ProvisioningConfig(seed=7))
        two = provision_links(tiny_internet, ProvisioningConfig(seed=7))
        for link in tiny_internet.fabric.interconnects()[:50]:
            assert one.params(link.link_id).capacity_bps == two.params(link.link_id).capacity_bps

    def test_directive_congests_org_pair(self, tiny_internet):
        directive = CongestionDirective("GTT", "ATT", peak_load=1.3)
        network = provision_links(
            tiny_internet, ProvisioningConfig(seed=7, directives=(directive,))
        )
        gtt = tiny_internet.as_named("GTT")
        att = tiny_internet.as_named("ATT")
        links = tiny_internet.fabric.links_between(gtt.asn, att.asn)
        assert links, "GTT-ATT adjacency required for this scenario"
        assert all(network.params(l.link_id).congested for l in links)

    def test_city_scoped_directive(self, tiny_internet):
        directive = CongestionDirective("Level3", "Cox", city_code="dfw", peak_load=1.3)
        network = provision_links(
            tiny_internet, ProvisioningConfig(seed=7, directives=(directive,))
        )
        level3 = tiny_internet.as_named("Level3")
        cox = tiny_internet.as_named("Cox")
        for link in tiny_internet.fabric.links_between(level3.asn, cox.asn):
            expected = link.city_code == "dfw"
            assert network.params(link.link_id).congested == expected

    def test_parallel_group_shares_parameters(self, tiny_internet):
        network = provision_links(tiny_internet, ProvisioningConfig(seed=7))
        level3 = tiny_internet.as_named("Level3")
        cox = tiny_internet.as_named("Cox")
        links = tiny_internet.fabric.links_between(level3.asn, cox.asn)
        by_group: dict[int, set[float]] = {}
        for link in links:
            by_group.setdefault(link.group_id, set()).add(
                network.params(link.link_id).capacity_bps
            )
        assert all(len(capacities) == 1 for capacities in by_group.values())

    def test_default_world_mostly_healthy(self, tiny_internet):
        network = provision_links(tiny_internet, ProvisioningConfig(seed=7))
        congested = len(network.congested_link_ids())
        assert congested < 0.05 * len(network)

    def test_path_helpers(self, tiny_internet):
        network = provision_links(tiny_internet, ProvisioningConfig(seed=7))
        links = tuple(l.link_id for l in tiny_internet.fabric.interconnects()[:3])
        loss = network.path_loss(links, 21.0)
        assert 0 <= loss < 1
        available, bottleneck = network.path_available_bps(links, 21.0)
        assert bottleneck in links
        assert available > 0

    def test_unknown_link_raises(self, tiny_internet):
        network = provision_links(tiny_internet, ProvisioningConfig(seed=7))
        with pytest.raises(KeyError):
            network.params(10**9)

    @pytest.mark.parametrize("link_id", [0, -1, 10**9])
    def test_unknown_link_state_raises(self, tiny_internet, link_id):
        network = provision_links(tiny_internet, ProvisioningConfig(seed=7))
        with pytest.raises(KeyError):
            network.state(np.array([1, link_id]), np.array([21.0, 21.0]))


#: sha256 over every link's (id, capacity, seven profile constants,
#: congested flag) on the seed-7 scale-1 world, pinned while links were
#: still provisioned one ``LinkParams`` at a time.
_PROVISIONING_PINS = {
    "default": (
        DEFAULT_DIRECTIVES, 0.0,
        "39ec303dd2734f89ac1c6f1afde4c9ea29588572274e8ebc84b933f499c9fa4e",
    ),
    "regional": (
        REGIONAL_DIRECTIVES, 0.0,
        "659b8ca9e77d08ec9c4031ce66208c50f8fb24dc3a801611cd469cdfe5265eb0",
    ),
    "random-0.08": (
        DEFAULT_DIRECTIVES, 0.08,
        "6795826d94398ddc1832090ec7de6a77760d3de507a002b3396e1e9d145a4a52",
    ),
}


@pytest.fixture(scope="module")
def seed7_internet():
    return generate_internet(InternetConfig(seed=7))


def _minute_scan_peaks(profiles: np.ndarray) -> np.ndarray:
    """``peak_value()`` of each column of seven profile constants, with
    numpy's ``exp``, which may differ from ``math.exp`` by an ulp."""
    hours = (np.arange(24 * 60) / 60.0)[:, None]

    def bump(center, width):
        delta = np.abs(hours - center) % 24.0
        return np.exp(-0.5 * (np.minimum(delta, 24.0 - delta) / width) ** 2)

    peaks = []
    for start in range(0, profiles.shape[1], 256):
        base, ev_amp, ev_peak, ev_w, day_amp, day_peak, day_w = profiles[:, start:start + 256]
        total = base + ev_amp * bump(ev_peak, ev_w) + day_amp * bump(day_peak, day_w)
        peaks.append(np.maximum(0.0, total).max(axis=0))
    return np.concatenate(peaks)


class TestProvisioningPins:
    @pytest.mark.parametrize("scenario", sorted(_PROVISIONING_PINS))
    def test_columns_match_pin_and_minute_scan(self, seed7_internet, scenario):
        directives, fraction, digest = _PROVISIONING_PINS[scenario]
        links = provision_links(seed7_internet, ProvisioningConfig(
            seed=7, directives=directives, random_congested_fraction=fraction,
        ))
        link_ids = np.flatnonzero(links.provisioned)
        assert len(link_ids) == seed7_internet.summary()["interconnects"]
        hasher = hashlib.sha256()
        for link_id in link_ids.tolist():
            params = links.params(link_id)
            profile = params.profile
            hasher.update(repr((
                link_id, params.capacity_bps, profile.base, profile.evening_amplitude,
                profile.evening_peak_hour, profile.evening_width_hours,
                profile.day_amplitude, profile.day_peak_hour, profile.day_width_hours,
                params.congested,
            )).encode())
        assert hasher.hexdigest() == digest

        # Every flag is the 1-minute scan's verdict. Scan each distinct
        # profile in numpy, and where its peak lies within 1e-9 of the
        # threshold (numpy's exp is off by an ulp at most) take the exact
        # scan instead.
        profiles, group_of_link = np.unique(
            links.values[1:, link_ids], axis=1, return_inverse=True
        )
        peaks = _minute_scan_peaks(profiles)
        expected = peaks >= 0.995
        for column in np.flatnonzero(np.abs(peaks - 0.995) < 1e-9).tolist():
            expected[column] = DiurnalProfile(*profiles[:, column].tolist()).peak_value() >= 0.995
        assert (links.congested[link_ids] == expected[group_of_link.ravel()]).all()
        assert expected.any() and not expected.all()
