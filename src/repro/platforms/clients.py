"""Crowdsourced client population.

Each access ISP gets a pool of clients with the attributes §6.1 identifies
as confounders:

* **service plan variance** — plans within one ISP differ by an order of
  magnitude, drawn from technology-specific tier mixes;
* **access technology** — cable plans contend on a shared medium, so the
  *effective* last-mile rate dips at peak even with healthy interconnects
  (this is what makes Figure 5(b)'s Comcast dip ambiguous); DSL and fiber
  are flat;
* **home network quality** — a per-test Wi-Fi factor and occasional loss,
  varying across tests even for the same client.

Clients are addressed out of their ISP's client prefixes (mostly the
primary ASN, some in sibling ASNs, mirroring how Comcast numbers regions
out of AS7922/AS7725/AS22909...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from repro.net.diurnal import cable_contention
from repro.topology.asgraph import ASRole
from repro.topology.internet import Internet
from repro.util.rng import derive_random
from repro.util.units import MBPS

#: Plan tiers (Mbps) and sampling weights per access technology.
_PLAN_TIERS: dict[str, tuple[tuple[float, float], ...]] = {
    "cable": ((25, 0.25), (50, 0.35), (100, 0.3), (200, 0.1)),
    "dsl": ((6, 0.3), (12, 0.3), (25, 0.3), (45, 0.1)),
    "fiber": ((50, 0.4), (100, 0.4), (500, 0.2)),
}

#: Access technology mix per ISP org.
_TECH_MIX: dict[str, tuple[tuple[str, float], ...]] = {
    "Comcast": (("cable", 1.0),),
    "TimeWarnerCable": (("cable", 1.0),),
    "Cox": (("cable", 1.0),),
    "Charter": (("cable", 1.0),),
    "Cablevision": (("cable", 1.0),),
    "Suddenlink": (("cable", 1.0),),
    "Mediacom": (("cable", 1.0),),
    "RCN": (("cable", 1.0),),
    "ATT": (("dsl", 0.7), ("fiber", 0.3)),
    "Verizon": (("fiber", 0.6), ("dsl", 0.4)),
    "CenturyLink": (("dsl", 0.85), ("fiber", 0.15)),
    "Frontier": (("dsl", 0.8), ("fiber", 0.2)),
    "Windstream": (("dsl", 1.0),),
    "Sonic": (("dsl", 0.6), ("fiber", 0.4)),
}

#: Peak-hour shared-medium contention: fraction of plan rate lost at the
#: top of the neighbourhood traffic curve, cable only. Produces the
#: 20–30% evening dip of Figure 5(b) even with healthy interconnects.
_CABLE_PEAK_DIP = 0.35

#: Upload/download plan-rate ratio per access technology (residential
#: plans of the era were strongly asymmetric except fiber).
_UPLOAD_RATIO: dict[str, float] = {
    "cable": 0.10,
    "dsl": 0.125,
    "fiber": 0.50,
}


@dataclass(frozen=True)
class Client:
    """One measurement volunteer."""

    client_id: int
    org_name: str
    asn: int
    ip: int
    city: str
    access_tech: str
    plan_rate_bps: float
    #: Provisioned upstream rate (plans of the era were asymmetric).
    upload_rate_bps: float
    #: Median home-network quality of this household in (0, 1].
    base_home_factor: float


class TestConditions(NamedTuple):
    """Per-test draw of the client-side confounders."""

    effective_plan_bps: float
    effective_upload_bps: float
    home_factor: float
    access_loss: float


@dataclass(frozen=True)
class PopulationConfig:
    seed: int = 7
    #: Clients generated per million subscribers of the ISP.
    clients_per_million: float = 60.0
    #: Minimum clients per ISP regardless of size.
    min_clients: int = 40
    #: Fraction of an org's clients addressed from the primary ASN.
    primary_asn_share: float = 0.7


class ClientPopulation:
    """All clients, indexed by organization."""

    def __init__(self, internet: Internet, config: PopulationConfig | None = None) -> None:
        self._internet = internet
        self._config = config if config is not None else PopulationConfig()
        self._rng = derive_random(self._config.seed, "clients")
        self._clients_by_org: dict[str, list[Client]] = {}
        self._build()

    # ------------------------------------------------------------------

    def orgs(self) -> list[str]:
        return sorted(self._clients_by_org)

    def clients_of(self, org_name: str) -> list[Client]:
        try:
            return self._clients_by_org[org_name]
        except KeyError:
            raise KeyError(f"no clients for org {org_name!r}") from None

    def all_clients(self) -> list[Client]:
        return [c for org in self.orgs() for c in self._clients_by_org[org]]

    def draw_conditions(self, client: Client, hour: float, rng) -> TestConditions:
        """Draw the per-test confounders for a client at a local hour."""
        effective_plan = client.plan_rate_bps
        effective_upload = client.upload_rate_bps
        if client.access_tech == "cable":
            contention = 1.0 - _CABLE_PEAK_DIP * cable_contention(hour)
            effective_plan *= contention
            effective_upload *= contention
        home = min(1.0, client.base_home_factor * math.exp(rng.gauss(0.0, 0.18)))
        access_loss = 0.0
        if rng.random() < 0.05:
            access_loss = rng.uniform(0.002, 0.02)  # bad Wi-Fi moment
        return TestConditions(effective_plan, effective_upload, home, access_loss)

    # ------------------------------------------------------------------

    def _build(self) -> None:
        internet = self._internet
        next_id = 1
        ip_cursor: dict[int, int] = {}
        for org in internet.orgs.organizations():
            primary = org.primary
            primary_as = internet.graph.get(primary)
            if primary_as.role is not ASRole.ACCESS:
                continue
            count = max(
                self._config.min_clients,
                int(round(primary_as.subscriber_weight * self._config.clients_per_million)),
            )
            tech_mix = _TECH_MIX.get(org.name, (("cable", 1.0),))
            clients: list[Client] = []
            for _ in range(count):
                asn = self._pick_asn(primary, org.asns)
                city = self._pick_city(asn)
                tech = self._weighted_choice(tech_mix)
                plan_mbps = self._weighted_choice(_PLAN_TIERS[tech])
                ip = self._next_client_ip(asn, ip_cursor)
                clients.append(
                    Client(
                        client_id=next_id,
                        org_name=org.name,
                        asn=asn,
                        ip=ip,
                        city=city,
                        access_tech=tech,
                        plan_rate_bps=plan_mbps * MBPS,
                        upload_rate_bps=plan_mbps * MBPS * _UPLOAD_RATIO[tech],
                        base_home_factor=min(1.0, 0.75 + self._rng.random() * 0.3),
                    )
                )
                next_id += 1
            self._clients_by_org[org.name] = clients

    def _pick_asn(self, primary: int, asns: tuple[int, ...]) -> int:
        if len(asns) == 1 or self._rng.random() < self._config.primary_asn_share:
            return primary
        return self._rng.choice([a for a in asns if a != primary])

    def _pick_city(self, asn: int) -> str:
        cities = self._internet.graph.get(asn).home_cities
        weights = [self._internet.city(c).population_weight for c in cities]
        return self._rng.choices(cities, weights=weights, k=1)[0]

    def _next_client_ip(self, asn: int, cursor: dict[int, int]) -> int:
        prefixes = self._internet.client_prefixes[asn]
        prefix = prefixes[0]
        start = cursor.get(asn, prefix.base + 10)
        cursor[asn] = start + 1
        return start

    @staticmethod
    def _weighted_choice_static(rng, options):
        values = [v for v, _ in options]
        weights = [w for _, w in options]
        return rng.choices(values, weights=weights, k=1)[0]

    def _weighted_choice(self, options):
        return self._weighted_choice_static(self._rng, options)
