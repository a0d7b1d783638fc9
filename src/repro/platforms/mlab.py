"""The M-Lab platform: servers, site naming, server selection, and the
single-threaded Paris-traceroute daemon.

Servers live inside transit/tier-1 host networks (M-Lab sites are hosted
in commercial networks like Level3, Cogent, GTT...), several servers per
site, sites named like ``atl01``. The backend picks the geographically
closest site for a client (the paper's §2.1), optionally the
"Battle for the Net" variant that tests against up to five sites in the
region.

The traceroute daemon models the defect of §4.1: one traceroute process
per site, launched after each NDT test toward the client, skipping the
launch when still busy with a previous trace — which is why only ~71% of
May-2015 NDT tests have a matching traceroute in a 10-minute window.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.asgraph import ASRole
from repro.topology.geo import city_by_code, geo_distance_km
from repro.topology.internet import Internet
from repro.util.rng import derive_random


@dataclass(frozen=True)
class MLabServer:
    """One M-Lab server (an NDT target)."""

    server_id: int
    site: str  # e.g. "atl01"
    host_org: str  # e.g. "Level3"
    asn: int
    city: str
    ip: int


@dataclass(frozen=True)
class MLabConfig:
    seed: int = 7
    server_count: int = 261
    servers_per_site: int = 3
    #: M-Lab sites are hosted by a *narrow* set of networks — the big
    #: transit carriers (Level3, Cogent, GTT, TATA, XO, ...) plus a couple
    #: of hosting-oriented transit networks. This narrowness is central to
    #: the §5 coverage findings.
    host_transit_count: int = 2
    #: Range of traceroute runtime in seconds. Traces toward filtered home
    #: gateways sit in timeouts, so the tail is long relative to a clean
    #: trace; the mean (~70 s) is calibrated so a May-2015-scale arrival
    #: rate yields the ~71% NDT↔traceroute matching of §4.1.
    traceroute_duration_range_s: tuple[float, float] = (20.0, 120.0)


@dataclass
class _SiteDaemon:
    """Single-threaded traceroute worker state for one site."""

    busy_until_s: float = 0.0


class MLabPlatform:
    """M-Lab server inventory + selection policy + daemon state."""

    def __init__(self, internet: Internet, config: MLabConfig | None = None) -> None:
        self._internet = internet
        self._config = config if config is not None else MLabConfig()
        self._rng = derive_random(self._config.seed, "mlab")
        self._servers: list[MLabServer] = []
        self._daemons: dict[str, _SiteDaemon] = {}
        self._daemon_rng = derive_random(self._config.seed, "mlab", "daemon")
        self._build()
        # Selection-path memos. The inventory is immutable after _build, so
        # site membership, per-city site rankings, and per-org direct-host
        # sets can all be computed once instead of per test.
        self._servers_by_site: dict[str, list[MLabServer]] = {}
        for server in self._servers:
            self._servers_by_site.setdefault(server.site, []).append(server)
        self._site_rank_cache: dict[str, list[tuple[float, str]]] = {}
        self._direct_hosts_cache: dict[int, frozenset[int]] = {}

    @property
    def config(self) -> MLabConfig:
        return self._config

    def servers(self) -> list[MLabServer]:
        return list(self._servers)

    def sites(self) -> list[str]:
        return sorted({s.site for s in self._servers})

    def servers_at(self, site: str) -> list[MLabServer]:
        return list(self._servers_by_site.get(site, ()))

    # ------------------------------------------------------------------
    # server selection

    def select_server(self, client_city: str, rng, policy: str = "nearest") -> MLabServer:
        """Pick the serving server for a client.

        ``nearest`` mimics M-Lab's geo-IP proximity selection (random among
        servers at the closest site); ``regional`` mimics the Battle for
        the Net wrapper (random server among the five closest sites).
        """
        if policy not in ("nearest", "regional"):
            raise ValueError(f"unknown selection policy {policy!r}")
        by_site = self._sites_by_distance(client_city)
        if policy == "nearest":
            _dist, site = by_site[0]
            return rng.choice(self.servers_at(site))
        candidates = [site for _d, site in by_site[:5]]
        return rng.choice(self.servers_at(rng.choice(candidates)))

    def select_regional_sites(self, client_city: str, count: int = 5) -> list[str]:
        """The up-to-``count`` closest sites (Battle for the Net test set)."""
        return [site for _d, site in self._sites_by_distance(client_city)[:count]]

    def select_server_direct(
        self, client_city: str, client_asn: int, rng
    ) -> "MLabServer":
        """Topology-aware selection — the §7 recommendation.

        Picks the nearest site whose *host network* is directly
        interconnected with the client's organization, so the test
        exercises exactly one interdomain link. Falls back to plain
        nearest selection when no directly connected host exists.
        """
        direct_hosts = self._direct_hosts(client_asn)
        for _distance, site in self._sites_by_distance(client_city):
            candidates = [s for s in self.servers_at(site) if s.asn in direct_hosts]
            if candidates:
                return rng.choice(candidates)
        return self.select_server(client_city, rng, "nearest")

    # ------------------------------------------------------------------
    # traceroute daemon

    def daemon_try_acquire(self, site: str, now_s: float) -> float | None:
        """Attempt to start a traceroute at ``site``.

        Returns the completion time when the single-threaded daemon was
        free (and marks it busy), or None when the daemon was still running
        a previous trace — in which case no traceroute is taken for this
        test, the §4.1 data loss.
        """
        daemon = self._daemons.get(site)
        if daemon is None:
            daemon = self._daemons[site] = _SiteDaemon()
        if now_s < daemon.busy_until_s:
            return None
        low, high = self._config.traceroute_duration_range_s
        duration = self._daemon_rng.uniform(low, high)
        daemon.busy_until_s = now_s + duration
        return daemon.busy_until_s

    def reset_daemons(self) -> None:
        """Clear daemon busy state and restart the trace-duration stream.

        Re-deriving the stream here makes every campaign's daemon
        contention a pure function of the platform seed, not of how many
        campaigns ran before it on this platform instance.
        """
        self._daemons.clear()
        self._daemon_rng = derive_random(self._config.seed, "mlab", "daemon")

    # ------------------------------------------------------------------

    def sites_by_distance(self, client_city: str) -> list[tuple[float, str]]:
        """(distance km, site) pairs nearest-first for one client metro.

        Ranked once per city and memoized — server selection for every
        subsequent test in that metro is a dict hit.
        """
        return list(self._sites_by_distance(client_city))

    def _sites_by_distance(self, client_city: str) -> list[tuple[float, str]]:
        cached = self._site_rank_cache.get(client_city)
        if cached is None:
            cached = self._rank_sites(client_city)
            self._site_rank_cache[client_city] = cached
        return cached

    def _rank_sites(self, client_city: str) -> list[tuple[float, str]]:
        origin = city_by_code(client_city)
        distances: dict[str, float] = {}
        for server in self._servers:
            if server.site not in distances:
                distances[server.site] = geo_distance_km(origin, city_by_code(server.city))
        return sorted((d, s) for s, d in distances.items())

    def _direct_hosts(self, client_asn: int) -> frozenset[int]:
        """Host ASNs whose org directly interconnects the client's org."""
        cached = self._direct_hosts_cache.get(client_asn)
        if cached is not None:
            return cached
        internet = self._internet
        client_siblings = internet.orgs.siblings(client_asn)
        direct_hosts: set[int] = set()
        for server in self._servers:
            if server.asn in direct_hosts:
                continue
            host_siblings = internet.orgs.siblings(server.asn)
            for host in host_siblings:
                if any(
                    internet.graph.relationship(host, sibling) is not None
                    for sibling in client_siblings
                ):
                    direct_hosts.add(server.asn)
                    break
        result = frozenset(direct_hosts)
        self._direct_hosts_cache[client_asn] = result
        return result

    def _build(self) -> None:
        internet = self._internet
        hosts = sorted(internet.graph.ases_by_role(ASRole.TIER1), key=lambda a: a.asn)
        transits = sorted(internet.graph.ases_by_role(ASRole.TRANSIT), key=lambda a: a.asn)
        hosts.extend(transits[: self._config.host_transit_count])
        site_counter: dict[str, int] = {}
        server_id = 1
        ip_cursor: dict[int, int] = {}
        while len(self._servers) < self._config.server_count:
            host = self._rng.choice(hosts)
            city = self._rng.choice(host.home_cities)
            site_index = site_counter.get(city, 0) + 1
            site_counter[city] = site_index
            site = f"{city}{site_index:02d}"
            for _ in range(self._config.servers_per_site):
                if len(self._servers) >= self._config.server_count:
                    break
                ip = self._next_server_ip(host.asn, ip_cursor)
                self._servers.append(
                    MLabServer(
                        server_id=server_id,
                        site=site,
                        host_org=host.name,
                        asn=host.asn,
                        city=city,
                        ip=ip,
                    )
                )
                server_id += 1

    def _next_server_ip(self, asn: int, cursor: dict[int, int]) -> int:
        prefix = self._internet.client_prefixes[asn][0]
        # Servers sit at the top of the host's client prefix, far away from
        # any addresses handed to clients.
        start = cursor.get(asn, prefix.base + (1 << (32 - prefix.length)) - 1000)
        cursor[asn] = start + 1
        return start
