"""Month-long crowdsourced NDT campaigns.

Generates the May-2015-style dataset the paper analyses: volunteers launch
NDT tests against M-Lab with a strong evening arrival bias (§6.1), some as
single tests and some as Battle-for-the-Net-style bursts against several
regional sites (§2.2). After every test the serving site's single-threaded
Paris traceroute daemon tries to trace back to the client — and silently
skips when still busy, producing the incomplete NDT↔traceroute matching
of §4.1.

Tests are executed in timestamp order so daemon contention is physical,
not an artifact of generation order. The schedule is kept as columns
(times, clients, servers), and each block of events runs as parallel
lists through :meth:`~repro.measurement.ndt.NDTRunner.plan`,
:meth:`~repro.net.tcp.TCPModel.observe_batch` and
:meth:`~repro.measurement.ndt.NDTRunner.complete`, so no per-test object
outlives its block except the records themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.measurement.ndt import NDTBlock, NDTRunner
from repro.measurement.records import NDTRecord, TracerouteRecord
from repro.measurement.traceroute import TracerouteEngine
from repro.net.diurnal import crowdsourced_test_intensity
from repro.net.tcp import TCPModel
from repro.obs import metrics
from repro.obs.log import get_logger
from repro.platforms.clients import Client, ClientPopulation
from repro.platforms.mlab import MLabPlatform, MLabServer
from repro.routing.forwarding import Forwarder
from repro.topology.internet import Internet
from repro.util.rng import derive_random

_SECONDS_PER_DAY = 86_400.0

_log = get_logger(__name__)

#: Read by the campaign equivalence tests, which hold the block-column
#: campaign to the scalar loop's count of traces lost to busy daemons.
_LOST_TRACES = metrics.counter("campaign.traces_lost_to_busy_daemon")

#: Events per block. Within a block, tests are still planned and
#: completed strictly in timestamp order; only the TCP arithmetic is
#: dispatched in bulk. Blocks bound peak memory and keep the batch hot in
#: cache; the exact size never affects output because ``observe_batch``
#: preserves the noise stream's draw order.
_EVENT_BLOCK = 1024


@dataclass(frozen=True)
class CampaignConfig:
    seed: int = 7
    days: int = 28
    total_tests: int = 50_000
    #: Restrict volunteering clients to these orgs (None = all access orgs).
    orgs: tuple[str, ...] | None = None
    #: "nearest" (M-Lab backend), "regional" (Battle-for-the-Net wrapper),
    #: or "direct" (topology-aware: only directly connected hosts, §7).
    selection_policy: str = "nearest"
    #: Probability a session is a multi-test burst against several sites.
    burst_prob: float = 0.30
    #: Burst size range (inclusive).
    burst_tests: tuple[int, int] = (2, 5)
    #: Gap between tests in a burst, seconds.
    burst_gap_s: tuple[float, float] = (20.0, 75.0)
    #: NDT test duration (throughput phase), seconds.
    test_duration_s: float = 10.0


@dataclass
class CampaignResult:
    """Everything a campaign produced."""

    config: CampaignConfig
    ndt_records: list[NDTRecord]
    traceroute_records: list[TracerouteRecord]
    servers_by_id: dict[int, MLabServer]

    def tests_toward_org(self, org_name: str) -> list[NDTRecord]:
        return [r for r in self.ndt_records if r.gt_client_org == org_name]


def run_ndt_campaign(
    internet: Internet,
    population: ClientPopulation,
    platform: MLabPlatform,
    forwarder: Forwarder,
    tcp: TCPModel,
    config: CampaignConfig | None = None,
    traceroute_engine: TracerouteEngine | None = None,
) -> CampaignResult:
    """Simulate a crowdsourced NDT campaign and return all records."""
    if config is None:
        config = CampaignConfig()
    rng = derive_random(config.seed, "campaign")
    runner = NDTRunner(forwarder)
    engine = traceroute_engine if traceroute_engine is not None else TracerouteEngine(
        internet, forwarder
    )
    platform.reset_daemons()

    orgs = list(config.orgs) if config.orgs is not None else population.orgs()
    clients_by_org: dict[str, list[Client]] = {}
    weights = []
    for org in orgs:
        clients = population.clients_of(org)
        if not clients:
            raise ValueError(f"org {org!r} has no clients")
        clients_by_org[org] = clients
        weights.append(float(len(clients)))
    # Accumulated once: ``choices`` with ``cum_weights`` draws the same
    # single random() as with ``weights``, without re-summing per session.
    cum_weights = list(itertools.accumulate(weights))

    # --- schedule individual test events -------------------------------
    # Each session expands into per-test events up front; the whole event
    # list is then executed in global time order so the single-threaded
    # traceroute daemons see arrivals exactly as wall-clock would deliver
    # them (bursts from different sessions interleave). Events are three
    # parallel columns, put in time order by one stable sort.
    times: list[float] = []
    event_clients: list[Client] = []
    event_servers: list[MLabServer] = []
    while len(times) < config.total_tests:
        org = rng.choices(orgs, cum_weights=cum_weights, k=1)[0]
        client = rng.choice(clients_by_org[org])
        n_tests = 1
        if rng.random() < config.burst_prob:
            n_tests = rng.randint(*config.burst_tests)
        n_tests = min(n_tests, config.total_tests - len(times))
        day = rng.randrange(config.days)
        hour = _sample_local_hour(rng)
        now = day * _SECONDS_PER_DAY + hour * 3600.0 + rng.uniform(0, 59)
        sites = platform.select_regional_sites(client.city, count=5)
        for test_index in range(n_tests):
            if config.selection_policy == "direct":
                server = platform.select_server_direct(client.city, client.asn, rng)
            elif config.selection_policy == "regional":
                server = rng.choice(platform.servers_at(rng.choice(sites)))
            elif n_tests > 1:
                # Battle-for-the-Net bursts walk the regional site list.
                site = sites[test_index % len(sites)]
                server = rng.choice(platform.servers_at(site))
            else:
                server = platform.select_server(client.city, rng, config.selection_policy)
            times.append(now)
            event_clients.append(client)
            event_servers.append(server)
            now += rng.uniform(*config.burst_gap_s)
    order = sorted(range(len(times)), key=times.__getitem__)
    times = [times[i] for i in order]
    event_clients = [event_clients[i] for i in order]
    event_servers = [event_servers[i] for i in order]

    # --- execute in time order ------------------------------------------
    _log.info(
        "campaign start: %d tests over %d days across %d orgs (seed=%d)",
        config.total_tests, config.days, len(orgs), config.seed,
    )
    # Blocked execution: per block of events, draw every test's conditions
    # in timestamp order, route the block (NDTRunner.plan), evaluate all
    # its TCP transfers in one observe_batch call, build the records
    # (NDTRunner.complete), then run the daemon and the Paris traceroute
    # per test, still in timestamp order. Each RNG stream's draw order is
    # exactly what a test-at-a-time loop produces (campaign draws for the
    # conditions, TCP noise inside the batch, daemon and traceroute draws
    # per test after it; routing draws nothing), so records are
    # byte-identical to unblocked execution. The block travels as parallel
    # lists: no per-test object lives across the block except the records.
    ndt_records: list[NDTRecord] = []
    traceroutes: list[TracerouteRecord] = []
    lost_traces = 0
    for start in range(0, len(times), _EVENT_BLOCK):
        stop = start + _EVENT_BLOCK
        block_times = times[start:stop]
        block_clients = event_clients[start:stop]
        block_servers = event_servers[start:stop]
        hours: list[float] = []
        plan_rates: list[float] = []
        upload_rates: list[float] = []
        home_factors: list[float] = []
        access_losses: list[float] = []
        for now, client in zip(block_times, block_clients):
            local_hour = (now % _SECONDS_PER_DAY) / 3600.0
            conditions = population.draw_conditions(client, local_hour, rng)
            hours.append(local_hour)
            plan_rates.append(conditions.effective_plan_bps)
            upload_rates.append(conditions.effective_upload_bps)
            home_factors.append(conditions.home_factor)
            access_losses.append(conditions.access_loss)
        planned = runner.plan(NDTBlock(
            block_times, hours, block_clients, block_servers,
            plan_rates, upload_rates, home_factors, access_losses,
        ))
        records = runner.complete(planned, tcp.observe_batch(*planned.requests))
        ndt_records.extend(records)

        for record, row in zip(records, planned.rows):
            server = block_servers[row]
            test_end = record.timestamp_s + config.test_duration_s
            if platform.daemon_try_acquire(server.site, test_end) is None:
                lost_traces += 1
                continue
            client = block_clients[row]
            # Positionally: src_ip, src_asn, src_city, dst_ip, dst_asn,
            # dst_city, timestamp_s, flow_key.
            trace = engine.trace(
                server.ip, server.asn, server.city,
                client.ip, client.asn, client.city,
                test_end + 1.0, ("paris", server.site, client.ip, record.test_id),
            )
            if trace is not None:
                traceroutes.append(trace)

    _LOST_TRACES.inc(lost_traces)
    _log.info(
        "campaign done: %d NDT records, %d traceroutes (%d lost to busy daemons)",
        len(ndt_records), len(traceroutes), len(ndt_records) - len(traceroutes),
    )
    return CampaignResult(
        config=config,
        ndt_records=ndt_records,
        traceroute_records=traceroutes,
        servers_by_id={s.server_id: s for s in platform.servers()},
    )


def _sample_local_hour(rng) -> float:
    """Rejection-sample a local hour from the crowdsourced demand curve."""
    while True:
        hour = rng.uniform(0.0, 24.0)
        if rng.random() < crowdsourced_test_intensity(hour):
            return hour
