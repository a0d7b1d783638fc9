"""Paris traceroute simulation with realistic artifacts.

A traceroute renders a forwarding path into TTL-indexed hop responses,
with the pathologies the paper (and Luckie et al. [25]) warn about:

* **non-responding routers** — some routers never answer (rate-limited or
  filtered); the hop shows ``*``. Responsiveness is a per-router property
  so the same router is consistently silent across traces.
* **third-party addresses** — a router may reply from a different
  interface than the one the probe arrived on (the classic cause of wrong
  AS attribution); we model it by occasionally substituting another
  interface of the same router.
* **unreachable destinations** — many home gateways drop probes, so the
  trace ends without the destination responding.
* **flow identity** — Paris traceroute keeps its header fields stable, so
  *within* the trace all probes follow one path; but its flow key is not
  the NDT flow's key, so the traceroute may cross a *different* member of
  an ECMP parallel-link group than the throughput test did — exactly the
  synchronization artifact of Huang et al. [21] the paper cites.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.measurement.records import TracerouteRecord
from repro.net.compiled import compile_world
from repro.routing.forwarding import Forwarder, ForwardingPath
from repro.topology.geo import propagation_delay_by_code_ms
from repro.topology.internet import Internet
from repro.util.rng import derive_random

#: How many (seed, fraction) worlds' silent-router verdicts to retain.
#: Normal runs touch one; multi-seed fuzzing cycles through a few — the
#: LRU keeps the working set while bounding long-lived processes.
_SILENCE_CACHE_WORLDS = 8

#: Bound on per-engine path render tables (matches the forwarder's path
#: interning bound, so in practice nothing is ever evicted mid-sweep).
_RENDER_TABLE_SIZE = 65536


class TraceRequest(NamedTuple):
    """One traceroute of a batch — the arguments of :meth:`TracerouteEngine.trace`."""

    src_ip: int
    src_asn: int
    src_city: str
    dst_ip: int
    dst_asn: int
    dst_city: str
    timestamp_s: float
    flow_key: object


@dataclass(frozen=True)
class TracerouteConfig:
    """Artifact rates of the traceroute engine."""

    seed: int = 7
    #: Fraction of routers that never respond to probes.
    silent_router_fraction: float = 0.05
    #: Per-hop probability of a one-off non-response from a responsive router.
    transient_loss_prob: float = 0.02
    #: Probability a response carries a third-party interface address.
    third_party_prob: float = 0.04
    #: Probability the destination host answers the final probe.
    destination_responds_prob: float = 0.70
    #: Per-hop RTT measurement jitter (ms, uniform half-width).
    rtt_jitter_ms: float = 1.2


class TracerouteEngine:
    """Produces :class:`TracerouteRecord` objects over an Internet instance."""

    #: Shared silent-router verdicts, keyed (seed, fraction). The coin is
    #: a pure function of (seed, router_id) — engines only differ in how
    #: they compare it to their fraction — so the sha256-seeded derivation
    #: is done once per world even when parallel per-VP fan-out builds
    #: many engine instances over the same seed. LRU-bounded to
    #: ``_SILENCE_CACHE_WORLDS`` worlds: verdicts are pure, so eviction
    #: only costs re-derivation, never changes an answer — but without a
    #: bound, long-lived processes sweeping many seeds (fuzzing,
    #: multi-seed benches) accumulate one whole-world dict per seed.
    _silence_verdicts: "OrderedDict[tuple[int, float], dict[int, bool]]" = OrderedDict()

    def __init__(
        self,
        internet: Internet,
        forwarder: Forwarder,
        config: TracerouteConfig | None = None,
        stream: str | None = None,
    ) -> None:
        """``stream`` derives an independent artifact-noise substream from
        the same seed. Parallel per-VP fan-out gives each unit of work its
        own stream label, so trace artifacts are a function of the unit —
        not of how many traces other units ran first — while the silent-
        router property (seed-keyed, stream-independent) stays one
        consistent per-world fact."""
        self._internet = internet
        self._forwarder = forwarder
        self._config = config if config is not None else TracerouteConfig()
        if stream is None:
            self._rng = derive_random(self._config.seed, "traceroute")
        else:
            self._rng = derive_random(self._config.seed, "traceroute", stream)
        verdict_key = (self._config.seed, self._config.silent_router_fraction)
        verdicts = self._silence_verdicts
        silence = verdicts.get(verdict_key)
        if silence is None:
            silence = {}
            verdicts[verdict_key] = silence
            while len(verdicts) > _SILENCE_CACHE_WORLDS:
                verdicts.popitem(last=False)
        else:
            verdicts.move_to_end(verdict_key)
        self._silence = silence
        self._next_trace_id = 1
        #: id(path) -> render table ``(entries, last_city, last_cum_ms)``,
        #: one ``(silent, reply_ip, cumulative_ms, router_id)`` entry per
        #: hop; _render_paths pins the path objects so ids cannot be
        #: recycled while a table lives. The OrderedDicts here evict FIFO
        #: in O(1).
        self._render_tables: OrderedDict[int, tuple] = OrderedDict()
        self._render_paths: dict[int, ForwardingPath] = {}
        #: Paths rendered exactly once so far: a table is only built on a
        #: path's *second* visit, so one-shot sweeps (most coverage paths
        #: are traced once) never pay the table-construction overhead.
        self._render_seen: OrderedDict[int, ForwardingPath] = OrderedDict()
        #: (router_id, probed_ip) -> alternate interface ips, resolved
        #: lazily on third-party events from the compiled world's tables.
        self._alternates_memo: dict[tuple[int, int], tuple[int, ...]] = {}
        self._world = None
        #: (last_hop_city, dst_city) -> final-hop round-trip delay bump.
        self._final_delay: dict[tuple[str, str], float] = {}

    # ------------------------------------------------------------------

    def trace(
        self,
        src_ip: int,
        src_asn: int,
        src_city: str,
        dst_ip: int,
        dst_asn: int,
        dst_city: str,
        timestamp_s: float,
        flow_key: object,
    ) -> TracerouteRecord | None:
        """Run one Paris traceroute; None when the route does not exist."""
        path = self._forwarder.route_flow(src_asn, src_city, dst_asn, dst_city, flow_key)
        if path is None:
            return None
        return self.trace_along(path, src_ip, dst_ip, dst_city, timestamp_s)

    def trace_along(
        self,
        path: ForwardingPath,
        src_ip: int,
        dst_ip: int,
        dst_city: str,
        timestamp_s: float,
    ) -> TracerouteRecord:
        """Render an already-computed forwarding path as a traceroute."""
        return self._render((path,), (src_ip,), (dst_ip,), (dst_city,), (timestamp_s,))[0]

    def trace_batch(
        self, requests: Sequence[TraceRequest]
    ) -> list[TracerouteRecord | None]:
        """Run many Paris traceroutes in one pass.

        Byte-identical to calling :meth:`trace` for each request in
        order: path resolution goes through the forwarder's batch
        resolver (same interned paths), and every trace is rendered by
        the one renderer that :meth:`trace` also uses.
        """
        paths = self._forwarder.resolve_paths_batch(
            [(r.src_asn, r.src_city, r.dst_asn, r.dst_city, r.flow_key) for r in requests]
        )
        return self._render(
            paths,
            [r.src_ip for r in requests],
            [r.dst_ip for r in requests],
            [r.dst_city for r in requests],
            [r.timestamp_s for r in requests],
        )

    def _render(
        self,
        paths: Sequence[ForwardingPath | None],
        src_ips: Sequence[int],
        dst_ips: Sequence[int],
        dst_cities: Sequence[str],
        timestamps: Sequence[float],
    ) -> list[TracerouteRecord | None]:
        """Render traces along resolved paths (None where a path is None).

        Rendering consumes the engine's artifact stream in a fixed draw
        sequence that is part of the determinism contract: per hop, a
        silent router draws nothing, a responsive one draws transient
        loss, then (when it answers) third-party and jitter; then one
        draw decides whether the destination answers, and one more
        jitters its reply. Only the per-hop *static* facts (cumulative
        propagation delay, silent-router verdicts) are precomputed, once
        per interned path: a path's render table is built on its second
        visit, *while* rendering, so repeated paths pay no extra walk and
        one-shot paths (most coverage paths are traced once) pay no table
        work at all.
        """
        # Hot-loop bindings, once per call instead of once per record.
        config = self._config
        rng = self._rng
        rng_random = rng.random
        rng_choice = rng.choice
        transient_loss_prob = config.transient_loss_prob
        third_party_prob = config.third_party_prob
        rtt_jitter_ms = config.rtt_jitter_ms
        responds_prob = config.destination_responds_prob
        silence_get = self._silence.get
        router_is_silent = self._router_is_silent
        prop_delay = propagation_delay_by_code_ms
        tables = self._render_tables
        pins = self._render_paths
        seen = self._render_seen
        tables_get = tables.get
        pins_get = pins.get
        seen_get = seen.get
        alternates_get = self._alternates_memo.get
        resolve_alternates = self._alternates
        final_delay = self._final_delay
        final_delay_get = final_delay.get
        record_type = TracerouteRecord
        next_trace_id = self._next_trace_id

        records: list[TracerouteRecord | None] = []
        records_append = records.append
        for path, src_ip, dst_ip, dst_city, timestamp_s in zip(
            paths, src_ips, dst_ips, dst_cities, timestamps
        ):
            if path is None:
                records_append(None)
                continue
            path_id = id(path)
            ips: list[int | None] = []
            rtts: list[float | None] = []
            ips_append = ips.append
            rtts_append = rtts.append
            table = tables_get(path_id)
            if table is not None and pins_get(path_id) is path:
                # Fast path: render from the precomputed table, with the
                # walk's draw sequence verbatim. ``x if x > 0.1 else 0.1``
                # is max(0.1, x) inlined.
                entries, last_city, cumulative_ms = table
                for silent, reply_ip, hop_ms, router_id in entries:
                    if silent or rng_random() < transient_loss_prob:
                        ips_append(None)
                        rtts_append(None)
                        continue
                    if rng_random() < third_party_prob:
                        alternates = alternates_get((router_id, reply_ip))
                        if alternates is None:
                            alternates = resolve_alternates(router_id, reply_ip)
                        if alternates:
                            reply_ip = rng_choice(alternates)
                    rtt = hop_ms + (-1 + 2 * rng_random()) * rtt_jitter_ms
                    ips_append(reply_ip)
                    rtts_append(rtt if rtt > 0.1 else 0.1)
            else:
                # Walk the path columns hop by hop. On the path's second
                # visit the walk also records its table: one tuple of
                # atoms per hop, whose ``cumulative_ms`` accumulates by
                # the same float ops in the same order as the walk, so the
                # stored values are bit-exact for every later fast-path
                # render. ``-1 + 2 * random()`` is rng.uniform(-1, 1)
                # inlined, bit for bit.
                entries_list = [] if seen_get(path_id) is path else None
                cumulative_ms = 1.0
                cities = path.hop_cities
                last_city = cities[0] if cities else None
                for router_id, city, default_ip in zip(path.hop_routers, cities, path.hop_ips):
                    if city != last_city:
                        cumulative_ms += 2.0 * prop_delay(last_city, city)
                        last_city = city
                    silent = silence_get(router_id)
                    if silent is None:
                        silent = router_is_silent(router_id)
                    if entries_list is not None:
                        entries_list.append((silent, default_ip, cumulative_ms, router_id))
                    if silent or rng_random() < transient_loss_prob:
                        ips_append(None)
                        rtts_append(None)
                        continue
                    reply_ip = default_ip
                    if rng_random() < third_party_prob:
                        alternates = alternates_get((router_id, default_ip))
                        if alternates is None:
                            alternates = resolve_alternates(router_id, default_ip)
                        if alternates:
                            reply_ip = rng_choice(alternates)
                    rtt = cumulative_ms + (-1 + 2 * rng_random()) * rtt_jitter_ms
                    ips_append(reply_ip)
                    rtts_append(rtt if rtt > 0.1 else 0.1)
                if entries_list is None:
                    seen[path_id] = path
                    if len(seen) > _RENDER_TABLE_SIZE:
                        seen.popitem(last=False)
                else:
                    del seen[path_id]
                    tables[path_id] = (tuple(entries_list), last_city, cumulative_ms)
                    pins[path_id] = path
                    if len(tables) > _RENDER_TABLE_SIZE:
                        del pins[tables.popitem(last=False)[0]]

            reached = rng_random() < responds_prob
            if reached:
                if last_city is not None and last_city != dst_city:
                    delay_key = (last_city, dst_city)
                    extra = final_delay_get(delay_key)
                    if extra is None:
                        extra = 2.0 * prop_delay(last_city, dst_city)
                        final_delay[delay_key] = extra
                    cumulative_ms += extra
                # rng.uniform(0, jitter) inlined: 0 + jitter * random().
                ips_append(dst_ip)
                rtts_append(cumulative_ms + rtt_jitter_ms * rng_random())

            # The constructor, positionally in field order (keywords cost
            # a third more per call): trace_id, timestamp_s, src_ip,
            # src_asn, dst_ip, hop_ips, hop_rtts, reached_destination,
            # gt_crossed_links, gt_as_path.
            records_append(record_type(
                next_trace_id, timestamp_s, src_ip, path.src_asn, dst_ip,
                tuple(ips), tuple(rtts), reached, path.crossed_links, path.as_path,
            ))
            next_trace_id += 1

        self._next_trace_id = next_trace_id
        return records

    def _alternates(self, router_id: int, probed_ip: int) -> tuple[int, ...]:
        """The router's other interfaces, in port order: the candidates
        of a third-party reply to a probe of ``probed_ip``. Memoized."""
        key = (router_id, probed_ip)
        alternates = self._alternates_memo.get(key)
        if alternates is None:
            if self._world is None:
                self._world = compile_world(self._internet)
            alternates = tuple(
                ip for ip in self._world.interface_ips_of(router_id) if ip != probed_ip
            )
            self._alternates_memo[key] = alternates
        return alternates

    # ------------------------------------------------------------------

    def _router_is_silent(self, router_id: int) -> bool:
        verdict = self._silence.get(router_id)
        if verdict is None:
            # Stable per-router coin flip, independent of probe order.
            coin = derive_random(self._config.seed, "silent-router", str(router_id))
            verdict = coin.random() < self._config.silent_router_fraction
            self._silence[router_id] = verdict
        return verdict
