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

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.measurement.records import TraceHop, TracerouteRecord
from repro.obs import metrics
from repro.routing.forwarding import Forwarder, ForwardingPath
from repro.topology.geo import propagation_delay_by_code_ms
from repro.topology.internet import Internet
from repro.util.rng import derive_random

_BATCH_REQUESTS = metrics.counter("trace.batch.requests")
_BATCH_CALLS = metrics.counter("trace.batch.calls")
_TABLE_HITS = metrics.counter("trace.batch.render_table.hits")
_TABLE_MISSES = metrics.counter("trace.batch.render_table.misses")
_BATCH_WALL = metrics.histogram("trace.batch.block_wall_s")

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
        #: id(path) -> precomputed render table; _render_paths pins the
        #: path objects so ids cannot be recycled while a table lives.
        self._render_tables: dict[int, tuple] = {}
        self._render_paths: dict[int, ForwardingPath] = {}
        #: Paths rendered exactly once so far: a table is only built on a
        #: path's *second* visit, so one-shot sweeps (most coverage paths
        #: are traced once) never pay the table-construction overhead.
        self._render_seen: dict[int, ForwardingPath] = {}
        #: (router_id, probed_ip) -> alternate interface ips, resolved
        #: lazily on third-party events exactly like the scalar path.
        self._alternates_memo: dict[tuple[int, int], tuple[int, ...]] = {}
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
        config = self._config
        # Bind the hot names once; the draw sequence below is part of the
        # determinism contract (silent-router short-circuits the transient
        # draw, third-party only draws for responsive hops) and must not
        # be reordered.
        rng_random = self._rng.random
        silence = self._silence
        router_is_silent = self._router_is_silent
        transient_loss_prob = config.transient_loss_prob
        third_party_prob = config.third_party_prob
        rtt_jitter_ms = config.rtt_jitter_ms
        hops: list[TraceHop] = []
        hops_append = hops.append
        cumulative_ms = 1.0
        previous_city = path.hops[0].city_code if path.hops else dst_city
        for ttl, hop in enumerate(path.hops, start=1):
            if hop.city_code != previous_city:
                cumulative_ms += 2.0 * propagation_delay_by_code_ms(
                    previous_city, hop.city_code
                )
                previous_city = hop.city_code
            reply_ip: int | None = hop.reply_ip
            silent = silence.get(hop.router_id)
            if silent is None:
                silent = router_is_silent(hop.router_id)
            if silent or rng_random() < transient_loss_prob:
                reply_ip = None
            elif rng_random() < third_party_prob:
                reply_ip = self._third_party_address(hop.router_id, hop.reply_ip)
            rtt = None
            if reply_ip is not None:
                # Inlined rng.uniform(-1, 1): a + (b - a) * random() with
                # a=-1, b=1 — bit-identical, minus the method call.
                rtt = max(0.1, cumulative_ms + (-1 + 2 * rng_random()) * rtt_jitter_ms)
            hops_append(TraceHop(ttl, reply_ip, rtt))

        reached = rng_random() < config.destination_responds_prob
        if reached:
            if previous_city != dst_city:
                cumulative_ms += 2.0 * propagation_delay_by_code_ms(
                    previous_city, dst_city
                )
            # Inlined rng.uniform(0, jitter): 0 + jitter * random().
            hops_append(
                TraceHop(len(hops) + 1, dst_ip, cumulative_ms + rtt_jitter_ms * rng_random())
            )

        record = TracerouteRecord(
            trace_id=self._next_trace_id,
            timestamp_s=timestamp_s,
            src_ip=src_ip,
            src_asn=path.src_asn,
            dst_ip=dst_ip,
            hops=tuple(hops),
            reached_destination=reached,
            gt_crossed_links=path.crossed_links,
            gt_as_path=path.as_path,
        )
        self._next_trace_id += 1
        return record

    # ------------------------------------------------------------------
    # batch path

    def trace_batch(
        self, requests: Sequence[TraceRequest]
    ) -> list[TracerouteRecord | None]:
        """Run many Paris traceroutes in one pass.

        Byte-identical to calling :meth:`trace` for each request in
        order: path resolution goes through the forwarder's batch
        resolver (same interned paths), and rendering consumes the
        engine's artifact stream with exactly the scalar draw sequence —
        only the per-hop *static* facts (cumulative propagation delay,
        silent-router verdicts, third-party alternate interfaces) are
        precomputed once per interned path instead of once per trace,
        and every per-record binding is hoisted out of the loop. The
        first trace along a path builds its render table *while*
        rendering, so cold sweeps pay no extra walk.
        """
        _BATCH_CALLS.inc()
        _BATCH_REQUESTS.inc(len(requests))
        block_start = time.perf_counter()
        paths = self._forwarder.resolve_paths_batch(
            [(r.src_asn, r.src_city, r.dst_asn, r.dst_city, r.flow_key) for r in requests]
        )

        # Hot-loop bindings, once per batch instead of once per record.
        config = self._config
        rng = self._rng
        rng_random = rng.random
        rng_choice = rng.choice
        transient_loss_prob = config.transient_loss_prob
        third_party_prob = config.third_party_prob
        rtt_jitter_ms = config.rtt_jitter_ms
        responds_prob = config.destination_responds_prob
        silence = self._silence
        router_is_silent = self._router_is_silent
        prop_delay = propagation_delay_by_code_ms
        tables = self._render_tables
        pins = self._render_paths
        seen = self._render_seen
        tables_get = tables.get
        pins_get = pins.get
        seen_get = seen.get
        alternates_memo = self._alternates_memo
        alternates_get = alternates_memo.get
        resolve_alternates = self._alternates
        final_delay = self._final_delay
        final_delay_get = final_delay.get
        new_hop = tuple.__new__
        hop_type = TraceHop
        obj_new = object.__new__
        record_type = TracerouteRecord
        next_trace_id = self._next_trace_id
        table_hits = table_misses = 0

        records: list[TracerouteRecord | None] = []
        records_append = records.append
        for (src_ip, _, _, dst_ip, _, dst_city, timestamp_s, _), path in zip(
            requests, paths
        ):
            if path is None:
                records_append(None)
                continue
            path_id = id(path)
            hops: list[TraceHop] = []
            hops_append = hops.append
            table = tables_get(path_id)
            if table is not None and pins_get(path_id) is path:
                # Fast path: render from the precomputed table. The draw
                # sequence (transient-loss, third-party, jitter, reached)
                # is trace_along's, verbatim — see the determinism note
                # there. ``x if x > 0.1 else 0.1`` is max(0.1, x) inlined.
                table_hits += 1
                entries, last_ttl, last_city, last_cum = table
                for silent, reply_ip, cumulative_ms, ttl, lost_hop, router_id in entries:
                    if silent or rng_random() < transient_loss_prob:
                        hops_append(lost_hop)
                        continue
                    if rng_random() < third_party_prob:
                        alternates = alternates_get((router_id, reply_ip))
                        if alternates is None:
                            alternates = resolve_alternates(router_id, reply_ip)
                        if alternates:
                            reply_ip = rng_choice(alternates)
                    rtt = cumulative_ms + (-1 + 2 * rng_random()) * rtt_jitter_ms
                    hops_append(
                        new_hop(hop_type, (ttl, reply_ip, rtt if rtt > 0.1 else 0.1))
                    )
            elif seen_get(path_id) is path:
                # Second visit: the path repeats, so build its table while
                # rendering — one walk. ``cumulative_ms`` accumulates by
                # the same float ops in the same order as trace_along, so
                # the stored values are bit-exact for every later
                # fast-path render.
                table_misses += 1
                entries_list = []
                entries_append = entries_list.append
                cumulative_ms = 1.0
                path_hops = path.hops
                last_city = path_hops[0].city_code if path_hops else None
                last_ttl = 0
                for hop in path_hops:
                    last_ttl += 1
                    city = hop.city_code
                    if city != last_city:
                        cumulative_ms += 2.0 * prop_delay(last_city, city)
                        last_city = city
                    router_id = hop.router_id
                    silent = silence.get(router_id)
                    if silent is None:
                        silent = router_is_silent(router_id)
                    default_ip = hop.reply_ip
                    lost_hop = new_hop(hop_type, (last_ttl, None, None))
                    entries_append(
                        (silent, default_ip, cumulative_ms, last_ttl, lost_hop, router_id)
                    )
                    if silent or rng_random() < transient_loss_prob:
                        hops_append(lost_hop)
                        continue
                    reply_ip = default_ip
                    if rng_random() < third_party_prob:
                        alternates = alternates_get((router_id, default_ip))
                        if alternates is None:
                            alternates = resolve_alternates(router_id, default_ip)
                        if alternates:
                            reply_ip = rng_choice(alternates)
                    rtt = cumulative_ms + (-1 + 2 * rng_random()) * rtt_jitter_ms
                    hops_append(
                        new_hop(hop_type, (last_ttl, reply_ip, rtt if rtt > 0.1 else 0.1))
                    )
                last_cum = cumulative_ms
                del seen[path_id]
                tables[path_id] = (tuple(entries_list), last_ttl, last_city, last_cum)
                pins[path_id] = path
                if len(tables) > _RENDER_TABLE_SIZE:
                    evicted = next(iter(tables))
                    del tables[evicted]
                    del pins[evicted]
            else:
                # First visit: render straight off the path, exactly the
                # trace_along walk with hoisted bindings — no table work,
                # so one-shot sweeps pay nothing for the table machinery.
                table_misses += 1
                cumulative_ms = 1.0
                path_hops = path.hops
                last_city = path_hops[0].city_code if path_hops else None
                last_ttl = 0
                for hop in path_hops:
                    last_ttl += 1
                    city = hop.city_code
                    if city != last_city:
                        cumulative_ms += 2.0 * prop_delay(last_city, city)
                        last_city = city
                    router_id = hop.router_id
                    silent = silence.get(router_id)
                    if silent is None:
                        silent = router_is_silent(router_id)
                    if silent or rng_random() < transient_loss_prob:
                        hops_append(new_hop(hop_type, (last_ttl, None, None)))
                        continue
                    reply_ip = hop.reply_ip
                    if rng_random() < third_party_prob:
                        alternates = alternates_get((router_id, reply_ip))
                        if alternates is None:
                            alternates = resolve_alternates(router_id, reply_ip)
                        if alternates:
                            reply_ip = rng_choice(alternates)
                    rtt = cumulative_ms + (-1 + 2 * rng_random()) * rtt_jitter_ms
                    hops_append(
                        new_hop(hop_type, (last_ttl, reply_ip, rtt if rtt > 0.1 else 0.1))
                    )
                last_cum = cumulative_ms
                seen[path_id] = path
                if len(seen) > _RENDER_TABLE_SIZE:
                    del seen[next(iter(seen))]

            reached = rng_random() < responds_prob
            if reached:
                cumulative_ms = last_cum
                if last_city is not None and last_city != dst_city:
                    delay_key = (last_city, dst_city)
                    extra = final_delay_get(delay_key)
                    if extra is None:
                        extra = 2.0 * prop_delay(last_city, dst_city)
                        final_delay[delay_key] = extra
                    cumulative_ms += extra
                hops_append(
                    new_hop(
                        hop_type,
                        (last_ttl + 1, dst_ip, cumulative_ms + rtt_jitter_ms * rng_random()),
                    )
                )

            # Equivalent to the TracerouteRecord(...) constructor, minus
            # the nine frozen-dataclass object.__setattr__ calls: the
            # instance dict ends up identical, so equality, field access,
            # repr, and pickling are unchanged.
            record = obj_new(record_type)
            record.__dict__.update({
                "trace_id": next_trace_id,
                "timestamp_s": timestamp_s,
                "src_ip": src_ip,
                "src_asn": path.src_asn,
                "dst_ip": dst_ip,
                "hops": tuple(hops),
                "reached_destination": reached,
                "gt_crossed_links": path.crossed_links,
                "gt_as_path": path.as_path,
            })
            next_trace_id += 1
            records_append(record)

        self._next_trace_id = next_trace_id
        if table_hits:
            _TABLE_HITS.inc(table_hits)
        if table_misses:
            _TABLE_MISSES.inc(table_misses)
        _BATCH_WALL.observe(time.perf_counter() - block_start)
        return records

    def _alternates(self, router_id: int, probed_ip: int) -> tuple[int, ...]:
        """Alternate reply interfaces, memoized; same candidate order as
        :meth:`_third_party_address` builds on every scalar event."""
        key = (router_id, probed_ip)
        alternates = self._alternates_memo.get(key)
        if alternates is None:
            alternates = tuple(
                iface.ip
                for iface in self._internet.fabric.interfaces_of(router_id)
                if iface.ip != probed_ip
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

    def _third_party_address(self, router_id: int, default_ip: int) -> int:
        interfaces = self._internet.fabric.interfaces_of(router_id)
        alternates = [iface.ip for iface in interfaces if iface.ip != default_ip]
        if not alternates:
            return default_ip
        return self._rng.choice(alternates)
