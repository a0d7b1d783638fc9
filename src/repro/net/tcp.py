"""TCP throughput and RTT model for NDT-style bulk transfers.

NDT measures the throughput of a short bulk TCP transfer. We model the
achieved rate as the minimum of three ceilings:

1. the client's access pipeline — service-plan rate degraded by the home
   network (Wi-Fi contention etc., §6.1);
2. the tightest interconnect on the path — the available-bandwidth model
   of :mod:`repro.net.link`;
3. the loss/RTT ceiling of TCP itself — the Mathis et al. / Padhye et al.
   relation ``rate ≈ MSS / (RTT · sqrt(2p/3))``, which is what couples a
   congested link's loss to a collapsed throughput, and which gives the
   well-known inverse throughput/latency relationship the paper cites
   (§2) as the reason servers must sit close to clients.

A multiplicative log-normal noise term models everything we do not
simulate (cross traffic bursts, host effects).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from repro.net.link import BASE_LOSS, LinkNetwork
from repro.obs import flowprobe, metrics
from repro.routing.forwarding import ForwardingPath
from repro.topology.geo import propagation_delay_by_code_ms
from repro.util.rng import derive_random

_FLOWS = metrics.counter("tcp.flows_simulated")
_RETX_RATE = metrics.histogram("tcp.retx_rate")
_SIGNALS = metrics.counter("tcp.congestion_signals")
#: "Timeouts": flows whose loss/RTT ceiling collapsed them to the record
#: floor — the regime where a real NDT transfer stalls on RTOs.
_TIMEOUTS = metrics.counter("tcp.timeout_floor_flows")
_BATCHES = metrics.counter("tcp.batch.batches")
_BATCH_SIZE = metrics.histogram("tcp.batch.requests")
_BATCH_WALL = metrics.histogram("tcp.batch.block_wall_s")
_PATH_STATIC_HITS = metrics.counter("tcp.batch.path_static_hits")

#: Bottleneck tie-break priority, shared by the scalar and batched paths.
#: When two or more ceilings are exactly equal (commonest when the noise-
#: free throughput hits the plan rate and an equally-provisioned
#: interconnect at once), the *earlier* kind in this tuple wins: an
#: access-limited verdict beats interconnect, which beats latency. The
#: scalar chain of ``==`` checks used this order implicitly; it is now a
#: documented contract because ground-truth bottleneck labels feed the
#: validation experiments and must not depend on evaluation strategy.
BOTTLENECK_PRIORITY: tuple[str, ...] = ("access", "interconnect", "latency")


def classify_bottleneck(
    throughput: float,
    access_ceiling: float,
    interconnect_ceiling: float,
    bottleneck_link: int | None,
) -> tuple[str, int | None]:
    """Attribute a pre-noise throughput to its binding ceiling.

    Applies :data:`BOTTLENECK_PRIORITY` on exact float equality — the
    throughput *is* one of the three ceilings (it is their minimum), so
    the checks are exhaustive and the priority only matters on ties.
    """
    if throughput == access_ceiling:
        return "access", None
    if throughput == interconnect_ceiling:
        return "interconnect", bottleneck_link
    return "latency", None


@dataclass(frozen=True)
class TCPModelConfig:
    """Constants of the transfer model."""

    mss_bytes: int = 1460
    #: Base host/stack latency added to every RTT (ms).
    host_overhead_ms: float = 1.5
    #: Log-normal sigma of the multiplicative throughput noise.
    throughput_noise_sigma: float = 0.18
    #: NDT transfer duration (s), used to convert loss rate to an expected
    #: count of congestion signals for the record.
    test_duration_s: float = 10.0
    #: Buffer an access-limited flow builds at its own bottleneck (ms) —
    #: the self-induced bufferbloat TCP congestion signatures detect.
    access_buffer_ms: float = 25.0
    #: Fraction of transient queueing even the flow's fastest round trip
    #: pays (queues drain, but rarely to exactly zero).
    transient_floor_fraction: float = 0.1


@dataclass(frozen=True)
class PathObservation:
    """What one NDT transfer would observe (plus ground truth fields).

    ``throughput_bps``, ``rtt_ms``, and ``retx_rate`` are the observable
    outputs that land in measurement records; ``bottleneck_link_id`` and
    ``bottleneck_kind`` are ground truth reserved for validation.
    """

    throughput_bps: float
    rtt_ms: float
    retx_rate: float
    congestion_signals: int
    bottleneck_link_id: int | None
    bottleneck_kind: str  # "access", "interconnect", or "latency"
    #: Flow RTT extremes (NDT logs the RTT series, so these are public).
    rtt_min_ms: float = 0.0
    rtt_max_ms: float = 0.0


class ObservedBatch(NamedTuple):
    """What :meth:`TCPModel.observe_batch` returns: one list per
    :class:`PathObservation` field, in that field order, each holding one
    entry per request in request order. Row ``i`` is therefore
    ``PathObservation(*(column[i] for column in batch))``."""

    throughput_bps: list[float]
    rtt_ms: list[float]
    retx_rate: list[float]
    congestion_signals: list[int]
    bottleneck_link_id: list[int | None]
    bottleneck_kind: list[str]
    rtt_min_ms: list[float]
    rtt_max_ms: list[float]


class TCPModel:
    """Evaluates NDT transfers over forwarding paths at a time of day."""

    def __init__(
        self,
        links: LinkNetwork,
        config: TCPModelConfig | None = None,
        seed: int = 7,
    ) -> None:
        self._links = links
        self._config = config if config is not None else TCPModelConfig()
        self._seed = seed
        self._rng = derive_random(seed, "tcp-noise")
        #: id(path) -> (path, base_rtt_ms, crossed_links). The leading
        #: path reference keeps the key alive (guarding against id()
        #: recycling) and is identity-checked on every hit.
        self._path_static_memo: dict[
            int, tuple[ForwardingPath, float, tuple[int, ...]]
        ] = {}

    #: Memoized-path cap; forwarding interns paths so real campaigns stay
    #: far below it, but an adversarial caller should not leak memory.
    _PATH_MEMO_MAX = 262_144

    @property
    def seed(self) -> int:
        """Root seed of this model's noise stream (``tcp-noise`` label)."""
        return self._seed

    def reseeded(self, seed: int) -> "TCPModel":
        """A fresh model over the same links with an independent noise stream.

        Campaigns use this so each campaign's randomness is a function of
        its own seed rather than of whatever ran before it.
        """
        return TCPModel(self._links, self._config, seed=seed)

    def base_rtt_ms(self, path: ForwardingPath) -> float:
        """Propagation + host RTT with empty queues (no diurnal component)."""
        cities = path.hop_cities
        one_way = 0.0
        for a, b in zip(cities, cities[1:]):
            if a != b:
                one_way += propagation_delay_by_code_ms(a, b)
        # Metro-area floor so same-city paths do not read as 0 ms.
        one_way += 0.3 * max(1, len(cities) - 1) * 0.2 + 0.4
        return 2.0 * one_way + self._config.host_overhead_ms

    def _path_static(
        self, path: ForwardingPath
    ) -> tuple[ForwardingPath, float, tuple[int, ...]]:
        """(path, base_rtt_ms, crossed_links), memoized by identity."""
        key = id(path)
        entry = self._path_static_memo.get(key)
        if entry is None or entry[0] is not path:
            if len(self._path_static_memo) >= self._PATH_MEMO_MAX:
                self._path_static_memo.clear()
            entry = (path, self.base_rtt_ms(path), path.crossed_links)
            self._path_static_memo[key] = entry
        return entry

    def mathis_ceiling_bps(self, rtt_ms: float, loss: float) -> float:
        """Mathis et al. loss/RTT throughput ceiling."""
        loss = max(loss, BASE_LOSS)
        rtt_s = max(1e-4, rtt_ms / 1000.0)
        return (self._config.mss_bytes * 8.0) / (rtt_s * math.sqrt(2.0 * loss / 3.0))

    def observe(
        self,
        path: ForwardingPath,
        hour: float,
        access_rate_bps: float,
        home_factor: float = 1.0,
        access_loss: float = 0.0,
        with_noise: bool = True,
        probe_key: object = None,
    ) -> PathObservation:
        """Evaluate one transfer.

        ``access_rate_bps`` is the service-plan rate; ``home_factor`` ≤ 1
        models home network / Wi-Fi degradation; ``access_loss`` adds loss
        on the last mile (bad Wi-Fi). ``probe_key``, when a flow-probe
        recorder is active and selects it, attaches a tcp_probe-style
        per-tick series of this transfer to the recorder — synthesized
        from the observation alone, so probing never consumes randomness
        or changes what the transfer observed.
        """
        _, base_ms, crossed = self._path_static(path)
        standing_ms, transient_ms = self._links.path_queue_split_ms(crossed, hour)
        rtt_ms = base_ms + standing_ms + transient_ms
        loss = self._links.path_loss(crossed, hour)
        loss = 1.0 - (1.0 - loss) * (1.0 - max(0.0, access_loss))

        access_ceiling = access_rate_bps * max(0.05, min(1.0, home_factor))
        interconnect_ceiling, bottleneck_link = self._links.path_available_bps(
            crossed, hour
        )
        latency_ceiling = self.mathis_ceiling_bps(rtt_ms, loss)

        throughput = min(access_ceiling, interconnect_ceiling, latency_ceiling)
        kind, bottleneck = classify_bottleneck(
            throughput, access_ceiling, interconnect_ceiling, bottleneck_link
        )

        if with_noise:
            noise = math.exp(self._rng.gauss(0.0, self._config.throughput_noise_sigma))
            throughput = min(throughput * noise, access_rate_bps)
        floored = throughput < 10_000.0
        throughput = max(throughput, 10_000.0)  # floor: tests never report ~0

        retx = min(0.5, loss * (1.0 + (0.2 * self._rng.random() if with_noise else 0.0)))
        packets = throughput * self._config.test_duration_s / (self._config.mss_bytes * 8.0)
        signals = int(round(retx * packets))

        _FLOWS.inc()
        _SIGNALS.inc(signals)
        _RETX_RATE.observe(retx)
        if floored:
            _TIMEOUTS.inc()

        # RTT extremes: standing queues are on the floor from the first
        # round trip; transient queues mostly drain out of the minimum; an
        # access-limited flow then builds its own buffer up to the maximum.
        rtt_min = base_ms + standing_ms + self._config.transient_floor_fraction * transient_ms
        self_buffer = self._config.access_buffer_ms if kind == "access" else 2.0
        rtt_max = rtt_ms + self_buffer

        probe = flowprobe.active()
        if probe is not None and probe_key is not None and probe.wants(probe_key):
            probe.record(
                probe_key,
                throughput_bps=throughput,
                rtt_min_ms=rtt_min,
                rtt_max_ms=rtt_max,
                access_limited=(kind == "access"),
                mss_bytes=self._config.mss_bytes,
                duration_s=self._config.test_duration_s,
                meta={
                    "hour": round(hour, 2),
                    "bottleneck": kind,
                    "loss": round(loss, 5),
                    "rtt_ms": round(rtt_ms, 3),
                },
            )

        return PathObservation(
            throughput_bps=throughput,
            rtt_ms=rtt_ms,
            retx_rate=retx,
            congestion_signals=signals,
            bottleneck_link_id=bottleneck,
            bottleneck_kind=kind,
            rtt_min_ms=rtt_min,
            rtt_max_ms=rtt_max,
        )

    def observe_batch(
        self,
        paths: Sequence[ForwardingPath],
        hours: Sequence[float],
        access_rates_bps: Sequence[float],
        home_factors: Sequence[float],
        access_losses: Sequence[float],
        probe_keys: Sequence[object] | None = None,
        with_noise: Sequence[bool] | None = None,
    ) -> ObservedBatch:
        """Evaluate many transfers at once; byte-identical to ``observe``.

        A batch is a set of parallel lists, entry ``i`` of each holding
        the same-named argument of ``observe`` for transfer ``i``;
        ``probe_keys=None`` probes nothing and ``with_noise=None`` draws
        noise for every transfer. The contract: the returned columns hold
        exactly what ``observe(paths[i], hours[i], access_rates_bps[i],
        home_factors[i], access_losses[i], with_noise[i], probe_keys[i])``
        would return for each ``i`` in turn — same floats to the last bit,
        same noise-stream consumption (gauss then uniform per noisy
        transfer, in list order), same metric totals, and flow-probe
        records emitted in the same order. Every returned value is a
        Python scalar, never a numpy one.

        The batch runs as array passes. Pass 1 evaluates every link
        crossing of the batch at its transfer's hour
        (:meth:`LinkNetwork.state`), then folds each path's crossings one
        position at a time, in path order: survival product, standing and
        transient queue sums, and the strict-``<`` bottleneck, so every
        path accumulates left to right as the scalar loops do. Pass 2
        assembles RTTs, losses and the three ceilings. Pass 3 classifies
        the bottleneck and applies the noise, floors and retransmits; the
        noise is one ``(gauss, random)`` draw per noisy transfer, in
        request order.

        The float rule: numpy runs only correctly rounded elementwise
        operations (``+ - * /``, ``sqrt``, ``%``, comparisons,
        ``minimum``, ``maximum``, ``where``, ``rint``), which equal their
        CPython counterparts bit for bit. Every ``**``, ``exp`` and
        ``log`` stays a CPython float operation, and no ``np.add.reduce``
        or ``reduceat`` runs over a path's links, since their pairwise
        order is not the scalar left-to-right one. On x86-64 (glibc 2.36,
        numpy 2.4), over a million arguments drawn uniformly from
        [-10, 10], ``np.exp`` differs from ``math.exp`` on 46,833,
        ``np.power`` from ``**`` on 52,630, ``np.log`` from ``math.log``
        on 1,020, and ``x * x`` from ``x ** 2`` on 865.
        """
        n = len(paths)
        columns = [hours, access_rates_bps, home_factors, access_losses]
        columns += [c for c in (probe_keys, with_noise) if c is not None]
        if any(len(column) != n for column in columns):
            raise ValueError("observe_batch needs one entry per path in every column")
        if n == 0:
            return ObservedBatch([], [], [], [], [], [], [], [])
        _BATCHES.inc()
        _BATCH_SIZE.observe(float(n))
        block_start = time.perf_counter()

        # Pass 1: the state of every crossed link, folded per path.
        memo = self._path_static_memo
        path_static = self._path_static
        base_l: list[float] = []
        crossed_l: list[tuple[int, ...]] = []
        hits = 0
        for path in paths:
            entry = memo.get(id(path))
            if entry is None or entry[0] is not path:
                entry = path_static(path)
            else:
                hits += 1
            base_l.append(entry[1])
            crossed_l.append(entry[2])
        _PATH_STATIC_HITS.inc(hits)

        lens = np.fromiter(map(len, crossed_l), dtype=np.int64, count=n)
        starts = np.cumsum(lens) - lens
        link_ids = np.fromiter(
            chain.from_iterable(crossed_l), dtype=np.int64, count=int(lens.sum())
        )
        link_loss, delay, standing_queue, available = self._links.state(
            link_ids, np.repeat(np.asarray(hours, dtype=float), lens)
        )
        standing_delay = np.where(standing_queue, delay, 0.0)
        transient_delay = np.where(standing_queue, 0.0, delay)
        survive = np.ones(n)
        standing_a = np.zeros(n)
        transient_a = np.zeros(n)
        inter_a = np.full(n, math.inf)
        bott_a = np.full(n, -1, dtype=np.int64)
        for position in range(int(lens.max())):
            rows = np.flatnonzero(lens > position)
            at = starts[rows] + position
            survive[rows] *= 1.0 - link_loss[at]
            standing_a[rows] += standing_delay[at]
            transient_a[rows] += transient_delay[at]
            candidate = available[at]
            better = candidate < inter_a[rows]
            inter_a[rows] = np.where(better, candidate, inter_a[rows])
            bott_a[rows] = np.where(better, link_ids[at], bott_a[rows])

        # Pass 2: RTTs, losses and the three ceilings, each expression a
        # literal transcription of the scalar path.
        cfg = self._config
        base_a = np.asarray(base_l)
        rtt_a = (base_a + standing_a) + transient_a
        path_loss = 1.0 - survive
        combined_a = 1.0 - (1.0 - path_loss) * (
            1.0 - np.maximum(0.0, np.asarray(access_losses, dtype=float))
        )
        rates_a = np.asarray(access_rates_bps, dtype=float)
        access_a = rates_a * np.maximum(
            0.05, np.minimum(1.0, np.asarray(home_factors, dtype=float))
        )
        loss_m = np.maximum(combined_a, BASE_LOSS)
        rtt_s = np.maximum(1e-4, rtt_a / 1000.0)
        latency_a = (cfg.mss_bytes * 8.0) / (rtt_s * np.sqrt(2.0 * loss_m / 3.0))
        thr_a = np.minimum(np.minimum(access_a, inter_a), latency_a)

        # Pass 3: bottleneck class (BOTTLENECK_PRIORITY on ties), noise,
        # floor, retransmits and RTT extremes.
        kind_a = np.where(thr_a == access_a, 0, np.where(thr_a == inter_a, 1, 2))
        if with_noise is None:
            noisy_rows = np.arange(n)
        else:
            noisy_rows = np.flatnonzero(np.asarray(with_noise, dtype=bool))
        gauss, uniform = self._rng.gauss, self._rng.random
        sigma = cfg.throughput_noise_sigma
        draws = [(gauss(0.0, sigma), uniform()) for _ in range(len(noisy_rows))]
        thr = thr_a.copy()
        retx_factor = np.ones(n)
        if draws:
            noise = np.array([math.exp(g) for g, _ in draws])
            thr[noisy_rows] = np.minimum(thr_a[noisy_rows] * noise, rates_a[noisy_rows])
            retx_factor[noisy_rows] = 1.0 + 0.2 * np.array([u for _, u in draws])
        floored = int(np.count_nonzero(thr < 10_000.0))
        thr = np.maximum(thr, 10_000.0)
        retx = np.minimum(0.5, combined_a * retx_factor)
        packets = thr * cfg.test_duration_s / (cfg.mss_bytes * 8.0)
        signals_l = np.rint(retx * packets).astype(np.int64).tolist()
        rtt_min = (base_a + standing_a) + cfg.transient_floor_fraction * transient_a
        rtt_max = rtt_a + np.where(kind_a == 0, cfg.access_buffer_ms, 2.0)

        kind_l = [BOTTLENECK_PRIORITY[code] for code in kind_a.tolist()]
        out = ObservedBatch(
            thr.tolist(),
            rtt_a.tolist(),
            retx.tolist(),
            signals_l,
            [b if b >= 0 else None for b in np.where(kind_a == 1, bott_a, -1).tolist()],
            kind_l,
            rtt_min.tolist(),
            rtt_max.tolist(),
        )

        probe = flowprobe.active() if probe_keys is not None else None
        if probe is not None:
            loss_l = combined_a.tolist()
            for i, probe_key in enumerate(probe_keys):
                if probe_key is not None and probe.wants(probe_key):
                    probe.record(
                        probe_key,
                        throughput_bps=out.throughput_bps[i],
                        rtt_min_ms=out.rtt_min_ms[i],
                        rtt_max_ms=out.rtt_max_ms[i],
                        access_limited=(kind_l[i] == "access"),
                        mss_bytes=cfg.mss_bytes,
                        duration_s=cfg.test_duration_s,
                        meta={
                            "hour": round(hours[i], 2),
                            "bottleneck": kind_l[i],
                            "loss": round(loss_l[i], 5),
                            "rtt_ms": round(out.rtt_ms[i], 3),
                        },
                    )

        _FLOWS.inc(n)
        _RETX_RATE.observe_many(out.retx_rate)
        _SIGNALS.inc(sum(signals_l))
        if floored:
            _TIMEOUTS.inc(floored)
        _BATCH_WALL.observe(time.perf_counter() - block_start)
        return out
