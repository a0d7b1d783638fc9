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
from typing import NamedTuple, Sequence

import numpy as np

from repro.net.batch import LinkTableSet
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
        self._tables = LinkTableSet(links)
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

    def _path_static(self, path: ForwardingPath) -> tuple[float, tuple[int, ...]]:
        """(base_rtt_ms, crossed_links) for a path, memoized by identity."""
        key = id(path)
        entry = self._path_static_memo.get(key)
        if entry is not None and entry[0] is path:
            _PATH_STATIC_HITS.inc()
            return entry[1], entry[2]
        base_ms = self.base_rtt_ms(path)
        crossed = path.crossed_links
        if len(self._path_static_memo) >= self._PATH_MEMO_MAX:
            self._path_static_memo.clear()
        self._path_static_memo[key] = (path, base_ms, crossed)
        return base_ms, crossed

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
        base_ms, crossed = self._path_static(path)
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
        records emitted in the same order. Link state comes from the
        model's :class:`~repro.net.batch.LinkTableSet`, which runs the
        identical scalar per-utilization functions once per (link group,
        exact hour) instead of four times per transfer; the wide middle of
        the computation (loss combining, RTT assembly, the three ceilings)
        is vectorized with numpy element-wise ops that are correctly
        rounded and therefore bit-equal to the scalar expressions they
        replace. Every returned value is a Python scalar, never a numpy
        one.
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

        cell = self._tables.cell
        path_static = self._path_static
        base_l = [0.0] * n
        standing_l = [0.0] * n
        transient_l = [0.0] * n
        loss_l = [0.0] * n
        inter_l = [0.0] * n
        bott_l: list[int | None] = [None] * n

        # Pass 1 (scalar): per-path link aggregation, replicating the
        # exact accumulation order of LinkNetwork.path_loss /
        # path_queue_split_ms / path_available_bps over cached cells.
        for i, (path, hour) in enumerate(zip(paths, hours)):
            base_ms, crossed = path_static(path)
            standing = 0.0
            transient = 0.0
            survive = 1.0
            best = math.inf
            bottleneck: int | None = None
            for link_id in crossed:
                link_loss, delay, has_standing_queue, available = cell(link_id, hour)
                if has_standing_queue:
                    standing += delay
                else:
                    transient += delay
                survive *= 1.0 - link_loss
                if available < best:
                    best = available
                    bottleneck = link_id
            base_l[i] = base_ms
            standing_l[i] = standing
            transient_l[i] = transient
            loss_l[i] = 1.0 - survive
            inter_l[i] = best
            bott_l[i] = bottleneck

        # Pass 2 (vector): element-wise ceilings. Every expression is a
        # literal transcription of the scalar path — order of operations
        # included — over ops numpy rounds identically to CPython.
        cfg = self._config
        base_a = np.asarray(base_l)
        standing_a = np.asarray(standing_l)
        rtt_a = (base_a + standing_a) + np.asarray(transient_l)
        combined_a = 1.0 - (1.0 - np.asarray(loss_l)) * (
            1.0 - np.maximum(0.0, np.asarray(access_losses, dtype=float))
        )
        access_a = np.asarray(access_rates_bps, dtype=float) * np.maximum(
            0.05, np.minimum(1.0, np.asarray(home_factors, dtype=float))
        )
        loss_m = np.maximum(combined_a, BASE_LOSS)
        rtt_s = np.maximum(1e-4, rtt_a / 1000.0)
        latency_a = (cfg.mss_bytes * 8.0) / (rtt_s * np.sqrt(2.0 * loss_m / 3.0))
        thr_a = np.minimum(np.minimum(access_a, np.asarray(inter_l)), latency_a)

        rtt_l = rtt_a.tolist()
        combined_l = combined_a.tolist()
        access_cl = access_a.tolist()
        thr_l = thr_a.tolist()

        # Pass 3 (scalar, in request order): classification, the noise
        # stream, per-record metrics, probes, and the output columns.
        rng = self._rng
        sigma = cfg.throughput_noise_sigma
        duration = cfg.test_duration_s
        mss_bits = cfg.mss_bytes * 8.0
        tff = cfg.transient_floor_fraction
        probe = flowprobe.active() if probe_keys is not None else None
        noisy_l = with_noise if with_noise is not None else [True] * n
        total_signals = 0
        floored_count = 0
        out = ObservedBatch([], rtt_l, [], [], [], [], [], [])
        (thr_out, _, retx_out, signals_out, bott_out, kind_out,
         rtt_min_out, rtt_max_out) = out
        for i, noisy in enumerate(noisy_l):
            throughput = thr_l[i]
            loss = combined_l[i]
            rtt_ms = rtt_l[i]
            kind, bottleneck = classify_bottleneck(
                throughput, access_cl[i], inter_l[i], bott_l[i]
            )
            if noisy:
                noise = math.exp(rng.gauss(0.0, sigma))
                throughput = min(throughput * noise, access_rates_bps[i])
            floored = throughput < 10_000.0
            throughput = max(throughput, 10_000.0)
            retx = min(0.5, loss * (1.0 + (0.2 * rng.random() if noisy else 0.0)))
            packets = throughput * duration / mss_bits
            signals = int(round(retx * packets))
            total_signals += signals
            if floored:
                floored_count += 1

            rtt_min = base_l[i] + standing_l[i] + tff * transient_l[i]
            self_buffer = cfg.access_buffer_ms if kind == "access" else 2.0
            rtt_max = rtt_ms + self_buffer

            if probe is not None:
                probe_key = probe_keys[i]
                if probe_key is not None and probe.wants(probe_key):
                    probe.record(
                        probe_key,
                        throughput_bps=throughput,
                        rtt_min_ms=rtt_min,
                        rtt_max_ms=rtt_max,
                        access_limited=(kind == "access"),
                        mss_bytes=cfg.mss_bytes,
                        duration_s=cfg.test_duration_s,
                        meta={
                            "hour": round(hours[i], 2),
                            "bottleneck": kind,
                            "loss": round(loss, 5),
                            "rtt_ms": round(rtt_ms, 3),
                        },
                    )

            thr_out.append(throughput)
            retx_out.append(retx)
            signals_out.append(signals)
            bott_out.append(bottleneck)
            kind_out.append(kind)
            rtt_min_out.append(rtt_min)
            rtt_max_out.append(rtt_max)

        _FLOWS.inc(n)
        _RETX_RATE.observe_many(retx_out)
        _SIGNALS.inc(total_signals)
        if floored_count:
            _TIMEOUTS.inc(floored_count)
        _BATCH_WALL.observe(time.perf_counter() - block_start)
        return out
