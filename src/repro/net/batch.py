"""Per-(link group, hour) link tables for batched flow evaluation.

The scalar hot path re-evaluates every crossed link's
:class:`~repro.net.diurnal.DiurnalProfile` four times per transfer (loss,
queue split, available bandwidth each re-derive utilization). At campaign
scale that is hundreds of thousands of pure-Python profile evaluations.
:meth:`repro.net.tcp.TCPModel.observe_batch` instead reads link state
from a :class:`LinkTableSet`: a lazy table of per-(link group, hour)
link state. Hours are **not quantized**: a cell is evaluated exactly, at
the precise hour a batch touches, using the very same scalar functions
(:func:`repro.net.link.loss_rate_at` and friends) the scalar path runs.
Parallel links in one group share a profile and capacity, so they share
cells; the four derived quantities come from a single utilization
evaluation instead of four.

A batch travels as parallel lists, one entry per transfer (paths, hours,
access rates, home factors, access losses), not as per-transfer objects;
``observe_batch`` evaluates them in list order, which is the order the
noise stream is drawn in.

Byte-identity note: the floating-point surface of the batch engine is
deliberately tiny. Every transcendental (``exp`` inside the diurnal
bumps) runs through the same scalar code as ``TCPModel.observe``;
``numpy`` is only trusted with element-wise ``+ - * / sqrt min max rint``
— operations that are correctly rounded and therefore bit-equal to their
CPython counterparts. Empirically (and perhaps surprisingly) that
restriction matters: ``np.exp`` and ``ufunc.reduceat`` do *not* match
``math.exp`` / left-to-right reduction in the last ulp.
"""

from __future__ import annotations

from math import exp

from repro.net.link import (
    LinkNetwork,
    available_bps_at,
    loss_rate_at,
    queue_delay_ms_at,
)
from repro.obs import metrics

_CELLS = metrics.counter("tcp.batch.link_cells_materialized")
_CELL_HITS = metrics.counter("tcp.batch.link_cell_hits")
_CELLS_HELD = metrics.gauge("tcp.batch.link_cells_held")

#: One materialized cell: (loss_rate, queue_delay_ms, standing?, available_bps).
#: ``standing`` is the saturated-link flag (offered load >= capacity) that
#: routes the cell's queueing delay into the standing vs transient split.
Cell = tuple[float, float, bool, float]


class LinkTableSet:
    """Lazy per-(link group, hour) tables of diurnal link state.

    ``cell(link_id, hour)`` materializes at most one cell per (profile,
    capacity) group and exact hour, however many parallel links share the
    group and however many transfers touch it. Cells are cached for the
    lifetime of the table set (bounded by ``max_cells``), so a campaign's
    download and upload legs — and repeated sweep hours — reuse them.
    """

    def __init__(self, links: LinkNetwork, max_cells: int = 1_000_000) -> None:
        self._links = links
        self._max_cells = max_cells
        #: link_id -> dense group token (parallel links share a token).
        self._token_of: dict[int, int] = {}
        #: (id(profile), capacity) -> token; profiles are kept alive by
        #: ``_group_params`` so the ids cannot be recycled underneath us.
        self._group_index: dict[tuple[int, float], int] = {}
        self._group_params: list = []
        #: Per-group flattened constants (capacity + the diurnal profile's
        #: seven parameters) so a cell miss evaluates the profile without
        #: attribute lookups or method dispatch.
        self._group_consts: list[tuple[float, ...]] = []
        self._cells: dict[tuple[int, float], Cell] = {}

    def groups(self) -> int:
        """Distinct (profile, capacity) groups seen so far."""
        return len(self._group_params)

    def cells(self) -> int:
        """Materialized cells currently held."""
        return len(self._cells)

    def _token(self, link_id: int) -> int:
        token = self._token_of.get(link_id)
        if token is None:
            params = self._links.params(link_id)
            group_key = (id(params.profile), params.capacity_bps)
            token = self._group_index.get(group_key)
            if token is None:
                token = len(self._group_params)
                self._group_index[group_key] = token
                self._group_params.append(params)
                profile = params.profile
                self._group_consts.append((
                    params.capacity_bps,
                    profile.base,
                    profile.evening_amplitude,
                    profile.evening_peak_hour,
                    profile.evening_width_hours,
                    profile.day_amplitude,
                    profile.day_peak_hour,
                    profile.day_width_hours,
                ))
            self._token_of[link_id] = token
        return token

    def cell(self, link_id: int, hour: float) -> Cell:
        """Link state for one link at one exact (unquantized) hour."""
        key = (self._token(link_id), hour)
        cell = self._cells.get(key)
        if cell is None:
            # Inlined DiurnalProfile.value + _wrapped_gaussian: identical
            # expressions and accumulation order (so identical bits), minus
            # the method dispatch. An amplitude of exactly 0.0 skips its
            # exp(): the skipped term adds 0.0, and the only bit pattern
            # that could differ (-0.0 vs +0.0 in the running total) is
            # erased by the final clamp either way.
            (capacity, base, ev_amp, ev_peak, ev_w, day_amp, day_peak, day_w) = (
                self._group_consts[key[0]]
            )
            h = hour % 24.0
            total = base
            if ev_amp != 0.0:
                d = abs(h - ev_peak) % 24.0
                rest = 24.0 - d
                if rest < d:
                    d = rest
                total = total + ev_amp * exp(-0.5 * (d / ev_w) ** 2)
            if day_amp != 0.0:
                d = abs(h - day_peak) % 24.0
                rest = 24.0 - d
                if rest < d:
                    d = rest
                total = total + day_amp * exp(-0.5 * (d / day_w) ** 2)
            u = total if total > 0.0 else 0.0
            cell = (
                loss_rate_at(u),
                queue_delay_ms_at(u),
                u >= 1.0,
                available_bps_at(u, capacity),
            )
            if len(self._cells) >= self._max_cells:
                self._cells.clear()
            self._cells[key] = cell
            _CELLS.inc()
            _CELLS_HELD.set(len(self._cells))
        else:
            _CELL_HITS.inc()
        return cell
