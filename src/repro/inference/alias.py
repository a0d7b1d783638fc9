"""Simulated alias resolution.

bdrmap's collection phase resolves which interface addresses sit on the
same physical router (MIDAR/iffinder-style probing from the VP). We model
that *measurement tool*: it groups the observed interfaces of each true
router with a configurable recall — a router whose probing fails splits
into two inferred "routers".

Like the traceroute engine, this module may read generator ground truth
(it simulates an instrument operating on the real network); inference
algorithms only ever see its *output*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.net.compiled import compile_world
from repro.topology.internet import Internet
from repro.util.rng import derive_random


@dataclass(frozen=True)
class AliasResolution:
    """Result: every input address mapped to an inferred router id."""

    group_of: dict[int, int]

    def group(self, ip: int) -> int:
        """Inferred router id of an address (addresses never probed get
        singleton groups keyed by their own value, negated to avoid
        clashing with real group ids)."""
        return self.group_of.get(ip, -ip)


class AliasResolver:
    """Alias resolution with imperfect recall.

    ``recall`` is the probability that a true router's observed interfaces
    are fully merged; failures split the interface set into two inferred
    routers. The true router of each address comes from the compiled
    world's interface table (``iface_ips``/``iface_router``).
    """

    def __init__(self, internet: Internet, recall: float = 0.90, seed: int = 7) -> None:
        if not 0.0 <= recall <= 1.0:
            raise ValueError(f"recall out of range: {recall}")
        self._internet = internet
        self._recall = recall
        self._seed = seed

    def resolve(self, ips: Iterable[int] | np.ndarray) -> AliasResolution:
        """Group ids for ``ips``.

        Routers are taken in router-id order and their observed addresses
        in address order. Each router with at least two observed
        addresses draws once to decide whether probing merged them;
        on failure a second draw picks the split point, and the two parts
        take consecutive group ids. Addresses on no router come last, one
        group each, in address order.
        """
        rng = derive_random(self._seed, "alias")
        world = compile_world(self._internet)
        addresses = np.unique(
            np.asarray(ips if isinstance(ips, np.ndarray) else list(ips), dtype=np.int64)
        )
        slot = np.searchsorted(world.iface_ips, addresses)
        known = slot < len(world.iface_ips)
        known[known] = world.iface_ips[slot[known]] == addresses[known]

        routers = world.iface_router[slot[known]]
        order = np.argsort(routers, kind="stable")
        probed = addresses[known][order]
        routers = routers[order]
        starts = np.flatnonzero(np.diff(routers, prepend=routers[:1] - 1))
        sizes = np.diff(starts, append=len(routers))
        split = np.zeros(len(starts), dtype=np.int64)
        for index, size in zip(np.flatnonzero(sizes > 1).tolist(), sizes[sizes > 1].tolist()):
            if rng.random() >= self._recall:
                split[index] = rng.randint(1, size - 1)

        # Group ids: one per router, two per split router, consecutive.
        spans = 1 + (split > 0)
        first_group = np.cumsum(spans) - spans + 1
        router_of = np.repeat(np.arange(len(starts)), sizes)
        rank = np.arange(len(probed)) - starts[router_of]
        cut = split[router_of]
        groups = first_group[router_of] + ((cut > 0) & (rank >= cut))

        group_of = dict(zip(probed.tolist(), groups.tolist()))
        next_group = 1 + int(spans.sum())
        unknown = addresses[~known].tolist()
        group_of.update(zip(unknown, range(next_group, next_group + len(unknown))))
        return AliasResolution(group_of=group_of)
