"""Traceroute corpora as deduplicated hop columns.

MAP-IT ownership and bdrmap's border walk are functions of the distinct
hop sequences of a corpus and how often each occurs, and corpora repeat
themselves: a campaign's 57,166 matched traces hold 7,242 distinct
sequences. A :class:`TraceCorpus` keeps each distinct sequence once, in
first-seen order — a duplicate never shows an adjacency first, so "first
seen wins" rules read the same on the columns as on the raw corpus.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

#: Hop address of a non-response.
NO_REPLY = -1


class TraceCorpus:
    """One traceroute corpus as deduplicated hop columns.

    * ``hops`` — the distinct sequences back to back as int64 addresses,
      ``NO_REPLY`` for a silent hop; sequence ``k`` is
      ``hops[offsets[k]:offsets[k + 1]]``;
    * ``counts`` — input traces per distinct sequence; ``inverse`` — the
      distinct sequence of each input trace;
    * ``addresses`` — the sorted distinct responding addresses;
      ``hop_index`` — each hop's position among them (−1 when silent).
    """

    def __init__(self, hops: np.ndarray, offsets: np.ndarray, inverse: np.ndarray) -> None:
        self.hops = hops
        self.offsets = offsets
        self.inverse = inverse
        self.counts = np.bincount(inverse, minlength=len(offsets) - 1)
        replied = hops != NO_REPLY
        self.addresses, index = np.unique(hops[replied], return_inverse=True)
        self.hop_index = np.full(len(hops), -1, dtype=np.int64)
        self.hop_index[replied] = index
        self._ixp: tuple[object, np.ndarray] | None = None

    @classmethod
    def of(cls, traces: Iterable[Sequence[int | None]]) -> TraceCorpus:
        """Columns of ``traces`` (hop lists, ``None`` for a non-response)."""
        seen: dict[tuple[int | None, ...], int] = {}
        setdefault = seen.setdefault
        inverse = np.fromiter(
            (setdefault(t if type(t) is tuple else tuple(t), len(seen)) for t in traces),
            dtype=np.int64,
        )
        offsets = np.zeros(len(seen) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, seen), dtype=np.int64, count=len(seen)), out=offsets[1:])
        hops = np.fromiter(
            (NO_REPLY if ip is None else ip for ip in chain.from_iterable(seen)),
            dtype=np.int64,
            count=offsets[-1],
        )
        return cls(hops, offsets, inverse)

    def __len__(self) -> int:
        """Input traces, duplicates included."""
        return len(self.inverse)

    def sequence_of_hops(self) -> np.ndarray:
        """Distinct-sequence index of every hop."""
        return np.repeat(np.arange(len(self.counts)), np.diff(self.offsets))

    def ixp_mask(self, oracle) -> np.ndarray:
        """The oracle's IXP verdict per distinct address, read once per
        corpus and oracle."""
        if self._ixp is None or self._ixp[0] is not oracle:
            flags = map(oracle.is_ixp, self.addresses.tolist())
            self._ixp = (oracle, np.fromiter(flags, dtype=bool, count=len(self.addresses)))
        return self._ixp[1]
