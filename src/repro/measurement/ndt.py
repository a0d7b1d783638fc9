"""NDT test execution, a block of tests at a time.

One NDT run measures download throughput from a measurement server to a
client over the server→client forwarding path, through the TCP model,
and, when the client measures upstream, upload throughput over the
client→server path. The runner does not decide *when* tests happen or
*which* server is used — that is platform policy
(:mod:`repro.platforms.mlab`); it only executes tests and emits records.

A block of tests travels as parallel lists (:class:`NDTBlock`), not as
per-test objects. :meth:`NDTRunner.plan` routes every test's download and
upload legs in block order, assigns test ids, and lays out the TCP
transfers as ``observe_batch``'s argument lists; the caller evaluates
them with :meth:`~repro.net.tcp.TCPModel.observe_batch`, and
:meth:`NDTRunner.complete` turns the observed columns into one
:class:`NDTRecord` per routed test. Routing consumes no randomness, so
planning a whole block ahead of evaluation leaves every RNG stream's
draw order what a test-at-a-time loop would produce.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.measurement.records import NDTRecord
from repro.net.tcp import ObservedBatch
from repro.routing.forwarding import Forwarder, ForwardingPath


class NDTBlock(NamedTuple):
    """A block of NDT tests to run: entry ``i`` of every list is test ``i``.

    ``clients`` carry ``ip``, ``asn``, ``org_name`` and ``city`` (a
    :class:`~repro.platforms.clients.Client`); ``servers`` carry
    ``server_id``, ``ip``, ``asn`` and ``city`` (an
    :class:`~repro.platforms.mlab.MLabServer`). The last four lists are
    the test's drawn conditions; an upload rate of 0 skips the upstream
    measurement.
    """

    timestamps_s: list[float]
    hours: list[float]
    clients: list
    servers: list
    plan_rates_bps: list[float]
    upload_rates_bps: list[float]
    home_factors: list[float]
    access_losses: list[float]


class PlannedBlock(NamedTuple):
    """The tests of a :class:`NDTBlock` that routed, and their transfers.

    ``rows[j]`` is the block index of routed test ``j``; ``test_ids``
    and ``uploads`` (whether it has an upload transfer) run beside it.
    ``requests`` holds the positional arguments of ``observe_batch``:
    each routed test's download transfer, followed by its upload transfer
    when it has one — the order their noise must be drawn in.
    """

    block: NDTBlock
    rows: list[int]
    test_ids: list[int]
    uploads: list[bool]
    requests: tuple[list, ...]


class NDTRunner:
    """Routes blocks of NDT tests and turns their observed transfers into
    records; the test ids it hands out run on across blocks."""

    def __init__(self, forwarder: Forwarder) -> None:
        self._forwarder = forwarder
        self._next_test_id = 1

    def plan(self, block: NDTBlock) -> PlannedBlock:
        """Route a block's tests in block order and claim their ids.

        A test whose download path does not route is dropped and consumes
        no test id. A test whose upload path does not route keeps its
        download and reports ``upload_bps == 0``.
        """
        route_flow = self._forwarder.route_flow
        rows: list[int] = []
        test_ids: list[int] = []
        uploads: list[bool] = []
        req_paths: list[ForwardingPath] = []
        req_hours: list[float] = []
        req_rates: list[float] = []
        req_homes: list[float] = []
        req_losses: list[float] = []
        test_id = self._next_test_id
        for row, (hour, client, server, plan_rate, upload_rate, home, loss) in enumerate(
            zip(block.hours, block.clients, block.servers, block.plan_rates_bps,
                block.upload_rates_bps, block.home_factors, block.access_losses)
        ):
            path = route_flow(
                server.asn, server.city, client.asn, client.city,
                ("ndt", test_id, server.server_id, client.ip),
            )
            if path is None:
                continue
            rows.append(row)
            test_ids.append(test_id)
            req_paths.append(path)
            req_hours.append(hour)
            req_rates.append(plan_rate)
            req_homes.append(home)
            req_losses.append(loss)
            upstream = None
            if upload_rate > 0:
                # Upstream phase: client → server over the *client's* best
                # path (forward/reverse routes can differ — §5.1's
                # asymmetry caveat).
                upstream = route_flow(
                    client.asn, client.city, server.asn, server.city,
                    ("ndt-up", test_id, server.server_id, client.ip),
                )
                if upstream is not None:
                    req_paths.append(upstream)
                    req_hours.append(hour)
                    req_rates.append(upload_rate)
                    req_homes.append(home)
                    req_losses.append(loss)
            uploads.append(upstream is not None)
            test_id += 1
        self._next_test_id = test_id
        requests = (req_paths, req_hours, req_rates, req_homes, req_losses)
        return PlannedBlock(block, rows, test_ids, uploads, requests)

    def complete(self, planned: PlannedBlock, observed: ObservedBatch) -> list[NDTRecord]:
        """One record per routed test, from ``observe_batch``'s columns."""
        block = planned.block
        timestamps = block.timestamps_s
        hours = block.hours
        clients = block.clients
        servers = block.servers
        paths = planned.requests[0]
        (throughput, rtt, retx, signals, bottleneck_link, bottleneck_kind,
         rtt_min, rtt_max) = observed
        records: list[NDTRecord] = []
        slot = 0
        for row, test_id, has_upload in zip(planned.rows, planned.test_ids, planned.uploads):
            client = clients[row]
            server = servers[row]
            # The constructor, positionally in NDTRecord's field order
            # (keywords cost a third more per call).
            records.append(NDTRecord(
                test_id,
                timestamps[row],  # timestamp_s
                hours[row],  # local_hour
                client.ip,
                server.server_id,
                server.ip,
                server.asn,
                server.city,
                throughput[slot],  # download_bps
                rtt[slot],
                retx[slot],
                signals[slot],
                client.asn,  # gt_client_asn
                client.org_name,  # gt_client_org
                paths[slot].crossed_links,  # gt_crossed_links
                bottleneck_link[slot],
                bottleneck_kind[slot],
                rtt_min[slot],
                rtt_max[slot],
                throughput[slot + 1] if has_upload else 0.0,  # upload_bps
            ))
            slot += 2 if has_upload else 1
        return records
