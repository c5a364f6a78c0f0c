"""Edge-case tests for the device datapath, DMA and transport limits."""

import random
from collections import deque

import pytest

from repro.api import Cluster, ops
from repro.core import TnicDevice
from repro.core.attestation import UnknownSessionError
from repro.core.device import ReadTimeout
from repro.core.dma import DmaEngine
from repro.net import ArpServer, Link, NetworkFault
from repro.net.packet import RdmaOpcode
from repro.roce import QueuePair
from repro.roce.transport import TransportError
from repro.sim import Simulator
from repro.sim.latency import TNIC_PCIE_TRANSFER_US
from repro.stack.memory import MemoryError_
from repro.stack.rdma_lib import WorkRequest
from repro.telemetry import Telemetry

KEY = b"edge-case-key-0123456789abcdef!!"
SESSION = 3


def test_dma_sync_vs_async_setup_cost():
    sim = Simulator()
    sync = DmaEngine(sim, synchronous=True)
    fast = DmaEngine(sim, synchronous=False)
    assert sync.setup_cost_us() == TNIC_PCIE_TRANSFER_US
    assert fast.setup_cost_us() < sync.setup_cost_us()


def test_dma_transfer_charges_time_and_counts_bytes():
    sim = Simulator()
    dma = DmaEngine(sim)
    done = dma.transfer(48_000)  # 4us at 12000 B/us + setup
    sim.run(done)
    assert sim.now > 4.0
    assert dma.bytes_moved == 48_000
    assert dma.transfers == 1


def test_dma_negative_size_rejected():
    with pytest.raises(ValueError):
        DmaEngine(Simulator()).transfer(-1)


def test_untrusted_device_rejects_trusted_operations():
    sim = Simulator()
    device = TnicDevice(sim, 1, "10.0.0.1", "m-a", ArpServer(), trusted=False)
    with pytest.raises(RuntimeError, match="untrusted"):
        device.install_session(1, KEY)
    with pytest.raises(RuntimeError, match="untrusted"):
        device.local_attest(1, b"x")


def test_transport_gives_up_after_retry_limit():
    """A fully dead link eventually fails the send completion."""
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "m-a", arp)
    b = TnicDevice(sim, 2, "10.0.0.2", "m-b", arp)
    Link(sim, a.mac, b.mac, fault=NetworkFault(drop_probability=1.0))
    a.install_session(SESSION, KEY)
    b.install_session(SESSION, KEY)
    a.roce.max_retries = 3
    a.roce.retransmit_timeout_us = 50.0
    qp = QueuePair(qp_number=1, session_id=SESSION,
                   local_ip="10.0.0.1", remote_ip="10.0.0.2")
    a.create_qp(qp)
    a.connect_qp(1, 2)
    completion = a.send(1, b"into the void")
    with pytest.raises(TransportError, match="retry limit"):
        sim.run(completion)
    assert a.roce.tables.get(1).retransmissions >= 3


def test_read_remote_without_host_memory_times_out():
    """READ against a target with no registered memory gets no response;
    the composed deadline fails the completion instead of parking the
    requester forever (LIV005)."""
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "m-a", arp)
    b = TnicDevice(sim, 2, "10.0.0.2", "m-b", arp)
    Link(sim, a.mac, b.mac)
    a.install_session(SESSION, KEY)
    b.install_session(SESSION, KEY)
    qp_a = QueuePair(qp_number=1, session_id=SESSION,
                     local_ip="10.0.0.1", remote_ip="10.0.0.2")
    qp_b = QueuePair(qp_number=2, session_id=SESSION,
                     local_ip="10.0.0.2", remote_ip="10.0.0.1")
    a.create_qp(qp_a)
    b.create_qp(qp_b)
    a.connect_qp(1, 2)
    b.connect_qp(2, 1)
    result = a.read_remote(1, 0x1000, 8)
    sim.run(until=10_000.0)
    assert not result.triggered  # still pending inside the deadline
    with pytest.raises(ReadTimeout, match="no response"):
        sim.run(result)
    assert not a._pending_reads  # the expiry cleaned up the pending map


def test_duplicate_qp_rejected():
    sim = Simulator()
    device = TnicDevice(sim, 1, "10.0.0.1", "m-a", ArpServer())
    qp = QueuePair(qp_number=1, session_id=SESSION,
                   local_ip="10.0.0.1", remote_ip="10.0.0.2")
    device.create_qp(qp)
    with pytest.raises(ValueError, match="already created"):
        device.create_qp(qp)


def test_queue_pair_validation():
    with pytest.raises(ValueError):
        QueuePair(qp_number=-1, session_id=1,
                  local_ip="10.0.0.1", remote_ip="10.0.0.2")
    with pytest.raises(ValueError):
        QueuePair(qp_number=1, session_id=-1,
                  local_ip="10.0.0.1", remote_ip="10.0.0.2")
    with pytest.raises(ValueError):
        QueuePair(qp_number=1, session_id=1,
                  local_ip="10.0.0.1", remote_ip="10.0.0.1")
    qp = QueuePair(qp_number=1, session_id=1,
                   local_ip="10.0.0.1", remote_ip="10.0.0.2")
    assert not qp.connected()
    bound = qp.with_remote_qp(5)
    assert bound.connected()
    with pytest.raises(ValueError):
        qp.with_remote_qp(-2)


def test_poll_respects_max_entries():
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "m-a", arp)
    b = TnicDevice(sim, 2, "10.0.0.2", "m-b", arp)
    Link(sim, a.mac, b.mac)
    a.install_session(SESSION, KEY)
    b.install_session(SESSION, KEY)
    qp_a = QueuePair(qp_number=1, session_id=SESSION,
                     local_ip="10.0.0.1", remote_ip="10.0.0.2")
    qp_b = QueuePair(qp_number=2, session_id=SESSION,
                     local_ip="10.0.0.2", remote_ip="10.0.0.1")
    a.create_qp(qp_a)
    b.create_qp(qp_b)
    a.connect_qp(1, 2)
    b.connect_qp(2, 1)
    for i in range(5):
        sim.run(a.send(1, f"m{i}".encode()))
    sim.run()
    first = b.poll(2, max_entries=2)
    rest = b.poll(2, max_entries=10)
    assert len(first) == 2
    assert len(rest) == 3


def test_device_stats_snapshot():
    sim, a, b = None, None, None
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "m-a", arp)
    b = TnicDevice(sim, 2, "10.0.0.2", "m-b", arp)
    Link(sim, a.mac, b.mac)
    a.install_session(SESSION, KEY)
    b.install_session(SESSION, KEY)
    qp_a = QueuePair(qp_number=1, session_id=SESSION,
                     local_ip="10.0.0.1", remote_ip="10.0.0.2")
    qp_b = QueuePair(qp_number=2, session_id=SESSION,
                     local_ip="10.0.0.2", remote_ip="10.0.0.1")
    a.create_qp(qp_a)
    b.create_qp(qp_b)
    a.connect_qp(1, 2)
    b.connect_qp(2, 1)
    for i in range(3):
        sim.run(a.send(1, f"m{i}".encode()))
    sim.run()
    b.drain(2)
    stats_a = a.stats()
    stats_b = b.stats()
    assert stats_a.attestations == 3
    assert stats_b.verifications == 3
    assert stats_b.rejections == 0
    assert stats_a.tx_packets >= 3
    assert stats_a.queue_pairs == 1
    assert stats_a.dma_bytes > 0
    assert "device 1" in stats_a.describe()


def test_untrusted_device_stats_zero_attest():
    sim = Simulator()
    device = TnicDevice(sim, 9, "10.0.0.9", "m-x", ArpServer(), trusted=False)
    stats = device.stats()
    assert stats.attestations == 0
    assert stats.verifications == 0


# ----------------------------------------------------------------------
# Failure paths of the process-free datapath (Stages machines)
# ----------------------------------------------------------------------

def _cluster_with_stray_qp():
    """A connected a->b pair plus a second, never-connected QP on a
    (with its own session, so its attestations leave the pair's send
    counter alone)."""
    cluster = Cluster(["a", "b"])
    conn, _peer = cluster.connect("a", "b")
    node = cluster["a"]
    session_id, key = cluster.sessions.new_session()
    node.device.install_session(session_id, key)
    stray = node.ibv_qp_conn(cluster["b"].ip, session_id)
    return cluster, conn, stray


def _post(conn, qp_number, payload, address=None):
    request = WorkRequest(
        opcode=RdmaOpcode.SEND,
        qp_number=qp_number,
        local_addr=conn.stage(payload) if address is None else address,
        length=len(payload),
    )
    return conn.node.rdma.post(request)


def test_post_on_unconnected_qp_fails_and_frees_the_reg_page():
    cluster, conn, stray = _cluster_with_stray_qp()
    sim = cluster.sim
    hub = Telemetry.attach(sim)
    failed = _post(conn, stray.qp_number, b"nowhere")
    with pytest.raises(TransportError, match="not connected"):
        sim.run(failed)
    assert not conn.node.rdma.process.contended
    tx = hub.spans.spans("tnic.tx")
    assert [span.labels["status"] for span in tx] == ["error"]
    # The next post on the connected QP still goes through.
    entry = sim.run(ops.auth_send(conn, b"after"))
    assert entry.ok
    assert ops.recv(cluster["b"].connections[0])["payload"] == b"after"


def test_post_error_while_holding_the_lock_releases_it():
    cluster, conn, _stray = _cluster_with_stray_qp()
    sim = cluster.sim
    hub = Telemetry.attach(sim)
    # An address outside registered ibv memory fails while the REG page
    # is held: the post must fail, end its span and release the page.
    failed = _post(conn, conn.qp_number, b"x", address=0x10)
    with pytest.raises(MemoryError_):
        sim.run(failed)
    assert not conn.node.rdma.process.contended
    assert [span.labels["status"] for span in hub.spans.spans("tnic.post")] \
        == ["error"]
    assert sim.run(_post(conn, conn.qp_number, b"next")).ok


def test_local_attest_on_unknown_session_fails_done():
    sim = Simulator()
    device = TnicDevice(sim, 1, "10.0.0.1", "m-a", ArpServer())
    with pytest.raises(UnknownSessionError):
        sim.run(device.local_attest(404, b"payload"))


def test_local_verify_on_unknown_session_fails_done():
    sim = Simulator()
    device = TnicDevice(sim, 1, "10.0.0.1", "m-a", ArpServer())
    device.install_session(SESSION, KEY)
    message = sim.run(device.local_attest(SESSION, b"payload"))
    assert sim.run(device.local_verify(SESSION, message)) is True
    with pytest.raises(UnknownSessionError):
        sim.run(device.local_verify(404, message))


def test_untrusted_device_sends_without_attesting():
    cluster = Cluster(["a", "b"], trusted=False)
    conn, peer = cluster.connect("a", "b")
    hub = Telemetry.attach(cluster.sim)
    assert cluster.sim.run(ops.auth_send(conn, b"plain")).ok
    item = ops.recv(peer)
    assert item["payload"] == b"plain" and item["message"] is None
    stages = sorted(span.name for span in hub.spans.spans()
                    if span.name in ("tnic.dma", "attest.hmac", "roce.tx"))
    assert stages == ["roce.tx", "tnic.dma"]
    assert cluster["a"].device.stats().attestations == 0


class _EventCounter:
    """``Simulator.profiler`` hook that only counts processed events."""

    events = 0

    @staticmethod
    def clock() -> int:
        return 0

    def account(self, event, callbacks, when, elapsed) -> None:
        self.events += 1


#: Events per ``auth_send`` measured on the seeded run below: one
#: scheduled completion per DMA and HMAC occupancy and no process per
#: post, send or occupancy (a process per stage costs 30.41).
EVENTS_PER_SEND_CEILING = 18.41


def test_events_per_auth_send_stay_at_the_process_free_count():
    messages, in_flight = 200, 8
    rng = random.Random("events-per-send")
    payloads = [rng.randbytes(rng.choice((64, 256, 1024, 4096)))
                for _ in range(messages)]
    cluster = Cluster(["a", "b"], fault=NetworkFault(drop_probability=0.01),
                      seed=3)
    sender, receiver = cluster.connect("a", "b")
    sim = cluster.sim
    counter = _EventCounter()
    sim.profiler = counter

    def client():
        pending = deque()
        for payload in payloads:
            if len(pending) == in_flight:
                yield pending.popleft()
            pending.append(ops.auth_send(sender, payload))
        while pending:
            yield pending.popleft()

    sim.run(sim.process(client()))
    assert [ops.recv(receiver)["payload"] for _ in payloads] == payloads
    assert counter.events / messages <= EVENTS_PER_SEND_CEILING
