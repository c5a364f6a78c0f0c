"""Integration tests: RoCE reliable transport between two TNIC devices."""

from collections import deque

import pytest

from repro.core import TnicDevice
from repro.net import ArpServer, Link, NetworkFault
from repro.net.packet import RdmaOpcode
from repro.roce import QueuePair
from repro.sim import DeterministicRng, Simulator

KEY = b"s" * 32
SESSION = 7


def build_pair(fault=None, trusted=True, rng_seed=0):
    """Two devices on one link with a connected QP each way."""
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "mac-a", arp, trusted=trusted)
    b = TnicDevice(sim, 2, "10.0.0.2", "mac-b", arp, trusted=trusted)
    Link(sim, a.mac, b.mac, fault=fault, rng=DeterministicRng(rng_seed, "link"))
    if trusted:
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
    return sim, a, b


def test_trusted_send_delivers_verified_payload():
    sim, a, b = build_pair()
    completion = a.send(1, b"hello-tnic")
    sim.run(completion)
    items = b.drain(2)
    assert [i["payload"] for i in items] == [b"hello-tnic"]
    assert items[0]["message"].device_id == 1


def test_untrusted_send_has_no_attestation():
    sim, a, b = build_pair(trusted=False)
    sim.run(a.send(1, b"raw"))
    items = b.drain(2)
    assert items[0]["payload"] == b"raw"
    assert items[0]["message"] is None


def test_fifo_ordering_many_messages():
    sim, a, b = build_pair()
    payloads = [f"msg-{i}".encode() for i in range(20)]
    completions = [a.send(1, p) for p in payloads]
    for completion in completions:
        sim.run(completion)
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads


def test_poll_reports_completions_in_order():
    sim, a, b = build_pair()
    for i in range(3):
        sim.run(a.send(1, f"m{i}".encode()))
    sim.run()
    entries = b.poll(2, max_entries=10)
    assert [e.msn for e in entries] == [0, 1, 2]
    assert all(e.ok for e in entries)
    assert b.poll(2) == []


def test_retransmission_recovers_from_drops():
    """Reliability: 'TNIC guarantees packet retransmission between two
    correct nodes until their successful reception'."""
    fault = NetworkFault(drop_probability=0.3)
    sim, a, b = build_pair(fault=fault, rng_seed=11)
    payloads = [f"msg-{i}".encode() for i in range(10)]
    completions = [a.send(1, p) for p in payloads]
    for completion in completions:
        sim.run(completion)
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads
    assert a.roce.tables.get(1).retransmissions > 0


def test_send_completions_carry_their_own_msn_under_loss():
    """A cumulative ACK completes every message it covers, each with
    that message's MSN, not the MSN of the message the ACK names; and
    an ACK names its message by its own MSN, re-ACKs of duplicates
    included."""
    fault = NetworkFault(drop_probability=0.02)
    sim, a, b = build_pair(fault=fault, rng_seed=1)
    entries = []
    acks = []
    a.mac.rx_tap = lambda packet: acks.append(packet) if (
        packet.bth.opcode is RdmaOpcode.ACK) else None

    def client():
        in_flight = deque()
        for index in range(300):
            if len(in_flight) == 8:
                entries.append((yield in_flight.popleft()))
            in_flight.append(a.send(1, b"m%d" % index))
        while in_flight:
            entries.append((yield in_flight.popleft()))

    sim.run(sim.process(client()))
    assert a.stats().retransmissions > 0
    assert [entry.msn for entry in entries] == list(range(300))
    # One packet per message here, so a correct ACK has msn == psn.
    assert len(acks) > 300
    assert all(ack.meta["msn"] == ack.bth.psn for ack in acks)


def test_duplicates_are_not_delivered_twice():
    fault = NetworkFault(duplicate_probability=0.5)
    sim, a, b = build_pair(fault=fault, rng_seed=5)
    payloads = [f"msg-{i}".encode() for i in range(10)]
    for p in payloads:
        sim.run(a.send(1, p))
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads


def test_reordering_preserves_fifo_delivery():
    fault = NetworkFault(reorder_probability=0.4, reorder_extra_delay_us=40.0)
    sim, a, b = build_pair(fault=fault, rng_seed=9)
    payloads = [f"msg-{i}".encode() for i in range(12)]
    completions = [a.send(1, p) for p in payloads]
    for completion in completions:
        sim.run(completion)
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads


def test_tampered_packet_rejected_then_recovered():
    """A tampered payload must never reach the application; the genuine
    retransmission must still be delivered."""
    state = {"hit": False}

    def tamper_once(pkt):
        if pkt.payload and not state["hit"] and pkt.trailer is not None:
            state["hit"] = True
            return pkt.with_payload(b"evil-" + pkt.payload)
        return None

    fault = NetworkFault(tamper=tamper_once)
    sim, a, b = build_pair(fault=fault)
    completion = a.send(1, b"secret")
    sim.run(completion)
    sim.run()
    items = b.drain(2)
    assert [i["payload"] for i in items] == [b"secret"]
    assert b.roce.verification_failures >= 1


def test_replayed_packet_rejected():
    """Replay: a stale but well-formed packet redelivered later must not
    be executed twice (non-equivocation)."""
    fault = NetworkFault(replay_probability=0.5)
    sim, a, b = build_pair(fault=fault, rng_seed=21)
    payloads = [f"msg-{i}".encode() for i in range(8)]
    for p in payloads:
        sim.run(a.send(1, p))
    sim.run()
    assert [i["payload"] for i in b.drain(2)] == payloads


def test_bidirectional_traffic():
    sim, a, b = build_pair()
    ca = a.send(1, b"ping")
    cb = b.send(2, b"pong")
    sim.run(ca)
    sim.run(cb)
    sim.run()
    assert b.drain(2)[0]["payload"] == b"ping"
    assert a.drain(1)[0]["payload"] == b"pong"


def test_send_on_unconnected_qp_fails():
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "mac-a", arp)
    b = TnicDevice(sim, 2, "10.0.0.2", "mac-b", arp)
    Link(sim, a.mac, b.mac)
    a.install_session(SESSION, KEY)
    a.create_qp(QueuePair(qp_number=1, session_id=SESSION,
                          local_ip="10.0.0.1", remote_ip="10.0.0.2"))
    completion = a.send(1, b"x")
    with pytest.raises(Exception, match="not connected"):
        sim.run(completion)


def test_rdma_write_places_payload_in_remote_memory():
    class FakeMemory:
        def __init__(self):
            self.writes = []

        def dma_write(self, address, data):
            self.writes.append((address, data))

        def dma_read(self, address, length):
            return b""

    sim, a, b = build_pair()
    memory = FakeMemory()
    b.attach_host_memory(memory)
    completion = a.send(1, b"written", opcode=RdmaOpcode.WRITE,
                        meta={"remote_addr": 0x1000})
    sim.run(completion)
    sim.run()
    b.drain(2)
    assert memory.writes == [(0x1000, b"written")]


def test_local_attest_and_verify():
    sim, a, b = build_pair()

    def run():
        msg = yield a.local_attest(SESSION, b"log-entry")
        ok = yield b.local_verify(SESSION, msg)
        return msg, ok

    msg, ok = sim.run(sim.process(run()))
    assert ok is True
    assert msg.counter == 0


def test_connection_limit_enforced():
    sim = Simulator()
    arp = ArpServer()
    a = TnicDevice(sim, 1, "10.0.0.1", "mac-a", arp)
    a.roce.tables.max_connections = 2
    for qp_num in (1, 2):
        a.create_qp(QueuePair(qp_number=qp_num, session_id=SESSION,
                              local_ip="10.0.0.1", remote_ip="10.0.0.2"))
    with pytest.raises(RuntimeError, match="full"):
        a.create_qp(QueuePair(qp_number=3, session_id=SESSION,
                              local_ip="10.0.0.1", remote_ip="10.0.0.2"))
