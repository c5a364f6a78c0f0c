"""The TNIC device: Figure 2's datapath wired together.

TX: the Req handler accepts a work request from the host, the DMA
engine fetches the payload from host (ibv) memory, the attestation
kernel produces α inline, and the RoCE kernel emits the packet through
the 100Gb MAC.

RX: the RoCE kernel enforces ordering and reliability, the attestation
kernel verifies α, and only then is the message DMA'd into host memory
and a completion made visible to ``poll()``.

The device also services one-sided ``rem_read``/``rem_write``: a WRITE
carries a remote ibv-memory address and is placed there by the *remote*
device after verification; a READ is a request/response exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Protocol

from repro.core.attestation import AttestationKernel, AttestedMessage
from repro.core.dma import DmaEngine
from repro.net.arp import ArpServer
from repro.net.mac import EthernetMac
from repro.net.packet import RdmaOpcode
from repro.roce.queue_pair import QueuePair
from repro.roce.state_tables import CompletionEntry
from repro.roce.transport import RoceKernel
from repro.sim.instrument import count, span_begin, trace_extract, trace_inject
from repro.sim.process import Stages

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.clock import Simulator
    from repro.sim.events import Event


#: Stages of the device's request pipelines (``Stages.step`` values).
_DMA, _ATTEST, _ROCE = 1, 2, 3


class ReadTimeout(Exception):
    """A one-sided READ got no response within its deadline.

    The target may hold no registered memory, or the response was lost
    past the transport's retry budget; either way the requester must not
    wait forever (LIV005 — every network-facing completion composes a
    deadline)."""


class HostMemoryPort(Protocol):
    """What the device needs from host memory (implemented by IbvMemory)."""

    def dma_write(self, address: int, data: bytes) -> None: ...

    def dma_read(self, address: int, length: int) -> bytes: ...


class TnicDevice:
    """One TNIC SmartNIC: attestation kernel + RoCE kernel + MAC."""

    def __init__(
        self,
        sim: "Simulator",
        device_id: int,
        ip: str,
        mac_address: str,
        arp: ArpServer,
        synchronous_dma: bool = False,
        trusted: bool = True,
    ) -> None:
        self.sim = sim
        self.device_id = device_id
        self.ip = ip
        self.trusted = trusted
        self.attestation = AttestationKernel(device_id, sim) if trusted else None
        self.dma = DmaEngine(sim, synchronous=synchronous_dma)
        self.mac = EthernetMac(sim, mac_address)
        self.roce = RoceKernel(
            sim, self.mac, arp, ip, attestation=self.attestation
        )
        arp.register(ip, mac_address)
        self._host_memory: HostMemoryPort | None = None
        self._pending_reads: dict[int, "Event"] = {}
        self._next_read_id = 0
        self._rx_callbacks: dict[int, Any] = {}
        self.roce.deliver_hook = self._on_deliver

    # ------------------------------------------------------------------
    # Control path (driver)
    # ------------------------------------------------------------------
    def attach_host_memory(self, memory: HostMemoryPort) -> None:
        """Register the host's ibv memory for DMA placement."""
        self._host_memory = memory

    def install_session(self, session_id: int, key: bytes) -> None:
        """Burn a session key (bootstrapping / attestation protocol)."""
        if self.attestation is None:
            raise RuntimeError("untrusted device has no attestation kernel")
        self.attestation.install_session(session_id, key)

    def create_qp(self, qp: QueuePair) -> None:
        self.roce.create_qp(qp)

    def connect_qp(self, qp_number: int, remote_qp_number: int) -> None:
        self.roce.connect_qp(qp_number, remote_qp_number)

    # ------------------------------------------------------------------
    # Data path — transmission
    # ------------------------------------------------------------------
    def send(
        self,
        qp_number: int,
        payload: bytes,
        opcode: RdmaOpcode = RdmaOpcode.SEND,
        meta: dict[str, Any] | None = None,
    ) -> "Event":
        """Full TX datapath; the event triggers when the peer ACKs.

        On a trusted device the payload is attested inline; an untrusted
        device (the RDMA-hw baseline) skips the attestation kernel.
        """
        done = self.sim.event()
        self._tx_path(Stages(self._tx_path, done,
                             (qp_number, payload, opcode, meta or {})))
        return done

    def _tx_path(self, op: Stages, event: "Event | None" = None) -> None:
        """The TX stages of one work request: DMA, attest, RoCE to ACK.

        Called by :meth:`send` to start the DMA and re-entered by
        ``op.resume`` as each stage completes (``op.step`` names it).
        """
        qp_number, payload, opcode, meta = op.args
        if event is None:
            # Continue the poster's trace (the carrier is the WR metadata)
            # and replace the carried context with this span's own, so the
            # packet that leaves the MAC points at tnic.tx and the remote
            # rx-verify stage joins the tree right here.
            span = op.span = span_begin(self.sim, "tnic.tx",
                                        parent=trace_extract(self.sim, meta),
                                        device=self.device_id,
                                        qp=qp_number, bytes=len(payload))
            if span:
                trace_inject(self.sim, meta, span)
            op.stage = span.child("tnic.dma")
            op.wait(self.dma.transfer(len(payload)), _DMA)
            return
        try:
            op.stage.end()
            step = op.step
            if step == _DMA and self.attestation is not None:
                session_id = self.roce._qp(qp_number).session_id
                op.stage = op.span.child("attest.hmac")
                op.wait(self.attestation.attest_event(session_id, payload),
                        _ATTEST)
                return
            if step != _ROCE:
                # The attested message, or the raw payload on an
                # untrusted device.
                to_send = event._value if step == _ATTEST else payload
                op.stage = op.span.child("roce.tx")
                op.wait(self.roce.post_send(qp_number, to_send, opcode, meta),
                        _ROCE)
                return
        except Exception as exc:  # a stalled `done` would park the caller
            op.fail(exc)
            return
        op.span.end(status="ok")
        if not op.done.triggered:
            op.done.succeed(event._value)

    def local_attest(self, session_id: int, payload: bytes) -> "Event":
        """local_send(): attest without transmitting (single-node use)."""
        if self.attestation is None:
            raise RuntimeError("untrusted device has no attestation kernel")
        done = self.sim.event()
        self._local_attest(Stages(self._local_attest, done,
                                  (session_id, payload)))
        return done

    def _local_attest(self, op: Stages, event: "Event | None" = None) -> None:
        """DMA then attest, as :meth:`_tx_path` without the RoCE stage."""
        session_id, payload = op.args
        if event is None:
            span = op.span = span_begin(self.sim, "tnic.local_attest",
                                        device=self.device_id,
                                        bytes=len(payload))
            op.stage = span.child("tnic.dma")
            op.wait(self.dma.transfer(len(payload)), _DMA)
            return
        try:
            op.stage.end()
            if op.step == _DMA:
                op.stage = op.span.child("attest.hmac")
                op.wait(self.attestation.attest_event(session_id, payload),
                        _ATTEST)
                return
        except Exception as exc:  # a stalled `done` would park the caller
            op.fail(exc)
            return
        op.span.end()
        op.done.succeed(event._value)

    def local_verify(self, session_id: int, message: AttestedMessage) -> "Event":
        """local_verify(): transferable-authentication check of α only."""
        if self.attestation is None:
            raise RuntimeError("untrusted device has no attestation kernel")
        done = self.sim.event()
        self._local_verify(Stages(self._local_verify, done,
                                  (session_id, message)))
        return done

    def _local_verify(self, op: Stages, event: "Event | None" = None) -> None:
        """DMA, then HMAC-pipeline occupancy, then the α check."""
        session_id, message = op.args
        try:
            if event is None:
                op.wait(self.dma.transfer(len(message.payload)), _DMA)
                return
            if op.step == _DMA:
                engine = self.attestation.hmac_engine
                op.wait(engine.occupy(len(message.payload)), _ATTEST)
                return
            verdict = self.attestation.check_transferable(session_id, message)
        except Exception as exc:  # a stalled `done` would park the caller
            op.fail(exc)
            return
        op.done.succeed(verdict)

    # ------------------------------------------------------------------
    # Data path — reception
    # ------------------------------------------------------------------
    def poll(self, qp_number: int, max_entries: int = 16) -> list[CompletionEntry]:
        """Fetch completed (verified) receptions — the poll() API.

        "poll() is updated only when the message verification succeeds
        at the TNIC hardware."
        """
        state = self.roce.tables.get(qp_number)
        entries: list[CompletionEntry] = []
        while state.completion_queue and len(entries) < max_entries:
            entries.append(state.completion_queue.popleft())
        return entries

    def receive(self, qp_number: int) -> dict[str, Any] | None:
        """Pop the next verified message for the host, if any.

        WRITE payloads are additionally placed into host memory at the
        address the sender named.
        """
        state = self.roce.tables.get(qp_number)
        if not state.receive_queue:
            return None
        item = state.receive_queue.popleft()
        count(self.sim, "device.host_rx", device=self.device_id)
        if (
            item["opcode"] is RdmaOpcode.WRITE
            and self._host_memory is not None
            and "remote_addr" in item["meta"]
        ):
            self._host_memory.dma_write(item["meta"]["remote_addr"], item["payload"])
        return item

    # ------------------------------------------------------------------
    # One-sided READ (serviced by the device, no host involvement)
    # ------------------------------------------------------------------
    def read_remote(
        self, qp_number: int, remote_addr: int, length: int,
        timeout_us: float = 100_000.0,
    ) -> "Event":
        """Issue a one-sided READ; the event triggers with the bytes,
        or fails with :class:`ReadTimeout` after *timeout_us*.

        A READ is a request/response exchange over a lossy fabric: the
        target may never answer (no registered memory, dropped response
        past the retry budget), so the completion composes a deadline —
        the same idiom as :meth:`repro.api.rpc.RpcEndpoint.call`.
        """
        read_id = self._next_read_id
        self._next_read_id += 1
        result = self.sim.event()
        self._pending_reads[read_id] = result
        request = self.send(
            qp_number,
            b"",
            opcode=RdmaOpcode.READ_REQUEST,
            meta={"remote_addr": remote_addr, "read_len": length,
                  "read_id": read_id},
        )

        def _on_request_failure(event) -> None:
            if not event.ok and not result.triggered:
                self._pending_reads.pop(read_id, None)
                result.fail(event._exception)

        request.callbacks.append(_on_request_failure)

        def _expire() -> None:
            pending = self._pending_reads.pop(read_id, None)
            if pending is not None and not pending.triggered:
                pending.fail(ReadTimeout(
                    f"READ {read_id} got no response within {timeout_us}us"
                ))

        self.sim.delayed_call(timeout_us, _expire)
        return result

    def _on_deliver(self, qp, state) -> None:
        """Device-side dispatch: intercept READ traffic before the host."""
        item = state.receive_queue[-1]
        opcode = item["opcode"]
        if opcode is RdmaOpcode.READ_REQUEST:
            state.receive_queue.pop()
            state.completion_queue.pop()
            if self._host_memory is None:
                return
            meta = item["meta"]
            data = self._host_memory.dma_read(meta["remote_addr"], meta["read_len"])
            self.send(
                qp.qp_number,
                data,
                opcode=RdmaOpcode.READ_RESPONSE,
                meta={"read_id": meta["read_id"]},
            )
        elif opcode is RdmaOpcode.READ_RESPONSE:
            state.receive_queue.pop()
            state.completion_queue.pop()
            pending = self._pending_reads.pop(item["meta"]["read_id"], None)
            if pending is not None and not pending.triggered:
                pending.succeed(item["payload"])
        else:
            callback = self._rx_callbacks.get(qp.qp_number)
            if callback is not None:
                state.receive_queue.pop()
                callback(item)

    def set_receive_callback(self, qp_number: int, callback) -> None:
        """Push-style reception: *callback(item)* runs on each verified
        delivery instead of queueing for ``receive()``/``drain()``.

        Used by the RPC layer; pass ``None`` to restore pull semantics.
        """
        if callback is None:
            self._rx_callbacks.pop(qp_number, None)
        else:
            self._rx_callbacks[qp_number] = callback

    def drain(self, qp_number: int) -> list[dict[str, Any]]:
        """Pop every pending verified message."""
        items = []
        while True:
            item = self.receive(qp_number)
            if item is None:
                return items
            items.append(item)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def stats(self) -> "DeviceStats":
        """Aggregate device counters (NIC telemetry)."""
        retransmissions = sum(
            s.retransmissions for s in self.roce.tables.all_states()
        )
        duplicates = sum(
            s.duplicates_dropped for s in self.roce.tables.all_states()
        )
        return DeviceStats(
            device_id=self.device_id,
            tx_packets=self.mac.tx_packets,
            rx_packets=self.mac.rx_packets,
            tx_bytes=self.mac.tx_bytes,
            rx_bytes=self.mac.rx_bytes,
            attestations=(
                self.attestation.attest_count if self.attestation else 0
            ),
            verifications=(
                self.attestation.verify_count if self.attestation else 0
            ),
            rejections=(
                self.attestation.reject_count if self.attestation else 0
            ),
            verification_failures=self.roce.verification_failures,
            retransmissions=retransmissions,
            duplicates_dropped=duplicates,
            dma_bytes=self.dma.bytes_moved,
            queue_pairs=len(self.roce.tables),
        )


@dataclass(frozen=True)
class DeviceStats:
    """Snapshot of one TNIC device's counters."""

    device_id: int
    tx_packets: int
    rx_packets: int
    tx_bytes: int
    rx_bytes: int
    attestations: int
    verifications: int
    rejections: int
    verification_failures: int
    retransmissions: int
    duplicates_dropped: int
    dma_bytes: int
    queue_pairs: int

    def describe(self) -> str:
        return (
            f"device {self.device_id}: "
            f"tx={self.tx_packets}pkt/{self.tx_bytes}B "
            f"rx={self.rx_packets}pkt/{self.rx_bytes}B "
            f"attest={self.attestations} verify={self.verifications} "
            f"reject={self.rejections} "
            f"retx={self.retransmissions} dup={self.duplicates_dropped} "
            f"qps={self.queue_pairs}"
        )
