"""The three benchmark workloads, driven through the public system APIs.

Every workload is closed-loop and single-process.  Its inputs are made
from the seed by :meth:`inputs`; the system under test only ever sees
those generated inputs.  One *round* is ``build`` (the set-up that
``setup_s`` times), ``run`` (the host time that ``host_us_per_op``
times) and ``check`` (the output checks that feed ``failed``).

Rounds of one run reuse the same inputs, so every round of a seed must
simulate exactly the same thing: :class:`Outcome.fingerprint` digests
the virtual-time results and the checked outputs so the runner can
prove it.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any

from repro.api import Cluster
from repro.api import ops
from repro.crypto import verification_cache_stats
from repro.net.fabric import NetworkFault
from repro.systems.bft import BftCounter
from repro.systems.peer_review import PeerReviewSystem

#: Payload sizes of the device workload; 4096 B is past
#: ``repro.crypto.hmac_engine.GIL_RELEASE_BYTES`` (2048 B).
DEVICE_PAYLOAD_SIZES = (64, 256, 1024, 4096)


@dataclass
class Outcome:
    """What one round produced, after its output checks."""

    attempted: int
    failed: int
    #: Simulated commit latency of every committed operation, in µs.
    latencies_us: list[float]
    #: Simulated time the round took, in µs.
    vt_elapsed_us: float
    #: Human-readable reasons for each failed check.
    problems: list[str] = field(default_factory=list)
    #: Digest of latencies and checked outputs; equal across rounds
    #: and between traced and untraced runs of one seed.
    fingerprint: str = ""


def _fingerprint(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _vcache_counters() -> dict[str, float]:
    stats = verification_cache_stats()
    return {"crypto.vcache.hits": stats["hits"],
            "crypto.vcache.misses": stats["misses"]}


def _kernel_rejections(providers) -> int:
    return sum(p.kernel.reject_count for p in providers)


@dataclass(frozen=True)
class BftPipelined:
    """``BftCounter`` over TNIC, f=1, batch 1, four batches in flight."""

    name: str = "bft_pipelined"
    batches: int = 2000
    pipeline_depth: int = 4

    @property
    def ops(self) -> int:
        return self.batches

    def resized(self, ops: int) -> "BftPipelined":
        return replace(self, batches=ops)

    def inputs(self, seed: int) -> int:
        # The seed drives the providers' attestation-latency jitter.
        return seed

    def build(self, seed: int) -> BftCounter:
        return BftCounter("tnic", f=1, batch=1, seed=seed)

    def sims(self, system: BftCounter) -> list:
        return [system.sim]

    def run(self, system: BftCounter, seed: int):
        return system.run_workload(self.batches,
                                   pipeline_depth=self.pipeline_depth)

    def counters(self, system: BftCounter, metrics) -> dict[str, float]:
        return {
            "systems.net.msgs": system.network.messages_sent,
            "core.rejections": _kernel_rejections(system.providers.values()),
            **_vcache_counters(),
        }

    def check(self, system: BftCounter, seed: int, metrics) -> Outcome:
        problems = []
        uncommitted = self.batches - metrics.committed
        if system.aborted:
            problems.append("run aborted")
        if uncommitted:
            problems.append(f"{uncommitted} batches not committed")
        value = system.read_counter()
        if value != metrics.committed:
            problems.append(f"read_counter() = {value}, "
                            f"committed {metrics.committed}")
        faults = system.detected_faults()
        if faults:
            problems.append(f"detected faults: {faults}")
        failed = self.batches if problems else 0
        return Outcome(
            attempted=self.batches,
            failed=failed,
            latencies_us=list(metrics.latencies_us),
            vt_elapsed_us=metrics.elapsed_us,
            problems=problems,
            fingerprint=_fingerprint(metrics.latencies_us,
                                     metrics.elapsed_us, value),
        )


@dataclass(frozen=True)
class PeerReviewAudit:
    """``PeerReviewSystem`` over TNIC, two children, the source witness
    auditing after every chunk, one chunk in flight.

    A run streams ``chunks`` chunks through each of ``streams``
    independent trees, so the chunk count per tree (which sets the
    audit cost) stays fixed while the pooled latency sample is large
    enough for a p99 with ten samples beyond it.
    """

    name: str = "peer_review_audit"
    chunks: int = 600
    streams: int = 2

    @property
    def ops(self) -> int:
        return self.chunks * self.streams

    def resized(self, ops: int) -> "PeerReviewAudit":
        return replace(self, chunks=max(1, ops // self.streams))

    def inputs(self, seed: int) -> tuple[int, list[list[str]]]:
        rng = random.Random(f"perfbench/{self.name}/{seed}")
        contents = [
            [f"chunk-{stream}-{i}-{rng.getrandbits(64):016x}"
             for i in range(self.chunks)]
            for stream in range(self.streams)
        ]
        return seed, contents

    def build(self, inputs) -> list[PeerReviewSystem]:
        seed, contents = inputs
        return [
            PeerReviewSystem("tnic", children=2,
                             seed=seed * self.streams + index)
            for index in range(len(contents))
        ]

    def sims(self, systems: list[PeerReviewSystem]) -> list:
        return [system.sim for system in systems]

    def run(self, systems: list[PeerReviewSystem], inputs):
        _seed, contents = inputs
        results = []
        for system, stream in zip(systems, contents):
            done = system.sim.event()
            system.sim.process(system.source.stream(stream, done))
            results.append(system.sim.run(done))
        return results

    def counters(self, systems, results) -> dict[str, float]:
        return {
            "systems.net.msgs": sum(s.network.messages_sent for s in systems),
            "core.rejections": sum(_kernel_rejections(s.providers.values())
                                   for s in systems),
            **_vcache_counters(),
        }

    def check(self, systems, inputs, results) -> Outcome:
        problems = []
        latencies: list[float] = []
        elapsed = 0.0
        heads = []
        failed = 0
        for index, (system, metrics) in enumerate(zip(systems, results)):
            stream_problems = []
            if metrics.committed != self.chunks:
                stream_problems.append(
                    f"stream {index}: {metrics.committed} of "
                    f"{self.chunks} chunks committed")
            faults = system.detected_faults()
            if faults:
                stream_problems.append(f"stream {index}: faults {faults}")
            audits = system.witness.audits_performed
            if audits != self.chunks:
                stream_problems.append(
                    f"stream {index}: {audits} audits for "
                    f"{self.chunks} chunks")
            if stream_problems:
                failed += self.chunks
                problems.extend(stream_problems)
            latencies.extend(metrics.latencies_us)
            elapsed += metrics.elapsed_us
            heads.append(system.source.log.records[-1].authenticator.hex())
        return Outcome(
            attempted=self.ops,
            failed=failed,
            latencies_us=latencies,
            vt_elapsed_us=elapsed,
            problems=problems,
            fingerprint=_fingerprint(latencies, elapsed, heads),
        )


@dataclass
class _DeviceRun:
    latencies_us: list[float]
    received: list[bytes]
    send_failures: int
    started_at: float
    finished_at: float


@dataclass(frozen=True)
class DeviceSendRecv:
    """Two-node ``Cluster``: ``auth_send`` and ``recv`` over the full
    device datapath, eight sends in flight, 1% seeded packet loss."""

    name: str = "device_sendrecv"
    messages: int = 4000
    in_flight: int = 8
    drop_probability: float = 0.01

    @property
    def ops(self) -> int:
        return self.messages

    def resized(self, ops: int) -> "DeviceSendRecv":
        return replace(self, messages=ops)

    def inputs(self, seed: int) -> tuple[int, list[bytes]]:
        # Sizes are drawn independently rather than cycled in a fixed
        # order: with eight sends in flight, any eight consecutive
        # messages of a strict 64/256/1024/4096 cycle hold the same
        # bytes, which pins the median latency to one value whatever
        # the seed.
        rng = random.Random(f"perfbench/{self.name}/{seed}")
        payloads = [rng.randbytes(rng.choice(DEVICE_PAYLOAD_SIZES))
                    for _ in range(self.messages)]
        return seed, payloads

    def build(self, inputs) -> tuple:
        seed, _payloads = inputs
        cluster = Cluster(
            ["a", "b"],
            fault=NetworkFault(drop_probability=self.drop_probability),
            seed=seed,
        )
        sender, receiver = cluster.connect("a", "b")
        return cluster, sender, receiver

    def sims(self, system) -> list:
        return [system[0].sim]

    def run(self, system, inputs) -> _DeviceRun:
        cluster, sender, receiver = system
        _seed, payloads = inputs
        sim = cluster.sim
        result = _DeviceRun([], [], 0, sim.now, sim.now)

        def drain() -> None:
            while True:
                item = ops.recv(receiver)
                if item is None:
                    return
                result.received.append(item["payload"])

        def record(event, sent_at: float) -> None:
            if event.ok:
                result.latencies_us.append(sim.now - sent_at)

        def client():
            in_flight: deque = deque()
            for payload in payloads:
                if len(in_flight) == self.in_flight:
                    try:
                        yield in_flight.popleft()
                    except Exception:  # a failed send is counted, not fatal
                        result.send_failures += 1
                    drain()
                completion = ops.auth_send(sender, payload)
                completion.callbacks.append(
                    lambda event, sent_at=sim.now: record(event, sent_at))
                in_flight.append(completion)
            while in_flight:
                try:
                    yield in_flight.popleft()
                except Exception:
                    result.send_failures += 1
            drain()
            result.finished_at = sim.now

        sim.run(sim.process(client()))
        return result

    def counters(self, system, result: _DeviceRun) -> dict[str, float]:
        cluster, _sender, _receiver = system
        stats = [node.device.stats() for node in cluster.nodes.values()]
        return {
            "core.dma.bytes": sum(s.dma_bytes for s in stats),
            "core.rejections": sum(s.rejections for s in stats),
            "roce.retransmissions": sum(s.retransmissions for s in stats),
            "roce.duplicates_dropped": sum(s.duplicates_dropped
                                           for s in stats),
            "roce.payload_bytes": sum(len(p) for p in result.received),
            "net.tx_packets": sum(s.tx_packets for s in stats),
            "net.tx_bytes": sum(s.tx_bytes for s in stats),
            "net.fabric.dropped": cluster.fabric.stats.dropped,
            **_vcache_counters(),
        }

    def check(self, system, inputs, result: _DeviceRun) -> Outcome:
        _seed, payloads = inputs
        problems = []
        failed = result.send_failures
        if result.send_failures:
            problems.append(f"{result.send_failures} sends failed")
        received = result.received
        wrong = sum(1 for got, sent in zip(received, payloads) if got != sent)
        unmatched = abs(len(payloads) - len(received))
        if wrong or unmatched:
            problems.append(f"{wrong} payloads differ or arrive out of "
                            f"order, {unmatched} missing or extra")
            failed = max(failed, wrong + unmatched)
        rejections = sum(node.device.stats().rejections
                         for node in system[0].nodes.values())
        if rejections:
            problems.append(f"{rejections} verification rejections")
            failed = max(failed, rejections)
        digest = hashlib.sha256()
        for payload in received:
            digest.update(payload)
        return Outcome(
            attempted=self.messages,
            failed=min(failed, self.messages),
            latencies_us=result.latencies_us,
            vt_elapsed_us=result.finished_at - result.started_at,
            problems=problems,
            fingerprint=_fingerprint(result.latencies_us,
                                     result.finished_at, digest.hexdigest()),
        )


WORKLOADS = {
    workload.name: workload
    for workload in (BftPipelined(), PeerReviewAudit(), DeviceSendRecv())
}
