"""Golden-trace determinism: the kernel fast path is wall-clock-only.

The BFT and chain fixtures under ``tests/fixtures/golden/`` were
generated with the *pre-fast-path* simulator kernel; the device fixture
was generated with the process-per-stage TNIC datapath (every DMA, HMAC
occupancy and post a spawned process).  Each test re-runs the same
seeded scenario — one BFT round-trip batch, one chain-replication
workload and one lossy two-node ``auth_send``/``recv`` stream through
the full device datapath — with tracing on and asserts the canonical
trace dump is byte-identical to the recorded golden.  Any change to
event ordering, same-timestamp tiebreaks, or virtual-time arithmetic
shows up here as a diff; optimisations that only shave wall-clock time
do not.

Regenerate (only when an *intentional* semantic change lands)::

    PYTHONPATH=src python tests/test_golden_trace.py --regenerate
"""

from __future__ import annotations

import pathlib

import random
from collections import deque

from repro.api import Cluster, ops
from repro.bench import kv_workload
from repro.net.fabric import NetworkFault
from repro.sim.trace import Tracer, emit
from repro.systems.bft import BftCounter
from repro.systems.chain import ChainReplication

GOLDEN_DIR = pathlib.Path(__file__).parent / "fixtures" / "golden"

#: Big enough that neither scenario ever evicts (eviction is
#: deterministic too, but a full trace makes diffs readable).
TRACE_CAPACITY = 500_000


def canonical_dump(tracer: Tracer, final_now: float, committed: int) -> str:
    """Byte-stable rendering of a trace: exact float repr, sorted fields."""
    lines = [
        f"# records={tracer.emitted} final_now={final_now!r} "
        f"committed={committed}"
    ]
    for index, record in enumerate(tracer.records()):
        fields = ",".join(
            f"{key}={value!r}" for key, value in sorted(record.fields.items())
        )
        lines.append(
            f"{index}|{record.time_us!r}|{record.category}|"
            f"{record.message}|{fields}"
        )
    return "\n".join(lines) + "\n"


def run_bft_round() -> str:
    system = BftCounter("tnic", f=1, batch=1, seed=3)
    system.sim.tracer = Tracer(capacity=TRACE_CAPACITY)
    metrics = system.run_workload(3, pipeline_depth=1)
    assert not system.aborted
    return canonical_dump(system.sim.tracer, system.sim.now, metrics.committed)


def run_chain_round() -> str:
    workload = kv_workload(6, read_fraction=0.3, value_bytes=60, seed=5)
    system = ChainReplication("tnic", chain_length=3, seed=5)
    system.sim.tracer = Tracer(capacity=TRACE_CAPACITY)
    metrics = system.run_workload(workload)
    assert not system.aborted
    return canonical_dump(system.sim.tracer, system.sim.now, metrics.committed)


def run_device_round() -> str:
    """Two-node ``auth_send``/``recv`` over the full device datapath.

    Mixed 64-4096 B payloads, four sends in flight and 5% seeded loss,
    so the trace covers DMA, HMAC-pipeline queueing, attestation,
    single-MTU packets, go-back-N retransmission and
    rx verification.  Each send completion is recorded in the trace
    (``golden.complete``), pinning per-message completion instants."""
    rng = random.Random("golden/device")
    payloads = [rng.randbytes(rng.choice((64, 256, 1024, 4096)))
                for _ in range(80)]
    cluster = Cluster(["a", "b"], fault=NetworkFault(drop_probability=0.05),
                      seed=11)
    sender, receiver = cluster.connect("a", "b")
    sim = cluster.sim
    sim.tracer = Tracer(capacity=TRACE_CAPACITY)
    received: list[bytes] = []

    def completed(event, index: int) -> None:
        emit(sim, "golden.complete", f"msg={index} ok={event.ok}")

    def client():
        in_flight: deque = deque()
        for index, payload in enumerate(payloads):
            if len(in_flight) == 4:
                yield in_flight.popleft()
            completion = ops.auth_send(sender, payload)
            completion.callbacks.append(
                lambda event, index=index: completed(event, index))
            in_flight.append(completion)
            while (item := ops.recv(receiver)) is not None:
                received.append(item["payload"])
        while in_flight:
            yield in_flight.popleft()
        while (item := ops.recv(receiver)) is not None:
            received.append(item["payload"])

    sim.run(sim.process(client()))
    assert received == payloads
    stats = cluster.nodes["a"].device.stats()
    assert stats.retransmissions > 0, "scenario must exercise go-back-N"
    return canonical_dump(sim.tracer, sim.now, len(received))


SCENARIOS = {
    "golden_trace_bft.txt": run_bft_round,
    "golden_trace_chain.txt": run_chain_round,
    "golden_trace_device.txt": run_device_round,
}


def _compare(filename: str) -> None:
    golden = (GOLDEN_DIR / filename).read_text()
    actual = SCENARIOS[filename]()
    assert actual == golden, (
        f"{filename}: trace diverged from the pre-fast-path golden — "
        "the kernel changed virtual-time semantics or event ordering"
    )


def test_bft_trace_matches_golden():
    _compare("golden_trace_bft.txt")


def test_chain_trace_matches_golden():
    _compare("golden_trace_chain.txt")


def test_device_trace_matches_golden():
    _compare("golden_trace_device.txt")


def test_trace_is_run_to_run_deterministic():
    """Two in-process runs of one scenario must match exactly (no golden
    needed: guards against global mutable state — caches, counters —
    leaking into event order)."""
    assert run_chain_round() == run_chain_round()


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    import sys

    if "--regenerate" not in sys.argv:
        sys.exit("refusing to run without --regenerate")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, scenario in SCENARIOS.items():
        (GOLDEN_DIR / name).write_text(scenario())
        print(f"wrote {GOLDEN_DIR / name}")
