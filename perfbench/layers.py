"""Outside-in per-layer tracing for the traced benchmark run.

:class:`LayerTracer` wraps public entry points of each package of
``repro`` (and the generator bodies of the processes they start) in
timing shims installed by monkeypatching, so no file under ``src/``
knows it is being measured.  Each shim pushes a frame on one stack; on
exit the frame's duration, minus the time its nested frames took, is
the frame's *self* time.  The self times of all frames therefore sum to
the inclusive time of the outermost frames, and whatever host time the
run took outside every frame is the ``sim`` residual: the event loop,
unwrapped callbacks and the benchmark's own client loop.

A function is patched in every module that holds it (``peer_review``
imports ``sha256`` by name, ``attestation`` imports ``batch_verify`` by
name), and generator functions return a proxy that times every resume,
so a long-lived process such as ``Witness.audit`` is charged for all
of its work, not just for creating the generator.

Wrappers of calls that return a simulation event also record the
simulated time from the call until that event fires (``*.vt_us``).
That callback only reads the clock, so the simulation it observes is
the same as an untraced one; the runner checks that it is.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

_clock = time.perf_counter_ns

LAYERS = ("sim", "systems", "tee", "core", "crypto", "roce", "net",
          "stack", "api")


@dataclass(frozen=True)
class Site:
    """One patched entry point.

    ``key`` names the ledger its time lands in; its first dot-separated
    part is the layer.  ``counts`` is false for shims whose work belongs
    to a call counted elsewhere (a ``*_event`` form calling the counted
    immediate form, or the process body behind an event-returning call).
    """

    module: str
    name: str            # "function" or "Class.method"
    key: str
    generator: bool = False
    counts: bool = True
    vt: bool = False
    #: ``size(args, result)`` adds to the key's size ledger.
    size: Callable[[tuple, Any], int] | None = None


def _jobs(args: tuple, _result: Any) -> int:
    return len(args[0])


def _log_length(args: tuple, _result: Any) -> int:
    return len(args[0].records)


def _returned_length(_args: tuple, result: Any) -> int:
    return len(result)


SITES = (
    # systems: the §8.3 protocols and their emulated network
    Site("repro.systems.common", "EmulatedNetwork.send", "systems.net"),
    Site("repro.systems.common", "BroadcastAuthenticator.verify",
         "systems.verify"),
    Site("repro.systems.bft", "BftCounter._client", "systems.client",
         generator=True),
    Site("repro.systems.bft", "_Replica.run_leader", "systems.replica",
         generator=True),
    Site("repro.systems.bft", "_Replica.run_follower", "systems.replica",
         generator=True),
    Site("repro.systems.peer_review", "_Source.stream", "systems.replica",
         generator=True),
    Site("repro.systems.peer_review", "_Child.run", "systems.replica",
         generator=True),
    Site("repro.systems.peer_review", "TamperEvidentLog.append",
         "systems.log"),
    Site("repro.systems.peer_review", "Witness.audit", "systems.audit",
         generator=True),
    # The two passes an audit makes over the log: records re-hashed by
    # verify_chain() plus records replayed from since().
    Site("repro.systems.peer_review", "TamperEvidentLog.verify_chain",
         "systems.audit.scan", size=_log_length),
    Site("repro.systems.peer_review", "TamperEvidentLog.since",
         "systems.audit.scan", size=_returned_length),
    # tee: the attestation-provider interface the systems are written to
    Site("repro.tee.base", "AttestationProvider.attest", "tee.attest",
         vt=True),
    Site("repro.tee.base", "AttestationProvider.verify", "tee.check",
         vt=True),
    Site("repro.tee.base", "AttestationProvider.check_transferable",
         "tee.check", vt=True),
    # core: attestation kernel, device datapath, DMA
    Site("repro.core.attestation", "AttestationKernel.attest",
         "core.kernel.attest"),
    Site("repro.core.attestation", "AttestationKernel.attest_event",
         "core.kernel.attest", counts=False),
    Site("repro.core.attestation", "AttestationKernel.verify",
         "core.kernel.check"),
    Site("repro.core.attestation", "AttestationKernel.check_transferable",
         "core.kernel.check"),
    Site("repro.core.attestation", "AttestationKernel.verify_event",
         "core.kernel.check", counts=False),
    Site("repro.core.attestation",
         "AttestationKernel._flush_pending_verifies", "core.kernel.check",
         counts=False),
    Site("repro.core.device", "TnicDevice.send", "core.device.send",
         vt=True),
    Site("repro.core.device", "TnicDevice._tx_path", "core.device.send",
         generator=True, counts=False),
    Site("repro.core.device", "TnicDevice.receive", "core.device.receive"),
    Site("repro.core.dma", "DmaEngine.transfer", "core.dma"),
    # crypto: MACs, hashes, the verification cache's batched path and
    # the HMAC pipeline's timing model
    Site("repro.crypto.hmac_engine", "hmac_sha256", "crypto.hmac"),
    Site("repro.crypto.hmac_engine", "hmac_verify", "crypto.hmac"),
    Site("repro.crypto.hmac_engine", "batch_verify", "crypto.batch_verify",
         size=_jobs),
    Site("repro.crypto.hashing", "sha256", "crypto.sha256"),
    Site("repro.crypto.hmac_engine", "HmacEngine.occupy", "crypto.pipeline"),
    Site("repro.crypto.hmac_engine", "HmacEngine._run", "crypto.pipeline",
         generator=True, counts=False),
    # roce: reliable transport
    Site("repro.roce.transport", "RoceKernel.post_send", "roce.post_send"),
    Site("repro.roce.transport", "RoceKernel._rx_loop", "roce.rx",
         generator=True, counts=False),
    Site("repro.roce.transport", "RoceKernel._delivery_loop", "roce.rx",
         generator=True, counts=False),
    Site("repro.roce.transport", "RoceKernel._retransmit_loop",
         "roce.retransmit", generator=True, counts=False),
    # net: MAC and switch fabric
    Site("repro.net.mac", "EthernetMac.transmit", "net.tx"),
    Site("repro.net.mac", "EthernetMac.deliver", "net.rx"),
    Site("repro.net.fabric", "Fabric.carry", "net.fabric"),
    # stack: the host RDMA library
    Site("repro.stack.rdma_lib", "RdmaLibrary.post", "stack.post", vt=True),
    Site("repro.stack.rdma_lib", "RdmaLibrary._post_locked", "stack.post",
         generator=True, counts=False),
    Site("repro.stack.rdma_lib", "RdmaLibrary.receive", "stack.receive"),
    # api: the Table-1 network APIs
    Site("repro.api.ops", "auth_send", "api.auth_send", vt=True),
    Site("repro.api.ops", "recv", "api.recv"),
)


class _TimedGenerator:
    """Generator proxy charging every resume to one ledger key.

    Works both as a ``Process`` body (``send``/``throw``/``close``) and
    under ``yield from`` (``__iter__``/``__next__``)."""

    __slots__ = ("_generator", "_tracer", "_key")

    def __init__(self, generator, tracer: "LayerTracer", key: str) -> None:
        self._generator = generator
        self._tracer = tracer
        self._key = key

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        tracer = self._tracer
        tracer.enter(self._key)
        try:
            return self._generator.send(value)
        finally:
            tracer.exit()

    def throw(self, *exc):
        tracer = self._tracer
        tracer.enter(self._key)
        try:
            return self._generator.throw(*exc)
        finally:
            tracer.exit()

    def close(self):
        return self._generator.close()


class _EventCounter:
    """Counts processed events through the simulator's profiler hook
    (``Simulator.profiler``); it reads no clock of its own."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events = 0

    @staticmethod
    def clock() -> int:
        return 0

    def account(self, event, callbacks, when, elapsed_ns) -> None:
        self.events += 1


class LayerTracer:
    """Self-time, call, size and simulated-time ledgers per key."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.sizes: dict[str, int] = defaultdict(int)
        self.vt_sum_us: dict[str, float] = defaultdict(float)
        self.vt_count: dict[str, int] = defaultdict(int)
        #: Inclusive time of frames entered with an empty stack.
        self.top_ns = 0
        #: Ledgers change only while this is true; frames stay balanced
        #: either way, so it may be cleared between frames.
        self.recording = False
        self.event_counter = _EventCounter()
        self._stack: list[list] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Frames
    # ------------------------------------------------------------------
    def enter(self, key: str) -> None:
        self._stack.append([key, _clock(), 0])

    def exit(self) -> None:
        key, started, nested = self._stack.pop()
        elapsed = _clock() - started
        if self._stack:
            self._stack[-1][2] += elapsed
        elif self.recording:
            self.top_ns += elapsed
        if self.recording:
            self.self_ns[key] += elapsed - nested

    def reset(self) -> None:
        """Zero every ledger and start recording (after set-up, before
        the timed run)."""
        if self._stack:
            raise RuntimeError("reset() inside a traced frame")
        for ledger in (self.self_ns, self.calls, self.sizes,
                       self.vt_sum_us, self.vt_count):
            ledger.clear()
        self.top_ns = 0
        self.event_counter.events = 0
        self.recording = True

    # ------------------------------------------------------------------
    # Installing and removing the shims
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Patch every site of :data:`SITES`."""
        try:
            for site in SITES:
                self._install(site)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def attach(self, sims) -> None:
        """Count the events of *sims* (call before they run)."""
        for sim in sims:
            sim.profiler = self.event_counter

    def _install(self, site: Site) -> None:
        module = importlib.import_module(site.module)
        if "." in site.name:
            class_name, attr = site.name.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original, self._wrap(original, site))
            return
        original = getattr(module, site.name)
        wrapper = self._wrap(original, site)
        # Patch every module that bound the function by name.
        for name, loaded in list(sys.modules.items()):
            if not name.startswith("repro") or loaded is None:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._patch(loaded, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap(self, function, site: Site):
        tracer = self
        key = site.key
        calls = self.calls
        if site.generator:
            counts = site.counts

            def generator_shim(*args, **kwargs):
                if counts and tracer.recording:
                    calls[key] += 1
                return _TimedGenerator(function(*args, **kwargs), tracer, key)

            return generator_shim

        counts, vt, size = site.counts, site.vt, site.size
        sizes = self.sizes

        def shim(*args, **kwargs):
            tracer.enter(key)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.exit()
            if tracer.recording:
                if counts:
                    calls[key] += 1
                if vt:
                    tracer._watch(key, result)
                if size is not None:
                    sizes[key] += size(args, result)
            return result

        return shim

    def _watch(self, key: str, event) -> None:
        sim = event.sim
        called_at = sim.now

        def fired(_event) -> None:
            if self.recording:
                self.vt_sum_us[key] += sim.now - called_at
                self.vt_count[key] += 1

        event.callbacks.append(fired)

    # ------------------------------------------------------------------
    # Reading the ledgers
    # ------------------------------------------------------------------
    def layer_self_ns(self) -> dict[str, int]:
        totals = {layer: 0 for layer in LAYERS}
        for key, value in self.self_ns.items():
            totals[key.split(".")[0]] += value
        return totals

    def host_us(self, key: str) -> float:
        calls = self.calls.get(key, 0)
        return self.self_ns.get(key, 0) / calls / 1e3 if calls else 0.0

    def vt_us(self, key: str) -> float:
        fired = self.vt_count.get(key, 0)
        return self.vt_sum_us.get(key, 0.0) / fired if fired else 0.0


def check_accounting(tracer: LayerTracer, host_ns: int) -> list[str]:
    """Problems with the self-time ledger of a traced run of *host_ns*.

    The self times of all frames must add up to the outermost frames'
    inclusive time, no ledger may be negative, and the residual left to
    ``sim`` must be non-negative, so that the layers plus ``sim`` sum
    to the run's host time."""
    problems = []
    total_self = sum(tracer.self_ns.values())
    if total_self != tracer.top_ns:
        problems.append(f"self times sum to {total_self} ns, outermost "
                        f"frames took {tracer.top_ns} ns")
    negative = sorted(k for k, v in tracer.self_ns.items() if v < 0)
    if negative:
        problems.append(f"negative self time in {negative}")
    if tracer.top_ns > host_ns:
        problems.append(f"traced frames ({tracer.top_ns} ns) exceed the "
                        f"run's host time ({host_ns} ns)")
    return problems


def layer_metrics(
    tracer: LayerTracer,
    counters: dict[str, float],
    ops: int,
    host_ns: int,
) -> dict[str, float]:
    """The per-layer metrics of one traced round of *ops* operations
    that took *host_ns* of host time (all but the tracing overhead,
    which needs the untraced rounds).  *counters* are the workload's
    public counters plus ``sim.events``, the events the program
    processed."""
    calls, sizes = tracer.calls, tracer.sizes

    def per_op(value: float) -> float:
        return value / ops

    layer_self = tracer.layer_self_ns()
    sim_ns = host_ns - tracer.top_ns
    events = counters["sim.events"]
    hits = counters.get("crypto.vcache.hits", 0)
    misses = counters.get("crypto.vcache.misses", 0)
    tx_bytes = counters.get("net.tx_bytes", 0)
    audits = calls.get("systems.audit", 0)
    batches = calls.get("crypto.batch_verify", 0)
    metrics = {
        "sim.events_per_op": per_op(events),
        "sim.host_ns_per_event": sim_ns / events if events else 0.0,
        "sim.host_self_share": sim_ns / host_ns,
        "systems.net.msgs_per_op": per_op(counters.get("systems.net.msgs", 0)),
        "systems.verify.calls_per_op": per_op(calls.get("systems.verify", 0)),
        "systems.verify.host_us": tracer.host_us("systems.verify"),
        "systems.audit.host_us": tracer.host_us("systems.audit"),
        "systems.audit.records_scanned_per_call":
            sizes.get("systems.audit.scan", 0) / audits if audits else 0.0,
        "tee.attest.calls_per_op": per_op(calls.get("tee.attest", 0)),
        "tee.attest.host_us": tracer.host_us("tee.attest"),
        "tee.attest.vt_us": tracer.vt_us("tee.attest"),
        "tee.check.calls_per_op": per_op(calls.get("tee.check", 0)),
        "tee.check.host_us": tracer.host_us("tee.check"),
        "tee.check.vt_us": tracer.vt_us("tee.check"),
        "core.kernel.attest.host_us": tracer.host_us("core.kernel.attest"),
        "core.kernel.check.host_us": tracer.host_us("core.kernel.check"),
        "core.device.send.vt_us": tracer.vt_us("core.device.send"),
        "core.dma.bytes_per_op": per_op(counters.get("core.dma.bytes", 0)),
        "core.rejections": counters.get("core.rejections", 0),
        "crypto.vcache.hit_rate":
            hits / (hits + misses) if hits + misses else 0.0,
        "crypto.vcache.hits": hits,
        "crypto.vcache.misses": misses,
        "crypto.hmac.calls_per_op": per_op(calls.get("crypto.hmac", 0)),
        "crypto.hmac.host_us": tracer.host_us("crypto.hmac"),
        "crypto.sha256.calls_per_op": per_op(calls.get("crypto.sha256", 0)),
        "crypto.sha256.host_us": tracer.host_us("crypto.sha256"),
        "crypto.batch_verify.jobs_per_call":
            sizes.get("crypto.batch_verify", 0) / batches if batches else 0.0,
        "roce.post_send.host_us": tracer.host_us("roce.post_send"),
        "roce.retransmissions": counters.get("roce.retransmissions", 0),
        "roce.duplicates_dropped": counters.get("roce.duplicates_dropped", 0),
        "roce.goodput_ratio":
            counters.get("roce.payload_bytes", 0) / tx_bytes
            if tx_bytes else 0.0,
        "net.tx_packets_per_op": per_op(counters.get("net.tx_packets", 0)),
        "net.tx_bytes_per_op": per_op(tx_bytes),
        "net.fabric.dropped": counters.get("net.fabric.dropped", 0),
        "stack.post.host_us": tracer.host_us("stack.post"),
        "stack.post.vt_us": tracer.vt_us("stack.post"),
        "stack.receive.host_us": tracer.host_us("stack.receive"),
        "api.auth_send.host_us": tracer.host_us("api.auth_send"),
        "api.auth_send.vt_us": tracer.vt_us("api.auth_send"),
        "api.recv.host_us": tracer.host_us("api.recv"),
    }
    for layer in LAYERS[1:]:
        metrics[f"{layer}.host_self_share"] = layer_self[layer] / host_ns
    return metrics
