"""End-to-end benchmark of the TNIC reproduction.

    python3 perfbench/run.py --workload bft_pipelined --seed 1 \\
        --seconds 30 --trace 0

Runs one workload of :mod:`perfbench.workloads` from the ``src/`` tree
next to this directory.  A run warms lazy set-up (imports, the HMAC
worker pool, a short pass of the workload), times repeated builds for
``setup_s``, then repeats rounds of the seeded workload for
``--seconds``: each round builds a fresh system, resets the
process-wide verification cache, runs, and checks its outputs.  Every
round of a seed simulates the same thing, which the run verifies.

Host times are scaled to a reference host speed measured alongside
them (:mod:`perfbench.calibrate`), so that the host's drifting speed
does not read as a change in the program.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` adds one
round with :class:`perfbench.layers.LayerTracer` installed and prints
the per-layer metrics instead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not __package__:  # run as a script: make the package importable
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate  # noqa: E402

#: ``setup_s`` is the median of repeated builds: at least this many,
#: and for at least this much host time.
SETUP_SAMPLES = 25
SETUP_SECONDS = 0.5
#: Fewest timed rounds, however long they take.
MIN_ROUNDS = 3
#: Operations in the warm-up pass.
WARMUP_OPS = 64
#: The latency percentile reported as ``vt_p99_us`` and the fewest
#: samples it must have beyond it.
TAIL_PERCENTILE = 0.99
TAIL_SAMPLES_BEYOND = 10

END_TO_END_UNITS = {
    "host_us_per_op": "us", "vt_p50_us": "us", "vt_p99_us": "us",
    "vt_ops_per_s": "1/s", "success_rate": "ratio", "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def _load_program() -> None:
    """Put the checkout's ``src/`` first on the path, or exit non-zero."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def percentile(samples: list[float], fraction: float) -> tuple[float, int]:
    """Nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass
class Round:
    """One build-run-check round."""

    #: Host time of the run, less the calibration passes inside it.
    host_ns: int
    #: ``host_ns`` scaled to the reference host.
    reference_ns: float
    outcome: object
    #: Public counters read right after the run, before the checks ran
    #: any more simulation.
    counters: dict


class Runner:
    """Rounds of one workload at one seed."""

    def __init__(self, workload, seed: int) -> None:
        from repro.crypto import reset_verification_cache

        self.workload = workload
        self.seed = seed
        self.inputs = workload.inputs(seed)
        self._reset_cache = reset_verification_cache

    def warm_up(self) -> None:
        """Pay lazy one-time costs before anything is timed."""
        from repro.crypto import batch_verify
        from repro.crypto.hmac_engine import GIL_RELEASE_BYTES, hmac_sha256

        # Two large cache-missing jobs start the HMAC worker pool.
        key, body = b"perfbench-warm-up", b"w" * GIL_RELEASE_BYTES
        mac = hmac_sha256(key, body)
        batch_verify([(key, mac, (body,)), (key, mac, (body,))])
        small = self.workload.resized(WARMUP_OPS)
        inputs = small.inputs(self.seed)
        system = small.build(inputs)
        small.check(system, inputs, small.run(system, inputs))
        calibrate.loop_ns()

    def setup_s(self) -> float:
        """Median host seconds of repeated builds, scaled to the
        reference host."""
        sampler = calibrate.SpeedSampler()
        sampler.sample()
        samples = []
        deadline = time.perf_counter() + SETUP_SECONDS
        while len(samples) < SETUP_SAMPLES or time.perf_counter() < deadline:
            # Each build starts from a collected heap, as a round's does,
            # so dropped systems neither pile up in memory nor vary the
            # allocator's state from one build to the next.
            gc.collect()
            started = time.perf_counter_ns()
            self.workload.build(self.inputs)
            samples.append(time.perf_counter_ns() - started)
            sampler.poll()
        sampler.sample()
        return calibrate.scale(statistics.median(samples),
                               sampler.passes) / 1e9

    def round(self, tracer=None) -> Round:
        workload = self.workload
        gc.collect()
        system = workload.build(self.inputs)
        self._reset_cache()
        sims = workload.sims(system)
        sampler = calibrate.SpeedSampler()
        sampler.sample()
        sampler.start(sims)
        if tracer is not None:
            tracer.attach(sims)
            tracer.reset()
        sampled_ns = sampler.spent_ns
        started = time.perf_counter_ns()
        result = workload.run(system, self.inputs)
        host_ns = time.perf_counter_ns() - started
        host_ns -= sampler.spent_ns - sampled_ns
        sampler.stop()
        counters = workload.counters(system, result)
        if tracer is not None:
            tracer.recording = False
            counters["sim.events"] = (tracer.event_counter.events
                                      - sampler.events)
        sampler.sample()
        outcome = workload.check(system, self.inputs, result)
        return Round(host_ns, calibrate.scale(host_ns, sampler.passes),
                     outcome, counters)


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run the benchmark; returns the result object to print."""
    runner = Runner(workload, seed)
    runner.warm_up()
    setup_s = runner.setup_s()
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(runner.round())
    us_per_op = [r.reference_ns / 1e3 / workload.ops for r in rounds]
    host_us_per_op = statistics.median(us_per_op)
    wall_us_per_op = statistics.median(r.host_ns / 1e3 / workload.ops
                                       for r in rounds)

    problems = []
    if trace:
        from perfbench.layers import LayerTracer, check_accounting, layer_metrics

        with LayerTracer() as tracer:
            traced = runner.round(tracer)
        rounds.append(traced)
        problems += check_accounting(tracer, traced.host_ns)
        metrics = layer_metrics(tracer, traced.counters, workload.ops,
                                traced.host_ns)
        metrics["trace.overhead_ratio"] = (
            traced.reference_ns / 1e3 / workload.ops / host_us_per_op)
    outcomes = [r.outcome for r in rounds]
    first = outcomes[0]
    for index, outcome in enumerate(outcomes):
        problems += outcome.problems
        if outcome.fingerprint != first.fingerprint:
            label = ("traced round" if trace and index == len(outcomes) - 1
                     else f"round {index}")
            problems.append(f"{label} simulated differently from round 0")
    p50, _ = percentile(first.latencies_us, 0.5)
    p99, beyond = percentile(first.latencies_us, TAIL_PERCENTILE)
    if beyond < TAIL_SAMPLES_BEYOND:
        problems.append(f"p99 of {len(first.latencies_us)} samples has only "
                        f"{beyond} beyond it")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"{workload.name} seed={seed}: {len(outcomes)} rounds of "
          f"{workload.ops} ops; {len(first.latencies_us)} latency samples "
          f"per round, {beyond} beyond p99; host us/op: wall median "
          f"{wall_us_per_op:.1f}, reference "
          f"{', '.join(f'{v:.1f}' for v in us_per_op)}")
    for problem in problems:
        print(f"problem: {problem}")
    if trace:
        units = {name: _per_layer_unit(name) for name in metrics}
    else:
        committed = first.attempted - first.failed
        metrics = {
            "host_us_per_op": host_us_per_op,
            "vt_p50_us": p50,
            "vt_p99_us": p99,
            "vt_ops_per_s": committed / (first.vt_elapsed_us / 1e6),
            "success_rate": (attempted - failed) / attempted,
            "setup_s": setup_s,
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def _per_layer_unit(name: str) -> str:
    if name.endswith(("host_us", "vt_us")):
        return "us"
    if name.endswith("host_ns_per_event"):
        return "ns"
    if name.endswith(("_share", "_ratio", "hit_rate")):
        return "ratio"
    if name.endswith("bytes_per_op"):
        return "B"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(WORKLOADS)}")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
