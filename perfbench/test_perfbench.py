"""Tests of the benchmark itself: tracing must not perturb the
simulation, seeds must reach the inputs, and the runner must refuse to
run without the program's source."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.crypto.hashing
import repro.systems.peer_review
from perfbench.layers import LayerTracer, check_accounting, layer_metrics
from perfbench.run import Runner
from perfbench.workloads import WORKLOADS

HERE = Path(__file__).resolve().parent

#: Small sizes keep each round well under a second.
SMALL = {"bft_pipelined": 200, "peer_review_audit": 60,
         "device_sendrecv": 200}


def _small(name: str):
    return WORKLOADS[name].resized(SMALL[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_does_not_perturb_the_simulation(name):
    runner = Runner(_small(name), seed=3)
    first = runner.round().outcome
    second = runner.round().outcome
    with LayerTracer() as tracer:
        traced_round = runner.round(tracer)
    traced, host_ns = traced_round.outcome, traced_round.host_ns
    # A round without the speed sampler's process in the simulation.
    workload, inputs = runner.workload, runner.inputs
    system = workload.build(inputs)
    bare = workload.check(system, inputs, workload.run(system, inputs))
    for outcome in (first, second, traced, bare):
        assert outcome.failed == 0, outcome.problems
    assert (first.latencies_us == second.latencies_us == traced.latencies_us
            == bare.latencies_us)
    assert (first.vt_elapsed_us == second.vt_elapsed_us
            == traced.vt_elapsed_us == bare.vt_elapsed_us)
    assert (first.fingerprint == second.fingerprint == traced.fingerprint
            == bare.fingerprint)
    assert check_accounting(tracer, host_ns) == []
    metrics = layer_metrics(tracer, traced_round.counters,
                            runner.workload.ops, host_ns)
    shares = [value for key, value in metrics.items()
              if key.endswith("host_self_share")]
    assert sum(shares) == pytest.approx(1.0)
    assert metrics["sim.events_per_op"] > 0


def test_each_workload_exercises_its_layers():
    ran = {}
    for name in sorted(WORKLOADS):
        runner = Runner(_small(name), seed=1)
        with LayerTracer() as tracer:
            traced = runner.round(tracer)
        ran[name] = layer_metrics(tracer, traced.counters,
                                  runner.workload.ops, traced.host_ns)
    bft, audit, device = (ran["bft_pipelined"], ran["peer_review_audit"],
                          ran["device_sendrecv"])
    assert bft["crypto.vcache.hit_rate"] > 0
    assert bft["tee.attest.vt_us"] > 0 and bft["api.auth_send.vt_us"] == 0
    assert audit["systems.audit.records_scanned_per_call"] > 0
    assert audit["crypto.sha256.calls_per_op"] > 0
    assert device["crypto.vcache.hit_rate"] == 0
    assert device["crypto.batch_verify.jobs_per_call"] >= 1
    assert device["roce.goodput_ratio"] > 0
    assert device["systems.net.msgs_per_op"] == 0


def test_tracer_restores_every_patched_name():
    original = repro.crypto.hashing.sha256
    with LayerTracer():
        assert repro.systems.peer_review.sha256 is not original
    assert repro.systems.peer_review.sha256 is original
    assert repro.crypto.hashing.sha256 is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_inputs_and_the_simulation(name):
    workload = _small(name)
    assert workload.inputs(1) != workload.inputs(2)
    one = Runner(workload, seed=1).round().outcome
    two = Runner(workload, seed=2).round().outcome
    assert one.latencies_us != two.latencies_us


def _run(cwd: Path, seed: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bft_pipelined",
         "--seed", str(seed), "--seconds", "0", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_line_seed_reaches_the_result():
    results = []
    for seed in (1, 2):
        done = _run(HERE.parent, seed)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert (results[0]["metrics"]["vt_p50_us"]
            != results[1]["metrics"]["vt_p50_us"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, 1)
    assert done.returncode != 0
    assert "correct" not in done.stdout
