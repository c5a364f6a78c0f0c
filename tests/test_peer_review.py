"""Tests for PeerReview accountability (Appendix C.5, Algorithm 5)."""

import pytest

from repro.systems.peer_review import (
    PeerReviewBehaviour,
    PeerReviewSystem,
    TamperEvidentLog,
    Witness,
    reference_execute,
)


def test_happy_path_streams_all_chunks():
    system = PeerReviewSystem("tnic", audit=True)
    metrics = system.run_workload(chunks=5)
    assert metrics.committed == 5
    assert system.detected_faults() == []
    assert system.witness.audits_performed == 5


def test_audit_disabled_performs_no_audits():
    system = PeerReviewSystem("tnic", audit=False)
    system.run_workload(chunks=3)
    assert system.witness.audits_performed == 0


def test_audit_adds_bounded_overhead():
    """'the audit protocol itself consumes about 25% (17us) of the
    overall latency, leading to 1.33x performance slowdown'."""
    with_audit = PeerReviewSystem("tnic", audit=True).run_workload(8)
    without = PeerReviewSystem("tnic", audit=False).run_workload(8)
    slowdown = without.throughput_ops / with_audit.throughput_ops
    assert 1.05 < slowdown < 1.8
    extra = with_audit.mean_latency_us - without.mean_latency_us
    assert extra == pytest.approx(17.0, abs=4.0)


def test_deviating_execution_detected_by_witness():
    """A child that computes a wrong result is exposed when the witness
    replays the source's log against the reference implementation."""
    system = PeerReviewSystem(
        "tnic", audit=True,
        behaviour=PeerReviewBehaviour(wrong_execution=True),
    )
    system.run_workload(chunks=2)
    faults = system.detected_faults()
    assert any("diverges from reference" in fault for fault in faults)


def test_tampered_log_breaks_hash_chain():
    system = PeerReviewSystem(
        "tnic", audit=True,
        behaviour=PeerReviewBehaviour(tamper_log=True),
    )
    system.run_workload(chunks=3)
    faults = system.detected_faults()
    assert any("hash chain broken" in fault for fault in faults)


def test_no_false_positives_without_audit():
    system = PeerReviewSystem(
        "tnic", audit=False,
        behaviour=PeerReviewBehaviour(wrong_execution=True),
    )
    system.run_workload(chunks=2)
    # Faults happen but go undetected without the audit protocol —
    # accountability is detection, not prevention.
    assert system.detected_faults() == []


def test_tnic_outperforms_tee_versions():
    """Fig 12: TNIC 3-5x better throughput than SGX / AMD-sev."""
    results = {
        name: PeerReviewSystem(name, audit=True, seed=4).run_workload(6)
        for name in ("tnic", "sgx", "amd-sev", "ssl-lib")
    }
    tnic = results["tnic"].throughput_ops
    assert tnic > 1.5 * results["sgx"].throughput_ops
    assert tnic > 1.3 * results["amd-sev"].throughput_ops
    assert results["ssl-lib"].throughput_ops > tnic


def test_children_count_validated():
    with pytest.raises(ValueError):
        PeerReviewSystem(children=0)


# ---------------------------------------------------------------------------
# Tamper-evident log unit tests
# ---------------------------------------------------------------------------

def test_log_chain_intact_after_appends():
    log = TamperEvidentLog()
    for i in range(5):
        log.append("send", f"m{i}".encode())
    assert log.verify_chain() is None
    assert [r.index for r in log.records] == list(range(5))


def test_log_tamper_detected_at_exact_index():
    log = TamperEvidentLog()
    for i in range(5):
        log.append("send", f"m{i}".encode())
    log.tamper(2, b"rewritten")
    assert log.verify_chain() == 2


def test_log_since_slices():
    log = TamperEvidentLog()
    for i in range(4):
        log.append("recv", f"m{i}".encode())
    assert len(log.since(2)) == 2


def test_reference_execute_deterministic():
    assert reference_execute("abc") == reference_execute("abc")
    assert reference_execute("abc") != reference_execute("abd")


def test_child_witnesses_audit_child_logs():
    system = PeerReviewSystem("tnic", audit=True, audit_children=True)
    system.run_workload(chunks=3)
    assert system.detected_faults() == []
    for witness in system.child_witnesses.values():
        assert witness.audits_performed == 3


def test_child_witness_catches_deviating_child():
    """With the full witness set, the deviating child is caught by ITS
    OWN witness replaying the child's log (not only via the source)."""
    system = PeerReviewSystem(
        "tnic", audit=True, audit_children=True,
        behaviour=PeerReviewBehaviour(wrong_execution=True),
    )
    system.run_workload(chunks=2)
    faults = system.detected_faults()
    assert any(fault.startswith("child0:") for fault in faults)


def test_witness_role_validated():
    system = PeerReviewSystem("tnic", audit=False)
    with pytest.raises(ValueError, match="role"):
        Witness(system, role="bystander")


def test_child_audits_add_proportional_overhead():
    single = PeerReviewSystem("tnic", audit=True).run_workload(5)
    full = PeerReviewSystem(
        "tnic", audit=True, audit_children=True
    ).run_workload(5)
    extra = full.mean_latency_us - single.mean_latency_us
    # Two extra audits of ~17us each per chunk.
    assert 20.0 <= extra <= 50.0


def test_non_responsive_child_exposed():
    """'expose non-responsive nodes': a silent child is reported by the
    source's witness machinery after the ack timeout."""
    system = PeerReviewSystem(
        "tnic", audit=False,
        behaviour=PeerReviewBehaviour(silent_child=True),
        ack_timeout_us=2_000.0,
    )
    metrics = system.run_workload(chunks=2)
    assert metrics.committed == 2  # the stream makes progress regardless
    faults = system.detected_faults()
    assert any("non-responsive" in fault and "child0" in fault
               for fault in faults)
    # The healthy child is never accused.
    assert not any("child1" in fault for fault in faults)


# ---------------------------------------------------------------------------
# Incremental witness audit
# ---------------------------------------------------------------------------

def _run_audit(system, witness, log):
    process = system.sim.process(witness.audit(log))
    return system.sim.run(process)


def _source_log(chunks):
    """An honest source log: each chunk, then one child's result."""
    log = TamperEvidentLog()
    _extend(log, range(chunks))
    return log


def _extend(log, seqs):
    for seq in seqs:
        log.append("send", f"{seq}|chunk-{seq}".encode())
        log.append("recv", f"{seq}|{reference_execute(f'chunk-{seq}')}"
                   .encode())


def _fresh_witness():
    system = PeerReviewSystem("tnic", audit=False)
    return system, Witness(system)


def test_audit_replays_only_new_entries():
    system, witness = _fresh_witness()
    log = _source_log(3)
    assert _run_audit(system, witness, log) == []
    assert witness.audited_until == 6
    _extend(log, [3])
    scanned = []
    since = log.since
    log.since = lambda index: scanned.append(index) or since(index)
    assert _run_audit(system, witness, log) == []
    assert scanned == [6]
    assert witness.audited_until == 8


@pytest.mark.parametrize("audit_children", [False, True])
def test_each_divergence_reported_once(audit_children):
    chunks = 4
    system = PeerReviewSystem(
        "tnic", audit=True, audit_children=audit_children,
        behaviour=PeerReviewBehaviour(wrong_execution=True),
    )
    system.run_workload(chunks=chunks)
    faults = system.detected_faults()
    source = [f for f in faults
              if not f.startswith("child") and "diverges from reference" in f]
    assert len(source) == chunks
    assert len(set(source)) == chunks
    child0 = [f for f in faults if f.startswith("child0:")]
    assert len(child0) == (chunks if audit_children else 0)
    assert len(faults) == len(source) + len(child0)


def test_tampered_chunk_reported_once():
    system = PeerReviewSystem(
        "tnic", audit=True,
        behaviour=PeerReviewBehaviour(tamper_log=True),
    )
    system.run_workload(chunks=4)
    broken = [f for f in system.detected_faults() if "hash chain broken" in f]
    assert broken == ["hash chain broken at entry 3"]


def test_truncation_below_audited_prefix_detected():
    system, witness = _fresh_witness()
    log = _source_log(3)
    assert _run_audit(system, witness, log) == []
    del log.records[4:]
    assert log.verify_chain() is None  # a shorter log is still a valid chain
    faults = _run_audit(system, witness, log)
    assert faults == ["log truncated to 4 entries below the 6 already audited"]
    assert _run_audit(system, witness, log) == []


def test_truncate_and_regrow_detected():
    system, witness = _fresh_witness()
    log = _source_log(3)
    _run_audit(system, witness, log)
    del log.records[2:]
    _extend(log, [7, 8, 9])
    assert log.verify_chain() is None
    assert _run_audit(system, witness, log) == [
        "entry 2: rewritten after it was audited"
    ]


def test_forked_prefix_with_recomputed_authenticators_detected():
    system, witness = _fresh_witness()
    log = _source_log(3)
    assert _run_audit(system, witness, log) == []
    forked = _source_log(1)
    _extend(forked, [5, 6])  # entries 2.. now carry other chunks
    log.records[:] = forked.records
    assert log.verify_chain() is None  # the chain itself is valid
    assert _run_audit(system, witness, log) == [
        "entry 2: rewritten after it was audited"
    ]
    # The fork is reported once; later appends audit incrementally.
    _extend(log, [7])
    assert _run_audit(system, witness, log) == []


def test_retroactive_edit_of_audited_record_detected():
    system, witness = _fresh_witness()
    log = _source_log(3)
    assert _run_audit(system, witness, log) == []
    log.tamper(1, b"0|out:forged")
    assert log.verify_chain() == 1
    faults = _run_audit(system, witness, log)
    assert faults == [
        "entry 1: rewritten after it was audited",
        "hash chain broken at entry 1",
        "entry 1: logged result 'out:forged' diverges from reference "
        f"{reference_execute('chunk-0')!r}",
    ]
    assert _run_audit(system, witness, log) == []


def test_faults_found_before_a_rewrite_not_repeated():
    system, witness = _fresh_witness()
    log = _source_log(2)
    log.append("send", b"2|chunk-2")
    log.append("recv", b"2|out:deviated")
    first = _run_audit(system, witness, log)
    assert len(first) == 1 and "diverges" in first[0]
    log.tamper(0, b"0|chunk-x")
    faults = _run_audit(system, witness, log)
    assert faults[:2] == ["entry 0: rewritten after it was audited",
                          "hash chain broken at entry 0"]
    assert first[0] not in faults
