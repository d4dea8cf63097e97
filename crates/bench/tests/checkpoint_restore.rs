//! Integration pins for the snapshot seam and fault injection (PR 7):
//!
//! * restore ≡ continuous run — a checkpoint written after warm-up and a
//!   run restored from it both produce a result envelope byte-identical
//!   to the uninterrupted run, across the packet, TDM and SDM backends on
//!   mesh, torus and concentrated-mesh topologies (property test);
//! * fault drops never leak — after a faulted run fully drains, the
//!   flit arena's live count is zero even though mid-flight flits were
//!   purged;
//! * the TDM repair FSM completes a transient kill + revive with two
//!   repair sequences and a nonzero repair latency;
//! * a traced warm-up fork measures exactly what the untraced fork does.

use noc_bench::{result_envelope, run_sweep, BackendKind, Checkpoint, ScenarioSpec};
use noc_sim::{Direction, FaultEvent, TelemetryConfig, TopologyKind};
use noc_traffic::{run_phases, PhaseConfig, TrafficPattern};
use proptest::prelude::*;

/// Serialised result envelope of a single-spec run, wall fields zeroed
/// (exactly what the binaries write with `--json`).
fn envelope_json(spec: &ScenarioSpec) -> String {
    let specs = std::slice::from_ref(spec);
    let (outcomes, _) = run_sweep(specs, 1, None).expect("sweep runs");
    serde_json::to_string_pretty(&result_envelope(specs, &outcomes)).expect("serializable")
}

/// A unique temp path for a checkpoint blob.
fn blob_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("noc-ckpt-{}-{tag}.bin", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Run `base` three ways — continuous, checkpoint-writing, restored from
/// the written blob — and assert all three envelopes are byte-identical.
fn assert_checkpoint_round_trip(base: &ScenarioSpec, tag: &str) -> Result<(), TestCaseError> {
    let continuous = envelope_json(base);

    let path = blob_path(tag);
    let mut writing = base.clone();
    writing.checkpoint_out = Some(path.clone());
    let written = envelope_json(&writing);

    let mut restored = base.clone();
    restored.checkpoint_from = Some(path.clone());
    let forked = envelope_json(&restored);
    std::fs::remove_file(&path).ok();

    prop_assert_eq!(
        &continuous,
        &written,
        "writing a checkpoint perturbed the run"
    );
    prop_assert_eq!(&continuous, &forked, "restore diverged from continuous");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Checkpoint-then-restore is bit-identical to the continuous run at
    /// the same seed, for every snapshotable backend on every topology.
    #[test]
    fn restore_matches_continuous_run(
        backend_i in 0usize..3,
        topo_i in 0usize..3,
        rate in 0.05f64..0.18,
        seed in 1u64..500,
    ) {
        let backend = [
            BackendKind::PacketVc4,
            BackendKind::HybridTdmVc4,
            BackendKind::HybridSdmVc4,
        ][backend_i];
        let (topology, mesh, conc) = [
            (TopologyKind::Mesh2D, 4, 1),
            (TopologyKind::Torus2D, 4, 1),
            (TopologyKind::CMesh, 2, 4),
        ][topo_i];
        let base = ScenarioSpec::synthetic(
            backend,
            mesh,
            TrafficPattern::UniformRandom,
            rate,
            PhaseConfig::quick(),
            seed,
        )
        .with_topology(topology, conc);
        let tag = format!("{backend_i}-{topo_i}-{seed}");
        assert_checkpoint_round_trip(&base, &tag)?;
    }
}

/// Telemetry arms after the warm-up/restore boundary on a capturing or
/// restoring run: a traced capture and a traced fork both run, their
/// traces start at the boundary, and the traced fork's point equals the
/// untraced fork's.
#[test]
fn traced_warm_up_fork_matches_untraced_restore() {
    let cfg = TelemetryConfig::default();
    let traced_sweep = |spec: &ScenarioSpec| {
        let specs = std::slice::from_ref(spec);
        let (outcomes, mut reports) = run_sweep(specs, 1, Some(&cfg)).expect("traced run");
        let envelope = serde_json::to_string_pretty(&result_envelope(specs, &outcomes)).unwrap();
        (envelope, reports.remove(0).expect("TDM reports telemetry"))
    };
    let path = blob_path("traced-fork");
    let mut writing = ScenarioSpec::synthetic(
        BackendKind::HybridTdmVc4,
        4,
        TrafficPattern::UniformRandom,
        0.10,
        PhaseConfig::quick(),
        31,
    );
    writing.checkpoint_out = Some(path.clone());
    let (_, capture_report) = traced_sweep(&writing);
    let boundary = Checkpoint::read(&path).expect("blob written").warmup_ticks;

    let mut fork = ScenarioSpec::synthetic(
        BackendKind::HybridTdmVc4,
        4,
        TrafficPattern::Transpose,
        0.15,
        PhaseConfig::quick(),
        32,
    );
    fork.checkpoint_from = Some(path.clone());
    let (traced, fork_report) = traced_sweep(&fork);
    let untraced = envelope_json(&fork);
    std::fs::remove_file(&path).ok();

    assert_eq!(traced, untraced, "tracing perturbed the restored run");
    for report in [&capture_report, &fork_report] {
        assert!(!report.events.is_empty());
        assert!(
            report.events.iter().all(|e| e.cycle >= boundary),
            "a forked trace covers measurement and drain only"
        );
    }
}

/// A checkpoint taken before the fault timeline fires still continues it:
/// the restored run replays the same kill from the snapshot's own fault
/// state (no re-arming) and lands on the continuous envelope.
#[test]
fn checkpointed_fault_run_matches_continuous() {
    let base = ScenarioSpec::synthetic(
        BackendKind::PacketVc4,
        4,
        TrafficPattern::UniformRandom,
        0.12,
        PhaseConfig::quick(),
        23,
    )
    .with_faults(vec![FaultEvent {
        at: 1_500,
        node: 5,
        dir: Direction::East,
        up: false,
    }]);
    assert_checkpoint_round_trip(&base, "faulted").expect("fault run round-trips");
}

/// A permanent mid-measurement link kill purges in-flight flits — and
/// after the drain the config arena holds zero live allocations: every
/// dropped flit was accounted back.
#[test]
fn fault_drops_flits_without_leaking_the_arena() {
    let spec = ScenarioSpec::synthetic(
        BackendKind::PacketVc4,
        4,
        TrafficPattern::UniformRandom,
        0.20,
        PhaseConfig::quick(),
        7,
    )
    .with_faults(vec![FaultEvent {
        at: 1_500,
        node: 9,
        dir: Direction::East,
        up: false,
    }]);
    let mut fabric = spec.build_fabric().expect("builds");
    fabric
        .set_faults(spec.faults.clone())
        .expect("packet backend takes faults");
    let mut source = spec.build_source().expect("synthetic source");
    let result = run_phases(fabric.as_mut(), &mut source, spec.phases);

    assert_eq!(result.stats.link_down_events, 1, "one directed kill");
    assert!(
        result.stats.flits_dropped_fault > 0,
        "a loaded link kill should catch flits in flight"
    );
    assert!(
        result.stats.packets_dropped_fault > 0,
        "dropped flits belong to purged packets"
    );
    // The engine's drain phase stops once every *measured* packet is
    // delivered; background flits injected during it may still be in
    // flight, so finish the drain explicitly before the leak check.
    assert!(
        fabric.drain(20_000),
        "survivors must drain around the dead link"
    );
    assert_eq!(
        fabric.arena_live(),
        0,
        "dropped flits leaked config-arena allocations"
    );
}

/// Transient kill + revive on the TDM backend: the repair FSM runs twice
/// (teardown/re-setup around the kill, again around the revive), repair
/// latency is recorded, circuits re-establish and the network drains.
#[test]
fn tdm_transient_fault_repairs_and_drains() {
    let spec = ScenarioSpec::synthetic(
        BackendKind::HybridTdmVc4,
        4,
        TrafficPattern::Transpose,
        0.15,
        PhaseConfig::quick(),
        9,
    )
    .with_faults(vec![
        FaultEvent {
            at: 1_400,
            node: 5,
            dir: Direction::East,
            up: false,
        },
        FaultEvent {
            at: 2_000,
            node: 5,
            dir: Direction::East,
            up: true,
        },
    ]);
    let mut fabric = spec.build_fabric().expect("builds");
    fabric
        .set_faults(spec.faults.clone())
        .expect("tdm backend takes faults");
    let mut source = spec.build_source().expect("synthetic source");
    let result = run_phases(fabric.as_mut(), &mut source, spec.phases);

    assert_eq!(result.stats.link_down_events, 1);
    assert_eq!(result.stats.link_up_events, 1);
    assert_eq!(
        result.stats.repairs, 2,
        "kill and revive each complete one repair sequence"
    );
    assert!(
        result.stats.repair_cycle_sum > 0,
        "repair latency should be recorded"
    );
    assert!(
        result.stats.packets_delivered > 100,
        "traffic keeps flowing across the outage"
    );
    assert!(fabric.drain(20_000), "network must drain after the revive");
    assert_eq!(fabric.arena_live(), 0, "no arena leaks across the repair");
}
