//! Pins where a cold traced run arms telemetry.
//!
//! A traced run that neither captures nor restores a warm-up checkpoint
//! arms its telemetry at cycle 0, so its trace covers warm-up,
//! measurement and drain. The constants below were recorded from that
//! behaviour; a change to the arm point (or to what a traced run
//! records) moves at least one of them.

use noc_bench::{run_spec_with, BackendKind, RunOptions, RunOutcome, ScenarioSpec, WarmStart};
use noc_sim::TelemetryConfig;
use noc_traffic::{PhaseConfig, TrafficPattern};

#[test]
fn cold_traced_run_arms_at_cycle_zero() {
    let spec = ScenarioSpec::synthetic(
        BackendKind::HybridTdmVc4,
        4,
        TrafficPattern::Transpose,
        0.10,
        PhaseConfig::quick(),
        41,
    );
    let cfg = TelemetryConfig {
        capacity: 1 << 15,
        window: 500,
        ..TelemetryConfig::default()
    };
    let opts = RunOptions {
        telemetry: Some(&cfg),
        warm: WarmStart::Fresh { capture: false },
        control: None,
    };
    let Ok(RunOutcome::Done {
        telemetry: Some(report),
        ..
    }) = run_spec_with(&spec, opts)
    else {
        panic!("the TDM backend reports telemetry")
    };

    assert_eq!(report.dropped, 0, "the ring must hold the whole run");
    assert!(
        report.events[0].cycle < spec.phases.warmup_cycles,
        "the trace starts inside the warm-up"
    );
    assert_eq!(report.events.len(), 63_317);
    assert_eq!(report.total_link_flits(), 13_346);
    assert_eq!(report.registry.windows.len(), 8);
}
