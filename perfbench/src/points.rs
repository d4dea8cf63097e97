//! One simulation point: parse the spec, build the fabric and workload,
//! run the engine, price the energy, then check the outcome.
//!
//! This is what `noc_bench::run_spec` does for these specs (the self-test
//! checks that both give the same statistics), done here step by step so
//! the benchmark can time `run_phases` alone and read the fabric after it.

use std::time::Instant;

use noc_hetero::{cpu_bench, gpu_bench, Floorplan, HeteroWorkload};
use noc_power::EnergyModel;
use noc_scenario::{build_workload, BackendKind, ScenarioSpec, TrafficSpec};
use noc_sim::EnergyEvents;
use noc_traffic::{run_phases, RunResult, Workload};

use crate::check::stats_digest;
use crate::trace::{TracedFabric, TracedWorkload, Tracer};

/// Cycles the post-run check may step an idle-sourced fabric to empty it.
const CHECK_DRAIN_CYCLES: u64 = 100_000;

/// Which layer's kernel a backend's `step` runs.
pub fn kernel_layer(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::HybridSdmVc4 => "sdm",
        k if k.is_tdm() => "tdm",
        _ => "sim",
    }
}

/// What one point produced.
pub struct PointOutcome {
    pub kind: BackendKind,
    pub hetero: bool,
    pub digest: String,
    /// Nodes × cycles stepped by `run_phases` (warm-up, measurement and
    /// drain).
    pub node_cycles: u64,
    pub run_phases_s: f64,
    /// Whole-run event counters (warm-up included), the work behind
    /// `run_phases_s`.
    pub events: EnergyEvents,
    /// Measurement-window activity: router steps executed and possible.
    pub window_nodes_stepped: u64,
    pub window_node_cycles: u64,
    pub offered: f64,
    pub accepted: f64,
    /// Largest measured packet latency, in cycles.
    pub max_latency: u64,
    pub saturated: bool,
    /// Packets the workload generated (counted by the traced run only).
    pub packets: u64,
    /// Why the point counts as failed, if it does.
    pub failure: Option<String>,
}

/// The spec's workload: a synthetic or trace source, or a CPU+GPU mix.
pub fn build_point_workload(spec: &ScenarioSpec) -> Result<Box<dyn Workload>, String> {
    match &spec.traffic {
        TrafficSpec::Hetero { cpu, gpu } => {
            let cpu = cpu_bench(cpu).ok_or_else(|| format!("unknown CPU benchmark {cpu}"))?;
            let gpu = gpu_bench(gpu).ok_or_else(|| format!("unknown GPU benchmark {gpu}"))?;
            Ok(Box::new(HeteroWorkload::new(
                Floorplan::figure7(),
                *cpu,
                *gpu,
                spec.seed,
            )))
        }
        _ => Ok(Box::new(
            build_workload(spec)
                .map_err(|e| e.to_string())?
                .ok_or("spec builds no workload")?,
        )),
    }
}

pub fn parse_spec(text: &str) -> Result<ScenarioSpec, String> {
    let mut specs = ScenarioSpec::parse(text).map_err(|e| e.to_string())?;
    match specs.len() {
        1 => Ok(specs.remove(0)),
        n => Err(format!("expected one spec, got {n}")),
    }
}

/// Run one point. With an enabled tracer the fabric and workload handed
/// to `run_phases` are wrapped in forwarding decorators; the engine and
/// everything it drives are the same either way.
pub fn run_point(text: &str, tr: &mut Tracer) -> Result<PointOutcome, String> {
    tr.begin("scenario.parse");
    let spec = parse_spec(text);
    tr.end();
    let spec = spec?;
    let hetero = matches!(spec.traffic, TrafficSpec::Hetero { .. });

    tr.begin("scenario.build_fabric");
    let fabric = spec.build_fabric();
    tr.end();
    let mut fabric = fabric.map_err(|e| e.to_string())?;
    tr.begin("scenario.build_workload");
    let workload = build_point_workload(&spec);
    tr.end();
    let mut workload = workload?;
    if hetero {
        // The mix runner logs deliveries for its per-class latencies.
        fabric.set_collect_delivered(true);
    }

    tr.begin("traffic.run_phases");
    let mut packets = 0;
    let t = Instant::now();
    let result: RunResult = if tr.enabled() {
        let mut f = TracedFabric::new(fabric.as_mut());
        let mut w = TracedWorkload::new(workload.as_mut());
        let r = run_phases(&mut f, &mut w, spec.phases);
        let (step, inject, tick) = (f.step, f.inject, w.tick);
        tr.aggregate(
            match kernel_layer(spec.backend) {
                "sdm" => "sdm.step",
                "tdm" => "tdm.step",
                _ => "sim.step",
            },
            step,
        );
        tr.aggregate("sim.inject", inject);
        tr.aggregate(
            if hetero {
                "hetero.tick"
            } else {
                "traffic.tick"
            },
            tick,
        );
        packets = w.packets;
        r
    } else {
        run_phases(fabric.as_mut(), workload.as_mut(), spec.phases)
    };
    let run_phases_s = t.elapsed().as_secs_f64();
    tr.end();

    tr.begin("power.evaluate");
    let breakdown = EnergyModel::default().evaluate_stats(&result.stats);
    std::hint::black_box(&breakdown);
    tr.end();

    tr.begin("perfbench.check");
    let nodes = fabric.mesh().len() as u64;
    let node_cycles = nodes * fabric.now();
    let events = fabric.total_events();
    let stats = &result.stats;
    let digest = stats_digest(stats);
    let mut failure = None;
    if result.saturated {
        failure = Some(format!(
            "saturated: delivered {:.3} of measured packets",
            result.delivered_fraction
        ));
    } else if stats.packets_delivered < stats.packets_offered {
        failure = Some(format!(
            "{} of {} measured packets undelivered after drain",
            stats.packets_offered - stats.packets_delivered,
            stats.packets_offered
        ));
    } else if stats.packets_delivered == 0 {
        failure = Some("no measured packet delivered".into());
    }
    // Empty the fabric with the source idle: every config payload must be
    // released once nothing is in flight.
    let drained = fabric.drain(CHECK_DRAIN_CYCLES);
    let live = fabric.arena_live();
    if failure.is_none() && (!drained || live != 0) {
        failure = Some(format!(
            "fabric not clean after drain (drained: {drained}, arena_live: {live})"
        ));
    }
    tr.end();

    Ok(PointOutcome {
        kind: spec.backend,
        hetero,
        digest,
        node_cycles,
        run_phases_s,
        events,
        window_nodes_stepped: stats.nodes_stepped,
        window_node_cycles: stats.node_cycles,
        offered: result.offered,
        accepted: result.throughput,
        max_latency: stats.latency_max,
        saturated: result.saturated,
        packets,
        failure,
    })
}
