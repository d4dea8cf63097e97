//! # noc-bench — experiment harnesses for every table and figure
//!
//! One binary per table/figure of the paper (`src/bin/`), plus the
//! `network_step` kernel benchmark. Network construction goes through the
//! `noc-scenario` backend registry ([`BackendKind`] + [`build_fabric`])
//! and every scenario run goes through [`run_spec_with`] on the shared
//! engine (`noc_traffic`); this library holds what is left: the
//! per-figure sweeps, saturation search and table/chart formatting.
//!
//! Every binary accepts `--scenario <file>` to run declarative
//! [`ScenarioSpec`]s (JSON) instead of its built-in paper configuration,
//! and binaries with `--json <path>` wrap their raw measurement points in
//! the schema-versioned envelope ([`result_envelope`]).
//!
//! | Paper artefact | Binary |
//! |---|---|
//! | Table I (+ §IV-A router area) | `table1_router_params` |
//! | Figure 4 (load–latency, UR/TOR/TR) | `fig4_load_latency` |
//! | Figure 5 (energy saving vs injection) | `fig5_energy_saving` |
//! | Figure 6 (scalability 8×8/16×16) | `fig6_scalability` |
//! | Table II + Figure 7 (system/floorplan) | `table2_system_config` |
//! | Figure 8 (energy + CPU/GPU speedups, 56 mixes) | `fig8_hetero` |
//! | Figure 9 (energy breakdown) | `fig9_breakdown` |
//! | Table III (injection + CS flit %) | `table3_cs_percent` |
//! | §II-C / §II-D / §III-A / §V-B4 design choices | `ablation_slot_table`, `ablation_stealing`, `ablation_sharing`, `ablation_gating_metric` |

use noc_power::{EnergyBreakdown, EnergyModel};
use noc_sim::telemetry::{chrome_trace_json, link_heatmap_csv};
use noc_sim::{Fabric, Mesh, TelemetryConfig, TelemetryReport};
use noc_traffic::{
    run_measurement_ctl, run_warmup_ctl, FreeRun, PhaseConfig, RunControl, RunResult,
    TrafficPattern,
};
use serde::{Serialize, Value};

pub use noc_hetero::MixResult;
pub use noc_scenario::{
    build_fabric, build_workload, json_flag, quick_flag, result_envelope,
    result_envelope_with_telemetry, scenario_flag, scenario_specs_from_cli, slot_capacity_for,
    step_threads_from_env, sweep_threads_flag, telemetry_from_cli, trace_out_flag, write_json,
    BackendKind, Checkpoint, ScenarioError, ScenarioSpec, SpecSource, TrafficSpec, Tuning,
    SCHEMA_VERSION,
};
pub use noc_workload::{capture_ticks, plan_top_flows, PacketTrace};

/// One synthetic measurement point.
#[derive(Clone, Debug, serde::Serialize)]
pub struct SynthPoint {
    pub kind: BackendKind,
    pub pattern: &'static str,
    pub rate: f64,
    pub result: RunResult,
    pub breakdown: EnergyBreakdown,
    /// Accepted throughput normalised to message payloads: circuit-switched
    /// packets carry a 64 B line in 4 flits instead of 5, so raw flit
    /// counts would undercount the hybrid network's useful throughput.
    pub goodput: f64,
}

fn synth_point(
    kind: BackendKind,
    pattern: &'static str,
    rate: f64,
    result: RunResult,
    nodes: usize,
    ps_packet_flits: u8,
) -> SynthPoint {
    let breakdown = EnergyModel::default().evaluate_stats(&result.stats);
    let goodput = if result.stats.measured_cycles == 0 {
        0.0
    } else {
        result.stats.packets_delivered as f64 * ps_packet_flits as f64
            / (result.stats.measured_cycles as f64 * nodes as f64)
    };
    SynthPoint {
        kind,
        pattern,
        rate,
        result,
        breakdown,
        goodput,
    }
}

/// Run one synthetic point on a square grid: a [`ScenarioSpec`] built
/// from the arguments (with the `NOC_STEP_THREADS` host override) through
/// [`run_spec`].
pub fn run_synthetic(
    kind: BackendKind,
    mesh: Mesh,
    pattern: TrafficPattern,
    rate: f64,
    phases: PhaseConfig,
    seed: u64,
) -> SynthPoint {
    assert_eq!(mesh.kx(), mesh.ky(), "scenario grids are square");
    let mut spec = ScenarioSpec::synthetic(kind, mesh.kx(), pattern, rate, phases, seed);
    spec.topology = mesh.kind();
    spec.concentration = mesh.concentration();
    spec.step_threads = step_threads_from_env();
    run_spec(&spec)
        .expect("every backend builds under the synthetic tuning")
        .into_synth()
        .expect("synthetic specs yield synthetic points")
}

/// (pattern label, offered rate) for a synthetic or trace point.
fn point_label(spec: &ScenarioSpec, source: &SpecSource) -> (&'static str, f64) {
    match &spec.traffic {
        TrafficSpec::Synthetic { pattern, rate } => (pattern.name(), *rate),
        TrafficSpec::Trace { .. } => ("trace", noc_traffic::Workload::offered_load(source)),
        TrafficSpec::Hetero { .. } => unreachable!("hetero specs never build a SpecSource"),
    }
}

/// Profiled hybrid switching (§III of the paper, profiled variant): rank
/// the spec's flows by carried circuit-eligible volume and plan pinned
/// circuits for the top `n`. Trace workloads are profiled exactly (the
/// whole trace); synthetic workloads profile a *shadow* capture of a
/// warm-up-length prefix — a fresh source, so the run's own RNG stream is
/// untouched and the measured traffic is unchanged.
fn plan_for_spec(spec: &ScenarioSpec, top: u32) -> Result<noc_sim::CircuitPlan, ScenarioError> {
    let mesh = spec.topo();
    Ok(match &spec.traffic {
        TrafficSpec::Trace { trace: Some(t), .. } => plan_top_flows(t, &mesh, top as usize, true),
        _ => {
            let mut shadow = spec.build_source().ok_or_else(|| {
                ScenarioError::Parse("profile_circuits needs a synthetic or trace workload".into())
            })?;
            let ticks = spec.phases.warmup_cycles.max(2_000);
            let capture = capture_ticks(&mut shadow, mesh.len() as u32, ticks);
            plan_top_flows(&capture, &mesh, top as usize, true)
        }
    })
}

/// Write the recorded injection-side trace of a `trace_export` run:
/// binary `NOCTRACE1`, or the JSON-lines twin when the path ends in
/// `.jsonl`.
fn write_trace_export(spec: &ScenarioSpec, source: &mut SpecSource) -> Result<(), ScenarioError> {
    let Some(path) = &spec.trace_export else {
        return Ok(());
    };
    let trace = source
        .take_recorded_trace()
        .expect("trace_export specs build a recording workload");
    let bytes = if path.ends_with(".jsonl") {
        trace.to_text().into_bytes()
    } else {
        trace.to_binary()
    };
    std::fs::write(path, bytes)?;
    Ok(())
}

/// How a run starts: cold (optionally capturing a warm-up checkpoint at
/// the warm-up/measurement boundary) or restored from a captured
/// warm-up — the warm-up fork.
pub enum WarmStart<'a> {
    /// Pay the warm-up; `capture` additionally checkpoints the fabric at
    /// the boundary and returns the blob in [`RunOutcome::Done`].
    Fresh { capture: bool },
    /// Restore a previously captured warm-up (must be
    /// [`Checkpoint::compatible_with`] the spec) and go straight to
    /// measurement. With the same traffic and seed the measurement is
    /// byte-identical to the continuous run the blob came from; with
    /// different ones it is a fresh measurement point.
    Restore(&'a Checkpoint),
}

/// What a [`run_spec_with`] run adds to a plain [`run_spec`].
pub struct RunOptions<'a> {
    /// Record flit-lifecycle telemetry and return its report. A cold run
    /// that neither captures nor restores a checkpoint arms it at cycle
    /// 0, so the trace covers warm-up, measurement and drain. Any other
    /// run arms it right after the warm-up/restore boundary (a snapshot
    /// refuses armed telemetry), so its trace covers measurement and
    /// drain only. Tracing only observes: results are bit-identical.
    pub telemetry: Option<&'a TelemetryConfig>,
    pub warm: WarmStart<'a>,
    /// Per-cycle hook for cooperative cancellation and live telemetry
    /// streaming (`None` = run to completion).
    pub control: Option<&'a mut dyn RunControl>,
}

/// Outcome of one [`run_spec_with`] run. One transient value per run, so
/// the checkpoint-carrying `Done` variant stays unboxed despite the size
/// skew.
#[allow(clippy::large_enum_variant)]
pub enum RunOutcome {
    Done {
        outcome: SpecOutcome,
        /// The warm-up checkpoint, when `WarmStart::Fresh { capture: true }`
        /// asked for one.
        warm: Option<Checkpoint>,
        /// The telemetry report, when [`RunOptions::telemetry`] armed it
        /// on a backend that records.
        telemetry: Option<TelemetryReport>,
    },
    /// The control hook cancelled the run. The fabric was given a bounded
    /// drain before being dropped; `arena_live` reports config-payload
    /// allocations still live afterwards (0 = clean cancellation, no
    /// leaks).
    Cancelled { arena_live: usize },
}

/// Run any [`ScenarioSpec`] with [`RunOptions`]: the one copy of the
/// scenario run. A synthetic or trace spec restores or warms up
/// (installing profiled circuits and arming its fault schedule first),
/// optionally captures the warm-up, measures, drains and writes its
/// `trace_export`. On a restore the snapshot's own fault timeline and
/// pinned circuits continue instead. Hetero specs run through
/// `noc_hetero::run_spec` and take neither a checkpoint nor a control.
///
/// The spec's `checkpoint_from`/`checkpoint_out` file paths are not read
/// here; [`run_spec`] and [`run_sweep`] map them onto `warm`.
pub fn run_spec_with(
    spec: &ScenarioSpec,
    opts: RunOptions<'_>,
) -> Result<RunOutcome, ScenarioError> {
    fn cancelled(fabric: &mut dyn Fabric) -> RunOutcome {
        // Flush in-flight flits so a cancelled run releases its arena
        // payloads; the bound keeps a wedged fabric from spinning forever.
        let _ = fabric.drain(100_000);
        RunOutcome::Cancelled {
            arena_live: fabric.arena_live(),
        }
    }

    let RunOptions {
        telemetry,
        warm,
        control,
    } = opts;
    let Some(mut source) = build_workload(spec)? else {
        if control.is_some() || !matches!(warm, WarmStart::Fresh { capture: false }) {
            return Err(ScenarioError::Parse(
                "hetero runs take neither a warm-up checkpoint nor a run control".into(),
            ));
        }
        let (mix, report) = noc_hetero::run_spec(spec, telemetry)?;
        return Ok(RunOutcome::Done {
            outcome: SpecOutcome::Hetero(mix),
            warm: None,
            telemetry: report,
        });
    };
    let ctl: &mut dyn RunControl = match control {
        Some(ctl) => ctl,
        None => &mut FreeRun,
    };
    let (name, rate) = point_label(spec, &source);
    if spec.trace_export.is_some() && matches!(warm, WarmStart::Restore(_)) {
        return Err(ScenarioError::Parse(
            "trace_export cannot restore a cached warm-up: the warm-up \
             injections it must record are skipped"
                .into(),
        ));
    }
    let mut fabric = spec.build_fabric()?;
    let arm_at_start = matches!(warm, WarmStart::Fresh { capture: false });
    if let (Some(cfg), true) = (telemetry, arm_at_start) {
        fabric.configure_telemetry(cfg);
    }
    let warm_blob = match warm {
        WarmStart::Restore(ck) => {
            // Fast-forward the source to the checkpointed RNG position,
            // raise its id allocator past every in-flight packet, and
            // restore the fabric.
            ck.compatible_with(spec)?;
            source.skip_ticks(ck.warmup_ticks);
            source.skip_to(ck.next_packet_id);
            fabric
                .restore(&ck.snapshot)
                .map_err(|e| ScenarioError::Checkpoint(e.to_string()))?;
            None
        }
        WarmStart::Fresh { capture } => {
            if let Some(top) = spec.profile_circuits {
                let plan = plan_for_spec(spec, top)?;
                fabric
                    .install_circuit_plan(&plan)
                    .map_err(|e| ScenarioError::Parse(format!("profile_circuits: {e}")))?;
            }
            if !spec.faults.is_empty() {
                spec.validate_faults()?;
                fabric
                    .set_faults(spec.faults.clone())
                    .map_err(|e| ScenarioError::Fault(e.to_string()))?;
            }
            let Some(warmup_ticks) = run_warmup_ctl(fabric.as_mut(), &mut source, spec.phases, ctl)
            else {
                return Ok(cancelled(fabric.as_mut()));
            };
            if capture {
                let snapshot = fabric
                    .checkpoint()
                    .map_err(|e| ScenarioError::Checkpoint(e.to_string()))?;
                Some(Checkpoint {
                    spec: spec.clone(),
                    warmup_ticks,
                    next_packet_id: source.next_id_preview(),
                    snapshot,
                })
            } else {
                None
            }
        }
    };
    if let (Some(cfg), false) = (telemetry, arm_at_start) {
        fabric.configure_telemetry(cfg);
    }
    let Some(result) = run_measurement_ctl(fabric.as_mut(), &mut source, spec.phases, ctl) else {
        return Ok(cancelled(fabric.as_mut()));
    };
    write_trace_export(spec, &mut source)?;
    let net_cfg = spec.net_config();
    Ok(RunOutcome::Done {
        outcome: SpecOutcome::Synth(synth_point(
            spec.backend,
            name,
            rate,
            result,
            net_cfg.mesh.len(),
            net_cfg.ps_packet_flits,
        )),
        warm: warm_blob,
        telemetry: telemetry.and_then(|_| fabric.telemetry_report()),
    })
}

/// What one scenario spec produced: a synthetic sweep point or a
/// heterogeneous mix result.
#[derive(Clone, Debug)]
pub enum SpecOutcome {
    Synth(SynthPoint),
    Hetero(MixResult),
}

impl SpecOutcome {
    /// The synthetic point; `None` for a hetero mix result.
    pub fn into_synth(self) -> Option<SynthPoint> {
        match self {
            SpecOutcome::Synth(p) => Some(p),
            SpecOutcome::Hetero(_) => None,
        }
    }

    /// Zero the host-timing fields of a synthetic result (`wall_seconds`,
    /// `sim_cycles_per_sec`): they are the only scheduling-dependent
    /// outputs, so zeroing them makes serialised results reproducible.
    pub fn clear_host_timing(&mut self) {
        if let SpecOutcome::Synth(p) = self {
            p.result.wall_seconds = 0.0;
            p.result.sim_cycles_per_sec = 0.0;
        }
    }
}

impl Serialize for SpecOutcome {
    fn to_value(&self) -> Value {
        match self {
            SpecOutcome::Synth(p) => p.to_value(),
            SpecOutcome::Hetero(m) => m.to_value(),
        }
    }
}

/// Run any [`ScenarioSpec`], dispatching on its traffic kind.
///
/// Checkpoint seam: a spec with `checkpoint_from` restores that blob
/// instead of warming up; a spec with `checkpoint_out` captures its
/// warm-up and writes the blob there once the run is done.
pub fn run_spec(spec: &ScenarioSpec) -> Result<SpecOutcome, ScenarioError> {
    run_spec_file(spec, None).map(|(o, _)| o)
}

/// [`run_spec_with`] with the spec's checkpoint file paths mapped onto
/// [`WarmStart`], shared by [`run_spec`] and [`run_sweep`].
fn run_spec_file(
    spec: &ScenarioSpec,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(SpecOutcome, Option<TelemetryReport>), ScenarioError> {
    let restored = spec
        .checkpoint_from
        .as_deref()
        .map(Checkpoint::read)
        .transpose()?;
    let warm = match &restored {
        Some(ck) => WarmStart::Restore(ck),
        None => WarmStart::Fresh {
            capture: spec.checkpoint_out.is_some(),
        },
    };
    let opts = RunOptions {
        telemetry,
        warm,
        control: None,
    };
    let RunOutcome::Done {
        outcome,
        warm,
        telemetry,
    } = run_spec_with(spec, opts)?
    else {
        unreachable!("a run without a control never cancels")
    };
    if let (Some(path), Some(ck)) = (&spec.checkpoint_out, warm) {
        ck.write(path)?;
    }
    Ok((outcome, telemetry))
}

/// Map `f` over `items` on `threads` scoped worker threads (`0` = one per
/// available core, `1` = serial) — the one fan-out every sweep in this
/// crate goes through. Items are split into contiguous chunks, one per
/// worker, and the results come back in input order, so the output does
/// not depend on the thread count as long as `f` depends only on its item.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let workers = match threads {
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .min(items.len())
    .max(1);
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| scope.spawn(move || c.iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for h in handles {
            out.extend(h.join().expect("sweep worker panicked"));
        }
        out
    })
}

/// Run a multi-point sweep on [`par_map`] with `threads` workers. Every
/// point is an independent simulation seeded by its spec, so the outcome
/// vector is **byte-identical for any thread count**. Host-timing fields are
/// zeroed ([`SpecOutcome::clear_host_timing`]) so serialised sweep
/// envelopes stay reproducible across hosts and thread counts. The first
/// spec error (in spec order) is returned, if any.
///
/// With `telemetry`, every spec runs traced under that config and yields
/// its own report (see [`RunOptions::telemetry`] for the arm point);
/// reports ride the same spec-order merge as the outcomes.
///
/// Warm-up fork: when every spec carries the same `checkpoint_from`
/// (what `--checkpoint-from` sets), one paid warm-up fans out into the
/// whole sweep — each point restores the blob and goes straight to its
/// own measurement phase.
pub fn run_sweep(
    specs: &[ScenarioSpec],
    threads: usize,
    telemetry: Option<&TelemetryConfig>,
) -> Result<(Vec<SpecOutcome>, Vec<Option<TelemetryReport>>), ScenarioError> {
    let results = par_map(specs, threads, |s| run_spec_file(s, telemetry));
    let mut outcomes = Vec::with_capacity(results.len());
    let mut reports = Vec::with_capacity(results.len());
    for r in results {
        let (mut o, report) = r?;
        o.clear_host_timing();
        outcomes.push(o);
        reports.push(report);
    }
    Ok((outcomes, reports))
}

/// Handle the shared `--scenario <file>` flag: when present, run the
/// spec(s) from the file and return `true` — the binary should then skip
/// its built-in figure. Scenario errors are fatal (exit code 2).
pub fn scenario_mode_ran() -> bool {
    let specs = match scenario_specs_from_cli() {
        Ok(None) => return false,
        Ok(Some(specs)) => specs,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run_scenario_specs(&specs) {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    true
}

/// Run a list of scenario specs, print a generic result table, and (with
/// `--json <path>`) write the enveloped raw results. With `--trace-out
/// <path>` every spec runs traced: per-spec Chrome trace JSON and link
/// heatmap CSV files are written, and the result envelope (schema v2)
/// gains a `telemetry` block with the aggregates.
fn run_scenario_specs(specs: &[ScenarioSpec]) -> Result<(), ScenarioError> {
    let telemetry = noc_scenario::telemetry_from_cli()?;
    let (outcomes, reports) = run_sweep(
        specs,
        sweep_threads_flag(),
        telemetry.as_ref().map(|(_, cfg)| cfg),
    )?;

    let mut synth_rows = Vec::new();
    let mut hetero_rows = Vec::new();
    for (spec, out) in specs.iter().zip(&outcomes) {
        match out {
            SpecOutcome::Synth(p) => synth_rows.push(vec![
                p.kind.label().to_string(),
                format!("{0}x{0}", spec.mesh),
                p.pattern.to_string(),
                format!("{:.3}", p.rate),
                spec.seed.to_string(),
                format!(
                    "{:.1}{}",
                    p.result.avg_latency,
                    if p.result.saturated { "*" } else { "" }
                ),
                format!("{:.4}", p.result.throughput),
                format!("{:.4}", p.goodput),
                format!("{:.3e}", p.breakdown.total_pj()),
            ]),
            SpecOutcome::Hetero(m) => hetero_rows.push(vec![
                m.kind.label().to_string(),
                m.mix.clone(),
                spec.seed.to_string(),
                format!("{:.1}", m.cpu_latency),
                format!("{:.1}", m.gpu_latency),
                format!("{:.1}", m.cs_flit_fraction * 100.0),
                format!("{:.3e}", m.breakdown.total_pj()),
            ]),
        }
    }
    println!("=== scenario run — {} spec(s) ===\n", specs.len());
    if !synth_rows.is_empty() {
        println!(
            "{}",
            format_table(
                &[
                    "backend",
                    "mesh",
                    "pattern",
                    "rate",
                    "seed",
                    "avg latency",
                    "throughput",
                    "goodput",
                    "energy (pJ)"
                ],
                &synth_rows
            )
        );
        println!("(* = saturated)\n");
    }
    if !hetero_rows.is_empty() {
        println!(
            "{}",
            format_table(
                &[
                    "backend",
                    "mix",
                    "seed",
                    "CPU lat",
                    "GPU lat",
                    "CS flits %",
                    "energy (pJ)"
                ],
                &hetero_rows
            )
        );
    }
    let telemetry_block = match &telemetry {
        Some((path, _)) => Some(write_trace_files(path, &reports)?),
        None => None,
    };
    if let Some(path) = json_flag() {
        write_json(
            &path,
            &result_envelope_with_telemetry(&specs, &outcomes, telemetry_block),
        )?;
        println!("raw results written to {path}");
    }
    Ok(())
}

/// Write the per-spec trace exports: Chrome trace-event JSON to
/// `trace_out` (suffixed `-<i>` before the extension when the sweep has
/// several specs) and the link-utilization heatmap CSV next to it
/// (`<stem>.heatmap.csv`). Returns the envelope `telemetry` block: one
/// aggregate object per spec (`null` for backends without telemetry)
/// plus the spec-order merge of every metrics registry.
fn write_trace_files(
    trace_out: &str,
    reports: &[Option<TelemetryReport>],
) -> Result<Value, ScenarioError> {
    let (stem, ext) = match trace_out.rsplit_once('.') {
        // Treat a dot inside a path component (`results/a.b/x`) as part
        // of the directory, not an extension.
        Some((s, e)) if !e.contains('/') => (s, e),
        _ => (trace_out, "json"),
    };
    let path_for = |i: usize, suffix: &str| -> String {
        if reports.len() == 1 {
            format!("{stem}{suffix}.{ext}")
        } else {
            format!("{stem}-{i}{suffix}.{ext}")
        }
    };
    let mut merged: Option<noc_sim::telemetry::MetricsRegistry> = None;
    for (i, report) in reports.iter().enumerate() {
        let Some(r) = report else { continue };
        let trace_path = path_for(i, "");
        std::fs::write(&trace_path, chrome_trace_json(r))?;
        let heatmap_path = format!(
            "{}.heatmap.csv",
            trace_path
                .strip_suffix(&format!(".{ext}"))
                .unwrap_or(&trace_path)
        );
        std::fs::write(&heatmap_path, link_heatmap_csv(r))?;
        println!(
            "trace written to {trace_path} ({} events), heatmap to {heatmap_path}",
            r.events.len()
        );
        match &mut merged {
            None => merged = Some(r.registry.clone()),
            // Merge only layout-compatible registries; a mixed sweep
            // keeps per-spec aggregates without a cross-spec merge.
            Some(m) if m.names() == r.registry.names() => m.merge(&r.registry),
            Some(_) => {}
        }
    }
    let mut fields = vec![(
        "specs".to_string(),
        Value::Array(reports.iter().map(Serialize::to_value).collect()),
    )];
    if let Some(m) = merged {
        fields.push((
            "merged_metrics".to_string(),
            Value::Object(vec![
                (
                    "metric_names".to_string(),
                    Value::Array(m.names().iter().map(|n| Value::Str(n.clone())).collect()),
                ),
                ("windows".to_string(), m.windows.to_value()),
            ]),
        ));
    }
    Ok(Value::Object(fields))
}

/// The paper's three synthetic patterns (§IV).
pub fn paper_patterns() -> [TrafficPattern; 3] {
    [
        TrafficPattern::UniformRandom,
        TrafficPattern::Tornado,
        TrafficPattern::Transpose,
    ]
}

/// Injection-rate sweep for load–latency curves.
pub fn rate_sweep(quick: bool) -> Vec<f64> {
    if quick {
        vec![0.02, 0.06, 0.12, 0.20, 0.30, 0.42, 0.55, 0.70]
    } else {
        vec![
            0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.36, 0.42, 0.48, 0.55, 0.62, 0.70,
            0.80,
        ]
    }
}

/// Phases sized for the experiment binaries (the paper warms up with 1 000
/// packets and simulates 100 000).
pub fn paper_phases(quick: bool) -> PhaseConfig {
    if quick {
        PhaseConfig {
            warmup_cycles: 1_500,
            warmup_packets: 500,
            measure_cycles: 8_000,
            measure_packets: 30_000,
            drain_cycles: 5_000,
        }
    } else {
        PhaseConfig {
            warmup_cycles: 3_000,
            warmup_packets: 1_000,
            measure_cycles: 25_000,
            measure_packets: 100_000,
            drain_cycles: 10_000,
        }
    }
}

/// Maximum goodput over a sweep — the saturation throughput used by
/// Figure 4's "improve the throughput by …" numbers and Figure 6(a).
pub fn max_goodput(points: &[SynthPoint]) -> f64 {
    points.iter().map(|p| p.goodput).fold(0.0, f64::max)
}

/// Bisection search for a network configuration's saturation injection
/// rate: the highest offered load it still delivers ≥ 95 % of. More
/// principled than max-over-sweep when the sweep grid is coarse; costs
/// `iters` simulation runs.
pub fn find_saturation(
    kind: BackendKind,
    mesh: Mesh,
    pattern: &TrafficPattern,
    phases: PhaseConfig,
    seed: u64,
    iters: u32,
) -> f64 {
    let (mut lo, mut hi) = (0.01, 1.0);
    for _ in 0..iters {
        let mid = 0.5 * (lo + hi);
        let p = run_synthetic(kind, mesh, pattern.clone(), mid, phases, seed);
        if p.result.saturated {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// One chart series: label, plot glyph, and (x, y) points.
pub type Series<'a> = (&'a str, char, Vec<(f64, f64)>);

/// Render an ASCII line chart of several (x, y) series — the textual
/// counterpart of the paper's load–latency figures. Y is clipped to
/// `y_max`; each series draws with its own glyph.
pub fn ascii_chart(
    title: &str,
    series: &[Series],
    y_max: f64,
    width: usize,
    height: usize,
) -> String {
    let x_min = series
        .iter()
        .flat_map(|(_, _, pts)| pts.iter().map(|p| p.0))
        .fold(f64::INFINITY, f64::min);
    let x_max = series
        .iter()
        .flat_map(|(_, _, pts)| pts.iter().map(|p| p.0))
        .fold(f64::NEG_INFINITY, f64::max);
    if !x_min.is_finite() || x_max <= x_min {
        return format!("{title}\n(no data)\n");
    }
    let mut grid = vec![vec![' '; width]; height];
    for (_, glyph, pts) in series {
        for &(x, y) in pts {
            if !y.is_finite() {
                continue;
            }
            let xi = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
            let yc = y.min(y_max).max(0.0);
            let yi = ((yc / y_max) * (height - 1) as f64).round() as usize;
            let row = height - 1 - yi;
            grid[row][xi.min(width - 1)] = *glyph;
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (i, row) in grid.iter().enumerate() {
        let label = if i == 0 {
            format!("{y_max:>7.0} |")
        } else if i == height - 1 {
            format!("{:>7.0} |", 0.0)
        } else {
            "        |".to_string()
        };
        out.push_str(&label);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!(
        "        +{}\n         {x_min:<8.2}{:>w$.2}\n",
        "-".repeat(width),
        x_max,
        w = width - 8
    ));
    for (name, glyph, _) in series {
        out.push_str(&format!("         {glyph} = {name}\n"));
    }
    out
}

/// Render a simple aligned table.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(
        header.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_point_runs_for_every_kind() {
        let mesh = Mesh::square(4);
        let phases = PhaseConfig::quick();
        for kind in BackendKind::SYNTH {
            let p = run_synthetic(kind, mesh, TrafficPattern::Transpose, 0.08, phases, 3);
            assert!(
                p.result.stats.packets_delivered > 50,
                "{}: only {} packets",
                kind.label(),
                p.result.stats.packets_delivered
            );
            assert!(p.result.avg_latency.is_finite());
            assert!(p.breakdown.total_pj() > 0.0);
            assert!(p.goodput > 0.0);
        }
    }

    #[test]
    fn tdm_circuit_switches_transpose() {
        // Transpose has one destination per source: circuits must form.
        let mesh = Mesh::square(6);
        let p = run_synthetic(
            BackendKind::HybridTdmVc4,
            mesh,
            TrafficPattern::Transpose,
            0.20,
            PhaseConfig::quick(),
            5,
        );
        assert!(
            p.result.stats.events.cs_flit_fraction() > 0.10,
            "TR CS fraction {:.3}",
            p.result.stats.events.cs_flit_fraction()
        );
    }

    #[test]
    fn spec_runner_matches_direct_call() {
        // The spec path and the direct call are the same construction and
        // the same engine; on the same seed they must agree exactly.
        let spec = ScenarioSpec::synthetic(
            BackendKind::HybridTdmVct,
            4,
            TrafficPattern::Tornado,
            0.12,
            PhaseConfig::quick(),
            21,
        );
        let via_spec = run_spec(&spec).unwrap().into_synth().unwrap();
        let direct = run_synthetic(
            BackendKind::HybridTdmVct,
            Mesh::square(4),
            TrafficPattern::Tornado,
            0.12,
            PhaseConfig::quick(),
            21,
        );
        assert_eq!(
            via_spec.result.stats.packets_delivered,
            direct.result.stats.packets_delivered
        );
        assert_eq!(
            via_spec.result.stats.latency_sum,
            direct.result.stats.latency_sum
        );
        assert_eq!(via_spec.result.stats.events, direct.result.stats.events);
        assert_eq!(via_spec.goodput, direct.goodput);
    }

    /// `run_sweep` must merge worker chunks back in spec order and zero
    /// the host-timing fields, making the serialised envelope
    /// byte-identical for any thread count at fixed seeds.
    #[test]
    fn run_sweep_is_thread_count_invariant() {
        use noc_traffic::PhaseConfig;

        let specs: Vec<ScenarioSpec> = [(0.05, 11u64), (0.10, 12), (0.08, 13), (0.12, 14)]
            .iter()
            .map(|&(rate, seed)| {
                ScenarioSpec::synthetic(
                    BackendKind::HybridTdmVc4,
                    4,
                    TrafficPattern::UniformRandom,
                    rate,
                    PhaseConfig::quick(),
                    seed,
                )
            })
            .collect();
        let envelope_for = |threads: usize| {
            let (outcomes, _) = run_sweep(&specs, threads, None).expect("sweep runs");
            assert_eq!(outcomes.len(), specs.len());
            serde_json::to_string_pretty(&result_envelope(&specs, &outcomes)).expect("serializable")
        };
        let serial = envelope_for(1);
        assert_eq!(serial, envelope_for(4), "1 vs 4 threads");
        assert_eq!(serial, envelope_for(0), "1 thread vs one-per-core");
        assert!(
            serial.contains("\"nodes_stepped\""),
            "activity stats missing from the envelope"
        );
        assert!(!serial.is_empty());
    }

    /// Tracing only observes: the measurement half of a traced sweep is
    /// byte-identical to an untraced one, and the telemetry reports are
    /// themselves identical across sweep thread counts.
    #[test]
    fn traced_sweep_matches_untraced_and_is_thread_invariant() {
        let specs: Vec<ScenarioSpec> = [(0.06, 31u64), (0.10, 32), (0.14, 33)]
            .iter()
            .map(|&(rate, seed)| {
                ScenarioSpec::synthetic(
                    BackendKind::HybridTdmVc4,
                    4,
                    TrafficPattern::UniformRandom,
                    rate,
                    PhaseConfig::quick(),
                    seed,
                )
            })
            .collect();
        let cfg = noc_sim::TelemetryConfig::default();
        let (untraced, _) = run_sweep(&specs, 1, None).expect("untraced sweep");
        let (t1, r1) = run_sweep(&specs, 1, Some(&cfg)).expect("traced sweep");
        let (t4, r4) = run_sweep(&specs, 4, Some(&cfg)).expect("traced sweep x4");

        let env = |outcomes: &[SpecOutcome]| {
            serde_json::to_string_pretty(&result_envelope(&specs, &outcomes.to_vec()))
                .expect("serializable")
        };
        assert_eq!(env(&untraced), env(&t1), "tracing perturbed the run");
        assert_eq!(env(&t1), env(&t4), "1 vs 4 sweep threads");

        for (r1, r4) in r1.iter().zip(&r4) {
            let (r1, r4) = (r1.as_ref().expect("report"), r4.as_ref().expect("report"));
            assert_eq!(r1.events, r4.events, "telemetry depends on thread count");
            assert_eq!(r1.link_flits, r4.link_flits);
        }
        assert!(r1.iter().any(|r| !r.as_ref().unwrap().events.is_empty()));
    }

    /// End-to-end export: trace + heatmap files land on disk and the CSV
    /// flit column sums to the report's per-link totals.
    #[test]
    fn trace_files_export_and_heatmap_sums_match() {
        let spec = ScenarioSpec::synthetic(
            BackendKind::HybridTdmVc4,
            4,
            TrafficPattern::Transpose,
            0.15,
            PhaseConfig::quick(),
            9,
        );
        let cfg = noc_sim::TelemetryConfig::default();
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
            panic!("a traced TDM run reports telemetry")
        };

        let dir = std::env::temp_dir().join(format!("noc-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace_out = dir.join("trace.json").to_string_lossy().into_owned();
        let block = write_trace_files(&trace_out, std::slice::from_ref(&Some(report.clone())))
            .expect("export writes");

        let trace = std::fs::read_to_string(dir.join("trace.json")).expect("trace file");
        assert!(trace.contains("\"traceEvents\""));
        let csv = std::fs::read_to_string(dir.join("trace.heatmap.csv")).expect("heatmap file");
        // Column 4 is `flits` (the trailing column is `fault_drops`).
        let sum: u64 = csv
            .lines()
            .skip(1)
            .map(|row| row.split(',').nth(4).unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(
            sum,
            report.total_link_flits(),
            "CSV vs envelope link counts"
        );
        let Value::Object(fields) = block else {
            panic!("telemetry block is an object")
        };
        assert_eq!(fields[0].0, "specs");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("bbbb"));
    }

    #[test]
    fn par_map_over_a_slice_preserves_order() {
        let ys = par_map(&[1u32, 2, 3, 4, 5, 6, 7], 0, |&x| x * 10);
        assert_eq!(ys, vec![10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn par_map_over_a_range() {
        let xs: Vec<usize> = (0..100).collect();
        let ys = par_map(&xs, 0, |&i| i * i);
        assert_eq!(ys.len(), 100);
        assert_eq!(ys[9], 81);
        assert_eq!(ys[99], 99 * 99);
    }

    #[test]
    fn par_map_over_owned_items() {
        let xs = [String::from("a"), String::from("bb")];
        assert_eq!(par_map(&xs, 0, |s| s.len()), vec![1, 2]);
    }

    #[test]
    fn par_map_of_nothing_is_empty() {
        let xs: [u32; 0] = [];
        assert!(par_map(&xs, 0, |&x| x).is_empty());
    }

    #[test]
    fn par_map_output_does_not_depend_on_the_thread_count() {
        // More items than workers, and a length no worker count divides,
        // so every run has a short last chunk.
        let xs: Vec<u64> = (0..23).collect();
        let f = |&x: &u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
        let serial = par_map(&xs, 1, f);
        assert_eq!(serial, xs.iter().map(f).collect::<Vec<_>>());
        for threads in [2, 7] {
            assert_eq!(par_map(&xs, threads, f), serial, "{threads} threads");
        }
    }
}

#[cfg(test)]
mod chart_tests {
    use super::*;

    #[test]
    fn chart_renders_all_series() {
        let s = ascii_chart(
            "test",
            &[
                ("a", 'a', vec![(0.0, 10.0), (1.0, 50.0)]),
                ("b", 'b', vec![(0.0, 90.0), (1.0, 500.0)]), // clipped
            ],
            100.0,
            20,
            8,
        );
        assert!(s.contains('a') && s.contains('b'));
        assert!(s.contains("= a") && s.contains("= b"));
        assert!(s.lines().count() >= 10);
    }

    #[test]
    fn saturation_search_brackets_capacity() {
        // A 6x6 mesh under transpose saturates well below 1.0 (bisection
        // limit ≈ 0.33) and well above 0.05.
        let sat = find_saturation(
            BackendKind::PacketVc4,
            Mesh::square(6),
            &TrafficPattern::Transpose,
            PhaseConfig::quick(),
            3,
            5,
        );
        assert!(sat > 0.1 && sat < 0.7, "saturation estimate {sat}");
    }

    #[test]
    fn chart_handles_empty_series() {
        let s = ascii_chart("empty", &[("a", 'a', vec![])], 10.0, 10, 4);
        assert!(s.contains("no data"));
    }
}
