//! Shared command-line conventions for the experiment binaries:
//! `--quick`, `--json <path>`, `--scenario <file>`, and the
//! `--trace-out`/`--trace-events`/`--trace-sample`/`--metrics-window`
//! telemetry flags.

use crate::{ScenarioError, ScenarioSpec};
use noc_sim::TelemetryConfig;

/// `--quick` flag for every experiment binary.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}

/// Optional `--json <path>` flag: experiment binaries that support it dump
/// their raw measurement points alongside the printed tables.
pub fn json_flag() -> Option<String> {
    arg_value("--json")
}

/// Optional `--scenario <file>` flag: run the scenario spec(s) from a JSON
/// file instead of the binary's built-in paper configuration.
pub fn scenario_flag() -> Option<String> {
    arg_value("--scenario")
}

/// Optional `--sweep-threads <n>` flag: fan a multi-spec scenario run over
/// `n` worker threads (`0` = one per available core; default `1` =
/// serial). Each sweep point is an independent simulation with its own
/// spec-fixed seed, so the merged results are byte-identical for any
/// thread count.
pub fn sweep_threads_flag() -> usize {
    arg_value("--sweep-threads")
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Optional `--checkpoint-out <path>` flag: capture a checkpoint blob at
/// the end of the scenario's warm-up phase, measure as usual, and write
/// the blob to `path`. Needs a single-spec `--scenario`. With
/// `--trace-out`, tracing arms after the capture (telemetry ring state
/// sits outside the snapshot seam), so the trace covers measurement and
/// drain only.
pub fn checkpoint_out_flag() -> Option<String> {
    arg_value("--checkpoint-out")
}

/// Optional `--checkpoint-from <path>` flag: skip every spec's warm-up by
/// restoring fabric + source state from the blob at `path` — the warm-up
/// fork. Applied to all specs of a sweep, so one warm-up (paid once with
/// `--checkpoint-out`) fans out into many measurement points. With
/// `--trace-out`, tracing arms after the restore: a traced fork's trace
/// covers measurement and drain only.
pub fn checkpoint_from_flag() -> Option<String> {
    arg_value("--checkpoint-from")
}

/// Optional `--trace-in <path>` flag: replace every spec's traffic with a
/// replay of the `NOCTRACE1` packet trace at `path` (binary or JSON-lines
/// twin). The trace is content-hashed, so cache keys and envelope echoes
/// follow the trace bytes, never this path.
pub fn trace_in_flag() -> Option<String> {
    arg_value("--trace-in")
}

/// Optional `--trace-export <path>` flag: record every spec's
/// injection-side packet stream (post-policy) and write it to `path`
/// after the run — binary `NOCTRACE1`, or the JSON-lines twin when the
/// path ends in `.jsonl`. Needs a single-spec scenario.
pub fn trace_export_flag() -> Option<String> {
    arg_value("--trace-export")
}

/// Optional `--profile-circuits <n>` flag: profile each spec's workload,
/// plan circuits for its `n` highest-volume eligible flows and
/// pre-establish them pinned before the run (profiled hybrid switching,
/// vs. the default reactive setup).
pub fn profile_circuits_flag() -> Option<String> {
    arg_value("--profile-circuits")
}

/// Optional `--trace-out <path>` flag: arm flit-lifecycle tracing and
/// write a Chrome trace-event (Perfetto-loadable) JSON to `path`. The
/// companion link-utilization heatmap CSV lands next to it.
pub fn trace_out_flag() -> Option<String> {
    arg_value("--trace-out")
}

/// Optional `--trace-events <categories>` flag: comma-separated event
/// categories (`all`, `flit`, `circuit`, `steal`, `share`, `gating`,
/// `sleep`). Default `all`.
pub fn trace_events_flag() -> Option<String> {
    arg_value("--trace-events")
}

/// Optional `--trace-sample <n>` flag: keep 1-in-`n` flit-lifecycle
/// events (protocol events are never sampled). Default 1 = keep all.
pub fn trace_sample_flag() -> Option<String> {
    arg_value("--trace-sample")
}

/// Optional `--metrics-window <cycles>` flag: snapshot the metrics
/// registry every `cycles` simulated cycles (0 = one whole-run window).
pub fn metrics_window_flag() -> Option<String> {
    arg_value("--metrics-window")
}

/// Build a [`TelemetryConfig`] from the telemetry flags. `Ok(None)`
/// means `--trace-out` is absent and the run is untraced; the other
/// three flags only shape the config when tracing is armed. Returns the
/// trace output path alongside the config.
pub fn telemetry_from_cli() -> Result<Option<(String, TelemetryConfig)>, ScenarioError> {
    let Some(path) = trace_out_flag() else {
        return Ok(None);
    };
    let mut cfg = TelemetryConfig::default();
    if let Some(spec) = trace_events_flag() {
        cfg.mask = noc_sim::telemetry::parse_event_mask(&spec).map_err(ScenarioError::Parse)?;
    }
    if let Some(s) = trace_sample_flag() {
        cfg.sample = s
            .parse()
            .map_err(|_| ScenarioError::Parse(format!("--trace-sample: not a number: {s:?}")))?;
    }
    if let Some(s) = metrics_window_flag() {
        cfg.window = s
            .parse()
            .map_err(|_| ScenarioError::Parse(format!("--metrics-window: not a number: {s:?}")))?;
    }
    Ok(Some((path, cfg)))
}

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Load the `--scenario` file when given: `Ok(None)` means the flag is
/// absent and the binary should run its built-in configuration. The
/// `--checkpoint-out` / `--checkpoint-from` flags are folded into the
/// loaded specs here, so every binary that runs scenarios gets them.
pub fn scenario_specs_from_cli() -> Result<Option<Vec<ScenarioSpec>>, ScenarioError> {
    let Some(path) = scenario_flag() else {
        return Ok(None);
    };
    let mut specs = ScenarioSpec::load(&path)?;
    if let Some(out) = checkpoint_out_flag() {
        if specs.len() != 1 {
            return Err(ScenarioError::Checkpoint(
                "--checkpoint-out needs a single-spec scenario (one warm-up, \
                 one blob)"
                    .into(),
            ));
        }
        if checkpoint_from_flag().is_some() {
            return Err(ScenarioError::Checkpoint(
                "give --checkpoint-out or --checkpoint-from, not both".into(),
            ));
        }
        specs[0].checkpoint_out = Some(out);
    }
    if let Some(from) = checkpoint_from_flag() {
        for s in &mut specs {
            s.checkpoint_from = Some(from.clone());
        }
    }
    if let Some(path) = trace_in_flag() {
        let bytes = std::fs::read(&path)
            .map_err(|e| ScenarioError::Parse(format!("--trace-in {path:?}: {e}")))?;
        let trace = noc_workload::PacketTrace::decode(&bytes)
            .map_err(|e| ScenarioError::Parse(format!("--trace-in {path:?}: {e}")))?;
        let trace = std::sync::Arc::new(trace);
        for s in &mut specs {
            if matches!(s.traffic, crate::TrafficSpec::Hetero { .. }) {
                return Err(ScenarioError::Parse(
                    "--trace-in cannot replace hetero traffic (its runner owns \
                     the workload model)"
                        .into(),
                ));
            }
            let routers = s.topo().len();
            if trace.nodes as usize != routers {
                return Err(ScenarioError::Parse(format!(
                    "--trace-in: trace was captured on {} nodes but the \
                     scenario topology has {routers}",
                    trace.nodes
                )));
            }
            s.traffic = crate::TrafficSpec::trace(std::sync::Arc::clone(&trace));
        }
    }
    if let Some(path) = trace_export_flag() {
        if specs.len() != 1 {
            return Err(ScenarioError::Parse(
                "--trace-export needs a single-spec scenario (one run, one \
                 trace)"
                    .into(),
            ));
        }
        if specs[0].checkpoint_from.is_some() {
            return Err(ScenarioError::Parse(
                "--trace-export cannot restore from a checkpoint: the warm-up \
                 injections it must record are skipped"
                    .into(),
            ));
        }
        specs[0].trace_export = Some(path);
    }
    if let Some(s) = profile_circuits_flag() {
        let n: u32 = s.parse().map_err(|_| {
            ScenarioError::Parse(format!("--profile-circuits: not a number: {s:?}"))
        })?;
        for spec in &mut specs {
            spec.profile_circuits = Some(n);
        }
    }
    Ok(Some(specs))
}
