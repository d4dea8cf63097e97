//! The service workload: one closed-loop client with one request
//! outstanding, driving an in-process `ScenarioService` with one worker.
//! As `noc-serve --workers 1` does, the worker runs inline: the client
//! thread executes each queued job right after submitting it.

use std::sync::mpsc::channel;
use std::time::Instant;

use noc_bench::{SpecOutcome, SynthPoint};
use noc_power::EnergyModel;
use noc_scenario::{
    build_workload, code_version, result_envelope, result_key, warmup_key, Checkpoint, Json,
};
use noc_serve::{parse_request, Request, ScenarioService, ServeConfig, ServeStats};
use noc_traffic::{run_measurement, run_warmup};

use crate::check::json_digest;
use crate::trace::Tracer;

/// What one pass over the request lines produced.
#[derive(Default)]
pub struct ServeOutcome {
    pub cold_ms: Vec<f64>,
    pub fork_ms: Vec<f64>,
    pub hit_us: Vec<f64>,
    /// Stats digest of each line's first-round result.
    pub digests: Vec<String>,
    /// Node-cycles simulated by cold and fork requests, and the client
    /// time those requests took.
    pub sim_node_cycles: u64,
    pub sim_s: f64,
    /// Offered and accepted load (flits/node/cycle) of each line's
    /// first-round result.
    pub offered: Vec<f64>,
    pub accepted: Vec<f64>,
    /// Largest measured packet latency of any result, in cycles.
    pub max_latency: u64,
    pub stats: ServeStats,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// The parts of a result frame the client checks.
struct Frame {
    cache: String,
    warm: String,
    envelope: String,
    stats: Json,
    saturated: bool,
    offered: f64,
    accepted: f64,
}

fn read_frame(frame: &str) -> Result<Frame, String> {
    let j = Json::parse(frame).map_err(|e| format!("unparsable frame: {e}"))?;
    if j.get("kind").and_then(Json::as_str) != Some("result") {
        return Err(format!("not a result frame: {frame}"));
    }
    let label = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
    // The envelope is spliced verbatim after its key, up to the frame's
    // closing brace.
    let at = frame.find("\"envelope\":").ok_or("frame has no envelope")? + "\"envelope\":".len();
    let result = j
        .get("envelope")
        .and_then(|e| e.get("data"))
        .and_then(|d| d.get("result"))
        .ok_or("envelope has no data.result")?;
    Ok(Frame {
        cache: label("cache"),
        warm: label("warm"),
        envelope: frame[at..frame.len() - 1].to_string(),
        stats: result.get("stats").cloned().ok_or("result has no stats")?,
        saturated: result.get("saturated") != Some(&Json::Bool(false)),
        offered: result.get("offered").and_then(Json::as_f64).unwrap_or(0.0),
        accepted: result
            .get("throughput")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
    })
}

fn stat(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(0)
}

pub fn service_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    }
}

/// Send `lines` once, then replay them until at least `min_hits`
/// result-cache hits were served. Replays must return the first round's
/// envelopes byte for byte and simulate nothing.
pub fn serve_pass(lines: &[String], min_hits: usize, tr: &mut Tracer) -> ServeOutcome {
    let mut out = ServeOutcome::default();
    let cv = code_version();
    tr.begin("serve.service_new");
    let svc = ScenarioService::new(service_config());
    tr.end();
    let mut first: Vec<String> = Vec::new();
    let (tx, rx) = channel::<String>();
    let mut round = 0usize;
    while round == 0 || out.hit_us.len() < min_hits {
        let sim_runs_before = svc.stats().sim_runs;
        let hits_before = out.hit_us.len();
        for (i, line) in lines.iter().enumerate() {
            out.attempted += 1;
            let id = format!("r{round}-{i}");
            tr.begin("serve.parse");
            let req = parse_request(line, &id);
            tr.end();
            let req = match req {
                Ok(Request::Run(r)) => r,
                Ok(_) => {
                    out.failures.push(format!("line {i}: not a run request"));
                    continue;
                }
                Err(e) => {
                    out.failures.push(format!("line {i}: {e}"));
                    continue;
                }
            };
            if tr.enabled() {
                tr.begin("scenario.cache_key");
                std::hint::black_box((result_key(&req.spec, &cv), warmup_key(&req.spec, &cv)));
                tr.end();
            }
            let nodes = req.spec.topo().len() as u64;
            let warmup = req.spec.phases.warmup_cycles;

            tr.begin("serve.request");
            let t = Instant::now();
            svc.submit(req, tx.clone());
            svc.run_queued();
            let frame = rx.recv().expect("the service answers every request");
            let dt = t.elapsed().as_secs_f64();

            let f = match read_frame(&frame) {
                Ok(f) => f,
                Err(e) => {
                    tr.end();
                    out.failures.push(format!("{id}: {e}"));
                    continue;
                }
            };
            match (f.cache.as_str(), f.warm.as_str()) {
                ("hit", _) => {
                    tr.end_as("serve.hit");
                    out.hit_us.push(dt * 1e6);
                }
                ("miss", warm) => {
                    let cold = warm != "hit";
                    tr.end_as(if cold { "serve.cold" } else { "serve.fork" });
                    if cold {
                        out.cold_ms.push(dt * 1e3);
                        out.sim_node_cycles += nodes * warmup;
                    } else {
                        out.fork_ms.push(dt * 1e3);
                    }
                    out.sim_node_cycles += stat(&f.stats, "node_cycles");
                    out.sim_s += dt;
                }
                (other, _) => {
                    tr.end();
                    out.failures
                        .push(format!("{id}: unexpected cache label {other:?}"));
                }
            }

            tr.begin("perfbench.check");
            let offered = stat(&f.stats, "packets_offered");
            let delivered = stat(&f.stats, "packets_delivered");
            if f.saturated || delivered < offered || delivered == 0 {
                out.failures.push(format!(
                    "{id}: saturated or undelivered ({delivered} of {offered})"
                ));
            }
            if round == 0 {
                out.digests.push(json_digest(&f.stats));
                out.offered.push(f.offered);
                out.accepted.push(f.accepted);
                out.max_latency = out.max_latency.max(stat(&f.stats, "latency_max"));
                first.push(f.envelope);
            } else if first.get(i) != Some(&f.envelope) {
                out.failures.push(format!("{id}: replay envelope differs"));
            }
            tr.end();
        }
        if round > 0 && svc.stats().sim_runs != sim_runs_before {
            out.failures.push(format!("replay round {round} simulated"));
        }
        if round > 0 && out.hit_us.len() == hits_before {
            out.failures
                .push(format!("replay round {round} served no cache hit"));
            break;
        }
        round += 1;
    }
    out.stats = svc.stats();
    out
}

/// Timings of the checkpoint codec and the envelope, the per-request
/// costs a cold (capture) or fork (restore) request pays inside the
/// service, measured by calling the same public functions on the first
/// line's spec. The restored run must match that line's served result.
pub struct CodecProbe {
    pub checkpoint_ms: f64,
    pub restore_ms: f64,
    pub checkpoint_bytes: u64,
    pub envelope_us: f64,
    pub digest: String,
}

pub fn codec_probe(line: &str) -> Result<CodecProbe, String> {
    let Ok(Request::Run(req)) = parse_request(line, "probe") else {
        return Err("probe line is not a run request".into());
    };
    let spec = req.spec;
    let err = |e: noc_scenario::ScenarioError| e.to_string();
    let mut fabric = spec.build_fabric().map_err(err)?;
    let mut source = build_workload(&spec).map_err(err)?.ok_or("no workload")?;
    let warmup_ticks = run_warmup(fabric.as_mut(), &mut source, spec.phases);

    let t = Instant::now();
    let snapshot = fabric.checkpoint().map_err(|e| e.to_string())?;
    let blob = Checkpoint {
        spec: spec.clone(),
        warmup_ticks,
        next_packet_id: source.next_id_preview(),
        snapshot,
    }
    .encode();
    let checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut restored = spec.build_fabric().map_err(err)?;
    let mut source = build_workload(&spec).map_err(err)?.ok_or("no workload")?;
    let t = Instant::now();
    let ck = Checkpoint::decode(&blob).map_err(err)?;
    restored.restore(&ck.snapshot).map_err(|e| e.to_string())?;
    let restore_ms = t.elapsed().as_secs_f64() * 1e3;
    source.skip_ticks(ck.warmup_ticks);
    source.skip_to(ck.next_packet_id);
    let result = run_measurement(restored.as_mut(), &mut source, spec.phases);
    let digest = crate::check::stats_digest(&result.stats);

    let point = SynthPoint {
        kind: spec.backend,
        pattern: "probe",
        rate: result.offered,
        breakdown: EnergyModel::default().evaluate_stats(&result.stats),
        goodput: 0.0,
        result,
    };
    let t = Instant::now();
    let envelope = serde_json::to_string(&result_envelope(&spec, &SpecOutcome::Synth(point)))
        .expect("envelopes serialise");
    let envelope_us = t.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(envelope);
    Ok(CodecProbe {
        checkpoint_ms,
        restore_ms,
        checkpoint_bytes: blob.len() as u64,
        envelope_us,
        digest,
    })
}
