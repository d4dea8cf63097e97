//! `perfbench` — the repository benchmark of the NoC simulator's host time.
//!
//! ```text
//! perfbench --workload <mesh1024_ur|paper_64n|serve_sweep> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench --self-test [--workload W]
//! perfbench --print-golden
//! ```
//!
//! A run measures set-up, then repeats passes over the workload for
//! `--seconds`, checks every simulated outcome and prints one line per
//! metric followed by a JSON summary line. `--trace 1` alternates untraced
//! and traced passes and reports the per-layer breakdown instead; its span
//! log is written to `perfbench/out/`. See `perfbench/NOTES.md`.

mod check;
mod points;
mod serve;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use noc_scenario::cache_key::sha256;
use noc_serve::{parse_request, Request, ScenarioService};
use noc_sim::EnergyEvents;

use check::{golden, hex, peak_rss_mb, DEFAULT_SEED};
use points::{build_point_workload, kernel_layer, parse_spec, run_point, PointOutcome};
use serve::{codec_probe, serve_pass, service_config, CodecProbe, ServeOutcome};
use trace::{layer_of, Tracer};
use workloads::{point_specs, serve_lines, Workload};

/// Result-cache hits a service pass collects before it stops replaying.
const MIN_HITS: usize = 100;
/// Fewest timed passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Set-up repetitions before each pass.
const SETUP_REPS: usize = 3;
/// The seed the self-test holds out: self-consistency only, no golden.
const HELD_OUT_SEED: u64 = 7;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
    print_golden: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        self_test: false,
        print_golden: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--self-test" => args.self_test = true,
            "--print-golden" => args.print_golden = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_none() && !args.self_test && !args.print_golden {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// A workload's inputs for one seed.
struct Inputs {
    workload: Workload,
    specs: Vec<String>,
    lines: Vec<String>,
}

impl Inputs {
    fn new(workload: Workload, seed: u64) -> Self {
        Inputs {
            workload,
            specs: point_specs(workload, seed),
            lines: if workload == Workload::ServeSweep {
                serve_lines(seed)
            } else {
                Vec::new()
            },
        }
    }
}

/// One pass over a workload's inputs.
struct Pass {
    seconds: f64,
    points: Vec<PointOutcome>,
    serve: Option<ServeOutcome>,
    attempted: u64,
    failures: Vec<String>,
}

impl Pass {
    /// Digests of the simulated statistics, one per point or request line.
    fn digests(&self) -> Vec<String> {
        match &self.serve {
            Some(s) => s.digests.clone(),
            None => self.points.iter().map(|p| p.digest.clone()).collect(),
        }
    }

    /// The deterministic work counters: summed events and router steps of
    /// the points, or the service counters.
    fn counters(&self) -> String {
        match &self.serve {
            Some(s) => format!("{:?}", s.stats),
            None => {
                let mut ev = EnergyEvents::default();
                let (mut stepped, mut cycles) = (0, 0);
                for p in &self.points {
                    ev.merge(&p.events);
                    stepped += p.window_nodes_stepped;
                    cycles += p.window_node_cycles;
                }
                format!("{ev:?} nodes_stepped={stepped} node_cycles={cycles}")
            }
        }
    }

    /// Simulated node-cycles per second of simulation time.
    fn node_cycles_per_s(&self) -> f64 {
        let (nc, s) = match &self.serve {
            Some(s) => (s.sim_node_cycles, s.sim_s),
            None => self.points.iter().fold((0, 0.0), |(nc, s), p| {
                (nc + p.node_cycles, s + p.run_phases_s)
            }),
        };
        nc as f64 / s
    }
}

fn run_pass(inputs: &Inputs, tr: &mut Tracer) -> Pass {
    tr.begin("perfbench.pass");
    let t = Instant::now();
    let mut pass = Pass {
        seconds: 0.0,
        points: Vec::new(),
        serve: None,
        attempted: 0,
        failures: Vec::new(),
    };
    if inputs.workload == Workload::ServeSweep {
        let s = serve_pass(&inputs.lines, MIN_HITS, tr);
        pass.attempted = s.attempted;
        pass.failures = s.failures.clone();
        pass.serve = Some(s);
    } else {
        for (i, spec) in inputs.specs.iter().enumerate() {
            pass.attempted += 1;
            tr.begin("perfbench.point");
            let r = run_point(spec, tr);
            tr.end();
            match r {
                Ok(p) => {
                    if let Some(f) = &p.failure {
                        pass.failures.push(format!("point {i}: {f}"));
                    }
                    pass.points.push(p);
                }
                Err(e) => pass.failures.push(format!("point {i}: {e}")),
            }
        }
    }
    pass.seconds = t.elapsed().as_secs_f64();
    tr.end();
    pass
}

/// Parse every input and build (then drop) every fabric, workload and
/// service a pass constructs.
fn setup_once(inputs: &Inputs) -> Result<f64, String> {
    let t = Instant::now();
    if inputs.workload == Workload::ServeSweep {
        for line in &inputs.lines {
            let Ok(Request::Run(req)) = parse_request(line, "setup") else {
                return Err(format!("bad request line {line}"));
            };
            let fabric = req.spec.build_fabric().map_err(|e| e.to_string())?;
            let workload = build_point_workload(&req.spec)?;
            std::hint::black_box((fabric, workload));
        }
        std::hint::black_box(ScenarioService::new(service_config()));
    } else {
        for text in &inputs.specs {
            let spec = parse_spec(text)?;
            let fabric = spec.build_fabric().map_err(|e| e.to_string())?;
            let workload = build_point_workload(&spec)?;
            std::hint::black_box((fabric, workload));
        }
    }
    Ok(t.elapsed().as_secs_f64())
}

fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    // Linear interpolation between closest ranks.
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        note: note.into(),
    }
}

/// Median of a timing with its sample count, and p90 once there are at
/// least 100 samples.
fn timing(name: &str, samples: &[f64], unit: &'static str) -> Metric {
    let mut note = format!("median of {}", samples.len());
    if samples.len() >= 100 {
        note += &format!(", p90 {:.6}", quantile(samples, 0.9));
    }
    metric(name, median(samples), unit, note)
}

/// Checks shared by every run: failures, digests repeating across passes,
/// identical work counters, and the golden digests on the default seed.
fn check_passes(w: Workload, seed: u64, passes: &[Pass], failures: &mut Vec<String>) {
    for p in passes {
        failures.extend(p.failures.iter().cloned());
    }
    let Some(first) = passes.first() else {
        return;
    };
    let (digests, counters) = (first.digests(), first.counters());
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.digests() != digests {
            failures.push(format!("pass {i}: digests differ from pass 0"));
        }
        if p.counters() != counters {
            failures.push(format!("pass {i}: work counters differ from pass 0"));
        }
    }
    if seed == DEFAULT_SEED {
        check_golden(w.name(), &digests, failures);
    }
}

fn check_golden(key: &str, digests: &[String], failures: &mut Vec<String>) {
    let want = golden(key);
    if want.len() != digests.len() {
        failures.push(format!(
            "{key}: {} golden digests for {} outcomes",
            want.len(),
            digests.len()
        ));
        return;
    }
    for (i, (got, want)) in digests.iter().zip(&want).enumerate() {
        if got != want {
            failures.push(format!(
                "{key} #{i}: digest {got} differs from golden {want}"
            ));
        }
    }
}

fn combined_digest(digests: &[String]) -> String {
    hex(&sha256(digests.concat().as_bytes()))
}

/// Service latencies, submit to result frame, over the service passes
/// (all zero on the point workloads).
fn serve_latencies(passes: &[Pass]) -> Vec<Metric> {
    let cat = |f: fn(&ServeOutcome) -> &Vec<f64>| -> Vec<f64> {
        passes
            .iter()
            .filter_map(|p| p.serve.as_ref())
            .flat_map(|o| f(o).iter().copied())
            .collect()
    };
    let (cold, fork, hits) = (cat(|o| &o.cold_ms), cat(|o| &o.fork_ms), cat(|o| &o.hit_us));
    let or0 = |x: f64| if x.is_nan() { 0.0 } else { x };
    vec![
        metric(
            "serve.cold_ms",
            or0(median(&cold)),
            "ms",
            format!("median of {}", cold.len()),
        ),
        metric(
            "serve.fork_ms",
            or0(median(&fork)),
            "ms",
            format!("median of {}", fork.len()),
        ),
        metric(
            "serve.hit_us_p50",
            or0(median(&hits)),
            "us",
            format!("median of {}", hits.len()),
        ),
        metric(
            "serve.hit_us_p90",
            or0(quantile(&hits, 0.9)),
            "us",
            format!("p90 of {}", hits.len()),
        ),
    ]
}

/// Outcome of a run: metrics plus the counts of the JSON summary.
struct Report {
    metrics: Vec<Metric>,
    /// Printed with the metrics but not part of the JSON summary.
    extra: Vec<Metric>,
    attempted: u64,
    failures: Vec<String>,
    lines: Vec<String>,
}

fn untraced_run(args: &Args, inputs: &Inputs) -> Result<Report, String> {
    let w = inputs.workload;
    let mut off = Tracer::new(false);
    let (mut setup, mut passes) = (Vec::new(), Vec::new());
    // Set-up and passes take turns, so that both sample the whole run
    // rather than one stretch of it.
    let t = Instant::now();
    while passes.len() < MIN_PASSES || t.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..SETUP_REPS {
            setup.push(setup_once(inputs)?);
        }
        passes.push(run_pass(inputs, &mut off));
    }
    let mut failures = Vec::new();
    check_passes(w, args.seed, &passes, &mut failures);
    let attempted = passes.iter().map(|p| p.attempted).sum();

    let run_s: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let ncps: Vec<f64> = passes.iter().map(Pass::node_cycles_per_s).collect();
    let metrics = vec![
        timing("run_s", &run_s, "s"),
        timing("setup_s", &setup, "s"),
        timing("node_cycles_per_s", &ncps, "1/s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB", "process peak (VmHWM)"),
    ];
    let extra = match w {
        Workload::ServeSweep => serve_latencies(&passes),
        _ => Vec::new(),
    };

    let first = &passes[0];
    let lines = vec![
        format!("counters {}", first.counters()),
        format!("digest {}", combined_digest(&first.digests())),
    ];
    Ok(Report {
        metrics,
        extra,
        attempted,
        failures,
        lines,
    })
}

/// Per-name self time (ns) and calls over a set of traced passes.
#[derive(Default)]
struct SelfTimes(BTreeMap<&'static str, (u64, u64)>);

impl SelfTimes {
    fn ns(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| v.0 as f64)
    }
    fn per_call(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .filter(|v| v.1 > 0)
            .map_or(0.0, |v| v.0 as f64 / v.1 as f64)
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

const LAYERS: [&str; 9] = [
    "traffic",
    "hetero",
    "sim",
    "tdm",
    "sdm",
    "power",
    "scenario",
    "serve",
    "perfbench",
];

fn traced_run(args: &Args, inputs: &Inputs) -> Result<Report, String> {
    let w = inputs.workload;
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut roots = Vec::new();
    let t = Instant::now();
    while traced.len() < 2 || t.elapsed().as_secs_f64() < args.seconds {
        untraced.push(run_pass(inputs, &mut off));
        traced.push(run_pass(inputs, &mut tr));
        roots.push(tr.last_root().expect("a traced pass records its root span"));
    }
    let mut failures = Vec::new();
    let all: Vec<Pass> = untraced.into_iter().chain(traced).collect();
    let (untraced, traced) = all.split_at(all.len() / 2);
    // Traced and untraced passes must agree on every digest and counter.
    check_passes(w, args.seed, &all, &mut failures);
    let attempted = all.iter().map(|p| p.attempted).sum();

    let codec: Option<CodecProbe> = match w {
        Workload::ServeSweep => match codec_probe(&inputs.lines[0]) {
            Ok(c) => {
                if traced[0].digests().first() != Some(&c.digest) {
                    failures
                        .push("restored checkpoint run differs from the served cold run".into());
                }
                Some(c)
            }
            Err(e) => {
                failures.push(format!("codec probe: {e}"));
                None
            }
        },
        _ => None,
    };

    let mut st = SelfTimes::default();
    let mut ratios = Vec::new();
    for &root in &roots {
        let times = tr.self_times(root);
        let sum: u64 = times.values().map(|v| v.0).sum();
        ratios.push(sum as f64 / tr.duration_ns(root) as f64);
        for (name, (ns, calls)) in times {
            let e = st.0.entry(name).or_insert((0, 0));
            e.0 += ns;
            e.1 += calls;
        }
    }
    let mut layer_ns: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, v) in &st.0 {
        *layer_ns.entry(layer_of(name)).or_default() += v.0 as f64;
    }
    let total_ns: f64 = layer_ns.values().sum();

    // Work per kernel layer over the traced passes.
    let mut kernel: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for p in traced.iter().flat_map(|p| &p.points) {
        let e = kernel.entry(kernel_layer(p.kind)).or_default();
        e.0 += p.node_cycles as f64;
        e.1 += p.events.xbar_traversals as f64;
    }
    let first = &traced[0];
    let sum_events = |pred: &dyn Fn(&PointOutcome) -> bool| {
        let mut ev = EnergyEvents::default();
        for p in first.points.iter().filter(|p| pred(p)) {
            ev.merge(&p.events);
        }
        ev
    };
    let all_ev = sum_events(&|_| true);
    let tdm_ev = sum_events(&|p| kernel_layer(p.kind) == "tdm");
    let sdm_ev = sum_events(&|p| kernel_layer(p.kind) == "sdm");
    let window = first.points.iter().fold((0.0, 0.0), |(s, c), p| {
        (
            s + p.window_nodes_stepped as f64,
            c + p.window_node_cycles as f64,
        )
    });
    let synthetic = first.points.iter().filter(|p| !p.hetero);
    let (offered, accepted): (Vec<f64>, Vec<f64>) = match &first.serve {
        Some(s) => (s.offered.clone(), s.accepted.clone()),
        None => synthetic.map(|p| (p.offered, p.accepted)).unzip(),
    };
    let max_latency = match &first.serve {
        Some(s) => s.max_latency,
        None => first
            .points
            .iter()
            .map(|p| p.max_latency)
            .max()
            .unwrap_or(0),
    };
    let serve_stats = first.serve.as_ref().map(|s| s.stats).unwrap_or_default();

    let engine_ns = st.ns("traffic.run_phases");
    let engine_incl = engine_ns
        + [
            "traffic.tick",
            "hetero.tick",
            "sim.inject",
            "sim.step",
            "tdm.step",
            "sdm.step",
        ]
        .iter()
        .map(|n| st.ns(n))
        .sum::<f64>();
    let step = |layer: &str| {
        let (nc, hops) = kernel.get(layer).copied().unwrap_or_default();
        let ns = st.ns(&format!("{layer}.step"));
        (ratio(ns, nc), ratio(ns, hops))
    };
    let (sim_nc, sim_hop) = step("sim");
    let (tdm_nc, tdm_hop) = step("tdm");
    let (sdm_nc, sdm_hop) = step("sdm");
    let traced_s: Vec<f64> = traced.iter().map(|p| p.seconds).collect();
    let untraced_s: Vec<f64> = untraced.iter().map(|p| p.seconds).collect();
    let codec = codec.unwrap_or(CodecProbe {
        checkpoint_ms: 0.0,
        restore_ms: 0.0,
        checkpoint_bytes: 0,
        envelope_us: 0.0,
        digest: String::new(),
    });

    let n = |x: u64| x as f64;
    let mut metrics = vec![
        metric(
            "traffic.tick_ns",
            st.per_call("traffic.tick"),
            "ns",
            "per source tick",
        ),
        metric(
            "traffic.engine_share",
            ratio(engine_ns, engine_incl),
            "ratio",
            "engine self / run_phases",
        ),
        metric(
            "traffic.packets",
            n(first.points.iter().map(|p| p.packets).sum()),
            "count",
            "generated per pass",
        ),
        metric(
            "hetero.tick_ns",
            st.per_call("hetero.tick"),
            "ns",
            "per CPU+GPU mix tick",
        ),
        metric(
            "sim.inject_ns",
            st.per_call("sim.inject"),
            "ns",
            "per packet",
        ),
        metric(
            "sim.step_ns_per_node_cycle",
            sim_nc,
            "ns",
            "packet backends",
        ),
        metric(
            "sim.ns_per_flit_hop",
            sim_hop,
            "ns",
            "packet backends, per crossbar traversal",
        ),
        metric(
            "sim.active_ratio",
            ratio(window.0, window.1),
            "ratio",
            "nodes_stepped / node_cycles",
        ),
        metric(
            "sim.flit_hops",
            n(all_ev.xbar_traversals),
            "count",
            "per pass",
        ),
        metric(
            "sim.buffer_writes",
            n(all_ev.buffer_writes),
            "count",
            "per pass",
        ),
        metric("sim.va_ops", n(all_ev.va_ops), "count", "per pass"),
        metric("sim.sa_ops", n(all_ev.sa_ops), "count", "per pass"),
        metric(
            "sim.nodes_stepped",
            window.0,
            "count",
            "per pass, measurement windows",
        ),
        metric("tdm.step_ns_per_node_cycle", tdm_nc, "ns", "TDM backends"),
        metric("tdm.ns_per_flit_hop", tdm_hop, "ns", "TDM backends"),
        metric(
            "tdm.slot_lookups",
            n(tdm_ev.slot_lookups),
            "count",
            "per pass",
        ),
        metric(
            "tdm.cs_flit_fraction",
            tdm_ev.cs_flit_fraction(),
            "ratio",
            "TDM points",
        ),
        metric(
            "tdm.setup_attempts",
            n(tdm_ev.setup_attempts),
            "count",
            "per pass",
        ),
        metric(
            "tdm.setup_fail_ratio",
            ratio(n(tdm_ev.setup_failures), n(tdm_ev.setup_attempts)),
            "ratio",
            "failures / attempts",
        ),
        metric(
            "tdm.slots_stolen",
            n(tdm_ev.slots_stolen),
            "count",
            "per pass",
        ),
        metric(
            "tdm.resizes",
            n(tdm_ev.slot_table_resizes),
            "count",
            "per pass",
        ),
        metric("sdm.step_ns_per_node_cycle", sdm_nc, "ns", "SDM backend"),
        metric("sdm.ns_per_flit_hop", sdm_hop, "ns", "SDM backend"),
        metric(
            "sdm.cs_flit_fraction",
            sdm_ev.cs_flit_fraction(),
            "ratio",
            "SDM points",
        ),
        metric(
            "power.evaluate_us",
            st.per_call("power.evaluate") / 1e3,
            "us",
            "per point",
        ),
        metric(
            "scenario.parse_us",
            st.per_call("scenario.parse") / 1e3,
            "us",
            "per spec",
        ),
        metric(
            "scenario.build_fabric_ms",
            st.per_call("scenario.build_fabric") / 1e6,
            "ms",
            "per point",
        ),
        metric(
            "scenario.build_workload_ms",
            st.per_call("scenario.build_workload") / 1e6,
            "ms",
            "per point",
        ),
        metric(
            "scenario.checkpoint_ms",
            codec.checkpoint_ms,
            "ms",
            "capture + encode, first line",
        ),
        metric(
            "scenario.restore_ms",
            codec.restore_ms,
            "ms",
            "decode + restore, first line",
        ),
        metric(
            "scenario.checkpoint_bytes",
            n(codec.checkpoint_bytes),
            "bytes",
            "encoded blob",
        ),
        metric(
            "scenario.cache_key_us",
            st.per_call("scenario.cache_key") / 1e3,
            "us",
            "result_key + warmup_key",
        ),
        metric(
            "scenario.envelope_us",
            codec.envelope_us,
            "us",
            "build + serialise one envelope",
        ),
        metric(
            "serve.parse_us",
            st.per_call("serve.parse") / 1e3,
            "us",
            "per request line",
        ),
    ];
    metrics.extend(serve_latencies(untraced));
    metrics.extend([
        metric(
            "serve.cache_hits",
            n(serve_stats.cache_hits),
            "count",
            "per pass",
        ),
        metric(
            "serve.warm_hits",
            n(serve_stats.warm_hits),
            "count",
            "per pass",
        ),
        metric(
            "serve.sim_runs",
            n(serve_stats.sim_runs),
            "count",
            "per pass",
        ),
        metric(
            "serve.hit_ratio",
            ratio(n(serve_stats.cache_hits), n(serve_stats.requests)),
            "ratio",
            "cache_hits / requests",
        ),
        metric(
            "regime.offered",
            mean(&offered),
            "flits/node/cyc",
            "mean over synthetic points",
        ),
        metric(
            "regime.accepted",
            mean(&accepted),
            "flits/node/cyc",
            "mean over synthetic points",
        ),
        metric(
            "regime.max_latency",
            n(max_latency),
            "cycles",
            "largest measured packet latency",
        ),
        metric(
            "regime.saturated_points",
            n(first.points.iter().filter(|p| p.saturated).count() as u64),
            "count",
            "per pass",
        ),
    ]);
    for layer in LAYERS {
        metrics.push(metric(
            &format!("{layer}.self_share"),
            ratio(layer_ns.get(layer).copied().unwrap_or(0.0), total_ns),
            "ratio",
            "share of traced self time",
        ));
    }
    let (traced_run, untraced_run) = (median(&traced_s), median(&untraced_s));
    metrics.extend([
        timing("trace.run_s", &traced_s, "s"),
        timing("trace.untraced_run_s", &untraced_s, "s"),
        metric(
            "trace.overhead_s",
            traced_run - untraced_run,
            "s",
            "traced minus untraced run_s",
        ),
        metric(
            "trace.self_sum_ratio",
            median(&ratios),
            "ratio",
            "sum of self times / traced pass",
        ),
    ]);

    let dir = "perfbench/out";
    let path = format!("{dir}/spans-{}-seed{}.jsonl", w.name(), args.seed);
    let written =
        std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, tr.to_json_lines()));
    let lines = vec![
        format!("counters {}", first.counters()),
        format!("digest {}", combined_digest(&first.digests())),
        match written {
            Ok(()) => format!("spans written to {path}"),
            Err(e) => format!("spans not written ({path}: {e})"),
        },
    ];
    Ok(Report {
        metrics,
        extra: Vec::new(),
        attempted,
        failures,
        lines,
    })
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn print_report(args: &Args, w: Workload, r: &Report) {
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in r.metrics.iter().chain(&r.extra) {
        println!("{:<30} {:>16.6} {:<14} {}", m.name, m.value, m.unit, m.note);
    }
    for l in &r.lines {
        println!("{l}");
    }
    let failed = r.failures.len() as u64;
    for f in &r.failures {
        println!("FAILED {f}");
    }
    println!(
        "failed_frac {} ({failed} of {} specs or requests)",
        ratio(failed as f64, r.attempted as f64),
        r.attempted
    );
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        r.attempted,
        metrics.join(",")
    );
}

/// Run every check the timed runs make, on short runs: the default seed
/// against the golden digests, a held-out seed for self-consistency, the
/// traced run against the untraced one, and each point against
/// `noc_bench::run_spec`.
fn self_test(only: Option<Workload>) -> i32 {
    let mut failures = Vec::new();
    for w in Workload::ALL
        .into_iter()
        .filter(|w| only.is_none_or(|o| o == *w))
    {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            let inputs = Inputs::new(w, seed);
            let mut off = Tracer::new(false);
            let mut on = Tracer::new(true);
            let passes = [
                run_pass(&inputs, &mut off),
                run_pass(&inputs, &mut on),
                run_pass(&inputs, &mut off),
            ];
            let mut f = Vec::new();
            check_passes(w, seed, &passes, &mut f);
            for (i, text) in inputs.specs.iter().enumerate() {
                let spec = parse_spec(text).expect("benchmark specs parse");
                match noc_bench::run_spec(&spec) {
                    Ok(noc_bench::SpecOutcome::Synth(p)) => {
                        if check::stats_digest(&p.result.stats) != passes[0].points[i].digest {
                            f.push(format!("point {i}: run_spec statistics differ"));
                        }
                    }
                    Ok(noc_bench::SpecOutcome::Hetero(m)) => {
                        if check::stats_digest(&m.stats) != passes[0].points[i].digest {
                            f.push(format!("point {i}: run_spec statistics differ"));
                        }
                    }
                    Err(e) => f.push(format!("point {i}: run_spec: {e}")),
                }
            }
            println!(
                "self-test {} seed {seed}: {} ({:.2} s/pass) counters {}",
                w.name(),
                if f.is_empty() { "ok" } else { "FAILED" },
                passes[0].seconds,
                passes[0].counters()
            );
            failures.extend(
                f.into_iter()
                    .map(|e| format!("{} seed {seed}: {e}", w.name())),
            );
        }
    }
    for f in &failures {
        println!("FAILED {f}");
    }
    i32::from(!failures.is_empty())
}

/// Print `golden.json` for the default seed (used when the simulated
/// statistics change on purpose).
fn print_golden() {
    let mut fields = Vec::new();
    for w in Workload::ALL {
        let pass = run_pass(&Inputs::new(w, DEFAULT_SEED), &mut Tracer::new(false));
        fields.push((w.name(), pass.digests()));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, d)| {
            let items: Vec<String> = d.iter().map(|x| format!("    \"{x}\"")).collect();
            format!("  \"{k}\": [\n{}\n  ]", items.join(",\n"))
        })
        .collect();
    println!("{{\n{}\n}}", body.join(",\n"));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.print_golden {
        print_golden();
        return;
    }
    if args.self_test {
        std::process::exit(self_test(args.workload));
    }
    let w = args.workload.expect("checked by parse_args");
    let inputs = Inputs::new(w, args.seed);
    let report = if args.trace {
        traced_run(&args, &inputs)
    } else {
        untraced_run(&args, &inputs)
    };
    match report {
        Ok(r) => {
            print_report(&args, w, &r);
            if !r.failures.is_empty() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
