//! Whole-network step kernel benchmark with machine-readable output:
//! every operating point is measured with a plain `Instant` loop and
//! written as schema-versioned JSON via `--json-out` so regressions can
//! be tracked across commits (`BENCH_network_step.json` at the repo root
//! holds the committed snapshot).
//!
//! Uniform-random traffic on 5-flit packets. The 64-node points cover the
//! packet, TDM and SDM backends; the 1024-node points (32×32 mesh and
//! torus) cover packet and TDM. Point names give the offered load in
//! flits/node/cycle. The `leap` points run near idle: their injection
//! schedule is sampled before the clock starts, and the timed loop
//! replays it with `run_until`, so idle stretches are leapt in O(1)
//! (DESIGN.md §12).
//!
//! Every point reports the flits the fabric accepted per node-cycle over
//! its timed cycles, and is labelled `saturated` when that falls below
//! 95% of the flits the source offered over the same cycles.
//!
//! Flags:
//!   --json-out PATH   write the schema-versioned result envelope
//!   --reps N          timed repetitions per point (default 5; best +
//!                     median are both reported)
//!   --quick           at most 2 reps and a shorter warm-up (CI smoke)
//!   --only SUBSTR     run only the points whose name contains SUBSTR
//!                     (A/B iteration on a single operating point)

use std::time::Instant;

use noc_scenario::synthetic_sdm_config;
use noc_sdm::SdmNode;
use noc_sim::{Fabric, Mesh, Network, NetworkConfig, NodeId, Packet, PacketNode};
use noc_traffic::{SyntheticSource, TrafficPattern};
use serde::Serialize;
use tdm_noc::{TdmConfig, TdmNetwork};

const STEPS: u64 = 512;
const PACKET_FLITS: u8 = 5;
/// Offered loads in flits/node/cycle.
const RATE_HEAVY: f64 = 0.06;
const RATE_LOW: f64 = 0.004;
/// One packet every ~200 cycles on 64 nodes, so most cycles have nothing
/// in flight.
const RATE_NEAR_IDLE: f64 = 0.0004;
/// A point is labelled saturated below this accepted/offered ratio.
const SATURATION_RATIO: f64 = 0.95;

#[derive(Serialize)]
struct Envelope {
    schema_version: u32,
    bench: &'static str,
    steps_per_rep: u64,
    reps: u64,
    points: Vec<Point>,
}

#[derive(Serialize)]
struct Point {
    name: &'static str,
    backend: &'static str,
    nodes: usize,
    topology: &'static str,
    flits_per_node_cycle: f64,
    warmup_cycles: u64,
    /// Wall time of each timed repetition, nanoseconds.
    wall_ns: Vec<u64>,
    best_ns_per_cycle: f64,
    median_ns_per_cycle: f64,
    packets_delivered: u64,
    /// Data flits delivered per node-cycle over the timed cycles.
    accepted_flits_per_node_cycle: f64,
    /// Accepted below 95% of the flits offered over the timed cycles.
    saturated: bool,
}

struct Args {
    json_out: Option<String>,
    reps: u64,
    quick: bool,
    only: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        json_out: None,
        reps: 5,
        quick: false,
        only: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json-out" => {
                args.json_out = Some(it.next().unwrap_or_else(|| {
                    eprintln!("error: --json-out needs a path");
                    std::process::exit(2);
                }));
            }
            "--reps" => {
                args.reps = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("error: --reps needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--quick" => args.quick = true,
            "--only" => {
                args.only = Some(it.next().unwrap_or_else(|| {
                    eprintln!("error: --only needs a point-name substring");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("error: unknown flag {other}");
                eprintln!(
                    "usage: network_step [--json-out PATH] [--reps N] [--quick] [--only SUBSTR]"
                );
                std::process::exit(2);
            }
        }
    }
    if args.quick {
        args.reps = args.reps.min(2);
    }
    args
}

#[derive(Clone, Copy)]
enum Backend {
    Packet,
    Tdm,
    Sdm,
}

impl Backend {
    fn label(self) -> &'static str {
        match self {
            Backend::Packet => "packet",
            Backend::Tdm => "tdm",
            Backend::Sdm => "sdm",
        }
    }

    fn build(self, topo: Mesh) -> Box<dyn Fabric> {
        let net_cfg = NetworkConfig::with_mesh(topo);
        match self {
            Backend::Packet => {
                Box::new(Network::new(topo, |id| PacketNode::new(id, &net_cfg, None)))
            }
            Backend::Tdm => {
                let mut cfg = TdmConfig::vc4(net_cfg);
                cfg.policy.setup_after_msgs = 3;
                if topo.len() > 64 {
                    // §IV-D: 256-entry tables for networks beyond 64 nodes.
                    cfg.slot_capacity = 256;
                }
                Box::new(TdmNetwork::new(cfg))
            }
            Backend::Sdm => {
                let cfg = synthetic_sdm_config(net_cfg);
                Box::new(Network::new(topo, move |id| SdmNode::new(id, &cfg)))
            }
        }
    }
}

/// How the timed loop advances the fabric.
#[derive(Clone, Copy)]
enum Drive {
    /// Tick the source and step once per cycle.
    PerCycle,
    /// Replay a pre-sampled injection schedule with `run_until`.
    Leap,
}

/// One operating point: name, backend, topology, offered load, drive.
type Spec = (&'static str, Backend, Mesh, f64, Drive);

/// Advance a fabric by `cycles` with source injection each cycle.
fn drive(net: &mut dyn Fabric, src: &mut SyntheticSource, cycles: u64) {
    for _ in 0..cycles {
        let now = net.now();
        src.tick(now, true, |n, p| net.inject(n, p));
        net.step();
    }
}

/// Sample the source's injections for the `STEPS` cycles from `start`.
fn sample_schedule(src: &mut SyntheticSource, start: u64) -> Vec<(u64, NodeId, Packet)> {
    let mut sched = Vec::new();
    for t in start..start + STEPS {
        src.tick(t, true, |n, p| sched.push((t, n, p)));
    }
    sched
}

fn measure((name, backend, topo, rate, mode): Spec, warmup: u64, reps: u64) -> Point {
    let mut net = backend.build(topo);
    let mut src = SyntheticSource::new(topo, TrafficPattern::UniformRandom, rate, PACKET_FLITS, 42);
    drive(net.as_mut(), &mut src, warmup);
    let (offered0, flits0) = (net.stats().packets_offered, net.stats().flits_delivered);
    let mut wall_ns = Vec::with_capacity(reps as usize);
    for _ in 0..reps {
        let elapsed = match mode {
            Drive::PerCycle => {
                let t0 = Instant::now();
                drive(net.as_mut(), &mut src, STEPS);
                t0.elapsed()
            }
            Drive::Leap => {
                let start = net.now();
                let sched = sample_schedule(&mut src, start);
                let t0 = Instant::now();
                for (t, n, p) in sched {
                    net.run_until(t);
                    net.inject(n, p);
                }
                net.run_until(start + STEPS);
                t0.elapsed()
            }
        };
        wall_ns.push(elapsed.as_nanos() as u64);
    }
    let node_cycles = (topo.len() as u64 * reps * STEPS) as f64;
    let offered = (net.stats().packets_offered - offered0) as f64 * PACKET_FLITS as f64;
    let accepted = (net.stats().flits_delivered - flits0) as f64;
    let mut sorted = wall_ns.clone();
    sorted.sort_unstable();
    Point {
        name,
        backend: backend.label(),
        nodes: topo.len(),
        topology: if topo.is_torus() { "torus" } else { "mesh" },
        flits_per_node_cycle: rate,
        warmup_cycles: warmup,
        best_ns_per_cycle: sorted[0] as f64 / STEPS as f64,
        median_ns_per_cycle: sorted[sorted.len() / 2] as f64 / STEPS as f64,
        wall_ns,
        packets_delivered: net.stats().packets_delivered,
        accepted_flits_per_node_cycle: accepted / node_cycles,
        saturated: accepted < SATURATION_RATIO * offered,
    }
}

fn main() {
    let args = parse_args();
    let m8 = Mesh::square(8);
    let m32 = Mesh::square(32);
    let t32 = Mesh::torus_square(32);
    use Backend::{Packet, Sdm, Tdm};
    use Drive::{Leap, PerCycle};
    #[rustfmt::skip]
    let specs: [Spec; 13] = [
        ("packet_64n_0.06flits", Packet, m8, RATE_HEAVY, PerCycle),
        ("packet_64n_0.004flits", Packet, m8, RATE_LOW, PerCycle),
        ("packet_64n_0.0004flits_leap", Packet, m8, RATE_NEAR_IDLE, Leap),
        ("tdm_hybrid_64n_0.06flits", Tdm, m8, RATE_HEAVY, PerCycle),
        ("tdm_hybrid_64n_0.004flits", Tdm, m8, RATE_LOW, PerCycle),
        ("tdm_hybrid_64n_0.0004flits_leap", Tdm, m8, RATE_NEAR_IDLE, Leap),
        ("sdm_hybrid_64n_0.004flits", Sdm, m8, RATE_LOW, PerCycle),
        ("packet_1024n_0.06flits", Packet, m32, RATE_HEAVY, PerCycle),
        ("packet_1024n_0.004flits", Packet, m32, RATE_LOW, PerCycle),
        ("packet_1024n_torus_0.06flits", Packet, t32, RATE_HEAVY, PerCycle),
        ("tdm_hybrid_1024n_0.06flits", Tdm, m32, RATE_HEAVY, PerCycle),
        ("tdm_hybrid_1024n_0.004flits", Tdm, m32, RATE_LOW, PerCycle),
        ("tdm_hybrid_1024n_torus_0.004flits", Tdm, t32, RATE_LOW, PerCycle),
    ];

    let mut points = Vec::new();
    println!(
        "{:<34} {:>14} {:>14} {:>12} {:>10}",
        "point", "best ns/cyc", "median ns/cyc", "delivered", "accepted"
    );
    for spec in specs {
        if args
            .only
            .as_ref()
            .is_some_and(|o| !spec.0.contains(o.as_str()))
        {
            continue;
        }
        let warmup = match (spec.2.len() > 64, args.quick) {
            (false, false) => 2_000,
            (false, true) => 500,
            (true, false) => 1_000,
            (true, true) => 300,
        };
        let p = measure(spec, warmup, args.reps);
        println!(
            "{:<34} {:>14.1} {:>14.1} {:>12} {:>10.4}{}",
            p.name,
            p.best_ns_per_cycle,
            p.median_ns_per_cycle,
            p.packets_delivered,
            p.accepted_flits_per_node_cycle,
            if p.saturated { " saturated" } else { "" }
        );
        points.push(p);
    }

    let env = Envelope {
        schema_version: 2,
        bench: "network_step",
        steps_per_rep: STEPS,
        reps: args.reps,
        points,
    };
    if let Some(path) = &args.json_out {
        let json = serde_json::to_string_pretty(&env).expect("serialize");
        std::fs::write(path, json + "\n").expect("write json");
        println!("wrote {path}");
    }
}
