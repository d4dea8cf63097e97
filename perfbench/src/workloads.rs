//! The benchmark's inputs, generated from `--seed`.
//!
//! Every input is a JSON text — a scenario spec or a `noc-serve` request
//! line — so the program sees only what a user would hand it, and the
//! benchmark times the parsing too. Spec seeds are derived from the
//! benchmark seed; nothing else varies with it.

/// The benchmark workloads (see `BENCHMARK.json` for why each was chosen).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 32×32 mesh, uniform random at 0.04 flits/node/cycle, on the packet
    /// and the TDM hybrid backend: the per-hop kernel does the work.
    Mesh1024Ur,
    /// The paper's experiments on 8×8 (synthetic) and 6×6 (CPU+GPU
    /// mixes), run serially: source, engine and activity scheduler weigh
    /// in; the only workload with SDM and live circuits.
    Paper64n,
    /// A closed-loop client driving an in-process `ScenarioService`: cold,
    /// warm-up-fork and result-cache-hit requests.
    ServeSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Mesh1024Ur,
        Workload::Paper64n,
        Workload::ServeSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Mesh1024Ur => "mesh1024_ur",
            Workload::Paper64n => "paper_64n",
            Workload::ServeSweep => "serve_sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64: derives independent spec seeds from the benchmark seed.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    // Spec seeds travel through JSON numbers (f64): keep them exact.
    (z ^ (z >> 31)) & 0xFFFF_FFFF
}

/// A measurement window that never stops on its packet cap.
const NO_PACKET_CAP: u64 = 1_000_000_000;

fn phases(
    warmup: u64,
    warmup_packets: u64,
    measure: u64,
    measure_packets: u64,
    drain: u64,
) -> String {
    format!(
        "{{\"warmup_cycles\":{warmup},\"warmup_packets\":{warmup_packets},\
         \"measure_cycles\":{measure},\"measure_packets\":{measure_packets},\
         \"drain_cycles\":{drain}}}"
    )
}

fn synthetic(
    backend: &str,
    mesh: u16,
    pattern: &str,
    rate: f64,
    phases: &str,
    seed: u64,
) -> String {
    format!(
        "{{\"backend\":\"{backend}\",\"mesh\":{mesh},\"pattern\":\"{pattern}\",\
         \"rate\":{rate},\"phases\":{phases},\"seed\":{seed}}}"
    )
}

/// The scenario specs of a point workload, in run order.
pub fn point_specs(w: Workload, seed: u64) -> Vec<String> {
    match w {
        Workload::Mesh1024Ur => {
            let ph = phases(1_000, 0, 4_000, NO_PACKET_CAP, 10_000);
            ["PacketVc4", "HybridTdmVc4"]
                .iter()
                .enumerate()
                .map(|(i, b)| synthetic(b, 32, "UR", 0.04, &ph, mix(seed, i as u64)))
                .collect()
        }
        Workload::Paper64n => {
            // The paper's §IV phases (fig4/fig5 without --quick).
            let ph = phases(3_000, 1_000, 25_000, 100_000, 10_000);
            let mut specs = Vec::new();
            for b in ["PacketVc4", "HybridSdmVc4", "HybridTdmVc4"] {
                for (pattern, rate) in [("UR", 0.02), ("UR", 0.06), ("TR", 0.04)] {
                    let s = mix(seed, specs.len() as u64);
                    specs.push(synthetic(b, 8, pattern, rate, &ph, s));
                }
            }
            // Figure 8 mixes with the §V phases (the hetero default).
            for (cpu, gpu) in [
                ("AMMP", "BLACKSCHOLES"),
                ("APPLU", "STO"),
                ("AMMP", "HOTSPOT"),
                ("APPLU", "NN"),
            ] {
                let s = mix(seed, specs.len() as u64);
                specs.push(format!(
                    "{{\"backend\":\"HybridTdmHopVct\",\"cpu\":\"{cpu}\",\"gpu\":\"{gpu}\",\"seed\":{s}}}"
                ));
            }
            specs
        }
        Workload::ServeSweep => Vec::new(),
    }
}

/// The `serve_sweep` request lines: two 16×16 groups of eight points.
/// The points of a group share one 10,000-cycle warm-up prefix (same
/// backend, traffic and seed) and differ only in the measurement window,
/// so the first is cold and the other seven fork its warm-up checkpoint.
pub fn serve_lines(seed: u64) -> Vec<String> {
    let mut lines = Vec::new();
    for (g, (backend, pattern)) in [("HybridTdmVc4", "UR"), ("PacketVc4", "TR")]
        .into_iter()
        .enumerate()
    {
        let s = mix(seed, 100 + g as u64);
        for p in 0..8u64 {
            let ph = phases(10_000, 0, 1_000 + 250 * p, NO_PACKET_CAP, 2_000);
            let spec = synthetic(backend, 16, pattern, 0.05, &ph, s);
            lines.push(format!(
                "{{\"op\":\"run\",\"id\":\"g{g}p{p}\",\"spec\":{spec}}}"
            ));
        }
    }
    lines
}
