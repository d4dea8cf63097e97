//! Table III: GPU traffic injection ratio and the percentage of flits that
//! are circuit-switched under Hybrid-TDM-VC4, per GPU benchmark (averaged
//! over the CPU benchmarks it is mixed with).

use noc_bench::{format_table, par_map, quick_flag, scenario_mode_ran, BackendKind};
use noc_hetero::{mix_phases, run_mix, CPU_BENCHES, GPU_BENCHES};

/// Paper values for reference output.
const PAPER: [(&str, f64, f64); 7] = [
    ("BLACKSCHOLES", 0.18, 55.7),
    ("HOTSPOT", 0.09, 29.1),
    ("LIB", 0.20, 34.4),
    ("LPS", 0.20, 55.0),
    ("NN", 0.18, 38.9),
    ("PATHFINDER", 0.13, 49.1),
    ("STO", 0.05, 18.5),
];

fn main() {
    if scenario_mode_ran() {
        return;
    }
    let quick = quick_flag();
    let phases = mix_phases(quick);
    // Average each GPU benchmark over a set of CPU mixes.
    let cpus: Vec<_> = if quick {
        CPU_BENCHES.iter().take(2).collect()
    } else {
        CPU_BENCHES.iter().collect()
    };

    let results: Vec<(f64, f64)> = par_map(&GPU_BENCHES, 0, |gpu| {
        let mut inj = 0.0;
        let mut cs = 0.0;
        for (ci, cpu) in cpus.iter().enumerate() {
            let r = run_mix(cpu, gpu, BackendKind::HybridTdmVc4, phases, 100 + ci as u64)
                .expect("mix runs");
            inj += r.gpu_injection;
            cs += r.cs_flit_fraction;
        }
        let n = cpus.len() as f64;
        (inj / n, cs / n * 100.0)
    });

    println!("=== Table III — GPU injection ratio and circuit-switched flit percentage (Hybrid-TDM-VC4) ===");
    let mut rows = Vec::new();
    for ((inj, cs), (name, p_inj, p_cs)) in results.into_iter().zip(PAPER) {
        rows.push(vec![
            name.to_string(),
            format!("{inj:.2}"),
            format!("{p_inj:.2}"),
            format!("{cs:.1}"),
            format!("{p_cs:.1}"),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "GPU benchmark",
                "inj (model)",
                "inj (paper)",
                "CS % (model)",
                "CS % (paper)"
            ],
            &rows
        )
    );
}
