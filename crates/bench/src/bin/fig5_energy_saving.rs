//! Figure 5: network energy saving as a function of injection rate under
//! synthetic traffic, for Hybrid-TDM-VC4 and Hybrid-TDM-VCt, relative to
//! the Packet-VC4 baseline.
//!
//! Paper shape to reproduce: small (even negative) savings for UR at low
//! injection rates — the fully-powered 128-entry slot tables cost more
//! leakage than the few circuits save — growing savings with rate, and
//! VCt adding 2.4–10.9 % (UR), 2.6–10.0 % (TOR), 4.1–9.7 % (TR) over VC4.

use noc_bench::{
    format_table, json_flag, paper_patterns, paper_phases, par_map, quick_flag, result_envelope,
    run_synthetic, scenario_mode_ran, write_json, BackendKind, ScenarioSpec, SynthPoint,
};
use noc_sim::Mesh;

fn main() {
    if scenario_mode_ran() {
        return;
    }
    let quick = quick_flag();
    let mesh = Mesh::square(6);
    let phases = paper_phases(quick);
    // Stay below saturation: energy ratios at saturation are dominated by
    // undelivered traffic.
    let rates: Vec<f64> = if quick {
        vec![0.05, 0.12, 0.20, 0.30, 0.42]
    } else {
        vec![0.02, 0.05, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.36, 0.42]
    };

    let mut all_points: Vec<SynthPoint> = Vec::new();
    let mut all_specs: Vec<ScenarioSpec> = Vec::new();
    for pattern in paper_patterns() {
        // Sample below the baseline's saturation (the paper does the same
        // for Figure 6: "sampled at 75% capacity before Packet-VC4
        // saturates"): past saturation the two networks no longer do the
        // same work and the energy ratio is meaningless.
        let max_rate = if pattern.name() == "TR" { 0.26 } else { 0.45 };
        let rates: Vec<f64> = rates.iter().copied().filter(|r| *r <= max_rate).collect();
        let kinds = [
            BackendKind::PacketVc4,
            BackendKind::HybridTdmVc4,
            BackendKind::HybridTdmVct,
        ];
        let mut jobs = Vec::new();
        for kind in kinds {
            for &rate in &rates {
                jobs.push((kind, rate));
            }
        }
        for &(kind, rate) in &jobs {
            let spec = ScenarioSpec::synthetic(kind, 6, pattern.clone(), rate, phases, 23);
            all_specs.push(spec);
        }
        let points: Vec<_> = par_map(&jobs, 0, |&(kind, rate)| {
            (
                kind,
                rate,
                run_synthetic(kind, mesh, pattern.clone(), rate, phases, 23),
            )
        });
        all_points.extend(points.iter().map(|(_, _, p)| p.clone()));

        println!(
            "\n=== Figure 5 — network energy saving vs Packet-VC4, {} ===",
            pattern.name()
        );
        let header = [
            "rate",
            "TDM-VC4 saving %",
            "TDM-VCt saving %",
            "VCt extra %",
        ];
        let mut rows = Vec::new();
        for &rate in &rates {
            let get = |kind: BackendKind| {
                points
                    .iter()
                    .find(|(k, r, _)| *k == kind && (*r - rate).abs() < 1e-9)
                    .map(|(_, _, p)| p.breakdown)
                    .expect("point exists")
            };
            let base = get(BackendKind::PacketVc4);
            let vc4 = get(BackendKind::HybridTdmVc4);
            let vct = get(BackendKind::HybridTdmVct);
            let s4 = vc4.saving_vs(&base) * 100.0;
            let st = vct.saving_vs(&base) * 100.0;
            rows.push(vec![
                format!("{rate:.2}"),
                format!("{s4:+.1}"),
                format!("{st:+.1}"),
                format!("{:+.1}", st - s4),
            ]);
        }
        println!("{}", format_table(&header, &rows));
    }
    println!("paper reference: negative saving for UR at low rates (slot-table leakage);");
    println!("VCt adds 2.4-10.9% (UR), 2.6-10.0% (TOR), 4.1-9.7% (TR) over VC4, gap shrinking with load.");

    if let Some(path) = json_flag() {
        write_json(&path, &result_envelope(&all_specs, &all_points)).expect("write JSON");
        println!("raw points written to {path}");
    }
}
