//! Protocol debugging with the telemetry event stream: watch a circuit get
//! reserved hop by hop, carry traffic, and get torn down.
//!
//! Run with: `cargo run --release --example trace_debugging`

use tdm_hybrid_noc::prelude::*;
use tdm_hybrid_noc::sim::telemetry::PORT_NAMES;
use tdm_hybrid_noc::sim::{EventKind, Switching, TelemetryConfig};

fn main() {
    let mesh = Mesh::square(4);
    let mut cfg = TdmConfig::vc4(NetworkConfig::with_mesh(mesh));
    cfg.slot_capacity = 16;
    cfg.policy.setup_after_msgs = 3;
    cfg.policy.idle_teardown = 300;
    cfg.policy.max_connections = 1;
    let mut net = TdmNetwork::new(cfg);
    net.net.configure_telemetry(&TelemetryConfig {
        capacity: 1 << 16,
        ..TelemetryConfig::default()
    });
    net.net.collect_delivered = true;
    net.begin_measurement();

    let src = NodeId(4); // (0,1)
    let dst = NodeId(7); // (3,1)
    let mut id = 0;

    // Frequent traffic earns a circuit; a later burst to another
    // destination evicts it.
    for _ in 0..15 {
        let pkt = Packet::data(PacketId(id), src, dst, 5, net.now());
        id += 1;
        net.inject(src, pkt);
        net.run(25);
    }
    net.run(400); // idle past the eviction threshold
    let dst2 = NodeId(12); // (0,3)
    for _ in 0..15 {
        let pkt = Packet::data(PacketId(id), src, dst2, 5, net.now());
        id += 1;
        net.inject(src, pkt);
        net.run(25);
    }
    assert!(net.drain(5_000));
    net.end_measurement();
    let report = net.net.take_telemetry().expect("telemetry armed");

    println!("Reservation / release events (port = input port, id = path id):\n");
    for node in 0..mesh.len() as u32 {
        let lines: Vec<String> = report
            .events
            .iter()
            .filter(|e| e.node == node)
            .filter_map(|e| {
                let what = match e.kind {
                    EventKind::CircuitSetup => "RESERVE",
                    EventKind::CircuitTeardown => "RELEASE",
                    _ => return None,
                };
                Some(format!(
                    "  [{:>5}] {what}  in={} path {:#x}",
                    e.cycle, PORT_NAMES[e.port as usize], e.id
                ))
            })
            .collect();
        if !lines.is_empty() {
            println!("node {node}:");
            for l in &lines {
                println!("{l}");
            }
        }
    }

    // Follow one circuit-switched packet end to end.
    let followed = net
        .net
        .delivered_log
        .iter()
        .find(|d| d.switching == Switching::Circuit);
    if let Some(d) = followed {
        println!("\njourney of circuit-switched packet {:?}:", d.id);
        for e in report.events.iter().filter(|e| e.id == d.id.0) {
            let what = match e.kind {
                EventKind::LinkTraverse => "link out",
                EventKind::Eject => "eject",
                _ => continue,
            };
            println!(
                "  [{:>5}] node {:>2} {what} {}",
                e.cycle, e.node, PORT_NAMES[e.port as usize]
            );
        }
        println!("(one traversal every 2 cycles: 1 in the router + 1 on the link — §II-D)");
    }
}
