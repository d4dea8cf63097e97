//! SDM baseline integration: plane exclusivity across a network, the
//! serialisation penalty, and the plane-count ceiling under contention.

use noc_sdm::{SdmConfig, SdmNode};
use noc_sim::{Coord, Mesh, Network, NetworkConfig, NodeId, Packet, PacketId};

fn cfg(k: u16) -> SdmConfig {
    SdmConfig {
        net: NetworkConfig::with_mesh(Mesh::square(k)),
        ..Default::default()
    }
}

fn net(c: SdmConfig) -> Network<SdmNode> {
    Network::new(c.net.mesh, move |id| SdmNode::new(id, &c))
}

fn data(id: u64, src: NodeId, dst: NodeId, now: u64) -> Packet {
    Packet::data(PacketId(id), src, dst, 5, now)
}

#[test]
fn sdm_packet_latency_exceeds_unpartitioned_baseline() {
    // The serialisation penalty (§I: "packet serialisation delay"):
    // the same isolated packet takes visibly longer on the SDM network
    // than on the unpartitioned baseline.
    let c = cfg(5);
    let m = c.net.mesh;
    let (src, dst) = (m.id(Coord::new(0, 2)), m.id(Coord::new(4, 2)));

    let mut sdm = net(c);
    sdm.begin_measurement();
    sdm.inject(src, data(1, src, dst, 0));
    assert!(sdm.drain(2_000));
    sdm.end_measurement();
    let sdm_lat = sdm.stats.avg_latency();

    let base_cfg = c.net;
    let mut base = Network::new(m, |id| noc_sim::PacketNode::new(id, &base_cfg, None));
    base.begin_measurement();
    base.inject(src, data(1, src, dst, 0));
    assert!(base.drain(2_000));
    base.end_measurement();
    let base_lat = base.stats.avg_latency();

    assert!(
        sdm_lat > base_lat + 5.0,
        "SDM {sdm_lat} vs baseline {base_lat}: serialisation penalty missing"
    );
}

#[test]
fn circuits_on_different_planes_coexist_on_one_link() {
    // Two sources behind the same column send to two destinations through
    // shared links; both earn circuits (different planes) and both stream.
    let c = cfg(5);
    let m = c.net.mesh;
    let mut n = net(c);
    let s1 = m.id(Coord::new(0, 2));
    let s2 = m.id(Coord::new(0, 2)); // same source node, two destinations
    let d1 = m.id(Coord::new(4, 2));
    let d2 = m.id(Coord::new(3, 2));
    let mut id = 0;
    for _ in 0..40 {
        let now = n.now();
        n.inject(s1, data(id, s1, d1, now));
        id += 1;
        n.inject(s2, data(id, s2, d2, now));
        id += 1;
        n.run(25);
    }
    assert!(n.drain(8_000));
    let node = &n.nodes[s1.index()];
    assert!(node.registry.get(d1).is_some(), "first circuit missing");
    assert!(node.registry.get(d2).is_some(), "second circuit missing");
    let (p1, p2) = (
        node.registry.get(d1).unwrap().slot,
        node.registry.get(d2).unwrap().slot,
    );
    assert_ne!(
        p1, p2,
        "two circuits cannot share a plane on the same links"
    );
    let ev = n.total_events();
    assert!(ev.cs_flits_delivered > 50, "circuits unused");
}

#[test]
fn plane_exhaustion_fails_further_setups_until_capacity_frees() {
    // With 4 planes (3 circuit-capable), a fourth same-source circuit
    // cannot form.
    let c = cfg(5);
    let m = c.net.mesh;
    let mut n = net(c);
    let src = m.id(Coord::new(0, 2));
    let dsts = [
        m.id(Coord::new(4, 0)),
        m.id(Coord::new(4, 1)),
        m.id(Coord::new(4, 3)),
        m.id(Coord::new(4, 4)),
    ];
    let mut id = 0;
    for _ in 0..80 {
        for &d in &dsts {
            let now = n.now();
            n.inject(src, data(id, src, d, now));
            id += 1;
        }
        n.run(30);
    }
    assert!(n.drain(10_000));
    let established = dsts
        .iter()
        .filter(|d| n.nodes[src.index()].registry.get(**d).is_some())
        .count();
    assert!(
        established <= 3,
        "{established} circuits exceed the plane ceiling"
    );
    assert!(n.total_events().setup_failures > 0, "the ceiling never bit");
}

#[test]
fn sdm_network_is_deterministic() {
    let run = || {
        let c = cfg(4);
        let m = c.net.mesh;
        let mut n = net(c);
        let mut id = 0;
        for round in 0..60u32 {
            for src in m.nodes() {
                if (src.0 + round) % 4 == 0 {
                    let dst = NodeId((src.0 * 5 + 3) % 16);
                    if dst != src {
                        let now = n.now();
                        n.inject(src, data(id, src, dst, now));
                        id += 1;
                    }
                }
            }
            n.run(10);
        }
        n.drain(20_000);
        let ev = n.total_events();
        (
            n.stats.packets_delivered,
            ev.cs_flits_delivered,
            ev.buffer_writes,
        )
    };
    assert_eq!(run(), run());
}

/// Digest pin of the SDM router's observable behaviour on a 4×4 mesh and a
/// 4×4 torus: the serialised `NetStats` and the full telemetry event
/// stream (VA/SA grant order is where an arbitration change shows first).
/// Traffic repeats a few flows per source so circuits form, and enough of
/// them compete for the three circuit planes per link that some setups
/// fail: the plane, circuit, ack and teardown paths all run.
#[test]
fn sdm_behaviour_is_pinned_on_mesh_and_torus() {
    use noc_scenario::cache_key::sha256;
    use noc_sim::TelemetryConfig;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn run(mesh: Mesh) -> (String, String, u64, u64) {
        let c = SdmConfig {
            net: NetworkConfig::with_mesh(mesh),
            setup_after_msgs: 2,
            freq_window: 2_048,
            ..Default::default()
        };
        let mut n = net(c);
        n.configure_telemetry(&TelemetryConfig {
            capacity: 1 << 16,
            ..TelemetryConfig::default()
        });
        n.begin_measurement();
        let nodes = mesh.len() as u32;
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut id = 0;
        for _ in 0..100 {
            for s in 0..nodes {
                lcg = lcg
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                if !(lcg >> 33).is_multiple_of(4) {
                    continue;
                }
                let k = (lcg >> 40) as u32 % 3;
                let dst = NodeId((s * 7 + 3 + k * 5) % nodes);
                let src = NodeId(s);
                if dst != src {
                    let now = n.now();
                    n.inject(src, data(id, src, dst, now));
                    id += 1;
                }
            }
            n.run(8);
        }
        assert!(n.drain(20_000), "SDM network failed to drain");
        n.end_measurement();
        let report = n.take_telemetry().expect("telemetry armed");
        assert_eq!(report.dropped, 0, "event ring wrapped: raise capacity");
        let mut bytes = Vec::with_capacity(report.events.len() * 22);
        for e in &report.events {
            bytes.extend_from_slice(&e.cycle.to_le_bytes());
            bytes.extend_from_slice(&e.node.to_le_bytes());
            bytes.push(e.kind as u8);
            bytes.push(e.port);
            bytes.extend_from_slice(&e.id.to_le_bytes());
        }
        let stats = serde_json::to_string(&n.stats).expect("stats serialise");
        (
            hex(&sha256(stats.as_bytes())),
            hex(&sha256(&bytes)),
            n.stats.cs_packets_delivered,
            n.total_events().setup_failures,
        )
    }

    for (name, mesh, want_stats, want_events) in [
        (
            "mesh",
            Mesh::square(4),
            "4c74c897d5d584928c57a9d4e1665aad307693a21f297478c8fe6e83c091ff16",
            "9a6a5021f09c3677ae311c572e90784b94d766ced6d00dce1a044ff475afc963",
        ),
        (
            "torus",
            Mesh::torus(4, 4),
            "116f73aec4efed55d98ed6dec5184f6ad6fe2fe808d50840e2de3192547865ae",
            "45bd22471ad3bc007baf695da99241f07d839d63b1fdf0289d61ac1ab1276924",
        ),
    ] {
        let (stats, events, cs, failures) = run(mesh);
        assert!(cs > 0, "{name}: no circuit-switched packet delivered");
        assert!(failures > 0, "{name}: no setup ever failed");
        assert_eq!(stats, want_stats, "{name}: NetStats digest moved");
        assert_eq!(events, want_events, "{name}: telemetry event digest moved");
    }
}
