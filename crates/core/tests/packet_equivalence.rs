//! Differential pin: a TDM network that never builds a circuit is the
//! packet-switched network. With `setup_after_msgs = u32::MAX` no setup is
//! ever issued, so every `TdmRouter` step runs the shared VC pipeline with
//! nothing reserved and nothing latched, and the whole fabric must deliver
//! exactly what `Network<PacketNode>` delivers for the same injections:
//! the same packets at the same cycles, the same latency aggregates and
//! the same crossbar traversals.

use noc_sim::{
    DeliveredPacket, Fabric, Mesh, Network, NetworkConfig, NodeId, Packet, PacketId, PacketNode,
};
use tdm_noc::{TdmConfig, TdmNetwork};

/// What the comparison looks at: the measured delivery stream, the latency
/// sum and maximum, and the crossbar traversal count.
type Outcome = (Vec<DeliveredPacket>, u64, u64, u64);

/// Drive `fab` with a fixed pseudo-random injection sequence (about three
/// packets in four per node and round, 5 flits each) and drain it.
fn drive(fab: &mut dyn Fabric) -> Outcome {
    let nodes = fab.mesh().len() as u32;
    fab.set_collect_delivered(true);
    fab.begin_measurement();
    let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
    let mut id = 0u64;
    for _ in 0..60 {
        for s in 0..nodes {
            lcg = lcg
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            if (lcg >> 33).is_multiple_of(4) {
                continue;
            }
            let dst = NodeId((lcg >> 40) as u32 % nodes);
            if dst == NodeId(s) {
                continue;
            }
            let pkt = Packet::data(PacketId(id), NodeId(s), dst, 5, fab.now());
            fab.inject(NodeId(s), pkt);
            id += 1;
        }
        for _ in 0..4 {
            fab.step();
        }
    }
    assert!(fab.drain(20_000), "network failed to drain");
    fab.end_measurement();
    assert_eq!(fab.stats().packets_delivered, id, "lost packets");
    (
        fab.delivered_log().to_vec(),
        fab.stats().latency_sum,
        fab.stats().latency_max,
        fab.total_events().xbar_traversals,
    )
}

#[test]
fn tdm_without_circuits_matches_the_packet_network() {
    for (name, mesh) in [("mesh", Mesh::square(4)), ("torus", Mesh::torus(4, 4))] {
        let mut cfg = TdmConfig {
            net: NetworkConfig::with_mesh(mesh),
            ..TdmConfig::default()
        };
        cfg.policy.setup_after_msgs = u32::MAX;
        let mut tdm = TdmNetwork::new(cfg);
        let tdm_out = drive(&mut tdm);
        let events = tdm.total_events();
        assert_eq!(events.setup_attempts, 0, "{name}: a circuit was requested");
        assert_eq!(
            events.cs_flits_delivered, 0,
            "{name}: a flit rode a circuit"
        );

        let net = cfg.net;
        let mut packet = Network::new(mesh, |id| PacketNode::new(id, &net, None));
        let packet_out = drive(&mut packet);

        assert!(tdm_out.0.len() > 600, "{name}: too little traffic");
        assert_eq!(tdm_out.0, packet_out.0, "{name}: delivered streams differ");
        assert_eq!(tdm_out.1, packet_out.1, "{name}: latency sums differ");
        assert_eq!(tdm_out.2, packet_out.2, "{name}: latency maxima differ");
        assert_eq!(
            tdm_out.3, packet_out.3,
            "{name}: crossbar traversals differ"
        );
    }
}
