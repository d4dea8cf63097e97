//! Criterion microbenchmarks for the router hot path: cycles/second of the
//! packet-switched pipeline and the TDM hybrid router under load.

use criterion::{criterion_group, criterion_main, Criterion};
use noc_sim::{
    Coord, Flit, Mesh, NodeOutputs, NullCtrl, Packet, PacketId, Port, PsPipeline, RouterConfig,
    Switching,
};
use std::hint::black_box;
use tdm_noc::TdmRouter;

fn feed(p: &mut PsPipeline, now: u64, pid: &mut u64) {
    let mesh = Mesh::square(6);
    let src = mesh.id(Coord::new(0, 3));
    let dst = mesh.id(Coord::new(5, 3));
    for vc in 0..2u8 {
        if p.vc_len(Port::West, vc as usize) < 4 {
            let pkt = Packet::data(PacketId(*pid), src, dst, 1, now);
            *pid += 1;
            let mut f = Flit::of_packet(&pkt, 0, Switching::Packet);
            f.vc = vc;
            p.accept_flit(now, Port::West, f);
        }
    }
}

fn bench_pipeline_step(c: &mut Criterion) {
    c.bench_function("ps_pipeline_step_loaded", |b| {
        let mesh = Mesh::square(6);
        let center = mesh.id(Coord::new(3, 3));
        let mut p = PsPipeline::new(center, mesh, RouterConfig::default());
        let mut out = NodeOutputs::default();
        let mut now = 0u64;
        let mut pid = 0u64;
        b.iter(|| {
            feed(&mut p, now, &mut pid);
            out.clear();
            p.step(now, &mut NullCtrl, &mut out);
            // Return credits so the pipeline keeps flowing.
            for v in 0..4 {
                while p.out_credit(Port::East, v) < 5 {
                    p.accept_credit(noc_sim::Direction::East, noc_sim::Credit { vc: v as u8 });
                }
            }
            now += 1;
            black_box(out.flits.len())
        });
    });
}

fn bench_tdm_router_step(c: &mut Criterion) {
    c.bench_function("tdm_router_step_with_circuits", |b| {
        let mesh = Mesh::square(6);
        let center = mesh.id(Coord::new(3, 3));
        let mut r = TdmRouter::new(center, mesh, RouterConfig::default(), 128, 128, 0.9);
        // Pre-reserve a circuit through the router.
        r.slots
            .try_reserve(Port::West, 0, 4, Port::East, 1, mesh.id(Coord::new(5, 3)))
            .expect("reserve");
        let mut out = NodeOutputs::default();
        let mut now = 0u64;
        let mut pid = 0u64;
        let src = mesh.id(Coord::new(0, 3));
        let dst = mesh.id(Coord::new(5, 3));
        b.iter(|| {
            // A circuit-switched flit in its slot, PS flits otherwise.
            if now.is_multiple_of(128) {
                let pkt = Packet::data(PacketId(pid), src, dst, 1, now);
                pid += 1;
                let f = Flit::of_packet(&pkt, 0, Switching::Circuit);
                r.accept_flit(now, Port::West, f);
            } else if r.pipeline.vc_len(Port::South, 0) < 4 {
                let pkt = Packet::data(PacketId(pid), mesh.id(Coord::new(3, 5)), dst, 1, now);
                pid += 1;
                let mut f = Flit::of_packet(&pkt, 0, Switching::Packet);
                f.vc = 0;
                r.accept_flit(now, Port::South, f);
            }
            out.clear();
            r.step(now, &mut out);
            for v in 0..4u8 {
                while r.pipeline.out_credit(Port::East, v as usize) < 5 {
                    r.pipeline
                        .accept_credit(noc_sim::Direction::East, noc_sim::Credit { vc: v });
                }
            }
            now += 1;
            black_box(out.flits.len())
        });
    });
}

criterion_group!(benches, bench_pipeline_step, bench_tdm_router_step);
criterion_main!(benches);
