//! The baseline packet-switched router (*Packet-VC4* in the paper).

use crate::config::RouterConfig;
use crate::flit::{Credit, Flit};
use crate::geometry::{Direction, NodeId, Port};
use crate::node::NodeOutputs;
use crate::topology::Mesh;
use crate::Cycle;

use super::pipeline::PsPipeline;
use super::NullCtrl;

/// A canonical virtual-channel wormhole router: the [`PsPipeline`] with no
/// hybrid constraints.
#[derive(Clone, Debug)]
pub struct PacketRouter {
    pub pipeline: PsPipeline,
}

impl PacketRouter {
    pub fn new(id: NodeId, mesh: Mesh, cfg: RouterConfig) -> Self {
        PacketRouter {
            pipeline: PsPipeline::new(id, mesh, cfg),
        }
    }

    pub fn accept_flit(&mut self, now: Cycle, port: Port, flit: Flit) {
        self.pipeline.accept_flit(now, port, flit);
    }

    pub fn accept_credit(&mut self, dir: Direction, credit: Credit) {
        self.pipeline.accept_credit(dir, credit);
    }

    pub fn step(&mut self, now: Cycle, out: &mut NodeOutputs) {
        self.pipeline.step(now, &mut NullCtrl, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Packet, PacketId, Switching};
    use crate::geometry::Coord;

    #[test]
    fn multi_hop_route_follows_xy() {
        // Drive a flit across two routers by hand; verify the output
        // directions follow X-then-Y order.
        let m = Mesh::square(4);
        let src = m.id(Coord::new(0, 0));
        let dst = m.id(Coord::new(1, 2));
        let mut r0 = PacketRouter::new(src, m, RouterConfig::default());
        let p = Packet::data(PacketId(0), src, dst, 1, 0);
        let mut f = Flit::of_packet(&p, 0, Switching::Packet);
        f.vc = 0;
        r0.accept_flit(0, Port::Local, f);
        let mut out = NodeOutputs::default();
        for now in 0..3 {
            r0.step(now, &mut out);
        }
        assert_eq!(out.flits.len(), 1);
        assert_eq!(out.flits[0].0, Direction::East); // X first

        let mid = m.id(Coord::new(1, 0));
        let mut r1 = PacketRouter::new(mid, m, RouterConfig::default());
        let (_, f) = out.flits.pop().unwrap();
        r1.accept_flit(5, Port::West, f);
        let mut out = NodeOutputs::default();
        for now in 5..8 {
            r1.step(now, &mut out);
        }
        assert_eq!(out.flits.len(), 1);
        assert_eq!(out.flits[0].0, Direction::South); // then Y
    }
}
