//! Aggressive VC power gating (§III-B).
//!
//! The number of active VCs is periodically adjusted: in the paper's policy
//! the signal is the measured VC utilisation µ against
//! `threshold_high`/`threshold_low`; §V-B4 suggests "activating and
//! deactivating VCs based on more accurate metrics, for example, packet
//! latency" — implemented here as the [`GatingMetric::Latency`] variant,
//! which compares the node's delivered-packet latency against a target.
//!
//! A VC being turned off is evacuated first — in this model a deactivated
//! VC simply stops receiving new allocations and its buffers are counted
//! powered until drained, so no packet is ever stranded (see
//! `PsPipeline::powered_buffer_slots`). Downstream/upstream routers learn
//! the new count through the advertisement channel
//! (`NodeOutputs::vc_counts`).

use crate::Cycle;

use super::pipeline::PsPipeline;

/// The signal driving the VC-count decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GatingMetric {
    /// The paper's §III-B policy: VC utilisation µ against the thresholds.
    Utilization,
    /// The paper's §V-B4 suggestion: average delivered-packet latency at
    /// this node against a target; above `target_cycles` one VC set is
    /// activated, below `target_cycles × relax` one is turned off.
    Latency { target_cycles: u64, relax: f64 },
}

/// Thresholds and epoch for the dynamic VC tuning policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GatingConfig {
    /// Sampling epoch in cycles.
    pub epoch: u64,
    /// Activate one more VC when µ exceeds this (utilisation metric).
    pub threshold_high: f64,
    /// Deactivate one VC when µ falls below this (utilisation metric).
    pub threshold_low: f64,
    /// Never go below this many active VCs.
    pub min_vcs: u8,
    /// Decision signal.
    pub metric: GatingMetric,
}

impl Default for GatingConfig {
    fn default() -> Self {
        GatingConfig {
            epoch: 512,
            threshold_high: 0.40,
            threshold_low: 0.06,
            min_vcs: 2,
            metric: GatingMetric::Utilization,
        }
    }
}

impl GatingConfig {
    /// The §V-B4 latency-driven variant with a given latency target.
    pub fn latency_based(target_cycles: u64) -> Self {
        GatingConfig {
            metric: GatingMetric::Latency {
                target_cycles,
                relax: 0.6,
            },
            ..Default::default()
        }
    }
}

/// Per-router VC gating controller.
#[derive(Clone, Debug)]
pub struct VcGatingController {
    cfg: GatingConfig,
    next_eval: Cycle,
    lat_sum: u64,
    lat_n: u64,
}

impl VcGatingController {
    pub fn new(cfg: GatingConfig) -> Self {
        VcGatingController {
            cfg,
            next_eval: cfg.epoch,
            lat_sum: 0,
            lat_n: 0,
        }
    }

    pub fn config(&self) -> &GatingConfig {
        &self.cfg
    }

    /// Next cycle at which [`VcGatingController::on_cycle`] will evaluate
    /// the policy. The activity scheduler must wake an otherwise-idle node
    /// by this cycle so epoch boundaries are never skipped.
    pub fn next_eval(&self) -> Cycle {
        self.next_eval
    }

    /// Feed a delivered-packet latency observed at this node (used by the
    /// latency metric; harmless otherwise).
    pub fn record_latency(&mut self, latency: u64) {
        self.lat_sum += latency;
        self.lat_n += 1;
    }

    /// Evaluate the policy at `now`. Returns the new active VC count when a
    /// transition happened (the caller advertises it to neighbours and the
    /// local NIC).
    pub fn on_cycle(&mut self, now: Cycle, pipeline: &mut PsPipeline) -> Option<u8> {
        if now < self.next_eval {
            return None;
        }
        self.next_eval = now + self.cfg.epoch;
        let cur = pipeline.active_vcs();
        let max = pipeline.cfg.vcs_per_port;

        let want_grow;
        let want_shrink;
        match self.cfg.metric {
            GatingMetric::Utilization => {
                let u = pipeline.take_utilization();
                want_grow = u > self.cfg.threshold_high;
                want_shrink = u < self.cfg.threshold_low;
            }
            GatingMetric::Latency {
                target_cycles,
                relax,
            } => {
                pipeline.take_utilization(); // keep the window rolling
                if self.lat_n == 0 {
                    // No deliveries at all: the node is idle — shrink.
                    want_grow = false;
                    want_shrink = true;
                } else {
                    let avg = self.lat_sum as f64 / self.lat_n as f64;
                    want_grow = avg > target_cycles as f64;
                    want_shrink = avg < target_cycles as f64 * relax;
                }
                self.lat_sum = 0;
                self.lat_n = 0;
            }
        }

        let next = if want_grow && cur < max {
            cur + 1
        } else if want_shrink && cur > self.cfg.min_vcs {
            cur - 1
        } else {
            return None;
        };
        pipeline.set_active_vcs(next);
        pipeline.events.vc_gating_transitions += 1;
        Some(next)
    }
}

impl VcGatingController {
    /// Serialise the mutable controller state. The policy configuration is
    /// rebuilt from the scenario at construction and is not part of the
    /// snapshot.
    pub fn save_state(&self, w: &mut crate::snapshot::SnapshotWriter) {
        w.u64(self.next_eval);
        w.u64(self.lat_sum);
        w.u64(self.lat_n);
    }

    /// Inverse of [`VcGatingController::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut crate::snapshot::SnapshotReader,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.next_eval = r.u64()?;
        self.lat_sum = r.u64()?;
        self.lat_n = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterConfig;
    use crate::flit::{Flit, Packet, PacketId, Switching};
    use crate::geometry::{Coord, Port};
    use crate::node::NodeOutputs;
    use crate::router::NullCtrl;
    use crate::topology::Mesh;

    fn pipeline() -> PsPipeline {
        let m = Mesh::square(3);
        PsPipeline::new(m.id(Coord::new(1, 1)), m, RouterConfig::default())
    }

    #[test]
    fn gates_down_when_idle() {
        let mut p = pipeline();
        let mut g = VcGatingController::new(GatingConfig {
            epoch: 10,
            ..Default::default()
        });
        let mut out = NodeOutputs::default();
        let mut transitions = Vec::new();
        for now in 0..35 {
            p.step(now, &mut NullCtrl, &mut out);
            if let Some(n) = g.on_cycle(now, &mut p) {
                transitions.push(n);
            }
        }
        // Idle network: 4 → 3 → 2 over two epochs, stopping at min_vcs.
        assert_eq!(transitions, vec![3, 2]);
        assert_eq!(p.active_vcs(), 2);
        assert_eq!(p.events.vc_gating_transitions, 2);
    }

    #[test]
    fn never_below_min() {
        let mut p = pipeline();
        let cfg = GatingConfig {
            epoch: 5,
            min_vcs: 2,
            ..Default::default()
        };
        let mut g = VcGatingController::new(cfg);
        let mut out = NodeOutputs::default();
        for now in 0..200 {
            p.step(now, &mut NullCtrl, &mut out);
            g.on_cycle(now, &mut p);
        }
        assert_eq!(p.active_vcs(), 2);
    }

    #[test]
    fn reactivates_under_load() {
        let m = Mesh::square(3);
        let mut p = pipeline();
        p.set_active_vcs(1);
        let mut g = VcGatingController::new(GatingConfig {
            epoch: 8,
            ..Default::default()
        });
        let mut out = NodeOutputs::default();
        // Keep all VCs busy: saturate with undeliverable-but-buffered flits
        // by never returning credits downstream.
        let dst = m.id(Coord::new(2, 1));
        let src = m.id(Coord::new(0, 1));
        let mut pid = 0u64;
        let mut grew = false;
        for now in 0..64 {
            for vc in 0..4u8 {
                if p.vc_len(Port::West, vc as usize) < 5 {
                    let pk = Packet::data(PacketId(pid), src, dst, 1, now);
                    pid += 1;
                    let mut f = Flit::of_packet(&pk, 0, Switching::Packet);
                    f.vc = vc;
                    p.accept_flit(now, Port::West, f);
                }
            }
            p.step(now, &mut NullCtrl, &mut out);
            if let Some(n) = g.on_cycle(now, &mut p) {
                assert!(n > 1);
                grew = true;
                break;
            }
        }
        assert!(grew, "high utilisation must reactivate VCs");
    }

    #[test]
    fn latency_metric_tracks_samples() {
        let mut p = pipeline();
        let cfg = GatingConfig::latency_based(40);
        let mut g = VcGatingController::new(cfg);
        let mut out = NodeOutputs::default();

        // High latencies → grow (from a reduced starting point).
        p.set_active_vcs(2);
        for now in 0..513 {
            p.step(now, &mut NullCtrl, &mut out);
            for _ in 0..3 {
                g.record_latency(90);
            }
            if let Some(n) = g.on_cycle(now, &mut p) {
                assert_eq!(n, 3, "high latency must add a VC");
                break;
            }
        }
        assert_eq!(p.active_vcs(), 3);

        // Low latencies → shrink.
        let mut g = VcGatingController::new(cfg);
        for now in 0..513 {
            p.step(now, &mut NullCtrl, &mut out);
            g.record_latency(10);
            if let Some(n) = g.on_cycle(now, &mut p) {
                assert_eq!(n, 2, "low latency must remove a VC");
                break;
            }
        }
        assert_eq!(p.active_vcs(), 2);
    }

    #[test]
    fn latency_metric_idle_node_shrinks() {
        let mut p = pipeline();
        let mut g = VcGatingController::new(GatingConfig::latency_based(40));
        let mut out = NodeOutputs::default();
        let mut transitions = Vec::new();
        for now in 0..2_000 {
            p.step(now, &mut NullCtrl, &mut out);
            if let Some(n) = g.on_cycle(now, &mut p) {
                transitions.push(n);
            }
        }
        assert_eq!(transitions, vec![3, 2], "idle node must gate down to min");
    }
}
