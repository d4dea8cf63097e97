//! Router microarchitecture.
//!
//! The packet-switched pipeline ([`PsPipeline`]) implements the canonical
//! virtual-channel wormhole router of Figure 2's left half: input buffers
//! organised as per-port VC FIFOs, route computation (X-Y for data,
//! west-first minimal-adaptive for configuration packets on a mesh when
//! `adaptive_config_routing` is set), separable
//! round-robin VC and switch allocation, and a crossbar with credit-based
//! flow control toward each neighbour.
//!
//! Every router model runs this one pipeline. The hybrid routers (TDM in
//! the `tdm-noc` crate, SDM in `noc-sdm`) keep only their circuit side —
//! reservation tables, configuration processing and the single-cycle
//! circuit bypass — and constrain the packet-switched stages through the
//! monomorphised [`HybridCtrl`] hook:
//!
//! * [`HybridCtrl::ps_input_blocked`]: a circuit-switched flit holds the
//!   crossbar input this cycle (TDM).
//! * [`HybridCtrl::ps_admit`]: whether a packet may be granted an output
//!   this cycle — TDM blocks outputs busy with a circuit flit, SDM requires
//!   a free link plane for the packet.
//! * [`HybridCtrl::ps_traversed`]: a granted flit crossed the switch — SDM
//!   binds the packet's plane for `P` cycles (released on the tail), TDM
//!   reports a time-slot steal (§II-D).
//! * [`HybridCtrl::ROTATING_SA_INPUT`]: the input-arbitration rule of the
//!   switch allocator (rotating round-robin, or SDM's fixed priority).
//!
//! [`NullCtrl`] takes every default, so the pure packet router pays
//! nothing for the hooks.

mod gating;
mod packet;
mod pipeline;

pub use gating::{GatingConfig, GatingMetric, VcGatingController};
pub use packet::PacketRouter;
pub use pipeline::{OutMeta, PsPipeline, VcCtl, VcState};

use crate::flit::PacketId;
use crate::geometry::Port;
use crate::Cycle;

/// Hook through which a hybrid switching scheme constrains the
/// packet-switched pipeline. Every method has a default that leaves the
/// pipeline unconstrained; the pipeline is generic over the ctrl type, so
/// unused hooks compile away.
pub trait HybridCtrl {
    /// Switch-allocation input arbitration: `true` rotates a round-robin
    /// pointer per input port; `false` nominates the first eligible VC
    /// starting at `port % vcs` on every cycle (fixed priority).
    const ROTATING_SA_INPUT: bool = true;

    /// Whether crossbar input `p` is taken by a circuit-switched flit this
    /// cycle: the input demultiplexer gives the CS latch priority, so no
    /// buffered packet-switched flit from that port may be granted.
    #[inline]
    fn ps_input_blocked(&self, _now: Cycle, _p: Port) -> bool {
        false
    }

    /// Whether a flit of `packet` may be granted output `o` at cycle `now`
    /// (checked in switch allocation, on every output including Local).
    #[inline]
    fn ps_admit(&self, _now: Cycle, _o: Port, _packet: PacketId) -> bool {
        true
    }

    /// A flit of `packet` admitted by [`HybridCtrl::ps_admit`] crossed the
    /// switch to output `o`; `is_tail` marks the packet's last flit.
    /// Returns whether the flit used an idle circuit reservation — a
    /// time-slot steal (§II-D), counted by the pipeline.
    #[inline]
    fn ps_traversed(&mut self, _now: Cycle, _o: Port, _packet: PacketId, _is_tail: bool) -> bool {
        false
    }
}

/// Control for a pure packet-switched router: nothing is constrained.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullCtrl;

impl HybridCtrl for NullCtrl {}
