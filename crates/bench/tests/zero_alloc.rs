//! Zero-allocation steady-state enforcement (DESIGN.md §17).
//!
//! The flit-slab datapath removes per-VC `VecDeque` churn; the remaining
//! per-cycle containers (NIC inject queue, ejected scratch, local-credit
//! scratch, the source's pending-packet buffer) reach a steady-state
//! capacity during warm-up and must never grow again. A counting
//! `#[global_allocator]` pins this: after 2k warm-up cycles, 1k further
//! cycles of inject + step on a loaded 8×8 fabric must perform **zero**
//! heap allocations, on the packet-switched, TDM and SDM hybrid backends.
//!
//! The same allocator also counts live heap bytes, which pins that a
//! fabric's per-node memory does not grow with the mesh size.
//!
//! This lives in its own integration-test binary because a global
//! allocator is per-binary state; the tests serialise on a mutex so the
//! armed counter is never shared between concurrently running tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use noc_scenario::backend::synthetic_sdm_config;
use noc_scenario::{build_fabric, BackendKind, Tuning};
use noc_sdm::SdmNode;
use noc_sim::{Mesh, Network, NetworkConfig, PacketNode};
use noc_traffic::{SyntheticSource, TrafficPattern};
use tdm_noc::{TdmConfig, TdmNetwork};

/// Counts allocation events (alloc + realloc) while armed. Deallocations
/// are free to happen — shrinking is not growth — but in practice the
/// steady state performs none either. Live heap bytes are tracked
/// always.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

std::thread_local! {
    static IN_HOOK: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn trace_hit(what: &str, size: usize) {
    IN_HOOK.with(|g| {
        if g.replace(true) {
            return;
        }
        if std::env::var_os("ZERO_ALLOC_TRACE").is_some() {
            let bt = std::backtrace::Backtrace::force_capture();
            eprintln!("--- {what} of {size} bytes ---\n{bt}");
        }
        g.set(false);
    });
}

// A global allocator is `unsafe` by definition; this test's counting
// shim is the one `unsafe` site outside `noc_sim::slab`.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            trace_hit("alloc", layout.size());
        }
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            trace_hit("realloc", new_size);
        }
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new_ptr
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Serialises the backend tests (the armed counter is global).
static GATE: Mutex<()> = Mutex::new(());

/// Long enough that every cold-path structure reaches its plateau: flow
/// tables (frequency trackers, connection registries) stop discovering
/// new (src, dst) pairs only after each source has drawn every
/// destination — a coupon-collector horizon of ~63·H(63) ≈ 300 packets
/// per node, ~5k cycles at this rate. Deterministic seed makes this a
/// stable pin rather than a probabilistic one.
const WARMUP_CYCLES: u64 = 8_000;
const MEASURED_CYCLES: u64 = 1_000;
/// 0.06 flits/node/cycle, the `network_step` bench's loaded point (`*_0.06flits`).
const PACKET_RATE: f64 = 0.06;

#[test]
fn packet_steady_state_step_allocates_nothing() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = Mesh::square(8);
    let cfg = NetworkConfig::with_mesh(mesh);
    let mut net = Network::new(mesh, |id| PacketNode::new(id, &cfg, None));
    let mut src = SyntheticSource::new(mesh, TrafficPattern::UniformRandom, PACKET_RATE, 5, 42);

    // Warm-up: every queue reaches its steady-state capacity.
    for _ in 0..WARMUP_CYCLES {
        let t = net.now();
        src.tick(t, true, |n, p| net.inject(n, p));
        net.step();
    }

    ALLOC_EVENTS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..MEASURED_CYCLES {
        let t = net.now();
        src.tick(t, true, |n, p| net.inject(n, p));
        net.step();
    }
    ARMED.store(false, Ordering::SeqCst);
    let events = ALLOC_EVENTS.load(Ordering::SeqCst);

    assert!(net.stats.packets_delivered > 0, "fabric carried no traffic");
    assert_eq!(
        events, 0,
        "packet backend allocated {events} times across {MEASURED_CYCLES} warm cycles"
    );
}

/// The TDM backend uses a fixed permutation (transpose) rather than
/// uniform-random traffic: under a stationary pattern the circuit-setup
/// control plane finishes discovering every (src, dst) flow during
/// warm-up, so the measured window pins the pure data plane — CS bursts
/// streaming through recycled buffers, PS fallback, credits, acks — with
/// zero allocations. Uniform-random keeps *discovering* new flows
/// (first circuit to a fresh destination, registry-table doublings)
/// arbitrarily late, which is cold-path setup work, not steady state.
#[test]
fn tdm_steady_state_step_allocates_nothing() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = Mesh::square(8);
    let mut cfg = TdmConfig::vc4(NetworkConfig::with_mesh(mesh));
    cfg.policy.setup_after_msgs = 3;
    let mut net = TdmNetwork::new(cfg);
    let mut src = SyntheticSource::new(mesh, TrafficPattern::Transpose, PACKET_RATE, 5, 42);

    for _ in 0..WARMUP_CYCLES {
        let t = net.now();
        src.tick(t, true, |n, p| net.inject(n, p));
        net.step();
    }

    ALLOC_EVENTS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..MEASURED_CYCLES {
        let t = net.now();
        src.tick(t, true, |n, p| net.inject(n, p));
        net.step();
    }
    ARMED.store(false, Ordering::SeqCst);
    let events = ALLOC_EVENTS.load(Ordering::SeqCst);

    assert!(
        net.stats().packets_delivered > 0,
        "fabric carried no traffic"
    );
    assert_eq!(
        events, 0,
        "TDM backend allocated {events} times across {MEASURED_CYCLES} warm cycles"
    );
}

/// The SDM backend under the same stationary transpose pattern, below its
/// saturation point (plane serialisation caps SDM's packet throughput far
/// under the other backends'): circuits stream their bursts on reserved
/// planes through recycled burst buffers while the packet pipeline carries
/// the rest, all without allocating.
#[test]
fn sdm_steady_state_step_allocates_nothing() {
    const SDM_RATE: f64 = 0.02;
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let mesh = Mesh::square(8);
    let cfg = synthetic_sdm_config(NetworkConfig::with_mesh(mesh));
    let mut net = Network::new(mesh, |id| SdmNode::new(id, &cfg));
    let mut src = SyntheticSource::new(mesh, TrafficPattern::Transpose, SDM_RATE, 5, 42);

    for _ in 0..WARMUP_CYCLES {
        let t = net.now();
        src.tick(t, true, |n, p| net.inject(n, p));
        net.step();
    }

    let cs_before = net.stats.cs_packets_delivered;
    let delivered_before = net.stats.packets_delivered;
    ALLOC_EVENTS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..MEASURED_CYCLES {
        let t = net.now();
        src.tick(t, true, |n, p| net.inject(n, p));
        net.step();
    }
    ARMED.store(false, Ordering::SeqCst);
    let events = ALLOC_EVENTS.load(Ordering::SeqCst);

    assert!(
        net.stats.cs_packets_delivered > cs_before,
        "no circuit carried traffic in the measured window"
    );
    // Below saturation: the window delivers about what it offers (the
    // rate is in flits; the 8 diagonal nodes of a transpose send nothing).
    let delivered = net.stats.packets_delivered - delivered_before;
    let offered = SDM_RATE / 5.0 * (mesh.len() - 8) as f64 * MEASURED_CYCLES as f64;
    assert!(
        delivered as f64 > 0.8 * offered,
        "SDM fabric saturated: {delivered} delivered of ~{offered:.0} offered"
    );
    assert_eq!(
        events, 0,
        "SDM backend allocated {events} times across {MEASURED_CYCLES} warm cycles"
    );
}

/// Live heap bytes per node that `build_fabric` leaves behind for a
/// `side`×`side` mesh of `kind`.
fn fabric_bytes_per_node(kind: BackendKind, side: u16) -> f64 {
    let mesh = Mesh::square(side);
    let before = LIVE_BYTES.load(Ordering::SeqCst);
    let fabric = build_fabric(
        kind,
        NetworkConfig::with_mesh(mesh),
        Tuning::Synthetic {
            slot_capacity: None,
        },
    )
    .expect("synthetic backend builds");
    let bytes = LIVE_BYTES.load(Ordering::SeqCst) - before;
    drop(fabric);
    bytes as f64 / mesh.len() as f64
}

/// Circuit-switched nodes keep per-destination tables (connections,
/// cooldowns, message counts, CS queues). They hold only the
/// destinations in use, so a freshly built node costs the same bytes on
/// a 64×64 mesh as on a 16×16 one; tables sized by the node count would
/// make fabric memory quadratic in it.
#[test]
fn fabric_heap_per_node_does_not_grow_with_the_mesh() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    for kind in [BackendKind::HybridTdmVc4, BackendKind::HybridSdmVc4] {
        let small = fabric_bytes_per_node(kind, 16);
        let large = fabric_bytes_per_node(kind, 64);
        assert!(
            large <= 1.05 * small,
            "{kind:?}: {large:.0} B/node at 64x64 vs {small:.0} B/node at 16x16"
        );
    }
}
