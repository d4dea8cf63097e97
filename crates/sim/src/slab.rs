//! The flit slab: one contiguous allocation of fixed-depth inline VC rings.
//!
//! ROADMAP item 1 moved the pipeline's *control* state into flat
//! structure-of-arrays tables; this module does the same for the *data*:
//! instead of each input VC owning a heap-allocated `VecDeque<Flit>` (~20k
//! scattered ring buffers at the 1024-node scale), the whole network's
//! buffer capacity lives in a single `[node][port][vc][slot]` slab with a
//! parallel POD `RingMeta { head, len }` array, so buffer writes, VA peeks,
//! SA/ST dequeues, fault sweeps and occupancy audits walk flat memory
//! (DESIGN.md §17).
//!
//! Ownership model: [`FlitSlab`] owns the backing store and carves it into
//! disjoint [`SlabRegion`] views, one per node, handed out through
//! [`NodeModel::attach_flit_slab`]. A region is the *exclusive* owner of
//! its rings — all mutation goes through `&mut SlabRegion` — while the
//! store itself is kept alive by reference counting, and each node only
//! ever touches its own region.
//!
//! Ring invariants (checked by debug assertions):
//! * `head < depth` and `len <= depth` at all times;
//! * occupied slots are `(head + k) % depth` for `k in 0..len`, in FIFO
//!   order;
//! * vacated slots keep stale flit bytes — they are never read, never
//!   serialised, and never own a [`ConfigArena`](crate::arena::ConfigArena)
//!   reference (the pop/retain paths move or free payload handles before
//!   the slot is vacated).
//!
//! This is the only module of the workspace's library code that may use
//! `unsafe` (the workspace denies `unsafe_code`): the rings are addressed
//! through raw pointers into the shared store.
//!
//! [`NodeModel::attach_flit_slab`]: crate::node::NodeModel::attach_flit_slab
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::rc::Rc;

use crate::flit::{Flit, Packet, PacketId, Switching};
use crate::geometry::NodeId;
use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// Head/len of one ring, packed so the whole metadata table of a node
/// (20 rings at the default 5-port × 4-VC geometry) spans a cache line.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C)]
pub struct RingMeta {
    /// Slot index of the FIFO front; `< depth` always.
    pub head: u8,
    /// Occupied slots; `<= depth` always.
    pub len: u8,
}

const _: () = assert!(
    std::mem::size_of::<RingMeta>() == 2,
    "RingMeta must stay a 2-byte POD row (DESIGN.md §17)"
);

/// The shared backing store. `UnsafeCell` because disjoint regions of the
/// same store are mutated through `&mut SlabRegion` handles that only hold
/// an `Rc` to it; the region carve discipline (see [`FlitSlab::carve`])
/// guarantees no two handles overlap.
struct SlabStore {
    flits: Box<[UnsafeCell<Flit>]>,
    meta: Box<[UnsafeCell<RingMeta>]>,
    depth: usize,
}

/// A filler value for vacant slots. Never observable: reads are bounded by
/// `len`, serialisation walks FIFO order only.
fn filler_flit() -> Flit {
    let p = Packet::data(PacketId(0), NodeId(0), NodeId(0), 1, 0);
    Flit::of_packet(&p, 0, Switching::Packet)
}

fn new_store(rings: usize, depth: usize) -> Rc<SlabStore> {
    assert!(
        depth >= 1 && depth <= u8::MAX as usize,
        "ring depth {depth} out of range"
    );
    assert!(
        rings <= u32::MAX as usize,
        "ring count {rings} out of range"
    );
    let f = filler_flit();
    Rc::new(SlabStore {
        flits: (0..rings * depth).map(|_| UnsafeCell::new(f)).collect(),
        meta: (0..rings)
            .map(|_| UnsafeCell::new(RingMeta::default()))
            .collect(),
        depth,
    })
}

/// The network-owned slab: a contiguous store plus a carve cursor that
/// hands out disjoint per-node [`SlabRegion`]s.
pub struct FlitSlab {
    store: Rc<SlabStore>,
    next_ring: usize,
}

impl FlitSlab {
    /// Allocate a slab of `rings` rings, each `depth` slots deep.
    pub fn new(rings: usize, depth: u8) -> Self {
        FlitSlab {
            store: new_store(rings, depth as usize),
            next_ring: 0,
        }
    }

    pub fn depth(&self) -> u8 {
        self.store.depth as u8
    }

    /// Carve the next `rings` rings into an exclusive region. Panics when
    /// the slab capacity is exceeded — region disjointness is enforced
    /// here, by construction.
    pub fn carve(&mut self, rings: usize) -> SlabRegion {
        let first = self.next_ring;
        assert!(
            first + rings <= self.store.meta.len(),
            "flit slab over-carved: {} + {} rings of {}",
            first,
            rings,
            self.store.meta.len()
        );
        self.next_ring = first + rings;
        SlabRegion::over(self.store.clone(), first, rings)
    }
}

/// An exclusive view of a contiguous run of rings inside a [`FlitSlab`]
/// (or a private single-node store, for standalone pipelines). All reads
/// go through `&self`, all mutation through `&mut self`; the store-level
/// aliasing argument lives on [`SlabStore`].
pub struct SlabRegion {
    store: Rc<SlabStore>,
    /// Base pointers of this region's slice of the store, hoisted out of
    /// the `Rc` so the per-flit hot path is a single indexed load.
    flits: *mut Flit,
    meta: *mut RingMeta,
    rings: usize,
    depth: usize,
}

impl std::fmt::Debug for SlabRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabRegion")
            .field("rings", &self.rings)
            .field("depth", &self.depth)
            .field(
                "occupancy",
                &(0..self.rings).map(|r| self.len(r)).sum::<usize>(),
            )
            .finish()
    }
}

impl Clone for SlabRegion {
    /// Deep copy into a fresh private store: a cloned pipeline must not
    /// alias the original's rings. Clones detach from any network-owned
    /// slab — acceptable, since cloning is a construction-time/test
    /// affair, never part of the stepping hot path.
    fn clone(&self) -> Self {
        let out = SlabRegion::private(self.rings, self.depth as u8);
        for r in 0..self.rings {
            let m = self.meta(r);
            unsafe { *out.meta.add(r) = m };
            for s in 0..self.depth {
                unsafe { *out.flits.add(r * self.depth + s) = *self.flits.add(r * self.depth + s) };
            }
        }
        out
    }
}

impl SlabRegion {
    fn over(store: Rc<SlabStore>, first: usize, rings: usize) -> Self {
        let depth = store.depth;
        let flits = store.flits[first * depth..].as_ptr() as *mut Flit;
        let meta = store.meta[first..].as_ptr() as *mut RingMeta;
        SlabRegion {
            store,
            flits,
            meta,
            rings,
            depth,
        }
    }

    /// A region over its own private store — what standalone pipelines
    /// (unit rigs, single-router tests) use before/without a network slab.
    pub fn private(rings: usize, depth: u8) -> Self {
        let store = new_store(rings, depth as usize);
        SlabRegion::over(store, 0, rings)
    }

    #[inline]
    pub fn rings(&self) -> usize {
        self.rings
    }

    #[inline]
    pub fn depth(&self) -> usize {
        self.depth
    }

    #[inline]
    fn meta(&self, ring: usize) -> RingMeta {
        debug_assert!(ring < self.rings);
        unsafe { *self.meta.add(ring) }
    }

    #[inline]
    fn set_meta(&mut self, ring: usize, m: RingMeta) {
        debug_assert!(ring < self.rings);
        debug_assert!((m.head as usize) < self.depth && m.len as usize <= self.depth);
        unsafe { *self.meta.add(ring) = m };
    }

    /// Slot index of FIFO position `pos` of `ring`.
    #[inline]
    fn slot(&self, ring: usize, head: u8, pos: usize) -> usize {
        let mut s = head as usize + pos;
        if s >= self.depth {
            s -= self.depth;
        }
        ring * self.depth + s
    }

    #[inline]
    pub fn len(&self, ring: usize) -> usize {
        self.meta(ring).len as usize
    }

    #[inline]
    pub fn is_empty(&self, ring: usize) -> bool {
        self.meta(ring).len == 0
    }

    #[inline]
    pub fn front(&self, ring: usize) -> Option<&Flit> {
        let m = self.meta(ring);
        if m.len == 0 {
            return None;
        }
        Some(unsafe { &*self.flits.add(self.slot(ring, m.head, 0)) })
    }

    #[inline]
    pub fn front_mut(&mut self, ring: usize) -> Option<&mut Flit> {
        let m = self.meta(ring);
        if m.len == 0 {
            return None;
        }
        let i = self.slot(ring, m.head, 0);
        Some(unsafe { &mut *self.flits.add(i) })
    }

    /// FIFO position `pos` (0 = front).
    #[inline]
    pub fn get(&self, ring: usize, pos: usize) -> &Flit {
        let m = self.meta(ring);
        assert!(pos < m.len as usize, "ring position out of bounds");
        unsafe { &*self.flits.add(self.slot(ring, m.head, pos)) }
    }

    /// Append to the ring tail. Panics on overflow — the credit protocol
    /// bounds occupancy at `depth`, so an overflow is a flow-control bug.
    #[inline]
    pub fn push_back(&mut self, ring: usize, flit: Flit) {
        let m = self.meta(ring);
        assert!((m.len as usize) < self.depth, "ring overflow");
        let i = self.slot(ring, m.head, m.len as usize);
        unsafe { *self.flits.add(i) = flit };
        self.set_meta(
            ring,
            RingMeta {
                head: m.head,
                len: m.len + 1,
            },
        );
    }

    #[inline]
    pub fn pop_front(&mut self, ring: usize) -> Option<Flit> {
        let m = self.meta(ring);
        if m.len == 0 {
            return None;
        }
        let f = unsafe { *self.flits.add(self.slot(ring, m.head, 0)) };
        let mut head = m.head + 1;
        if head as usize == self.depth {
            head = 0;
        }
        self.set_meta(
            ring,
            RingMeta {
                head,
                len: m.len - 1,
            },
        );
        Some(f)
    }

    /// Iterate `ring` in FIFO order.
    pub fn iter(&self, ring: usize) -> impl Iterator<Item = &Flit> + '_ {
        let m = self.meta(ring);
        (0..m.len as usize)
            .map(move |pos| unsafe { &*self.flits.add(self.slot(ring, m.head, pos)) })
    }

    /// Keep only the flits for which `keep` returns true, preserving FIFO
    /// order (the fault-sweep primitive). Returns the number removed.
    pub fn retain(&mut self, ring: usize, mut keep: impl FnMut(&Flit) -> bool) -> usize {
        let m = self.meta(ring);
        let mut kept = 0u8;
        for pos in 0..m.len as usize {
            let src = self.slot(ring, m.head, pos);
            let f = unsafe { *self.flits.add(src) };
            if keep(&f) {
                let dst = self.slot(ring, m.head, kept as usize);
                if dst != src {
                    unsafe { *self.flits.add(dst) = f };
                }
                kept += 1;
            }
        }
        self.set_meta(
            ring,
            RingMeta {
                head: m.head,
                len: kept,
            },
        );
        (m.len - kept) as usize
    }

    /// Serialise `ring` in FIFO order: `u64` length then the flits. This is
    /// byte-identical to the `VecDeque<Flit>` encoding the per-VC buffers
    /// used before the slab, so `NOCSNAP`/`NOCCKPT` blobs are unchanged
    /// (DESIGN.md §17).
    pub fn save_ring(&self, ring: usize, w: &mut SnapshotWriter) {
        let m = self.meta(ring);
        w.usize(m.len as usize);
        for pos in 0..m.len as usize {
            unsafe { &*self.flits.add(self.slot(ring, m.head, pos)) }.save(w);
        }
    }

    /// Inverse of [`SlabRegion::save_ring`]; the restored ring is
    /// normalised to `head = 0` (head position is not observable through
    /// the FIFO API and is not part of the snapshot encoding).
    pub fn load_ring(&mut self, ring: usize, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        let len = r.seq_len()?;
        if len > self.depth {
            return Err(SnapshotError::Corrupt("ring deeper than buffer depth"));
        }
        for pos in 0..len {
            let f = Flit::load(r)?;
            unsafe { *self.flits.add(ring * self.depth + pos) = f };
        }
        self.set_meta(
            ring,
            RingMeta {
                head: 0,
                len: len as u8,
            },
        );
        Ok(())
    }

    /// Whether this region shares `slab`'s backing store (drain audits).
    pub fn backed_by(&self, slab: &FlitSlab) -> bool {
        Rc::ptr_eq(&self.store, &slab.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotWriter;

    fn flit(seq: u8, of: u8) -> Flit {
        let p = Packet::data(PacketId(9), NodeId(1), NodeId(2), of, 3);
        Flit::of_packet(&p, seq, Switching::Packet)
    }

    #[test]
    fn fifo_order_and_wraparound() {
        let mut r = SlabRegion::private(2, 3);
        // Fill, half-drain, refill: the ring must wrap and stay FIFO.
        for seq in 0..3 {
            r.push_back(1, flit(seq, 8));
        }
        assert_eq!(r.pop_front(1).unwrap().seq, 0);
        assert_eq!(r.pop_front(1).unwrap().seq, 1);
        r.push_back(1, flit(3, 8));
        r.push_back(1, flit(4, 8));
        assert_eq!(r.len(1), 3);
        let seqs: Vec<u8> = r.iter(1).map(|f| f.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(r.front(1).unwrap().seq, 2);
        // Ring 0 untouched throughout.
        assert!(r.is_empty(0) && r.pop_front(0).is_none());
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn overflow_panics() {
        let mut r = SlabRegion::private(1, 2);
        for seq in 0..3 {
            r.push_back(0, flit(seq, 8));
        }
    }

    #[test]
    fn retain_preserves_order_across_wrap() {
        let mut r = SlabRegion::private(1, 4);
        for seq in 0..4 {
            r.push_back(0, flit(seq, 8));
        }
        r.pop_front(0);
        r.pop_front(0);
        r.push_back(0, flit(4, 8)); // physically wraps
        r.push_back(0, flit(5, 8));
        let removed = r.retain(0, |f| f.seq % 2 == 0);
        assert_eq!(removed, 2);
        let seqs: Vec<u8> = r.iter(0).map(|f| f.seq).collect();
        assert_eq!(seqs, vec![2, 4]);
    }

    #[test]
    fn ring_snapshot_matches_vecdeque_encoding() {
        // The slab encoding must be byte-identical to the former
        // `VecDeque<Flit>` one, including for physically wrapped rings.
        let mut r = SlabRegion::private(1, 3);
        for seq in 0..3 {
            r.push_back(0, flit(seq, 8));
        }
        r.pop_front(0);
        r.push_back(0, flit(3, 8)); // wrapped
        let mut w = SnapshotWriter::new();
        r.save_ring(0, &mut w);
        let mut dq = std::collections::VecDeque::new();
        for seq in 1..4 {
            dq.push_back(flit(seq, 8));
        }
        let mut w2 = SnapshotWriter::new();
        dq.save(&mut w2);
        assert_eq!(w.into_bytes(), w2.into_bytes());
    }

    #[test]
    fn ring_snapshot_roundtrip() {
        let mut r = SlabRegion::private(1, 5);
        for seq in 0..4 {
            r.push_back(0, flit(seq, 8));
        }
        r.pop_front(0); // head != 0
        let mut w = SnapshotWriter::new();
        r.save_ring(0, &mut w);
        let bytes = w.into_bytes();
        let mut fresh = SlabRegion::private(1, 5);
        let mut rd = SnapshotReader::new(&bytes);
        fresh.load_ring(0, &mut rd).unwrap();
        let a: Vec<u8> = r.iter(0).map(|f| f.seq).collect();
        let b: Vec<u8> = fresh.iter(0).map(|f| f.seq).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn load_rejects_overdeep_ring() {
        let mut src = SlabRegion::private(1, 4);
        for seq in 0..4 {
            src.push_back(0, flit(seq, 8));
        }
        let mut w = SnapshotWriter::new();
        src.save_ring(0, &mut w);
        let bytes = w.into_bytes();
        let mut shallow = SlabRegion::private(1, 3);
        let mut rd = SnapshotReader::new(&bytes);
        assert!(shallow.load_ring(0, &mut rd).is_err());
    }

    #[test]
    fn carve_hands_out_disjoint_regions() {
        let mut slab = FlitSlab::new(6, 4);
        let mut a = slab.carve(2);
        let mut b = slab.carve(4);
        a.push_back(1, flit(0, 8));
        b.push_back(0, flit(1, 8));
        assert_eq!(a.len(1), 1);
        assert_eq!(b.len(0), 1);
        assert_eq!(b.front(0).unwrap().seq, 1);
        assert!(a.backed_by(&slab) && b.backed_by(&slab));
    }

    #[test]
    #[should_panic(expected = "over-carved")]
    fn overcarve_panics() {
        let mut slab = FlitSlab::new(3, 4);
        slab.carve(2);
        slab.carve(2);
    }

    #[test]
    fn clone_detaches() {
        let mut a = SlabRegion::private(1, 3);
        a.push_back(0, flit(0, 8));
        let mut c = a.clone();
        c.push_back(0, flit(1, 8));
        assert_eq!(a.len(0), 1);
        assert_eq!(c.len(0), 2);
        assert_eq!(c.get(0, 1).seq, 1);
    }
}
