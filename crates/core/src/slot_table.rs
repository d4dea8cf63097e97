//! Slot tables (§II, Figure 1).
//!
//! Each input port keeps a table of S entries; entry `s` controls the
//! router in cycles `t ≡ s (mod S)`. An entry is either invalid (the cycle
//! belongs to the packet-switched network) or names the output port
//! reserved for a circuit. Reservations cover `duration` *consecutive*
//! slots (modulo S, §II-B) and fail if any required slot is taken at this
//! input port **or** the requested output port is already promised to a
//! different input port in that slot (Figure 1's `setup2`/`setup3`
//! failures).
//!
//! Microarchitecturally an entry is a valid bit plus a 3-bit output-port id;
//! the `path_id`/`dst` fields carried here are bookkeeping that hardware
//! keeps implicitly (teardowns walk the same path as their setup, and the
//! DLT snoops setup messages) — they are not consulted by the data path.

use noc_sim::{NodeId, Port, Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// A valid slot-table entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotEntry {
    /// Reserved output port.
    pub out: Port,
    /// Path this reservation belongs to.
    pub path_id: u64,
    /// Final destination of the path (snooped by the DLT).
    pub dst: NodeId,
}

/// Why a reservation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReserveError {
    /// A required slot at this input port is already valid (Figure 1,
    /// `setup2`).
    SlotOccupied,
    /// The output port is reserved for another input port in a required
    /// slot (Figure 1, `setup3`).
    OutputConflict,
    /// The 90 % reservation cap would be exceeded (§II-B starvation
    /// prevention).
    CapReached,
}

// SoA row-size contract (see the 32-byte Flit assert in `noc_sim::flit`):
// the per-slot entry must stay one 16-byte row, with `Port`'s enum niche
// absorbing the `Option` discriminant.
const _: () = assert!(
    std::mem::size_of::<Option<SlotEntry>>() == 16,
    "Option<SlotEntry> must stay a 16-byte POD row (DESIGN.md §13)"
);

// The per-slot output reservation masks (and `reserved_outputs`'s return
// type) hold one bit per port in a u8.
const _: () = assert!(
    Port::COUNT <= 8,
    "SlotTables::out_masks packs port bits into a u8"
);

/// The five per-input-port slot tables of one hybrid router.
///
/// `repr(C)` puts the inline counts an idle router step reads
/// (`any_reserved`, [`SlotTables::powered_entries`]) first,
/// next to the router's own per-step fields.
#[derive(Clone, Debug)]
#[repr(C)]
pub struct SlotTables {
    /// Valid entries per input port (cap accounting).
    valid_counts: [u32; Port::COUNT],
    active: u16,
    capacity: u16,
    cap_fraction: f64,
    /// Per-slot bitmask of reserved *output* ports (bit = `Port::index`),
    /// maintained by `try_reserve`/`release_path`/`reset`. Outputs are
    /// exclusive within a slot, so each set bit corresponds to exactly one
    /// entry. Lets the per-cycle constraint build read one byte instead of
    /// probing all five input tables. One byte caps the radix at 8 ports
    /// (checked at compile time below).
    out_masks: Vec<u8>,
    /// Slot entries, flat over `port * capacity + slot` (one contiguous
    /// allocation instead of a Vec-of-Vecs; the per-cycle lookup is a
    /// single indexed load).
    tables: Box<[Option<SlotEntry>]>,
}

impl SlotTables {
    /// `capacity` physical entries per port, `active` of them powered on
    /// initially, and a reservation cap (fraction of active entries).
    pub fn new(capacity: u16, active: u16, cap_fraction: f64) -> Self {
        assert!(capacity > 0 && active > 0 && active <= capacity);
        assert!((0.0..=1.0).contains(&cap_fraction));
        SlotTables {
            tables: vec![None; Port::COUNT * capacity as usize].into_boxed_slice(),
            out_masks: vec![0; capacity as usize],
            capacity,
            active,
            cap_fraction,
            valid_counts: [0; Port::COUNT],
        }
    }

    /// Number of active (powered) entries per port — the modulus S.
    pub fn active(&self) -> u16 {
        self.active
    }

    pub fn capacity(&self) -> u16 {
        self.capacity
    }

    /// Slot index controlling cycle `t`.
    #[inline]
    pub fn slot_of(&self, t: u64) -> u16 {
        (t % self.active as u64) as u16
    }

    /// Total powered entries (leakage accounting): active × ports.
    pub fn powered_entries(&self) -> u32 {
        self.active as u32 * Port::COUNT as u32
    }

    /// Flat index of `port`'s entry for slot `s`.
    #[inline]
    fn at(&self, port: Port, s: usize) -> usize {
        port.index() * self.capacity as usize + s
    }

    /// Look up the entry for input `port` at cycle `t`.
    pub fn lookup(&self, port: Port, t: u64) -> Option<&SlotEntry> {
        self.tables[self.at(port, self.slot_of(t) as usize)].as_ref()
    }

    /// Whether any entry is reserved, at any port and slot. Reads only the
    /// inline per-port counts: the idle-router fast path asks this every
    /// cycle instead of loading the slot's output mask.
    #[inline]
    pub(crate) fn any_reserved(&self) -> bool {
        self.valid_counts.iter().any(|&c| c != 0)
    }

    /// Bitmask (by `Port::index`) of output ports reserved in the slot
    /// controlling cycle `t` — the O(1) read behind the per-cycle
    /// switch-constraint build.
    #[inline]
    pub fn reserved_outputs(&self, t: u64) -> u8 {
        self.out_masks[self.slot_of(t) as usize]
    }

    /// Which input port (if any) has reserved output `out` at cycle `t`.
    pub fn input_reserving_output(&self, t: u64, out: Port) -> Option<Port> {
        let s = self.slot_of(t) as usize;
        for p in Port::ALL {
            if let Some(e) = &self.tables[self.at(p, s)] {
                if e.out == out {
                    return Some(p);
                }
            }
        }
        None
    }

    /// Attempt to reserve `duration` consecutive slots starting at `slot`
    /// (modulo the active size) for `in_port → out`. Returns the number of
    /// entries written.
    pub fn try_reserve(
        &mut self,
        in_port: Port,
        slot: u16,
        duration: u8,
        out: Port,
        path_id: u64,
        dst: NodeId,
    ) -> Result<u8, ReserveError> {
        let s0 = slot % self.active;
        let cap_limit = (self.cap_fraction * self.active as f64) as u32;
        if self.valid_counts[in_port.index()] + duration as u32 > cap_limit {
            return Err(ReserveError::CapReached);
        }
        // Validate every required slot before mutating anything.
        for k in 0..duration {
            let s = ((s0 + k as u16) % self.active) as usize;
            if self.tables[self.at(in_port, s)].is_some() {
                return Err(ReserveError::SlotOccupied);
            }
            // Outputs are exclusive within a slot: one mask probe replaces
            // the four foreign-table scans (out_masks tracks every port).
            if self.out_masks[s] & (1 << out.index()) != 0 {
                return Err(ReserveError::OutputConflict);
            }
        }
        for k in 0..duration {
            let s = ((s0 + k as u16) % self.active) as usize;
            let i = self.at(in_port, s);
            self.tables[i] = Some(SlotEntry { out, path_id, dst });
            self.out_masks[s] |= 1 << out.index();
        }
        self.valid_counts[in_port.index()] += duration as u32;
        Ok(duration)
    }

    /// Invalidate every entry of `path_id` at `in_port` (teardown). Returns
    /// the reserved output port and the number of entries cleared, or
    /// `None` if the path has no entries here (the teardown reached the
    /// point where its setup failed).
    pub fn release_path(&mut self, in_port: Port, path_id: u64) -> Option<(Port, u8)> {
        let base = in_port.index() * self.capacity as usize;
        let mut out = None;
        let mut cleared = 0u8;
        for s in 0..self.capacity as usize {
            let e = &mut self.tables[base + s];
            if let Some(entry) = e {
                if entry.path_id == path_id {
                    out = Some(entry.out);
                    self.out_masks[s] &= !(1 << entry.out.index());
                    *e = None;
                    cleared += 1;
                }
            }
        }
        self.valid_counts[in_port.index()] -= cleared as u32;
        out.map(|o| (o, cleared))
    }

    /// Fraction of active entries reserved at `in_port`.
    pub fn reserved_fraction(&self, in_port: Port) -> f64 {
        self.valid_counts[in_port.index()] as f64 / self.active as f64
    }

    /// Fraction of all active entries (across ports) currently reserved —
    /// the utilisation signal for dynamic table sizing (§II-C).
    pub fn reserved_fraction_total(&self) -> f64 {
        let valid: u32 = self.valid_counts.iter().sum();
        valid as f64 / (self.active as f64 * Port::COUNT as f64)
    }

    /// Find a start slot at `in_port` such that `duration` consecutive
    /// slots are free *and* the output port is unreserved in them; scanning
    /// starts at `from` (lets retries pick a different slot id, §II-B).
    pub fn find_free_run(&self, in_port: Port, out: Port, duration: u8, from: u16) -> Option<u16> {
        let s0 = from % self.active;
        'start: for off in 0..self.active {
            let start = (s0 + off) % self.active;
            for k in 0..duration as u16 {
                let s = ((start + k) % self.active) as usize;
                if self.tables[self.at(in_port, s)].is_some()
                    || self.out_masks[s] & (1 << out.index()) != 0
                {
                    continue 'start;
                }
            }
            return Some(start);
        }
        None
    }

    /// Reset all tables (dynamic granularity change, §II-C) and set the new
    /// active size. Returns the number of entries invalidated.
    pub fn reset(&mut self, new_active: u16) -> u32 {
        assert!(new_active > 0 && new_active <= self.capacity);
        let cleared: u32 = self.valid_counts.iter().sum();
        self.tables.fill(None);
        self.out_masks.fill(0);
        self.valid_counts = [0; Port::COUNT];
        self.active = new_active;
        cleared
    }

    /// Serialise the mutable table state (snapshot seam, DESIGN.md §14).
    /// `capacity` and the reservation cap are construction-time; `capacity`
    /// is written anyway so a restore into a differently-sized router is a
    /// detectable mismatch instead of silent corruption.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        w.u16(self.capacity);
        w.u16(self.active);
        self.tables.save(w);
        self.out_masks.save(w);
        self.valid_counts.save(w);
    }

    /// Inverse of [`SlotTables::save_state`].
    pub fn load_state(&mut self, r: &mut SnapshotReader) -> Result<(), SnapshotError> {
        if r.u16()? != self.capacity {
            return Err(SnapshotError::Mismatch("slot-table capacity"));
        }
        let active = r.u16()?;
        if active == 0 || active > self.capacity {
            return Err(SnapshotError::Corrupt("slot-table active count"));
        }
        let tables: Box<[Option<SlotEntry>]> = Snap::load(r)?;
        if tables.len() != self.tables.len() {
            return Err(SnapshotError::Corrupt("slot-table entry count"));
        }
        let out_masks: Vec<u8> = Snap::load(r)?;
        if out_masks.len() != self.out_masks.len() {
            return Err(SnapshotError::Corrupt("slot-table mask count"));
        }
        self.active = active;
        self.tables = tables;
        self.out_masks = out_masks;
        self.valid_counts = Snap::load(r)?;
        Ok(())
    }
}

noc_sim::impl_snap!(SlotEntry { out, path_id, dst });

#[cfg(test)]
mod tests {
    use super::*;

    const IN_1: Port = Port::West;
    const IN_2: Port = Port::South;
    const OUT_3: Port = Port::North;
    const OUT_4: Port = Port::East;
    const DST: NodeId = NodeId(9);

    fn figure1_tables() -> SlotTables {
        // Figure 1: 4-slot tables, two input ports shown.
        SlotTables::new(4, 4, 1.0)
    }

    #[test]
    fn figure1_setup1_succeeds_with_modulo_wrap() {
        let mut t = figure1_tables();
        // setup1: in_1 → out_4, slot s3, duration 2 ⇒ s3 and s0 reserved.
        assert_eq!(t.try_reserve(IN_1, 3, 2, OUT_4, 1, DST), Ok(2));
        assert_eq!(t.lookup(IN_1, 3).unwrap().out, OUT_4);
        assert_eq!(t.lookup(IN_1, 4).unwrap().out, OUT_4); // cycle 4 ≡ s0
        assert!(t.lookup(IN_1, 1).is_none());
        assert!(t.lookup(IN_2, 3).is_none());
    }

    #[test]
    fn figure1_setup2_fails_slot_occupied() {
        let mut t = figure1_tables();
        t.try_reserve(IN_1, 3, 2, OUT_4, 1, DST).unwrap();
        // setup2: in_1 → out_3 at s3: the slot is already allocated.
        assert_eq!(
            t.try_reserve(IN_1, 3, 1, OUT_3, 2, DST),
            Err(ReserveError::SlotOccupied)
        );
        // Tables unchanged.
        assert_eq!(t.lookup(IN_1, 3).unwrap().path_id, 1);
    }

    #[test]
    fn figure1_setup3_fails_output_conflict() {
        let mut t = figure1_tables();
        t.try_reserve(IN_1, 3, 2, OUT_4, 1, DST).unwrap();
        // setup3: in_2 → out_4 at s3: out_4 is reserved for in_1 at s3.
        assert_eq!(
            t.try_reserve(IN_2, 3, 1, OUT_4, 3, DST),
            Err(ReserveError::OutputConflict)
        );
        assert!(t.lookup(IN_2, 3).is_none());
    }

    #[test]
    fn figure1_teardown_frees_slots_for_reuse() {
        let mut t = figure1_tables();
        t.try_reserve(IN_1, 3, 2, OUT_4, 1, DST).unwrap();
        let (out, n) = t.release_path(IN_1, 1).unwrap();
        assert_eq!(out, OUT_4);
        assert_eq!(n, 2);
        // Both failures from Figure 1 now succeed.
        assert_eq!(t.try_reserve(IN_1, 3, 1, OUT_3, 2, DST), Ok(1));
        assert_eq!(t.try_reserve(IN_2, 0, 1, OUT_4, 3, DST), Ok(1));
    }

    #[test]
    fn release_unknown_path_returns_none() {
        let mut t = figure1_tables();
        assert_eq!(t.release_path(IN_1, 77), None);
    }

    #[test]
    fn different_outputs_share_a_slot_across_ports() {
        let mut t = figure1_tables();
        t.try_reserve(IN_1, 2, 1, OUT_4, 1, DST).unwrap();
        // Same slot, different input *and* different output: fine.
        assert_eq!(t.try_reserve(IN_2, 2, 1, OUT_3, 2, DST), Ok(1));
        assert_eq!(t.input_reserving_output(2, OUT_4), Some(IN_1));
        assert_eq!(t.input_reserving_output(2, OUT_3), Some(IN_2));
        assert_eq!(t.input_reserving_output(3, OUT_4), None);
    }

    #[test]
    fn reservation_cap_blocks_at_90_percent() {
        // 10 active slots, cap 0.9 ⇒ at most 9 reserved entries per port.
        let mut t = SlotTables::new(10, 10, 0.9);
        assert_eq!(t.try_reserve(IN_1, 0, 4, OUT_4, 1, DST), Ok(4));
        assert_eq!(t.try_reserve(IN_1, 4, 4, OUT_4, 2, DST), Ok(4));
        // 8 reserved; 4 more would exceed 9.
        assert_eq!(
            t.try_reserve(IN_1, 8, 4, OUT_3, 3, DST),
            Err(ReserveError::CapReached)
        );
        assert!((t.reserved_fraction(IN_1) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn find_free_run_skips_conflicts() {
        let mut t = SlotTables::new(16, 16, 1.0);
        t.try_reserve(IN_1, 0, 4, OUT_4, 1, DST).unwrap();
        // From slot 0 the next free run at IN_1 starts at 4.
        assert_eq!(t.find_free_run(IN_1, OUT_3, 4, 0), Some(4));
        // A run at IN_2 avoiding OUT_4 (reserved s0–s3 by IN_1) starts at 4.
        assert_eq!(t.find_free_run(IN_2, OUT_4, 4, 0), Some(4));
        // A run at IN_2 with a different output can start right at 0.
        assert_eq!(t.find_free_run(IN_2, OUT_3, 4, 0), Some(0));
    }

    #[test]
    fn find_free_run_none_when_full() {
        let mut t = SlotTables::new(8, 8, 1.0);
        t.try_reserve(IN_1, 0, 4, OUT_4, 1, DST).unwrap();
        t.try_reserve(IN_1, 4, 4, OUT_3, 2, DST).unwrap();
        assert_eq!(t.find_free_run(IN_1, OUT_4, 4, 0), None);
    }

    #[test]
    fn reset_doubles_active_size() {
        let mut t = SlotTables::new(128, 16, 0.9);
        assert_eq!(t.active(), 16);
        t.try_reserve(IN_1, 1, 4, OUT_4, 1, DST).unwrap();
        let cleared = t.reset(32);
        assert_eq!(cleared, 4);
        assert_eq!(t.active(), 32);
        assert!(t.lookup(IN_1, 1).is_none());
        assert_eq!(t.powered_entries(), 32 * 5);
    }

    #[test]
    fn slot_of_uses_active_modulus() {
        let t = SlotTables::new(128, 16, 0.9);
        assert_eq!(t.slot_of(16), 0);
        assert_eq!(t.slot_of(35), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Whatever `find_free_run` returns must actually be reservable,
        /// and a successful reservation must not overlap any pre-existing
        /// one at the same port or conflict on the output.
        #[test]
        fn find_free_run_results_are_reservable(
            seed_ops in prop::collection::vec((0usize..5, 0u16..32, 1u8..6, 0usize..5), 0..25),
            in_p in 0usize..5,
            out_p in 0usize..5,
            dur in 1u8..6,
            from in 0u16..32,
        ) {
            // Cap 1.0: this property tests the geometric contract; the
            // reservation cap is the caller's concern.
            let mut t = SlotTables::new(32, 32, 1.0);
            for (pid, (p, slot, d, o)) in (1u64..).zip(seed_ops) {
                let _ = t.try_reserve(Port::ALL[p], slot, d, Port::ALL[o], pid, NodeId(0));
            }
            let in_port = Port::ALL[in_p];
            let out = Port::ALL[out_p];
            if let Some(start) = t.find_free_run(in_port, out, dur, from) {
                prop_assert!(
                    t.try_reserve(in_port, start, dur, out, 999_999, NodeId(9)).is_ok(),
                    "find_free_run proposed an unreservable start {start}"
                );
            }
        }

        /// Reserve/release round-trips leave valid counts exact.
        #[test]
        fn valid_counts_balance(
            ops in prop::collection::vec((0usize..5, 0u16..32, 1u8..5, 0usize..5), 1..40)
        ) {
            let mut t = SlotTables::new(32, 32, 1.0);
            let mut live: Vec<(Port, u64, u8)> = Vec::new();
            for (pid, (p, slot, d, o)) in (1u64..).zip(ops) {
                let port = Port::ALL[p];
                if t.try_reserve(port, slot, d, Port::ALL[o], pid, NodeId(0)).is_ok() {
                    live.push((port, pid, d));
                }
            }
            let expected: f64 = live.iter().map(|&(_, _, d)| d as f64).sum::<f64>()
                / (32.0 * Port::COUNT as f64);
            let measured = t.reserved_fraction_total();
            prop_assert!((measured - expected).abs() < 1e-9);
            for (port, id, _) in live {
                prop_assert!(t.release_path(port, id).is_some());
            }
            prop_assert!(t.reserved_fraction_total() < 1e-12);
        }
    }
}
