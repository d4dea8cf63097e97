//! Round-robin arbiters used by the separable VC and switch allocators.

use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// The first set bit of `mask` at or after `start`, wrapping around to the
/// low bits: a fixed-priority search that begins at `start`. Two
/// `trailing_zeros` probes, no loop.
#[inline]
pub fn first_from(mask: u64, start: usize) -> Option<usize> {
    if mask == 0 {
        return None;
    }
    let ahead = mask >> start;
    Some(if ahead != 0 {
        start + ahead.trailing_zeros() as usize
    } else {
        mask.trailing_zeros() as usize
    })
}

/// A round-robin arbiter over `n` requesters with a rotating priority
/// pointer, as in canonical VC router allocators.
///
/// # Grant order
///
/// The priority pointer holds the **last granted** index and the search
/// starts one past it. A fresh arbiter initialises the pointer to `n - 1`
/// so that the very first grant goes to index 0 and a fully-loaded arbiter
/// then rotates `0, 1, …, n-1, 0, …` — the order the allocator unit tests
/// pin. [`RoundRobin::grant_mask`] implements the same rotation over a
/// `u64` request mask with `trailing_zeros`; the two are grant-for-grant
/// identical (see the `mask_matches_slice` property test).
#[derive(Clone, Debug)]
pub struct RoundRobin {
    n: usize,
    last: usize,
}

impl RoundRobin {
    pub fn new(n: usize) -> Self {
        RoundRobin {
            n,
            last: n.saturating_sub(1),
        }
    }

    /// Number of requesters this arbiter serves.
    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Grant one of the asserted requests (`reqs[i] == true`), starting the
    /// search after the previously granted index. Returns the winner and
    /// advances the priority pointer, or `None` if nothing is requested.
    pub fn grant(&mut self, reqs: &[bool]) -> Option<usize> {
        debug_assert_eq!(reqs.len(), self.n);
        if self.n == 0 {
            return None;
        }
        for off in 1..=self.n {
            let i = (self.last + off) % self.n;
            if reqs[i] {
                self.last = i;
                return Some(i);
            }
        }
        None
    }

    /// Like [`RoundRobin::grant`] but with requests given by predicate.
    pub fn grant_by<F: FnMut(usize) -> bool>(&mut self, mut req: F) -> Option<usize> {
        if self.n == 0 {
            return None;
        }
        for off in 1..=self.n {
            let i = (self.last + off) % self.n;
            if req(i) {
                self.last = i;
                return Some(i);
            }
        }
        None
    }

    /// Like [`RoundRobin::grant`] but with the request set given as a `u64`
    /// bitmask (bit `i` set ⇔ requester `i` asserts). The rotating search of
    /// the slice variant becomes two `trailing_zeros` probes: first over the
    /// bits at or past the start position, then over the wrapped-around low
    /// bits. Grant-for-grant identical to `grant` on the same request set.
    #[inline]
    pub fn grant_mask(&mut self, mask: u64) -> Option<usize> {
        debug_assert!(self.n <= 64, "mask arbiter supports at most 64 requesters");
        debug_assert!(
            self.n == 64 || mask >> self.n == 0,
            "request mask has bits beyond the requester count"
        );
        debug_assert!(self.n == 0 || self.last < self.n, "pointer out of range");
        if self.n == 0 {
            return None;
        }
        // `last < n`, so one past it wraps with a compare, not a divide.
        let start = if self.last + 1 == self.n {
            0
        } else {
            self.last + 1
        };
        let i = first_from(mask, start)?;
        self.last = i;
        Some(i)
    }

    /// Resize the arbiter (used when VC counts change under power gating).
    pub fn resize(&mut self, n: usize) {
        self.n = n;
        if n == 0 {
            self.last = 0;
        } else {
            self.last %= n;
        }
    }
}

// Arbiter pointers are simulation state: a restored allocator must grant
// in exactly the order the continuous run would have. A pointer past the
// requester count is refused: `grant_mask` relies on `last < n`.
impl Snap for RoundRobin {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.n);
        w.usize(self.last);
    }

    fn load(r: &mut SnapshotReader) -> Result<Self, SnapshotError> {
        let n = r.usize()?;
        let last = r.usize()?;
        if last >= n.max(1) {
            return Err(SnapshotError::Corrupt("arbiter pointer"));
        }
        Ok(RoundRobin { n, last })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fairness_under_full_load() {
        let mut a = RoundRobin::new(4);
        let reqs = [true; 4];
        let mut grants = [0u32; 4];
        for _ in 0..400 {
            grants[a.grant(&reqs).unwrap()] += 1;
        }
        assert_eq!(grants, [100; 4]);
    }

    #[test]
    fn skips_idle_requesters() {
        let mut a = RoundRobin::new(3);
        let reqs = [false, true, false];
        for _ in 0..5 {
            assert_eq!(a.grant(&reqs), Some(1));
        }
        assert_eq!(a.grant(&[false; 3]), None);
    }

    #[test]
    fn rotates_after_grant() {
        let mut a = RoundRobin::new(3);
        // Starts searching at index 0.
        assert_eq!(a.grant(&[true, true, true]), Some(0));
        assert_eq!(a.grant(&[true, true, true]), Some(1));
        assert_eq!(a.grant(&[true, false, true]), Some(2));
        assert_eq!(a.grant(&[true, true, true]), Some(0));
    }

    #[test]
    fn grant_by_predicate() {
        let mut a = RoundRobin::new(5);
        assert_eq!(a.grant_by(|i| i % 2 == 1), Some(1));
        assert_eq!(a.grant_by(|i| i % 2 == 1), Some(3));
        assert_eq!(a.grant_by(|i| i % 2 == 1), Some(1));
    }

    /// Pins the grant order the mask rewrite must preserve: a fresh arbiter
    /// (priority pointer at `n - 1`) grants index 0 first, then rotates.
    #[test]
    fn fresh_arbiter_grants_index_zero_first() {
        let mut slice = RoundRobin::new(3);
        let mut mask = RoundRobin::new(3);
        assert_eq!(slice.grant(&[true, true, true]), Some(0));
        assert_eq!(mask.grant_mask(0b111), Some(0));
        assert_eq!(mask.grant_mask(0b111), Some(1));
        assert_eq!(mask.grant_mask(0b101), Some(2));
        assert_eq!(mask.grant_mask(0b111), Some(0));
    }

    #[test]
    fn mask_wraps_past_pointer() {
        let mut a = RoundRobin::new(4);
        assert_eq!(a.grant_mask(0b0100), Some(2));
        // Only lower indices request: search wraps around.
        assert_eq!(a.grant_mask(0b0011), Some(0));
        assert_eq!(a.grant_mask(0b0010), Some(1));
        assert_eq!(a.grant_mask(0), None);
    }

    #[test]
    fn mask_full_width() {
        let mut a = RoundRobin::new(64);
        assert_eq!(a.grant_mask(u64::MAX), Some(0));
        assert_eq!(a.grant_mask(1 << 63), Some(63));
        assert_eq!(a.grant_mask(u64::MAX), Some(0));
    }

    #[test]
    fn snapshot_round_trips_and_refuses_a_pointer_out_of_range() {
        let mut a = RoundRobin::new(4);
        a.grant_mask(0b0100);
        let mut w = SnapshotWriter::new();
        a.save(&mut w);
        w.usize(4);
        w.usize(4);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let mut b = RoundRobin::load(&mut r).expect("valid arbiter");
        assert_eq!(b.grant_mask(0b1111), Some(3));
        assert!(RoundRobin::load(&mut r).is_err(), "pointer 4 of 4 accepted");
    }

    #[test]
    fn zero_and_resize() {
        let mut a = RoundRobin::new(0);
        assert_eq!(a.grant(&[]), None);
        a.resize(2);
        assert!(a.grant(&[true, true]).is_some());
        a.resize(1);
        assert_eq!(a.grant(&[true]), Some(0));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A grant always goes to a requesting index, and repeated grants
        /// over a fixed request set visit every requester (no starvation).
        #[test]
        fn grants_are_valid_and_starvation_free(
            n in 1usize..16,
            reqs in prop::collection::vec(any::<bool>(), 1..16),
        ) {
            let n = n.min(reqs.len());
            let reqs = &reqs[..n];
            let mut arb = RoundRobin::new(n);
            let requesters: Vec<usize> =
                (0..n).filter(|&i| reqs[i]).collect();
            let mut seen = std::collections::HashSet::new();
            for _ in 0..2 * n {
                match arb.grant(reqs) {
                    Some(w) => {
                        prop_assert!(reqs[w], "granted a non-requester");
                        seen.insert(w);
                    }
                    None => prop_assert!(requesters.is_empty()),
                }
            }
            // Everyone who asked got served within 2n rounds.
            prop_assert_eq!(seen.len(), requesters.len());
        }

        /// `grant_mask` is grant-for-grant identical to the slice-based
        /// `grant` over arbitrary request sequences, including empty sets
        /// (which must not advance the priority pointer).
        #[test]
        fn mask_matches_slice(
            n in 1usize..17,
            rounds in prop::collection::vec(any::<u16>(), 1..64),
        ) {
            let mut slice = RoundRobin::new(n);
            let mut mask = RoundRobin::new(n);
            for bits in rounds {
                let reqs: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
                let m = reqs.iter().enumerate()
                    .filter(|(_, &r)| r)
                    .fold(0u64, |acc, (i, _)| acc | 1 << i);
                prop_assert_eq!(slice.grant(&reqs), mask.grant_mask(m));
            }
        }

        /// Consecutive grants over a full request set never repeat an index
        /// before all others have been served (strict rotation).
        #[test]
        fn full_load_is_strictly_rotating(n in 2usize..12) {
            let reqs = vec![true; n];
            let mut arb = RoundRobin::new(n);
            let mut order = Vec::new();
            for _ in 0..n {
                order.push(arb.grant(&reqs).expect("always grants"));
            }
            let distinct: std::collections::HashSet<_> = order.iter().collect();
            prop_assert_eq!(distinct.len(), n);
        }
    }
}
