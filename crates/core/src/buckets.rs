//! The bucket priority structure of Meyer–Sanders delta-stepping
//! (Sec. III-B): bucket `B_i` holds the vertices whose tentative distance
//! lies in `[iΔ, (i+1)Δ)`.
//!
//! The paper computes `t_Bi = (iΔ ≤ t < (i+1)Δ)` as a whole-vector
//! operation, and the fused C code (Fig. 3) does the same with one pass
//! over `t` per bucket — O(|V|) per bucket however thin the frontier.
//! [`BucketRing`] instead keeps the buckets current at relaxation time,
//! as Meyer–Sanders' own formulation does, so extraction costs
//! O(frontier) and both bucket-based loops (`canonical`, and the
//! classic extraction of the stepping driver that `fused`, `parallel`
//! and `parallel_improved` run on) share it. Only
//! the paper's Fig. 2 GraphBLAS transcription and the Fig. 4 cost model
//! keep the whole-vector scan.
//!
//! ## Lazy deletion
//!
//! An improved vertex is pushed onto its new bucket and its old entry is
//! left behind: a per-vertex `queued` marker (bale's `in_bucket`) records
//! the one bucket whose entry is live, so stale and duplicate entries are
//! skipped when their bucket is taken. Each improvement pushes at most
//! one entry and each entry is visited once, which is what makes
//! extraction proportional to the work the relaxations already did.
//!
//! Buckets at or below the current one are never queued: a light
//! improvement landing in the current bucket joins the caller's frontier
//! directly, and anything lower (reachable only through negative
//! weights) is dropped, exactly as the full scan never revisited it —
//! so the iteration watchdog still trips on negative cycles.
//!
//! ## Circular recycling
//!
//! Delta-stepping only ever has buckets spanning `O(max_weight/Δ + 1)`
//! consecutive indices live at once — no candidate can jump further than
//! the heaviest edge. The buckets therefore live in a **circular ring**
//! covering the window `[current, current + capacity)`, addressed by
//! `bucket mod capacity`: a huge-diameter graph walks through millions
//! of logical bucket indices while only a handful of `Vec`s are
//! resident, and an emptied slot is recycled by the next logical bucket
//! that maps onto it. The ring starts tiny and doubles when a bucket
//! lands past the window, so it needs no up-front knowledge of
//! `max_weight/Δ`. Growth stops at a capacity tied to `|V|`; the rare
//! entry beyond that lands in an overflow list that is folded back into
//! the ring once the window reaches it, so memory stays bounded by the
//! graph whatever the weight range.

use crate::delta::bucket_of;

/// `queued` marker of a vertex with no live entry.
const NOT_QUEUED: usize = usize::MAX;

/// Initial ring capacity: enough for unit-weight graphs (span ≤ 2)
/// without a single grow.
const INITIAL_SLOTS: usize = 4;

/// Hard ceiling on the ring capacity, whatever `|V|`.
const MAX_SLOTS: usize = 1 << 20;

/// Lazily maintained delta-stepping buckets in a circular ring, shared by
/// every bucket-based loop. See the module docs.
///
/// Protocol: [`Self::start`] (or [`Self::resume`]) once per run, then
/// [`Self::take`] each bucket in increasing order, feeding every
/// tentative-distance update through [`Self::merge`].
#[derive(Debug, Clone)]
pub struct BucketRing {
    /// Slot `b & (slots.len() - 1)` holds the entries of the one bucket
    /// `b` in the window `[base, base + slots.len())` with that residue.
    /// `slots.len()` is always a power of two.
    slots: Vec<Vec<usize>>,
    /// The current bucket: the window's start. Nothing at or below it is
    /// ever queued.
    base: usize,
    /// `queued[v]` is the bucket holding `v`'s live entry, or
    /// [`NOT_QUEUED`]. An entry `v` in bucket `b` is live iff
    /// `queued[v] == b`.
    queued: Vec<usize>,
    /// `(bucket, vertex)` entries past the largest window the ring may
    /// grow to; always beyond the current window.
    overflow: Vec<(usize, usize)>,
    /// Smallest bucket in `overflow` ([`NOT_QUEUED`] when empty).
    overflow_min: usize,
    /// Entries held in `slots`, live and stale.
    resident: usize,
    /// Capacity the ring may grow to for the current graph.
    max_slots: usize,
    /// Bucket width.
    delta: f64,
    /// Entries visited since the run started: taken or discarded from a
    /// bucket, or re-examined in the overflow.
    visited: u64,
}

impl Default for BucketRing {
    fn default() -> Self {
        BucketRing {
            slots: (0..INITIAL_SLOTS).map(|_| Vec::new()).collect(),
            base: 0,
            queued: Vec::new(),
            overflow: Vec::new(),
            overflow_min: NOT_QUEUED,
            resident: 0,
            max_slots: INITIAL_SLOTS,
            delta: 1.0,
            visited: 0,
        }
    }
}

impl BucketRing {
    /// An empty ring; [`Self::start`] or [`Self::resume`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the ring for an `n`-vertex run at bucket `base`, keeping
    /// every allocation.
    fn reset(&mut self, n: usize, delta: f64, base: usize) {
        self.queued.clear();
        self.queued.resize(n, NOT_QUEUED);
        for slot in &mut self.slots {
            slot.clear();
        }
        self.overflow.clear();
        self.overflow_min = NOT_QUEUED;
        self.resident = 0;
        self.max_slots = n.next_power_of_two().clamp(INITIAL_SLOTS, MAX_SLOTS);
        self.delta = delta;
        self.base = base;
        self.visited = 0;
    }

    /// Start a run from `source`: its bucket 0 is the only entry.
    pub fn start(&mut self, n: usize, delta: f64, source: usize) {
        self.reset(n, delta, 0);
        self.push(source, bucket_of(0.0, delta));
    }

    /// Rebuild the ring from a checkpoint's distances in one pass over
    /// `t`: every finite vertex in a bucket after `bucket`, plus those in
    /// `bucket` itself when the run resumes at the bucket's start (a
    /// mid-bucket resume carries that bucket's frontier instead).
    pub fn resume(&mut self, t: &[f64], delta: f64, bucket: usize, at_bucket_start: bool) {
        self.reset(t.len(), delta, bucket);
        for (v, &tv) in t.iter().enumerate() {
            let b = bucket_of(tv, delta);
            if b != usize::MAX && (b > bucket || (at_bucket_start && b == bucket)) {
                self.push(v, b);
            }
        }
    }

    /// Entries visited since the run started. In a run from the source,
    /// each improvement pushes at most one entry (plus the source's) and,
    /// outside the overflow, each entry is visited once, so this stays
    /// `≤ improvements + 1`.
    pub fn visited(&self) -> u64 {
        self.visited
    }

    /// Slots currently resident in the ring.
    #[cfg(test)]
    fn resident_slots(&self) -> usize {
        self.slots.len()
    }

    /// The sequential merge step every bucket loop shares:
    /// `t[u] = min(t[u], cand)`. An improvement is counted and keeps the
    /// ring current — a vertex landing in the current bucket joins
    /// `frontier`, a later bucket gets queued, and an earlier one is
    /// dropped. Returns whether `t[u]` improved.
    #[inline]
    pub fn merge(
        &mut self,
        t: &mut [f64],
        u: usize,
        cand: f64,
        improvements: &mut u64,
        frontier: &mut Vec<usize>,
    ) -> bool {
        let improved = cand < t[u];
        if improved {
            *improvements += 1;
            // Conflicts with the producer tasks' dist reads across
            // phases — the join edge must order them.
            #[cfg(feature = "racecheck")]
            racecheck::plain_write("sssp.dist", &t[u] as *const f64);
            t[u] = cand;
            let b = bucket_of(cand, self.delta);
            if b > self.base {
                self.push(u, b);
            } else {
                self.queued[u] = NOT_QUEUED;
                if b == self.base {
                    frontier.push(u);
                }
            }
        }
        improved
    }

    /// Take bucket `i` into `out`, sorted by vertex id (the order of the
    /// whole-vector scan), and return `Some(i)`. When bucket `i` holds no
    /// live entry, `out` stays empty and the result is the next bucket
    /// that does — left in place for the caller's next `take` — or `None`
    /// once the ring is exhausted.
    ///
    /// `i` must not precede the previous `take`, and every bucket between
    /// the two must have been taken or reported empty.
    pub fn take(&mut self, i: usize, out: &mut Vec<usize>) -> Option<usize> {
        out.clear();
        debug_assert!(
            i >= self.base,
            "bucket {i} precedes the window at {}",
            self.base
        );
        self.base = i;
        if self.overflow_min != NOT_QUEUED && self.overflow_min.saturating_sub(i) < self.slots.len()
        {
            self.fold_overflow();
        }
        let mask = self.slots.len() - 1;
        let slot = &mut self.slots[i & mask];
        self.resident -= slot.len();
        self.visited += slot.len() as u64;
        for v in slot.drain(..) {
            if self.queued[v] == i {
                self.queued[v] = NOT_QUEUED;
                out.push(v);
            }
        }
        if out.is_empty() {
            return self.next_after(i);
        }
        out.sort_unstable();
        Some(i)
    }

    /// The first bucket after the (empty) bucket `i` with a live entry,
    /// discarding the stale entries in front of it.
    fn next_after(&mut self, i: usize) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut b = i;
        // Slot `i` is empty, so any resident entry sits in a later
        // bucket of the window and the walk ends inside it.
        while self.resident > 0 {
            b += 1;
            let slot = &mut self.slots[b & mask];
            while let Some(&v) = slot.last() {
                if self.queued[v] == b {
                    return Some(b);
                }
                slot.pop();
                self.resident -= 1;
                self.visited += 1;
            }
        }
        // The window is empty: the next live entry, if any, waits in the
        // overflow, which the following `take` folds in.
        self.visited += self.overflow.len() as u64;
        let queued = &self.queued;
        self.overflow.retain(|&(b, v)| queued[v] == b);
        self.overflow_min = self
            .overflow
            .iter()
            .map(|&(b, _)| b)
            .min()
            .unwrap_or(NOT_QUEUED);
        (self.overflow_min != NOT_QUEUED).then_some(self.overflow_min)
    }

    /// Queue `v` in bucket `b > base` unless it is already there.
    fn push(&mut self, v: usize, b: usize) {
        if self.queued[v] == b {
            return;
        }
        self.queued[v] = b;
        self.place(v, b);
    }

    /// Store the entry for `(b, v)`: in the ring when the window reaches
    /// `b` (growing it if allowed), else in the overflow.
    fn place(&mut self, v: usize, b: usize) {
        let offset = b - self.base;
        if offset >= self.slots.len() && !self.grow(offset) {
            self.overflow.push((b, v));
            self.overflow_min = self.overflow_min.min(b);
            return;
        }
        let mask = self.slots.len() - 1;
        self.slots[b & mask].push(v);
        self.resident += 1;
    }

    /// Grow the window to cover `offset` buckets past `base`, rehoming
    /// the resident buckets. Returns `false` when that exceeds the
    /// capacity allowed for this graph.
    fn grow(&mut self, offset: usize) -> bool {
        if offset >= self.max_slots {
            return false;
        }
        let cap = (offset + 1).next_power_of_two();
        let old_mask = self.slots.len() - 1;
        let mut slots: Vec<Vec<usize>> = (0..cap).map(|_| Vec::new()).collect();
        for (s, ring) in self.slots.iter_mut().enumerate() {
            if !ring.is_empty() {
                let b = self.base + (s.wrapping_sub(self.base) & old_mask);
                slots[b & (cap - 1)] = std::mem::take(ring);
            }
        }
        self.slots = slots;
        true
    }

    /// Move the overflow entries the window now reaches into the ring,
    /// dropping stale ones.
    fn fold_overflow(&mut self) {
        let pending = std::mem::take(&mut self.overflow);
        self.overflow_min = NOT_QUEUED;
        self.visited += pending.len() as u64;
        for &(b, v) in &pending {
            if self.queued[v] == b {
                self.place(v, b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// Drive `ring.merge` with a fresh candidate for `u`.
    fn offer(ring: &mut BucketRing, t: &mut [f64], u: usize, cand: f64) -> Vec<usize> {
        let mut frontier = Vec::new();
        let mut improvements = 0;
        ring.merge(t, u, cand, &mut improvements, &mut frontier);
        frontier
    }

    #[test]
    fn take_returns_sorted_live_entries_and_skips_stale_ones() {
        let mut t = vec![f64::INFINITY; 6];
        t[0] = 0.0;
        let mut ring = BucketRing::new();
        ring.start(6, 1.0, 0);
        let mut out = Vec::new();
        assert_eq!(ring.take(0, &mut out), Some(0));
        assert_eq!(out, vec![0]);
        offer(&mut ring, &mut t, 5, 3.5);
        offer(&mut ring, &mut t, 2, 3.2);
        offer(&mut ring, &mut t, 4, 5.0);
        // 4 moves from bucket 5 to bucket 3: its first entry goes stale.
        offer(&mut ring, &mut t, 4, 3.9);
        // Bucket 1 is empty: the next live one is reported, not taken.
        assert_eq!(ring.take(1, &mut out), Some(3));
        assert!(out.is_empty());
        assert_eq!(ring.take(3, &mut out), Some(3));
        assert_eq!(out, vec![2, 4, 5]);
        // Only the stale entry is left.
        assert_eq!(ring.take(4, &mut out), None);
        assert_eq!(ring.visited(), 5);
    }

    #[test]
    fn merge_routes_by_bucket_and_counts_improvements() {
        let mut t = vec![f64::INFINITY; 4];
        t[0] = 2.0;
        let mut ring = BucketRing::new();
        ring.start(4, 1.0, 0);
        let mut out = Vec::new();
        ring.take(0, &mut out);
        let (mut frontier, mut improvements) = (Vec::new(), 0);
        ring.merge(&mut t, 1, 0.5, &mut improvements, &mut frontier); // current bucket
        ring.merge(&mut t, 1, 0.7, &mut improvements, &mut frontier); // no improvement
        ring.merge(&mut t, 2, 1.5, &mut improvements, &mut frontier); // queued
        assert_eq!((frontier, improvements), (vec![1], 2));
        assert_eq!(t[1], 0.5);
        assert_eq!(ring.take(1, &mut out), Some(1));
        assert_eq!(out, vec![2]);
    }

    #[test]
    fn resume_rebuilds_from_distances() {
        let t = [0.5, 1.5, 2.5, f64::INFINITY, 1.2];
        let mut ring = BucketRing::new();
        let mut out = Vec::new();
        ring.resume(&t, 1.0, 1, true);
        assert_eq!(ring.take(1, &mut out), Some(1));
        assert_eq!(out, vec![1, 4]);
        ring.resume(&t, 1.0, 1, false);
        assert_eq!(ring.take(1, &mut out), Some(2));
        assert_eq!(ring.take(2, &mut out), Some(2));
        assert_eq!(out, vec![2]);
        assert_eq!(ring.take(3, &mut out), None);
    }

    /// The circular point: a long monotone walk (huge-diameter shape,
    /// bucket span 1) recycles the initial slots forever — the ring
    /// never grows no matter how large the logical indices get.
    #[test]
    fn monotone_walk_recycles_slots_without_growth() {
        let n = 10_000;
        let mut t = vec![f64::INFINITY; n];
        t[0] = 0.0;
        let mut ring = BucketRing::new();
        ring.start(n, 1.0, 0);
        let mut out = Vec::new();
        for b in 0..n {
            assert_eq!(ring.take(b, &mut out), Some(b));
            assert_eq!(out, vec![b]);
            if b + 1 < n {
                offer(&mut ring, &mut t, b + 1, (b + 1) as f64);
            }
            assert_eq!(ring.resident_slots(), INITIAL_SLOTS, "bucket {b}");
        }
        assert_eq!(ring.take(n, &mut out), None);
        assert_eq!(ring.visited(), n as u64);
    }

    /// Buckets far past the window grow the ring up to the graph's cap;
    /// beyond it they wait in the overflow and still come out in order.
    #[test]
    fn far_buckets_grow_the_ring_then_overflow() {
        let n = 8; // caps the ring at 8 slots
        let mut t = vec![f64::INFINITY; n];
        t[0] = 0.0;
        let mut ring = BucketRing::new();
        ring.start(n, 1.0, 0);
        let mut out = Vec::new();
        ring.take(0, &mut out);
        offer(&mut ring, &mut t, 1, 6.0);
        assert_eq!(ring.resident_slots(), 8);
        offer(&mut ring, &mut t, 2, 1e9);
        offer(&mut ring, &mut t, 3, 40.0);
        offer(&mut ring, &mut t, 4, 1e300); // the finite-bucket ceiling
        offer(&mut ring, &mut t, 3, 30.0); // stale overflow entry left behind
        assert_eq!(ring.resident_slots(), 8);
        let mut order = Vec::new();
        let mut i = 1;
        while let Some(b) = ring.take(i, &mut out) {
            if b == i {
                order.push((b, out.clone()));
                i += 1;
            } else {
                i = b;
            }
        }
        assert_eq!(
            order,
            vec![
                (6, vec![1]),
                (30, vec![3]),
                (1_000_000_000, vec![2]),
                (usize::MAX - 1, vec![4]),
            ]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        // Model check against the whole-vector scan the ring replaces:
        // for any improvement sequence interleaved with bucket advances,
        // `take` must return exactly the scan's frontier (same order) and
        // the scan's next non-empty bucket.
        #[test]
        fn matches_the_full_scan(
            ops in proptest::collection::vec((0usize..12, 0.0f64..60.0, 0usize..4), 1..200),
            delta_pick in 0usize..3,
        ) {
            let delta = [0.5, 1.0, 3.0][delta_pick];
            let n = 12;
            let mut t = vec![f64::INFINITY; n];
            t[0] = 0.0;
            let mut ring = BucketRing::new();
            ring.start(n, delta, 0);
            let mut improvements = 0u64;
            let mut frontier = Vec::new();
            let mut out = Vec::new();
            // Bucket 0 holds just the source; relaxations start after it.
            prop_assert_eq!(ring.take(0, &mut out), Some(0));
            prop_assert_eq!(&out, &vec![0]);
            let mut i = 1usize;
            let mut done = false;
            for (u, cand, advance) in ops {
                if done {
                    break;
                }
                if advance == 0 {
                    let mut scan: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                    for (v, &tv) in t.iter().enumerate() {
                        let b = bucket_of(tv, delta);
                        if b != usize::MAX && b >= i {
                            scan.entry(b).or_default().push(v);
                        }
                    }
                    let expect_here = scan.get(&i).cloned().unwrap_or_default();
                    let expect_next = scan.keys().find(|&&b| b > i).copied();
                    match ring.take(i, &mut out) {
                        Some(b) if b == i => {
                            prop_assert_eq!(&out, &expect_here);
                        }
                        Some(b) => {
                            prop_assert!(expect_here.is_empty());
                            prop_assert_eq!(Some(b), expect_next);
                            i = b;
                            continue;
                        }
                        None => {
                            prop_assert!(scan.is_empty());
                            done = true;
                            continue;
                        }
                    }
                    // Later candidates land at or after the new bucket,
                    // like non-negative relaxations would.
                    i += 1;
                    continue;
                }
                let floor = i as f64 * delta;
                ring.merge(&mut t, u, floor + cand, &mut improvements, &mut frontier);
                prop_assert!(ring.resident_slots().is_power_of_two());
            }
        }
    }
}
