//! The per-core store buffer (§5.3).
//!
//! The reference architecture's DL1 is write-through: every store generates
//! a bus write. The pipeline, however, does not wait for the write to reach
//! L2 — a store is architecturally complete as soon as it enters the store
//! buffer, and the pipeline only stalls when the buffer is full.
//!
//! The timing consequence the paper exploits in Fig. 7(b): once the buffer
//! fills, the drained writes reach the bus back to back — with an
//! *injection time of zero* — which is the only situation in which a
//! request can actually suffer the full `ubd`.

use crate::types::{Addr, Cycle};
use std::collections::VecDeque;

#[derive(Debug, Clone, Copy)]
struct Entry {
    addr: Addr,
    pushed_at: Cycle,
}

/// A FIFO buffer of outstanding write-through stores.
#[derive(Debug, Clone)]
pub struct StoreBuffer {
    entries: VecDeque<Entry>,
    capacity: usize,
    /// Cycle at which the most recent drain completed (so the next drained
    /// write is ready immediately: δ = 0 between buffered stores).
    last_drain_done: Option<Cycle>,
    /// Peak occupancy observed (diagnostics).
    high_water: usize,
    /// Number of inserts rejected because the buffer was full (each one
    /// corresponds to a pipeline stall cycle).
    full_stalls: u64,
}

impl StoreBuffer {
    /// An empty buffer of `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero; validate configurations with
    /// [`StoreBufferConfig::validate`] first.
    ///
    /// [`StoreBufferConfig::validate`]: crate::config::StoreBufferConfig::validate
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "store buffer must have at least one entry");
        StoreBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            last_drain_done: None,
            high_water: 0,
            full_stalls: 0,
        }
    }

    /// Number of buffered stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer has no free entry.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Peak occupancy observed so far.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Number of insertion attempts that found the buffer full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }

    /// Attempts to buffer a store at cycle `now`. Returns `true` on
    /// success; on `false` the pipeline must stall and retry (a stall is
    /// counted).
    pub fn try_push(&mut self, addr: Addr, now: Cycle) -> bool {
        if self.is_full() {
            self.full_stalls += 1;
            return false;
        }
        self.entries.push_back(Entry { addr, pushed_at: now });
        self.high_water = self.high_water.max(self.entries.len());
        true
    }

    /// The address at the head of the buffer (next write to drain).
    pub fn head(&self) -> Option<Addr> {
        self.entries.front().map(|e| e.addr)
    }

    /// The cycle at which the head write is ready to request the bus:
    /// the later of its buffering time and the completion of the previous
    /// drain. Consecutive drained writes are therefore back to back
    /// (injection time zero), reproducing §5.3.
    ///
    /// This is also the buffer's event horizon for the machine's
    /// quiescence-skipping loop: between `head_ready` deadlines (and the
    /// pushes/drains that move them, which are events of the pipeline and
    /// the bus respectively) the buffer's state is time-invariant, so the
    /// machine may jump over the in-between cycles.
    pub fn head_ready(&self) -> Option<Cycle> {
        self.entries.front().map(|e| match self.last_drain_done {
            Some(done) => e.pushed_at.max(done),
            None => e.pushed_at,
        })
    }

    /// Removes the head after its bus write completed at `now`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is empty.
    pub fn complete_head(&mut self, now: Cycle) -> Addr {
        // lint_sources: allow (documented precondition: head must exist)
        let e = self.entries.pop_front().expect("completing a store from an empty buffer");
        self.last_drain_done = Some(now);
        e.addr
    }

    /// Clears the buffer and its statistics.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.last_drain_done = None;
        self.high_water = 0;
        self.full_stalls = 0;
    }

    /// Clears the buffer and re-targets its capacity, reusing the entry
    /// allocation. Indistinguishable from `StoreBuffer::new(capacity)`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, like [`StoreBuffer::new`].
    pub fn reset_to(&mut self, capacity: usize) {
        assert!(capacity > 0, "store buffer must have at least one entry");
        self.reset();
        self.capacity = capacity;
    }

    /// Appends a time-relative signature of the buffered state to `out`
    /// (entries, drain deadline, peak occupancy), with cycle stamps
    /// relative to `now`.
    ///
    /// Only the future part of a stamp is state. A stamp is read through
    /// [`StoreBuffer::head_ready`] alone, and the machine only asks
    /// `head_ready() <= now` (a drain posts at `now`) or takes
    /// `.max(now)`; an entry behind the head is read only after a later
    /// drain, whose stamp is at least `now`. So every stamp at or before
    /// `now` signs as 0: a buffer a starved store contender keeps full
    /// recurs even though its entries' ages grow every period. A future
    /// stamp — `try_push` stamps `now + dl1.latency` — signs exactly.
    pub(crate) fn ff_signature(&self, now: Cycle, out: &mut Vec<u64>) {
        out.push(self.entries.len() as u64);
        for e in &self.entries {
            out.push(e.addr);
            out.push(e.pushed_at.saturating_sub(now));
        }
        // The drain deadline only gates entries already buffered (a future
        // push is always later than a past drain), so an empty buffer's
        // deadline is unobservable and must not block a period match.
        let drain = match (self.entries.is_empty(), self.last_drain_done) {
            (false, Some(d)) => d.saturating_sub(now),
            _ => u64::MAX,
        };
        out.push(drain);
        out.push(self.high_water as u64);
    }

    /// Shifts every live cycle stamp forward by `delta` (fast-forward).
    pub(crate) fn ff_shift(&mut self, delta: Cycle) {
        for e in &mut self.entries {
            e.pushed_at += delta;
        }
        if let Some(d) = &mut self.last_drain_done {
            *d += delta;
        }
    }

    /// Hands each monotone counter to `f`, in a fixed order (fast-forward
    /// snapshots and scales them).
    pub(crate) fn ff_counters(&mut self, f: &mut impl FnMut(&mut u64)) {
        f(&mut self.full_stalls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut sb = StoreBuffer::new(4);
        assert!(sb.try_push(0x10, 0));
        assert!(sb.try_push(0x20, 1));
        assert_eq!(sb.head(), Some(0x10));
        assert_eq!(sb.complete_head(100), 0x10);
        assert_eq!(sb.head(), Some(0x20));
    }

    #[test]
    fn full_buffer_rejects_and_counts_stalls() {
        let mut sb = StoreBuffer::new(2);
        assert!(sb.try_push(1, 0));
        assert!(sb.try_push(2, 0));
        assert!(sb.is_full());
        assert!(!sb.try_push(3, 1));
        assert!(!sb.try_push(3, 2));
        assert_eq!(sb.full_stalls(), 2);
        sb.complete_head(10);
        assert!(sb.try_push(3, 10));
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut sb = StoreBuffer::new(8);
        for i in 0..5 {
            sb.try_push(i, i);
        }
        sb.complete_head(10);
        sb.complete_head(11);
        assert_eq!(sb.len(), 3);
        assert_eq!(sb.high_water(), 5);
    }

    #[test]
    fn drained_writes_are_back_to_back() {
        let mut sb = StoreBuffer::new(4);
        sb.try_push(1, 5);
        sb.try_push(2, 6);
        // First write buffered at cycle 5, no drain yet.
        assert_eq!(sb.head_ready(), Some(5));
        sb.complete_head(40);
        // Second write ready immediately at drain completion: δ = 0.
        assert_eq!(sb.head_ready(), Some(40));
        sb.complete_head(67);
        // A write buffered after the last drain keeps its own time.
        sb.try_push(3, 90);
        assert_eq!(sb.head_ready(), Some(90));
    }

    #[test]
    fn empty_buffer_has_no_head() {
        let sb = StoreBuffer::new(1);
        assert_eq!(sb.head(), None);
        assert_eq!(sb.head_ready(), None);
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn completing_empty_buffer_panics() {
        let mut sb = StoreBuffer::new(1);
        sb.complete_head(0);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = StoreBuffer::new(0);
    }

    #[test]
    fn reset_clears_everything() {
        let mut sb = StoreBuffer::new(2);
        sb.try_push(1, 0);
        sb.try_push(2, 0);
        sb.try_push(3, 0); // stall
        sb.reset();
        assert!(sb.is_empty());
        assert_eq!(sb.full_stalls(), 0);
        assert_eq!(sb.high_water(), 0);
        assert_eq!(sb.head_ready(), None);
    }
}
