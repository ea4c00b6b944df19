//! Memory controller and DDR2-like DRAM timing model.
//!
//! Stands in for the paper's DRAMsim2 + DDR2-667 configuration (§5.1).
//! The controller is FCFS and single-channel; each of the `banks` banks
//! keeps an open-page row buffer, so a request's latency depends on whether
//! it hits the open row (tCL + burst), needs an activate (tRCD + tCL +
//! burst) or a precharge-activate (tRP + tRCD + tCL + burst), plus a fixed
//! controller overhead. All latencies are expressed in core cycles.
//!
//! The rsk experiments never reach DRAM in steady state (they are
//! architected to hit in L2); DRAM shapes the EEMBC-profile background
//! traffic of Fig. 6(a) and the cold-start transients.

use crate::config::DramConfig;
use crate::types::{Addr, CoreId, Cycle};
use std::collections::VecDeque;

/// How a request interacted with the bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// The open row matched.
    Hit,
    /// The bank had no open row; an activate was needed.
    Empty,
    /// A different row was open; precharge then activate.
    Conflict,
}

/// A completed memory access, to be turned into a bus refill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramCompletion {
    /// Requesting core.
    pub core: CoreId,
    /// Line address that was fetched.
    pub addr: Addr,
    /// Cycle at which the data is available at the controller.
    pub finished: Cycle,
    /// Row-buffer outcome (diagnostics).
    pub outcome: RowOutcome,
}

/// Aggregate DRAM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Requests serviced.
    pub requests: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer conflicts (precharge needed).
    pub row_conflicts: u64,
    /// Total cycles requests spent queued before service began.
    pub queue_wait_cycles: u64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    core: CoreId,
    addr: Addr,
    done: Cycle,
    outcome: RowOutcome,
}

#[derive(Debug, Clone, Copy)]
struct Queued {
    core: CoreId,
    addr: Addr,
    arrived: Cycle,
}

/// FCFS memory controller in front of a banked, open-page DRAM.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    open_rows: Vec<Option<u64>>,
    queue: VecDeque<Queued>,
    in_flight: Option<InFlight>,
    stats: DramStats,
}

impl Dram {
    /// Builds the memory subsystem.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; validate user-supplied configs
    /// with [`DramConfig::validate`] first.
    pub fn new(cfg: DramConfig) -> Self {
        // lint_sources: allow (construction-time config check)
        cfg.validate().expect("invalid DRAM configuration");
        Dram {
            open_rows: vec![None; cfg.banks as usize],
            cfg,
            queue: VecDeque::new(),
            in_flight: None,
            stats: DramStats::default(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    fn bank_of(&self, addr: Addr) -> usize {
        ((addr / self.cfg.row_bytes) % u64::from(self.cfg.banks)) as usize
    }

    fn row_of(&self, addr: Addr) -> u64 {
        addr / (self.cfg.row_bytes * u64::from(self.cfg.banks))
    }

    /// Queues a line fetch for `core`.
    pub fn enqueue(&mut self, core: CoreId, addr: Addr, now: Cycle) {
        self.queue.push_back(Queued { core, addr, arrived: now });
    }

    /// Outstanding requests (queued + in flight).
    pub fn outstanding(&self) -> usize {
        self.queue.len() + usize::from(self.in_flight.is_some())
    }

    /// The earliest cycle `>= now` at which the controller can act, or
    /// `None` when it is quiescent (no request queued or in flight).
    ///
    /// The in-flight access completes at its `done` cycle and the next
    /// queued request starts service in the very same [`Dram::tick`], so
    /// that one cycle is the only event horizon. A non-empty queue with
    /// nothing in flight cannot outlive a tick (the head is admitted
    /// immediately); `now` is returned defensively so a skipping caller
    /// never jumps over the admission.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self.in_flight {
            Some(f) => Some(f.done.max(now)),
            None if !self.queue.is_empty() => Some(now),
            None => None,
        }
    }

    /// Rewinds the controller to its just-built state for a possibly
    /// different configuration, reusing the row-buffer allocation when the
    /// bank count is unchanged. Indistinguishable from `Dram::new(cfg)`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration, like [`Dram::new`].
    pub fn reset_to(&mut self, cfg: DramConfig) {
        // lint_sources: allow (construction-time config check)
        cfg.validate().expect("invalid DRAM configuration");
        if u64::from(cfg.banks) == self.open_rows.len() as u64 {
            self.open_rows.fill(None);
        } else {
            self.open_rows.clear();
            self.open_rows.resize(cfg.banks as usize, None);
        }
        self.cfg = cfg;
        self.queue.clear();
        self.in_flight = None;
        self.stats = DramStats::default();
    }

    /// Appends a time-relative signature of the in-flight state to `out`
    /// (open rows, queue, current access), encoding cycle stamps relative
    /// to `now`.
    pub(crate) fn ff_signature(&self, now: Cycle, out: &mut Vec<u64>) {
        for row in &self.open_rows {
            out.push(row.map_or(u64::MAX, |r| r));
        }
        out.push(self.queue.len() as u64);
        for q in &self.queue {
            out.push(q.core.index() as u64);
            out.push(q.addr);
            out.push(now.wrapping_sub(q.arrived));
        }
        match self.in_flight {
            None => out.push(u64::MAX),
            Some(f) => {
                out.push(f.core.index() as u64);
                out.push(f.addr);
                out.push(f.done.wrapping_sub(now));
                out.push(f.outcome as u64);
            }
        }
    }

    /// Shifts every live cycle stamp forward by `delta` (fast-forward).
    pub(crate) fn ff_shift(&mut self, delta: Cycle) {
        for q in &mut self.queue {
            q.arrived += delta;
        }
        if let Some(f) = &mut self.in_flight {
            f.done += delta;
        }
    }

    /// Hands each monotone counter to `f`, in a fixed order (fast-forward
    /// snapshots and scales them).
    pub(crate) fn ff_counters(&mut self, f: &mut impl FnMut(&mut u64)) {
        f(&mut self.stats.requests);
        f(&mut self.stats.row_hits);
        f(&mut self.stats.row_conflicts);
        f(&mut self.stats.queue_wait_cycles);
    }

    /// Advances the controller to cycle `now`; returns a completion if one
    /// finishes exactly at `now`.
    pub fn tick(&mut self, now: Cycle) -> Option<DramCompletion> {
        let mut completion = None;
        if let Some(f) = self.in_flight {
            if f.done == now {
                completion = Some(DramCompletion {
                    core: f.core,
                    addr: f.addr,
                    finished: f.done,
                    outcome: f.outcome,
                });
                self.in_flight = None;
            }
        }
        if self.in_flight.is_none() {
            if let Some(req) = self.queue.front().copied() {
                if req.arrived <= now {
                    self.queue.pop_front();
                    let bank = self.bank_of(req.addr);
                    let row = self.row_of(req.addr);
                    let outcome = match self.open_rows[bank] {
                        Some(open) if open == row => RowOutcome::Hit,
                        Some(_) => RowOutcome::Conflict,
                        None => RowOutcome::Empty,
                    };
                    self.open_rows[bank] = Some(row);
                    let c = &self.cfg;
                    let latency = c.controller_overhead
                        + match outcome {
                            RowOutcome::Hit => c.t_cl + c.burst,
                            RowOutcome::Empty => c.t_rcd + c.t_cl + c.burst,
                            RowOutcome::Conflict => c.t_rp + c.t_rcd + c.t_cl + c.burst,
                        };
                    self.stats.requests += 1;
                    self.stats.queue_wait_cycles += now - req.arrived;
                    match outcome {
                        RowOutcome::Hit => self.stats.row_hits += 1,
                        RowOutcome::Conflict => self.stats.row_conflicts += 1,
                        RowOutcome::Empty => {}
                    }
                    self.in_flight = Some(InFlight {
                        core: req.core,
                        addr: req.addr,
                        done: now + latency,
                        outcome,
                    });
                }
            }
        }
        completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(DramConfig::ddr2_667())
    }

    fn run_one(d: &mut Dram, addr: Addr, start: Cycle) -> DramCompletion {
        d.enqueue(CoreId::new(0), addr, start);
        for now in start..start + 200 {
            if let Some(c) = d.tick(now) {
                return c;
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn empty_bank_latency() {
        let mut d = dram();
        let c = run_one(&mut d, 0, 0);
        // overhead + tRCD + tCL + burst = 2 + 4 + 4 + 2 = 12
        assert_eq!(c.finished, 12);
        assert_eq!(c.outcome, RowOutcome::Empty);
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = dram();
        let first = run_one(&mut d, 0, 0);
        let second = run_one(&mut d, 32, first.finished + 1);
        assert_eq!(second.outcome, RowOutcome::Hit);
        let hit_latency = second.finished - (first.finished + 1);
        // overhead + tCL + burst = 2 + 4 + 2 = 8
        assert_eq!(hit_latency, 8);
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = dram();
        let cfg = *d.config();
        let first = run_one(&mut d, 0, 0);
        // Same bank, different row: stride = row_bytes * banks.
        let other_row = cfg.row_bytes * u64::from(cfg.banks);
        let second = run_one(&mut d, other_row, first.finished + 1);
        assert_eq!(second.outcome, RowOutcome::Conflict);
        let lat = second.finished - (first.finished + 1);
        // overhead + tRP + tRCD + tCL + burst = 2 + 4 + 4 + 4 + 2 = 16
        assert_eq!(lat, 16);
    }

    #[test]
    fn different_banks_have_independent_rows() {
        let mut d = dram();
        let cfg = *d.config();
        let a = run_one(&mut d, 0, 0);
        let b = run_one(&mut d, cfg.row_bytes, a.finished + 1); // bank 1
        assert_eq!(b.outcome, RowOutcome::Empty);
        // Returning to bank 0's open row still hits.
        let c = run_one(&mut d, 64, b.finished + 1);
        assert_eq!(c.outcome, RowOutcome::Hit);
    }

    #[test]
    fn fcfs_ordering_and_queue_wait() {
        let mut d = dram();
        d.enqueue(CoreId::new(0), 0, 0);
        d.enqueue(CoreId::new(1), 4096, 0);
        let mut done = Vec::new();
        for now in 0..100 {
            if let Some(c) = d.tick(now) {
                done.push(c);
            }
        }
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].core, CoreId::new(0));
        assert_eq!(done[1].core, CoreId::new(1));
        assert!(done[1].finished > done[0].finished);
        assert!(d.stats().queue_wait_cycles > 0, "second request waited");
    }

    #[test]
    fn next_event_is_the_in_flight_completion() {
        let mut d = dram();
        assert_eq!(d.next_event(0), None, "idle DRAM is quiescent");
        d.enqueue(CoreId::new(0), 0, 0);
        assert_eq!(d.next_event(0), Some(0), "queued but not started: imminent");
        d.tick(0); // admits the request; empty-bank latency is 12
        assert_eq!(d.next_event(1), Some(12));
        d.enqueue(CoreId::new(1), 4096, 3);
        assert_eq!(d.next_event(3), Some(12), "queued work waits behind the flight");
        assert!(d.tick(12).is_some());
        assert_eq!(d.next_event(12), Some(12 + 12), "second request started in the same tick");
    }

    #[test]
    fn outstanding_counts_queue_and_flight() {
        let mut d = dram();
        d.enqueue(CoreId::new(0), 0, 0);
        d.enqueue(CoreId::new(0), 64, 0);
        assert_eq!(d.outstanding(), 2);
        d.tick(0); // starts the first
        assert_eq!(d.outstanding(), 2, "one queued + one in flight");
    }
}
