//! Performance monitoring counters.
//!
//! The methodology's confidence argument (§4.3) leans on hardware event
//! counters — on the NGMP, counters 0x17 and 0x18 expose per-core and
//! overall bus utilisation. This module models that observability layer:
//! per-request contention records (γ, ready-time contender counts) and
//! per-core aggregate counters, which the analysis crates consume to build
//! the paper's histograms (Fig. 6) without reaching into simulator
//! internals.
//!
//! Every record is tagged with the [`ResourceId`] it was observed at, and
//! the γ histograms are kept **per resource**: on a two-level topology
//! the bus and the memory-controller queue each expose their own delay
//! distribution, so per-resource UBD contributions can be read off the
//! counters independently. The bus-flavoured accessors
//! ([`CorePmc::bus_requests`], [`CorePmc::max_gamma`], …) read resource 0
//! and keep their pre-topology meaning.

use crate::bus::BusOpKind;
use crate::resource::ResourceId;
use crate::types::{Addr, CoreId, Cycle};
use std::collections::BTreeMap;

/// One completed request at a shared resource, as recorded by the
/// monitoring hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// The resource the request arbitrated for.
    pub resource: ResourceId,
    /// Transaction kind.
    pub kind: BusOpKind,
    /// Line-aligned address.
    pub addr: Addr,
    /// Cycle the request became ready at the resource.
    pub ready: Cycle,
    /// Cycle the resource granted it.
    pub granted: Cycle,
    /// Cycle the transaction completed.
    pub completed: Cycle,
    /// Number of *other* cores with an outstanding transaction at this
    /// resource at the ready cycle (Fig. 6(a) on the bus).
    pub contenders: u32,
}

impl RequestRecord {
    /// The contention delay γ = granted − ready (Eq. 2, per resource).
    pub fn gamma(&self) -> u64 {
        self.granted - self.ready
    }
}

/// Counters for one core.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorePmc {
    /// Every completed request, in completion order (present only when the
    /// machine was configured with `record_requests`).
    pub records: Vec<RequestRecord>,
    /// Histogram of per-request γ at the **bus** (always recorded).
    pub gamma_histogram: BTreeMap<u64, u64>,
    /// Histogram of per-request γ at the **memory-controller queue**
    /// (always recorded; empty on single-bus topologies).
    pub mc_gamma_histogram: BTreeMap<u64, u64>,
    /// Histogram of ready-time bus contender counts (always recorded).
    pub contender_histogram: BTreeMap<u32, u64>,
    /// Retired instructions.
    pub instructions: u64,
    /// Executed loads.
    pub loads: u64,
    /// Executed stores.
    pub stores: u64,
    /// DL1 load hits.
    pub dl1_hits: u64,
    /// DL1 load misses (bus requests).
    pub dl1_misses: u64,
    /// L2 partition hits (grant-time lookups).
    pub l2_hits: u64,
    /// L2 partition misses.
    pub l2_misses: u64,
    /// Cycles the pipeline stalled on a full store buffer.
    pub sb_stall_cycles: u64,
}

impl CorePmc {
    /// The γ histogram of one resource (resource 0 = bus, 1 = controller
    /// queue; ids beyond the topology read as empty).
    pub fn gamma_histogram_at(&self, resource: ResourceId) -> &BTreeMap<u64, u64> {
        static EMPTY: BTreeMap<u64, u64> = BTreeMap::new();
        match resource {
            ResourceId::BUS => &self.gamma_histogram,
            ResourceId::MEMORY_CONTROLLER => &self.mc_gamma_histogram,
            _ => &EMPTY,
        }
    }

    /// Total bus requests observed (from the γ histogram, so it is
    /// available even when full records are off).
    pub fn bus_requests(&self) -> u64 {
        self.requests_at(ResourceId::BUS)
    }

    /// Total requests observed at one resource.
    pub fn requests_at(&self, resource: ResourceId) -> u64 {
        self.gamma_histogram_at(resource).values().sum()
    }

    /// Sum of all recorded bus contention delays.
    pub fn total_gamma(&self) -> u64 {
        self.total_gamma_at(ResourceId::BUS)
    }

    /// Sum of all recorded contention delays at one resource.
    pub fn total_gamma_at(&self, resource: ResourceId) -> u64 {
        self.gamma_histogram_at(resource).iter().map(|(g, n)| g * n).sum()
    }

    /// Largest observed bus contention delay — the `ubd_m` a naive
    /// measurement-based analysis would report for this core.
    pub fn max_gamma(&self) -> Option<u64> {
        self.max_gamma_at(ResourceId::BUS)
    }

    /// Largest observed contention delay at one resource.
    pub fn max_gamma_at(&self, resource: ResourceId) -> Option<u64> {
        self.gamma_histogram_at(resource).keys().next_back().copied()
    }

    /// The most frequent bus contention delay and its count, if any
    /// requests were observed. Under the synchrony effect this mode covers
    /// almost all requests (98 % in the paper's Fig. 6(b)).
    pub fn mode_gamma(&self) -> Option<(u64, u64)> {
        self.gamma_histogram.iter().max_by_key(|&(g, n)| (*n, *g)).map(|(&g, &n)| (g, n))
    }

    /// Hands each scalar counter to `f`, in a fixed order (fast-forward
    /// snapshots and scales them; it handles the histograms itself).
    pub(crate) fn ff_counters(&mut self, f: &mut impl FnMut(&mut u64)) {
        let scalars = [
            &mut self.instructions,
            &mut self.loads,
            &mut self.stores,
            &mut self.dl1_hits,
            &mut self.dl1_misses,
            &mut self.l2_hits,
            &mut self.l2_misses,
            &mut self.sb_stall_cycles,
        ];
        scalars.into_iter().for_each(f);
    }
}

/// The machine-wide monitoring unit.
#[derive(Debug, Clone)]
pub struct Pmc {
    cores: Vec<CorePmc>,
    record_requests: bool,
}

impl Pmc {
    /// A monitoring unit for `num_cores` cores; `record_requests` controls
    /// whether full per-request records are kept.
    pub fn new(num_cores: usize, record_requests: bool) -> Self {
        Pmc { cores: (0..num_cores).map(|_| CorePmc::default()).collect(), record_requests }
    }

    /// The counters of one core.
    pub fn core(&self, core: CoreId) -> &CorePmc {
        &self.cores[core.index()]
    }

    /// Mutable access for the machine.
    pub(crate) fn core_mut(&mut self, core: CoreId) -> &mut CorePmc {
        &mut self.cores[core.index()]
    }

    /// Records a completed request at the resource named in the record.
    pub(crate) fn record_request(&mut self, core: CoreId, rec: RequestRecord) {
        let c = &mut self.cores[core.index()];
        if rec.resource == ResourceId::BUS {
            *c.gamma_histogram.entry(rec.gamma()).or_insert(0) += 1;
            *c.contender_histogram.entry(rec.contenders).or_insert(0) += 1;
        } else if rec.resource == ResourceId::MEMORY_CONTROLLER {
            *c.mc_gamma_histogram.entry(rec.gamma()).or_insert(0) += 1;
        } else {
            // A resource beyond the controller has no histogram yet;
            // counting it as mc would silently misattribute its gammas.
            debug_assert!(false, "no gamma histogram for resource {}", rec.resource);
        }
        if self.record_requests {
            c.records.push(rec);
        }
    }

    /// Clears every counter (e.g. after warm-up) in place, keeping the
    /// per-core allocations for reuse.
    pub fn reset(&mut self) {
        for c in &mut self.cores {
            c.records.clear();
            c.gamma_histogram.clear();
            c.mc_gamma_histogram.clear();
            c.contender_histogram.clear();
            c.instructions = 0;
            c.loads = 0;
            c.stores = 0;
            c.dl1_hits = 0;
            c.dl1_misses = 0;
            c.l2_hits = 0;
            c.l2_misses = 0;
            c.sb_stall_cycles = 0;
        }
    }

    /// Rewinds the unit to its just-built state for a possibly different
    /// core count or recording mode. Indistinguishable from `Pmc::new`.
    pub fn reset_to(&mut self, num_cores: usize, record_requests: bool) {
        self.cores.truncate(num_cores);
        self.reset();
        while self.cores.len() < num_cores {
            self.cores.push(CorePmc::default());
        }
        self.record_requests = record_requests;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ready: Cycle, granted: Cycle, contenders: u32) -> RequestRecord {
        RequestRecord {
            resource: ResourceId::BUS,
            kind: BusOpKind::Load,
            addr: 0,
            ready,
            granted,
            completed: granted + 9,
            contenders,
        }
    }

    fn mc_rec(ready: Cycle, granted: Cycle) -> RequestRecord {
        RequestRecord { resource: ResourceId::MEMORY_CONTROLLER, ..rec(ready, granted, 0) }
    }

    #[test]
    fn gamma_is_grant_minus_ready() {
        assert_eq!(rec(10, 36, 3).gamma(), 26);
        assert_eq!(rec(5, 5, 0).gamma(), 0);
    }

    #[test]
    fn histograms_accumulate() {
        let mut pmc = Pmc::new(2, true);
        let c0 = CoreId::new(0);
        pmc.record_request(c0, rec(0, 26, 3));
        pmc.record_request(c0, rec(30, 56, 3));
        pmc.record_request(c0, rec(60, 60, 1));
        let core = pmc.core(c0);
        assert_eq!(core.bus_requests(), 3);
        assert_eq!(core.gamma_histogram[&26], 2);
        assert_eq!(core.gamma_histogram[&0], 1);
        assert_eq!(core.max_gamma(), Some(26));
        assert_eq!(core.mode_gamma(), Some((26, 2)));
        assert_eq!(core.total_gamma(), 52);
        assert_eq!(core.contender_histogram[&3], 2);
        assert_eq!(core.records.len(), 3);
        assert_eq!(pmc.core(CoreId::new(1)).bus_requests(), 0);
    }

    #[test]
    fn mc_records_fill_their_own_histogram() {
        let mut pmc = Pmc::new(1, true);
        let c0 = CoreId::new(0);
        pmc.record_request(c0, rec(0, 26, 3));
        pmc.record_request(c0, mc_rec(40, 44));
        pmc.record_request(c0, mc_rec(60, 60));
        let core = pmc.core(c0);
        assert_eq!(core.bus_requests(), 1, "mc requests must not count as bus requests");
        assert_eq!(core.requests_at(ResourceId::MEMORY_CONTROLLER), 2);
        assert_eq!(core.max_gamma(), Some(26));
        assert_eq!(core.max_gamma_at(ResourceId::MEMORY_CONTROLLER), Some(4));
        assert_eq!(core.total_gamma_at(ResourceId::MEMORY_CONTROLLER), 4);
        assert_eq!(core.contender_histogram.len(), 1, "contender histogram stays bus-only");
        assert_eq!(core.records.len(), 3, "full records keep every resource");
    }

    #[test]
    fn record_toggle_drops_records_but_keeps_histograms() {
        let mut pmc = Pmc::new(1, false);
        pmc.record_request(CoreId::new(0), rec(0, 5, 2));
        let core = pmc.core(CoreId::new(0));
        assert!(core.records.is_empty());
        assert_eq!(core.bus_requests(), 1);
    }

    #[test]
    fn reset_clears_counters() {
        let mut pmc = Pmc::new(1, true);
        pmc.record_request(CoreId::new(0), rec(0, 1, 0));
        pmc.record_request(CoreId::new(0), mc_rec(0, 1));
        pmc.reset();
        assert_eq!(pmc.core(CoreId::new(0)).bus_requests(), 0);
        assert_eq!(pmc.core(CoreId::new(0)).requests_at(ResourceId::MEMORY_CONTROLLER), 0);
        assert!(pmc.core(CoreId::new(0)).records.is_empty());
    }

    #[test]
    fn mode_gamma_prefers_higher_gamma_on_ties() {
        let mut pmc = Pmc::new(1, false);
        pmc.record_request(CoreId::new(0), rec(0, 3, 0));
        pmc.record_request(CoreId::new(0), rec(0, 7, 0));
        assert_eq!(pmc.core(CoreId::new(0)).mode_gamma(), Some((7, 1)));
    }

    #[test]
    fn empty_core_has_no_max() {
        let pmc = Pmc::new(1, true);
        assert_eq!(pmc.core(CoreId::new(0)).max_gamma(), None);
        assert_eq!(pmc.core(CoreId::new(0)).mode_gamma(), None);
        assert_eq!(pmc.core(CoreId::new(0)).max_gamma_at(ResourceId::MEMORY_CONTROLLER), None);
    }
}
