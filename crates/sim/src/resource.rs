//! The shared-resource contention protocol.
//!
//! The paper's reference NGMP has *two* arbitrated contention points on
//! the request path — the shared round-robin bus and the FIFO queue at
//! the on-chip memory controller (§5.1: "contention only happens on the
//! bus and the memory controller"). Both follow the same protocol:
//!
//! 1. **post** — a requester presents at most one transaction;
//! 2. **grant** — when the resource is free, its [`Arbiter`] picks among
//!    the ready transactions; the per-request contention delay is
//!    `γ = grant − ready` (Eq. 2, per resource);
//! 3. **occupy** — the grant holds the resource for the transaction's
//!    occupancy;
//! 4. **complete** — the transaction leaves and its effects are
//!    delivered.
//!
//! [`SharedResource`] implements that protocol once, keyed by a
//! [`ResourceId`]; the machine's bus and optional memory-controller
//! queue are both instances. Each instance owns its own arbiter,
//! occupancy table, and [`ResourceStats`], so per-resource UBD terms
//! (`ubd_r = (Nc − 1) · l_r`) can be measured and summed independently.

use crate::bus::{build_arbiter, ActiveTxn, Arbiter, ArbiterKind, BusOpKind, Pending, RequestView};
use crate::config::{BusConfig, McQueueConfig};
use crate::fastforward::Waiting;
use crate::types::{Addr, CoreId, Cycle};
use std::fmt;

/// The signature word of a pending slot whose waiting time is hidden
/// ([`SharedResource::ff_signature`]). No kind word takes this value, so
/// the slot encodings stay prefix-free.
const WAITING: u64 = u64::MAX - 1;

/// Identifies one shared resource on the request path.
///
/// Resource 0 is always the bus; further resources are numbered in
/// request-path order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(usize);

impl ResourceId {
    /// The shared bus (always present, always resource 0).
    pub const BUS: ResourceId = ResourceId(0);
    /// The memory-controller queue (present on two-level topologies).
    pub const MEMORY_CONTROLLER: ResourceId = ResourceId(1);

    /// A resource id from a raw request-path position.
    pub fn new(index: usize) -> Self {
        ResourceId(index)
    }

    /// The raw request-path position.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// What a shared resource *is* — used for reporting and record keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// The shared AHB-like processor bus.
    Bus,
    /// The admission queue at the on-chip memory controller.
    MemoryController,
}

impl ResourceKind {
    /// Short, stable name used in records and reports.
    pub fn slug(self) -> &'static str {
        match self {
            ResourceKind::Bus => "bus",
            ResourceKind::MemoryController => "mc",
        }
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.slug())
    }
}

/// Aggregate statistics of one shared resource — the analogue of the
/// NGMP's PMC counters 0x17/0x18 (per-core and overall utilisation,
/// §4.3), kept per resource so two-level topologies expose one counter
/// set per contention point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// Cycles the resource spent occupied.
    pub busy_cycles: u64,
    /// Number of transactions granted.
    pub grants: u64,
    /// Occupied cycles attributed to each requester.
    pub per_core_busy: Vec<u64>,
    /// Grants attributed to each requester.
    pub per_core_grants: Vec<u64>,
}

impl ResourceStats {
    fn new(num_cores: usize) -> Self {
        ResourceStats {
            busy_cycles: 0,
            grants: 0,
            per_core_busy: vec![0; num_cores],
            per_core_grants: vec![0; num_cores],
        }
    }

    /// Overall utilisation over `elapsed` cycles, in `[0, 1]`.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / elapsed as f64
        }
    }
}

/// One arbitrated contention point: one pending slot per requester, one
/// active transaction, an [`Arbiter`], and its own statistics.
#[derive(Debug)]
pub struct SharedResource {
    id: ResourceId,
    kind: ResourceKind,
    arbiter: Box<dyn Arbiter>,
    /// Worst-case occupancy presented to the arbiter (TDMA slot fitting).
    worst_occupancy: u64,
    pending: Vec<Option<Pending>>,
    active: Option<ActiveTxn>,
    stats: ResourceStats,
    /// Reusable arbitration view, so [`SharedResource::try_grant`] does
    /// not allocate on every free cycle of the hot simulation loop.
    view_buf: Vec<Option<RequestView>>,
}

impl SharedResource {
    /// A resource with an explicit identity, policy, and worst-case
    /// occupancy over `num_cores` requesters.
    pub fn new(
        id: ResourceId,
        kind: ResourceKind,
        arbiter: ArbiterKind,
        worst_occupancy: u64,
        num_cores: usize,
    ) -> Self {
        SharedResource {
            id,
            kind,
            arbiter: build_arbiter(arbiter, num_cores),
            worst_occupancy,
            pending: vec![None; num_cores],
            active: None,
            stats: ResourceStats::new(num_cores),
            view_buf: Vec::with_capacity(num_cores),
        }
    }

    /// The shared bus of a [`BusConfig`] (resource 0).
    pub fn bus(cfg: BusConfig, num_cores: usize) -> Self {
        SharedResource::new(
            ResourceId::BUS,
            ResourceKind::Bus,
            cfg.arbiter,
            cfg.l2_hit_occupancy,
            num_cores,
        )
    }

    /// The memory-controller queue of an [`McQueueConfig`] (resource 1).
    pub fn memory_controller(cfg: McQueueConfig, num_cores: usize) -> Self {
        SharedResource::new(
            ResourceId::MEMORY_CONTROLLER,
            ResourceKind::MemoryController,
            cfg.arbiter,
            cfg.service_occupancy,
            num_cores,
        )
    }

    /// This resource's request-path identity.
    pub fn id(&self) -> ResourceId {
        self.id
    }

    /// What this resource is.
    pub fn kind(&self) -> ResourceKind {
        self.kind
    }

    /// The arbitration policy in force.
    pub fn arbiter_kind(&self) -> ArbiterKind {
        self.arbiter.kind()
    }

    /// The worst-case occupancy presented to the arbiter — the `l_r` of
    /// this resource's Eq. 1 term (and the fixed service occupancy of
    /// constant-occupancy resources like the controller queue).
    pub fn worst_occupancy(&self) -> u64 {
        self.worst_occupancy
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> &ResourceStats {
        &self.stats
    }

    /// The transaction currently occupying the resource, if any.
    pub fn active(&self) -> Option<&ActiveTxn> {
        self.active.as_ref()
    }

    /// Whether `core` already has a transaction posted (pending or active).
    pub fn has_outstanding(&self, core: CoreId) -> bool {
        self.pending[core.index()].is_some() || self.active.is_some_and(|a| a.core == core)
    }

    /// Number of cores *other than* `core` with an outstanding transaction
    /// (pending or occupying). On the bus this is the paper's Fig. 6(a)
    /// quantity: how many contenders compete when a request becomes ready.
    pub fn contenders_of(&self, core: CoreId) -> u32 {
        let mut n = 0;
        for i in 0..self.pending.len() {
            if i == core.index() {
                continue;
            }
            let id = CoreId::new(i);
            if self.pending[i].is_some() || self.active.is_some_and(|a| a.core == id) {
                n += 1;
            }
        }
        n
    }

    /// Posts a transaction for `core`.
    ///
    /// # Panics
    ///
    /// Panics if the core already has a pending transaction: cores are
    /// single-outstanding masters at every resource on the path, and the
    /// machine must wait for completion before posting again.
    pub fn post(&mut self, core: CoreId, kind: BusOpKind, addr: Addr, ready: Cycle) {
        let slot = &mut self.pending[core.index()];
        assert!(slot.is_none(), "core {core} posted a second transaction while one is pending");
        *slot = Some(Pending { kind, addr, ready });
    }

    /// Whether the resource is free at cycle `now`.
    pub fn is_free(&self, now: Cycle) -> bool {
        match self.active {
            None => true,
            Some(a) => a.until <= now,
        }
    }

    /// If the active transaction finishes exactly at `now`, removes and
    /// returns it. The machine delivers its effects in response.
    pub fn take_completed(&mut self, now: Cycle) -> Option<ActiveTxn> {
        if self.active.is_some_and(|a| a.until == now) {
            self.active.take()
        } else {
            None
        }
    }

    /// Runs arbitration at cycle `now` if the resource is free.
    ///
    /// `occupancy_of` maps a granted transaction to its occupancy and an
    /// optional grant-time lookup outcome (the bus passes an L2-partition
    /// probe; fixed-occupancy resources return a constant). Returns the
    /// granted transaction, which the resource has also retained as
    /// active.
    pub fn try_grant<F>(&mut self, now: Cycle, mut occupancy_of: F) -> Option<ActiveTxn>
    where
        F: FnMut(CoreId, &Pending) -> (u64, Option<bool>),
    {
        if !self.is_free(now) {
            return None;
        }
        let worst = self.worst_occupancy;
        self.view_buf.clear();
        self.view_buf.extend(
            self.pending
                .iter()
                .map(|p| p.map(|p| RequestView { ready: p.ready, occupancy: worst })),
        );
        let chosen = self.arbiter.select(&self.view_buf, now)?;
        debug_assert!(self.pending[chosen].is_some(), "arbiter chose an empty slot");
        let pending = self.pending[chosen].take()?;
        debug_assert!(pending.ready <= now, "arbiter granted a not-yet-ready request");
        let core = CoreId::new(chosen);
        let (occupancy, l2_hit) = occupancy_of(core, &pending);
        debug_assert!(occupancy > 0);
        let txn = ActiveTxn {
            core,
            kind: pending.kind,
            addr: pending.addr,
            ready: pending.ready,
            granted: now,
            until: now + occupancy,
            l2_hit,
        };
        self.active = Some(txn);
        self.stats.busy_cycles += occupancy;
        self.stats.grants += 1;
        self.stats.per_core_busy[chosen] += occupancy;
        self.stats.per_core_grants[chosen] += 1;
        Some(txn)
    }

    /// The earliest cycle `>= now` at which this resource can act on its
    /// own — complete its active transaction, or (when free) grant a
    /// posted request — or `None` when it is quiescent (idle with
    /// nothing posted, so only a new post can wake it).
    ///
    /// This is a *sound lower bound*: the machine's quiescence-skipping
    /// loop may step the returned cycle and find nothing to do (e.g. a
    /// fixed-priority loser), but no grant or completion can ever occur
    /// strictly before it. While occupied, the horizon is the completion
    /// cycle — arbitration only runs on a free resource, so nothing else
    /// can happen here earlier (posts are the cores' events, and they are
    /// accounted by the per-core horizons).
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if let Some(active) = self.active {
            return Some(active.until.max(now));
        }
        let worst = self.worst_occupancy;
        let mut horizon: Option<Cycle> = None;
        for (core, pending) in self.pending.iter().enumerate() {
            let Some(p) = pending else { continue };
            let view = RequestView { ready: p.ready, occupancy: worst };
            if let Some(chance) = self.arbiter.earliest_grant(core, view, now) {
                let chance = chance.max(now);
                horizon = Some(horizon.map_or(chance, |h: Cycle| h.min(chance)));
            }
        }
        horizon
    }

    /// Rewinds the resource to its just-built state for a possibly
    /// different policy: drops pending and active transactions, resets
    /// arbitration state and statistics, and re-targets the arbiter,
    /// worst-case occupancy, and requester count. Indistinguishable from
    /// `SharedResource::new` with the same parameters.
    pub fn reset_to(&mut self, arbiter: ArbiterKind, worst_occupancy: u64, num_cores: usize) {
        if self.arbiter.kind() == arbiter && self.pending.len() == num_cores {
            self.arbiter.reset();
        } else {
            self.arbiter = build_arbiter(arbiter, num_cores);
        }
        self.worst_occupancy = worst_occupancy;
        self.pending.clear();
        self.pending.resize(num_cores, None);
        self.active = None;
        self.stats = ResourceStats::new(num_cores);
        self.view_buf.clear();
    }

    /// Appends a time-relative signature of the in-flight state to `out`
    /// (pending slots, active transaction, arbiter state), encoding every
    /// cycle stamp relative to `now`.
    ///
    /// A ready pending request's age `now − ready` enters `out` only when
    /// the arbiter reads it ([`ArbiterKind::reads_ready_age`], FIFO).
    /// Under every other policy the slot writes the [`WAITING`] marker
    /// instead and appends its age and absolute `ready` to `waiting`, in
    /// slot order: a starved request's age grows every period, so writing
    /// it would keep a periodic machine from ever matching. The period
    /// matcher compares those entries itself (see the fast-forward
    /// module's §Soundness). Two resources with equal signatures whose
    /// `waiting` entries match evolve identically from their `now`s.
    pub(crate) fn ff_signature(&self, now: Cycle, out: &mut Vec<u64>, waiting: &mut Vec<Waiting>) {
        let hides_age = !self.arbiter.kind().reads_ready_age();
        for p in &self.pending {
            match p {
                None => out.push(u64::MAX),
                Some(p) if hides_age && p.ready <= now => {
                    out.push(WAITING);
                    out.push(p.kind as u64);
                    out.push(p.addr);
                    waiting.push(Waiting { age: now - p.ready, ready: p.ready });
                }
                Some(p) => {
                    out.push(p.kind as u64);
                    out.push(p.addr);
                    out.push(now.wrapping_sub(p.ready));
                }
            }
        }
        match self.active {
            None => out.push(u64::MAX),
            Some(a) => {
                out.push(a.core.index() as u64);
                out.push(a.kind as u64);
                out.push(a.addr);
                out.push(now.wrapping_sub(a.ready));
                out.push(now.wrapping_sub(a.granted));
                out.push(a.until.wrapping_sub(now));
                out.push(match a.l2_hit {
                    None => 2,
                    Some(h) => u64::from(h),
                });
            }
        }
        self.arbiter.ff_signature(now, out);
    }

    /// Shifts every live cycle stamp forward by `delta` (fast-forward),
    /// except the `ready` of a waiting request for which `held` yields
    /// true: that request waited through the whole period, and stepping
    /// would leave it waiting with the same `ready`. `held` is consumed
    /// one entry per slot [`SharedResource::ff_signature`] reported as
    /// waiting at `now`, in the same order.
    pub(crate) fn ff_shift(
        &mut self,
        now: Cycle,
        delta: Cycle,
        held: &mut impl Iterator<Item = bool>,
    ) {
        let hides_age = !self.arbiter.kind().reads_ready_age();
        for p in self.pending.iter_mut().flatten() {
            let waiting = hides_age && p.ready <= now;
            if !(waiting && held.next().unwrap_or(false)) {
                p.ready += delta;
            }
        }
        if let Some(a) = &mut self.active {
            a.ready += delta;
            a.granted += delta;
            a.until += delta;
        }
    }

    /// Adds `k` copies of the per-period statistics delta (fast-forward).
    pub(crate) fn ff_scale_stats(&mut self, delta: &ResourceStats, k: u64) {
        self.stats.busy_cycles += k * delta.busy_cycles;
        self.stats.grants += k * delta.grants;
        for (s, d) in self.stats.per_core_busy.iter_mut().zip(&delta.per_core_busy) {
            *s += k * d;
        }
        for (s, d) in self.stats.per_core_grants.iter_mut().zip(&delta.per_core_grants) {
            *s += k * d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mc(occupancy: u64, num_cores: usize) -> SharedResource {
        SharedResource::memory_controller(
            McQueueConfig { service_occupancy: occupancy, arbiter: ArbiterKind::Fifo },
            num_cores,
        )
    }

    #[test]
    fn resource_ids_are_stable() {
        assert_eq!(ResourceId::BUS.index(), 0);
        assert_eq!(ResourceId::MEMORY_CONTROLLER.index(), 1);
        assert_eq!(ResourceId::new(1), ResourceId::MEMORY_CONTROLLER);
        assert_eq!(ResourceId::BUS.to_string(), "r0");
    }

    #[test]
    fn kind_slugs_are_short_and_stable() {
        assert_eq!(ResourceKind::Bus.to_string(), "bus");
        assert_eq!(ResourceKind::MemoryController.to_string(), "mc");
    }

    #[test]
    fn bus_constructor_uses_bus_config() {
        let bus = SharedResource::bus(BusConfig::ngmp(), 4);
        assert_eq!(bus.id(), ResourceId::BUS);
        assert_eq!(bus.kind(), ResourceKind::Bus);
        assert_eq!(bus.arbiter_kind(), ArbiterKind::RoundRobin);
    }

    #[test]
    fn mc_queue_serialises_concurrent_misses_in_ready_order() {
        let mut q = mc(4, 3);
        q.post(CoreId::new(2), BusOpKind::Load, 0x80, 0);
        q.post(CoreId::new(0), BusOpKind::Load, 0x40, 1);
        let first = q.try_grant(1, |_, _| (4, None)).expect("grant");
        assert_eq!(first.core, CoreId::new(2), "FIFO grants the oldest ready request");
        assert!(q.try_grant(2, |_, _| (4, None)).is_none(), "occupied until cycle 5");
        let done = q.take_completed(5).expect("completes");
        assert_eq!(done.gamma(), 1);
        let second = q.try_grant(5, |_, _| (4, None)).expect("grant");
        assert_eq!(second.core, CoreId::new(0));
        assert_eq!(second.gamma(), 4, "queued behind the first occupancy");
    }

    #[test]
    fn per_resource_stats_accumulate_independently() {
        let mut q = mc(3, 2);
        q.post(CoreId::new(1), BusOpKind::Ifetch, 0, 0);
        q.try_grant(0, |_, _| (3, None)).expect("grant");
        assert_eq!(q.stats().grants, 1);
        assert_eq!(q.stats().busy_cycles, 3);
        assert_eq!(q.stats().per_core_busy, vec![0, 3]);
        assert!((q.stats().utilization(6) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn contenders_and_outstanding_cover_pending_and_active() {
        let mut q = mc(2, 3);
        q.post(CoreId::new(0), BusOpKind::Load, 0, 0);
        q.post(CoreId::new(1), BusOpKind::Load, 0, 0);
        assert_eq!(q.contenders_of(CoreId::new(2)), 2);
        q.try_grant(0, |_, _| (2, None)).expect("grant c0");
        assert!(q.has_outstanding(CoreId::new(0)), "active still counts");
        assert!(q.has_outstanding(CoreId::new(1)));
        assert!(!q.has_outstanding(CoreId::new(2)));
    }

    #[test]
    fn next_event_tracks_completion_then_grant_chance() {
        let mut q = mc(4, 2);
        assert_eq!(q.next_event(0), None, "idle and empty: quiescent");
        q.post(CoreId::new(0), BusOpKind::Load, 0, 5);
        assert_eq!(q.next_event(0), Some(5), "free: earliest grant chance is readiness");
        assert_eq!(q.next_event(9), Some(9), "a ready request on a free resource is imminent");
        q.try_grant(9, |_, _| (4, None)).expect("grant");
        q.post(CoreId::new(1), BusOpKind::Load, 0, 10);
        assert_eq!(q.next_event(10), Some(13), "occupied: horizon is the completion cycle");
        q.take_completed(13).expect("completes");
        assert_eq!(q.next_event(13), Some(13), "pending again ready at completion");
    }

    #[test]
    fn next_event_honours_tdma_schedule() {
        let mut q = SharedResource::memory_controller(
            McQueueConfig { service_occupancy: 4, arbiter: ArbiterKind::Tdma { slot_cycles: 8 } },
            2,
        );
        // Core 1's slots are [8,16), [24,32)…
        q.post(CoreId::new(1), BusOpKind::Load, 0, 0);
        assert_eq!(q.next_event(0), Some(8), "skip straight to the owner's slot");
        assert_eq!(q.next_event(14), Some(24), "too little slot left: next rotation");
    }

    #[test]
    #[should_panic(expected = "second transaction")]
    fn double_post_panics_per_resource() {
        let mut q = mc(2, 1);
        q.post(CoreId::new(0), BusOpKind::Load, 0, 0);
        q.post(CoreId::new(0), BusOpKind::Load, 0, 0);
    }
}
