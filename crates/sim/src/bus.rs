//! Arbitration policies and the transaction vocabulary of the shared
//! resources.
//!
//! The bus connects each core (and its store buffer) to the partitioned L2
//! and, for L2 misses, to the memory controller. Each core presents at most
//! one transaction at a time (it is a single AHB-like master). Arbitration
//! happens whenever a resource is free, among the transactions whose
//! `ready` cycle has been reached, in the order dictated by the configured
//! [`Arbiter`].
//!
//! Round-robin is the policy under study: after core *i* is granted, the
//! highest priority for the next round becomes *i+1 mod Nc* (§2). The
//! per-request contention delay `γ = grant_cycle - ready_cycle` recorded
//! per resource is precisely the quantity of the paper's Eq. 2.
//!
//! TDMA, fixed-priority, and FIFO arbiters are provided for the ablation
//! experiments (the saw-tooth methodology is RR-specific, and the ablation
//! benches demonstrate it degrades or disappears under other policies) and
//! for the memory-controller queue of two-level topologies, whose
//! hardware policy is FIFO.
//!
//! The resource protocol itself (post / grant / occupy / complete) lives
//! in [`crate::resource::SharedResource`]; this module owns the policies
//! and the transaction types they arbitrate over.

use crate::types::{Addr, CoreId, Cycle};
use std::fmt;
use std::str::FromStr;

/// Which arbitration policy a bus uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArbiterKind {
    /// Work-conserving rotating-priority round-robin (the paper's policy).
    RoundRobin,
    /// Lowest core index wins; starvation-prone, included for ablation.
    FixedPriority,
    /// Oldest ready request wins (global FIFO order).
    Fifo,
    /// Non-work-conserving time-division multiplexing with fixed slots.
    Tdma {
        /// Slot length in cycles; must fit one full bus transaction.
        slot_cycles: u64,
    },
    /// MBBA-style grouped round-robin (Bourgade et al., EMC 2010 — the
    /// paper's reference \[2\]): cores are split into contiguous groups of
    /// `group_size`; a round-robin pointer rotates over the groups and a
    /// second pointer rotates within each group. A core's worst case is
    /// then governed by the group count, not the core count.
    GroupedRoundRobin {
        /// Cores per group (the last group may be smaller).
        group_size: usize,
    },
}

impl fmt::Display for ArbiterKind {
    /// The canonical token form, round-tripped by [`ArbiterKind::from_str`]
    /// and shared by the CLI, campaign records, and scenario names:
    /// `rr`, `fp`, `fifo`, `tdma:<slot>`, `grr:<group>`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArbiterKind::RoundRobin => write!(f, "rr"),
            ArbiterKind::FixedPriority => write!(f, "fp"),
            ArbiterKind::Fifo => write!(f, "fifo"),
            ArbiterKind::Tdma { slot_cycles } => write!(f, "tdma:{slot_cycles}"),
            ArbiterKind::GroupedRoundRobin { group_size } => write!(f, "grr:{group_size}"),
        }
    }
}

impl ArbiterKind {
    /// Whether the policy reads a pending request's `ready` cycle beyond
    /// the test `ready <= now`, so that how long a ready request has
    /// waited can change a grant. Only FIFO does: it orders the ready
    /// requests by `ready` itself. Every other policy sees a waiting
    /// request only as "ready", whatever its age.
    ///
    /// Period skip's fingerprint ([`SharedResource`]'s `ff_signature`)
    /// and the model checker's state key in `rrb-static` both hide a
    /// waiting request's age exactly when this is false.
    ///
    /// [`SharedResource`]: crate::resource::SharedResource
    pub fn reads_ready_age(self) -> bool {
        self == ArbiterKind::Fifo
    }
}

/// An arbiter token that [`ArbiterKind::from_str`] could not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArbiterError {
    /// The offending token.
    pub token: String,
}

impl ParseArbiterError {
    /// The canonical tokens, for error messages and CLI help.
    pub const ALLOWED: &'static str = "rr, fp, fifo, tdma:<slot>, grr:<group>";
}

impl fmt::Display for ParseArbiterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown arbiter `{}` (expected one of: {})", self.token, Self::ALLOWED)
    }
}

impl std::error::Error for ParseArbiterError {}

impl FromStr for ArbiterKind {
    type Err = ParseArbiterError;

    /// Parses the canonical token form emitted by [`ArbiterKind`]'s
    /// `Display` (`rr`, `fp`, `fifo`, `tdma:<slot>`, `grr:<group>`), plus
    /// the long aliases `round-robin`, `fixed-priority`.
    fn from_str(token: &str) -> Result<Self, Self::Err> {
        let bad = || ParseArbiterError { token: token.to_string() };
        match token {
            "rr" | "round-robin" => Ok(ArbiterKind::RoundRobin),
            "fp" | "fixed-priority" => Ok(ArbiterKind::FixedPriority),
            "fifo" => Ok(ArbiterKind::Fifo),
            other => {
                if let Some(slot) = other.strip_prefix("tdma:") {
                    let slot_cycles = slot.parse().map_err(|_| bad())?;
                    Ok(ArbiterKind::Tdma { slot_cycles })
                } else if let Some(group) = other.strip_prefix("grr:") {
                    let group_size = group.parse().map_err(|_| bad())?;
                    Ok(ArbiterKind::GroupedRoundRobin { group_size })
                } else {
                    Err(bad())
                }
            }
        }
    }
}

/// The kind of bus transaction, which determines its occupancy and what
/// happens on completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusOpKind {
    /// A demand load that will be looked up in the requester's L2
    /// partition at grant time.
    Load,
    /// An instruction fetch that missed IL1.
    Ifetch,
    /// A write-through store drained from the store buffer.
    Store,
    /// The response phase of a split L2-miss transaction (refill).
    MissResponse,
}

impl fmt::Display for BusOpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusOpKind::Load => write!(f, "load"),
            BusOpKind::Ifetch => write!(f, "ifetch"),
            BusOpKind::Store => write!(f, "store"),
            BusOpKind::MissResponse => write!(f, "refill"),
        }
    }
}

/// A not-yet-granted transaction posted by a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// Transaction kind.
    pub kind: BusOpKind,
    /// Line-aligned target address.
    pub addr: Addr,
    /// Cycle at which the request became ready to use the bus.
    pub ready: Cycle,
}

/// A pending request as seen by an [`Arbiter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestView {
    /// Cycle at which the request became ready.
    pub ready: Cycle,
    /// Worst-case occupancy the arbiter should budget for.
    pub occupancy: u64,
}

/// An arbitration policy.
///
/// `select` is called only when the bus is free; it must return the index
/// of a core whose view entry is `Some` with `ready <= now`, or `None` to
/// leave the bus idle this cycle. Implementations update their internal
/// rotation state when they return a grant.
pub trait Arbiter: fmt::Debug + Send {
    /// Chooses which ready request (if any) to grant at cycle `now`.
    fn select(&mut self, view: &[Option<RequestView>], now: Cycle) -> Option<usize>;

    /// The policy this arbiter implements.
    fn kind(&self) -> ArbiterKind;

    /// Restores the arbiter to its initial state.
    fn reset(&mut self);

    /// A lower bound on the first cycle `>= now` at which `core`'s
    /// request `req` could be granted, assuming the resource is free and
    /// stays free; `None` if the policy can never serve it.
    ///
    /// This is the event horizon the quiescence-skipping machine loop
    /// uses: it may be earlier than the actual grant (competing requests
    /// are ignored — stepping a no-op cycle is harmless), but it must
    /// never be later. Work-conserving policies grant any ready request
    /// on a free resource, so the default is `max(req.ready, now)`;
    /// time-gated policies (TDMA) override it with their slot schedule.
    fn earliest_grant(&self, core: usize, req: RequestView, now: Cycle) -> Option<Cycle> {
        let _ = core;
        Some(req.ready.max(now))
    }

    /// Appends the policy's time-relative decision state to `out`: every
    /// word that can influence a *future* `select` outcome, with absolute
    /// cycles reduced relative to `now`. Two arbiters with equal
    /// signatures at their respective `now`s make identical decisions on
    /// identical future request patterns — the property the steady-state
    /// fast-forward detector relies on. Stateless, time-free policies
    /// (fixed priority, FIFO) append nothing.
    ///
    /// The requests themselves are not arbiter state: the resource
    /// fingerprints each pending slot, and it hides a ready request's
    /// waiting time for every policy whose
    /// [`ArbiterKind::reads_ready_age`] is false.
    fn ff_signature(&self, now: Cycle, out: &mut Vec<u64>) {
        let _ = (now, out);
    }
}

/// Rotating-priority round-robin (§2).
///
/// If core `c_i` was granted in a round, the priority ordering for the next
/// round is `c_{i+1}, c_{i+2}, ..., c_{Nc}, c_1, ..., c_i`.
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    num_cores: usize,
    /// Core with the highest priority in the current round.
    head: usize,
}

impl RoundRobinArbiter {
    /// A round-robin arbiter over `num_cores` requesters; core 0 starts
    /// with the highest priority.
    pub fn new(num_cores: usize) -> Self {
        RoundRobinArbiter { num_cores, head: 0 }
    }

    /// The core that currently holds the highest priority.
    pub fn head(&self) -> CoreId {
        CoreId::new(self.head)
    }
}

impl Arbiter for RoundRobinArbiter {
    fn select(&mut self, view: &[Option<RequestView>], now: Cycle) -> Option<usize> {
        debug_assert_eq!(view.len(), self.num_cores);
        for offset in 0..self.num_cores {
            let core = (self.head + offset) % self.num_cores;
            if let Some(req) = view[core] {
                if req.ready <= now {
                    self.head = (core + 1) % self.num_cores;
                    return Some(core);
                }
            }
        }
        None
    }

    fn kind(&self) -> ArbiterKind {
        ArbiterKind::RoundRobin
    }

    fn reset(&mut self) {
        self.head = 0;
    }

    fn ff_signature(&self, _now: Cycle, out: &mut Vec<u64>) {
        out.push(self.head as u64);
    }
}

/// Fixed priority: the lowest core index always wins.
#[derive(Debug, Clone)]
pub struct FixedPriorityArbiter;

impl Arbiter for FixedPriorityArbiter {
    fn select(&mut self, view: &[Option<RequestView>], now: Cycle) -> Option<usize> {
        view.iter()
            .enumerate()
            .find(|(_, v)| matches!(v, Some(r) if r.ready <= now))
            .map(|(i, _)| i)
    }

    fn kind(&self) -> ArbiterKind {
        ArbiterKind::FixedPriority
    }

    fn reset(&mut self) {}
}

/// Global FIFO: the request that became ready earliest wins; ties break
/// toward the lower core index.
#[derive(Debug, Clone)]
pub struct FifoArbiter;

impl Arbiter for FifoArbiter {
    fn select(&mut self, view: &[Option<RequestView>], now: Cycle) -> Option<usize> {
        view.iter()
            .enumerate()
            .filter_map(|(i, v)| v.map(|r| (i, r)))
            .filter(|(_, r)| r.ready <= now)
            .min_by_key(|&(i, r)| (r.ready, i))
            .map(|(i, _)| i)
    }

    fn kind(&self) -> ArbiterKind {
        ArbiterKind::Fifo
    }

    fn reset(&mut self) {}
}

/// Non-work-conserving TDMA: core `(now / slot) % Nc` owns the bus and may
/// start a transaction only if it fits in the remainder of its slot.
#[derive(Debug, Clone)]
pub struct TdmaArbiter {
    num_cores: usize,
    slot_cycles: u64,
}

impl TdmaArbiter {
    /// A TDMA arbiter with the given slot length.
    pub fn new(num_cores: usize, slot_cycles: u64) -> Self {
        TdmaArbiter { num_cores, slot_cycles }
    }
}

impl Arbiter for TdmaArbiter {
    fn select(&mut self, view: &[Option<RequestView>], now: Cycle) -> Option<usize> {
        let owner = ((now / self.slot_cycles) as usize) % self.num_cores;
        let remaining = self.slot_cycles - (now % self.slot_cycles);
        match view[owner] {
            Some(req) if req.ready <= now && req.occupancy <= remaining => Some(owner),
            _ => None,
        }
    }

    fn kind(&self) -> ArbiterKind {
        ArbiterKind::Tdma { slot_cycles: self.slot_cycles }
    }

    fn reset(&mut self) {}

    /// TDMA is time-gated: the request can only start inside its own
    /// core's slot, and only if it fits in what remains of that slot.
    /// The earliest chance is therefore its ready cycle (if that lands
    /// in a fitting position of its own slot) or the start of the
    /// core's next slot — an exact horizon, not just a lower bound,
    /// because within a slot the remaining room only shrinks.
    fn earliest_grant(&self, core: usize, req: RequestView, now: Cycle) -> Option<Cycle> {
        let slot = self.slot_cycles;
        let n = self.num_cores as u64;
        let t = req.ready.max(now);
        let owner = ((t / slot) % n) as usize;
        if owner == core && req.occupancy <= slot - (t % slot) {
            return Some(t);
        }
        if req.occupancy > slot {
            return None; // cannot fit even a whole slot
        }
        // Start of this core's next slot at or after t.
        let cur = t / slot;
        let mut q = cur + (core as u64 + n - cur % n) % n;
        if q == cur {
            // Own slot, but too little of it left: wait a full rotation.
            q += n;
        }
        Some(q * slot)
    }

    /// The schedule position: grants depend on `now` only through the
    /// phase within the full rotation.
    fn ff_signature(&self, now: Cycle, out: &mut Vec<u64>) {
        out.push(now % (self.slot_cycles * self.num_cores as u64));
    }
}

/// MBBA-style two-level round-robin: groups rotate, and members rotate
/// within the granted group. Work conserving at both levels: an idle
/// group is skipped, and an idle member yields to the next member.
#[derive(Debug, Clone)]
pub struct GroupedRoundRobinArbiter {
    num_cores: usize,
    group_size: usize,
    /// Group with the highest priority in the current round.
    group_head: usize,
    /// Per-group member pointer.
    member_head: Vec<usize>,
}

impl GroupedRoundRobinArbiter {
    /// A grouped arbiter over `num_cores` cores in groups of `group_size`.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    pub fn new(num_cores: usize, group_size: usize) -> Self {
        assert!(group_size > 0, "groups must be non-empty");
        let groups = num_cores.div_ceil(group_size);
        GroupedRoundRobinArbiter {
            num_cores,
            group_size,
            group_head: 0,
            member_head: vec![0; groups],
        }
    }

    fn groups(&self) -> usize {
        self.member_head.len()
    }

    fn members(&self, group: usize) -> std::ops::Range<usize> {
        let start = group * self.group_size;
        start..((group + 1) * self.group_size).min(self.num_cores)
    }
}

impl Arbiter for GroupedRoundRobinArbiter {
    fn select(&mut self, view: &[Option<RequestView>], now: Cycle) -> Option<usize> {
        debug_assert_eq!(view.len(), self.num_cores);
        let groups = self.groups();
        for g_off in 0..groups {
            let group = (self.group_head + g_off) % groups;
            let members = self.members(group);
            let m_len = members.len();
            for m_off in 0..m_len {
                let idx = (self.member_head[group] + m_off) % m_len;
                let core = members.start + idx;
                if let Some(req) = view[core] {
                    if req.ready <= now {
                        self.member_head[group] = (idx + 1) % m_len;
                        self.group_head = (group + 1) % groups;
                        return Some(core);
                    }
                }
            }
        }
        None
    }

    fn kind(&self) -> ArbiterKind {
        ArbiterKind::GroupedRoundRobin { group_size: self.group_size }
    }

    fn reset(&mut self) {
        self.group_head = 0;
        for m in &mut self.member_head {
            *m = 0;
        }
    }

    fn ff_signature(&self, _now: Cycle, out: &mut Vec<u64>) {
        out.push(self.group_head as u64);
        out.extend(self.member_head.iter().map(|&m| m as u64));
    }
}

/// Builds an arbiter of the requested policy over `num_cores` requesters.
pub fn build_arbiter(kind: ArbiterKind, num_cores: usize) -> Box<dyn Arbiter> {
    match kind {
        ArbiterKind::RoundRobin => Box::new(RoundRobinArbiter::new(num_cores)),
        ArbiterKind::FixedPriority => Box::new(FixedPriorityArbiter),
        ArbiterKind::Fifo => Box::new(FifoArbiter),
        ArbiterKind::Tdma { slot_cycles } => Box::new(TdmaArbiter::new(num_cores, slot_cycles)),
        ArbiterKind::GroupedRoundRobin { group_size } => {
            Box::new(GroupedRoundRobinArbiter::new(num_cores, group_size))
        }
    }
}

/// A transaction currently occupying the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveTxn {
    /// Owning core.
    pub core: CoreId,
    /// Transaction kind.
    pub kind: BusOpKind,
    /// Target address.
    pub addr: Addr,
    /// When the request became ready.
    pub ready: Cycle,
    /// When it was granted (`gamma = granted - ready`).
    pub granted: Cycle,
    /// First cycle after the occupancy ends.
    pub until: Cycle,
    /// Whether the grant-time L2 lookup hit (None for [`BusOpKind::MissResponse`]).
    pub l2_hit: Option<bool>,
}

impl ActiveTxn {
    /// The contention delay this transaction suffered (γ of Eq. 2).
    pub fn gamma(&self) -> u64 {
        self.granted - self.ready
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BusConfig;
    use crate::resource::SharedResource;

    fn hit(occ: u64) -> impl FnMut(CoreId, &Pending) -> (u64, Option<bool>) {
        move |_, _| (occ, Some(true))
    }

    #[test]
    fn rr_rotates_priority_after_each_grant() {
        let mut a = RoundRobinArbiter::new(4);
        let all = |t: Cycle| vec![Some(RequestView { ready: t, occupancy: 2 }); 4];
        assert_eq!(a.select(&all(0), 0), Some(0));
        assert_eq!(a.select(&all(0), 0), Some(1));
        assert_eq!(a.select(&all(0), 0), Some(2));
        assert_eq!(a.select(&all(0), 0), Some(3));
        assert_eq!(a.select(&all(0), 0), Some(0), "wraps around");
    }

    #[test]
    fn rr_is_work_conserving() {
        // §2: "Since RR is work conserving, a lower priority requester can
        // use the bus when all higher priority requesters do not use it."
        let mut a = RoundRobinArbiter::new(4);
        let mut view = vec![None; 4];
        view[3] = Some(RequestView { ready: 0, occupancy: 2 });
        assert_eq!(a.select(&view, 0), Some(3));
        // After granting c3, head is c0 again.
        assert_eq!(a.head(), CoreId::new(0));
    }

    #[test]
    fn rr_ignores_future_requests() {
        let mut a = RoundRobinArbiter::new(2);
        let view = vec![
            Some(RequestView { ready: 5, occupancy: 2 }),
            Some(RequestView { ready: 1, occupancy: 2 }),
        ];
        assert_eq!(a.select(&view, 1), Some(1));
        assert_eq!(a.select(&view, 0), None);
    }

    #[test]
    fn fixed_priority_always_prefers_low_index() {
        let mut a = FixedPriorityArbiter;
        let view = vec![
            Some(RequestView { ready: 9, occupancy: 2 }),
            Some(RequestView { ready: 0, occupancy: 2 }),
        ];
        assert_eq!(a.select(&view, 10), Some(0));
        assert_eq!(a.select(&view, 10), Some(0), "no rotation");
    }

    #[test]
    fn fifo_grants_oldest() {
        let mut a = FifoArbiter;
        let view = vec![
            Some(RequestView { ready: 7, occupancy: 2 }),
            Some(RequestView { ready: 3, occupancy: 2 }),
            None,
        ];
        assert_eq!(a.select(&view, 10), Some(1));
    }

    #[test]
    fn fifo_ties_break_to_lower_index() {
        let mut a = FifoArbiter;
        let view = vec![
            Some(RequestView { ready: 3, occupancy: 2 }),
            Some(RequestView { ready: 3, occupancy: 2 }),
        ];
        assert_eq!(a.select(&view, 5), Some(0));
    }

    #[test]
    fn tdma_only_grants_slot_owner() {
        let mut a = TdmaArbiter::new(2, 10);
        let both = vec![
            Some(RequestView { ready: 0, occupancy: 5 }),
            Some(RequestView { ready: 0, occupancy: 5 }),
        ];
        assert_eq!(a.select(&both, 0), Some(0), "cycle 0: slot of c0");
        assert_eq!(a.select(&both, 10), Some(1), "cycle 10: slot of c1");
        // Not work conserving: owner idle => bus idle.
        let only_c1 = vec![None, Some(RequestView { ready: 0, occupancy: 5 })];
        assert_eq!(a.select(&only_c1, 0), None);
    }

    #[test]
    fn tdma_rejects_transactions_that_overrun_slot() {
        let mut a = TdmaArbiter::new(2, 10);
        let view = vec![Some(RequestView { ready: 0, occupancy: 5 }), None];
        assert_eq!(a.select(&view, 7), None, "3 cycles left < 5 needed");
        assert_eq!(a.select(&view, 5), Some(0), "exactly fits");
    }

    #[test]
    fn bus_tracks_occupancy_and_stats() {
        let cfg = BusConfig {
            l2_hit_occupancy: 9,
            transfer_occupancy: 3,
            store_occupancy: 3,
            arbiter: ArbiterKind::RoundRobin,
        };
        let mut bus = SharedResource::bus(cfg, 2);
        bus.post(CoreId::new(1), BusOpKind::Load, 0x40, 0);
        let txn = bus.try_grant(0, hit(9)).expect("grant");
        assert_eq!(txn.core, CoreId::new(1));
        assert_eq!(txn.gamma(), 0);
        assert_eq!(txn.until, 9);
        assert!(!bus.is_free(5));
        assert!(bus.is_free(9));
        assert!(bus.take_completed(8).is_none());
        let done = bus.take_completed(9).expect("completes at 9");
        assert_eq!(done, txn);
        assert_eq!(bus.stats().busy_cycles, 9);
        assert_eq!(bus.stats().per_core_busy, vec![0, 9]);
        assert_eq!(bus.stats().utilization(10), 0.9);
    }

    #[test]
    #[should_panic(expected = "second transaction")]
    fn double_post_panics() {
        let cfg = BusConfig {
            l2_hit_occupancy: 2,
            transfer_occupancy: 1,
            store_occupancy: 2,
            arbiter: ArbiterKind::RoundRobin,
        };
        let mut bus = SharedResource::bus(cfg, 1);
        bus.post(CoreId::new(0), BusOpKind::Load, 0, 0);
        bus.post(CoreId::new(0), BusOpKind::Load, 0, 0);
    }

    #[test]
    fn contender_count_includes_active_and_pending() {
        let cfg = BusConfig {
            l2_hit_occupancy: 4,
            transfer_occupancy: 1,
            store_occupancy: 4,
            arbiter: ArbiterKind::RoundRobin,
        };
        let mut bus = SharedResource::bus(cfg, 4);
        bus.post(CoreId::new(1), BusOpKind::Load, 0, 0);
        bus.post(CoreId::new(2), BusOpKind::Load, 0, 0);
        assert_eq!(bus.contenders_of(CoreId::new(0)), 2);
        bus.try_grant(0, hit(4)).expect("grant c1");
        // c1 active, c2 pending: still two contenders of c0.
        assert_eq!(bus.contenders_of(CoreId::new(0)), 2);
        assert_eq!(bus.contenders_of(CoreId::new(2)), 1);
    }

    /// Hand-driven reproduction of the paper's Figure 3: a 4-core bus with
    /// `l_bus = 2` (`ubd = 6`), three always-pending contenders, and an
    /// observed core whose injection time δ is swept. The resulting γ must
    /// match Eq. 2 exactly.
    #[test]
    fn figure3_gamma_matrix() {
        let ubd = 6u64;
        for delta in 0..=13u64 {
            let gamma = simulate_observed_gamma(delta);
            let expected = if delta == 0 { ubd } else { (ubd - (delta % ubd)) % ubd };
            assert_eq!(gamma, expected, "delta={delta}");
        }
    }

    /// Drives a standalone `Bus` with three saturating contenders (repost
    /// immediately on completion) and one observed core that reposts with
    /// injection time `delta` after each of its completions. Returns the
    /// steady-state γ of the observed core.
    fn simulate_observed_gamma(delta: u64) -> u64 {
        let l_bus = 2u64;
        let cfg = BusConfig {
            l2_hit_occupancy: l_bus,
            transfer_occupancy: 1,
            store_occupancy: l_bus,
            arbiter: ArbiterKind::RoundRobin,
        };
        let mut bus = SharedResource::bus(cfg, 4);
        let observed = CoreId::new(3);
        // Everyone ready at cycle 0.
        for i in 0..4 {
            bus.post(CoreId::new(i), BusOpKind::Load, 0x40 * i as u64, 0);
        }
        let mut gammas = Vec::new();
        let mut now: Cycle = 0;
        while gammas.len() < 8 && now < 10_000 {
            if let Some(done) = bus.take_completed(now) {
                if done.core == observed {
                    gammas.push(done.gamma());
                    bus.post(observed, BusOpKind::Load, 0xdead, now + delta);
                } else {
                    // Contenders are saturating rsk: always pending again.
                    bus.post(done.core, BusOpKind::Load, done.addr, now);
                }
            }
            bus.try_grant(now, |_, _| (l_bus, Some(true)));
            now += 1;
        }
        assert!(gammas.len() >= 8, "observed core starved at delta={delta}");
        // Skip the start-up transient; synchrony fixes γ afterwards.
        let steady = gammas.split_off(3);
        let g = steady[0];
        assert!(
            steady.iter().all(|&x| x == g),
            "synchrony effect must fix gamma, got {steady:?} at delta={delta}"
        );
        g
    }

    /// The synchrony effect (§3): under full load the bus behaves as if
    /// time-multiplexed, and every contender observes the same γ.
    #[test]
    fn synchrony_fixes_gamma_for_all_saturating_cores() {
        let l_bus = 2u64;
        let cfg = BusConfig {
            l2_hit_occupancy: l_bus,
            transfer_occupancy: 1,
            store_occupancy: l_bus,
            arbiter: ArbiterKind::RoundRobin,
        };
        let mut bus = SharedResource::bus(cfg, 4);
        for i in 0..4 {
            bus.post(CoreId::new(i), BusOpKind::Load, 0, 0);
        }
        let mut per_core: Vec<Vec<u64>> = vec![Vec::new(); 4];
        for now in 0..2_000u64 {
            if let Some(done) = bus.take_completed(now) {
                per_core[done.core.index()].push(done.gamma());
                bus.post(done.core, BusOpKind::Load, 0, now); // δ = 0
            }
            bus.try_grant(now, |_, _| (l_bus, Some(true)));
        }
        for (i, gs) in per_core.iter().enumerate() {
            assert!(gs.len() > 10, "core {i} starved");
            let steady = &gs[3..];
            assert!(
                steady.windows(2).all(|w| w[0] == w[1]),
                "core {i} gamma not fixed: {steady:?}"
            );
            // With δ = 0 every request suffers exactly ubd.
            assert_eq!(steady[0], 6, "core {i}");
        }
    }

    #[test]
    fn bus_utilization_is_full_under_saturation() {
        let cfg = BusConfig {
            l2_hit_occupancy: 3,
            transfer_occupancy: 1,
            store_occupancy: 3,
            arbiter: ArbiterKind::RoundRobin,
        };
        let mut bus = SharedResource::bus(cfg, 2);
        for i in 0..2 {
            bus.post(CoreId::new(i), BusOpKind::Load, 0, 0);
        }
        let horizon = 300u64;
        for now in 0..horizon {
            if let Some(done) = bus.take_completed(now) {
                bus.post(done.core, BusOpKind::Load, 0, now);
            }
            bus.try_grant(now, |_, _| (3, Some(true)));
        }
        // Minus the tail transaction that may extend past the horizon.
        assert!(bus.stats().utilization(horizon) > 0.98);
    }

    #[test]
    fn build_arbiter_matches_kind() {
        for kind in [
            ArbiterKind::RoundRobin,
            ArbiterKind::FixedPriority,
            ArbiterKind::Fifo,
            ArbiterKind::Tdma { slot_cycles: 10 },
            ArbiterKind::GroupedRoundRobin { group_size: 2 },
        ] {
            assert_eq!(build_arbiter(kind, 4).kind(), kind);
        }
    }

    #[test]
    fn grouped_rr_alternates_groups() {
        // 4 cores, groups {0,1} and {2,3}, everyone pending: the grant
        // order interleaves groups and rotates members within them.
        let mut a = GroupedRoundRobinArbiter::new(4, 2);
        let all = vec![Some(RequestView { ready: 0, occupancy: 2 }); 4];
        let order: Vec<usize> = (0..8).map(|_| a.select(&all, 0).expect("grant")).collect();
        assert_eq!(order, vec![0, 2, 1, 3, 0, 2, 1, 3]);
    }

    #[test]
    fn grouped_rr_is_work_conserving_across_groups() {
        // Only core 3 (group 1) pending: it is granted immediately even
        // when group 0 holds the head.
        let mut a = GroupedRoundRobinArbiter::new(4, 2);
        let mut view = vec![None; 4];
        view[3] = Some(RequestView { ready: 0, occupancy: 2 });
        assert_eq!(a.select(&view, 0), Some(3));
    }

    #[test]
    fn grouped_rr_bounds_wait_by_group_count() {
        // With 4 saturating cores in 2 groups, a core waits at most
        // (groups - 1) grants of other groups plus (members - 1) of its
        // own group before being served again — tighter than plain RR for
        // the member that alternates.
        let l_bus = 2u64;
        let cfg = BusConfig {
            l2_hit_occupancy: l_bus,
            transfer_occupancy: 1,
            store_occupancy: l_bus,
            arbiter: ArbiterKind::GroupedRoundRobin { group_size: 2 },
        };
        let mut bus = SharedResource::bus(cfg, 4);
        for i in 0..4 {
            bus.post(CoreId::new(i), BusOpKind::Load, 0, 0);
        }
        let mut max_gamma = 0;
        for now in 0..2_000u64 {
            if let Some(done) = bus.take_completed(now) {
                max_gamma = max_gamma.max(done.gamma());
                bus.post(done.core, BusOpKind::Load, 0, now);
            }
            bus.try_grant(now, |_, _| (l_bus, Some(true)));
        }
        assert!(max_gamma <= 3 * l_bus, "max gamma {max_gamma}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn grouped_rr_zero_group_panics() {
        let _ = GroupedRoundRobinArbiter::new(4, 0);
    }

    #[test]
    fn work_conserving_earliest_grant_is_readiness() {
        let req = RequestView { ready: 7, occupancy: 3 };
        for kind in [ArbiterKind::RoundRobin, ArbiterKind::FixedPriority, ArbiterKind::Fifo] {
            let a = build_arbiter(kind, 4);
            assert_eq!(a.earliest_grant(2, req, 0), Some(7), "{kind}: future readiness");
            assert_eq!(a.earliest_grant(2, req, 20), Some(20), "{kind}: already ready");
        }
    }

    #[test]
    fn tdma_earliest_grant_respects_slot_schedule() {
        // 2 cores, 10-cycle slots: c0 owns [0,10), [20,30)…; c1 owns [10,20)…
        let a = TdmaArbiter::new(2, 10);
        let req = |ready, occupancy| RequestView { ready, occupancy };
        // c0 ready inside its own slot with room: granted at readiness.
        assert_eq!(a.earliest_grant(0, req(3, 5), 3), Some(3));
        // c0 ready but the slot remainder is too short: next own slot.
        assert_eq!(a.earliest_grant(0, req(0, 5), 7), Some(20));
        // c1 ready during c0's slot: start of c1's slot.
        assert_eq!(a.earliest_grant(1, req(0, 5), 3), Some(10));
        // A transaction longer than a whole slot can never be served.
        assert_eq!(a.earliest_grant(0, req(0, 11), 0), None);
        // Exact fit at a slot boundary.
        assert_eq!(a.earliest_grant(1, req(0, 10), 12), Some(30));
    }

    /// The TDMA horizon is *sound*: select never grants before the
    /// predicted cycle, and (with a lone requester) grants exactly at it.
    #[test]
    fn tdma_earliest_grant_matches_select() {
        let mut a = TdmaArbiter::new(3, 12);
        for ready in 0..40u64 {
            for occ in [1u64, 5, 12] {
                for core in 0..3usize {
                    let mut view = vec![None; 3];
                    view[core] = Some(RequestView { ready, occupancy: occ });
                    let predicted =
                        a.earliest_grant(core, RequestView { ready, occupancy: occ }, ready);
                    let actual = (ready..ready + 80).find(|&t| a.select(&view, t).is_some());
                    assert_eq!(predicted, actual, "core={core} ready={ready} occ={occ}");
                }
            }
        }
    }

    #[test]
    fn arbiter_kind_display_is_canonical() {
        assert_eq!(ArbiterKind::RoundRobin.to_string(), "rr");
        assert_eq!(ArbiterKind::Tdma { slot_cycles: 9 }.to_string(), "tdma:9");
        assert_eq!(ArbiterKind::GroupedRoundRobin { group_size: 2 }.to_string(), "grr:2");
    }

    #[test]
    fn arbiter_kind_round_trips_through_display() {
        for kind in [
            ArbiterKind::RoundRobin,
            ArbiterKind::FixedPriority,
            ArbiterKind::Fifo,
            ArbiterKind::Tdma { slot_cycles: 12 },
            ArbiterKind::GroupedRoundRobin { group_size: 3 },
        ] {
            assert_eq!(kind.to_string().parse::<ArbiterKind>(), Ok(kind));
        }
        assert_eq!("round-robin".parse::<ArbiterKind>(), Ok(ArbiterKind::RoundRobin));
        assert_eq!("fixed-priority".parse::<ArbiterKind>(), Ok(ArbiterKind::FixedPriority));
        for bad in ["cdma", "tdma:", "tdma:x", "grr:", "rrx", ""] {
            let err = bad.parse::<ArbiterKind>().expect_err("must fail");
            assert!(err.to_string().contains("tdma:<slot>"), "{bad}: {err}");
        }
    }
}
