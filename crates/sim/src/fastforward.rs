//! Steady-state period skipping for [`Machine::run`].
//!
//! A contended run of periodic kernels settles into a steady state: at
//! every iteration boundary of the measured core, the whole machine is a
//! time-shifted copy of what it was some whole number of iterations ago
//! — same pipeline states, same cache contents and recency order over
//! the programs' (static, bounded) footprints, same arbiter positions,
//! same queue contents with the same relative deadlines. From such a
//! state the machine provably replays the same period forever, so
//! instead of stepping through thousands of identical periods the run
//! loop can jump `now` forward by a whole multiple of the period and
//! scale every monotone counter by the per-period delta.
//!
//! ## Soundness
//!
//! The detector fingerprints the *complete* observable machine state
//! with every cycle stamp encoded relative to `now`:
//!
//! * per core: pc, pipeline state, pending post, store buffer
//!   ([`CoreModel::ff_signature`]), plus the captured contender counts
//!   when (and only when) a transaction that will read them is still
//!   outstanding;
//! * per cache: validity, tags, and within-set recency *ranks* over the
//!   sets reachable from the programs' static addresses
//!   ([`Cache::rank_signature`] over [`Cache::reachable_sets`] — the key
//!   the static must/may replay detects cycles on too; rank order, not
//!   absolute clocks, is what LRU/FIFO behaviour depends on; random
//!   replacement depends on the absolute clock, so it disables the skip);
//! * per shared resource: pending and active transactions (a waiting
//!   request's age aside, see below) and the arbiter's schedule state —
//!   a TDMA arbiter contributes its slot phase, so a period only matches
//!   when it is a multiple of the TDMA frame
//!   ([`SharedResource::ff_signature`]);
//! * the DRAM controller: open rows, queue, in-flight access
//!   ([`Dram::ff_signature`]).
//!
//! Two equal fingerprints at cycles `t₁ < t₂` evolve identically from
//! their respective `now`s, so every future iteration boundary recurs
//! with period `P = t₂ − t₁`. The skip count is clamped so that (a) no
//! finite core completes inside a skipped period — the final approach
//! to completion is always stepped live — and (b) the cycle budget is
//! never overshot, preserving exact budget-exhaustion behaviour.
//!
//! ### Waiting requests
//!
//! One stamp is not encoded relative to `now`: the age `now − ready` of
//! a *waiting* request, one that is pending and ready at a resource
//! whose arbiter does not read its age
//! ([`ArbiterKind::reads_ready_age`] is false for every policy but
//! FIFO). Such a policy only asks `ready <= now`, so until the request
//! is granted its age is invisible; at the grant it becomes the
//! request's γ. A starved contender — the lowest-priority core of a
//! fixed-priority bus — waits from its first request to the end of the
//! run, its age grows every period, and a fingerprint carrying that age
//! would never recur. The slot therefore writes a marker, and the
//! snapshot keeps the slot's [`Waiting`] age and absolute `ready` on the
//! side. Two snapshots match when their fingerprints are equal and every
//! waiting slot matches in one of two ways:
//!
//! * **equal age** — a fresh request at the same phase of the period. It
//!   is shifted by `k · P` like every other stamp, and if it is granted
//!   in a later period it records the same γ at the same phase.
//! * **equal absolute `ready`** — the same request, pending through the
//!   whole period: posts always carry `ready = now`, so a request
//!   granted inside the period would be replaced by one with a later
//!   `ready`. Every decision in the period depends on it only through
//!   `ready <= now`, so the next period replays without granting it
//!   either, and so on for every skipped period. Its `ready` is left
//!   unshifted, which is exactly where stepping leaves it; when it is
//!   finally granted, its γ counts the whole wait.
//!
//! FIFO is excluded because it orders ready requests by `ready`: a
//! request that keeps waiting grows older relative to the fresh ones
//! each period, so the same fingerprint would not mean the same future
//! grant order. Two simpler rules fail. Hiding the age and matching on
//! the fingerprint alone is unsound: two different requests of different
//! ages, each granted inside the period, record different γ (a
//! tdma-bus / fifo-mc case of the period-equivalence property read a
//! contender's total γ of 4,838 against 4,858 stepped). Hiding every age
//! and then demanding an equal absolute `ready` loses the ordinary
//! matches, where each period's requests are fresh: only 253 of 369
//! round-robin runs of a cold derive sweep skipped, against all of them
//! with the age compared.
//!
//! The skip is a pure optimisation: `run` with and without it is
//! cycle-identical, pinned by the period-equivalence property and the
//! fixed-priority starvation family in `tests/prop_arena_reset.rs`, the
//! unit tests below and the golden-trace tests (trace
//! recording disables the skip, so traces are always exact).
//!
//! [`Machine::run`]: crate::Machine::run
//! [`CoreModel::ff_signature`]: crate::core_model::CoreModel
//! [`Cache::rank_signature`]: crate::cache::Cache::rank_signature
//! [`Cache::reachable_sets`]: crate::cache::Cache::reachable_sets
//! [`SharedResource::ff_signature`]: crate::resource::SharedResource
//! [`Dram::ff_signature`]: crate::dram::Dram
//! [`ArbiterKind::reads_ready_age`]: crate::bus::ArbiterKind::reads_ready_age

use crate::cache::CacheStats;
use crate::config::Replacement;
use crate::dram::DramStats;
use crate::instr::Iterations;
use crate::machine::Machine;
use crate::pmc::CorePmc;
use crate::resource::ResourceStats;
use crate::types::{CoreId, Cycle};
use std::collections::BTreeMap;

/// Snapshots kept before the oldest is dropped.
const MAX_HISTORY: usize = 64;
/// Iteration boundaries observed before the detector gives up.
const MAX_BOUNDARIES: usize = 256;
/// Cap on fingerprinted cache sets (summed over every cache); programs
/// with a larger reachable footprint run without the skip.
const MAX_FOOTPRINT_SETS: usize = 4096;

/// A waiting request whose age the fingerprint hides: pending and ready
/// at a resource whose arbiter only asks `ready <= now` (see §Waiting
/// requests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Waiting {
    /// `now − ready` at the snapshot.
    pub(crate) age: Cycle,
    /// The absolute cycle the request became ready.
    pub(crate) ready: Cycle,
}

/// One fingerprinted iteration boundary: the relative-time signature
/// plus a copy of every monotone counter, for per-period delta scaling.
struct Snapshot {
    sig: Vec<u64>,
    /// The waiting slots of the bus, then of the memory controller, in
    /// slot order; `sig` holds a marker for each.
    waiting: Vec<Waiting>,
    now: Cycle,
    iterations: Vec<u64>,
    instructions: Vec<u64>,
    pmc: Vec<CorePmc>,
    dl1_stats: Vec<CacheStats>,
    il1_stats: Vec<CacheStats>,
    l2_stats: Vec<CacheStats>,
    sb_full_stalls: Vec<u64>,
    bus_stats: ResourceStats,
    mc_stats: Option<ResourceStats>,
    dram_stats: DramStats,
}

/// The steady-state detector driven by [`Machine::run`].
///
/// [`Machine::run`]: crate::Machine::run
pub(crate) struct PeriodSkip {
    enabled: bool,
    /// Lowest-index unfinished finite core: its iteration boundaries are
    /// the observation points.
    anchor: usize,
    last_iteration: u64,
    boundaries: usize,
    /// Reachable cache sets per core, sorted and deduplicated.
    dl1_sets: Vec<Vec<usize>>,
    il1_sets: Vec<Vec<usize>>,
    l2_sets: Vec<Vec<usize>>,
    history: Vec<Snapshot>,
}

impl PeriodSkip {
    /// Prepares the detector for one `run`, computing the reachable
    /// cache footprint — or a disabled detector when soundness cannot
    /// be established up front (see [`MachineConfig::period_skip`]).
    ///
    /// [`MachineConfig::period_skip`]: crate::config::MachineConfig::period_skip
    pub(crate) fn new(m: &Machine) -> Self {
        let disabled = PeriodSkip {
            enabled: false,
            anchor: 0,
            last_iteration: 0,
            boundaries: 0,
            dl1_sets: Vec::new(),
            il1_sets: Vec::new(),
            l2_sets: Vec::new(),
            history: Vec::new(),
        };
        let cfg = &m.cfg;
        if !cfg.period_skip || cfg.record_trace || cfg.record_requests {
            return disabled;
        }
        if cfg.dl1.replacement == Replacement::Random
            || cfg.il1.replacement == Replacement::Random
            || cfg.l2.replacement == Replacement::Random
        {
            return disabled;
        }
        let Some(anchor) = (0..cfg.num_cores).find(|&i| m.finite[i] && !m.cores[i].is_done())
        else {
            return disabled;
        };
        let mut dl1_sets = Vec::with_capacity(cfg.num_cores);
        let mut il1_sets = Vec::with_capacity(cfg.num_cores);
        let mut l2_sets = Vec::with_capacity(cfg.num_cores);
        let mut total = 0usize;
        let mut data = Vec::new();
        for i in 0..cfg.num_cores {
            data.clear();
            let core = &m.cores[i];
            let fetch = core.ff_footprint(&mut data);
            let dl1 = core.dl1.reachable_sets(&data, 0..0);
            let il1 = core.il1.reachable_sets(&[], fetch.clone());
            let l2 = m.l2.partition(CoreId::new(i)).reachable_sets(&data, fetch);
            total += dl1.len() + il1.len() + l2.len();
            dl1_sets.push(dl1);
            il1_sets.push(il1);
            l2_sets.push(l2);
        }
        if total > MAX_FOOTPRINT_SETS {
            return disabled;
        }
        PeriodSkip {
            enabled: true,
            anchor,
            last_iteration: m.cores[anchor].iteration(),
            ..disabled
        }
        .with_sets(dl1_sets, il1_sets, l2_sets)
    }

    fn with_sets(
        mut self,
        dl1: Vec<Vec<usize>>,
        il1: Vec<Vec<usize>>,
        l2: Vec<Vec<usize>>,
    ) -> Self {
        self.dl1_sets = dl1;
        self.il1_sets = il1;
        self.l2_sets = l2;
        self
    }

    /// Called by the run loop after every step: on an anchor iteration
    /// boundary, fingerprints the machine and — when the fingerprint
    /// recurs — fast-forwards as many whole periods as soundly fit
    /// before `budget` and before any finite core's completion.
    pub(crate) fn observe(&mut self, m: &mut Machine, budget: Cycle) {
        if !self.enabled {
            return;
        }
        let it = m.cores[self.anchor].iteration();
        if it == self.last_iteration {
            return;
        }
        self.last_iteration = it;
        self.boundaries += 1;
        if self.boundaries > MAX_BOUNDARIES {
            self.enabled = false;
            self.history = Vec::new();
            return;
        }
        let snap = self.snapshot(m);
        if let Some(prev) = self.history.iter().rev().find(|p| p.recurs_in(&snap)) {
            let period = snap.now - prev.now;
            let k = skippable_periods(m, prev, &snap, period, budget);
            if k > 0 {
                apply(m, prev, &snap, period, k);
            }
            // One successful skip lands within a period of completion;
            // a failed one (k = 0) can never succeed later, since every
            // future boundary is closer to completion. Either way the
            // detector's work is done.
            self.enabled = false;
            self.history = Vec::new();
            return;
        }
        if self.history.len() == MAX_HISTORY {
            self.history.remove(0);
        }
        self.history.push(snap);
    }

    /// Fingerprints the machine at the current cycle.
    fn snapshot(&self, m: &Machine) -> Snapshot {
        let now = m.now;
        let n = m.cfg.num_cores;
        let mut sig = Vec::new();
        sig.push(m.unfinished_count as u64);
        for i in 0..n {
            let id = CoreId::new(i);
            m.cores[i].ff_signature(now, &mut sig);
            // The captured contender counts are only ever read when the
            // transaction they were captured for completes, so they are
            // observable state exactly while one is outstanding.
            sig.push(if m.bus.has_outstanding(id) {
                u64::from(m.contenders_at_post[i])
            } else {
                u64::MAX
            });
            match &m.mc {
                Some(mc) if mc.has_outstanding(id) => {
                    sig.push(u64::from(m.mc_contenders_at_post[i]));
                }
                _ => sig.push(u64::MAX),
            }
            m.cores[i].dl1.rank_signature(&self.dl1_sets[i], &mut sig);
            m.cores[i].il1.rank_signature(&self.il1_sets[i], &mut sig);
            m.l2.partition(id).rank_signature(&self.l2_sets[i], &mut sig);
        }
        let mut waiting = Vec::new();
        m.bus.ff_signature(now, &mut sig, &mut waiting);
        if let Some(mc) = &m.mc {
            mc.ff_signature(now, &mut sig, &mut waiting);
        }
        m.dram.ff_signature(now, &mut sig);

        Snapshot {
            sig,
            waiting,
            now,
            iterations: m.cores.iter().map(|c| c.iteration()).collect(),
            instructions: m.cores.iter().map(|c| c.instructions()).collect(),
            pmc: (0..n).map(|i| m.pmc.core(CoreId::new(i)).clone()).collect(),
            dl1_stats: m.cores.iter().map(|c| c.dl1.stats()).collect(),
            il1_stats: m.cores.iter().map(|c| c.il1.stats()).collect(),
            l2_stats: (0..n).map(|i| m.l2.partition(CoreId::new(i)).stats()).collect(),
            sb_full_stalls: m.cores.iter().map(|c| c.store_buffer.full_stalls()).collect(),
            bus_stats: m.bus.stats().clone(),
            mc_stats: m.mc.as_ref().map(|mc| mc.stats().clone()),
            dram_stats: m.dram.stats(),
        }
    }
}

impl Snapshot {
    /// Whether `later` is this state one period on: equal fingerprints,
    /// and every waiting slot either a fresh request of equal age or the
    /// same request (equal absolute `ready`).
    fn recurs_in(&self, later: &Snapshot) -> bool {
        self.sig == later.sig
            && self
                .waiting
                .iter()
                .zip(&later.waiting)
                .all(|(p, s)| p.age == s.age || p.ready == s.ready)
    }
}

/// How many whole periods may be skipped from the matched state: at
/// least one whole period must remain before any finite core completes
/// (so the completion period is replayed live), and the cycle budget
/// must not be overshot (so budget exhaustion stays exact).
fn skippable_periods(
    m: &Machine,
    prev: &Snapshot,
    snap: &Snapshot,
    period: Cycle,
    budget: Cycle,
) -> u64 {
    if period == 0 {
        return 0;
    }
    let mut k = (budget - snap.now) / period;
    for i in 0..m.cfg.num_cores {
        if !m.finite[i] || m.cores[i].is_done() {
            continue;
        }
        let d_iter = snap.iterations[i] - prev.iterations[i];
        if d_iter == 0 {
            // This core makes no progress per period: it will exhaust
            // the budget, which the budget clamp above already handles.
            continue;
        }
        let Iterations::Finite(n) = m.cores[i].program().iterations() else {
            continue;
        };
        // After skipping, the core must still have at least one whole
        // period to go: iterations + k * d_iter <= n - 1.
        let headroom = n.saturating_sub(1).saturating_sub(snap.iterations[i]);
        k = k.min(headroom / d_iter);
    }
    k
}

/// Jumps the machine `k` whole periods ahead: shifts every live cycle
/// stamp but the `ready` of a request that waited through the period,
/// credits per-core progress, and adds `k` copies of every per-period
/// counter delta.
fn apply(m: &mut Machine, prev: &Snapshot, snap: &Snapshot, period: Cycle, k: u64) {
    let delta = k * period;
    m.now += delta;
    for i in 0..m.cfg.num_cores {
        let id = CoreId::new(i);
        let core = &mut m.cores[i];
        core.ff_shift(delta);
        core.ff_add_progress(
            k * (snap.iterations[i] - prev.iterations[i]),
            k * (snap.instructions[i] - prev.instructions[i]),
        );
        core.dl1.ff_add_stats(
            k * (snap.dl1_stats[i].hits - prev.dl1_stats[i].hits),
            k * (snap.dl1_stats[i].misses - prev.dl1_stats[i].misses),
        );
        core.il1.ff_add_stats(
            k * (snap.il1_stats[i].hits - prev.il1_stats[i].hits),
            k * (snap.il1_stats[i].misses - prev.il1_stats[i].misses),
        );
        core.store_buffer.ff_add_full_stalls(k * (snap.sb_full_stalls[i] - prev.sb_full_stalls[i]));
        m.l2.partition_mut(id).ff_add_stats(
            k * (snap.l2_stats[i].hits - prev.l2_stats[i].hits),
            k * (snap.l2_stats[i].misses - prev.l2_stats[i].misses),
        );
        scale_core_pmc(m.pmc.core_mut(id), &prev.pmc[i], &snap.pmc[i], k);
    }
    let mut held = prev.waiting.iter().zip(&snap.waiting).map(|(p, s)| p.ready == s.ready);
    m.bus.ff_shift(snap.now, delta, &mut held);
    m.bus.ff_scale_stats(&stats_delta(&prev.bus_stats, &snap.bus_stats), k);
    if let Some(mc) = &mut m.mc {
        mc.ff_shift(snap.now, delta, &mut held);
        if let (Some(p), Some(s)) = (&prev.mc_stats, &snap.mc_stats) {
            mc.ff_scale_stats(&stats_delta(p, s), k);
        }
    }
    m.dram.ff_shift(delta);
    m.dram.ff_scale_stats(dram_delta(prev.dram_stats, snap.dram_stats), k);
}

fn stats_delta(prev: &ResourceStats, snap: &ResourceStats) -> ResourceStats {
    ResourceStats {
        busy_cycles: snap.busy_cycles - prev.busy_cycles,
        grants: snap.grants - prev.grants,
        per_core_busy: snap
            .per_core_busy
            .iter()
            .zip(&prev.per_core_busy)
            .map(|(s, p)| s - p)
            .collect(),
        per_core_grants: snap
            .per_core_grants
            .iter()
            .zip(&prev.per_core_grants)
            .map(|(s, p)| s - p)
            .collect(),
    }
}

fn dram_delta(prev: DramStats, snap: DramStats) -> DramStats {
    DramStats {
        requests: snap.requests - prev.requests,
        row_hits: snap.row_hits - prev.row_hits,
        row_conflicts: snap.row_conflicts - prev.row_conflicts,
        queue_wait_cycles: snap.queue_wait_cycles - prev.queue_wait_cycles,
    }
}

/// Adds `k` copies of the per-period delta to one core's counters.
/// Histogram keys never disappear and counts never decrease, so the
/// per-key delta is `snap − prev` with absent keys reading as zero.
fn scale_core_pmc(cur: &mut CorePmc, prev: &CorePmc, snap: &CorePmc, k: u64) {
    scale_hist(&mut cur.gamma_histogram, &prev.gamma_histogram, &snap.gamma_histogram, k);
    scale_hist(&mut cur.mc_gamma_histogram, &prev.mc_gamma_histogram, &snap.mc_gamma_histogram, k);
    scale_hist(
        &mut cur.contender_histogram,
        &prev.contender_histogram,
        &snap.contender_histogram,
        k,
    );
    cur.instructions += k * (snap.instructions - prev.instructions);
    cur.loads += k * (snap.loads - prev.loads);
    cur.stores += k * (snap.stores - prev.stores);
    cur.dl1_hits += k * (snap.dl1_hits - prev.dl1_hits);
    cur.dl1_misses += k * (snap.dl1_misses - prev.dl1_misses);
    cur.l2_hits += k * (snap.l2_hits - prev.l2_hits);
    cur.l2_misses += k * (snap.l2_misses - prev.l2_misses);
    cur.sb_stall_cycles += k * (snap.sb_stall_cycles - prev.sb_stall_cycles);
}

fn scale_hist<K: Ord + Copy>(
    cur: &mut BTreeMap<K, u64>,
    prev: &BTreeMap<K, u64>,
    snap: &BTreeMap<K, u64>,
    k: u64,
) {
    for (&key, &n) in snap {
        let d = n - prev.get(&key).copied().unwrap_or(0);
        if d > 0 {
            *cur.entry(key).or_insert(0) += k * d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{ArbiterKind, BusOpKind};
    use crate::config::MachineConfig;
    use crate::instr::{Instr, Program};
    use crate::resource::{ResourceId, ResourceKind, SharedResource};

    /// Loads to six lines of one DL1 set: each misses the DL1 and hits
    /// the core's L2 partition, so every load is a bus request.
    fn thrashing_loads() -> Vec<Instr> {
        (0..6).map(|i| Instr::load(32 * 1024 + i * 4096)).collect()
    }

    /// A four-core fixed-priority machine with a finite scua on core 0
    /// and endless contenders behind it, run to completion.
    fn starved_run(period_skip: bool) -> Machine {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.num_cores = 4;
        cfg.topology.bus.arbiter = ArbiterKind::FixedPriority;
        cfg.record_requests = false;
        cfg.period_skip = period_skip;
        let mut m = Machine::new(cfg).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(thrashing_loads(), 2_000));
        for i in 1..4 {
            m.load_program(CoreId::new(i), Program::endless(thrashing_loads()));
        }
        m.run().expect("the scua completes");
        m
    }

    /// The waiting slots of a machine's bus at its current cycle.
    fn bus_waiting(m: &Machine) -> Vec<Waiting> {
        let mut waiting = Vec::new();
        m.bus.ff_signature(m.now, &mut Vec::new(), &mut waiting);
        waiting
    }

    #[test]
    fn a_starved_request_keeps_its_ready_through_a_skip() {
        let skip = starved_run(true);
        let full = starved_run(false);
        assert!(
            skip.steps_executed() * 10 <= full.steps_executed(),
            "the skip must fire (stepped {} of {})",
            skip.steps_executed(),
            full.steps_executed()
        );
        assert_eq!(skip.now, full.now);
        let starved = CoreId::new(3);
        assert!(full.bus.has_outstanding(starved), "core 3 starves for the whole run");
        let waiting = bus_waiting(&full);
        assert!(
            waiting.iter().any(|w| w.ready < 1_000),
            "a request posted in the first period still waits at the end: {waiting:?}"
        );
        assert_eq!(bus_waiting(&skip), waiting, "pending bus requests diverged");
        for i in 0..4 {
            let id = CoreId::new(i);
            assert_eq!(skip.pmc.core(id), full.pmc.core(id), "core {i} PMC diverged");
        }
    }

    #[test]
    fn only_age_blind_arbiters_hide_a_waiting_requests_age() {
        let arbiters = [
            ArbiterKind::RoundRobin,
            ArbiterKind::FixedPriority,
            ArbiterKind::Fifo,
            ArbiterKind::Tdma { slot_cycles: 8 },
            ArbiterKind::GroupedRoundRobin { group_size: 1 },
        ];
        for arbiter in arbiters {
            let mut r = SharedResource::new(ResourceId::BUS, ResourceKind::Bus, arbiter, 4, 2);
            r.post(CoreId::new(1), BusOpKind::Load, 0x40, 3);
            // Two cycles a whole TDMA frame (2 × 8) apart.
            let at = |now| {
                let (mut sig, mut waiting) = (Vec::new(), Vec::new());
                r.ff_signature(now, &mut sig, &mut waiting);
                (sig, waiting)
            };
            let ((sig_a, wait_a), (sig_b, wait_b)) = (at(5), at(21));
            if arbiter.reads_ready_age() {
                assert_ne!(sig_a, sig_b, "{arbiter}: FIFO orders by age, so the age is state");
                assert!(wait_a.is_empty() && wait_b.is_empty(), "{arbiter}");
            } else {
                assert_eq!(sig_a, sig_b, "{arbiter}: the age must not enter the signature");
                assert_eq!(wait_a, vec![Waiting { age: 2, ready: 3 }], "{arbiter}");
                assert_eq!(wait_b, vec![Waiting { age: 18, ready: 3 }], "{arbiter}");
            }
        }
    }

    #[test]
    fn a_waiting_slot_matches_by_equal_age_or_equal_ready() {
        let snap = |now, waiting: Vec<Waiting>| Snapshot {
            sig: vec![7],
            waiting,
            now,
            iterations: Vec::new(),
            instructions: Vec::new(),
            pmc: Vec::new(),
            dl1_stats: Vec::new(),
            il1_stats: Vec::new(),
            l2_stats: Vec::new(),
            sb_full_stalls: Vec::new(),
            bus_stats: ResourceStats::default(),
            mc_stats: None,
            dram_stats: DramStats::default(),
        };
        let prev = snap(100, vec![Waiting { age: 4, ready: 96 }, Waiting { age: 90, ready: 10 }]);
        // A fresh request at the same phase, and the same request still waiting.
        let same = snap(150, vec![Waiting { age: 4, ready: 146 }, Waiting { age: 140, ready: 10 }]);
        assert!(prev.recurs_in(&same));
        // A different request of a different age.
        let other = snap(150, vec![Waiting { age: 4, ready: 146 }, Waiting { age: 7, ready: 143 }]);
        assert!(!prev.recurs_in(&other));
    }
}
