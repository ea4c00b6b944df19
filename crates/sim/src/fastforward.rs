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
//! * per shared resource: pending and active transactions and the
//!   arbiter's schedule state — a TDMA arbiter contributes its slot
//!   phase, so a period only matches when it is a multiple of the TDMA
//!   frame ([`SharedResource::ff_signature`]);
//! * the DRAM controller: open rows, queue, in-flight access
//!   ([`Dram::ff_signature`]).
//!
//! Two equal fingerprints at cycles `t₁ < t₂` evolve identically from
//! their respective `now`s, so every future iteration boundary recurs
//! with period `t₂ − t₁`. The skip count is clamped so that (a) no
//! finite core completes inside a skipped period — the final approach
//! to completion is always stepped live — and (b) the cycle budget is
//! never overshot, preserving exact budget-exhaustion behaviour.
//!
//! The skip is a pure optimisation: `run` with and without it is
//! cycle-identical, pinned by the period-equivalence property test in
//! `tests/prop_arena_reset.rs` and the golden-trace tests (trace
//! recording disables the skip, so traces are always exact).
//!
//! [`Machine::run`]: crate::Machine::run
//! [`CoreModel::ff_signature`]: crate::core_model::CoreModel
//! [`Cache::rank_signature`]: crate::cache::Cache::rank_signature
//! [`Cache::reachable_sets`]: crate::cache::Cache::reachable_sets
//! [`SharedResource::ff_signature`]: crate::resource::SharedResource
//! [`Dram::ff_signature`]: crate::dram::Dram

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

/// One fingerprinted iteration boundary: the relative-time signature
/// plus a copy of every monotone counter, for per-period delta scaling.
struct Snapshot {
    sig: Vec<u64>,
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
        if let Some(prev) = self.history.iter().rev().find(|p| p.sig == snap.sig) {
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
        m.bus.ff_signature(now, &mut sig);
        if let Some(mc) = &m.mc {
            mc.ff_signature(now, &mut sig);
        }
        m.dram.ff_signature(now, &mut sig);

        Snapshot {
            sig,
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
/// stamp, credits per-core progress, and adds `k` copies of every
/// per-period counter delta.
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
    m.bus.ff_shift(delta);
    m.bus.ff_scale_stats(&stats_delta(&prev.bus_stats, &snap.bus_stats), k);
    if let Some(mc) = &mut m.mc {
        mc.ff_shift(delta);
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
