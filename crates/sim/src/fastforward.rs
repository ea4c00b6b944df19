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
//! with every cycle stamp encoded relative to `now`, after catching every
//! core's quiet run up to `now` (see [`crate::core_model`]):
//!
//! * per core: pc, pipeline state, pending post, store buffer
//!   ([`CoreModel::ff_signature`]), plus the captured contender counts
//!   when (and only when) a transaction that will read them is still
//!   outstanding;
//! * per cache: the sets reachable from the programs' static addresses,
//!   split by [`Cache::overflowing_sets`] when `run` starts. Each
//!   *overflowing* set signs validity, tags, and within-set recency
//!   *ranks* ([`Cache::rank_signature`] — the key the static must/may
//!   replay detects cycles on too; rank order, not absolute clocks, is
//!   what LRU/FIFO behaviour depends on; random replacement depends on
//!   the absolute clock, so it disables the skip). The *fitting* sets
//!   sign together as one word, the cache's resident-line count
//!   ([`Cache::ff_signature`], see §Fitting sets below);
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
//! ### Fitting sets
//!
//! A reachable set *fits* when no more distinct reachable lines map to
//! it than it has ways, and every line resident in it when `run` starts
//! is one the program can reach. The second condition is the
//! foreign-line precondition: a `run_for` of another program, or an
//! earlier `run`, can leave lines behind, and a set holding one is
//! signed as overflowing. In a fitting set every miss finds an invalid
//! way, since the lines it holds are distinct reachable lines other than
//! the missing one, so at most `ways − 1` of them. Nothing in a fitting
//! set is evicted during the run: its residency only grows, and victim
//! selection, the only reader of recency stamps, never runs there. So:
//!
//! * **An equal count means equal contents.** Sets a cache's program
//!   cannot reach never change during the run (every cache is private
//!   to its core), and the overflowing sets are signed in
//!   full, so two boundaries with equal fingerprints hold equally many
//!   lines in the fitting sets. Each fitting set's lines at the later
//!   boundary include those at the earlier one, so equal totals mean
//!   equal contents, set by set. This holds between two boundaries of
//!   one run only, which is all the history ever compares.
//! * **Recency order recurs without being signed.** Inside the run no
//!   eviction reads it. From `t₁` on, each period makes the same
//!   accesses to each cache in the same order; a period's accesses put
//!   the lines they touch above the others, in touch order, and leave
//!   the others in their old order (under FIFO the order moves only on
//!   fills, and a fitting set fills nothing between equal counts).
//!   Doing that twice is doing it once, so the fitting sets' order at
//!   `t₂` is their order at every later boundary, and a skip from `t₂`
//!   leaves the order stepping would. A later run that overflows such a
//!   set evicts exactly as after a stepped run.
//!
//! Without the foreign-line precondition the count would lie: a set
//! full of another program's lines, which the loaded program reaches
//! once, evicts one of them and holds as many lines as before.
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
//! unit tests below (among them a run over another program's leftover
//! lines) and the golden-trace tests (trace recording disables the
//! skip, so traces are always exact).
//!
//! [`Machine::run`]: crate::Machine::run
//! [`CoreModel::ff_signature`]: crate::core_model::CoreModel
//! [`Cache::rank_signature`]: crate::cache::Cache::rank_signature
//! [`Cache::overflowing_sets`]: crate::cache::Cache::overflowing_sets
//! [`Cache::ff_signature`]: crate::cache::Cache::ff_signature
//! [`SharedResource::ff_signature`]: crate::resource::SharedResource
//! [`Dram::ff_signature`]: crate::dram::Dram
//! [`ArbiterKind::reads_ready_age`]: crate::bus::ArbiterKind::reads_ready_age

use crate::config::Replacement;
use crate::instr::Iterations;
use crate::machine::Machine;
use crate::types::{CoreId, Cycle};
use std::collections::BTreeMap;

/// Snapshots kept before the oldest is dropped.
const MAX_HISTORY: usize = 64;
/// Iteration boundaries observed before the detector gives up.
const MAX_BOUNDARIES: usize = 256;
/// Cap on reachable cache sets (summed over every cache); programs with a
/// larger reachable footprint run without the skip.
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
/// plus every monotone counter, flat, for per-period delta scaling.
struct Snapshot {
    sig: Box<[u64]>,
    /// The waiting slots of the bus, then of the memory controller, in
    /// slot order; `sig` holds a marker for each.
    waiting: Vec<Waiting>,
    now: Cycle,
    /// Every counter [`visit_counters`] hands out, in its order (core
    /// `i`'s iteration count is word `i`), then each core's three PMC
    /// histograms, each as a length and that many (key, count) runs.
    counters: Box<[u64]>,
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
    /// Overflowing reachable cache sets per core, ascending
    /// ([`Cache::overflowing_sets`]); the fitting ones sign as a count.
    ///
    /// [`Cache::overflowing_sets`]: crate::cache::Cache::overflowing_sets
    dl1_sets: Vec<Vec<usize>>,
    il1_sets: Vec<Vec<usize>>,
    l2_sets: Vec<Vec<usize>>,
    history: Vec<Snapshot>,
    /// The buffers every fingerprint and counter copy are built in, kept
    /// across boundaries so they grow once per run; each snapshot keeps
    /// exact-size copies.
    sig_buf: Vec<u64>,
    counter_buf: Vec<u64>,
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
            sig_buf: Vec::new(),
            counter_buf: Vec::new(),
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
            let (dl1, dl1_reachable) = core.dl1.overflowing_sets(&data, 0..0);
            let (il1, il1_reachable) = core.il1.overflowing_sets(&[], fetch.clone());
            let (l2, l2_reachable) = m.l2.partition(CoreId::new(i)).overflowing_sets(&data, fetch);
            total += dl1_reachable + il1_reachable + l2_reachable;
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
        // Quiet runs lag behind `now`; the fingerprint reads every core.
        m.catch_up();
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
    fn snapshot(&mut self, m: &mut Machine) -> Snapshot {
        let now = m.now;
        let n = m.cfg.num_cores;
        let mut sig = std::mem::take(&mut self.sig_buf);
        sig.clear();
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
            m.cores[i].dl1.ff_signature(&self.dl1_sets[i], &mut sig);
            m.cores[i].il1.ff_signature(&self.il1_sets[i], &mut sig);
            m.l2.partition(id).ff_signature(&self.l2_sets[i], &mut sig);
        }
        let mut waiting = Vec::new();
        m.bus.ff_signature(now, &mut sig, &mut waiting);
        if let Some(mc) = &m.mc {
            mc.ff_signature(now, &mut sig, &mut waiting);
        }
        m.dram.ff_signature(now, &mut sig);
        let sig_copy = sig.as_slice().into();
        self.sig_buf = sig;

        let mut counters = std::mem::take(&mut self.counter_buf);
        counters.clear();
        visit_counters(m, &mut |c| counters.push(*c));
        for i in 0..n {
            let pmc = m.pmc.core(CoreId::new(i));
            push_runs(&pmc.gamma_histogram, &mut counters);
            push_runs(&pmc.mc_gamma_histogram, &mut counters);
            push_runs(&pmc.contender_histogram, &mut counters);
        }
        let counters_copy = counters.as_slice().into();
        self.counter_buf = counters;

        Snapshot { sig: sig_copy, waiting, now, counters: counters_copy }
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
        let d_iter = snap.counters[i] - prev.counters[i];
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
        let headroom = n.saturating_sub(1).saturating_sub(snap.counters[i]);
        k = k.min(headroom / d_iter);
    }
    k
}

/// Jumps the machine `k` whole periods ahead: shifts every live cycle
/// stamp but the `ready` of a request that waited through the period,
/// and adds `k` copies of every per-period counter delta (per-core
/// progress among them).
fn apply(m: &mut Machine, prev: &Snapshot, snap: &Snapshot, period: Cycle, k: u64) {
    let delta = k * period;
    m.now += delta;
    for core in &mut m.cores {
        core.ff_shift(delta);
    }
    let mut held = prev.waiting.iter().zip(&snap.waiting).map(|(p, s)| p.ready == s.ready);
    m.bus.ff_shift(snap.now, delta, &mut held);
    if let Some(mc) = &mut m.mc {
        mc.ff_shift(snap.now, delta, &mut held);
    }
    m.dram.ff_shift(delta);

    let mut scalars = 0;
    visit_counters(m, &mut |c| {
        *c += k * (snap.counters[scalars] - prev.counters[scalars]);
        scalars += 1;
    });
    let (mut p, mut s) = (&prev.counters[scalars..], &snap.counters[scalars..]);
    for i in 0..m.cfg.num_cores {
        let pmc = m.pmc.core_mut(CoreId::new(i));
        scale_runs(&mut pmc.gamma_histogram, take_runs(&mut p), take_runs(&mut s), k);
        scale_runs(&mut pmc.mc_gamma_histogram, take_runs(&mut p), take_runs(&mut s), k);
        scale_runs(&mut pmc.contender_histogram, take_runs(&mut p), take_runs(&mut s), k);
    }
}

/// Hands every monotone scalar counter of the machine to `f`, in one
/// fixed order: each core's iteration count first (so word `i` of a
/// snapshot's counters is core `i`'s), then per core its own counters,
/// its L2 partition's and its PMC scalars, then the bus's, the memory
/// controller's and the DRAM's. Snapshots copy them in this order and
/// [`apply`] scales them in it.
fn visit_counters(m: &mut Machine, f: &mut impl FnMut(&mut u64)) {
    for core in &mut m.cores {
        f(core.iteration_mut());
    }
    for i in 0..m.cfg.num_cores {
        let id = CoreId::new(i);
        m.cores[i].ff_counters(f);
        m.l2.partition_mut(id).ff_counters(f);
        m.pmc.core_mut(id).ff_counters(f);
    }
    m.bus.ff_counters(f);
    if let Some(mc) = &mut m.mc {
        mc.ff_counters(f);
    }
    m.dram.ff_counters(f);
}

/// Appends a histogram to `out` as its length and its (key, count) runs
/// in key order.
fn push_runs<K: Copy + Into<u64>>(hist: &BTreeMap<K, u64>, out: &mut Vec<u64>) {
    out.push(hist.len() as u64);
    for (&key, &n) in hist {
        out.push(key.into());
        out.push(n);
    }
}

/// Takes one histogram's runs, as [`push_runs`] wrote them, off the front
/// of `rest`.
fn take_runs<'a>(rest: &mut &'a [u64]) -> &'a [u64] {
    let Some((&len, tail)) = rest.split_first() else {
        return &[];
    };
    let (runs, tail) = tail.split_at(2 * len as usize);
    *rest = tail;
    runs
}

/// Adds `k` copies of the per-period delta between two histograms'
/// runs to `cur`. Histogram keys never disappear and counts never
/// decrease, so the per-key delta is `snap − prev` with absent keys
/// reading as zero.
fn scale_runs<K: Ord + TryFrom<u64>>(
    cur: &mut BTreeMap<K, u64>,
    prev: &[u64],
    snap: &[u64],
    k: u64,
) {
    let mut prev = prev.chunks_exact(2).peekable();
    for run in snap.chunks_exact(2) {
        let (key, n) = (run[0], run[1]);
        let mut before = 0;
        while let Some(p) = prev.next_if(|p| p[0] <= key) {
            if p[0] == key {
                before = p[1];
            }
        }
        // Every key was written from a `K`, so the conversion holds.
        if let (d @ 1.., Ok(key)) = (n - before, K::try_from(key)) {
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

    /// Program B, eight instructions with two stores, run on core 0 of
    /// the reference machine after a `run_for` of program A on the same
    /// core. A is longer than one IL1 lap (1,024 instructions), so its
    /// fetch lines wrap into the IL1 set of B's one fetch line, and it
    /// loads the line one L2-partition span (64 KB) above B's last
    /// store, so that line sits in the L2 set and the DL1 set the store
    /// reaches. Each set holds a line B cannot reach, so none of them may
    /// sign as fitting. B's last store drains just after each iteration
    /// boundary; the first drain evicts A's L2 line and leaves the
    /// partition's line count as it was, and nothing else tells the first
    /// two boundaries apart. Signing that L2 set by the count alone
    /// matches them and scales the drain's miss into every skipped period.
    fn run_after_another_program(period_skip: bool) -> Machine {
        const STORE: u64 = 0x0009_2000;
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.record_requests = false;
        cfg.period_skip = period_skip;
        let mut m = Machine::new(cfg).expect("config");
        let core = CoreId::new(0);
        let mut a = vec![Instr::load(STORE + 64 * 1024)];
        a.extend(std::iter::repeat_n(Instr::Nop, 1_100));
        m.load_program(core, Program::endless(a));
        m.run_for(60_000);
        let mut b = vec![Instr::Nop; 3];
        b.push(Instr::store(STORE + 32));
        b.extend([Instr::Nop, Instr::Nop, Instr::Nop, Instr::store(STORE)]);
        m.load_program(core, Program::from_body(b, 3_000));
        m.run().expect("B completes");
        m
    }

    #[test]
    fn lines_another_program_left_behind_keep_their_sets_signed_in_full() {
        let skip = run_after_another_program(true);
        let full = run_after_another_program(false);
        assert!(
            skip.steps_executed() * 10 <= full.steps_executed(),
            "the skip must fire (stepped {} of {})",
            skip.steps_executed(),
            full.steps_executed()
        );
        assert_eq!(skip.now, full.now);
        let core = CoreId::new(0);
        assert_eq!(skip.pmc.core(core), full.pmc.core(core), "PMC diverged");
        assert_eq!(skip.dl1_stats(core), full.dl1_stats(core), "DL1 stats diverged");
        assert_eq!(skip.il1_stats(core), full.il1_stats(core), "IL1 stats diverged");
        assert_eq!(skip.l2.stats(core), full.l2.stats(core), "L2 stats diverged");
        // A's 138 fetch lines and its load, then B's first drain of each
        // store: every later drain hits the line it left.
        assert_eq!(full.l2.stats(core).misses, 141);
    }

    #[test]
    fn a_waiting_slot_matches_by_equal_age_or_equal_ready() {
        let snap = |now, waiting: Vec<Waiting>| Snapshot {
            sig: Box::new([7]),
            waiting,
            now,
            counters: Box::new([]),
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
