//! Must/may cache classification: exact replay of a program's access
//! stream against the private cache hierarchy.
//!
//! [`crate::profile::profile_program`] assumes every load misses DL1 *and*
//! L2 — two bus transactions and a memory-controller admission per load,
//! forever. That envelope is sound but blind: an L2-hitting stressor like
//! the paper's rsk never reaches the controller after its cold fill, and a
//! loop whose working set fits DL1 never reaches the bus at all. This
//! module recovers those facts statically by *replaying* the access stream
//! against models of the IL1, DL1, and the core's L2 partition that mirror
//! the simulator's [`rrb_sim::Cache`] cycle for cycle:
//!
//! * instruction fetches touch the IL1 once per instruction in program
//!   order (the core model touches on a hit at dispatch and on the refill
//!   return after a miss — one touch per fetch either way);
//! * each load touches the DL1 once at dispatch; a store probes and only
//!   touches on a probe hit (write-no-allocate through the store buffer);
//! * every L1 miss — and every store drain — touches the core's private
//!   L2 partition at bus-grant time. When the program has no stores, or
//!   no L1 demand misses, that grant order *is* the program order of the
//!   misses, so the partition can be replayed exactly; when buffered store
//!   drains interleave with demand misses the order is timing-dependent
//!   and the L2 level degrades to `Unknown`.
//!
//! Replay over a loop body is run iteration by iteration until the
//! (replacement-normalised) cache state repeats, which proves the per-
//! iteration outcome vector periodic: the classification then covers
//! *every* future iteration, not just the replayed prefix. Each model
//! stores its lines flat and remembers which sets it has touched, and
//! the state fingerprint covers only those sets. That is exact: the
//! model never invalidates, so a touched set keeps a valid line and can
//! never return to the all-invalid untouched state, and two states have
//! equal touched-set fingerprints exactly when every set agrees. A loop
//! that touches a few dozen sets pays for those, not for every set of
//! the IL1, the DL1 and the L2 partition. Programs that
//! do not converge within the iteration cap — or that use random
//! replacement, whose victim choice depends on the absolute access count —
//! fall back to the classic worst-case envelope.
//!
//! The result feeds two consumers: [`classified_profile`] tightens a
//! [`CoreProfile`] with proven request counts and a proven request gap,
//! and [`crate::flow`] builds per-resource arrival curves from those
//! profiles to compose two-level bounds without the saturating sum's
//! everything-collides pessimism.

use crate::profile::{local_latency, profile_program, CoreProfile, INSTR_BYTES};
use rrb_sim::{CacheConfig, CoreId, Instr, Iterations, MachineConfig, Program, Replacement};

/// Base of the per-core instruction-fetch address stream (mirrors the
/// core model's private constant; pinned by the golden-kernel tests).
const IFETCH_BASE: u64 = 0x8000_0000;
/// Per-core stride of the instruction-fetch address stream.
const IFETCH_STRIDE: u64 = 0x0400_0000;
/// Iteration cap for cycle detection: a loop whose cache state has not
/// repeated after this many iterations is classified `Unknown`.
const MAX_REPLAY_ITERS: u64 = 64;

/// Must/may verdict for one access site at one cache level, over every
/// steady-state iteration of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Classification {
    /// The access hits in every steady-state iteration.
    AlwaysHit,
    /// The access misses in every steady-state iteration.
    AlwaysMiss,
    /// The replay could not prove either (mixed outcomes, unconverged
    /// replay, random replacement, or a timing-dependent L2 order).
    Unknown,
}

/// Per-iteration classification tallies at one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LevelClasses {
    /// Accesses proven to hit in every steady-state iteration.
    pub always_hit: u64,
    /// Accesses proven to miss in every steady-state iteration.
    pub always_miss: u64,
    /// Accesses the analysis could not classify.
    pub unknown: u64,
}

impl LevelClasses {
    /// Total classified accesses per iteration at this level.
    pub fn total(&self) -> u64 {
        self.always_hit + self.always_miss + self.unknown
    }

    /// Whether every access at this level has a proven verdict.
    pub fn proven(&self) -> bool {
        self.unknown == 0
    }
}

/// Raw hit/miss totals of one model cache over the replayed iterations.
/// For a fully replayed finite program these match the cycle-accurate
/// simulator's counters exactly (the golden-kernel tests pin this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Accesses that hit during the replay.
    pub hits: u64,
    /// Accesses that missed during the replay.
    pub misses: u64,
}

/// The classified access stream of one program on one core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessClasses {
    /// Instruction-fetch verdicts (one access per instruction).
    pub il1: LevelClasses,
    /// Data-load verdicts (stores are write-no-allocate and excluded).
    pub dl1: LevelClasses,
    /// L2-partition verdicts for the accesses that reach it.
    pub l2: LevelClasses,
    /// Proven upper bound on bus transactions per steady-state iteration.
    pub steady_bus_per_iter: u64,
    /// Proven upper bound on MC admissions per steady-state iteration.
    pub steady_mc_per_iter: u64,
    /// Bus transactions over the replayed cold prefix (exact when
    /// `converged`).
    pub prefix_bus: u64,
    /// MC admissions over the replayed cold prefix.
    pub prefix_mc: u64,
    /// Proven lower bound on the core-side gap between requests.
    pub min_gap: u64,
    /// Whether the replay proved the outcome vector periodic (or replayed
    /// a finite program to completion). When false, every verdict is
    /// `Unknown` and the demand numbers are the worst-case envelope.
    pub converged: bool,
    /// Iterations actually replayed.
    pub iterations_replayed: u64,
    /// Cold-prefix iterations covered by `prefix_bus` / `prefix_mc`; the
    /// steady per-iteration rate covers every iteration after them.
    pub prefix_iterations: u64,
    /// Whether every iteration of a finite program was replayed (totals
    /// and replay stats are then exact, not periodic extrapolations).
    pub fully_replayed: bool,
    /// Model IL1 totals over the replayed iterations.
    pub il1_replay: ReplayStats,
    /// Model DL1 totals over the replayed iterations.
    pub dl1_replay: ReplayStats,
    /// Model L2-partition totals over the replayed iterations (only
    /// meaningful when the L2 replay order is sound — no buffered store
    /// drains interleaving with demand misses).
    pub l2_replay: ReplayStats,
}

/// Replacement-normalised state of one cache (see
/// [`ModelCache::fingerprint`]): one `(set, tag, valid, rank)` entry per
/// way of every *touched* set, in set-index order. Untouched sets are
/// left out; that is exact because a touched set never returns to the
/// all-invalid untouched state (see [`ModelCache::fingerprint`]).
type Fingerprint = Vec<(usize, u64, bool, usize)>;

/// A tag-only cache that mirrors [`rrb_sim::Cache`]'s replacement
/// behaviour exactly (LRU stamp refresh on hit, invalid-first victim
/// selection, FIFO fill stamps, xorshift-over-access-count random).
#[derive(Debug, Clone)]
struct ModelCache {
    line_bytes: u64,
    sets: u64,
    ways: usize,
    /// Every line, set-major: set `s` is `lines[s * ways..(s + 1) * ways]`.
    lines: Vec<ModelLine>,
    /// Indices of the sets accessed so far, ascending.
    touched: Vec<usize>,
    replacement: Replacement,
    clock: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct ModelLine {
    tag: u64,
    valid: bool,
    stamp: u64,
}

impl ModelCache {
    fn new(cfg: &CacheConfig) -> ModelCache {
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        ModelCache {
            line_bytes: cfg.line_bytes.max(1),
            sets,
            ways,
            lines: vec![ModelLine { tag: 0, valid: false, stamp: 0 }; sets as usize * ways],
            touched: Vec::new(),
            replacement: cfg.replacement,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    fn set_index(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) % self.sets) as usize
    }

    fn tag(&self, addr: u64) -> u64 {
        addr / self.line_bytes / self.sets
    }

    fn set(&self, idx: usize) -> &[ModelLine] {
        &self.lines[idx * self.ways..(idx + 1) * self.ways]
    }

    fn probe(&self, addr: u64) -> bool {
        let tag = self.tag(addr);
        self.set(self.set_index(addr)).iter().any(|l| l.valid && l.tag == tag)
    }

    /// Mirrors `Cache::touch`: returns whether the access hit.
    fn touch(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let tag = self.tag(addr);
        let idx = self.set_index(addr);
        let replacement = self.replacement;
        let set = &mut self.lines[idx * self.ways..(idx + 1) * self.ways];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            if replacement == Replacement::Lru {
                line.stamp = clock;
            }
            self.hits += 1;
            return true;
        }
        if !set[0].valid {
            // First access to this set: invalid-first selection fills way
            // 0 below, and no line is ever invalidated, so the set stays
            // touched from here on.
            let pos = self.touched.binary_search(&idx).unwrap_or_else(|p| p);
            self.touched.insert(pos, idx);
        }
        let victim = if let Some(pos) = set.iter().position(|l| !l.valid) {
            pos
        } else {
            match replacement {
                Replacement::Lru | Replacement::Fifo => {
                    set.iter().enumerate().min_by_key(|(_, l)| l.stamp).map(|(i, _)| i).unwrap_or(0)
                }
                Replacement::Random => {
                    let mut x = clock.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % set.len() as u64) as usize
                }
            }
        };
        set[victim] = ModelLine { tag, valid: true, stamp: clock };
        self.misses += 1;
        false
    }

    /// Replacement-normalised state: tags, validity, and the *relative*
    /// stamp order per set. Two caches with equal fingerprints behave
    /// identically on any future access sequence under LRU/FIFO (victim
    /// choice depends only on stamp order within a set), so a repeated
    /// fingerprint at an iteration boundary proves the outcome vector
    /// periodic. Random replacement keys off the absolute access count
    /// and is excluded from cycle detection by the caller.
    ///
    /// Only touched sets are covered. That is exact, not a shortcut: an
    /// untouched set is all-invalid with zero stamps in every state, and
    /// since the model never invalidates, a touched set always holds a
    /// valid line. So two states have equal touched-set fingerprints
    /// exactly when their all-sets fingerprints are equal.
    fn fingerprint(&self) -> Fingerprint {
        let mut fp = Vec::with_capacity(self.touched.len() * self.ways);
        for &idx in &self.touched {
            let set = self.set(idx);
            for (i, l) in set.iter().enumerate() {
                let rank =
                    set.iter().enumerate().filter(|&(j, m)| (m.stamp, j) < (l.stamp, i)).count();
                fp.push((idx, l.tag, l.valid, rank));
            }
        }
        fp
    }
}

/// One access site in the per-iteration stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SiteKind {
    Ifetch,
    Load,
    Store,
}

#[derive(Debug, Clone, Copy)]
struct Site {
    kind: SiteKind,
    addr: u64,
    /// Body index of the instruction this access belongs to.
    body_index: usize,
}

/// Outcome of one site in one iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome {
    /// L1 hit (for stores: probe hit; demand is unaffected).
    l1_hit: bool,
    /// L2 outcome when the access reached the partition.
    l2: Option<bool>,
}

/// The per-iteration access stream of `program` on `core`.
fn sites(program: &Program, core: CoreId) -> Vec<Site> {
    let ifetch_base = IFETCH_BASE + IFETCH_STRIDE * core.index() as u64;
    let mut out = Vec::new();
    for (i, instr) in program.body().iter().enumerate() {
        out.push(Site {
            kind: SiteKind::Ifetch,
            addr: ifetch_base + INSTR_BYTES * i as u64,
            body_index: i,
        });
        match instr {
            Instr::Load(addr) => {
                out.push(Site { kind: SiteKind::Load, addr: *addr, body_index: i });
            }
            Instr::Store(addr) => {
                out.push(Site { kind: SiteKind::Store, addr: *addr, body_index: i });
            }
            _ => {}
        }
    }
    out
}

/// Classifies every access of `program` on `core` against `cfg`'s cache
/// hierarchy. See the module docs for the replay semantics.
pub fn classify_accesses(program: &Program, cfg: &MachineConfig, core: CoreId) -> AccessClasses {
    classify_with(program, cfg, core, ModelCache::fingerprint)
}

/// [`classify_accesses`] with the state fingerprint used for cycle
/// detection passed in, so tests can replay against a reference.
fn classify_with(
    program: &Program,
    cfg: &MachineConfig,
    core: CoreId,
    fingerprint: impl Fn(&ModelCache) -> Fingerprint,
) -> AccessClasses {
    let body = program.body();
    let stream = sites(program, core);
    if body.is_empty() || stream.is_empty() {
        return AccessClasses {
            il1: LevelClasses::default(),
            dl1: LevelClasses::default(),
            l2: LevelClasses::default(),
            steady_bus_per_iter: 0,
            steady_mc_per_iter: 0,
            prefix_bus: 0,
            prefix_mc: 0,
            min_gap: u64::MAX,
            converged: true,
            iterations_replayed: 0,
            prefix_iterations: 0,
            fully_replayed: true,
            il1_replay: ReplayStats::default(),
            dl1_replay: ReplayStats::default(),
            l2_replay: ReplayStats::default(),
        };
    }

    let mut il1 = ModelCache::new(&cfg.il1);
    let mut dl1 = ModelCache::new(&cfg.dl1);
    let mut l2 = ModelCache::new(&cfg.l2.partition(cfg.num_cores));
    // Random replacement keys off the absolute access counter, so a
    // repeated normalised state does not imply repeated behaviour.
    let cyclable = il1.replacement != Replacement::Random
        && dl1.replacement != Replacement::Random
        && l2.replacement != Replacement::Random;

    let target = match program.iterations() {
        Iterations::Finite(n) => n.min(MAX_REPLAY_ITERS),
        Iterations::Infinite => MAX_REPLAY_ITERS,
    };
    let fully_replayed = matches!(program.iterations(), Iterations::Finite(n) if n <= target);

    let mut outcomes: Vec<Vec<Outcome>> = Vec::new();
    let mut fingerprints: Vec<(Fingerprint, Fingerprint, Fingerprint)> = Vec::new();
    // `cycle = Some(j)` means the state after iteration `j` equals the
    // state after the last replayed iteration: iterations `j+1..` repeat.
    let mut cycle: Option<usize> = None;
    let mut replayed = 0u64;

    while replayed < target {
        let mut iter_outcomes = Vec::with_capacity(stream.len());
        for site in &stream {
            let outcome = match site.kind {
                SiteKind::Ifetch => {
                    let hit = il1.touch(site.addr);
                    let l2_out = if hit { None } else { Some(l2.touch(site.addr)) };
                    Outcome { l1_hit: hit, l2: l2_out }
                }
                SiteKind::Load => {
                    let hit = dl1.touch(site.addr);
                    let l2_out = if hit { None } else { Some(l2.touch(site.addr)) };
                    Outcome { l1_hit: hit, l2: l2_out }
                }
                SiteKind::Store => {
                    // Write-no-allocate: probe, refresh on a hit, and the
                    // buffered drain always reaches the bus and the L2.
                    let hit = dl1.probe(site.addr);
                    if hit {
                        dl1.touch(site.addr);
                    }
                    Outcome { l1_hit: hit, l2: Some(l2.touch(site.addr)) }
                }
            };
            iter_outcomes.push(outcome);
        }
        outcomes.push(iter_outcomes);
        replayed += 1;
        if cyclable && !fully_replayed {
            let fp = (fingerprint(&il1), fingerprint(&dl1), fingerprint(&l2));
            if let Some(j) = fingerprints.iter().position(|f| *f == fp) {
                cycle = Some(j);
                break;
            }
            fingerprints.push(fp);
        }
    }

    let converged = fully_replayed || cycle.is_some();
    if !converged {
        // Unconverged replay: every verdict is Unknown and the demand is
        // the classic envelope (the caller falls back to
        // `profile_program` for the counts).
        let envelope = profile_program(program, cfg);
        let loads = body.iter().filter(|i| matches!(i, Instr::Load(_))).count() as u64;
        let stores = body.iter().filter(|i| matches!(i, Instr::Store(_))).count() as u64;
        return AccessClasses {
            il1: LevelClasses { unknown: body.len() as u64, ..LevelClasses::default() },
            dl1: LevelClasses { unknown: loads, ..LevelClasses::default() },
            l2: LevelClasses {
                unknown: (body.len() as u64) + loads + stores,
                ..LevelClasses::default()
            },
            steady_bus_per_iter: loads
                .saturating_mul(2)
                .saturating_add(stores)
                .saturating_add((body.len() as u64).saturating_mul(2)),
            steady_mc_per_iter: loads.saturating_add(body.len() as u64),
            prefix_bus: 0,
            prefix_mc: 0,
            min_gap: envelope.min_gap,
            converged: false,
            iterations_replayed: replayed,
            prefix_iterations: 0,
            fully_replayed: false,
            il1_replay: ReplayStats { hits: il1.hits, misses: il1.misses },
            dl1_replay: ReplayStats { hits: dl1.hits, misses: dl1.misses },
            l2_replay: ReplayStats { hits: l2.hits, misses: l2.misses },
        };
    }

    // The steady window: the proven-periodic iterations (after the cycle
    // point), or everything after the cold first iteration for a fully
    // replayed finite program.
    let steady_start = match cycle {
        Some(j) => j + 1,
        None => 1.min(outcomes.len().saturating_sub(1)),
    };
    let steady = &outcomes[steady_start..];
    let prefix = &outcomes[..steady_start];

    // Store drains reach the L2 in buffer-drain order, demand misses in
    // grant order; when both exist the interleaving at the partition is
    // timing-dependent and the replayed L2 order is not trustworthy.
    let has_stores = stream.iter().any(|s| s.kind == SiteKind::Store);
    let any_demand_miss = outcomes
        .iter()
        .flatten()
        .zip(stream.iter().cycle())
        .any(|(o, s)| s.kind != SiteKind::Store && !o.l1_hit);
    let l2_order_sound = !(has_stores && any_demand_miss);

    let verdict_at = |site_idx: usize, level_l2: bool| -> Classification {
        let window = if steady.is_empty() { prefix } else { steady };
        if level_l2 && !l2_order_sound {
            return Classification::Unknown;
        }
        let mut saw_hit = false;
        let mut saw_miss = false;
        for iter in window {
            let o = &iter[site_idx];
            let outcome = if level_l2 { o.l2 } else { Some(o.l1_hit) };
            match outcome {
                Some(true) => saw_hit = true,
                Some(false) => saw_miss = true,
                // Did not reach the L2 this iteration: the L1 absorbed it.
                None => {}
            }
        }
        match (saw_hit, saw_miss) {
            (true, false) => Classification::AlwaysHit,
            (false, true) => Classification::AlwaysMiss,
            (false, false) => Classification::AlwaysHit, // never reaches this level
            (true, true) => Classification::Unknown,
        }
    };

    let mut il1_c = LevelClasses::default();
    let mut dl1_c = LevelClasses::default();
    let mut l2_c = LevelClasses::default();
    for (idx, site) in stream.iter().enumerate() {
        let l1_v = verdict_at(idx, false);
        match site.kind {
            SiteKind::Ifetch => tally(&mut il1_c, l1_v),
            SiteKind::Load => tally(&mut dl1_c, l1_v),
            SiteKind::Store => {}
        }
        // Only accesses that can reach the partition get an L2 verdict.
        let reaches_l2 =
            site.kind == SiteKind::Store || outcomes.iter().any(|iter| iter[idx].l2.is_some());
        if reaches_l2 {
            tally(&mut l2_c, verdict_at(idx, true));
        }
    }

    // Demand: per-iteration worst case over the steady window, exact per
    // iteration within it. An L1 hit is free; an L1 miss that hits the L2
    // is one bus transaction; an L2 miss is two (request + refill) plus
    // one MC admission; a store drain is always one bus transaction.
    let iter_demand = |iter: &[Outcome]| -> (u64, u64) {
        let mut bus = 0u64;
        let mut mc = 0u64;
        for (o, s) in iter.iter().zip(stream.iter()) {
            match s.kind {
                SiteKind::Store => bus += 1,
                SiteKind::Ifetch | SiteKind::Load => {
                    if !o.l1_hit {
                        match (l2_order_sound, o.l2) {
                            (true, Some(true)) => bus += 1,
                            _ => {
                                bus += 2;
                                mc += 1;
                            }
                        }
                    }
                }
            }
        }
        (bus, mc)
    };
    let window = if steady.is_empty() { prefix } else { steady };
    let (steady_bus, steady_mc) = window
        .iter()
        .map(|it| iter_demand(it))
        .fold((0, 0), |(b, m), (ib, im)| (u64::max(b, ib), u64::max(m, im)));
    let (prefix_bus, prefix_mc) = prefix
        .iter()
        .map(|it| iter_demand(it))
        .fold((0u64, 0u64), |(b, m), (ib, im)| (b.saturating_add(ib), m.saturating_add(im)));

    let min_gap = replay_min_gap(body, cfg, &stream, &outcomes, has_stores);

    AccessClasses {
        il1: il1_c,
        dl1: dl1_c,
        l2: l2_c,
        steady_bus_per_iter: steady_bus,
        steady_mc_per_iter: steady_mc,
        prefix_bus,
        prefix_mc,
        min_gap,
        converged: true,
        iterations_replayed: replayed,
        prefix_iterations: steady_start as u64,
        fully_replayed,
        il1_replay: ReplayStats { hits: il1.hits, misses: il1.misses },
        dl1_replay: ReplayStats { hits: dl1.hits, misses: dl1.misses },
        l2_replay: ReplayStats { hits: l2.hits, misses: l2.misses },
    }
}

fn tally(level: &mut LevelClasses, v: Classification) {
    match v {
        Classification::AlwaysHit => level.always_hit += 1,
        Classification::AlwaysMiss => level.always_miss += 1,
        Classification::Unknown => level.unknown += 1,
    }
}

/// Proven lower bound on the core-side gap between consecutive requests,
/// from the replayed outcomes: only sites that actually missed in some
/// iteration count as requesting (an always-hitting load never reaches
/// the bus), which widens the gap over the all-loads-request convention
/// of [`crate::profile`].
fn replay_min_gap(
    body: &[Instr],
    cfg: &MachineConfig,
    stream: &[Site],
    outcomes: &[Vec<Outcome>],
    has_stores: bool,
) -> u64 {
    // Buffered stores drain back-to-back: no usable gap.
    if has_stores {
        return 0;
    }
    let requested = |idx: usize| outcomes.iter().any(|iter| !iter[idx].l1_hit);
    // A steadily missing instruction stream can fetch-miss on adjacent
    // instructions; only cold fetch misses keep an L1 lookup between
    // themselves and the next request (the profile-layer convention).
    let steady_ifetch_miss = stream.iter().enumerate().any(|(idx, s)| {
        s.kind == SiteKind::Ifetch && outcomes.iter().skip(1).any(|iter| !iter[idx].l1_hit)
    });
    if steady_ifetch_miss {
        return 0;
    }
    let positions: Vec<usize> = stream
        .iter()
        .enumerate()
        .filter(|(idx, s)| s.kind == SiteKind::Load && requested(*idx))
        .map(|(_, s)| s.body_index)
        .collect();
    if positions.is_empty() {
        return u64::MAX;
    }
    let lookup = cfg.dl1.latency.min(cfg.il1.latency);
    let mut min_gap = u64::MAX;
    let k = positions.len();
    for idx in 0..k {
        let start = positions[idx];
        let end = positions[(idx + 1) % k];
        let mut gap = 0u64;
        let mut p = (start + 1) % body.len();
        while p != end {
            gap = gap.saturating_add(local_latency(&body[p], cfg));
            p = (p + 1) % body.len();
        }
        min_gap = min_gap.min(gap);
        if min_gap == 0 {
            break;
        }
    }
    min_gap.saturating_add(lookup)
}

/// Derives a [`CoreProfile`] with classification-proven demand: the
/// pointwise best of the classic envelope and the replayed counts. A
/// converged replay bounds an endless program's *total* traffic whenever
/// its steady state is silent (only the cold prefix requests), and always
/// tightens the per-request gap to the accesses that provably miss.
pub fn classified_profile(program: &Program, cfg: &MachineConfig, core: CoreId) -> CoreProfile {
    let envelope = profile_program(program, cfg);
    let classes = classify_accesses(program, cfg, core);
    if !classes.converged {
        return envelope;
    }
    let (bus, mc) = match program.iterations() {
        Iterations::Finite(n) => {
            // The cold prefix is exact; every iteration after it is
            // covered by the proven steady per-iteration rate.
            let rest = n.saturating_sub(classes.prefix_iterations);
            let total =
                |prefix: u64, steady: u64| Some(prefix.saturating_add(steady.saturating_mul(rest)));
            (
                total(classes.prefix_bus, classes.steady_bus_per_iter),
                total(classes.prefix_mc, classes.steady_mc_per_iter),
            )
        }
        Iterations::Infinite => (
            (classes.steady_bus_per_iter == 0).then_some(classes.prefix_bus),
            (classes.steady_mc_per_iter == 0).then_some(classes.prefix_mc),
        ),
    };
    fn min_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
        match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (x, None) | (None, x) => x,
        }
    }
    CoreProfile {
        bus_requests: min_opt(envelope.bus_requests, bus),
        mc_requests: min_opt(envelope.mc_requests, mc),
        min_gap: envelope.min_gap.max(classes.min_gap),
        isolated_cycles: envelope.isolated_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrb_kernels::KernelRng;
    use rrb_sim::{Machine, ProgramBuilder};

    fn toy() -> MachineConfig {
        MachineConfig::toy(4, 2)
    }

    impl ModelCache {
        /// The reference fingerprint: every set, touched or not, with
        /// ranks from a full stamp sort.
        fn dense_fingerprint(&self) -> Fingerprint {
            let mut fp = Vec::with_capacity(self.lines.len());
            for idx in 0..self.sets as usize {
                let set = self.set(idx);
                let mut order: Vec<usize> = (0..set.len()).collect();
                order.sort_by_key(|&i| (set[i].stamp, i));
                let mut rank = vec![0usize; set.len()];
                for (r, &i) in order.iter().enumerate() {
                    rank[i] = r;
                }
                fp.extend(set.iter().enumerate().map(|(i, l)| (idx, l.tag, l.valid, rank[i])));
            }
            fp
        }
    }

    /// A random loop body of loads, stores, nops and branches over a few
    /// lines spaced to collide in the DL1 and the L2 partition.
    fn random_program(rng: &mut KernelRng, cfg: &MachineConfig) -> Program {
        let strides = [
            cfg.dl1.line_bytes,
            cfg.dl1.sets() * cfg.dl1.line_bytes,
            cfg.l2.partition(cfg.num_cores).sets() * cfg.l2.line_bytes,
        ];
        let mut b = ProgramBuilder::new();
        for _ in 0..rng.gen_range(1, 40) {
            let addr = 0x1000
                + strides[rng.gen_below(3) as usize] * rng.gen_below(6)
                + 4 * rng.gen_below(8);
            b = match rng.gen_below(6) {
                0..=2 => b.load(addr),
                3 => b.store(addr),
                4 => b.nop(),
                _ => b.branch(),
            };
        }
        if rng.gen_below(2) == 0 {
            b.endless().build()
        } else {
            b.iterations(rng.gen_range(1, 100)).build()
        }
    }

    #[test]
    fn touched_set_fingerprint_classifies_like_the_dense_reference() {
        let mut rng = KernelRng::seed_from_u64(0x5e7_c0de);
        for case in 0..200 {
            let cores = rng.gen_range(1, 5) as usize;
            let mut cfg = if rng.gen_below(2) == 0 {
                MachineConfig::toy(cores, 2)
            } else {
                MachineConfig::ngmp_ref()
            };
            cfg.num_cores = cores;
            let replacement =
                if rng.gen_below(2) == 0 { Replacement::Lru } else { Replacement::Fifo };
            cfg.il1.replacement = replacement;
            cfg.dl1.replacement = replacement;
            cfg.l2.replacement = replacement;
            let prog = random_program(&mut rng, &cfg);
            let core = CoreId::new(rng.gen_below(cores as u64) as usize);
            let sparse = classify_accesses(&prog, &cfg, core);
            let dense = classify_with(&prog, &cfg, core, ModelCache::dense_fingerprint);
            assert_eq!(sparse, dense, "case {case}: {cores} cores, {replacement:?}, {prog:?}");
        }
    }

    #[test]
    fn fingerprint_covers_only_touched_sets() {
        // ngmp_ref on four cores: a 1-way, 2048-set L2 partition.
        let cfg = MachineConfig::ngmp_ref().l2.partition(4);
        assert_eq!((cfg.sets(), cfg.ways), (2048, 1));
        let mut l2 = ModelCache::new(&cfg);
        assert!(l2.fingerprint().is_empty());
        let touched = [3u64, 17, 17, 2047, 3, 1000];
        for set in touched {
            l2.touch(set * cfg.line_bytes);
        }
        let k = 4; // sets 3, 17, 1000, 2047
        let fp = l2.fingerprint();
        assert_eq!(fp.len(), k * cfg.ways as usize);
        let sets: Vec<usize> = fp.iter().map(|e| e.0).collect();
        assert_eq!(sets, [3, 17, 1000, 2047], "set-index order");
        assert_eq!(l2.dense_fingerprint().len(), 2048);
    }

    #[test]
    fn dl1_resident_loop_is_proven_silent() {
        // Two loads to the same line: the first misses cold, both hit
        // forever after.
        let prog = ProgramBuilder::new().load(0x100).load(0x104).nops(2).branch().endless().build();
        let cfg = toy();
        let c = classify_accesses(&prog, &cfg, CoreId::new(0));
        assert!(c.converged);
        assert_eq!(c.dl1.always_hit, 2, "{c:?}");
        assert_eq!(c.steady_bus_per_iter, 0, "steady-state silent: {c:?}");
        assert_eq!(c.steady_mc_per_iter, 0);
        assert!(c.prefix_bus > 0, "cold fill still pays: {c:?}");
        let p = classified_profile(&prog, &cfg, CoreId::new(0));
        assert_eq!(p.bus_requests, Some(c.prefix_bus), "endless but provably bounded");
        // The cold miss keeps the first load a requester, but the gap now
        // spans the whole loop instead of the adjacent-load distance.
        let env = profile_program(&prog, &cfg);
        assert!(p.min_gap > env.min_gap, "classified {} vs envelope {}", p.min_gap, env.min_gap);
    }

    #[test]
    fn envelope_is_never_tighter_than_classification() {
        let prog = ProgramBuilder::new().load(0x100).nops(3).branch().iterations(10).build();
        let cfg = toy();
        let env = profile_program(&prog, &cfg);
        let cls = classified_profile(&prog, &cfg, CoreId::new(0));
        assert!(cls.bus_requests.unwrap() <= env.bus_requests.unwrap());
        assert!(cls.mc_requests.unwrap() <= env.mc_requests.unwrap());
        assert!(cls.min_gap >= env.min_gap);
    }

    #[test]
    fn replay_matches_machine_dl1_stats_exactly_on_a_finite_load_loop() {
        // The strongest pin: a fully replayed finite program's model DL1
        // must agree with the cycle-accurate machine's DL1 counters.
        let cfg = toy();
        let stride = cfg.dl1.sets() * cfg.dl1.line_bytes;
        let mut b = ProgramBuilder::new();
        for i in 0..(cfg.dl1.ways as u64 + 1) {
            b = b.load(i * stride); // same-set thrash, the rsk shape
        }
        let prog = b.branch().iterations(20).build();

        let mut dl1 = ModelCache::new(&cfg.dl1);
        for _ in 0..20 {
            for instr in prog.body() {
                if let Instr::Load(a) = instr {
                    dl1.touch(*a);
                }
            }
        }

        let mut m = Machine::new(cfg.clone()).expect("config");
        m.load_program(CoreId::new(0), prog);
        m.run().expect("run");
        let stats = m.dl1_stats(CoreId::new(0));
        assert_eq!((dl1.hits, dl1.misses), (stats.hits, stats.misses));
    }

    #[test]
    fn random_replacement_degrades_to_unknown() {
        let mut cfg = toy();
        cfg.dl1.replacement = Replacement::Random;
        let prog = ProgramBuilder::new().load(0x100).branch().endless().build();
        let c = classify_accesses(&prog, &cfg, CoreId::new(0));
        assert!(!c.converged);
        assert!(c.dl1.unknown > 0);
        let p = classified_profile(&prog, &cfg, CoreId::new(0));
        assert_eq!(p.bus_requests, None, "falls back to the envelope");
    }

    #[test]
    fn store_plus_demand_miss_degrades_the_l2_level_only() {
        let cfg = toy();
        let stride = cfg.dl1.sets() * cfg.dl1.line_bytes;
        let mut b = ProgramBuilder::new().store(0x2000);
        for i in 0..(cfg.dl1.ways as u64 + 1) {
            b = b.load(i * stride);
        }
        let prog = b.branch().endless().build();
        let c = classify_accesses(&prog, &cfg, CoreId::new(0));
        assert!(c.converged);
        assert!(c.dl1.always_miss >= 1, "thrash still proven at L1: {c:?}");
        assert_eq!(c.l2.always_hit + c.l2.always_miss, 0, "L2 order unsound: {c:?}");
        assert!(c.l2.unknown > 0);
        assert_eq!(c.min_gap, 0, "stores force zero gap");
    }

    #[test]
    fn always_hitting_load_is_excluded_from_the_gap() {
        // load A; load A again (hits even cold); many nops; branch.
        // Classic profiling sees two adjacent loads (gap = lookup);
        // classification knows the second never requests.
        let cfg = toy();
        let prog =
            ProgramBuilder::new().load(0x100).load(0x104).nops(6).branch().iterations(30).build();
        let env = profile_program(&prog, &cfg);
        let cls = classified_profile(&prog, &cfg, CoreId::new(0));
        assert!(
            cls.min_gap > env.min_gap,
            "classified {} <= envelope {}",
            cls.min_gap,
            env.min_gap
        );
    }
}
