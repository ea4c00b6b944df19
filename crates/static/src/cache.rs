//! Must/may cache classification: exact replay of a program's access
//! stream against the private cache hierarchy.
//!
//! [`crate::profile::profile_program`] assumes every load misses DL1 *and*
//! L2 — two bus transactions and a memory-controller admission per load,
//! forever. That envelope is sound but blind: an L2-hitting stressor like
//! the paper's rsk never reaches the controller after its cold fill, and a
//! loop whose working set fits DL1 never reaches the bus at all. This
//! module recovers those facts statically by *replaying* the access stream
//! on the simulator's own caches: the IL1, the DL1 and the core's L2
//! partition are each an [`rrb_sim::Cache`] built from the machine's
//! geometry, so the replacement behaviour is the simulator's by
//! construction and the hit/miss totals are read from [`Cache::stats`].
//! Only the access stream is the replay's own:
//!
//! * instruction fetches touch the IL1 once per instruction in program
//!   order, at [`rrb_sim::fetch_addr`] (the core model touches on a hit at
//!   dispatch and on the refill return after a miss — one touch per fetch
//!   either way);
//! * each load touches the DL1 once at dispatch; a store probes and only
//!   touches on a probe hit (write-no-allocate through the store buffer);
//! * every L1 miss — and every store drain — touches the core's private
//!   L2 partition at bus-grant time. When the program has no stores, or
//!   no L1 demand misses, that grant order *is* the program order of the
//!   misses, so the partition can be replayed exactly; when buffered store
//!   drains interleave with demand misses the order is timing-dependent
//!   and the L2 level degrades to `Unknown`.
//!
//! Replay over a loop body is run iteration by iteration until the cache
//! state at an iteration boundary repeats, which proves the per-iteration
//! outcome vector periodic: the classification then covers *every* future
//! iteration, not just the replayed prefix. The state is keyed exactly as
//! the simulator's period skip keys it: [`Cache::rank_signature`] over the
//! sets [`Cache::reachable_sets`] lists for the program's data addresses
//! and fetch range. A set the program cannot reach is cold in every
//! state, so the reachable-set signature repeats exactly when the
//! all-sets signature does; a loop that reaches a few dozen sets pays for
//! those, not for every set of the IL1, the DL1 and the L2 partition.
//! Programs that do not converge within the iteration cap — or that use
//! random replacement, whose victim choice depends on the absolute access
//! count — fall back to the classic worst-case envelope, as do machines
//! whose cache geometry does not validate (no cache is built for them).
//!
//! The result feeds two consumers: [`classified_profile`] tightens a
//! [`CoreProfile`] with proven request counts and a proven request gap,
//! and [`crate::flow`] builds per-resource arrival curves from those
//! profiles to compose two-level bounds without the saturating sum's
//! everything-collides pessimism.

use crate::profile::{local_latency, profile_program, CoreProfile};
use rrb_sim::cache::Access;
use rrb_sim::{
    fetch_addr, Addr, Cache, CacheStats, CoreId, Instr, Iterations, MachineConfig, Program,
    Replacement,
};
use std::ops::Range;

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
    /// IL1 counters over the replayed iterations (one touch per fetch).
    pub il1_replay: CacheStats,
    /// DL1 counters over the replayed iterations. For a fully replayed
    /// finite program they equal the simulator's DL1 counters.
    pub dl1_replay: CacheStats,
    /// L2-partition counters over the replayed iterations (only
    /// meaningful when the L2 replay order is sound — no buffered store
    /// drains interleaving with demand misses).
    pub l2_replay: CacheStats,
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
    addr: Addr,
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
    let mut out = Vec::new();
    for (i, instr) in program.body().iter().enumerate() {
        out.push(Site { kind: SiteKind::Ifetch, addr: fetch_addr(core, i), body_index: i });
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

/// Touches `addr` in `cache` (filling the line on a miss, as the
/// simulator does) and returns whether it hit.
fn touch(cache: &mut Cache, addr: Addr) -> bool {
    cache.touch(addr) == Access::Hit
}

/// Which sets of a cache the replay signs, given the program's data
/// addresses and fetch range for that level.
type SignedSets = fn(&Cache, &[Addr], Range<Addr>) -> Vec<usize>;

/// Classifies every access of `program` on `core` against `cfg`'s cache
/// hierarchy. See the module docs for the replay semantics.
pub fn classify_accesses(program: &Program, cfg: &MachineConfig, core: CoreId) -> AccessClasses {
    classify_with(program, cfg, core, Cache::reachable_sets)
}

/// [`classify_accesses`] with the signed sets of each level passed in, so
/// tests can replay against a reference that signs every set.
fn classify_with(
    program: &Program,
    cfg: &MachineConfig,
    core: CoreId,
    signed_sets: SignedSets,
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
            il1_replay: CacheStats::default(),
            dl1_replay: CacheStats::default(),
            l2_replay: CacheStats::default(),
        };
    }
    if cfg.validate_caches().is_err() {
        return unproven(program, cfg, 0, [CacheStats::default(); 3]);
    }

    let data: Vec<Addr> =
        stream.iter().filter(|s| s.kind != SiteKind::Ifetch).map(|s| s.addr).collect();
    let fetch = fetch_addr(core, 0)..fetch_addr(core, body.len());
    let mut il1 = Cache::new(cfg.il1);
    let mut dl1 = Cache::new(cfg.dl1);
    let mut l2 = Cache::new(cfg.l2.partition(cfg.num_cores));
    let signed = [
        signed_sets(&il1, &[], fetch.clone()),
        signed_sets(&dl1, &data, 0..0),
        signed_sets(&l2, &data, fetch),
    ];
    // Random replacement keys off the absolute access counter, so a
    // repeated normalised state does not imply repeated behaviour.
    let cyclable = [&il1, &dl1, &l2].iter().all(|c| c.config().replacement != Replacement::Random);

    let target = match program.iterations() {
        Iterations::Finite(n) => n.min(MAX_REPLAY_ITERS),
        Iterations::Infinite => MAX_REPLAY_ITERS,
    };
    let fully_replayed = matches!(program.iterations(), Iterations::Finite(n) if n <= target);

    let mut outcomes: Vec<Vec<Outcome>> = Vec::new();
    let mut signatures: Vec<Vec<u64>> = Vec::new();
    // `cycle = Some(j)` means the state after iteration `j` equals the
    // state after the last replayed iteration: iterations `j+1..` repeat.
    let mut cycle: Option<usize> = None;
    let mut replayed = 0u64;

    while replayed < target {
        let mut iter_outcomes = Vec::with_capacity(stream.len());
        for site in &stream {
            let outcome = match site.kind {
                SiteKind::Ifetch => {
                    let hit = touch(&mut il1, site.addr);
                    let l2_out = if hit { None } else { Some(touch(&mut l2, site.addr)) };
                    Outcome { l1_hit: hit, l2: l2_out }
                }
                SiteKind::Load => {
                    let hit = touch(&mut dl1, site.addr);
                    let l2_out = if hit { None } else { Some(touch(&mut l2, site.addr)) };
                    Outcome { l1_hit: hit, l2: l2_out }
                }
                SiteKind::Store => {
                    // Write-no-allocate: probe, refresh on a hit, and the
                    // buffered drain always reaches the bus and the L2.
                    let hit = dl1.probe(site.addr);
                    if hit {
                        dl1.touch(site.addr);
                    }
                    Outcome { l1_hit: hit, l2: Some(touch(&mut l2, site.addr)) }
                }
            };
            iter_outcomes.push(outcome);
        }
        outcomes.push(iter_outcomes);
        replayed += 1;
        if cyclable && !fully_replayed {
            // Every signature has the first one's length.
            let mut sig = Vec::with_capacity(signatures.first().map_or(0, Vec::len));
            for (cache, sets) in [&il1, &dl1, &l2].into_iter().zip(&signed) {
                cache.rank_signature(sets, &mut sig);
            }
            if let Some(j) = signatures.iter().position(|s| *s == sig) {
                cycle = Some(j);
                break;
            }
            signatures.push(sig);
        }
    }

    let replay = [il1.stats(), dl1.stats(), l2.stats()];
    if !fully_replayed && cycle.is_none() {
        return unproven(program, cfg, replayed, replay);
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
        il1_replay: replay[0],
        dl1_replay: replay[1],
        l2_replay: replay[2],
    }
}

/// The classes of a replay that proved nothing after `replayed`
/// iterations: every verdict `Unknown` and the classic envelope's demand
/// (callers fall back to `profile_program` for the counts). `replay` is
/// the IL1, DL1 and L2-partition counters the replay reached.
fn unproven(
    program: &Program,
    cfg: &MachineConfig,
    replayed: u64,
    replay: [CacheStats; 3],
) -> AccessClasses {
    let body = program.body();
    let loads = body.iter().filter(|i| matches!(i, Instr::Load(_))).count() as u64;
    let stores = body.iter().filter(|i| matches!(i, Instr::Store(_))).count() as u64;
    AccessClasses {
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
        min_gap: profile_program(program, cfg).min_gap,
        converged: false,
        iterations_replayed: replayed,
        prefix_iterations: 0,
        fully_replayed: false,
        il1_replay: replay[0],
        dl1_replay: replay[1],
        l2_replay: replay[2],
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

    /// The reference signature: every set of every level, reachable or
    /// not.
    fn every_set(cache: &Cache, _: &[Addr], _: Range<Addr>) -> Vec<usize> {
        (0..cache.config().sets() as usize).collect()
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
    fn reachable_set_signature_classifies_like_the_dense_reference() {
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
            let reachable = classify_accesses(&prog, &cfg, core);
            let dense = classify_with(&prog, &cfg, core, every_set);
            assert_eq!(reachable, dense, "case {case}: {cores} cores, {replacement:?}, {prog:?}");
        }
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
    fn replay_matches_machine_dl1_stats_exactly_on_random_finite_programs() {
        // With one cache model only the access stream can drift from the
        // machine: a fully replayed finite program's DL1 counters must
        // equal the cycle-accurate machine's, stores or not.
        let mut rng = KernelRng::seed_from_u64(0xd11_5ca7);
        let replacements = [Replacement::Lru, Replacement::Fifo, Replacement::Random];
        for case in 0..300 {
            let cores = rng.gen_range(1, 5) as usize;
            let mut cfg = if rng.gen_below(2) == 0 {
                MachineConfig::toy(cores, 2)
            } else {
                MachineConfig::ngmp_ref()
            };
            cfg.num_cores = cores;
            cfg.dl1.replacement = replacements[rng.gen_below(3) as usize];
            let mut body = random_program(&mut rng, &cfg).body().to_vec();
            if case % 2 == 0 {
                body.retain(|i| !matches!(i, Instr::Store(_)));
                body.push(Instr::Branch); // never empty
            }
            let prog = Program::from_body(body, rng.gen_range(1, MAX_REPLAY_ITERS + 1));
            let core = CoreId::new(rng.gen_below(cores as u64) as usize);
            let c = classify_accesses(&prog, &cfg, core);
            assert!(c.fully_replayed, "case {case}: {c:?}");

            let mut m = Machine::new(cfg.clone()).expect("config");
            m.load_program(core, prog.clone());
            m.run().expect("run");
            assert_eq!(c.dl1_replay, m.dl1_stats(core), "case {case}: {cfg:?}, {prog:?}");
        }
    }

    #[test]
    fn unbuildable_cache_geometry_is_not_replayed() {
        // Five cores on five L2 ways leave a 52428-byte partition, which
        // no cache can be built with: the replay proves nothing rather
        // than build one.
        let mut cfg = MachineConfig::ngmp_ref();
        (cfg.num_cores, cfg.l2.ways) = (5, 5);
        assert!(cfg.validate_caches().is_err());
        let prog = ProgramBuilder::new().load(0x100).branch().endless().build();
        let c = classify_accesses(&prog, &cfg, CoreId::new(0));
        assert!(!c.converged);
        assert_eq!(c.iterations_replayed, 0);
        let p = classified_profile(&prog, &cfg, CoreId::new(0));
        assert_eq!(p, profile_program(&prog, &cfg), "falls back to the envelope");
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
