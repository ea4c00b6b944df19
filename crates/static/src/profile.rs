//! Abstract interpretation of [`Program`] bodies into per-core demand
//! profiles.
//!
//! The profile is a sound over-approximation of what a core can ask of the
//! shared resources, derived from the instruction stream and the machine
//! config alone:
//!
//! * every load is assumed to miss DL1 and L2 (two bus transactions —
//!   request plus refill — and one memory-controller admission);
//! * every store is one bus transaction (write-through stores terminate at
//!   the L2 and never reach the memory controller);
//! * instruction fetches account for at most one miss per instruction-cache
//!   line per iteration — or once overall when the body fits the IL1.
//!
//! The gap bound goes the other way (a sound *under*-approximation of the
//! core-side cycles between consecutive requests), so that request-rate
//! curves built from it over-count arrivals.

use rrb_sim::{fetch_addr, CoreId, Instr, Iterations, MachineConfig, Program};

/// Static demand profile of one core's program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreProfile {
    /// Upper bound on bus transactions over the whole run (`None` =
    /// endless program, unbounded count).
    pub bus_requests: Option<u64>,
    /// Upper bound on memory-controller admissions over the whole run.
    pub mc_requests: Option<u64>,
    /// Lower bound on core-side cycles between one request's data return
    /// and the next request becoming ready (0 = back-to-back).
    pub min_gap: u64,
    /// Upper bound on the contention-free makespan, for finite programs.
    pub isolated_cycles: Option<u64>,
}

impl CoreProfile {
    /// Profile of a core with no program loaded: it never requests.
    pub fn idle() -> Self {
        CoreProfile {
            bus_requests: Some(0),
            mc_requests: Some(0),
            min_gap: u64::MAX,
            isolated_cycles: Some(0),
        }
    }

    /// Worst-case envelope: an endless program that saturates the bus with
    /// back-to-back requests. Used when no program is known for a core.
    pub fn saturating() -> Self {
        CoreProfile { bus_requests: None, mc_requests: None, min_gap: 0, isolated_cycles: None }
    }

    /// Pointwise worst case of two profiles (the abstract-domain join):
    /// larger request counts (`None` = unbounded wins), smaller gap,
    /// larger makespan. A program bounded by both inputs is bounded by
    /// the join.
    pub fn join(&self, other: &CoreProfile) -> CoreProfile {
        fn max_opt(a: Option<u64>, b: Option<u64>) -> Option<u64> {
            Some(a?.max(b?))
        }
        CoreProfile {
            bus_requests: max_opt(self.bus_requests, other.bus_requests),
            mc_requests: max_opt(self.mc_requests, other.mc_requests),
            min_gap: self.min_gap.min(other.min_gap),
            isolated_cycles: max_opt(self.isolated_cycles, other.isolated_cycles),
        }
    }

    /// Whether the program is finite (bounded request count and makespan).
    pub fn is_finite(&self) -> bool {
        self.bus_requests.is_some() && self.isolated_cycles.is_some()
    }
}

/// IL1 lines of `line` bytes one pass over `body` fetches: the span of
/// the core model's fetch stream ([`fetch_addr`]), whose per-core region
/// starts line-aligned.
fn body_lines(body: &[Instr], line: u64) -> u64 {
    let core = CoreId::new(0);
    (fetch_addr(core, body.len()) - fetch_addr(core, 0)).div_ceil(line)
}

/// Worst-case DRAM service time for one request behind the controller.
fn dram_worst(cfg: &MachineConfig) -> u64 {
    let d = &cfg.dram;
    d.controller_overhead
        .saturating_add(d.t_rp)
        .saturating_add(d.t_rcd)
        .saturating_add(d.t_cl)
        .saturating_add(d.burst)
}

/// Derives a sound [`CoreProfile`] for `program` running on `cfg`.
pub fn profile_program(program: &Program, cfg: &MachineConfig) -> CoreProfile {
    let body = program.body();
    if body.is_empty() {
        return CoreProfile::idle();
    }

    let loads = body.iter().filter(|i| matches!(i, Instr::Load(_))).count() as u64;
    let stores = body.iter().filter(|i| matches!(i, Instr::Store(_))).count() as u64;

    // Instruction-fetch misses: the body occupies `body_lines` consecutive
    // IL1 lines. If the whole body fits the IL1 it is fetched from memory
    // at most once (cold misses only); otherwise every line may miss on
    // every iteration.
    let line = cfg.il1.line_bytes.max(1);
    let body_lines = body_lines(body, line);
    let il1_lines = cfg.il1.size_bytes / line;
    let body_fits_il1 = body_lines <= il1_lines;

    // Bus transactions per iteration, steady state: each load may split
    // into request + refill, each store is a single write.
    let data_bus_per_iter = loads.saturating_mul(2).saturating_add(stores);
    let ifetch_bus_per_iter = if body_fits_il1 { 0 } else { body_lines.saturating_mul(2) };
    // Memory-controller admissions: only L2-missing loads and fetches.
    let data_mc_per_iter = loads;
    let ifetch_mc_per_iter = if body_fits_il1 { 0 } else { body_lines };
    // Cold instruction fetches happen once regardless of iteration count.
    let cold_ifetch_bus = body_lines.saturating_mul(2);
    let cold_ifetch_mc = body_lines;

    let (bus_requests, mc_requests) = match program.iterations() {
        Iterations::Finite(n) => (
            Some(
                n.saturating_mul(data_bus_per_iter.saturating_add(ifetch_bus_per_iter))
                    .saturating_add(cold_ifetch_bus),
            ),
            Some(
                n.saturating_mul(data_mc_per_iter.saturating_add(ifetch_mc_per_iter))
                    .saturating_add(cold_ifetch_mc),
            ),
        ),
        Iterations::Infinite => (None, None),
    };

    let min_gap = min_request_gap(body, cfg, stores > 0, body_fits_il1);
    let isolated_cycles = match program.iterations() {
        Iterations::Finite(n) => Some(isolated_makespan(body, cfg, n)),
        Iterations::Infinite => None,
    };

    CoreProfile { bus_requests, mc_requests, min_gap, isolated_cycles }
}

/// Whether `program`, running on `core`, posts no shared-resource
/// requests in steady state. Decided by the must/may cache classification ([`crate::cache`]): when
/// the replay converges on a per-iteration fixpoint, the program is
/// silent iff the steady-state iteration provably posts zero bus and
/// zero memory-controller requests — which also recognises data accesses
/// that *always hit* their private caches after the cold fill, not just
/// access-free bodies. When the replay does not converge, falls back to
/// the conservative syntactic check (no data accesses, body fits the
/// IL1).
pub fn steady_state_silent(program: &Program, cfg: &MachineConfig, core: CoreId) -> bool {
    let classes = crate::cache::classify_accesses(program, cfg, core);
    if classes.converged {
        return classes.steady_bus_per_iter == 0 && classes.steady_mc_per_iter == 0;
    }
    let body = program.body();
    if body.iter().any(Instr::accesses_memory) {
        return false;
    }
    let line = cfg.il1.line_bytes.max(1);
    body_lines(body, line) <= cfg.il1.size_bytes / line
}

/// Core-side latency an instruction burns before the next one can issue,
/// excluding any shared-resource service time.
pub(crate) fn local_latency(instr: &Instr, cfg: &MachineConfig) -> u64 {
    match instr {
        Instr::Load(_) | Instr::Store(_) => 0,
        Instr::Nop => cfg.nop_latency,
        Instr::Alu { latency } => *latency,
        Instr::Branch => cfg.branch_latency,
    }
}

/// Sound lower bound on the gap between consecutive shared-resource
/// requests of this core.
fn min_request_gap(
    body: &[Instr],
    cfg: &MachineConfig,
    has_stores: bool,
    body_fits_il1: bool,
) -> u64 {
    // Buffered stores drain back-to-back, and a body that streams through
    // the IL1 can fetch-miss on adjacent instructions: no usable gap.
    if has_stores || !body_fits_il1 {
        return 0;
    }
    let mem_positions: Vec<usize> =
        body.iter().enumerate().filter(|(_, i)| i.accesses_memory()).map(|(p, _)| p).collect();
    if mem_positions.is_empty() {
        return u64::MAX;
    }
    // On this path every request is a demand load or a cold ifetch, and
    // either way the requester performs an L1 lookup between dispatch and
    // the request becoming ready — so even back-to-back loads are
    // separated by at least the smaller L1 latency. (Store-buffer drains,
    // the one mechanism that posts with no lookup in between, are
    // excluded above.)
    let lookup = cfg.dl1.latency.min(cfg.il1.latency);
    // Circular minimum over the latencies of instructions between
    // consecutive memory ops (the body loops), plus the next request's
    // lookup.
    let mut min_gap = u64::MAX;
    let k = mem_positions.len();
    for idx in 0..k {
        let start = mem_positions[idx];
        let end = mem_positions[(idx + 1) % k];
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

/// Upper bound on the contention-free makespan of `n` iterations of `body`.
fn isolated_makespan(body: &[Instr], cfg: &MachineConfig, n: u64) -> u64 {
    let bus = &cfg.topology.bus;
    let dram = dram_worst(cfg);
    // Worst-case service of one fetched-or-loaded line: request transfer,
    // DRAM round trip, refill transfer — or an L2 hit, whichever is larger.
    let miss_path =
        bus.transfer_occupancy.saturating_mul(2).saturating_add(dram).max(bus.l2_hit_occupancy);
    let mc_admission = cfg.topology.mc.as_ref().map(|m| m.service_occupancy).unwrap_or(0);
    let mut per_iter = 0u64;
    for instr in body {
        // Issue slot + instruction fetch worst case (IL1 miss).
        let fetch = cfg.il1.latency.saturating_add(miss_path).saturating_add(mc_admission);
        let exec = match instr {
            Instr::Load(_) => {
                cfg.dl1.latency.saturating_add(miss_path).saturating_add(mc_admission)
            }
            Instr::Store(_) => cfg.dl1.latency.saturating_add(bus.store_occupancy),
            other => local_latency(other, cfg),
        };
        per_iter = per_iter.saturating_add(1).saturating_add(fetch).saturating_add(exec);
    }
    // One extra store-buffer drain at completion.
    let drain = bus.store_occupancy.saturating_mul(cfg.store_buffer.entries as u64);
    n.saturating_mul(per_iter).saturating_add(drain)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrb_sim::ProgramBuilder;

    fn toy() -> MachineConfig {
        MachineConfig::toy(4, 2)
    }

    #[test]
    fn idle_profile_never_requests() {
        let p = CoreProfile::idle();
        assert_eq!(p.bus_requests, Some(0));
        assert!(p.is_finite());
    }

    #[test]
    fn finite_load_loop_counts_requests() {
        let prog = ProgramBuilder::new().load(0x100).nops(3).branch().iterations(10).build();
        let p = profile_program(&prog, &toy());
        // 1 load * 2 txns * 10 iters + cold ifetch lines * 2.
        let bus = p.bus_requests.expect("finite");
        assert!(bus >= 20, "at least the data transactions: {bus}");
        assert!(p.is_finite());
        assert_ne!(p.bus_requests, Some(0));
        // 3 nops between the load and itself (circularly: nops + branch).
        assert!(p.min_gap >= 3, "gap covers the nops: {}", p.min_gap);
    }

    #[test]
    fn endless_program_is_unbounded() {
        let prog = ProgramBuilder::new().load(0x100).branch().endless().build();
        let p = profile_program(&prog, &toy());
        assert_eq!(p.bus_requests, None);
        assert_eq!(p.isolated_cycles, None);
        assert!(!p.is_finite());
        assert_ne!(p.bus_requests, Some(0));
    }

    #[test]
    fn stores_force_zero_gap() {
        let prog = ProgramBuilder::new().store(0x100).nops(8).branch().iterations(5).build();
        let p = profile_program(&prog, &toy());
        assert_eq!(p.min_gap, 0, "store buffer drains back-to-back");
    }

    #[test]
    fn pure_compute_has_no_requests_per_iteration() {
        let prog = ProgramBuilder::new().nops(4).branch().iterations(100).build();
        let p = profile_program(&prog, &toy());
        // Only the cold instruction fetches remain.
        let bus = p.bus_requests.expect("finite");
        assert!(bus <= 8, "cold fetches only: {bus}");
        assert_eq!(p.min_gap, u64::MAX);
    }

    #[test]
    fn join_takes_pointwise_worst() {
        let a = CoreProfile {
            bus_requests: Some(10),
            mc_requests: Some(5),
            min_gap: 3,
            isolated_cycles: Some(100),
        };
        let b = CoreProfile {
            bus_requests: Some(20),
            mc_requests: None,
            min_gap: 7,
            isolated_cycles: Some(50),
        };
        let j = a.join(&b);
        assert_eq!(j.bus_requests, Some(20));
        assert_eq!(j.mc_requests, None);
        assert_eq!(j.min_gap, 3);
        assert_eq!(j.isolated_cycles, Some(100));
    }

    #[test]
    fn always_hitting_loads_are_steady_state_silent() {
        let cfg = toy();
        // An endless loop re-loading one line: DL1-resident after the
        // cold fill, so the classification proves silence where the old
        // accesses-memory heuristic had to refuse.
        let prog = ProgramBuilder::new().load(0x100).nops(2).branch().endless().build();
        assert!(steady_state_silent(&prog, &cfg, CoreId::new(0)), "always-hit loads are silent");
        // A DL1-thrashing loop keeps posting in steady state.
        let ways = u64::from(cfg.dl1.ways);
        let stride = cfg.dl1.size_bytes / u64::from(cfg.dl1.ways);
        let mut thrash = ProgramBuilder::new();
        for i in 0..=ways {
            thrash = thrash.load(0x100 + i * stride);
        }
        let thrash = thrash.branch().endless().build();
        assert!(!steady_state_silent(&thrash, &cfg, CoreId::new(1)), "set-thrashing loads are not");
        // Pure compute stays silent, as under the old heuristic.
        let nops = ProgramBuilder::new().nops(4).branch().endless().build();
        assert!(steady_state_silent(&nops, &cfg, CoreId::new(3)));
    }

    #[test]
    fn makespan_grows_with_iterations() {
        let short = ProgramBuilder::new().load(0x100).branch().iterations(10).build();
        let long = ProgramBuilder::new().load(0x100).branch().iterations(1000).build();
        let cfg = toy();
        let a = profile_program(&short, &cfg).isolated_cycles.expect("finite");
        let b = profile_program(&long, &cfg).isolated_cycles.expect("finite");
        assert!(b > a);
    }
}
