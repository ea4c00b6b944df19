//! Case generators shared by the property tests. Every generator draws
//! from the workspace's deterministic [`KernelRng`], so a failing case
//! reproduces exactly from its seed.

// Each test crate compiles its own copy and uses only some generators.
#![allow(dead_code)]

use rrb_kernels::{rsk, AccessKind, KernelRng, RskBuilder};
use rrb_sim::{ArbiterKind, CoreId, MachineConfig, McQueueConfig, Program};

/// Runs `body` for `cases` pseudo-random cases drawn from a fixed seed.
pub fn for_cases(seed: u64, cases: usize, mut body: impl FnMut(&mut KernelRng)) {
    let mut rng = KernelRng::seed_from_u64(seed);
    for _ in 0..cases {
        body(&mut rng);
    }
}

/// A random bus arbiter that cannot starve by construction (TDMA slots
/// always fit the worst occupancy — a too-short slot is *meant* to be
/// unbounded and is lint's job to reject, not a soundness property's).
pub fn random_arbiter(rng: &mut KernelRng, num_cores: usize, worst_occ: u64) -> ArbiterKind {
    match rng.gen_below(5) {
        0 => ArbiterKind::RoundRobin,
        1 => ArbiterKind::Fifo,
        2 => ArbiterKind::FixedPriority,
        3 => ArbiterKind::Tdma { slot_cycles: worst_occ + rng.gen_below(4) },
        _ => ArbiterKind::GroupedRoundRobin {
            group_size: rng.gen_range(1, num_cores as u64 + 1) as usize,
        },
    }
}

/// One of the five arbitration policies for a resource whose longest
/// transaction takes `worst_occupancy` cycles: TDMA slots always fit it
/// (otherwise validation rejects them), grouped round-robin groups hold
/// one to three cores. The simulator equivalence properties draw every
/// bus and controller policy from here.
pub fn random_policy(rng: &mut KernelRng, worst_occupancy: u64) -> ArbiterKind {
    match rng.gen_below(5) {
        0 => ArbiterKind::RoundRobin,
        1 => ArbiterKind::FixedPriority,
        2 => ArbiterKind::Fifo,
        3 => ArbiterKind::Tdma { slot_cycles: worst_occupancy + rng.gen_below(12) },
        _ => ArbiterKind::GroupedRoundRobin { group_size: 1 + rng.gen_below(3) as usize },
    }
}

/// A random machine: 2-4 cores, bus latency 1-4, one of the five bus
/// arbiters, and — when the `chain_mc` draw says so — a chained
/// memory-controller queue with a service occupancy of 1 to
/// `max_service_occupancy` under rr or fifo.
pub fn random_machine(
    rng: &mut KernelRng,
    chain_mc: impl FnOnce(&mut KernelRng) -> bool,
    max_service_occupancy: u64,
) -> MachineConfig {
    let num_cores = rng.gen_range(2, 5) as usize;
    let l_bus = rng.gen_range(1, 5);
    let mut cfg = MachineConfig::toy(num_cores, l_bus);
    cfg.topology.bus.arbiter = random_arbiter(rng, num_cores, l_bus);
    if chain_mc(rng) {
        cfg.topology.mc = Some(McQueueConfig {
            service_occupancy: rng.gen_range(1, max_service_occupancy + 1),
            arbiter: if rng.gen_below(2) == 0 {
                ArbiterKind::RoundRobin
            } else {
                ArbiterKind::Fifo
            },
        });
    }
    cfg
}

/// A grid-shaped workload: a finite rsk-nop on core 0 (the paper's
/// software-under-analysis shape) and a random contender per other core.
/// Under fixed priority every contender is endless, so the whole-run
/// window is anchored by core 0 alone and the analysis stays finite.
pub fn random_workload(rng: &mut KernelRng, cfg: &MachineConfig) -> Vec<Program> {
    let access = |rng: &mut KernelRng| {
        if rng.gen_below(2) == 0 {
            AccessKind::Load
        } else {
            AccessKind::Store
        }
    };
    let fp = cfg.topology.bus.arbiter == ArbiterKind::FixedPriority;
    let scua = RskBuilder::new(access(rng))
        .nops(rng.gen_below(8) as usize)
        .iterations(rng.gen_range(10, 50))
        .build(cfg, CoreId::new(0));
    let mut programs = vec![scua];
    for core in 1..cfg.num_cores {
        let core = CoreId::new(core);
        if !fp && rng.gen_below(3) == 0 {
            programs.push(
                RskBuilder::new(access(rng))
                    .nops(rng.gen_below(4) as usize)
                    .iterations(rng.gen_range(10, 40))
                    .build(cfg, core),
            );
        } else {
            programs.push(rsk(access(rng), cfg, core));
        }
    }
    programs
}
