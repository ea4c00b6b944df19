//! Equivalence property for the event-driven simulation core.
//!
//! `MachineConfig::quiescence_skip` lets `run`/`run_for` jump `now`
//! straight to the next component event horizon instead of stepping
//! every quiescent cycle. The contract is that the two modes are
//! **cycle-identical**: same trace event stream, same `RunSummary`,
//! same per-resource statistics, same per-core PMC state — for every
//! arbiter, topology, and workload. These tests drive randomized pairs
//! of machines (skip on / skip off) from fixed seeds through the same
//! configurations and programs and compare everything observable.
//!
//! The case generator is the workspace's own deterministic
//! [`KernelRng`] (std-only, fixed seeds), so failures reproduce exactly.

mod common;

use common::random_policy;
use rrb_kernels::{rsk_l2_miss, KernelRng};
use rrb_sim::{CoreId, Instr, Machine, MachineConfig, McQueueConfig, Program, ResourceId};

/// A random machine over the reference substrate: 2–4 cores, any bus
/// arbiter, optionally a chained memory-controller queue.
fn random_config(rng: &mut KernelRng) -> MachineConfig {
    let mut cfg = match rng.gen_below(3) {
        0 => MachineConfig::ngmp_ref(),
        1 => MachineConfig::ngmp_var(),
        _ => MachineConfig::toy(4, 1 + rng.gen_below(6)),
    };
    cfg.num_cores = 2 + rng.gen_below(3) as usize;
    let worst_bus = cfg
        .topology
        .bus
        .l2_hit_occupancy
        .max(cfg.topology.bus.transfer_occupancy)
        .max(cfg.topology.bus.store_occupancy);
    cfg.topology.bus.arbiter = random_policy(rng, worst_bus);
    if rng.gen_below(2) == 1 {
        let service_occupancy = 2 + rng.gen_below(8);
        cfg.topology.mc = Some(McQueueConfig {
            service_occupancy,
            arbiter: random_policy(rng, service_occupancy),
        });
    }
    cfg.store_buffer.entries = 1 + rng.gen_below(8) as usize;
    cfg.record_requests = true;
    cfg.record_trace = true;
    // Starvation-prone draws (fixed priority or TDMA against endless
    // contenders) are legitimate cases — both modes must agree on the
    // budget error too — but the per-cycle arm must stay affordable.
    cfg.max_cycles = 150_000;
    cfg.validate().expect("generated config must validate");
    cfg
}

/// A random program body mixing DL1-thrashing (L2-hitting) loads,
/// L2-missing loads, stores, nops, and ALU ops, in per-core address
/// regions.
fn random_body(rng: &mut KernelRng, core: usize) -> Vec<Instr> {
    let mut body = Vec::new();
    let len = 3 + rng.gen_below(10);
    for slot in 0..len {
        match rng.gen_below(6) {
            // Same-set DL1 thrash line: misses DL1, hits L2 once warm.
            0 | 1 => body.push(Instr::load(32 * 1024 + (slot % 6) * 4096)),
            // Huge-stride line: misses DL1 and the L2 partition.
            2 => body.push(Instr::load(
                0x4000_0000 + 0x0400_0000 * core as u64 + rng.gen_below(64) * 4096,
            )),
            3 => body.push(Instr::store(0x0009_0000 + rng.gen_below(16) * 32)),
            4 => body.push(Instr::Nop),
            _ => body.push(Instr::Alu { latency: 1 + rng.gen_below(4) }),
        }
    }
    body
}

/// Loads the same random workload onto both machines: core 0 runs a
/// finite scua, the rest run endless or finite contenders.
fn load_random_workload(rng: &mut KernelRng, pair: [&mut Machine; 2]) {
    let num_cores = pair[0].config().num_cores;
    let mut programs = Vec::new();
    programs.push(Program::from_body(random_body(rng, 0), 10 + rng.gen_below(40)));
    for core in 1..num_cores {
        let body = random_body(rng, core);
        programs.push(if rng.gen_below(2) == 1 {
            Program::endless(body)
        } else {
            Program::from_body(body, 5 + rng.gen_below(60))
        });
    }
    for m in pair {
        for (core, prog) in programs.iter().enumerate() {
            m.load_program(CoreId::new(core), prog.clone());
        }
    }
}

/// Asserts every observable of the two machines is identical.
fn assert_machines_identical(skip: &Machine, step: &Machine, what: &str) {
    assert_eq!(skip.now(), step.now(), "{what}: cycle counters diverged");
    assert_eq!(skip.trace().events(), step.trace().events(), "{what}: trace diverged");
    assert_eq!(skip.bus().stats(), step.bus().stats(), "{what}: bus stats diverged");
    assert_eq!(
        skip.memory_controller().map(|r| r.stats()),
        step.memory_controller().map(|r| r.stats()),
        "{what}: mc stats diverged"
    );
    assert_eq!(skip.dram().stats(), step.dram().stats(), "{what}: dram stats diverged");
    for i in 0..skip.config().num_cores {
        let id = CoreId::new(i);
        let (a, b) = (skip.pmc().core(id), step.pmc().core(id));
        assert_eq!(a.records, b.records, "{what}: core {i} request records diverged");
        assert_eq!(a.gamma_histogram, b.gamma_histogram, "{what}: core {i} gamma histogram");
        assert_eq!(
            a.gamma_histogram_at(ResourceId::MEMORY_CONTROLLER),
            b.gamma_histogram_at(ResourceId::MEMORY_CONTROLLER),
            "{what}: core {i} mc gamma histogram"
        );
        assert_eq!(a.contender_histogram, b.contender_histogram, "{what}: core {i} contenders");
        assert_eq!(a.sb_stall_cycles, b.sb_stall_cycles, "{what}: core {i} store stalls");
        assert_eq!(skip.dl1_stats(id), step.dl1_stats(id), "{what}: core {i} dl1 stats");
        assert_eq!(skip.l2().stats(id), step.l2().stats(id), "{what}: core {i} l2 stats");
    }
}

/// One machine per stepping mode over the same configuration.
fn paired(mut cfg: MachineConfig) -> (Machine, Machine) {
    cfg.quiescence_skip = true;
    let skip = Machine::new(cfg.clone()).expect("config");
    cfg.quiescence_skip = false;
    let step = Machine::new(cfg).expect("config");
    (skip, step)
}

/// Runs `body` for `cases` pseudo-random cases drawn from a fixed seed.
fn for_cases(seed: u64, cases: usize, mut body: impl FnMut(usize, &mut KernelRng)) {
    let mut rng = KernelRng::seed_from_u64(seed);
    for case in 0..cases {
        body(case, &mut rng);
    }
}

/// `run()` to completion: identical summaries, traces, stats, and PMCs
/// across randomized arbiters, topologies, and workloads. Runs that
/// starve (fixed priority / TDMA against endless contenders) must agree
/// on the budget error instead.
#[test]
fn event_driven_run_equals_per_cycle_stepping() {
    for_cases(0xED01, 24, |case, rng| {
        let cfg = random_config(rng);
        let what = format!("case {case} ({cfg:?})");
        let (mut skip, mut step) = paired(cfg);
        load_random_workload(rng, [&mut skip, &mut step]);
        let a = skip.run();
        let b = step.run();
        assert_eq!(a, b, "{what}: run results diverged");
        assert_machines_identical(&skip, &step, &what);
    });
}

/// `run_for()` over endless workloads: both modes land on the exact
/// requested cycle with identical state.
#[test]
fn event_driven_run_for_equals_per_cycle_stepping() {
    for_cases(0xED02, 12, |case, rng| {
        let cfg = random_config(rng);
        let what = format!("case {case} ({cfg:?})");
        let horizon = 2_000 + rng.gen_below(4_000);
        let (mut skip, mut step) = paired(cfg);
        let num_cores = skip.config().num_cores;
        let mut bodies = Vec::new();
        for core in 0..num_cores {
            bodies.push(random_body(rng, core));
        }
        for m in [&mut skip, &mut step] {
            for (core, body) in bodies.iter().enumerate() {
                m.load_program(CoreId::new(core), Program::endless(body.clone()));
            }
        }
        let a = skip.run_for(horizon);
        let b = step.run_for(horizon);
        assert_eq!(a, b, "{what}: summaries diverged");
        assert_eq!(a.cycles, horizon, "{what}: run_for must stop exactly at the horizon");
        assert_machines_identical(&skip, &step, &what);
    });
}

/// Budget exhaustion is identical too: same error, same stopping cycle.
#[test]
fn event_driven_budget_exhaustion_matches() {
    for_cases(0xED03, 8, |case, rng| {
        let mut cfg = random_config(rng);
        cfg.max_cycles = 50 + rng.gen_below(300);
        let (mut skip, mut step) = paired(cfg);
        load_random_workload(rng, [&mut skip, &mut step]);
        let a = skip.run();
        let b = step.run();
        assert_eq!(a, b, "case {case}: run results diverged");
        assert_eq!(skip.now(), step.now(), "case {case}: stopping cycle diverged");
    });
}

/// The two-level reference preset (bus + FIFO controller queue), pinned
/// explicitly: a DRAM-bound miss storm where the skip path matters most.
#[test]
fn event_driven_matches_on_ngmp_two_level_miss_storm() {
    let mut cfg = MachineConfig::ngmp_two_level();
    cfg.record_trace = true;
    let (mut skip, mut step) = paired(cfg.clone());
    for m in [&mut skip, &mut step] {
        // Finite scua over the L2-miss kernel's body, endless contenders.
        let scua = Program::from_body(rsk_l2_miss(&cfg, CoreId::new(0)).body().to_vec(), 40);
        m.load_program(CoreId::new(0), scua);
        for i in 1..4 {
            m.load_program(CoreId::new(i), rsk_l2_miss(&cfg, CoreId::new(i)));
        }
    }
    let a = skip.run().expect("skip run");
    let b = step.run().expect("step run");
    assert_eq!(a, b);
    assert_machines_identical(&skip, &step, "ngmp_two_level miss storm");
    assert!(
        skip.pmc().core(CoreId::new(0)).requests_at(ResourceId::MEMORY_CONTROLLER) > 0,
        "the workload must actually exercise the controller queue"
    );
}
