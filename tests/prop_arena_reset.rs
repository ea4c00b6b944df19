//! Equivalence properties for machine reuse and steady-state skipping.
//!
//! Batched execution rests on two "indistinguishable from a fresh run"
//! contracts:
//!
//! 1. **Arena reset** — `Machine::reset_to` rewinds a machine to a
//!    just-built state without reallocating; the `rrb` crate's
//!    `MachineArena` reuses one machine across every run of a batch.
//!    A reused machine must be **cycle-identical** to a fresh-built
//!    one: same trace event stream, same `RunSummary`, same
//!    per-resource statistics, same PMC histograms, same DL1/L2 stats.
//! 2. **Period skip** — `MachineConfig::period_skip` lets the run loop
//!    fast-forward whole periods of a periodic steady state. The
//!    skipping run must be cycle-identical to the full simulation.
//!
//! Both properties are driven with randomized configurations and
//! workloads (including the two-level NGMP topology) from fixed seeds
//! through the workspace's own deterministic [`KernelRng`], so
//! failures reproduce exactly.

mod common;

use common::random_policy;
use rrb::campaign::RunSpec;
use rrb::executor::MachineArena;
use rrb_kernels::{rsk, rsk_l2_miss, AccessKind::Load, AccessKind::Store, KernelRng, RskBuilder};
use rrb_sim::{
    ArbiterKind, CoreId, Instr, Machine, MachineConfig, McQueueConfig, Program, ResourceId,
};

/// A random machine over the reference substrate: 2–4 cores, any bus
/// arbiter, optionally a chained memory-controller queue. Unlike the
/// event-driven property, the presets here include the two-level NGMP
/// topology, and the store-buffer depth and L2 geometry vary — exactly
/// the state an arena reset must rebuild or resize.
fn random_config(rng: &mut KernelRng) -> MachineConfig {
    let mut cfg = match rng.gen_below(4) {
        0 => MachineConfig::ngmp_ref(),
        1 => MachineConfig::ngmp_var(),
        2 => MachineConfig::ngmp_two_level(),
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
    if cfg.topology.mc.is_none() && rng.gen_below(2) == 1 {
        let service_occupancy = 2 + rng.gen_below(8);
        cfg.topology.mc = Some(McQueueConfig {
            service_occupancy,
            arbiter: random_policy(rng, service_occupancy),
        });
    }
    cfg.store_buffer.entries = 1 + rng.gen_below(8) as usize;
    cfg.record_requests = true;
    cfg.record_trace = true;
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
            0 | 1 => body.push(Instr::load(32 * 1024 + (slot % 6) * 4096)),
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

/// A random workload: a finite scua on core 0, endless or finite
/// contenders on the rest.
fn random_workload(rng: &mut KernelRng, num_cores: usize) -> Vec<Program> {
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
    programs
}

/// Asserts every observable of the two machines is identical.
fn assert_machines_identical(reused: &Machine, fresh: &Machine, what: &str) {
    assert_eq!(reused.now(), fresh.now(), "{what}: cycle counters diverged");
    assert_eq!(reused.trace().events(), fresh.trace().events(), "{what}: trace diverged");
    assert_eq!(reused.bus().stats(), fresh.bus().stats(), "{what}: bus stats diverged");
    assert_eq!(
        reused.memory_controller().map(|r| r.stats()),
        fresh.memory_controller().map(|r| r.stats()),
        "{what}: mc stats diverged"
    );
    assert_eq!(reused.dram().stats(), fresh.dram().stats(), "{what}: dram stats diverged");
    for i in 0..reused.config().num_cores {
        let id = CoreId::new(i);
        let (a, b) = (reused.pmc().core(id), fresh.pmc().core(id));
        assert_eq!(a, b, "{what}: core {i} PMC state diverged");
        assert_eq!(
            a.gamma_histogram_at(ResourceId::MEMORY_CONTROLLER),
            b.gamma_histogram_at(ResourceId::MEMORY_CONTROLLER),
            "{what}: core {i} mc gamma histogram"
        );
        assert_eq!(reused.dl1_stats(id), fresh.dl1_stats(id), "{what}: core {i} dl1 stats");
        assert_eq!(reused.l2().stats(id), fresh.l2().stats(id), "{what}: core {i} l2 stats");
    }
}

/// Runs `body` for `cases` pseudo-random cases drawn from a fixed seed.
fn for_cases(seed: u64, cases: usize, mut body: impl FnMut(usize, &mut KernelRng)) {
    let mut rng = KernelRng::seed_from_u64(seed);
    for case in 0..cases {
        body(case, &mut rng);
    }
}

/// One machine carried through a chain of heterogeneous random
/// configurations via `reset_to` is cycle-identical — trace stream,
/// summary, stats, PMCs — to a fresh machine built per configuration.
#[test]
fn reset_machine_matches_fresh_build_across_random_configs() {
    let mut reused: Option<Machine> = None;
    for_cases(0xA4E1, 20, |case, rng| {
        let cfg = random_config(rng);
        let what = format!("case {case} ({cfg:?})");
        let programs = random_workload(rng, cfg.num_cores);

        let m = match reused.take() {
            Some(mut m) => {
                m.reset_to(cfg.clone()).expect("reset must accept a valid config");
                m
            }
            None => Machine::new(cfg.clone()).expect("config"),
        };
        let mut m = m;
        let mut fresh = Machine::new(cfg).expect("config");
        for (core, prog) in programs.iter().enumerate() {
            m.load_program(CoreId::new(core), prog.clone());
            fresh.load_program(CoreId::new(core), prog.clone());
        }
        let a = m.run();
        let b = fresh.run();
        assert_eq!(a, b, "{what}: run results diverged");
        assert_machines_identical(&m, &fresh, &what);
        reused = Some(m);
    });
}

/// Loads striding one L2 line apart from a per-core base: `lines`
/// distinct lines, so as many distinct L2 sets while `lines` is at most
/// the partition's set count, and every load misses the DL1 and the L2
/// on its first pass.
fn strided_loads(core: usize, lines: u64) -> Vec<Instr> {
    let base = 0x4000_0000 + 0x0400_0000 * core as u64;
    (0..lines).map(|i| Instr::load(base + i * 32)).collect()
}

/// A reset after a run that filled many L2 sets: each case runs
/// L2-missing strided loads on every core until core 0 alone has touched
/// at least 512 distinct L2 sets, resets the machine to the same
/// configuration, and replays the strided program and then a random
/// workload against a fresh build. A line a touched-set reset missed
/// would turn one of the replay's first-pass misses into a hit.
#[test]
fn reset_after_touching_many_l2_sets_matches_fresh_build() {
    for_cases(0xA4E4, 4, |case, rng| {
        let mut cfg = random_config(rng);
        cfg.record_trace = false;
        let what = format!("case {case} ({cfg:?})");
        let lines = 640;
        let strided = |core| Program::from_body(strided_loads(core, lines), 1);
        let mut m = Machine::new(cfg.clone()).expect("config");
        for core in 0..cfg.num_cores {
            m.load_program(CoreId::new(core), strided(core));
        }
        m.run().expect("the strided pass completes");
        let touched = m.l2().stats(CoreId::new(0)).misses;
        assert!(touched >= 512, "{what}: core 0 filled only {touched} L2 lines");

        m.reset_to(cfg.clone()).expect("reset to the same config");
        let mut fresh = Machine::new(cfg.clone()).expect("config");
        for mm in [&mut m, &mut fresh] {
            for core in 0..cfg.num_cores {
                mm.load_program(CoreId::new(core), strided(core));
            }
        }
        assert_eq!(m.run(), fresh.run(), "{what}: strided replay diverged");
        assert_machines_identical(&m, &fresh, &what);

        let next = random_config(rng);
        let programs = random_workload(rng, next.num_cores);
        m.reset_to(next.clone()).expect("reset to a random config");
        let mut fresh = Machine::new(next).expect("config");
        for (core, prog) in programs.iter().enumerate() {
            m.load_program(CoreId::new(core), prog.clone());
            fresh.load_program(CoreId::new(core), prog.clone());
        }
        assert_eq!(m.run(), fresh.run(), "{what}: random workload after the reset diverged");
        assert_machines_identical(&m, &fresh, &what);
    });
}

/// A failed reset (invalid config) must leave the machine fully usable:
/// the next valid reset still matches a fresh build.
#[test]
fn failed_reset_leaves_machine_intact() {
    let mut rng = KernelRng::seed_from_u64(0xA4E2);
    let cfg = MachineConfig::toy(4, 2);
    let mut m = Machine::new(cfg.clone()).expect("config");

    let mut bad = cfg.clone();
    bad.num_cores = 0;
    assert!(m.reset_to(bad).is_err(), "a zero-core config must be rejected");

    let programs = random_workload(&mut rng, cfg.num_cores);
    m.reset_to(cfg.clone()).expect("valid reset after a failed one");
    let mut fresh = Machine::new(cfg).expect("config");
    for (core, prog) in programs.iter().enumerate() {
        m.load_program(CoreId::new(core), prog.clone());
        fresh.load_program(CoreId::new(core), prog.clone());
    }
    assert_eq!(m.run(), fresh.run(), "post-failure run diverged");
    assert_machines_identical(&m, &fresh, "after failed reset");
}

/// The two-level NGMP preset pinned explicitly through the arena: the
/// DRAM-bound miss storm exercises the controller queue, DRAM bank
/// state, and both PMC histogram families across a reset.
#[test]
fn arena_matches_fresh_machines_on_two_level_miss_storm() {
    let cfg = MachineConfig::ngmp_two_level();
    let scua = Program::from_body(rsk_l2_miss(&cfg, CoreId::new(0)).body().to_vec(), 40);
    let contenders: Vec<Program> = (1..4).map(|i| rsk_l2_miss(&cfg, CoreId::new(i))).collect();
    let spec = RunSpec::contended("two-level-storm", cfg.clone(), scua.clone(), contenders.clone());
    let toy_spec = RunSpec::isolated("toy-breather", MachineConfig::toy(2, 2), scua);

    let mut arena = MachineArena::new();
    // Warm the arena on a different topology first, then hop back and
    // forth: every execution must equal a cold arena's.
    for round in 0..3 {
        let warm = arena.execute(&spec).expect("warm two-level run");
        let cold = MachineArena::new().execute(&spec).expect("cold two-level run");
        assert_eq!(warm, cold, "round {round}: warm arena diverged from cold on two-level");
        let warm_toy = arena.execute(&toy_spec).expect("warm toy run");
        let cold_toy = MachineArena::new().execute(&toy_spec).expect("cold toy run");
        assert_eq!(warm_toy, cold_toy, "round {round}: warm arena diverged on toy");
    }
}

/// Steady-state fast-forward (`period_skip`) is cycle-identical to the
/// full simulation: same run result, same ending cycle, same stats and
/// histograms — across randomized arbiters, topologies, and workloads.
/// (Periodic skipping only engages when per-request records and traces
/// are off, matching what the batch executor runs with.)
#[test]
fn period_skip_matches_full_simulation() {
    for_cases(0xA4E3, 24, |case, rng| {
        let mut cfg = random_config(rng);
        cfg.record_requests = false;
        cfg.record_trace = false;
        let what = format!("case {case} ({cfg:?})");
        // Long finite scuas give the steady state room to establish and
        // the skip room to fire; endless contenders keep the bus loaded.
        let mut programs = Vec::new();
        programs.push(Program::from_body(random_body(rng, 0), 200 + rng.gen_below(1_000)));
        for core in 1..cfg.num_cores {
            programs.push(Program::endless(random_body(rng, core)));
        }

        cfg.period_skip = true;
        let mut skip = Machine::new(cfg.clone()).expect("config");
        cfg.period_skip = false;
        let mut full = Machine::new(cfg).expect("config");
        for (core, prog) in programs.iter().enumerate() {
            skip.load_program(CoreId::new(core), prog.clone());
            full.load_program(CoreId::new(core), prog.clone());
        }
        let a = skip.run();
        let b = full.run();
        assert_eq!(a, b, "{what}: run results diverged");
        assert_machines_identical(&skip, &full, &what);
        assert!(
            skip.steps_executed() <= full.steps_executed(),
            "{what}: the skipping run must never step more than the full one"
        );
    });
}

/// Period skip through starvation: on a four-core fixed-priority bus the
/// lower-priority contenders' first requests wait for the whole run, so
/// their ages grow every period. The skip must still fire — matching
/// each such request by its absolute `ready`, and a starved store
/// contender's full buffer by the future part of its stamps alone — and
/// stay cycle-identical to the full simulation, on a single bus and with
/// an rr or a fifo memory controller behind it.
#[test]
fn period_skip_fires_through_fixed_priority_starvation() {
    let mcs = [
        None,
        Some(McQueueConfig { service_occupancy: 4, arbiter: ArbiterKind::RoundRobin }),
        Some(McQueueConfig { service_occupancy: 4, arbiter: ArbiterKind::Fifo }),
    ];
    for mc in mcs {
        for contenders in
            [[Load, Load, Load], [Store, Load, Load], [Load, Store, Load], [Load, Load, Store]]
        {
            for (scua, nops) in [(Load, 0), (Load, 5), (Store, 3)] {
                let mut cfg = MachineConfig::ngmp_ref();
                cfg.num_cores = 4;
                cfg.topology.bus.arbiter = ArbiterKind::FixedPriority;
                cfg.topology.mc = mc;
                cfg.record_requests = false;
                cfg.validate().expect("fp starvation config must validate");
                let what =
                    format!("mc {mc:?}, contenders {contenders:?}, scua {scua:?} + {nops} nops");
                let mut programs = vec![RskBuilder::new(scua)
                    .nops(nops)
                    .iterations(1_000)
                    .build(&cfg, CoreId::new(0))];
                for (i, &access) in contenders.iter().enumerate() {
                    programs.push(rsk(access, &cfg, CoreId::new(i + 1)));
                }

                cfg.period_skip = true;
                let mut skip = Machine::new(cfg.clone()).expect("config");
                cfg.period_skip = false;
                let mut full = Machine::new(cfg).expect("config");
                for (core, prog) in programs.iter().enumerate() {
                    skip.load_program(CoreId::new(core), prog.clone());
                    full.load_program(CoreId::new(core), prog.clone());
                }
                let a = skip.run();
                let b = full.run();
                assert_eq!(a, b, "{what}: run results diverged");
                assert_machines_identical(&skip, &full, &what);
                assert!(
                    skip.steps_executed() * 10 <= full.steps_executed(),
                    "{what}: the skip must fire through starvation (stepped {} of {})",
                    skip.steps_executed(),
                    full.steps_executed()
                );
            }
        }
    }
}
