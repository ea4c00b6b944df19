//! Property tests for the experiment-file layer: randomized
//! [`ExperimentSpec`]s — arbiters, topologies, kernel specs, grid axes —
//! must survive the JSON round-trip identically, and rendering must be
//! deterministic.
//!
//! Hand-rolled property loop over [`KernelRng`] (the workspace builds
//! offline, std-only), mirroring the style of `prop_invariants.rs`.

use rrb::campaign::GridScenario;
use rrb::json::Json;
use rrb::spec::{ExperimentSpec, GridSpec, SpecError, WorkloadCase};
use rrb::MethodologyConfig;
use rrb_kernels::{AccessKind, AutobenchKernel, KernelRng, KernelSpec};
use rrb_sim::{ArbiterKind, MachineConfig, McQueueConfig, Replacement};

fn random_access(rng: &mut KernelRng) -> AccessKind {
    if rng.gen_below(2) == 0 {
        AccessKind::Load
    } else {
        AccessKind::Store
    }
}

/// Any arbiter token the spec layer can carry, valid or not: unlike
/// `common::random_policy`, this draws the out-of-range `tdma:0` and
/// `grr:0` on purpose, because a spec must round-trip before validation
/// rejects its machine.
fn random_arbiter(rng: &mut KernelRng) -> ArbiterKind {
    match rng.gen_below(5) {
        0 => ArbiterKind::RoundRobin,
        1 => ArbiterKind::FixedPriority,
        2 => ArbiterKind::Fifo,
        3 => ArbiterKind::Tdma { slot_cycles: rng.gen_below(64) },
        _ => ArbiterKind::GroupedRoundRobin { group_size: rng.gen_below(9) as usize },
    }
}

fn random_replacement(rng: &mut KernelRng) -> Replacement {
    match rng.gen_below(3) {
        0 => Replacement::Lru,
        1 => Replacement::Fifo,
        _ => Replacement::Random,
    }
}

fn random_kernel(rng: &mut KernelRng) -> KernelSpec {
    let opt_iters = |rng: &mut KernelRng| {
        if rng.gen_below(2) == 0 {
            None
        } else {
            Some(rng.next_u64())
        }
    };
    match rng.gen_below(8) {
        0 => KernelSpec::Rsk { access: random_access(rng) },
        1 => KernelSpec::RskNop {
            access: random_access(rng),
            nops: rng.gen_below(200),
            iterations: rng.next_u64(),
        },
        2 => KernelSpec::Nop { iterations: rng.next_u64() },
        3 => {
            let all = AutobenchKernel::all();
            KernelSpec::Eembc {
                kernel: all[rng.gen_below(all.len() as u64) as usize],
                seed: rng.next_u64(),
                iterations: opt_iters(rng),
            }
        }
        4 => KernelSpec::PointerChase { lines: rng.gen_below(64), seed: rng.next_u64() },
        5 => KernelSpec::Mixed { iterations: opt_iters(rng) },
        6 => KernelSpec::Capacity { access: random_access(rng), factor: rng.gen_below(8) },
        _ => KernelSpec::L2Miss,
    }
}

/// A random machine. Round-tripping must hold for *any* field values —
/// validity is a separate concern checked by `validate()` — so the
/// fields are drawn freely, including degenerate ones.
fn random_machine(rng: &mut KernelRng) -> MachineConfig {
    let mut cfg = match rng.gen_below(4) {
        0 => MachineConfig::ngmp_ref(),
        1 => MachineConfig::ngmp_var(),
        2 => MachineConfig::ngmp_two_level(),
        _ => MachineConfig::toy(rng.gen_range(1, 6) as usize, rng.gen_range(1, 12)),
    };
    cfg.num_cores = rng.gen_below(16) as usize;
    cfg.dl1.size_bytes = rng.next_u64();
    cfg.dl1.ways = rng.gen_below(u64::from(u32::MAX)) as u32;
    cfg.dl1.latency = rng.gen_below(16);
    cfg.dl1.replacement = random_replacement(rng);
    cfg.il1.replacement = random_replacement(rng);
    cfg.l2.replacement = random_replacement(rng);
    cfg.l2.size_bytes = rng.next_u64();
    cfg.topology.bus.arbiter = random_arbiter(rng);
    cfg.topology.bus.l2_hit_occupancy = rng.next_u64();
    cfg.topology.mc = if rng.gen_below(2) == 0 {
        None
    } else {
        Some(McQueueConfig { service_occupancy: rng.next_u64(), arbiter: random_arbiter(rng) })
    };
    cfg.dram.banks = rng.gen_below(64) as u32;
    cfg.dram.t_cl = rng.gen_below(64);
    cfg.store_buffer.entries = rng.gen_below(64) as usize;
    cfg.nop_latency = rng.gen_below(8);
    cfg.max_cycles = rng.next_u64();
    cfg.record_requests = rng.gen_below(2) == 0;
    cfg.record_trace = rng.gen_below(2) == 0;
    cfg.quiescence_skip = rng.gen_below(2) == 0;
    cfg.period_skip = rng.gen_below(2) == 0;
    cfg
}

fn random_list<T>(
    rng: &mut KernelRng,
    max_len: u64,
    mut f: impl FnMut(&mut KernelRng) -> T,
) -> Vec<T> {
    (0..rng.gen_range(1, max_len)).map(|_| f(rng)).collect()
}

fn random_spec(rng: &mut KernelRng) -> ExperimentSpec {
    let grid = if rng.gen_below(4) > 0 {
        Some(GridSpec {
            scenario: match rng.gen_below(4) {
                0 => GridScenario::Derive,
                1 => GridScenario::Naive,
                2 => GridScenario::Sweep,
                _ => GridScenario::ValidateGamma,
            },
            arbiters: random_list(rng, 4, random_arbiter),
            cores: random_list(rng, 4, |r| r.gen_below(16) as usize),
            accesses: random_list(rng, 3, random_access),
            contender_accesses: random_list(rng, 3, random_access),
            iterations: random_list(rng, 4, KernelRng::next_u64),
            max_k: rng.gen_below(200) as usize,
            methodology: MethodologyConfig {
                access: random_access(rng),
                contender_access: random_access(rng),
                max_k: rng.gen_below(200) as usize,
                iterations: rng.next_u64(),
                calibration_iterations: rng.next_u64(),
                tolerance: rng.gen_below(8),
                // An exactly representable dyadic in [0, 1), so equality
                // is meaningful; shortest round-trip formatting preserves
                // every f64 anyway.
                min_bus_utilization: rng.gen_below(1 << 20) as f64 / (1 << 20) as f64,
            },
        })
    } else {
        None
    };
    let workloads = if rng.gen_below(2) == 0 {
        Vec::new()
    } else {
        random_list(rng, 4, |r| WorkloadCase {
            name: format!("case-{}", r.gen_below(1000)),
            scua: random_kernel(r),
            contenders: (0..r.gen_below(4)).map(|_| random_kernel(r)).collect(),
        })
    };
    ExperimentSpec {
        name: format!("prop-{}", rng.gen_below(u64::MAX)),
        machine: random_machine(rng),
        grid,
        workloads,
    }
}

#[test]
fn randomized_specs_round_trip_identically() {
    let mut rng = KernelRng::seed_from_u64(0x5eed_0000_0000_0001);
    for case in 0..200 {
        let spec = random_spec(&mut rng);
        let text = spec.to_text();
        let back =
            ExperimentSpec::parse(&text).unwrap_or_else(|e| panic!("case {case}: {e}\n{text}"));
        assert_eq!(back, spec, "case {case} round-trip mismatch");
        assert_eq!(back.to_text(), text, "case {case} rendering must be deterministic");
        assert_eq!(back.spec_hash(), spec.spec_hash(), "case {case} hash must be stable");

        // The compact rendering parses to the same spec too.
        let compact = spec.to_json().render_compact();
        assert_eq!(
            ExperimentSpec::from_json(&Json::parse(&compact).expect("compact parses")).expect("ok"),
            spec,
            "case {case} compact round-trip mismatch"
        );
    }
}

#[test]
fn grid_conversion_survives_the_file_format() {
    // Valid grids (the runnable subset) must convert spec → file → spec
    // → grid without losing a field.
    let mut rng = KernelRng::seed_from_u64(42);
    for _ in 0..50 {
        let grid = rrb::campaign::CampaignGrid::new(
            GridScenario::Derive,
            MachineConfig::toy(rng.gen_range(2, 5) as usize, rng.gen_range(1, 8)),
        )
        .arbiters(vec![random_arbiter(&mut rng)])
        .iterations(vec![rng.gen_range(20, 200)]);
        let spec = ExperimentSpec::from_grid("g", &grid);
        let back = ExperimentSpec::parse(&spec.to_text()).expect("parse");
        assert_eq!(back.to_grid().expect("grid section"), grid);
    }
}

#[test]
fn corrupted_documents_never_panic() {
    // Mutating bytes of a valid spec must produce Ok or a SpecError —
    // never a panic or abort (analyst files are untrusted input).
    let mut rng = KernelRng::seed_from_u64(7);
    let text = {
        let spec = random_spec(&mut rng);
        spec.to_text()
    };
    let bytes = text.as_bytes();
    for i in 0..bytes.len() {
        let mut mutated = bytes.to_vec();
        mutated[i] = mutated[i].wrapping_add(1 + (rng.gen_below(250) as u8));
        if let Ok(s) = String::from_utf8(mutated) {
            match ExperimentSpec::parse(&s) {
                Ok(_) => {}
                Err(
                    SpecError::Parse(_)
                    | SpecError::Field { .. }
                    | SpecError::Invalid(_)
                    | SpecError::File { .. },
                ) => {}
            }
        }
    }
}
