//! Properties of the bounded model checker (`rrb verify`): for
//! randomized arbiters, topologies, and workloads,
//!
//! 1. the exact worst-case delay never exceeds a finite static bound
//!    (`exact <= static` — the tightness certificate is a fraction),
//! 2. every adversarial witness replays to exactly the delay it claims
//!    (the checker's maximum is constructive, not an estimate), and
//! 3. replaying a witness on the full cycle-accurate simulator never
//!    measures a delay above the exact bound (the abstract arbiter
//!    model dominates the real machine).
//!
//! Cases are drawn from the workspace's deterministic [`KernelRng`], so
//! a failure reproduces exactly.

mod common;

use common::{for_cases, random_arbiter, random_machine, random_workload};
use rrb::campaign::{CampaignGrid, GridScenario};
use rrb::statics::{exact_bounds, profile_program, CoreProfile, StaticBound, VerifyOptions};
use rrb::verify::{replay_cell_witnesses, verify_grid};
use rrb_sim::{ArbiterKind, MachineConfig, McQueueConfig};

/// Property 1: where the static analyzer claims a finite per-resource
/// bound, the exhaustive exact worst case exists and never exceeds it.
#[test]
fn exact_never_exceeds_a_finite_static_bound() {
    for_cases(0x40, 20, |rng| {
        let cfg = random_machine(rng, |r| r.gen_below(2) == 0, 3);
        let programs = random_workload(rng, &cfg);
        let profiles: Vec<CoreProfile> =
            programs.iter().map(|p| profile_program(p, &cfg)).collect();
        let statics = StaticBound::analyze(&cfg, &profiles);
        for row in exact_bounds(&cfg, &profiles, &VerifyOptions::default()) {
            let Some(sb) = statics.resource(row.resource).and_then(|r| r.bound) else {
                continue;
            };
            let exact = row.exact.unwrap_or_else(|| {
                panic!(
                    "checker found no bound where statics claims {sb} at {} \
                     (arbiter {:?}, {} cores): {:?}",
                    row.resource.slug(),
                    cfg.topology.bus.arbiter,
                    cfg.num_cores,
                    row.reason,
                )
            });
            assert!(
                exact <= sb,
                "exact {exact} > static {sb} at {} (arbiter {:?}, {} cores, mc {:?})",
                row.resource.slug(),
                cfg.topology.bus.arbiter,
                cfg.num_cores,
                cfg.topology.mc,
            );
        }
    });
}

/// Property 2: the checker's maximum is constructive — every witness
/// replays on the abstract arbiter model to exactly the delay claimed.
#[test]
fn witnesses_replay_to_their_claimed_delay() {
    for_cases(0x41, 20, |rng| {
        let cfg = random_machine(rng, |r| r.gen_below(2) == 0, 3);
        let programs = random_workload(rng, &cfg);
        let profiles: Vec<CoreProfile> =
            programs.iter().map(|p| profile_program(p, &cfg)).collect();
        for row in exact_bounds(&cfg, &profiles, &VerifyOptions::default()) {
            let Some(w) = &row.witness else { continue };
            assert_eq!(w.delay, row.exact.expect("a witness implies an exact bound"));
            assert_eq!(
                w.replay(),
                Some(w.delay),
                "witness does not reproduce its delay at {} (arbiter {:?}, {} cores)",
                row.resource.slug(),
                cfg.topology.bus.arbiter,
                cfg.num_cores,
            );
        }
    });
}

/// Property 3 (end to end): replaying a witness on the full simulator
/// never measures a per-request delay above the exact bound — the chain
/// `measured <= exact <= static` holds on every verified grid cell.
#[test]
fn witness_replay_on_the_simulator_stays_within_exact() {
    for_cases(0x42, 8, |rng| {
        let num_cores = rng.gen_range(2, 5) as usize;
        let l_bus = rng.gen_range(1, 4);
        let mut cfg = MachineConfig::toy(num_cores, l_bus);
        if rng.gen_below(2) == 0 {
            cfg.topology.mc = Some(McQueueConfig {
                service_occupancy: rng.gen_range(1, 4),
                arbiter: ArbiterKind::Fifo,
            });
        }
        let arbiter = random_arbiter(rng, num_cores, l_bus);
        let grid = CampaignGrid::new(GridScenario::Derive, cfg)
            .arbiters(vec![arbiter])
            .iterations(vec![30])
            .max_k(8);
        for cell in verify_grid(&grid, &VerifyOptions::default()) {
            assert!(cell.violations().is_empty(), "{:?}", cell.violations());
            for replay in replay_cell_witnesses(&cell, 30) {
                assert!(replay.errors.is_empty(), "{:?}", replay.errors);
                assert_eq!(replay.violation(), None, "arbiter {arbiter:?}");
            }
        }
    });
}
