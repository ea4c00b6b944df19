//! Soundness property for the static contention analyzer: for randomized
//! arbiters, topologies, and workloads, the per-resource static bound —
//! when finite — dominates every per-request delay the simulator actually
//! observes (`γ = granted - ready`, read off the per-resource PMC
//! histograms).
//!
//! This is the pin that keeps `rrb analyze` honest: the analytic models
//! in `rrb-static` (Eq. 1 for round-robin/FIFO, group rotation for
//! `grr`, slot geometry for `tdma`, response-time analysis plus the
//! whole-run window for `fp`) must never report a bound the machine can
//! exceed. Cases are drawn from the workspace's deterministic
//! [`KernelRng`], so a failure reproduces exactly.

mod common;

use common::{for_cases, random_machine, random_workload};
use rrb::statics::{profile_program, CoreProfile, StaticBound};
use rrb_sim::{
    ArbiterKind, CoreId, Machine, MachineConfig, McQueueConfig, ResourceId, ResourceKind,
};

/// The core property: a finite static per-resource bound dominates every
/// observed per-request delay at that resource, on every core.
#[test]
fn static_bound_dominates_observed_gamma() {
    for_cases(0x30, 24, |rng| {
        let cfg = random_machine(rng, |r| r.gen_below(2) == 0, 3);
        let programs = random_workload(rng, &cfg);
        let profiles: Vec<CoreProfile> =
            programs.iter().map(|p| profile_program(p, &cfg)).collect();
        let bound = StaticBound::analyze(&cfg, &profiles);

        let mut m = Machine::new(cfg.clone()).expect("config");
        for (i, p) in programs.into_iter().enumerate() {
            m.load_program(CoreId::new(i), p);
        }
        m.run().expect("run");

        let resources = [
            (ResourceKind::Bus, ResourceId::BUS),
            (ResourceKind::MemoryController, ResourceId::MEMORY_CONTROLLER),
        ];
        for (kind, id) in resources {
            let Some(rb) = bound.resource(kind) else { continue };
            let Some(b) = rb.bound else {
                // An unbounded verdict is *allowed* to be conservative;
                // soundness only constrains finite claims.
                continue;
            };
            for core in 0..cfg.num_cores {
                if let Some(observed) = m.pmc().core(CoreId::new(core)).max_gamma_at(id) {
                    assert!(
                        observed <= b,
                        "core {core} observed gamma {observed} > static {} bound {b} \
                         (arbiter {:?}, {} cores, mc {:?})",
                        kind.slug(),
                        cfg.topology.bus.arbiter,
                        cfg.num_cores,
                        cfg.topology.mc,
                    );
                }
            }
        }
    });
}

/// Against the analytic ground truth: for round-robin (the one arbiter
/// with a closed-form Eq. 1 answer) the saturating static bound is not
/// merely sound but *exact* at every grid point.
#[test]
fn saturating_round_robin_bound_is_exactly_eq1() {
    for_cases(0x31, 32, |rng| {
        // Core counts whose L2 way bump keeps the cache geometry valid.
        let num_cores = [2usize, 3, 4, 8][rng.gen_below(4) as usize];
        let l_bus = rng.gen_range(1, 10);
        let mut cfg = MachineConfig::toy(num_cores, l_bus);
        if rng.gen_below(2) == 0 {
            cfg.topology.mc = Some(McQueueConfig {
                service_occupancy: rng.gen_range(1, 6),
                arbiter: ArbiterKind::RoundRobin,
            });
        }
        let b = StaticBound::saturating(&cfg);
        assert_eq!(b.total(), Some(cfg.ubd()), "cores={num_cores} l={l_bus}");
    });
}

/// Every non-starving arbiter must yield a *finite* machine-wide bound
/// for the grid workload shape (finite software under analysis on core
/// 0) — the "zero refused cells" guarantee `rrb analyze` advertises.
#[test]
fn grid_shaped_workloads_always_get_finite_bounds() {
    for_cases(0x32, 24, |rng| {
        let cfg = random_machine(rng, |r| r.gen_below(2) == 0, 3);
        let programs = random_workload(rng, &cfg);
        let profiles: Vec<CoreProfile> =
            programs.iter().map(|p| profile_program(p, &cfg)).collect();
        let bound = StaticBound::analyze(&cfg, &profiles);
        assert!(
            bound.is_finite(),
            "refused: {:?} (arbiter {:?}, {} cores)",
            bound.reason(),
            cfg.topology.bus.arbiter,
            cfg.num_cores,
        );
        assert_eq!(bound.is_finite(), bound.total().is_some());
    });
}
