//! Soundness property for the interference-flow composition: for
//! randomized arbiters, topologies, and workloads, the flow-composed
//! bound for the observed core — derived from must/may-classified demand
//! profiles and propagated through the topology — dominates the composed
//! per-request delay the simulator actually observes on core 0
//! (`max γ_bus + max γ_mc`), while never exceeding the saturating sum it
//! claims to tighten.
//!
//! This is the pin that keeps `rrb analyze --composed` honest, and it
//! also pins the serialisation theorem the mc term rests on: when the
//! bus transfer phase is at least as long as the controller's service
//! occupancy and the mc arbiter is work-conserving, *no* core ever
//! observes a non-zero mc delay — every admission finds an empty queue.
//! Cases are drawn from the workspace's deterministic [`KernelRng`], so
//! a failure reproduces exactly.

mod common;

use common::{for_cases, random_machine, random_workload};
use rrb::statics::{classified_profile, compose_flow, profile_program, CoreProfile, StaticBound};
use rrb_sim::{ArbiterKind, CoreId, Machine, McQueueConfig, ResourceId};

/// The core property chain: `measured composed γ (core 0) ≤ flow
/// composed ≤ classified saturating sum`, and the flow bound also never
/// exceeds the envelope static total `rrb analyze` reports.
#[test]
fn flow_composed_bound_dominates_measured_composed_gamma() {
    for_cases(0x46, 24, |rng| {
        let cfg = random_machine(rng, |r| r.gen_below(4) != 0, 6);
        let programs = random_workload(rng, &cfg);
        let profiles: Vec<CoreProfile> = programs
            .iter()
            .enumerate()
            .map(|(i, p)| classified_profile(p, &cfg, CoreId::new(i)))
            .collect();
        let composed = compose_flow(&cfg, &profiles);
        let envelope = StaticBound::analyze(
            &cfg,
            &programs.iter().map(|p| profile_program(p, &cfg)).collect::<Vec<_>>(),
        );

        if let (Some(flow), Some(sum)) = (composed.flow_total(), composed.sum_total()) {
            assert!(
                flow <= sum,
                "flow {flow} > sum {sum} (arbiter {:?}, {} cores, mc {:?})",
                cfg.topology.bus.arbiter,
                cfg.num_cores,
                cfg.topology.mc,
            );
        }
        if let (Some(flow), Some(envelope_total)) = (composed.flow_total(), envelope.total()) {
            assert!(
                flow <= envelope_total,
                "flow {flow} > envelope static {envelope_total} (arbiter {:?}, mc {:?})",
                cfg.topology.bus.arbiter,
                cfg.topology.mc,
            );
        }

        let mut m = Machine::new(cfg.clone()).expect("config");
        for (i, p) in programs.into_iter().enumerate() {
            m.load_program(CoreId::new(i), p);
        }
        m.run().expect("run");

        let scua = m.pmc().core(CoreId::new(0));
        let measured = scua.max_gamma_at(ResourceId::BUS).unwrap_or(0)
            + scua.max_gamma_at(ResourceId::MEMORY_CONTROLLER).unwrap_or(0);
        if let Some(flow) = composed.flow_total() {
            assert!(
                measured <= flow,
                "core 0 measured composed γ {measured} > flow bound {flow} \
                 (arbiter {:?}, {} cores, mc {:?})",
                cfg.topology.bus.arbiter,
                cfg.num_cores,
                cfg.topology.mc,
            );
        }
    });
}

/// The serialisation theorem behind the flow mc term, pinned directly:
/// when every admission is the completion of a bus transfer phase at
/// least as long as the controller's service occupancy and the mc
/// arbiter is work-conserving, the queue is empty at every arrival — no
/// core, on any workload, ever observes a non-zero mc delay.
#[test]
fn serialised_work_conserving_controller_never_queues() {
    for_cases(0x47, 24, |rng| {
        let mut cfg = random_machine(rng, |r| r.gen_below(4) != 0, 6);
        let transfer = cfg.topology.bus.transfer_occupancy;
        cfg.topology.mc = Some(McQueueConfig {
            service_occupancy: rng.gen_range(1, transfer + 1),
            arbiter: if rng.gen_below(2) == 0 {
                ArbiterKind::RoundRobin
            } else {
                ArbiterKind::Fifo
            },
        });
        let programs = random_workload(rng, &cfg);
        let mut m = Machine::new(cfg.clone()).expect("config");
        for (i, p) in programs.into_iter().enumerate() {
            m.load_program(CoreId::new(i), p);
        }
        m.run().expect("run");
        for core in 0..cfg.num_cores {
            let observed =
                m.pmc().core(CoreId::new(core)).max_gamma_at(ResourceId::MEMORY_CONTROLLER);
            assert!(
                observed.unwrap_or(0) == 0,
                "core {core} observed mc γ {observed:?} with service {} <= transfer {transfer} \
                 (bus arbiter {:?})",
                cfg.topology.mc.as_ref().map_or(0, |mc| mc.service_occupancy),
                cfg.topology.bus.arbiter,
            );
        }
    });
}
