//! Interference-flow composition: per-resource bounds that account for
//! how the upstream arbiter *shapes* the arrival pattern at the
//! downstream resource, instead of summing independent worst cases.
//!
//! The saturating composition (`StaticBound::total`) adds the bus term
//! and the MC term as if both resources could simultaneously serve the
//! observed core their private worst case. The machine cannot realise
//! that: every memory-controller admission is the completion of a bus
//! transfer, so the bus's grant rate is an *arrival curve* for the MC
//! queue — at most one admission per `transfer_occupancy` cycles,
//! machine-wide, no matter how many cores contend. When that arrival
//! spacing `a` is at least the controller's service occupancy `s` (and
//! the queue arbiter is work-conserving), the queue provably drains
//! between admissions and the observed core's MC delay is exactly zero —
//! the queue depth is bounded by the in-flight-per-bus-rotation count
//! (one), not by the core count.
//!
//! [`compose_flow`] derives one [`FlowTerm`] per resource from the
//! per-core demand profiles (use [`crate::cache::classified_profile`]
//! for proven, not assumed-worst, demand):
//!
//! * **bus** — the observed core's own static bound
//!   ([`crate::ResourceBound::observed`]), which folds in the request-cycle
//!   tightenings (`(Nc-1)·L - 1` for `rr`/`fifo` with a proven request
//!   gap, `L - 1` for top-priority `fp`);
//! * **mc** — `0` when the observed core provably never reaches the
//!   controller, or when bus serialisation caps the arrival rate below
//!   the service rate; otherwise the per-requester fallback
//!   `min(machine bound, m·s)` for FIFO queues (`m` = foreign cores
//!   with any MC demand, each holding at most one outstanding miss).
//!
//! The result carries per-resource slack attribution against the
//! saturating sum, and the composed total obeys the soundness chain the
//! verifier enforces per cell:
//!
//! ```text
//! measured composed γ  ≤  flow composed  ≤  saturating sum
//! ```

use crate::bounds::{analyze, can_request, StaticBound};
use crate::profile::CoreProfile;
use rrb_sim::{ArbiterKind, MachineConfig, ResourceKind};

/// One resource's contribution to the composed flow bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowTerm {
    /// Which contention point this term covers.
    pub resource: ResourceKind,
    /// The arbiter policy at this resource.
    pub arbiter: ArbiterKind,
    /// The saturating-sum term: the machine-wide static bound.
    pub sum: Option<u64>,
    /// The flow-composed term for the observed core. Always `≤ sum`.
    pub flow: Option<u64>,
    /// How the flow term was derived (for reports and lint messages).
    pub reason: String,
}

impl FlowTerm {
    /// Provable slack this term attributes: `sum - flow`. `None` when
    /// either side is unbounded.
    pub fn slack(&self) -> Option<u64> {
        Some(self.sum?.saturating_sub(self.flow?))
    }
}

/// The composed interference-flow bound for one machine configuration,
/// reported next to the saturating sum it refines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComposedBound {
    /// Number of cores the bound was computed for.
    pub num_cores: usize,
    /// Per-resource terms, in topology order (bus, then MC).
    pub terms: Vec<FlowTerm>,
}

impl ComposedBound {
    /// The flow-composed total; `None` when any term is unbounded.
    pub fn flow_total(&self) -> Option<u64> {
        let mut total = 0u64;
        for t in &self.terms {
            total = total.saturating_add(t.flow?);
        }
        Some(total)
    }

    /// The saturating-sum total the flow bound refines.
    pub fn sum_total(&self) -> Option<u64> {
        let mut total = 0u64;
        for t in &self.terms {
            total = total.saturating_add(t.sum?);
        }
        Some(total)
    }

    /// The term for a specific resource kind, if present.
    pub fn term(&self, kind: ResourceKind) -> Option<&FlowTerm> {
        self.terms.iter().find(|t| t.resource == kind)
    }

    /// Whether every term is finite.
    pub fn is_finite(&self) -> bool {
        self.terms.iter().all(|t| t.flow.is_some())
    }
}

/// Whether `arbiter` grants whenever a request is pending and the
/// resource is free (everything but TDMA, which waits for slot
/// ownership regardless of queue state).
fn work_conserving(arbiter: ArbiterKind) -> bool {
    !matches!(arbiter, ArbiterKind::Tdma { .. })
}

/// Composes the interference flow for `cfg` from per-core demand
/// profiles (core 0 is the observed core; missing trailing cores are
/// idle). The underlying [`StaticBound`] is computed from the same
/// profiles, so pass classified profiles for the tightest composition.
pub fn compose_flow(cfg: &MachineConfig, profiles: &[CoreProfile]) -> ComposedBound {
    let statics = analyze(cfg, profiles);
    compose_flow_from(cfg, profiles, &statics)
}

/// [`compose_flow`] with an already-computed [`StaticBound`] for the
/// same profiles (avoids re-running the analysis when the caller has
/// both in hand).
pub fn compose_flow_from(
    cfg: &MachineConfig,
    profiles: &[CoreProfile],
    statics: &StaticBound,
) -> ComposedBound {
    let num_cores = cfg.num_cores;
    let mut padded: Vec<CoreProfile> = profiles.to_vec();
    padded.resize(num_cores, CoreProfile::idle());

    let mut terms = Vec::with_capacity(statics.resources.len());
    for rb in &statics.resources {
        let (flow, reason) = match rb.resource {
            ResourceKind::Bus => {
                let why = if rb.observed == rb.bound {
                    "observed core's machine-wide bus bound".to_string()
                } else {
                    "observed core's request-cycle bus bound".to_string()
                };
                (rb.observed, why)
            }
            ResourceKind::MemoryController => mc_flow_term(cfg, &padded, rb.observed),
        };
        // The flow term never exceeds the saturating term: clamp so the
        // `flow ≤ sum` chain holds even for window-resolved bounds.
        let flow = match (flow, rb.bound) {
            (Some(f), Some(s)) => Some(f.min(s)),
            (f, None) => f,
            (None, _) => None,
        };
        terms.push(FlowTerm {
            resource: rb.resource,
            arbiter: rb.arbiter,
            sum: rb.bound,
            flow,
            reason,
        });
    }
    ComposedBound { num_cores, terms }
}

/// The MC-queue flow term: propagates the bus's grant-rate cap to the
/// controller queue.
fn mc_flow_term(
    cfg: &MachineConfig,
    padded: &[CoreProfile],
    observed_bound: Option<u64>,
) -> (Option<u64>, String) {
    let Some(mc) = &cfg.topology.mc else {
        return (Some(0), "no controller queue in the topology".to_string());
    };
    let observed_requests = padded.first().map(|p| can_request(p, ResourceKind::MemoryController));
    if observed_requests != Some(true) {
        return (Some(0), "observed core provably never reaches the controller".to_string());
    }
    let a = cfg.topology.bus.transfer_occupancy;
    let s = mc.service_occupancy;
    if work_conserving(mc.arbiter) && a >= s {
        return (
            Some(0),
            format!(
                "bus-serialised arrivals: admissions are ≥ {a} cycles apart and each is served \
                 in {s}, so every admission finds the queue drained"
            ),
        );
    }
    // Fallback: the queue can build up. Each foreign core holds at most
    // one outstanding miss, so a FIFO queue serves at most `m` foreign
    // admissions (including the in-service one) before the observed
    // core's.
    let m = padded.iter().skip(1).filter(|p| can_request(p, ResourceKind::MemoryController)).count()
        as u64;
    if mc.arbiter == ArbiterKind::Fifo {
        let per_requester = m.saturating_mul(s);
        let flow = match observed_bound {
            Some(b) => Some(b.min(per_requester)),
            None => Some(per_requester),
        };
        return (flow, format!("{m} foreign requester(s), one outstanding miss each"));
    }
    (observed_bound, "queue can back up; observed core's machine bound".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrb_sim::McQueueConfig;

    fn toy_two_level(service: u64) -> MachineConfig {
        let mut cfg = MachineConfig::toy(4, 2);
        cfg.topology.mc =
            Some(McQueueConfig { service_occupancy: service, arbiter: ArbiterKind::Fifo });
        cfg
    }

    fn gapped_saturating() -> CoreProfile {
        CoreProfile { min_gap: 1, ..CoreProfile::saturating() }
    }

    #[test]
    fn single_level_flow_is_the_observed_bus_bound() {
        let cfg = MachineConfig::toy(4, 2);
        let profiles = vec![gapped_saturating(); 4];
        let c = compose_flow(&cfg, &profiles);
        assert_eq!(c.terms.len(), 1);
        assert_eq!(c.flow_total(), Some(5), "(4-1)*2 - 1");
        assert_eq!(c.sum_total(), Some(6));
    }

    #[test]
    fn serialised_mc_arrivals_zero_the_mc_term() {
        // transfer occupancy 2 >= service occupancy 2: the queue drains
        // between admissions no matter how many cores miss the L2.
        let cfg = toy_two_level(2);
        let profiles = vec![gapped_saturating(); 4];
        let c = compose_flow(&cfg, &profiles);
        let mc = c.term(ResourceKind::MemoryController).expect("mc term");
        assert_eq!(mc.flow, Some(0), "{}", mc.reason);
        assert_eq!(mc.sum, Some(6), "(4-1)*2 saturating");
        assert_eq!(c.flow_total(), Some(5));
        assert_eq!(c.sum_total(), Some(12));
    }

    #[test]
    fn slow_controller_falls_back_to_per_requester_fifo_bound() {
        // service 6 > transfer 2: the queue can back up, but each foreign
        // core still holds only one outstanding miss.
        let cfg = toy_two_level(6);
        let profiles = vec![gapped_saturating(); 4];
        let c = compose_flow(&cfg, &profiles);
        let mc = c.term(ResourceKind::MemoryController).expect("mc term");
        assert_eq!(mc.flow, Some(18), "3 requesters * 6 = machine bound here");
        assert_eq!(mc.sum, Some(18));
    }

    #[test]
    fn mc_silent_observed_core_zeroes_the_term_even_when_slow() {
        let cfg = toy_two_level(6);
        let mut profiles = vec![gapped_saturating(); 4];
        profiles[0].mc_requests = Some(0);
        let c = compose_flow(&cfg, &profiles);
        let mc = c.term(ResourceKind::MemoryController).expect("mc term");
        assert_eq!(mc.flow, Some(0), "{}", mc.reason);
    }

    #[test]
    fn fewer_mc_requesters_shrink_the_fifo_fallback() {
        let cfg = toy_two_level(6);
        let mut profiles = vec![gapped_saturating(); 4];
        profiles[2].mc_requests = Some(0);
        profiles[3].mc_requests = Some(0);
        let c = compose_flow(&cfg, &profiles);
        let mc = c.term(ResourceKind::MemoryController).expect("mc term");
        assert_eq!(mc.flow, Some(6), "one foreign requester * 6");
        assert_eq!(mc.sum, Some(18), "machine-wide sum is unchanged");
    }

    #[test]
    fn flow_never_exceeds_sum() {
        for service in [1, 2, 3, 6, 9] {
            let cfg = toy_two_level(service);
            let profiles = vec![CoreProfile::saturating(); 4];
            let c = compose_flow(&cfg, &profiles);
            let (Some(flow), Some(sum)) = (c.flow_total(), c.sum_total()) else {
                panic!("finite expected");
            };
            assert!(flow <= sum, "service {service}: flow {flow} > sum {sum}");
        }
    }

    #[test]
    fn tdma_queue_keeps_the_machine_bound() {
        let mut cfg = toy_two_level(2);
        if let Some(mc) = &mut cfg.topology.mc {
            mc.arbiter = ArbiterKind::Tdma { slot_cycles: 4 };
        }
        let profiles = vec![gapped_saturating(); 4];
        let c = compose_flow(&cfg, &profiles);
        let mc = c.term(ResourceKind::MemoryController).expect("mc term");
        assert_eq!(mc.flow, mc.sum, "non-work-conserving: no serialisation credit");
    }
}
