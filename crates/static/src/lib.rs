//! # rrb-static — static contention analyzer
//!
//! Analytic worst-case per-request delay bounds for every arbiter and every
//! topology cell, derived from programs and machine configs alone — no
//! simulation. This is the independent soundness oracle the measurement
//! methodology (rsk-nop saw-tooth recovery, Eq. 2) is cross-checked against:
//! a measured UBD above the static bound, or a static bound below the
//! simulated truth, is a bug in one of the two models.
//!
//! The analysis has three layers:
//!
//! * [`profile`] — an abstract interpreter over [`Program`] bodies that
//!   bounds each core's shared-resource demand: total bus/memory-controller
//!   request counts, the minimum core-side gap between consecutive
//!   requests, and an isolated (contention-free) makespan bound.
//! * [`bounds`] — per-arbiter worst-case per-request delay models composed
//!   across the [`Topology`](rrb_sim::Topology) (bus term + MC term) into a
//!   [`StaticBound`] per machine configuration:
//!
//!   | arbiter | per-request bound (occupancy `L`, `Nc` cores) |
//!   |---------|-----------------------------------------------|
//!   | `rr` | `(Nc-1)·L` — Eq. 1 of the paper |
//!   | `fifo` | `(Nc-1)·L` — at most one outstanding request per core |
//!   | `grr:g` | `(g·⌈Nc/g⌉ - 1)·L` — two-level rotation |
//!   | `tdma:s` | `(Nc-1)·s + L - 1`, unbounded if `s < L` |
//!   | `fp` | per-core response-time analysis over higher-priority request curves, with a whole-run window fallback |
//!
//!   Each [`ResourceBound`] also carries the *observed* core's own bound,
//!   which folds in request-cycle tightenings (`(Nc-1)·L - 1` for
//!   `rr`/`fifo` with a proven request gap, `L - 1` for top-priority `fp`)
//!   that a machine-wide bound cannot use.
//! * [`cache`] — must/may abstract interpretation of each program's access
//!   stream against the L1/L2 configuration, classifying every access
//!   AlwaysHit / AlwaysMiss / Unknown so [`classified_profile`] carries
//!   *proven* (not assumed-worst) bus/MC demand and a tighter request gap.
//! * [`flow`] — interference-flow composition: per-core arrival curves
//!   propagated through the topology (the bus grant rate caps the MC-queue
//!   arrival rate), emitting a [`ComposedBound`] with per-resource slack
//!   attribution next to the saturating sum.
//! * [`verify`] — an exhaustive model checker that drives the *real*
//!   arbiter implementations over the abstract single-resource model,
//!   enumerating request-arrival alignments (with per-arbiter symmetry
//!   pruning) to compute the **exact** worst-case delay of the observed
//!   core, plus a replayable adversarial [`Witness`].
//!
//! Every formula is an upper bound on the simulator's observable
//! `γ = granted - ready` for the corresponding resource; the repo-level
//! property tests `prop_static_soundness` and `prop_verify_exact` pin
//! `observed max γ ≤ exact ≤ static` over randomized arbiters, topologies,
//! and workloads.
//!
//! ## Example
//!
//! ```
//! use rrb_sim::MachineConfig;
//! use rrb_static::StaticBound;
//!
//! let cfg = MachineConfig::toy(4, 2);
//! // Worst-case envelope: every core saturates the bus forever.
//! let bound = StaticBound::saturating(&cfg);
//! assert_eq!(bound.total(), Some(6)); // (4-1) * 2, Eq. 1
//! ```
//!
//! [`Program`]: rrb_sim::Program
//! [`StaticBound`]: bounds::StaticBound

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod cache;
pub mod flow;
pub mod profile;
pub mod verify;

pub use bounds::{Bound, ResourceBound, StaticBound};
pub use cache::{
    classified_profile, classify_accesses, AccessClasses, Classification, LevelClasses,
};
pub use flow::{compose_flow, ComposedBound, FlowTerm};
pub use profile::{profile_program, steady_state_silent, CoreProfile};
pub use verify::{exact_bounds, ExactBound, VerifyOptions, Witness};
