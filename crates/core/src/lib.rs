//! # rrb — measurement-based contention bounds for round-robin buses
//!
//! A full reproduction of *"Increasing Confidence on Measurement-Based
//! Contention Bounds for Real-Time Round-Robin Buses"* (Fernandez, Jalle,
//! Abella, Quiñones, Vardanega, Cazorla — DAC 2015).
//!
//! On a COTS multicore whose cores share a round-robin (RR) bus, the
//! worst-case delay one bus request can suffer is `ubd = (Nc-1)·l_bus`
//! (Eq. 1) — but `l_bus` is rarely documented, so `ubd` must be
//! *measured*. This crate implements:
//!
//! * the **naive estimators** used in prior practice ([`naive`]): run the
//!   software under analysis against resource-stressing kernels and read
//!   `ubd_m = det/nr` off the slowdown, or the largest observed
//!   per-request delay off the performance counters — both of which
//!   under-estimate `ubd` because of the *synchrony effect* (§3);
//! * the paper's **rsk-nop methodology** ([`methodology`]): calibrate the
//!   nop latency, sweep the injection time by inserting `k` nops between
//!   bus accesses, and recover `ubd` as the period of the saw-tooth that
//!   the slowdown traces out (Eq. 3) — requiring *no* knowledge of bus
//!   timing;
//! * the **experiment layer**: every experiment is a [`Scenario`] (a
//!   pure plan of machine runs plus an analysis) executed by the
//!   [`Campaign`] batch runner ([`campaign`]), which expands parameter
//!   grids, deduplicates shared runs, executes across a worker pool,
//!   and serialises structured records as JSON/CSV ([`json`]) —
//!   with output bit-identical between serial and parallel execution;
//! * one **run path** ([`executor`]): a scenario's or campaign's plan
//!   goes to an [`Executor`] (a [`WorkerPool`], optional store), whose
//!   workers each reuse one warm [`MachineArena`] — a single run is
//!   `Executor::new().run(&RunSpec::isolated(..))` — plus plain-text
//!   reporting ([`report`]) used by the figure regenerators;
//! * **experiments as data** ([`spec`]): an [`ExperimentSpec`] is a
//!   fully declarative, JSON-serialisable description of a campaign —
//!   machine, grid axes, per-core kernels — that round-trips losslessly
//!   through [`json`] and runs via `rrb run <spec.json>`;
//! * the **persistent result store** ([`store`]): a content-addressed
//!   on-disk cache keyed by [`RunSpec::spec_hash`] and invalidated by a
//!   simulator fingerprint, so re-running a campaign — after a crash,
//!   in the next CI job, with one more grid axis — only simulates what
//!   changed, with byte-identical output;
//! * the **static contention analyzer** ([`analyze`], backed by the
//!   `rrb-static` crate): analytic worst-case per-request delay bounds
//!   for *every* arbiter — including the `fp`/`fifo` policies the
//!   measurement methodology refuses — composed across the topology and
//!   cross-checked against both the analytic truth and measured delays
//!   (`rrb analyze`), plus a spec lint pass ([`lint`], `rrb lint`) that
//!   catches semantically dead experiments before any cycle is
//!   simulated.
//!
//! ## Quick start: one derivation
//!
//! ```
//! use rrb::methodology::{derive_ubd, MethodologyConfig};
//! use rrb_sim::MachineConfig;
//!
//! # fn main() -> Result<(), rrb::methodology::MethodologyError> {
//! // A bus whose timing we pretend not to know:
//! let machine = MachineConfig::toy(4, 2); // secretly ubd = 6
//! let derivation = derive_ubd(&machine, &MethodologyConfig::fast())?;
//! assert_eq!(derivation.ubd_m, 6);
//! # Ok(())
//! # }
//! ```
//!
//! ## Quick start: a parallel campaign
//!
//! The methodology is inherently a sweep, so production measurement is a
//! *campaign*: a grid of scenarios expanded into one deduplicated run
//! plan and executed in parallel, each run on its own machine.
//!
//! ```
//! use rrb::campaign::{Campaign, CampaignGrid, GridScenario};
//! use rrb_sim::{ArbiterKind, MachineConfig};
//!
//! let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
//!     .arbiters(vec![ArbiterKind::RoundRobin, ArbiterKind::Fifo]);
//! let result = Campaign::builder().grid(&grid).jobs(4).build().run();
//!
//! // Round-robin recovers the hidden ubd = 6. FIFO has no saw-tooth
//! // period to recover, so the *measurement* is refused — a per-scenario
//! // record, not a poisoned campaign — while the static analyzer
//! // ([`analyze`]) still produces FIFO's analytic bound for the cell.
//! assert_eq!(result.reports[0].metric_u64("ubd_m"), Some(6));
//! assert!(!result.reports[1].is_ok());
//! let fifo_cell = &grid.cells()[1];
//! assert_eq!(rrb::analyze::analyze_grid_cell(fifo_cell).static_total(), Some(6));
//! let json = result.to_json(); // bit-identical for any --jobs value
//! assert!(json.contains("\"ubd_m\": 6"));
//! ```
//!
//! The companion crates are re-exported under [`sim`], [`kernels`] and
//! [`analysis`] so downstream users need a single dependency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod campaign;
pub mod executor;
pub mod json;
pub mod lint;
pub mod mbta;
pub mod methodology;
pub mod naive;
pub mod report;
pub mod scenario;
pub mod spec;
pub mod store;
pub mod validation;
pub mod verify;

/// Re-export of the simulator substrate.
pub use rrb_analysis as analysis;
/// Re-export of the kernel generators.
pub use rrb_kernels as kernels;
/// Re-export of the analytic layer.
pub use rrb_sim as sim;
/// Re-export of the static contention analyzer.
pub use rrb_static as statics;

pub use analyze::{
    analyze_grid_cell, analyze_spec, analyze_workload, check_measured, CellStaticBound,
    CellTightness, MeasuredCheck,
};
pub use campaign::{
    clamped_jobs, Campaign, CampaignBuilder, CampaignGrid, CampaignPlan, CampaignResult,
    CampaignStats, GridCell, GridScenario, ParseGridScenarioError, PlannedScenario, RunError,
    RunMeasurement, RunRecord, RunSource, RunSpec, StoreUsage,
};
pub use executor::{Executor, MachineArena, StoredOutcome, WorkerPool};
pub use json::{fnv1a_64, Fnv64Hasher, Json, JsonParseError};
pub use lint::{has_errors, lint_spec, LintFinding, LintSeverity};
pub use mbta::{BoundValidation, MbtaAnalysis, TaskBound, TaskSpec};
pub use methodology::{
    derive_ubd, derive_ubd_repeated, store_tooth_check, MethodologyConfig, MethodologyError,
    RepeatedDerivation, ResourceContribution, StoreToothCheck, UbdDerivation, UbdScenario,
};
pub use naive::{naive_rsk_vs_rsk, naive_scua_vs_rsk, NaiveEstimate, NaiveScenario};
pub use scenario::{
    Metric, MetricValue, RunOutcome, Scenario, ScenarioError, ScenarioReport, SweepScenario,
};
pub use spec::{ExperimentSpec, GridSpec, SpecError, WorkloadCase, WorkloadScenario, SPEC_VERSION};
pub use store::{
    sim_fingerprint, write_file_atomic, GcReport, ResultStore, StoreError, StoreLookup, StoreStats,
    VerifyReport, STORE_FORMAT_VERSION,
};
pub use validation::{
    validate_gamma_model, GammaComparison, GammaValidationScenario, ValidationReport,
};
pub use verify::{
    render_verified, replay_cell_witnesses, replay_witness, verify_grid, verify_grid_cell,
    verify_spec, verify_workload, VerifiedCell, WitnessReplay,
};
