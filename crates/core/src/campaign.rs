//! The [`Campaign`] batch runner: grid expansion, run deduplication, and
//! parallel execution of [`Scenario`] plans.
//!
//! The paper's methodology is inherently a sweep — the same
//! scua/contender workload at many nop paddings, arbiters, core counts
//! and access kinds — and runs are independent, so a measurement
//! campaign is embarrassingly parallel. This module turns a set of
//! scenarios into one deduplicated run plan, executes it through the
//! [`Executor`] (each worker thread reusing one warm machine), and
//! hands each scenario its outcomes *in plan order*, which makes
//! campaign output **bit-identical between serial and parallel
//! execution**:
//!
//! ```
//! use rrb::campaign::{Campaign, CampaignGrid, GridScenario};
//! use rrb_sim::MachineConfig;
//!
//! let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
//!     .iterations(vec![60, 80]);
//! let serial = Campaign::builder().grid(&grid).jobs(1).build().run();
//! let parallel = Campaign::builder().grid(&grid).jobs(4).build().run();
//! assert_eq!(serial.to_json(), parallel.to_json());
//! assert_eq!(serial.reports[0].metric_u64("ubd_m"), Some(6));
//! ```

use crate::executor::{Executor, StoredOutcome};
use crate::json::{csv_field, Fnv64Hasher, Json};
use crate::methodology::{MethodologyConfig, UbdScenario};
use crate::naive::NaiveScenario;
use crate::scenario::{RunOutcome, Scenario, ScenarioError, ScenarioReport, SweepScenario};
use crate::spec::GridSpec;
use crate::store::ResultStore;
use crate::validation::GammaValidationScenario;
use rrb_analysis::Histogram;
use rrb_kernels::{rsk_nop, AccessKind, KernelSpec};
use rrb_sim::{ArbiterKind, CoreId, MachineConfig, Program, SimError};
use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

// ---------------------------------------------------------------------
// Run specification and measurement
// ---------------------------------------------------------------------

/// One unit of machine work: a full workload executed on a fresh
/// machine. The scua runs on core 0 and is observed; `contenders[i]`
/// runs on core `i + 1`; cores beyond the contender list idle.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Plan label, unique within a scenario (e.g. `"k=3/contended"`).
    pub label: String,
    /// Machine configuration for this run.
    pub cfg: MachineConfig,
    /// The observed program, on core 0.
    pub scua: Program,
    /// Programs for cores `1..=contenders.len()`.
    pub contenders: Vec<Program>,
}

impl RunSpec {
    /// A run of `scua` alone on core 0.
    pub fn isolated(label: impl Into<String>, cfg: MachineConfig, scua: Program) -> Self {
        RunSpec { label: label.into(), cfg, scua, contenders: Vec::new() }
    }

    /// A run of `scua` against explicit contender programs.
    pub fn contended(
        label: impl Into<String>,
        cfg: MachineConfig,
        scua: Program,
        contenders: Vec<Program>,
    ) -> Self {
        RunSpec { label: label.into(), cfg, scua, contenders }
    }

    /// A run of `scua` against `Nc - 1` saturating rsk contenders of the
    /// given access kind — the measurement setup of §3–§5.
    pub fn contended_rsk(
        label: impl Into<String>,
        cfg: MachineConfig,
        scua: Program,
        access: AccessKind,
    ) -> Self {
        let spec = KernelSpec::Rsk { access };
        let contenders = (1..cfg.num_cores).map(|i| spec.build(&cfg, CoreId::new(i))).collect();
        RunSpec { label: label.into(), cfg, scua, contenders }
    }

    /// A run built entirely from declarative [`KernelSpec`]s: the scua
    /// spec materialises on core 0, `contenders[i]` on core `i + 1`.
    /// This is how experiment files enter the runner — the spec is data,
    /// the programs are derived here.
    pub fn from_kernels(
        label: impl Into<String>,
        cfg: MachineConfig,
        scua: &KernelSpec,
        contenders: &[KernelSpec],
    ) -> Self {
        let scua_program = scua.build(&cfg, CoreId::new(0));
        let contender_programs =
            contenders.iter().enumerate().map(|(i, k)| k.build(&cfg, CoreId::new(i + 1))).collect();
        RunSpec { label: label.into(), cfg, scua: scua_program, contenders: contender_programs }
    }

    /// A run that replays a model-checker [`Witness`] on the full
    /// simulator: core 0 runs a finite kernel that posts at the witness
    /// resource with `nops` padding per iteration, and every contender
    /// core the witness marks as requesting runs an endless kernel that
    /// saturates the same resource (non-requesting cores in between get a
    /// tiny finite nop program so the slot indices line up). The nop
    /// padding plays the §4 saw-tooth role: sweeping it over one rotation
    /// period drives the observed stream through every arrival alignment
    /// class the witness's abstract gap denotes, so the worst measured γ
    /// over the sweep is the replayed delay.
    ///
    /// [`Witness`]: rrb_static::Witness
    pub fn from_witness(
        label: impl Into<String>,
        cfg: MachineConfig,
        witness: &rrb_static::Witness,
        nops: u64,
        iterations: u64,
    ) -> Self {
        use rrb_kernels::{nop_kernel, rsk, rsk_l2_miss, rsk_l2_miss_nop};
        use rrb_sim::ResourceKind;
        let requesting = witness.requesting_contenders();
        let last = requesting.iter().copied().max().unwrap_or(0);
        let mut contenders = Vec::new();
        for core in 1..=last.min(cfg.num_cores.saturating_sub(1)) {
            let program = if requesting.contains(&core) {
                match witness.resource {
                    ResourceKind::Bus => rsk(AccessKind::Load, &cfg, CoreId::new(core)),
                    ResourceKind::MemoryController => rsk_l2_miss(&cfg, CoreId::new(core)),
                }
            } else {
                nop_kernel(&cfg, 1)
            };
            contenders.push(program);
        }
        let scua = match witness.resource {
            ResourceKind::Bus => {
                rsk_nop(AccessKind::Load, nops as usize, &cfg, CoreId::new(0), iterations)
            }
            ResourceKind::MemoryController => {
                rsk_l2_miss_nop(&cfg, CoreId::new(0), nops, iterations)
            }
        };
        RunSpec { label: label.into(), cfg, scua, contenders }
    }

    /// The deduplication key: a 64-bit FNV-1a digest of everything that
    /// determines the (fully deterministic) measurement — configuration
    /// and workload, but **not** the label. Two runs with equal hashes
    /// *and* equal measurement fields are executed once and share the
    /// result (the dedup tables confirm equality on every hash hit, so a
    /// collision costs one extra comparison, never a wrong measurement);
    /// the digest has no random state, so it is stable across processes
    /// on one platform.
    pub fn spec_hash(&self) -> u64 {
        let mut h = Fnv64Hasher::new();
        self.cfg.hash(&mut h);
        self.scua.hash(&mut h);
        self.contenders.hash(&mut h);
        h.finish()
    }

    /// Whether two specs describe the same measurement (labels ignored) —
    /// the equality that [`RunSpec::spec_hash`] approximates.
    fn same_measurement(&self, other: &RunSpec) -> bool {
        self.cfg == other.cfg && self.scua == other.scua && self.contenders == other.contenders
    }
}

/// The deduplication table behind [`Campaign::plan`]: specs keyed by
/// [`RunSpec::spec_hash`], with a structural [`RunSpec::same_measurement`]
/// check on every hash hit so an FNV collision can only cost an extra
/// comparison, never alias two different runs onto one measurement.
#[derive(Default)]
struct DedupTable {
    // lint_sources: allow (lookup-only: never iterated, so hash order never reaches output)
    by_hash: std::collections::HashMap<u64, Vec<usize>>,
}

impl DedupTable {
    /// Returns the index of `spec` in `unique`, appending it if no
    /// equal-measurement spec is present yet.
    fn intern(&mut self, spec: &RunSpec, unique: &mut Vec<RunSpec>) -> usize {
        let candidates = self.by_hash.entry(spec.spec_hash()).or_default();
        if let Some(&idx) = candidates.iter().find(|&&idx| unique[idx].same_measurement(spec)) {
            return idx;
        }
        let idx = unique.len();
        unique.push(spec.clone());
        candidates.push(idx);
        idx
    }
}

/// Everything measured about the scua in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeasurement {
    /// Scua execution time in cycles.
    pub execution_time: u64,
    /// Scua bus requests.
    pub bus_requests: u64,
    /// Scua instructions retired.
    pub instructions: u64,
    /// Histogram of per-request **bus** contention delays (γ) of the scua.
    pub gamma_histogram: Histogram,
    /// Histogram of per-request contention delays of the scua at the
    /// memory-controller queue (empty on single-bus topologies).
    pub mc_gamma_histogram: Histogram,
    /// Histogram of ready-time contender counts of the scua (Fig. 6(a)).
    pub contender_histogram: Histogram,
    /// Overall bus utilisation during the run.
    pub bus_utilization: f64,
    /// Memory-controller-queue utilisation, when the topology chains one.
    pub mc_utilization: Option<f64>,
}

impl RunMeasurement {
    /// Largest observed per-request bus contention delay.
    pub fn max_gamma(&self) -> Option<u64> {
        self.gamma_histogram.max()
    }

    /// Largest observed contention delay at the memory-controller queue.
    pub fn max_gamma_mc(&self) -> Option<u64> {
        self.mc_gamma_histogram.max()
    }

    /// Most frequent per-request contention delay.
    pub fn mode_gamma(&self) -> Option<u64> {
        self.gamma_histogram.mode()
    }

    /// Fraction of requests at the dominant γ (synchrony strength).
    pub fn mode_fraction(&self) -> f64 {
        match self.mode_gamma() {
            Some(mode) => self.gamma_histogram.fraction(mode),
            None => 0.0,
        }
    }
}

/// Why a single run failed. Runs fail *individually*: the campaign
/// records the error and keeps executing the rest of the plan.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The simulator rejected the configuration or run.
    Sim(SimError),
    /// The scua program never terminates, so it has no execution time.
    NonTerminatingScua,
    /// An estimator needed bus requests but the scua made none.
    NoBusRequests,
    /// Scenario-level analysis failed for a reason other than a run.
    Analysis(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::NonTerminatingScua => {
                write!(f, "scua program is endless and has no execution time")
            }
            RunError::NoBusRequests => write!(f, "scua made no bus requests"),
            RunError::Analysis(msg) => write!(f, "scenario analysis failed: {msg}"),
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// Where one run's measurement came from, when executing against an
/// optional persistent [`ResultStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunSource {
    /// Executed on a fresh machine. `recorded` says whether the result
    /// was written to the store (false with no store, on failed runs,
    /// and for non-finite measurements the JSON round trip cannot keep
    /// bit-exact).
    Simulated {
        /// Whether the measurement was persisted.
        recorded: bool,
    },
    /// Answered by the persistent store — no machine was built.
    Store,
}

/// Persistent-store activity during one plan execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreUsage {
    /// Runs answered from the store without simulating.
    pub hits: usize,
    /// Entries written after simulating.
    pub writes: usize,
    /// Non-fatal store problems, in plan order. Every warning caused a
    /// re-execution or a skipped write — never a wrong or missing
    /// result — so campaign output is identical with or without them.
    pub warnings: Vec<String>,
}

impl StoreUsage {
    /// Counts one run's store activity — a hit, a write, its warnings —
    /// and hands back the run's result. Every scheduler folds its
    /// [`StoredOutcome`]s through here, in whatever order it wants the
    /// warnings listed.
    pub fn tally(
        &mut self,
        (result, source, warnings): StoredOutcome,
    ) -> Result<RunMeasurement, RunError> {
        match source {
            RunSource::Store => self.hits += 1,
            RunSource::Simulated { recorded: true } => self.writes += 1,
            RunSource::Simulated { recorded: false } => {}
        }
        self.warnings.extend(warnings);
        result
    }
}

// ---------------------------------------------------------------------
// Records and results
// ---------------------------------------------------------------------

/// A flat, serialisable record of one executed (or failed) run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Owning scenario name.
    pub scenario: String,
    /// Run label within the scenario (`"<plan>"` for plan failures).
    pub label: String,
    /// The error message for failed runs.
    pub error: Option<String>,
    /// Scua execution time in cycles.
    pub execution_time: Option<u64>,
    /// Scua bus requests.
    pub bus_requests: Option<u64>,
    /// Scua instructions retired.
    pub instructions: Option<u64>,
    /// Overall bus utilisation.
    pub bus_utilization: Option<f64>,
    /// Largest observed bus γ.
    pub max_gamma: Option<u64>,
    /// Dominant bus γ.
    pub mode_gamma: Option<u64>,
    /// Largest observed γ at the memory-controller queue (None when the
    /// topology has no queue or the scua never missed L2).
    pub max_gamma_mc: Option<u64>,
}

impl RunRecord {
    /// A success record for one measured run.
    pub(crate) fn ok(scenario: &str, label: &str, m: &RunMeasurement) -> Self {
        RunRecord {
            scenario: scenario.to_string(),
            label: label.to_string(),
            error: None,
            execution_time: Some(m.execution_time),
            bus_requests: Some(m.bus_requests),
            instructions: Some(m.instructions),
            bus_utilization: Some(m.bus_utilization),
            max_gamma: m.max_gamma(),
            mode_gamma: m.mode_gamma(),
            max_gamma_mc: m.max_gamma_mc(),
        }
    }

    /// An error record for a run (or plan) that failed.
    fn failed(scenario: &str, label: &str, error: impl fmt::Display) -> Self {
        RunRecord {
            scenario: scenario.to_string(),
            label: label.to_string(),
            error: Some(error.to_string()),
            execution_time: None,
            bus_requests: None,
            instructions: None,
            bus_utilization: None,
            max_gamma: None,
            mode_gamma: None,
            max_gamma_mc: None,
        }
    }

    /// Whether the run succeeded.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scenario", Json::str(self.scenario.clone())),
            ("label", Json::str(self.label.clone())),
            ("error", Json::option(self.error.clone(), Json::Str)),
            ("execution_time", Json::option(self.execution_time, Json::U64)),
            ("bus_requests", Json::option(self.bus_requests, Json::U64)),
            ("instructions", Json::option(self.instructions, Json::U64)),
            ("bus_utilization", Json::option(self.bus_utilization, Json::F64)),
            ("max_gamma", Json::option(self.max_gamma, Json::U64)),
            ("mode_gamma", Json::option(self.mode_gamma, Json::U64)),
            ("max_gamma_mc", Json::option(self.max_gamma_mc, Json::U64)),
        ])
    }
}

/// Execution statistics of a campaign. Not part of the serialised
/// output: the JSON/CSV payloads must be identical across `jobs` and
/// caching settings, while these numbers legitimately differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignStats {
    /// Scenarios in the campaign.
    pub scenarios: usize,
    /// Runs across all scenario plans, before deduplication.
    pub planned_runs: usize,
    /// Runs actually **simulated** on a fresh machine — what the
    /// campaign cost. A fully warm persistent store drives this to 0.
    pub executed_runs: usize,
    /// Runs answered from the in-memory deduplication cache (shared
    /// baselines within this campaign).
    pub cache_hits: usize,
    /// Distinct runs answered from the persistent result store without
    /// simulating (0 when the campaign has no store).
    pub store_hits: usize,
    /// Distinct run results written to the persistent store.
    pub store_writes: usize,
    /// Runs that ended in an error record.
    pub failed_runs: usize,
    /// Worker threads used.
    pub jobs: usize,
}

/// The collected output of a campaign: per-run records in deterministic
/// plan order plus one analysed report per scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Per-run records, ordered by (scenario, plan position).
    pub records: Vec<RunRecord>,
    /// Per-scenario analysis reports, in scenario order.
    pub reports: Vec<ScenarioReport>,
    /// Execution statistics (excluded from serialised output).
    pub stats: CampaignStats,
    /// Persistent-store warnings, in plan order (excluded from
    /// serialised output: every warning only caused a re-execution or a
    /// skipped cache write, never a different result).
    pub warnings: Vec<String>,
}

impl CampaignResult {
    /// The serialisable payload as pretty-printed JSON. Byte-identical
    /// across serial/parallel execution and cache settings.
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            ("runs", Json::Arr(self.records.iter().map(RunRecord::to_json).collect())),
            ("scenarios", Json::Arr(self.reports.iter().map(ScenarioReport::to_json).collect())),
        ])
        .render_pretty()
    }

    /// The per-run records as CSV (RFC 4180), one row per record.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,label,status,error,execution_time,bus_requests,instructions,bus_utilization,max_gamma,mode_gamma,max_gamma_mc\n",
        );
        for r in &self.records {
            let opt_u64 = |v: Option<u64>| v.map(|x| x.to_string()).unwrap_or_default();
            let row = [
                csv_field(&r.scenario),
                csv_field(&r.label),
                String::from(if r.is_ok() { "ok" } else { "error" }),
                csv_field(r.error.as_deref().unwrap_or("")),
                opt_u64(r.execution_time),
                opt_u64(r.bus_requests),
                opt_u64(r.instructions),
                r.bus_utilization.map(|u| format!("{u}")).unwrap_or_default(),
                opt_u64(r.max_gamma),
                opt_u64(r.mode_gamma),
                opt_u64(r.max_gamma_mc),
            ];
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// A human-readable summary: one line per scenario plus the stats.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for report in &self.reports {
            let _ = writeln!(out, "{:<40} {}", report.scenario, report.summary);
            for metric in &report.metrics {
                let _ = writeln!(out, "    {:<24} {}", metric.name, metric.value);
            }
        }
        // Only plan-determined numbers appear here: the text format is
        // byte-identical across --jobs and across cold/warm caches, so
        // execution statistics (simulated runs, cache hits, workers) go
        // to [`CampaignStats`] and, in the CLI, to stderr.
        let s = &self.stats;
        let _ = writeln!(
            out,
            "campaign: {} scenario(s), {} run(s) planned, {} failed",
            s.scenarios, s.planned_runs, s.failed_runs
        );
        out
    }
}

// ---------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------

/// Builder for a [`Campaign`].
pub struct CampaignBuilder {
    scenarios: Vec<Box<dyn Scenario + Send + Sync>>,
    jobs: usize,
    store: Option<Arc<ResultStore>>,
}

impl Default for CampaignBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CampaignBuilder {
    /// An empty builder (serial execution, no persistent store).
    pub fn new() -> Self {
        CampaignBuilder { scenarios: Vec::new(), jobs: 1, store: None }
    }

    /// Adds one scenario.
    #[must_use]
    pub fn scenario(mut self, scenario: impl Scenario + Send + Sync + 'static) -> Self {
        self.scenarios.push(Box::new(scenario));
        self
    }

    /// Adds an already boxed scenario.
    #[must_use]
    pub fn boxed(mut self, scenario: Box<dyn Scenario + Send + Sync>) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Adds every cell of a parameter grid.
    #[must_use]
    pub fn grid(mut self, grid: &CampaignGrid) -> Self {
        self.scenarios.extend(grid.scenarios());
        self
    }

    /// Sets the worker-thread count (1 = serial; values are clamped to
    /// the plan size at execution).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches a persistent [`ResultStore`]: warm entries skip
    /// simulation entirely, fresh results are recorded for the next
    /// campaign. Output is byte-identical with or without a store.
    #[must_use]
    pub fn store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Finalises the campaign.
    pub fn build(self) -> Campaign {
        Campaign { scenarios: self.scenarios, jobs: self.jobs, store: self.store }
    }
}

/// A batch of scenarios executed as one deduplicated, parallel run plan.
pub struct Campaign {
    scenarios: Vec<Box<dyn Scenario + Send + Sync>>,
    jobs: usize,
    store: Option<Arc<ResultStore>>,
}

impl Campaign {
    /// Starts a builder.
    pub fn builder() -> CampaignBuilder {
        CampaignBuilder::new()
    }

    /// Number of scenarios in the campaign.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether the campaign has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Plans, deduplicates, executes, and analyses every scenario.
    ///
    /// Failures are contained at the finest grain available: a scenario
    /// that cannot be planned yields a single error record; a run that
    /// fails yields an error outcome for its scenario's analysis. The
    /// campaign itself always completes.
    pub fn run(&self) -> CampaignResult {
        let plan = self.plan();
        let mut executor = Executor::new().jobs(self.jobs);
        if let Some(store) = &self.store {
            executor = executor.store(Arc::clone(store));
        }
        let (results, usage) = executor.execute(plan.unique_specs());
        plan.finish(&results, usage, self.jobs)
    }

    /// Phases 1–2 of [`Campaign::run`] as a standalone step: plans every
    /// scenario (pure, serial) and builds the deduplicated execution
    /// plan. Runs are keyed by their stable FNV spec hash (label
    /// excluded) with a structural confirm, so identical (configuration,
    /// workload) pairs — shared isolated baselines in particular —
    /// appear once in [`CampaignPlan::unique_specs`].
    ///
    /// An external scheduler (the `rrb-serve` daemon's long-lived
    /// [`WorkerPool`](crate::executor::WorkerPool), a remote queue) can execute the unique specs in any order and at any pace;
    /// [`CampaignPlan::walk`] then reassembles the whole-campaign output
    /// in plan order — the one reassembly path, which
    /// [`CampaignPlan::finish`] runs too.
    pub fn plan(&self) -> CampaignPlan<'_> {
        let mut unique: Vec<RunSpec> = Vec::new();
        let mut seen = DedupTable::default();
        let mut scenarios = Vec::with_capacity(self.scenarios.len());
        let mut planned_runs = 0usize;
        for scenario in &self.scenarios {
            let runs = scenario.plan();
            let mut indices = Vec::new();
            if let Ok(specs) = &runs {
                planned_runs += specs.len();
                indices.extend(specs.iter().map(|spec| seen.intern(spec, &mut unique)));
            }
            scenarios.push(PlannedScenario { name: scenario.name(), runs, indices });
        }
        CampaignPlan { campaign: self, scenarios, unique, planned_runs }
    }
}

// ---------------------------------------------------------------------
// Incremental plans
// ---------------------------------------------------------------------

/// One scenario's slice of a [`CampaignPlan`]: its name, its planned
/// runs (or the planning error), and — for every planned run — the
/// index of its deduplicated entry in [`CampaignPlan::unique_specs`].
pub struct PlannedScenario {
    /// Scenario name, stable across planning and analysis.
    pub name: String,
    /// The planned runs in scenario plan order, or why planning failed.
    pub runs: Result<Vec<RunSpec>, ScenarioError>,
    /// For each planned run, its index into the campaign-wide unique
    /// list (empty when planning failed).
    pub indices: Vec<usize>,
}

/// The deduplicated execution plan of a [`Campaign`]: phases 1–2 of
/// [`Campaign::run`] split from phases 3–4 so a scheduler can drive the
/// unique runs *incrementally* — out of order, across its own worker
/// pool — instead of only whole-campaign. [`CampaignPlan::walk`] is the
/// one plan-order reassembly path: [`Campaign::run`] reaches it through
/// [`CampaignPlan::finish`] and the `rrb-serve` daemon calls it while
/// streaming, so both emit the same records and reports by
/// construction.
pub struct CampaignPlan<'a> {
    campaign: &'a Campaign,
    scenarios: Vec<PlannedScenario>,
    unique: Vec<RunSpec>,
    planned_runs: usize,
}

/// One item of a [`CampaignPlan::walk`], in plan order: every run record
/// of a scenario, then that scenario's report.
#[derive(Debug)]
pub enum PlanItem<'p> {
    /// One run's record and the spec it measured (`None` for the
    /// `<plan>` record of a scenario whose plan failed).
    Run(RunRecord, Option<&'p RunSpec>),
    /// One scenario's analysed report, after all of its run records.
    Scenario(ScenarioReport),
}

impl CampaignPlan<'_> {
    /// The deduplicated runs to execute, in first-appearance order. The
    /// indices [`CampaignPlan::walk`] asks for, and the result slice
    /// handed to [`CampaignPlan::finish`], refer to this slice.
    pub fn unique_specs(&self) -> &[RunSpec] {
        &self.unique
    }

    /// Per-scenario plan slices, in campaign order.
    pub fn scenarios(&self) -> &[PlannedScenario] {
        &self.scenarios
    }

    /// Total runs across all scenario plans, before deduplication.
    pub fn planned_runs(&self) -> usize {
        self.planned_runs
    }

    /// Walks the plan in scenario order and hands `sink` every run record
    /// (with its spec) and then every scenario report, returning the
    /// number of failed runs.
    ///
    /// `result` is asked for each planned run's unique index, in plan
    /// order (shared runs are asked for once per use). It may block until
    /// that run lands, which is how a streaming scheduler paces the
    /// walk; `None` means the run will never be delivered and becomes an
    /// error record. A scenario whose plan failed yields one `<plan>`
    /// error record. The first `sink` error stops the walk and is
    /// returned.
    ///
    /// # Errors
    ///
    /// Returns the first error `sink` returns.
    pub fn walk<'p, E>(
        &'p self,
        mut result: impl FnMut(usize) -> Option<Result<RunMeasurement, RunError>>,
        mut sink: impl FnMut(PlanItem<'p>) -> Result<(), E>,
    ) -> Result<usize, E> {
        let mut failed_runs = 0usize;
        for (scenario, planned) in self.campaign.scenarios.iter().zip(&self.scenarios) {
            let specs = match &planned.runs {
                Ok(specs) => specs,
                Err(e) => {
                    failed_runs += 1;
                    sink(PlanItem::Run(RunRecord::failed(&planned.name, "<plan>", e), None))?;
                    sink(PlanItem::Scenario(ScenarioReport::failure(planned.name.clone(), e)))?;
                    continue;
                }
            };
            let mut outcomes = Vec::with_capacity(specs.len());
            for (spec, &idx) in specs.iter().zip(&planned.indices) {
                let result = result(idx).unwrap_or_else(|| Err(undelivered()));
                let record = match &result {
                    Ok(m) => RunRecord::ok(&planned.name, &spec.label, m),
                    Err(e) => {
                        failed_runs += 1;
                        RunRecord::failed(&planned.name, &spec.label, e)
                    }
                };
                sink(PlanItem::Run(record, Some(spec)))?;
                outcomes.push(RunOutcome { label: spec.label.clone(), result });
            }
            sink(PlanItem::Scenario(scenario.analyze(&outcomes)))?;
        }
        Ok(failed_runs)
    }

    /// Phase 4 of [`Campaign::run`]: [`CampaignPlan::walk`] over
    /// per-unique-run `results`, collecting the records, reports, and
    /// statistics a whole-campaign [`Campaign::run`] produces. `results`
    /// must be indexed like [`CampaignPlan::unique_specs`]; `usage` and
    /// `jobs` only feed the (non-serialised) statistics.
    pub fn finish(
        &self,
        results: &[Result<RunMeasurement, RunError>],
        usage: StoreUsage,
        jobs: usize,
    ) -> CampaignResult {
        let mut records = Vec::with_capacity(self.planned_runs);
        let mut reports = Vec::with_capacity(self.scenarios.len());
        let walked = self.walk(
            |idx| results.get(idx).cloned(),
            |item| {
                match item {
                    PlanItem::Run(record, _) => records.push(record),
                    PlanItem::Scenario(report) => reports.push(report),
                }
                Ok::<(), Infallible>(())
            },
        );
        let failed_runs = walked.unwrap_or_else(|never| match never {});
        CampaignResult {
            records,
            reports,
            stats: CampaignStats {
                scenarios: self.scenarios.len(),
                planned_runs: self.planned_runs,
                executed_runs: self.unique.len().saturating_sub(usage.hits),
                cache_hits: self.planned_runs - self.unique.len(),
                store_hits: usage.hits,
                store_writes: usage.writes,
                failed_runs,
                jobs,
            },
            warnings: usage.warnings,
        }
    }
}

/// The error of a run its scheduler never reported back (no path
/// reaches it in normal operation).
pub(crate) fn undelivered() -> RunError {
    RunError::Analysis(String::from("scheduler delivered no result for this run"))
}

/// Clamps a requested worker count to the machine's available
/// parallelism, returning the effective count and — when the request
/// was lowered — a human-readable warning for stderr. On a 1-CPU
/// container, oversubscription is pure scheduling overhead
/// (`BENCH_campaign.json` records a 0.88× parallel "speedup" for 2 jobs
/// there), so both the CLI `--jobs` flag and the `rrb serve` worker
/// pool route through this. `None` (and `Some(0)`) mean "use every
/// available CPU".
pub fn clamped_jobs(requested: Option<usize>) -> (usize, Option<String>) {
    let available = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    match requested {
        None | Some(0) => (available, None),
        Some(n) if n <= available => (n, None),
        Some(n) => (
            available,
            Some(format!(
                "{n} jobs requested but only {available} CPU(s) available; \
                 clamping to {available} (oversubscription only adds scheduling overhead)"
            )),
        ),
    }
}

// ---------------------------------------------------------------------
// Parameter grids
// ---------------------------------------------------------------------
//
// A grid's scenario kind and axes are declared once, on `GridSpec` (next
// to the rest of the spec schema in `crate::spec`); this section expands
// them against a base machine into cells and scenarios. `CampaignGrid`
// is only that pair — base machine plus `GridSpec` — with builder setters.

/// Which scenario a [`CampaignGrid`] instantiates per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridScenario {
    /// Full rsk-nop ubd derivation (§4).
    Derive,
    /// The naive rsk-vs-rsk estimate (§3).
    Naive,
    /// A raw saw-tooth slowdown sweep (Fig. 7).
    Sweep,
    /// White-box γ-model validation (Eq. 2 vs machine).
    ValidateGamma,
}

impl fmt::Display for GridScenario {
    /// The canonical token (`derive`, `naive`, `sweep`, `validate`)
    /// used in scenario names, CLI flags, and experiment files;
    /// round-tripped by [`GridScenario::from_str`].
    ///
    /// [`GridScenario::from_str`]: std::str::FromStr::from_str
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GridScenario::Derive => "derive",
            GridScenario::Naive => "naive",
            GridScenario::Sweep => "sweep",
            GridScenario::ValidateGamma => "validate",
        })
    }
}

/// A scenario token that `GridScenario::from_str` could not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseGridScenarioError {
    /// The offending token.
    pub token: String,
}

impl ParseGridScenarioError {
    /// The canonical tokens, for error messages and CLI help.
    pub const ALLOWED: &'static str = "derive, naive, sweep, validate";
}

impl fmt::Display for ParseGridScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown scenario `{}` (expected one of: {})", self.token, Self::ALLOWED)
    }
}

impl Error for ParseGridScenarioError {}

impl std::str::FromStr for GridScenario {
    type Err = ParseGridScenarioError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "derive" => Ok(GridScenario::Derive),
            "naive" => Ok(GridScenario::Naive),
            "sweep" => Ok(GridScenario::Sweep),
            "validate" => Ok(GridScenario::ValidateGamma),
            other => Err(ParseGridScenarioError { token: other.to_string() }),
        }
    }
}

/// One expanded grid cell: the concrete machine configuration and
/// workload axes a single scenario is instantiated from. The static
/// analyzer bounds these directly, without building the scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// The scenario name the campaign would report for this cell.
    pub name: String,
    /// The per-cell machine configuration (arbiter and core count applied).
    pub cfg: MachineConfig,
    /// Scua access kind.
    pub access: AccessKind,
    /// Contender access kind.
    pub contender_access: AccessKind,
    /// Scua iteration count.
    pub iterations: u64,
    /// Largest nop-injection count the sweep will try.
    pub max_k: usize,
}

impl GridSpec {
    /// A 1×1×…×1 grid over `base` (its arbiter and core count, load vs
    /// load, the [`MethodologyConfig::fast`] template); widen it with the
    /// [`CampaignGrid`] setters or by editing the axes.
    pub fn new(scenario: GridScenario, base: &MachineConfig) -> Self {
        let mut methodology = MethodologyConfig::fast();
        // The saw-tooth period is bus-only, so the sweep length scales
        // with the bus's share of the bound, not the topology total.
        methodology.max_k = ((base.bus_ubd() as usize) * 3).max(12);
        GridSpec {
            scenario,
            arbiters: vec![base.bus().arbiter],
            cores: vec![base.num_cores],
            accesses: vec![AccessKind::Load],
            contender_accesses: vec![AccessKind::Load],
            iterations: vec![methodology.iterations],
            max_k: methodology.max_k,
            methodology,
        }
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.arbiters.len()
            * self.cores.len()
            * self.accesses.len()
            * self.contender_accesses.len()
            * self.iterations.len()
    }

    /// Expands the grid over `base` into its concrete cells, row-major
    /// (arbiter × cores × access × contender access × iterations) — the
    /// enumeration, and the cell names, that
    /// [`scenarios`](Self::scenarios) builds its scenario list from, so
    /// the static analyzer bounds exactly the cells the campaign runs.
    /// Each cell's machine is [`GridSpec::cell_machine`].
    pub fn cells(&self, base: &MachineConfig) -> Vec<GridCell> {
        let mc = match base.topology.mc {
            Some(mc) => format!("/bus+mc:{}:{}", mc.arbiter, mc.service_occupancy),
            None => String::new(),
        };
        let mut out = Vec::with_capacity(self.cell_count());
        for &arbiter in &self.arbiters {
            for &cores in &self.cores {
                for &access in &self.accesses {
                    for &contender_access in &self.contender_accesses {
                        for &iterations in &self.iterations {
                            let cfg = GridSpec::cell_machine(base, arbiter, cores);
                            let name = format!(
                                "{}/{arbiter}/c{cores}/{access}-vs-{contender_access}/i{iterations}{mc}",
                                self.scenario
                            );
                            let max_k = self.max_k;
                            let cell =
                                GridCell { name, cfg, access, contender_access, iterations, max_k };
                            out.push(cell);
                        }
                    }
                }
            }
        }
        out
    }

    /// The machine of every cell with `arbiter` on the bus and `cores`
    /// cores: `base` with both applied. A cell with more cores than L2
    /// ways gets one way per core, as [`MachineConfig::toy`] does, so it
    /// stays partitionable.
    pub fn cell_machine(base: &MachineConfig, arbiter: ArbiterKind, cores: usize) -> MachineConfig {
        let mut cfg = base.clone();
        cfg.topology.bus.arbiter = arbiter;
        cfg.num_cores = cores;
        if (cfg.l2.ways as usize) < cores {
            cfg.l2.ways = cores as u32;
        }
        cfg
    }

    /// Expands the grid over `base` into one scenario per cell, in
    /// [`cells`](Self::cells) order.
    pub fn scenarios(&self, base: &MachineConfig) -> Vec<Box<dyn Scenario + Send + Sync>> {
        self.cells(base).into_iter().map(|cell| self.instantiate(cell)).collect()
    }

    /// The cell's scenario, named after the cell.
    fn instantiate(&self, c: GridCell) -> Box<dyn Scenario + Send + Sync> {
        match self.scenario {
            GridScenario::Derive => {
                let mut mcfg = self.methodology.clone();
                mcfg.access = c.access;
                mcfg.contender_access = c.contender_access;
                mcfg.iterations = c.iterations;
                mcfg.max_k = c.max_k;
                Box::new(UbdScenario::new(c.cfg, mcfg).named(c.name))
            }
            GridScenario::Naive => {
                let scua = rsk_nop(c.access, 0, &c.cfg, CoreId::new(0), c.iterations);
                Box::new(NaiveScenario::new(c.cfg, scua, c.contender_access).named(c.name))
            }
            GridScenario::Sweep => Box::new(
                SweepScenario::new(c.cfg, c.max_k, c.iterations)
                    .access(c.access)
                    .contenders(c.contender_access)
                    .named(c.name),
            ),
            GridScenario::ValidateGamma => Box::new(
                GammaValidationScenario::new(c.cfg, c.max_k as u64, c.iterations).named(c.name),
            ),
        }
    }
}

/// A parameter grid over a base machine: the [`GridSpec`] axes
/// (arbiter × core count × scua access × contender access × iterations,
/// each cell instantiating one [`GridScenario`]) plus the machine they
/// expand against. Shared runs between cells (isolated baselines in
/// particular: they do not depend on the contender access) are
/// deduplicated by the campaign runner.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignGrid {
    /// The base machine every cell starts from.
    pub base: MachineConfig,
    /// The scenario kind and the sweep axes.
    pub axes: GridSpec,
}

impl CampaignGrid {
    /// A 1×1×…×1 grid over `base` ([`GridSpec::new`]); widen dimensions
    /// with the setters.
    pub fn new(scenario: GridScenario, base: MachineConfig) -> Self {
        CampaignGrid { axes: GridSpec::new(scenario, &base), base }
    }

    /// Sweeps the arbitration policy.
    #[must_use]
    pub fn arbiters(mut self, arbiters: Vec<ArbiterKind>) -> Self {
        self.axes.arbiters = arbiters;
        self
    }

    /// Sweeps the core count.
    #[must_use]
    pub fn cores(mut self, cores: Vec<usize>) -> Self {
        self.axes.cores = cores;
        self
    }

    /// Sweeps the scua access kind.
    #[must_use]
    pub fn accesses(mut self, accesses: Vec<AccessKind>) -> Self {
        self.axes.accesses = accesses;
        self
    }

    /// Sweeps the contender access kind.
    #[must_use]
    pub fn contender_accesses(mut self, accesses: Vec<AccessKind>) -> Self {
        self.axes.contender_accesses = accesses;
        self
    }

    /// Sweeps the per-run iteration count.
    #[must_use]
    pub fn iterations(mut self, iterations: Vec<u64>) -> Self {
        self.axes.iterations = iterations;
        self
    }

    /// Sets the in-cell nop-padding ceiling.
    #[must_use]
    pub fn max_k(mut self, max_k: usize) -> Self {
        self.axes.max_k = max_k;
        self
    }

    /// Sets the methodology template for `Derive` cells.
    #[must_use]
    pub fn methodology(mut self, methodology: MethodologyConfig) -> Self {
        self.axes.methodology = methodology;
        self
    }

    /// Number of grid cells.
    pub fn cell_count(&self) -> usize {
        self.axes.cell_count()
    }

    /// Expands the grid into its concrete cells ([`GridSpec::cells`]).
    pub fn cells(&self) -> Vec<GridCell> {
        self.axes.cells(&self.base)
    }

    /// Expands the grid into one scenario per cell ([`GridSpec::scenarios`]).
    pub fn scenarios(&self) -> Vec<Box<dyn Scenario + Send + Sync>> {
        self.axes.scenarios(&self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrb_kernels::{rsk, rsk_nop};

    fn toy() -> MachineConfig {
        MachineConfig::toy(4, 2)
    }

    #[test]
    fn executor_run_measures_contention() {
        let cfg = toy();
        let scua = rsk_nop(AccessKind::Load, 1, &cfg, CoreId::new(0), 60);
        let spec = RunSpec::contended_rsk("r", cfg.clone(), scua.clone(), AccessKind::Load);
        let m = Executor::new().run(&spec).expect("run");
        assert!(m.execution_time > 0);
        assert!(m.bus_requests >= 300);
        assert!(m.bus_utilization > 0.9);
        let iso = Executor::new().run(&RunSpec::isolated("i", cfg, scua)).expect("run");
        assert!(iso.execution_time < m.execution_time);
        assert_eq!(iso.max_gamma(), Some(0));
    }

    #[test]
    fn invalid_config_is_a_run_error_not_a_panic() {
        let mut cfg = toy();
        cfg.topology.bus.arbiter = ArbiterKind::Tdma { slot_cycles: 1 };
        let scua = rsk_nop(AccessKind::Load, 0, &toy(), CoreId::new(0), 10);
        let spec = RunSpec::isolated("bad", cfg, scua);
        assert!(matches!(Executor::new().run(&spec), Err(RunError::Sim(SimError::Config(_)))));
    }

    #[test]
    fn endless_scua_is_reported() {
        let cfg = toy();
        let scua = rsk(AccessKind::Load, &cfg, CoreId::new(0));
        let spec = RunSpec::isolated("endless", cfg, scua);
        assert!(matches!(Executor::new().run(&spec), Err(RunError::NonTerminatingScua)));
    }

    #[test]
    fn deduped_plan_matches_plain_execution() {
        let scenario = SweepScenario::new(toy(), 2, 40);
        let campaign = Campaign::builder().scenario(scenario.clone()).scenario(scenario).build();
        let plan = campaign.plan();
        assert_eq!(plan.planned_runs(), 12);
        assert_eq!(plan.unique_specs().len(), 6, "the second copy is fully deduplicated");
        let results = Executor::new().jobs(2).execute(plan.unique_specs()).0;
        let finished = plan.finish(&results, StoreUsage::default(), 2);
        let scenario = &campaign.scenarios[0];
        let plain = scenario.outcomes(&Executor::new()).expect("plan");
        let records: Vec<RunRecord> = plain
            .iter()
            .map(|o| RunRecord::ok(&scenario.name(), &o.label, o.measurement().expect("run")))
            .collect();
        assert_eq!(finished.records, [records.clone(), records].concat());
        let report = scenario.analyze(&plain);
        assert_eq!(finished.reports, [report.clone(), report]);
    }

    #[test]
    fn walk_reports_plan_failures_and_missing_results_in_plan_order() {
        let mut bad = toy();
        bad.num_cores = 0;
        let campaign = Campaign::builder()
            .scenario(SweepScenario::new(bad, 1, 20).named("bad"))
            .scenario(SweepScenario::new(toy(), 1, 20).named("good"))
            .build();
        let plan = campaign.plan();
        let mut items = Vec::new();
        let failed = plan.walk(
            |_| None,
            |item| {
                items.push(item);
                Ok::<(), ()>(())
            },
        );
        assert_eq!(failed, Ok(5), "one <plan> record and four undelivered runs");
        assert_eq!(items.len(), 7);
        let PlanItem::Run(record, None) = &items[0] else { panic!("{:?}", items[0]) };
        assert_eq!((record.scenario.as_str(), record.label.as_str()), ("bad", "<plan>"));
        assert!(record.error.as_deref().is_some_and(|e| e.contains("invalid scenario")));
        assert!(matches!(&items[1], PlanItem::Scenario(r) if r.scenario == "bad" && !r.is_ok()));
        for (item, spec) in items[2..6].iter().zip(&plan.unique_specs()[..4]) {
            let PlanItem::Run(record, Some(walked)) = item else { panic!("{item:?}") };
            assert_eq!(*walked, spec);
            assert_eq!(
                record.error.as_deref(),
                Some("scenario analysis failed: scheduler delivered no result for this run")
            );
        }
        assert!(matches!(&items[6], PlanItem::Scenario(r) if r.scenario == "good" && !r.is_ok()));

        // The first sink error ends the walk.
        let mut calls = 0;
        let stopped = plan.walk(
            |_| None,
            |_| {
                calls += 1;
                Err("client went away")
            },
        );
        assert_eq!((stopped, calls), (Err("client went away"), 1));
    }

    #[test]
    fn parallel_plan_execution_matches_serial() {
        let cfg = toy();
        let specs: Vec<RunSpec> = (0..6)
            .map(|k| {
                RunSpec::contended_rsk(
                    format!("k={k}"),
                    cfg.clone(),
                    rsk_nop(AccessKind::Load, k, &cfg, CoreId::new(0), 40),
                    AccessKind::Load,
                )
            })
            .collect();
        let serial = Executor::new().execute(&specs);
        let parallel = Executor::new().jobs(4).execute(&specs);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn spec_hash_ignores_labels_and_separates_everything_else() {
        let cfg = toy();
        let scua = rsk_nop(AccessKind::Load, 1, &cfg, CoreId::new(0), 40);
        let a = RunSpec::isolated("a", cfg.clone(), scua.clone());
        let b = RunSpec::isolated("totally different label", cfg.clone(), scua.clone());
        assert_eq!(a.spec_hash(), b.spec_hash(), "labels are not part of the measurement");
        assert_eq!(a.spec_hash(), a.spec_hash(), "the digest is deterministic");
        let mut other_cfg = cfg.clone();
        other_cfg.topology.bus.l2_hit_occupancy += 1;
        assert_ne!(a.spec_hash(), RunSpec::isolated("a", other_cfg, scua.clone()).spec_hash());
        let other_scua = rsk_nop(AccessKind::Load, 2, &cfg, CoreId::new(0), 40);
        assert_ne!(a.spec_hash(), RunSpec::isolated("a", cfg.clone(), other_scua).spec_hash());
        let contended = RunSpec::contended_rsk("a", cfg, scua, AccessKind::Load);
        assert_ne!(a.spec_hash(), contended.spec_hash());
    }

    #[test]
    fn from_kernels_matches_the_direct_constructors() {
        let cfg = toy();
        let scua_spec = KernelSpec::RskNop { access: AccessKind::Load, nops: 1, iterations: 40 };
        let contenders = vec![KernelSpec::Rsk { access: AccessKind::Store }; cfg.num_cores - 1];
        let via_spec = RunSpec::from_kernels("r", cfg.clone(), &scua_spec, &contenders);
        let direct = RunSpec::contended_rsk(
            "r",
            cfg.clone(),
            rsk_nop(AccessKind::Load, 1, &cfg, CoreId::new(0), 40),
            AccessKind::Store,
        );
        assert_eq!(via_spec, direct);
        assert_eq!(via_spec.spec_hash(), direct.spec_hash());
    }

    #[test]
    fn dedup_counts_shared_baselines_once() {
        // Two naive cells differing only in contender access share their
        // isolated baseline.
        let grid = CampaignGrid::new(GridScenario::Naive, toy())
            .contender_accesses(vec![AccessKind::Load, AccessKind::Store]);
        let result = Campaign::builder().grid(&grid).build().run();
        assert_eq!(result.stats.planned_runs, 4);
        assert_eq!(result.stats.executed_runs, 3, "one shared isolated baseline");
        assert_eq!(result.stats.cache_hits, 1);
        assert_eq!(result.stats.failed_runs, 0);
    }

    #[test]
    fn grid_expands_row_major_and_counts_cells() {
        let grid = CampaignGrid::new(GridScenario::Derive, toy())
            .arbiters(vec![ArbiterKind::RoundRobin, ArbiterKind::Fifo])
            .iterations(vec![50, 60]);
        assert_eq!(grid.cell_count(), 4);
        let names: Vec<String> = grid.scenarios().iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                "derive/rr/c4/load-vs-load/i50",
                "derive/rr/c4/load-vs-load/i60",
                "derive/fifo/c4/load-vs-load/i50",
                "derive/fifo/c4/load-vs-load/i60",
            ]
        );
    }

    #[test]
    fn csv_has_header_and_one_row_per_record() {
        let grid = CampaignGrid::new(GridScenario::Naive, toy());
        let result = Campaign::builder().grid(&grid).build().run();
        let csv = result.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("scenario,label,status"));
        assert_eq!(lines.len(), 1 + result.records.len());
        assert!(lines[1].contains(",ok,"));
    }

    #[test]
    fn empty_campaign_is_well_formed() {
        let result = Campaign::builder().build().run();
        assert!(result.records.is_empty());
        assert!(result.reports.is_empty());
        assert!(result.to_json().contains("\"runs\": []"));
    }
}
