//! The [`Scenario`] abstraction: a named experiment that plans machine
//! runs and analyses their measurements.
//!
//! Every experiment in this crate — ubd derivation, the naive
//! estimators, γ-model validation, saw-tooth sweeps, the ablations — has
//! the same shape: build a set of workloads, run each on a fresh
//! [`Machine`](rrb_sim::Machine), and reduce the measurements to a
//! result. A `Scenario` makes that shape explicit:
//!
//! * [`Scenario::plan`] expands the experiment into [`RunSpec`]s — pure
//!   data, no execution;
//! * the [`Campaign`](crate::campaign::Campaign) runner executes the
//!   specs (serially or across a worker pool, with shared runs
//!   deduplicated) — or, for one scenario on its own,
//!   [`Scenario::outcomes`] executes its plan on an [`Executor`];
//! * [`Scenario::analyze`] folds the measurements into a
//!   [`ScenarioReport`] of named metrics.
//!
//! Because planning and analysis never touch a machine, runs from many
//! scenarios can be batched, deduplicated, and executed in parallel
//! while analysis stays deterministic: the runner hands back outcomes in
//! plan order no matter how execution was scheduled.

use crate::campaign::{RunError, RunMeasurement, RunSpec};
use crate::executor::Executor;
use crate::json::Json;
use rrb_analysis::sawtooth::detect_period;
use rrb_kernels::{AccessKind, KernelSpec};
use rrb_sim::{MachineConfig, SimError};
use std::error::Error;
use std::fmt;

/// The result of one planned run, in plan order.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The plan label of the run (e.g. `"k=12/contended"`).
    pub label: String,
    /// The measurement, or the per-run error that replaced it. Errors are
    /// recorded, not propagated: one failing run never poisons a
    /// campaign.
    pub result: Result<RunMeasurement, RunError>,
}

impl RunOutcome {
    /// The measurement, or the run's error.
    ///
    /// # Errors
    ///
    /// Returns the recorded [`RunError`] for failed runs.
    pub fn measurement(&self) -> Result<&RunMeasurement, RunError> {
        self.result.as_ref().map_err(Clone::clone)
    }
}

/// Why a scenario could not be planned or analysed.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The machine configuration is invalid, so no runs were planned.
    Config(SimError),
    /// Analysis failed (e.g. a required run errored).
    Analysis(String),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Config(e) => write!(f, "invalid scenario configuration: {e}"),
            ScenarioError::Analysis(msg) => write!(f, "scenario analysis failed: {msg}"),
        }
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioError::Config(e) => Some(e),
            ScenarioError::Analysis(_) => None,
        }
    }
}

impl From<SimError> for ScenarioError {
    fn from(e: SimError) -> Self {
        ScenarioError::Config(e)
    }
}

impl From<ScenarioError> for RunError {
    fn from(e: ScenarioError) -> Self {
        match e {
            ScenarioError::Config(e) => RunError::Sim(e),
            ScenarioError::Analysis(msg) => RunError::Analysis(msg),
        }
    }
}

/// A single named result of a scenario analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (e.g. `"ubd_m"`).
    pub name: String,
    /// Metric value.
    pub value: MetricValue,
}

/// The value of a [`Metric`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// An unsigned integer.
    U64(u64),
    /// A float.
    F64(f64),
    /// Free text (verdicts, method names).
    Text(String),
    /// An integer series (slowdown sweeps, candidate sets).
    Series(Vec<u64>),
}

impl MetricValue {
    fn to_json(&self) -> Json {
        match self {
            MetricValue::U64(v) => Json::U64(*v),
            MetricValue::F64(v) => Json::F64(*v),
            MetricValue::Text(s) => Json::str(s.clone()),
            MetricValue::Series(xs) => Json::u64_array(xs),
        }
    }
}

impl fmt::Display for MetricValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricValue::U64(v) => write!(f, "{v}"),
            MetricValue::F64(v) => write!(f, "{v:.4}"),
            MetricValue::Text(s) => write!(f, "{s}"),
            MetricValue::Series(xs) => write!(f, "{xs:?}"),
        }
    }
}

/// The analysed result of one scenario: a summary line plus named
/// metrics, or an error. Serialisable and deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// One-line human-readable outcome.
    pub summary: String,
    /// The failure, if the scenario could not produce a result.
    pub error: Option<String>,
    /// Named metrics (empty on failure).
    pub metrics: Vec<Metric>,
}

impl ScenarioReport {
    /// A successful report; add metrics with [`ScenarioReport::with`].
    pub fn success(scenario: impl Into<String>, summary: impl Into<String>) -> Self {
        ScenarioReport {
            scenario: scenario.into(),
            summary: summary.into(),
            error: None,
            metrics: Vec::new(),
        }
    }

    /// A failed report.
    pub fn failure(scenario: impl Into<String>, error: impl fmt::Display) -> Self {
        let error = error.to_string();
        ScenarioReport {
            scenario: scenario.into(),
            summary: format!("failed: {error}"),
            error: Some(error),
            metrics: Vec::new(),
        }
    }

    /// Appends a metric (builder style).
    #[must_use]
    pub fn with(mut self, name: impl Into<String>, value: MetricValue) -> Self {
        self.metrics.push(Metric { name: name.into(), value });
        self
    }

    /// Whether the scenario produced a result.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }

    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.iter().find(|m| m.name == name).map(|m| &m.value)
    }

    /// Looks up an integer metric by name.
    pub fn metric_u64(&self, name: &str) -> Option<u64> {
        match self.metric(name)? {
            MetricValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The report as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scenario", Json::str(self.scenario.clone())),
            ("summary", Json::str(self.summary.clone())),
            ("error", Json::option(self.error.clone(), Json::Str)),
            (
                "metrics",
                Json::Obj(
                    self.metrics.iter().map(|m| (m.name.clone(), m.value.to_json())).collect(),
                ),
            ),
        ])
    }
}

/// An experiment expressed as a plan of machine runs plus an analysis.
///
/// Implementations in this crate:
///
/// * [`UbdScenario`](crate::methodology::UbdScenario) — the paper's full
///   rsk-nop methodology (§4);
/// * [`NaiveScenario`](crate::naive::NaiveScenario) — prior practice's
///   `det/nr` estimate (§3);
/// * [`GammaValidationScenario`](crate::validation::GammaValidationScenario)
///   — the machine-vs-Eq. 2 white-box validation;
/// * [`SweepScenario`] — a raw `d_bus(t, k)` saw-tooth sweep (Fig. 7).
///
/// The three rsk-nop scenarios (derive, sweep, validate) plan their
/// `k = 0..=max_k` runs through one crate-private planner,
/// `plan_k_sweep`, so equal sweeps are equal specs that campaigns
/// deduplicate; derive and sweep read slowdowns off one reduction,
/// `sweep_points`.
///
/// Grids of scenarios are built by
/// [`CampaignGrid`](crate::campaign::CampaignGrid) and executed by
/// [`Campaign`](crate::campaign::Campaign).
pub trait Scenario {
    /// A unique, stable name (used as the record key in campaign output).
    fn name(&self) -> String;

    /// Expands the experiment into runnable specs. Pure: no simulation.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Config`] when the machine configuration
    /// is invalid — the campaign records the failure and moves on.
    fn plan(&self) -> Result<Vec<RunSpec>, ScenarioError>;

    /// Reduces the outcomes (in plan order) to a report. Must tolerate
    /// per-run errors: failed runs arrive as `Err` outcomes.
    fn analyze(&self, outcomes: &[RunOutcome]) -> ScenarioReport;

    /// Plans this scenario alone and executes the plan on `executor`,
    /// returning the outcomes in plan order — what a one-scenario
    /// [`Campaign`](crate::campaign::Campaign) would hand
    /// [`Scenario::analyze`].
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioError`] of a plan that could not be built;
    /// failed runs are `Err` outcomes, not errors.
    fn outcomes(&self, executor: &Executor) -> Result<Vec<RunOutcome>, ScenarioError> {
        let specs = self.plan()?;
        let (results, _) = executor.execute(&specs);
        Ok(specs
            .into_iter()
            .zip(results)
            .map(|(spec, result)| RunOutcome { label: spec.label, result })
            .collect())
    }
}

/// A raw slowdown sweep: `d_bus(t, k)` for `k = 0..=max_k` — the series
/// behind Fig. 7, without the period-recovery post-processing of the
/// full methodology.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepScenario {
    /// Scenario name.
    pub name: String,
    /// The platform under test.
    pub machine: MachineConfig,
    /// Access kind of the swept `rsk-nop(t, k)` scua.
    pub access: AccessKind,
    /// Access kind of the saturating contenders.
    pub contender_access: AccessKind,
    /// Largest nop count swept.
    pub max_k: usize,
    /// Iterations of the scua body per run.
    pub iterations: u64,
}

impl SweepScenario {
    /// A load-vs-load sweep with a default name.
    pub fn new(machine: MachineConfig, max_k: usize, iterations: u64) -> Self {
        SweepScenario {
            name: String::from("sweep"),
            machine,
            access: AccessKind::Load,
            contender_access: AccessKind::Load,
            max_k,
            iterations,
        }
    }

    /// Renames the scenario (builder style).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the scua access kind (builder style).
    #[must_use]
    pub fn access(mut self, access: AccessKind) -> Self {
        self.access = access;
        self
    }

    /// Sets the contender access kind (builder style).
    #[must_use]
    pub fn contenders(mut self, access: AccessKind) -> Self {
        self.contender_access = access;
        self
    }

    /// Recovers the slowdown series from the outcomes.
    ///
    /// # Errors
    ///
    /// Returns the first failed run's [`RunError`].
    pub fn slowdowns(&self, outcomes: &[RunOutcome]) -> Result<Vec<u64>, RunError> {
        Ok(sweep_points(outcomes)?.iter().map(SweepPoint::slowdown).collect())
    }
}

impl Scenario for SweepScenario {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn plan(&self) -> Result<Vec<RunSpec>, ScenarioError> {
        plan_k_sweep(
            &self.machine,
            self.access,
            self.contender_access,
            self.max_k,
            self.iterations,
            true,
        )
    }

    fn analyze(&self, outcomes: &[RunOutcome]) -> ScenarioReport {
        match self.slowdowns(outcomes) {
            Ok(series) => {
                let period = detect_period(&series, 0).or_else(|| detect_period(&series, 2));
                let summary = match period {
                    Some(p) => format!("saw-tooth period {} over k = 0..={}", p.period, self.max_k),
                    None => format!("no saw-tooth period over k = 0..={}", self.max_k),
                };
                let mut report = ScenarioReport::success(self.name(), summary)
                    .with("slowdowns", MetricValue::Series(series));
                if let Some(p) = period {
                    report = report
                        .with("period", MetricValue::U64(p.period))
                        .with("period_method", MetricValue::Text(p.method.to_string()))
                        .with("period_confidence", MetricValue::F64(p.confidence));
                }
                report
            }
            Err(e) => ScenarioReport::failure(self.name(), e),
        }
    }
}

/// The one k-sweep planner behind every rsk-nop scenario: for
/// `k = 0..=max_k`, `rsk-nop(access, k)` alone (`k={k}/isolated`, only
/// when `isolated` is set) and then against `Nc − 1` saturating
/// `rsk(contender_access)` (`k={k}/contended`). [`SweepScenario`] plans
/// exactly this, `UbdScenario` prefixes its calibration run, and
/// `GammaValidationScenario` keeps only the contended half.
pub(crate) fn plan_k_sweep(
    machine: &MachineConfig,
    access: AccessKind,
    contender_access: AccessKind,
    max_k: usize,
    iterations: u64,
    isolated: bool,
) -> Result<Vec<RunSpec>, ScenarioError> {
    machine.validate().map_err(SimError::from)?;
    let contenders =
        vec![KernelSpec::Rsk { access: contender_access }; machine.num_cores.saturating_sub(1)];
    let mut specs = Vec::with_capacity((1 + usize::from(isolated)) * (max_k + 1));
    for k in 0..=max_k {
        let scua = KernelSpec::RskNop { access, nops: k as u64, iterations };
        if isolated {
            let label = format!("k={k}/isolated");
            specs.push(RunSpec::from_kernels(label, machine.clone(), &scua, &[]));
        }
        let label = format!("k={k}/contended");
        specs.push(RunSpec::from_kernels(label, machine.clone(), &scua, &contenders));
    }
    Ok(specs)
}

/// One `k` of a sweep planned with its isolated half: the scua's
/// measurement alone and against the contenders.
pub(crate) struct SweepPoint<'a> {
    pub(crate) isolated: &'a RunMeasurement,
    pub(crate) contended: &'a RunMeasurement,
}

impl SweepPoint<'_> {
    /// `d(t, k)`: the contended run's execution time over the isolated one.
    pub(crate) fn slowdown(&self) -> u64 {
        self.contended.execution_time.saturating_sub(self.isolated.execution_time)
    }
}

/// The one slowdown reduction: pairs the outcomes of a
/// [`plan_k_sweep`] with its isolated half into one [`SweepPoint`] per
/// `k`, stopping at the first failed run.
pub(crate) fn sweep_points(outcomes: &[RunOutcome]) -> Result<Vec<SweepPoint<'_>>, RunError> {
    outcomes
        .chunks(2)
        .map(|pair| {
            Ok(SweepPoint { isolated: pair[0].measurement()?, contended: pair[1].measurement()? })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_builder_round_trips() {
        let r = ScenarioReport::success("s", "ok")
            .with("ubd_m", MetricValue::U64(6))
            .with("util", MetricValue::F64(0.99));
        assert!(r.is_ok());
        assert_eq!(r.metric_u64("ubd_m"), Some(6));
        assert_eq!(r.metric_u64("missing"), None);
        assert!(r.to_json().render_compact().contains("\"ubd_m\":6"));
    }

    #[test]
    fn failure_report_carries_error() {
        let r = ScenarioReport::failure("s", "boom");
        assert!(!r.is_ok());
        assert_eq!(r.error.as_deref(), Some("boom"));
        assert!(r.summary.contains("boom"));
    }

    #[test]
    fn sweep_scenario_recovers_toy_period() {
        let s = SweepScenario::new(MachineConfig::toy(4, 2), 14, 80).named("toy-sweep");
        let outcomes = s.outcomes(&Executor::new()).expect("plan");
        assert_eq!(outcomes.len(), 30, "an isolated/contended pair per k");
        let report = s.analyze(&outcomes);
        assert!(report.is_ok(), "{report:?}");
        assert_eq!(report.metric_u64("period"), Some(6));
    }

    /// Labels and measurement digests of a plan, for comparing planners.
    fn digest(plan: &[RunSpec]) -> Vec<(String, u64)> {
        plan.iter().map(|s| (s.label.clone(), s.spec_hash())).collect()
    }

    #[test]
    fn every_rsk_nop_plan_is_the_same_k_sweep() {
        use crate::methodology::{MethodologyConfig, UbdScenario};
        use crate::validation::GammaValidationScenario;
        let mut two_level = MachineConfig::toy(3, 2);
        two_level.topology.mc = Some(rrb_sim::McQueueConfig::ngmp());
        let cases = [
            (MachineConfig::toy(4, 2), AccessKind::Load, AccessKind::Load),
            (MachineConfig::toy(4, 2), AccessKind::Store, AccessKind::Load),
            (MachineConfig::toy(4, 2), AccessKind::Load, AccessKind::Store),
            (two_level, AccessKind::Load, AccessKind::Load),
        ];
        for (cfg, access, contender_access) in cases {
            let mut m = MethodologyConfig::fast();
            m.access = access;
            m.contender_access = contender_access;
            m.max_k = 7;
            m.iterations = 30;
            let sweep = SweepScenario::new(cfg.clone(), m.max_k, m.iterations)
                .access(access)
                .contenders(contender_access)
                .plan()
                .expect("sweep plan");
            assert_eq!(sweep.len(), 2 * (m.max_k + 1));

            let ubd = UbdScenario::new(cfg.clone(), m.clone()).plan().expect("ubd plan");
            assert_eq!(ubd[0].label, "calibration");
            assert_eq!(digest(&ubd[1..]), digest(&sweep), "{cfg:?}");

            if access == AccessKind::Load && contender_access == AccessKind::Load {
                let validate = GammaValidationScenario::new(cfg, m.max_k as u64, m.iterations)
                    .plan()
                    .expect("validation plan");
                let contended: Vec<_> = sweep.iter().skip(1).step_by(2).cloned().collect();
                assert_eq!(digest(&validate), digest(&contended));
            }
        }
    }

    #[test]
    fn sweep_plan_rejects_invalid_machine() {
        let mut cfg = MachineConfig::toy(4, 2);
        cfg.num_cores = 0;
        let s = SweepScenario::new(cfg, 4, 10);
        assert!(matches!(s.plan(), Err(ScenarioError::Config(_))));
    }

    #[test]
    fn scenario_error_display_and_source() {
        use std::error::Error as _;
        let e = ScenarioError::Analysis("x".into());
        assert!(e.to_string().contains('x'));
        assert!(e.source().is_none());
        let e = ScenarioError::from(SimError::NoSuchCore { core: 9, num_cores: 4 });
        assert!(e.source().is_some());
    }
}
