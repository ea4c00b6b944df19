//! Cross-validation of the cycle-accurate machine against the analytic
//! synchrony model (Eq. 2) — the reproduction's equivalent of the paper's
//! simulator-vs-board validation campaign (§5.1 reports < 3 % deviation
//! against the N2X board; here the reference is the closed-form model,
//! and the agreement is exact by construction of the timing semantics).
//!
//! The sweep is packaged as [`GammaValidationScenario`], a
//! [`Scenario`] of one contended run per `k`,
//! so a [`Campaign`](crate::campaign::Campaign) can validate many
//! configurations in parallel.

use crate::campaign::{RunError, RunSpec};
use crate::scenario::{
    plan_k_sweep, MetricValue, RunOutcome, Scenario, ScenarioError, ScenarioReport,
};
use rrb_analysis::GammaModel;
use rrb_kernels::AccessKind;
use rrb_sim::MachineConfig;
use std::fmt;

/// One δ point of a validation sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaComparison {
    /// Nop count used.
    pub k: u64,
    /// The injection time this k produces (`dl1.latency + k·δ_nop`).
    pub delta: u64,
    /// Eq. 2's prediction.
    pub predicted: u64,
    /// The machine's dominant per-request γ.
    pub measured: u64,
    /// Fraction of requests at the dominant γ (synchrony strength).
    pub mode_fraction: f64,
}

impl GammaComparison {
    /// Whether model and machine agree at this point.
    pub fn agrees(&self) -> bool {
        self.predicted == self.measured
    }
}

/// Result of a full validation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationReport {
    /// Per-k comparisons.
    pub points: Vec<GammaComparison>,
}

impl ValidationReport {
    /// Whether every point agreed.
    pub fn all_agree(&self) -> bool {
        self.points.iter().all(GammaComparison::agrees)
    }

    /// The points where model and machine diverge.
    pub fn disagreements(&self) -> Vec<GammaComparison> {
        self.points.iter().copied().filter(|p| !p.agrees()).collect()
    }

    /// The weakest synchrony observed (smallest mode fraction).
    pub fn min_mode_fraction(&self) -> f64 {
        self.points.iter().map(|p| p.mode_fraction).fold(1.0, f64::min)
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  k  delta  predicted  measured  mode%  agree")?;
        for p in &self.points {
            writeln!(
                f,
                "{:>3}  {:>5}  {:>9}  {:>8}  {:>4.0}%  {}",
                p.k,
                p.delta,
                p.predicted,
                p.measured,
                p.mode_fraction * 100.0,
                if p.agrees() { "yes" } else { "NO" }
            )?;
        }
        Ok(())
    }
}

/// The Eq. 2 white-box validation as a campaign-ready scenario: one
/// contended `rsk-nop(load, k)` run per `k`, each compared against the
/// model built from the configuration's ground-truth `ubd`.
#[derive(Debug, Clone, PartialEq)]
pub struct GammaValidationScenario {
    /// Scenario name (campaign record key).
    pub name: String,
    /// The platform under test.
    pub machine: MachineConfig,
    /// Largest nop count swept.
    pub max_k: u64,
    /// Iterations of the scua body per run.
    pub iterations: u64,
}

impl GammaValidationScenario {
    /// A scenario with the default name `"validate-gamma"`.
    pub fn new(machine: MachineConfig, max_k: u64, iterations: u64) -> Self {
        GammaValidationScenario { name: String::from("validate-gamma"), machine, max_k, iterations }
    }

    /// Renames the scenario (builder style).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Reduces the outcomes of [`Scenario::plan`] to a validation report.
    ///
    /// # Errors
    ///
    /// Returns the first failed run's [`RunError`], or
    /// [`RunError::NoBusRequests`] if a scua made no requests.
    pub fn report(&self, outcomes: &[RunOutcome]) -> Result<ValidationReport, RunError> {
        // Eq. 2 models the *bus*: on two-level topologies the controller
        // queue has its own term, so the model is built from the bus's
        // share of the bound, not the topology total.
        let model = GammaModel::new(self.machine.bus_ubd());
        let mut points = Vec::with_capacity(outcomes.len());
        for (k, outcome) in outcomes.iter().enumerate() {
            let k = k as u64;
            let m = outcome.measurement()?;
            let measured = m.mode_gamma().ok_or(RunError::NoBusRequests)?;
            let delta = self.machine.dl1.latency + k * self.machine.nop_latency;
            points.push(GammaComparison {
                k,
                delta,
                predicted: model.gamma(delta),
                measured,
                mode_fraction: m.mode_fraction(),
            });
        }
        Ok(ValidationReport { points })
    }
}

impl Scenario for GammaValidationScenario {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn plan(&self) -> Result<Vec<RunSpec>, ScenarioError> {
        let load = AccessKind::Load;
        plan_k_sweep(&self.machine, load, load, self.max_k as usize, self.iterations, false)
    }

    fn analyze(&self, outcomes: &[RunOutcome]) -> ScenarioReport {
        match self.report(outcomes) {
            Ok(r) => {
                let disagreements = r.disagreements().len() as u64;
                ScenarioReport::success(
                    self.name(),
                    if r.all_agree() {
                        format!("machine matches Eq. 2 at all {} points", r.points.len())
                    } else {
                        format!("{disagreements} of {} points disagree with Eq. 2", r.points.len())
                    },
                )
                .with("points", MetricValue::U64(r.points.len() as u64))
                .with("disagreements", MetricValue::U64(disagreements))
                .with("min_mode_fraction", MetricValue::F64(r.min_mode_fraction()))
                .with(
                    "measured",
                    MetricValue::Series(r.points.iter().map(|p| p.measured).collect()),
                )
            }
            Err(e) => ScenarioReport::failure(self.name(), e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;

    /// White-box validation against the configuration's own `ubd`.
    fn validate(cfg: MachineConfig, max_k: u64, iterations: u64) -> ValidationReport {
        let scenario = GammaValidationScenario::new(cfg, max_k, iterations);
        scenario.report(&scenario.outcomes(&Executor::new()).expect("plan")).expect("sweep")
    }

    #[test]
    fn toy_machine_matches_model_over_two_periods() {
        let cfg = MachineConfig::toy(4, 2);
        let r = validate(cfg, 13, 250);
        assert!(r.all_agree(), "disagreements: {:?}", r.disagreements());
        assert!(r.min_mode_fraction() > 0.9, "synchrony must dominate");
    }

    #[test]
    fn ngmp_ref_matches_model_at_salient_points() {
        // Full 0..=80 sweeps live in the bench target; unit tests check
        // the tooth's edges.
        let cfg = MachineConfig::ngmp_ref();
        let r = validate(cfg, 2, 150);
        assert!(r.all_agree(), "disagreements: {:?}", r.disagreements());
        assert_eq!(r.points[0].predicted, 26);
    }

    #[test]
    fn report_renders_table() {
        let cfg = MachineConfig::toy(4, 2);
        let r = validate(cfg, 3, 100);
        let text = r.to_string();
        assert!(text.contains("predicted"));
        assert!(text.contains("yes"));
    }

    #[test]
    fn variant_delta_includes_dl1_latency() {
        let cfg = MachineConfig::ngmp_var();
        let r = validate(cfg, 1, 100);
        assert_eq!(r.points[0].delta, 4);
        assert_eq!(r.points[1].delta, 5);
        assert!(r.all_agree());
    }

    #[test]
    fn scenario_analyze_reports_agreement() {
        let cfg = MachineConfig::toy(4, 2);
        let scenario = GammaValidationScenario::new(cfg, 6, 120).named("toy-validate");
        let report = scenario.analyze(&scenario.outcomes(&Executor::new().jobs(2)).expect("plan"));
        assert!(report.is_ok());
        assert_eq!(report.metric_u64("disagreements"), Some(0));
        assert_eq!(report.metric_u64("points"), Some(7));
    }
}
