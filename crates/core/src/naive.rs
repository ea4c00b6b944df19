//! The naive measurement-based estimators of prior practice (§1, §3).
//!
//! Before this paper, `ubd_m` was obtained by running the software
//! component under analysis (or a copy of the stressing kernel itself)
//! against `Nc − 1` resource-stressing kernels and dividing the observed
//! slowdown by the number of bus requests: `ubd_m = det / nr` [15, 11, 5].
//! §3 shows why this cannot reach `ubd`: under full load the round-robin
//! bus synchronises, every request suffers the *same* `γ(δ_rsk) < ubd`,
//! and the estimate inherits that bias (26 instead of 27 on the reference
//! architecture, 23 on the variant — Fig. 6(b)).
//!
//! [`NaiveScenario`] packages the estimator as a campaign-ready
//! [`Scenario`] (one isolated/contended run
//! pair); [`naive_scua_vs_rsk`] and [`naive_rsk_vs_rsk`] are the serial
//! wrappers.

use crate::campaign::{RunError, RunMeasurement, RunSpec};
use crate::executor::Executor;
use crate::scenario::{MetricValue, RunOutcome, Scenario, ScenarioError, ScenarioReport};
use rrb_kernels::{rsk_nop, AccessKind};
use rrb_sim::{CoreId, MachineConfig, Program, SimError};

/// A naive `ubd_m` estimate and the paired measurement behind it: the
/// scua's execution time in isolation (`ExecTime_isol`) and against
/// contenders (`ExecTime_rsk`), whose difference `det` is the total
/// contention the bus inflicted (§1, §4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveEstimate {
    /// `det / nr` rounded up (the conservative reading), the
    /// slowdown-per-request estimate.
    pub ubd_m_det_over_nr: u64,
    /// The largest per-request delay visible on the performance counters
    /// (what an analyst with PMC access would report instead).
    pub ubd_m_max_gamma: u64,
    /// The scua run alone.
    pub isolated: RunMeasurement,
    /// The scua run against the stressing contenders.
    pub contended: RunMeasurement,
}

impl NaiveEstimate {
    /// Builds the estimate from a paired measurement, declining with
    /// [`RunError::NoBusRequests`] when the isolated scua made no bus
    /// requests (`nr = 0`, so `det / nr` is undefined).
    fn new(isolated: RunMeasurement, contended: RunMeasurement) -> Result<Self, RunError> {
        if isolated.bus_requests == 0 {
            return Err(RunError::NoBusRequests);
        }
        let det = contended.execution_time.saturating_sub(isolated.execution_time);
        Ok(NaiveEstimate {
            ubd_m_det_over_nr: det.div_ceil(isolated.bus_requests),
            ubd_m_max_gamma: contended.max_gamma().unwrap_or(0),
            isolated,
            contended,
        })
    }

    /// `det = ExecTime_contended − ExecTime_isol`, the total contention.
    pub fn det(&self) -> u64 {
        self.contended.execution_time.saturating_sub(self.isolated.execution_time)
    }

    /// The estimate an analyst would quote: the larger of the two
    /// readings (conservative practice).
    pub fn ubd_m(&self) -> u64 {
        self.ubd_m_det_over_nr.max(self.ubd_m_max_gamma)
    }
}

/// The naive estimator as a campaign-ready scenario: one
/// isolated/contended pair of the given scua against saturating rsk
/// contenders.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveScenario {
    /// Scenario name (campaign record key).
    pub name: String,
    /// The platform under test.
    pub machine: MachineConfig,
    /// The software component under analysis.
    pub scua: Program,
    /// Access kind of the stressing contenders.
    pub contender_access: AccessKind,
}

impl NaiveScenario {
    /// A scenario with the default name `"naive"`.
    pub fn new(machine: MachineConfig, scua: Program, contender_access: AccessKind) -> Self {
        NaiveScenario { name: String::from("naive"), machine, scua, contender_access }
    }

    /// Renames the scenario (builder style).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Reduces the outcomes of [`Scenario::plan`] to an estimate.
    ///
    /// # Errors
    ///
    /// Returns a failed run's [`RunError`], or
    /// [`RunError::NoBusRequests`] when the scua never touched the bus.
    pub fn estimate(&self, outcomes: &[RunOutcome]) -> Result<NaiveEstimate, RunError> {
        assert_eq!(outcomes.len(), 2, "outcome count must match the plan");
        NaiveEstimate::new(outcomes[0].measurement()?.clone(), outcomes[1].measurement()?.clone())
    }
}

impl Scenario for NaiveScenario {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn plan(&self) -> Result<Vec<RunSpec>, ScenarioError> {
        self.machine.validate().map_err(SimError::from)?;
        Ok(vec![
            RunSpec::isolated("isolated", self.machine.clone(), self.scua.clone()),
            RunSpec::contended_rsk(
                "contended",
                self.machine.clone(),
                self.scua.clone(),
                self.contender_access,
            ),
        ])
    }

    fn analyze(&self, outcomes: &[RunOutcome]) -> ScenarioReport {
        match self.estimate(outcomes) {
            Ok(e) => ScenarioReport::success(
                self.name(),
                format!(
                    "naive ubd_m = {} (det/nr {}, max gamma {})",
                    e.ubd_m(),
                    e.ubd_m_det_over_nr,
                    e.ubd_m_max_gamma
                ),
            )
            .with("ubd_m", MetricValue::U64(e.ubd_m()))
            .with("ubd_m_det_over_nr", MetricValue::U64(e.ubd_m_det_over_nr))
            .with("ubd_m_max_gamma", MetricValue::U64(e.ubd_m_max_gamma)),
            Err(e) => ScenarioReport::failure(self.name(), e),
        }
    }
}

fn run_scenario(scenario: &NaiveScenario) -> Result<NaiveEstimate, RunError> {
    scenario.estimate(&scenario.outcomes(&Executor::new())?)
}

/// The "scua against rsk" estimator (§3.1): run an arbitrary software
/// component against `Nc − 1` stressing kernels and read `det / nr`.
///
/// # Errors
///
/// Returns [`RunError`] if either run fails or the scua made no bus
/// requests.
pub fn naive_scua_vs_rsk(
    cfg: &MachineConfig,
    scua_program: Program,
    contender_access: AccessKind,
) -> Result<NaiveEstimate, RunError> {
    run_scenario(&NaiveScenario::new(cfg.clone(), scua_program, contender_access))
}

/// The "rsk against rsk" estimator (§3.2): the scua is itself a stressing
/// kernel, maximising the chance every request meets full contention —
/// and still falling short of `ubd` because of the synchrony effect.
///
/// # Errors
///
/// Returns [`RunError`] if either run fails.
pub fn naive_rsk_vs_rsk(
    cfg: &MachineConfig,
    access: AccessKind,
    iterations: u64,
) -> Result<NaiveEstimate, RunError> {
    let scua = rsk_nop(access, 0, cfg, CoreId::new(0), iterations);
    naive_scua_vs_rsk(cfg, scua, access)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rsk_vs_rsk_on_ref_reads_26() {
        // Fig. 6(b): ubd_m = 26 on the reference architecture; truth 27.
        let cfg = MachineConfig::ngmp_ref();
        let e = naive_rsk_vs_rsk(&cfg, AccessKind::Load, 500).expect("run");
        assert_eq!(e.ubd_m_max_gamma, 26);
        assert!(e.ubd_m() < cfg.ubd());
    }

    #[test]
    fn rsk_vs_rsk_on_var_reads_23() {
        // Fig. 6(b): ubd_m = 23 on the variant architecture (δ_rsk = 4).
        let cfg = MachineConfig::ngmp_var();
        let e = naive_rsk_vs_rsk(&cfg, AccessKind::Load, 500).expect("run");
        assert_eq!(e.ubd_m_max_gamma, 23);
    }

    #[test]
    fn det_over_nr_is_close_to_but_below_max_gamma() {
        let cfg = MachineConfig::ngmp_ref();
        let e = naive_rsk_vs_rsk(&cfg, AccessKind::Load, 500).expect("run");
        assert!(e.ubd_m_det_over_nr <= e.ubd_m_max_gamma + 1);
        assert!(e.ubd_m_det_over_nr >= 20);
    }

    #[test]
    fn eembc_scua_reads_even_lower() {
        // An arbitrary scua aligns even worse than an rsk (§3.1): its
        // requests rarely meet the worst alignment.
        use rrb_kernels::AutobenchKernel;
        let cfg = MachineConfig::ngmp_ref();
        let scua = AutobenchKernel::Canrdr.profile().program(&cfg, CoreId::new(0), 3, Some(100));
        let e = naive_scua_vs_rsk(&cfg, scua, AccessKind::Load).expect("run");
        assert!(e.ubd_m() <= cfg.ubd());
        // det/nr averages over well-aligned requests: clearly below ubd.
        assert!(e.ubd_m_det_over_nr < cfg.ubd());
    }

    #[test]
    fn busless_scua_is_a_no_bus_requests_error() {
        // An empty scua performs no bus requests: nr = 0 must surface as
        // a typed error, not a panic.
        let cfg = MachineConfig::toy(4, 2);
        match naive_scua_vs_rsk(&cfg, Program::empty(), AccessKind::Load) {
            Err(RunError::NoBusRequests) => {}
            other => panic!("expected NoBusRequests, got {other:?}"),
        }
    }

    #[test]
    fn contention_slows_the_scua_down() {
        let cfg = MachineConfig::ngmp_ref();
        let e = naive_rsk_vs_rsk(&cfg, AccessKind::Load, 200).expect("run");
        assert!(e.det() > 0, "contenders must slow the scua down");
        // Each request suffers γ = 26 on the ref architecture.
        let per_request = e.det() as f64 / e.isolated.bus_requests as f64;
        assert!(
            (20.0..=27.0).contains(&per_request),
            "per-request contention {per_request} out of range"
        );
        assert!(e.contended.bus_utilization > 0.95);
    }

    #[test]
    fn gamma_histogram_shows_synchrony_mode() {
        let cfg = MachineConfig::ngmp_ref();
        let e = naive_rsk_vs_rsk(&cfg, AccessKind::Load, 300).expect("run");
        assert_eq!(e.contended.gamma_histogram.mode(), Some(26));
        assert!(e.contended.gamma_histogram.fraction(26) > 0.9);
    }

    #[test]
    fn naive_ubd_m_is_none_without_bus_requests() {
        // A pure-compute scua has nr = 0; the estimator must decline
        // rather than panic so batch campaigns can record it as a
        // per-run error.
        let run = |execution_time| RunMeasurement {
            execution_time,
            bus_requests: 0,
            instructions: 50,
            gamma_histogram: rrb_analysis::Histogram::new(),
            mc_gamma_histogram: rrb_analysis::Histogram::new(),
            contender_histogram: rrb_analysis::Histogram::new(),
            bus_utilization: 0.99,
            mc_utilization: None,
        };
        assert_eq!(NaiveEstimate::new(run(100), run(100)), Err(RunError::NoBusRequests));
    }

    #[test]
    fn naive_scenario_reports_metrics() {
        let cfg = MachineConfig::toy(4, 2);
        let scua = rsk_nop(AccessKind::Load, 0, &cfg, CoreId::new(0), 120);
        let scenario = NaiveScenario::new(cfg, scua, AccessKind::Load).named("toy-naive");
        let report = scenario.analyze(&scenario.outcomes(&Executor::new()).expect("plan"));
        assert!(report.is_ok());
        assert_eq!(report.metric_u64("ubd_m_max_gamma"), Some(5));
    }
}
