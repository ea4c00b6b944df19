//! The paper's rsk-nop methodology (§4): derive `ubd` from measurements
//! alone, with no knowledge of bus or L2 latencies.
//!
//! The procedure, exactly as §4.2–§4.3 prescribe:
//!
//! 1. **Calibrate `δ_nop`** by timing a loop of pure nops in isolation.
//! 2. For `k = 0, 1, 2, …, max_k`: run `rsk-nop(t, k)` as the scua
//!    against `Nc − 1` plain `rsk(t)` contenders, and record the slowdown
//!    `d_bus(t, k) = ExecTime_contended(k) − ExecTime_isolated(k)`.
//! 3. **Detect the saw-tooth period** of `d_bus(t, k)` (Eq. 3); the
//!    period in injection-time space *is* `ubd`.
//! 4. **Check confidence**: the contenders must have saturated the bus
//!    (verified via the utilisation counters, §4.3), and the calibrated
//!    `δ_nop` resolves the sampling ambiguity when nops cost more than
//!    one cycle.
//!
//! The whole procedure is packaged as [`UbdScenario`], a
//! [`Scenario`]: the measurement plan
//! (calibration + one isolated/contended pair per `k`) is pure data, so
//! a [`Campaign`](crate::campaign::Campaign) can run many derivations
//! in parallel and deduplicate shared runs. [`derive_ubd`] is the
//! single-scenario convenience wrapper over the same code path.

use crate::campaign::{RunError, RunMeasurement, RunSpec};
use crate::executor::Executor;
use crate::scenario::{
    plan_k_sweep, sweep_points, MetricValue, RunOutcome, Scenario, ScenarioError, ScenarioReport,
    SweepPoint,
};
use rrb_analysis::sawtooth::{detect_period, ubd_candidates, PeriodEstimate};
use rrb_kernels::{estimate_delta_nop, nop_kernel, AccessKind, KernelSpec};
use rrb_sim::{MachineConfig, ResourceKind, SimError};
use std::error::Error;
use std::fmt;

/// Tuning knobs of the methodology. The defaults mirror the paper's
/// experimental practice; [`MethodologyConfig::fast`] is a cheaper preset
/// for unit tests and examples.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodologyConfig {
    /// Access type `t` of the `rsk-nop(t, k)` scua.
    pub access: AccessKind,
    /// Access type of the contender rsk. Loads are the paper's default;
    /// store contenders inject with zero gap once their buffer fills and
    /// can saturate a bus that `Nc - 1` load kernels cannot (e.g. on a
    /// 2-core machine, where a single load contender leaves idle cycles).
    pub contender_access: AccessKind,
    /// Largest nop count swept. Must cover at least two saw-tooth
    /// periods; 2.5–3× the suspected `ubd` is a safe choice (the paper
    /// sweeps to ~80 on a 27-cycle bus).
    pub max_k: usize,
    /// Iterations of the rsk-nop body per run.
    pub iterations: u64,
    /// Iterations of the δ_nop calibration loop.
    pub calibration_iterations: u64,
    /// Tolerance (cycles) for the period matcher, absorbing cold-start
    /// jitter. Zero forces exact Eq. 3 matching.
    pub tolerance: u64,
    /// Minimum bus utilisation the contended runs must reach for the
    /// result to be trusted (§4.3's first confidence element).
    pub min_bus_utilization: f64,
}

impl MethodologyConfig {
    /// Paper-scale defaults: load kernels, `k` swept to 80, 500
    /// iterations per run.
    pub fn paper() -> Self {
        MethodologyConfig {
            access: AccessKind::Load,
            contender_access: AccessKind::Load,
            max_k: 80,
            iterations: 500,
            calibration_iterations: 50,
            tolerance: 0,
            min_bus_utilization: 0.95,
        }
    }

    /// A cheap preset for small buses (toy configurations, unit tests):
    /// `k` to 20, 100 iterations.
    pub fn fast() -> Self {
        MethodologyConfig {
            access: AccessKind::Load,
            contender_access: AccessKind::Load,
            max_k: 20,
            iterations: 100,
            calibration_iterations: 10,
            tolerance: 0,
            min_bus_utilization: 0.9,
        }
    }
}

impl Default for MethodologyConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// One resource's share of a derived bound.
///
/// The bus share is the saw-tooth-derived `ubd_m` (rsk kernels hit in L2
/// at steady state, so the periodic slowdown measures the bus alone);
/// the memory-controller share is read off that resource's own γ
/// counters (the largest admission delay observed across the contended
/// runs). The shares sum to [`UbdDerivation::total_ubd_m`] by
/// construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceContribution {
    /// Stable resource name (`"bus"`, `"mc"`).
    pub resource: String,
    /// The resource's share of the derived bound, in cycles.
    pub ubd_m: u64,
}

/// A successful `ubd` derivation, with everything needed to audit it.
#[derive(Debug, Clone, PartialEq)]
pub struct UbdDerivation {
    /// The derived upper-bound delay of the **bus** (in cycles) — the
    /// saw-tooth period of the rsk-nop sweep.
    pub ubd_m: u64,
    /// Per-resource shares of the derived bound, in request-path order;
    /// a single entry on single-bus topologies.
    pub resource_contributions: Vec<ResourceContribution>,
    /// The calibrated nop latency.
    pub delta_nop: u64,
    /// The detected period of the slowdown series, in k steps.
    pub k_period: u64,
    /// How the period was matched.
    pub period_estimate: PeriodEstimate,
    /// Every `ubd` consistent with the observed period and `δ_nop`
    /// before disambiguation.
    pub candidates: Vec<u64>,
    /// The measured slowdown series `d_bus(t, k)` for `k = 0..=max_k`.
    pub slowdowns: Vec<u64>,
    /// The largest per-request contention observed anywhere in the sweep
    /// (used to discard candidates `<= γ_max`).
    pub max_observed_gamma: u64,
    /// The lowest bus utilisation seen across the contended runs.
    pub min_bus_utilization: f64,
    /// Bus requests per run (`nr`), for ETB padding.
    pub scua_requests: u64,
}

impl UbdDerivation {
    /// The derived bound summed over every resource on the request path.
    /// Equal to [`UbdDerivation::ubd_m`] on single-bus topologies; on
    /// two-level topologies it adds the measured memory-controller share.
    pub fn total_ubd_m(&self) -> u64 {
        self.resource_contributions.iter().map(|c| c.ubd_m).sum()
    }
}

/// Why a derivation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodologyError {
    /// A measurement run failed.
    Run(RunError),
    /// The contenders never saturated the bus, so the synchrony effect
    /// cannot be relied on (§4.3).
    LowBusUtilization {
        /// The worst utilisation observed.
        observed: f64,
        /// The configured floor.
        required: f64,
    },
    /// The slowdown series shows no saw-tooth — the arbiter is probably
    /// not round-robin, or the sweep is too short.
    NoPeriod {
        /// The measured series, for diagnosis.
        slowdowns: Vec<u64>,
    },
    /// The period and `δ_nop` admit no `ubd` above the observed maximum
    /// contention (inconsistent measurements).
    NoConsistentCandidate {
        /// Candidates implied by the period.
        candidates: Vec<u64>,
        /// The observed maximum γ they must exceed.
        max_observed_gamma: u64,
    },
}

impl fmt::Display for MethodologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodologyError::Run(e) => write!(f, "{e}"),
            MethodologyError::LowBusUtilization { observed, required } => write!(
                f,
                "bus utilisation {observed:.3} below the {required:.3} required for synchrony"
            ),
            MethodologyError::NoPeriod { .. } => {
                write!(f, "slowdown series has no saw-tooth period (is the bus round-robin?)")
            }
            MethodologyError::NoConsistentCandidate { candidates, max_observed_gamma } => write!(
                f,
                "no ubd candidate in {candidates:?} exceeds the observed contention {max_observed_gamma}"
            ),
        }
    }
}

impl Error for MethodologyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MethodologyError::Run(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RunError> for MethodologyError {
    fn from(e: RunError) -> Self {
        MethodologyError::Run(e)
    }
}

impl From<SimError> for MethodologyError {
    fn from(e: SimError) -> Self {
        MethodologyError::Run(RunError::Sim(e))
    }
}

impl From<ScenarioError> for MethodologyError {
    fn from(e: ScenarioError) -> Self {
        MethodologyError::Run(e.into())
    }
}

/// Step 1: calibrate `δ_nop` on the target machine (§4.2).
///
/// # Errors
///
/// Returns [`MethodologyError::Run`] if the calibration run fails.
pub fn calibrate_delta_nop(cfg: &MachineConfig, iterations: u64) -> Result<u64, MethodologyError> {
    delta_nop(cfg, iterations, &Executor::new().run(&calibration_run(cfg, iterations))?)
}

/// The δ_nop calibration run: `iterations` nop loops, alone on core 0.
fn calibration_run(cfg: &MachineConfig, iterations: u64) -> RunSpec {
    RunSpec::from_kernels("calibration", cfg.clone(), &KernelSpec::Nop { iterations }, &[])
}

/// The one δ_nop reduction: the calibration run's execution time over
/// the nop count of its `iterations` loops.
fn delta_nop(
    cfg: &MachineConfig,
    iterations: u64,
    calibration: &RunMeasurement,
) -> Result<u64, MethodologyError> {
    let nops = nop_kernel(cfg, iterations)
        .dynamic_instruction_count()
        .ok_or_else(|| RunError::Analysis(String::from("the calibration kernel never ends")))?;
    Ok(estimate_delta_nop(calibration.execution_time, nops))
}

/// The full rsk-nop methodology as a campaign-ready
/// [`Scenario`].
///
/// The plan is: one calibration run, then an isolated/contended pair per
/// `k ∈ 0..=max_k`. [`UbdScenario::derivation`] reduces the outcomes to a
/// [`UbdDerivation`] — the same algebra [`derive_ubd`] has always
/// applied, now decoupled from execution so campaigns can parallelise
/// and deduplicate the runs.
#[derive(Debug, Clone, PartialEq)]
pub struct UbdScenario {
    /// Scenario name (campaign record key).
    pub name: String,
    /// The platform under test.
    pub machine: MachineConfig,
    /// Methodology tuning knobs.
    pub methodology: MethodologyConfig,
}

impl UbdScenario {
    /// A scenario with the default name `"derive-ubd"`.
    pub fn new(machine: MachineConfig, methodology: MethodologyConfig) -> Self {
        UbdScenario { name: String::from("derive-ubd"), machine, methodology }
    }

    /// Renames the scenario (builder style).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Reduces the outcomes of [`Scenario::plan`] to a derivation.
    ///
    /// # Errors
    ///
    /// See [`MethodologyError`] for the failure modes.
    pub fn derivation(&self, outcomes: &[RunOutcome]) -> Result<UbdDerivation, MethodologyError> {
        let mcfg = &self.methodology;
        let expected = 1 + 2 * (mcfg.max_k + 1);
        assert_eq!(outcomes.len(), expected, "outcome count must match the plan");

        // Step 1: δ_nop calibration.
        let delta_nop =
            delta_nop(&self.machine, mcfg.calibration_iterations, outcomes[0].measurement()?)?;

        // Step 2: the k sweep.
        let points = sweep_points(&outcomes[1..])?;
        let slowdowns: Vec<u64> = points.iter().map(SweepPoint::slowdown).collect();
        let contended = || points.iter().map(|p| p.contended);
        let max_gamma = contended().map(|m| m.max_gamma().unwrap_or(0)).max().unwrap_or(0);
        let max_mc_gamma = contended().map(|m| m.max_gamma_mc().unwrap_or(0)).max().unwrap_or(0);
        let min_util = contended().map(|m| m.bus_utilization).fold(1.0, f64::min);
        let scua_requests = points.last().map_or(0, |p| p.isolated.bus_requests);

        // Step 4a (checked early): contenders must saturate the bus.
        if min_util < mcfg.min_bus_utilization {
            return Err(MethodologyError::LowBusUtilization {
                observed: min_util,
                required: mcfg.min_bus_utilization,
            });
        }

        // Step 3: saw-tooth period.
        let tolerance = if mcfg.tolerance > 0 {
            mcfg.tolerance
        } else {
            // Auto-tolerance: 1 % of the series swing, at least 2 cycles,
            // absorbing cold-start transients without hiding the tooth.
            let max = slowdowns.iter().max().copied().unwrap_or(0);
            let min = slowdowns.iter().min().copied().unwrap_or(0);
            ((max - min) / 100).max(2)
        };
        let estimate =
            match detect_period(&slowdowns, 0).or_else(|| detect_period(&slowdowns, tolerance)) {
                Some(e) => e,
                None => return Err(MethodologyError::NoPeriod { slowdowns }),
            };

        // Step 4b: resolve δ_nop sampling. A candidate must be able to
        // explain every observed delay; γ = ubd itself is reachable (δ = 0
        // refills and store drains), so the comparison is inclusive.
        let candidates = ubd_candidates(estimate.period, delta_nop);
        let ubd_m = match candidates.iter().copied().find(|&c| c >= max_gamma) {
            Some(u) => u,
            None => {
                return Err(MethodologyError::NoConsistentCandidate {
                    candidates,
                    max_observed_gamma: max_gamma,
                })
            }
        };

        // The per-resource split of the bound: the saw-tooth measures the
        // bus; any further resource on the topology contributes the worst
        // admission delay its own γ counters recorded.
        let mut resource_contributions =
            vec![ResourceContribution { resource: ResourceKind::Bus.to_string(), ubd_m }];
        if self.machine.topology.mc.is_some() {
            resource_contributions.push(ResourceContribution {
                resource: ResourceKind::MemoryController.to_string(),
                ubd_m: max_mc_gamma,
            });
        }

        Ok(UbdDerivation {
            ubd_m,
            resource_contributions,
            delta_nop,
            k_period: estimate.period,
            period_estimate: estimate,
            candidates,
            slowdowns,
            max_observed_gamma: max_gamma,
            min_bus_utilization: min_util,
            scua_requests,
        })
    }
}

impl Scenario for UbdScenario {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn plan(&self) -> Result<Vec<RunSpec>, ScenarioError> {
        let m = &self.methodology;
        let sweep =
            plan_k_sweep(&self.machine, m.access, m.contender_access, m.max_k, m.iterations, true)?;
        let calibration = calibration_run(&self.machine, m.calibration_iterations);
        Ok(std::iter::once(calibration).chain(sweep).collect())
    }

    fn analyze(&self, outcomes: &[RunOutcome]) -> ScenarioReport {
        match self.derivation(outcomes) {
            Ok(d) => {
                let mut report = ScenarioReport::success(
                    self.name(),
                    format!(
                        "ubd_m = {} (period {}, delta_nop {})",
                        d.ubd_m, d.k_period, d.delta_nop
                    ),
                );
                for c in &d.resource_contributions {
                    report = report.with(format!("ubd_{}", c.resource), MetricValue::U64(c.ubd_m));
                }
                report
                    .with("ubd_total", MetricValue::U64(d.total_ubd_m()))
                    .with("ubd_m", MetricValue::U64(d.ubd_m))
                    .with("delta_nop", MetricValue::U64(d.delta_nop))
                    .with("k_period", MetricValue::U64(d.k_period))
                    .with("period_method", MetricValue::Text(d.period_estimate.method.to_string()))
                    .with("candidates", MetricValue::Series(d.candidates.clone()))
                    .with("max_observed_gamma", MetricValue::U64(d.max_observed_gamma))
                    .with("min_bus_utilization", MetricValue::F64(d.min_bus_utilization))
                    .with("scua_requests", MetricValue::U64(d.scua_requests))
                    .with("slowdowns", MetricValue::Series(d.slowdowns))
            }
            Err(e) => ScenarioReport::failure(self.name(), e),
        }
    }
}

/// Runs the complete methodology against machine `cfg` and returns the
/// derived `ubd_m` with its audit trail.
///
/// The machine configuration is used only to *build* the machine (the
/// platform under test); the derivation itself reads nothing but
/// execution times and the bus-utilisation counter, exactly as a COTS
/// user would.
///
/// This is the serial convenience wrapper over [`UbdScenario`]; a
/// [`Campaign`](crate::campaign::Campaign) runs the same plan in parallel.
///
/// # Errors
///
/// See [`MethodologyError`] for the failure modes.
pub fn derive_ubd(
    cfg: &MachineConfig,
    mcfg: &MethodologyConfig,
) -> Result<UbdDerivation, MethodologyError> {
    let scenario = UbdScenario::new(cfg.clone(), mcfg.clone());
    scenario.derivation(&scenario.outcomes(&Executor::new())?)
}

/// The store-tooth cross-check of Fig. 7(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreToothCheck {
    /// The span of the single store saw-tooth, in k steps.
    pub tooth_length: u64,
    /// The load-derived bound it is checked against.
    pub ubd_m: u64,
}

impl StoreToothCheck {
    /// Whether the tooth corroborates the bound: the paper reads the
    /// tooth length as "matching the ubd" with a small shift "caused by
    /// the number of entries in the store buffer and its processing
    /// time" — accept a window of `[ubd_m - 2, ubd_m + store margin]`.
    pub fn corroborates(&self, margin: u64) -> bool {
        self.tooth_length + 2 >= self.ubd_m && self.tooth_length <= self.ubd_m + margin
    }
}

/// The Fig. 7(b) cross-check: sweep `rsk-nop(store, k)` against load
/// contenders and read the length of the single slowdown tooth, which
/// must corroborate the load-derived `ubd_m` (§5.3).
///
/// Store slowdowns are not periodic (beyond one tooth the store buffer
/// hides the bus entirely), so this is a *consistency check* on a bound
/// derived with loads, not an independent derivation. The sweep is a
/// [`SweepScenario`](crate::scenario::SweepScenario) under the hood.
///
/// # Errors
///
/// Returns [`MethodologyError::Run`] if a run fails, or
/// [`MethodologyError::NoPeriod`] when no collapsing tooth is visible
/// (e.g. the platform has no store buffer to hide the latency).
pub fn store_tooth_check(
    cfg: &MachineConfig,
    mcfg: &MethodologyConfig,
    ubd_m: u64,
) -> Result<StoreToothCheck, MethodologyError> {
    let scenario = crate::scenario::SweepScenario::new(cfg.clone(), mcfg.max_k, mcfg.iterations)
        .access(AccessKind::Store)
        .contenders(AccessKind::Load)
        .named("store-tooth");
    let slowdowns = scenario.slowdowns(&scenario.outcomes(&Executor::new())?)?;
    match rrb_analysis::first_tooth_length(&slowdowns, 0.10) {
        Some(tooth_length) => Ok(StoreToothCheck { tooth_length, ubd_m }),
        None => Err(MethodologyError::NoPeriod { slowdowns }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Campaign, CampaignGrid, GridScenario};

    #[test]
    fn derives_ubd_on_toy_bus() {
        // ubd = (4-1)*2 = 6; the methodology must find it blind.
        let cfg = MachineConfig::toy(4, 2);
        let d = derive_ubd(&cfg, &MethodologyConfig::fast()).expect("derivation");
        assert_eq!(d.ubd_m, 6);
        assert_eq!(d.delta_nop, 1);
        assert_eq!(d.k_period, 6);
        assert!(d.min_bus_utilization > 0.9);
    }

    #[test]
    fn derives_ubd_on_toy_bus_with_three_cores() {
        let cfg = MachineConfig::toy(3, 3);
        let mut m = MethodologyConfig::fast();
        m.max_k = 16;
        let d = derive_ubd(&cfg, &m).expect("derivation");
        assert_eq!(d.ubd_m, 6);
    }

    #[test]
    fn calibration_reads_nop_latency() {
        let cfg = MachineConfig::toy(4, 2);
        assert_eq!(calibrate_delta_nop(&cfg, 5).expect("run"), 1);
        let mut slow = cfg;
        slow.nop_latency = 2;
        assert_eq!(calibrate_delta_nop(&slow, 5).expect("run"), 2);
    }

    #[test]
    fn low_utilization_is_rejected() {
        // A 2-core toy bus where the single contender cannot saturate:
        // force an impossible utilisation floor instead.
        let cfg = MachineConfig::toy(4, 2);
        let mut m = MethodologyConfig::fast();
        m.min_bus_utilization = 1.01; // unreachable on purpose
        match derive_ubd(&cfg, &m) {
            Err(MethodologyError::LowBusUtilization { .. }) => {}
            other => panic!("expected utilisation rejection, got {other:?}"),
        }
    }

    #[test]
    fn short_sweep_yields_no_period() {
        let cfg = MachineConfig::toy(4, 2);
        let mut m = MethodologyConfig::fast();
        m.max_k = 7; // less than two periods of 6
        match derive_ubd(&cfg, &m) {
            Err(MethodologyError::NoPeriod { slowdowns }) => {
                assert_eq!(slowdowns.len(), 8);
            }
            other => panic!("expected NoPeriod, got {other:?}"),
        }
    }

    #[test]
    fn store_tooth_corroborates_toy_ubd() {
        let cfg = MachineConfig::toy(4, 2);
        let mut m = MethodologyConfig::fast();
        m.max_k = 24;
        let d = derive_ubd(&cfg, &m).expect("load derivation");
        let check = store_tooth_check(&cfg, &m, d.ubd_m).expect("store sweep");
        assert!(
            check.corroborates(cfg.bus().store_occupancy + 2),
            "tooth {} vs ubd_m {}",
            check.tooth_length,
            check.ubd_m
        );
    }

    /// Derive repeats at perturbed iteration counts, as
    /// `rrb campaign --scenario derive --iterations i,i+i/4,…` plans them.
    fn repeats(m: &MethodologyConfig) -> CampaignGrid {
        let i = m.iterations;
        CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
            .methodology(m.clone())
            .max_k(m.max_k)
            .iterations(vec![i, i + i / 4, i + 2 * (i / 4)])
    }

    #[test]
    fn repeated_derivation_is_unanimous_on_toy_bus() {
        let result = Campaign::builder().grid(&repeats(&MethodologyConfig::fast())).build().run();
        assert_eq!(result.reports.len(), 3);
        for report in &result.reports {
            assert_eq!(report.metric_u64("k_period"), Some(6), "{report:?}");
            assert_eq!(report.metric_u64("ubd_m"), Some(6));
        }
    }

    #[test]
    fn repeated_derivation_is_identical_across_jobs() {
        let mut m = MethodologyConfig::fast();
        m.max_k = 14;
        m.iterations = 60;
        let grid = repeats(&m);
        let serial = Campaign::builder().grid(&grid).jobs(1).build().run();
        let parallel = Campaign::builder().grid(&grid).jobs(4).build().run();
        assert!(serial.reports.iter().all(ScenarioReport::is_ok), "{:?}", serial.reports);
        assert_eq!(serial.records, parallel.records);
        assert_eq!(serial.reports, parallel.reports);
    }

    #[test]
    fn scenario_analyze_reports_ubd_metric() {
        let cfg = MachineConfig::toy(4, 2);
        let scenario = UbdScenario::new(cfg, MethodologyConfig::fast()).named("toy");
        let outcomes = scenario.outcomes(&Executor::new().jobs(2)).expect("plan");
        let report = scenario.analyze(&outcomes);
        assert!(report.is_ok(), "{report:?}");
        assert_eq!(report.metric_u64("ubd_m"), Some(6));
        assert_eq!(report.metric_u64("k_period"), Some(6));
    }

    #[test]
    fn error_display_and_source() {
        let e = MethodologyError::LowBusUtilization { observed: 0.5, required: 0.95 };
        assert!(e.to_string().contains("0.500"));
        assert!(e.source().is_none());
        let e = MethodologyError::from(SimError::NoSuchCore { core: 1, num_cores: 1 });
        assert!(e.source().is_some());
    }
}
