//! Measurement-based timing analysis (MBTA) on top of the derived bound —
//! the "Using ubd_m" workflow of §4.3, industrialised.
//!
//! Given a platform characterisation (one [`UbdDerivation`] per access
//! type) and a set of software components, this module measures each
//! component in isolation, bounds its bus requests, and emits padded
//! execution-time bounds:
//!
//! ```text
//! ETB(task) = ExecTime_isol(task) + nr(task) × ubd_m
//! ```
//!
//! It can also *validate* the bounds empirically, running each task
//! against worst-case contenders and checking that no observed execution
//! time exceeds its ETB — the regression a certification campaign would
//! automate.

use crate::campaign::{RunError, RunSpec};
use crate::executor::Executor;
use crate::methodology::{derive_ubd, MethodologyConfig, MethodologyError, UbdDerivation};
use rrb_analysis::EtbPadding;
use rrb_kernels::AccessKind;
use rrb_sim::{MachineConfig, Program};
use std::fmt;

/// A software component submitted for analysis.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Human-readable name.
    pub name: String,
    /// The task's program (finite).
    pub program: Program,
}

impl TaskSpec {
    /// A named task.
    pub fn new(name: impl Into<String>, program: Program) -> Self {
        TaskSpec { name: name.into(), program }
    }
}

/// The analysed bound for one task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskBound {
    /// Task name.
    pub name: String,
    /// Isolation execution time (cycles).
    pub isolation_time: u64,
    /// Bus requests observed in isolation (`nr`).
    pub bus_requests: u64,
    /// Contention pad (`nr × ubd_m`).
    pub pad: u64,
    /// The execution-time bound.
    pub etb: u64,
}

impl TaskBound {
    /// The bound's relative contention overhead, `pad / isolation_time`.
    pub fn overhead(&self) -> f64 {
        if self.isolation_time == 0 {
            0.0
        } else {
            self.pad as f64 / self.isolation_time as f64
        }
    }
}

impl fmt::Display for TaskBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: isol {} + pad {} = ETB {} cycles ({:.1}% overhead)",
            self.name,
            self.isolation_time,
            self.pad,
            self.etb,
            self.overhead() * 100.0
        )
    }
}

/// Result of validating one task's bound against contended runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundValidation {
    /// Task name.
    pub name: String,
    /// The bound under test.
    pub etb: u64,
    /// Worst contended execution time observed.
    pub worst_observed: u64,
    /// Remaining slack (`etb - worst_observed`; negative would mean the
    /// bound is unsound, reported via [`BoundValidation::holds`]).
    pub slack: i64,
}

impl BoundValidation {
    /// Whether every observation fit under the bound.
    pub fn holds(&self) -> bool {
        self.slack >= 0
    }
}

/// A platform characterisation plus the tooling to bound task sets.
#[derive(Debug, Clone)]
pub struct MbtaAnalysis {
    cfg: MachineConfig,
    derivation: UbdDerivation,
}

impl MbtaAnalysis {
    /// Characterises the platform by running the full rsk-nop methodology.
    ///
    /// # Errors
    ///
    /// Propagates any [`MethodologyError`] from the derivation.
    pub fn characterise(
        cfg: &MachineConfig,
        mcfg: &MethodologyConfig,
    ) -> Result<Self, MethodologyError> {
        let derivation = derive_ubd(cfg, mcfg)?;
        Ok(MbtaAnalysis { cfg: cfg.clone(), derivation })
    }

    /// Builds an analysis from an existing derivation (e.g. to reuse one
    /// characterisation across many task sets).
    pub fn from_derivation(cfg: MachineConfig, derivation: UbdDerivation) -> Self {
        MbtaAnalysis { cfg, derivation }
    }

    /// The platform bound in use — the bus share of the derivation.
    pub fn ubd_m(&self) -> u64 {
        self.derivation.ubd_m
    }

    /// The per-request pad applied to ETBs. On single-bus topologies
    /// this equals [`MbtaAnalysis::ubd_m`]. On two-level topologies the
    /// rsk-nop sweep cannot provoke controller-queue contention (its
    /// steady-state traffic hits in L2), so the *measured* mc share is
    /// not a bound; the pad instead adds each non-bus resource's Eq. 1
    /// term `(Nc − 1)·l_r` from the platform configuration, keeping the
    /// ETB an upper bound even for tasks whose co-runners queue at the
    /// controller.
    pub fn pad_per_request(&self) -> u64 {
        let beyond_bus: u64 = self.cfg.ubd_breakdown().iter().skip(1).map(|t| t.ubd).sum();
        self.derivation.ubd_m + beyond_bus
    }

    /// The underlying derivation (audit trail).
    pub fn derivation(&self) -> &UbdDerivation {
        &self.derivation
    }

    /// Bounds one task: measure in isolation, pad with
    /// `nr × pad_per_request` (the bus-derived bound plus the Eq. 1 term
    /// of every further resource on the path, so two-level topologies
    /// pad for controller-queue contention too).
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the isolation run fails.
    pub fn bound_task(&self, task: &TaskSpec) -> Result<TaskBound, RunError> {
        let isolated = Executor::new().run(&RunSpec::isolated(
            &task.name,
            self.cfg.clone(),
            task.program.clone(),
        ))?;
        let padding = EtbPadding::new(isolated.bus_requests, self.pad_per_request());
        Ok(TaskBound {
            name: task.name.clone(),
            isolation_time: isolated.execution_time,
            bus_requests: isolated.bus_requests,
            pad: padding.pad(),
            etb: padding.etb(isolated.execution_time),
        })
    }

    /// Bounds a whole task set.
    ///
    /// # Errors
    ///
    /// Fails on the first task whose isolation run fails.
    pub fn bound_tasks(&self, tasks: &[TaskSpec]) -> Result<Vec<TaskBound>, RunError> {
        tasks.iter().map(|t| self.bound_task(t)).collect()
    }

    /// Empirically validates a task's bound: runs it against `trials`
    /// different saturating contender mixes and reports the worst case.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if any run fails.
    pub fn validate_bound(
        &self,
        task: &TaskSpec,
        bound: &TaskBound,
        trials: u32,
    ) -> Result<BoundValidation, RunError> {
        let mut worst = 0u64;
        for trial in 0..trials {
            // Alternate contender access types across trials to explore
            // both the load and the store contention shapes.
            let access = if trial % 2 == 0 { AccessKind::Load } else { AccessKind::Store };
            let contended = Executor::new().run(&RunSpec::contended_rsk(
                &task.name,
                self.cfg.clone(),
                task.program.clone(),
                access,
            ))?;
            worst = worst.max(contended.execution_time);
        }
        Ok(BoundValidation {
            name: bound.name.clone(),
            etb: bound.etb,
            worst_observed: worst,
            slack: bound.etb as i64 - worst as i64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrb_kernels::{rsk_nop, AutobenchKernel};
    use rrb_sim::CoreId;

    fn toy_analysis() -> MbtaAnalysis {
        let cfg = MachineConfig::toy(4, 2);
        MbtaAnalysis::characterise(&cfg, &MethodologyConfig::fast()).expect("characterisation")
    }

    #[test]
    fn characterisation_recovers_toy_ubd() {
        let a = toy_analysis();
        assert_eq!(a.ubd_m(), 6);
    }

    #[test]
    fn task_bound_structure() {
        let a = toy_analysis();
        let cfg = MachineConfig::toy(4, 2);
        let task =
            TaskSpec::new("rsk-nop-3", rsk_nop(AccessKind::Load, 3, &cfg, CoreId::new(0), 100));
        let b = a.bound_task(&task).expect("bound");
        assert_eq!(b.pad, b.bus_requests * 6);
        assert_eq!(b.etb, b.isolation_time + b.pad);
        assert!(b.overhead() > 0.0);
        assert!(b.to_string().contains("rsk-nop-3"));
    }

    #[test]
    fn bounds_hold_for_kernel_tasks() {
        let a = toy_analysis();
        let cfg = MachineConfig::toy(4, 2);
        for k in [0usize, 2, 5] {
            let task = TaskSpec::new(
                format!("rsk-nop-{k}"),
                rsk_nop(AccessKind::Load, k, &cfg, CoreId::new(0), 150),
            );
            let bound = a.bound_task(&task).expect("bound");
            let v = a.validate_bound(&task, &bound, 2).expect("validation");
            assert!(v.holds(), "{}: slack {}", v.name, v.slack);
        }
    }

    #[test]
    fn bounds_hold_for_eembc_task() {
        let a = toy_analysis();
        let cfg = MachineConfig::toy(4, 2);
        let task = TaskSpec::new(
            "canrdr",
            AutobenchKernel::Canrdr.profile().program(&cfg, CoreId::new(0), 5, Some(80)),
        );
        let bound = a.bound_task(&task).expect("bound");
        let v = a.validate_bound(&task, &bound, 2).expect("validation");
        assert!(v.holds(), "slack {}", v.slack);
    }

    #[test]
    fn task_set_bounds_are_per_task() {
        let a = toy_analysis();
        let cfg = MachineConfig::toy(4, 2);
        let tasks = vec![
            TaskSpec::new("t1", rsk_nop(AccessKind::Load, 1, &cfg, CoreId::new(0), 50)),
            TaskSpec::new("t2", rsk_nop(AccessKind::Load, 4, &cfg, CoreId::new(0), 50)),
        ];
        let bounds = a.bound_tasks(&tasks).expect("bounds");
        assert_eq!(bounds.len(), 2);
        assert_eq!(bounds[0].name, "t1");
        assert!(bounds[1].isolation_time > bounds[0].isolation_time);
    }

    #[test]
    fn from_derivation_reuses_characterisation() {
        let a = toy_analysis();
        let cfg = MachineConfig::toy(4, 2);
        let b = MbtaAnalysis::from_derivation(cfg, a.derivation().clone());
        assert_eq!(b.ubd_m(), 6);
    }
}
