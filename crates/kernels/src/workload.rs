//! Multi-core workload assembly.
//!
//! A *workload* assigns one program per core. The two shapes the paper
//! uses are:
//!
//! * a software-component-under-analysis (scua) on one core against
//!   `Nc - 1` identical contenders — the measurement setup of §3–§5; and
//! * randomly drawn 4-task EEMBC workloads — the realistic baseline of
//!   Fig. 6(a).

use crate::eembc::AutobenchKernel;
use crate::kernel_spec::KernelSpec;
use crate::rng::KernelRng;
use rrb_sim::{CoreId, Machine, MachineConfig, Program, SimError};
use std::fmt;

/// Why a [`WorkloadSpec`] could not be assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The scua core index does not name one of the workload's programs.
    ScuaOutOfRange {
        /// The requested scua core.
        scua: usize,
        /// How many per-core programs the workload has.
        programs: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::ScuaOutOfRange { scua, programs } => write!(
                f,
                "scua core {scua} is out of range for a workload of {programs} program(s)"
            ),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// A complete per-core program assignment.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    programs: Vec<Program>,
    /// The core hosting the software component under analysis.
    pub scua: CoreId,
}

impl WorkloadSpec {
    /// A workload from explicit per-core programs; `scua` marks the
    /// observed core.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::ScuaOutOfRange`] when `scua` does not
    /// name one of `programs` — a recoverable error rather than a panic,
    /// so analyst-supplied experiment specs cannot abort the process.
    pub fn try_new(programs: Vec<Program>, scua: CoreId) -> Result<Self, WorkloadError> {
        if scua.index() >= programs.len() {
            return Err(WorkloadError::ScuaOutOfRange {
                scua: scua.index(),
                programs: programs.len(),
            });
        }
        Ok(WorkloadSpec { programs, scua })
    }

    /// The program of each core, in core order.
    pub fn programs(&self) -> &[Program] {
        &self.programs
    }

    /// Loads every program onto a fresh machine built from `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] if the configuration is invalid or the
    /// workload has more programs than the machine has cores.
    pub fn into_machine(self, cfg: &MachineConfig) -> Result<Machine, SimError> {
        let mut machine = Machine::new(cfg.clone())?;
        for (i, prog) in self.programs.into_iter().enumerate() {
            machine.try_load_program(CoreId::new(i), prog)?;
        }
        Ok(machine)
    }
}

/// Draws a random `Nc`-task EEMBC workload (Fig. 6(a)'s "8 randomly
/// generated 4-task workloads"): distinct kernels, the scua on core 0
/// finite with `scua_iterations`, contenders endless.
pub fn random_eembc_workload(cfg: &MachineConfig, seed: u64, scua_iterations: u64) -> WorkloadSpec {
    let mut rng = KernelRng::seed_from_u64(seed);
    let mut kernels = AutobenchKernel::all().to_vec();
    rng.shuffle(&mut kernels);
    let programs = (0..cfg.num_cores)
        .map(|i| {
            let iters = if i == 0 { Some(scua_iterations) } else { None };
            KernelSpec::Eembc {
                kernel: kernels[i % kernels.len()],
                seed: seed.wrapping_add(i as u64),
                iterations: iters,
            }
            .build(cfg, CoreId::new(i))
        })
        .collect();
    WorkloadSpec::try_new(programs, CoreId::new(0)).expect("core 0 always holds a program")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsk::{rsk, rsk_nop, AccessKind};

    #[test]
    fn workload_runs_on_machine() {
        let cfg = MachineConfig::ngmp_ref();
        let mut programs = vec![rsk_nop(AccessKind::Load, 0, &cfg, CoreId::new(0), 50)];
        programs.extend((1..cfg.num_cores).map(|i| rsk(AccessKind::Load, &cfg, CoreId::new(i))));
        let w = WorkloadSpec::try_new(programs, CoreId::new(0)).expect("scua core");
        let mut m = w.into_machine(&cfg).expect("machine");
        let s = m.run().expect("run");
        assert!(s.core(CoreId::new(0)).completed());
    }

    #[test]
    fn random_workloads_are_deterministic_and_distinct() {
        let cfg = MachineConfig::ngmp_ref();
        let a = random_eembc_workload(&cfg, 1, 10);
        let b = random_eembc_workload(&cfg, 1, 10);
        let c = random_eembc_workload(&cfg, 2, 10);
        assert_eq!(a.programs(), b.programs());
        assert_ne!(a.programs(), c.programs());
    }

    #[test]
    fn random_workload_scua_is_finite_contenders_endless() {
        let cfg = MachineConfig::ngmp_ref();
        let w = random_eembc_workload(&cfg, 7, 25);
        assert_eq!(w.programs()[0].iterations().finite(), Some(25));
        for p in &w.programs()[1..] {
            assert!(p.iterations().finite().is_none());
        }
    }

    #[test]
    fn bad_scua_is_an_error_not_a_panic() {
        let e =
            WorkloadSpec::try_new(vec![Program::empty()], CoreId::new(3)).expect_err("must fail");
        assert_eq!(e, WorkloadError::ScuaOutOfRange { scua: 3, programs: 1 });
        assert!(e.to_string().contains("out of range"));
        let e = WorkloadSpec::try_new(Vec::new(), CoreId::new(0)).expect_err("must fail");
        assert!(matches!(e, WorkloadError::ScuaOutOfRange { programs: 0, .. }));
    }
}
