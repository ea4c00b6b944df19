//! Declarative kernel descriptions: every generator in this crate as a
//! plain-data value.
//!
//! A [`KernelSpec`] names a kernel family plus its parameters — access
//! kind, nop padding, seed, iteration count — without touching a machine
//! or building a program. Materialisation is deferred to
//! [`KernelSpec::build`], which needs the [`MachineConfig`] and the
//! [`CoreId`] because kernel *layouts* are machine- and core-dependent
//! (conflict sets, partition bases) while the spec is not. This is what
//! makes experiments serialisable: an experiment file stores
//! `KernelSpec`s, and the same spec builds the right program for every
//! machine and core in a campaign grid. The file form of each variant (a
//! `kind` tag such as `rsk-nop` plus the variant's fields) is declared
//! once, in the kernel table of the `rrb` crate's `spec` module.
//!
//! ```
//! use rrb_sim::{CoreId, MachineConfig};
//! use rrb_kernels::{AccessKind, KernelSpec};
//!
//! let cfg = MachineConfig::ngmp_ref();
//! let spec = KernelSpec::RskNop { access: AccessKind::Load, nops: 3, iterations: 100 };
//! let program = spec.build(&cfg, CoreId::new(0));
//! assert_eq!(program.body().len(), 5 * 4); // 5 loads, each + 3 nops
//! assert!(spec.is_finite());
//! ```

use crate::eembc::AutobenchKernel;
use crate::nop_kernel::nop_kernel;
use crate::rsk::{AccessKind, RskBuilder};
use crate::rsk_variants::{rsk_capacity, rsk_l2_miss, rsk_mixed, rsk_pointer_chase};
use rrb_sim::{CoreId, MachineConfig, Program};
use std::error::Error;
use std::fmt;

/// A declarative, machine-independent description of one kernel.
///
/// The variants cover every generator family in this crate; see the
/// module docs of each for the construction details.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelSpec {
    /// The plain resource-stressing kernel `rsk(t)` of §2 — endless, the
    /// canonical contender.
    Rsk {
        /// Access type `t`.
        access: AccessKind,
    },
    /// The paper's `rsk-nop(t, k)` (§4.1): an rsk with `k` nops after
    /// every memory instruction, run for a finite number of iterations.
    RskNop {
        /// Access type `t`.
        access: AccessKind,
        /// Nop padding `k`.
        nops: u64,
        /// Body iterations.
        iterations: u64,
    },
    /// The pure-nop calibration loop of §4.2 (measures `δ_nop`).
    Nop {
        /// Loop iterations.
        iterations: u64,
    },
    /// A seeded synthetic EEMBC-Autobench-profile workload (Fig. 6(a)).
    Eembc {
        /// Which Autobench kernel's profile to synthesise.
        kernel: AutobenchKernel,
        /// Seed fixing the address/instruction stream.
        seed: u64,
        /// Body iterations; `None` runs endlessly (contender role).
        iterations: Option<u64>,
    },
    /// A dependent pointer-chase over the conflict lines — endless,
    /// deterministic for a given seed.
    PointerChase {
        /// Conflict lines chased (clamped to the layout's capacity).
        lines: u64,
        /// Permutation seed.
        seed: u64,
    },
    /// Alternating loads and stores over the conflict lines.
    Mixed {
        /// Body iterations; `None` runs endlessly.
        iterations: Option<u64>,
    },
    /// An rsk exceeding the whole DL1 capacity (not one set) — endless.
    Capacity {
        /// Access type.
        access: AccessKind,
        /// Working set as a multiple of the DL1 size (must be ≥ 2).
        factor: u64,
    },
    /// A kernel whose working set exceeds the L2 partition, so every
    /// access queues at the DRAM controller — endless, the
    /// memory-controller stressor / bus negative control.
    L2Miss,
}

/// Why a [`KernelSpec`] cannot be materialised for a machine.
///
/// Analyst-supplied experiment files must never abort the process, so
/// the panicking preconditions of the underlying generators are checked
/// up front by [`KernelSpec::try_build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelSpecError {
    /// `Capacity { factor }` was below the minimum of 2.
    CapacityFactorTooSmall {
        /// The offending factor.
        factor: u64,
    },
    /// A capacity working set would overflow its L2 partition and stop
    /// hitting in L2.
    WorkingSetExceedsPartition {
        /// Working-set bytes requested.
        working_set: u64,
        /// Partition bytes available (the kernel needs ≤ half).
        partition: u64,
    },
}

impl fmt::Display for KernelSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelSpecError::CapacityFactorTooSmall { factor } => {
                write!(f, "capacity kernel factor {factor} must be at least 2")
            }
            KernelSpecError::WorkingSetExceedsPartition { working_set, partition } => write!(
                f,
                "capacity kernel working set {working_set} B exceeds half the \
                 {partition} B L2 partition"
            ),
        }
    }
}

impl Error for KernelSpecError {}

impl KernelSpec {
    /// Materialises the program for `core` under `cfg`.
    ///
    /// # Panics
    ///
    /// Panics where the underlying generator would (capacity working set
    /// too large for the partition); [`KernelSpec::try_build`] surfaces
    /// those preconditions as errors instead.
    pub fn build(&self, cfg: &MachineConfig, core: CoreId) -> Program {
        match *self {
            KernelSpec::Rsk { access } => RskBuilder::new(access).endless().build(cfg, core),
            KernelSpec::RskNop { access, nops, iterations } => {
                RskBuilder::new(access).nops(nops as usize).iterations(iterations).build(cfg, core)
            }
            KernelSpec::Nop { iterations } => nop_kernel(cfg, iterations),
            KernelSpec::Eembc { kernel, seed, iterations } => {
                kernel.profile().program(cfg, core, seed, iterations)
            }
            KernelSpec::PointerChase { lines, seed } => rsk_pointer_chase(cfg, core, lines, seed),
            KernelSpec::Mixed { iterations } => rsk_mixed(cfg, core, iterations),
            KernelSpec::Capacity { access, factor } => rsk_capacity(access, cfg, core, factor),
            KernelSpec::L2Miss => rsk_l2_miss(cfg, core),
        }
    }

    /// [`KernelSpec::build`] with the generator preconditions checked
    /// first, so invalid analyst-supplied specs fail softly.
    ///
    /// # Errors
    ///
    /// Returns [`KernelSpecError`] when the spec cannot produce a valid
    /// kernel on this machine.
    pub fn try_build(&self, cfg: &MachineConfig, core: CoreId) -> Result<Program, KernelSpecError> {
        self.validate(cfg)?;
        Ok(self.build(cfg, core))
    }

    /// Checks the machine-dependent preconditions without building.
    ///
    /// # Errors
    ///
    /// Returns [`KernelSpecError`] when the spec cannot produce a valid
    /// kernel on this machine.
    pub fn validate(&self, cfg: &MachineConfig) -> Result<(), KernelSpecError> {
        if let KernelSpec::Capacity { factor, .. } = *self {
            if factor < 2 {
                return Err(KernelSpecError::CapacityFactorTooSmall { factor });
            }
            let working_set = cfg.dl1.size_bytes * factor;
            let partition = cfg.l2.partition(cfg.num_cores).size_bytes;
            if working_set > partition / 2 {
                return Err(KernelSpecError::WorkingSetExceedsPartition { working_set, partition });
            }
        }
        Ok(())
    }

    /// Whether the built program terminates on its own. Endless specs
    /// are contenders; a scua must be finite to have an execution time.
    pub fn is_finite(&self) -> bool {
        match *self {
            KernelSpec::Rsk { .. }
            | KernelSpec::PointerChase { .. }
            | KernelSpec::Capacity { .. }
            | KernelSpec::L2Miss => false,
            KernelSpec::RskNop { .. } | KernelSpec::Nop { .. } => true,
            KernelSpec::Eembc { iterations, .. } | KernelSpec::Mixed { iterations } => {
                iterations.is_some()
            }
        }
    }
}

impl fmt::Display for KernelSpec {
    /// A compact human-readable label (`rsk-nop(load, k=3, i=100)`), used
    /// in scenario run labels. Not a serialisation format — experiment
    /// files store the structured form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            KernelSpec::Rsk { access } => write!(f, "rsk({access})"),
            KernelSpec::RskNop { access, nops, iterations } => {
                write!(f, "rsk-nop({access}, k={nops}, i={iterations})")
            }
            KernelSpec::Nop { iterations } => write!(f, "nop(i={iterations})"),
            KernelSpec::Eembc { kernel, seed, iterations } => match iterations {
                Some(i) => write!(f, "eembc({kernel}, seed={seed}, i={i})"),
                None => write!(f, "eembc({kernel}, seed={seed})"),
            },
            KernelSpec::PointerChase { lines, seed } => {
                write!(f, "pointer-chase(lines={lines}, seed={seed})")
            }
            KernelSpec::Mixed { iterations } => match iterations {
                Some(i) => write!(f, "mixed(i={i})"),
                None => write!(f, "mixed"),
            },
            KernelSpec::Capacity { access, factor } => {
                write!(f, "capacity({access}, x{factor})")
            }
            KernelSpec::L2Miss => write!(f, "l2-miss"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nop_kernel::nop_kernel;
    use crate::rsk::{rsk, rsk_nop};

    fn cfg() -> MachineConfig {
        MachineConfig::ngmp_ref()
    }

    #[test]
    fn specs_build_the_same_programs_as_the_direct_generators() {
        let cfg = cfg();
        let core = CoreId::new(1);
        assert_eq!(
            KernelSpec::Rsk { access: AccessKind::Store }.build(&cfg, core),
            rsk(AccessKind::Store, &cfg, core)
        );
        assert_eq!(
            KernelSpec::RskNop { access: AccessKind::Load, nops: 4, iterations: 50 }
                .build(&cfg, core),
            rsk_nop(AccessKind::Load, 4, &cfg, core, 50)
        );
        assert_eq!(KernelSpec::Nop { iterations: 7 }.build(&cfg, core), nop_kernel(&cfg, 7));
        assert_eq!(
            KernelSpec::Eembc { kernel: AutobenchKernel::Canrdr, seed: 3, iterations: Some(10) }
                .build(&cfg, core),
            AutobenchKernel::Canrdr.profile().program(&cfg, core, 3, Some(10))
        );
        assert_eq!(
            KernelSpec::PointerChase { lines: 5, seed: 9 }.build(&cfg, core),
            rsk_pointer_chase(&cfg, core, 5, 9)
        );
        assert_eq!(
            KernelSpec::Mixed { iterations: None }.build(&cfg, core),
            rsk_mixed(&cfg, core, None)
        );
        assert_eq!(
            KernelSpec::Capacity { access: AccessKind::Load, factor: 2 }.build(&cfg, core),
            rsk_capacity(AccessKind::Load, &cfg, core, 2)
        );
        assert_eq!(KernelSpec::L2Miss.build(&cfg, core), rsk_l2_miss(&cfg, core));
    }

    #[test]
    fn finiteness_tracks_the_contender_scua_split() {
        assert!(!KernelSpec::Rsk { access: AccessKind::Load }.is_finite());
        assert!(KernelSpec::RskNop { access: AccessKind::Load, nops: 0, iterations: 1 }.is_finite());
        assert!(KernelSpec::Nop { iterations: 1 }.is_finite());
        assert!(KernelSpec::Mixed { iterations: Some(5) }.is_finite());
        assert!(!KernelSpec::Mixed { iterations: None }.is_finite());
        assert!(!KernelSpec::PointerChase { lines: 4, seed: 0 }.is_finite());
        assert!(!KernelSpec::L2Miss.is_finite());
    }

    #[test]
    fn try_build_rejects_bad_capacity_specs_without_panicking() {
        let cfg = cfg();
        let core = CoreId::new(0);
        assert_eq!(
            KernelSpec::Capacity { access: AccessKind::Load, factor: 1 }.try_build(&cfg, core),
            Err(KernelSpecError::CapacityFactorTooSmall { factor: 1 })
        );
        let e = KernelSpec::Capacity { access: AccessKind::Load, factor: 1000 }
            .try_build(&cfg, core)
            .expect_err("must fail");
        assert!(matches!(e, KernelSpecError::WorkingSetExceedsPartition { .. }));
        assert!(e.to_string().contains("partition"));
        assert!(KernelSpec::Capacity { access: AccessKind::Load, factor: 2 }
            .try_build(&cfg, core)
            .is_ok());
    }

    #[test]
    fn display_labels_are_compact_and_distinct() {
        let labels: Vec<String> = [
            KernelSpec::Rsk { access: AccessKind::Load },
            KernelSpec::RskNop { access: AccessKind::Load, nops: 2, iterations: 10 },
            KernelSpec::Nop { iterations: 10 },
            KernelSpec::Eembc { kernel: AutobenchKernel::Matrix, seed: 1, iterations: None },
            KernelSpec::PointerChase { lines: 5, seed: 1 },
            KernelSpec::Mixed { iterations: None },
            KernelSpec::Capacity { access: AccessKind::Store, factor: 2 },
            KernelSpec::L2Miss,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), labels.len(), "{labels:?}");
        assert_eq!(labels[1], "rsk-nop(load, k=2, i=10)");
    }
}
