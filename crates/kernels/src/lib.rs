//! # rrb-kernels — resource-stressing kernels and synthetic workloads
//!
//! Generators for the user-level kernels the paper's methodology is built
//! from:
//!
//! * [`rsk()`](rsk::rsk) — resource-stressing kernels (§2): tight loops of loads (or
//!   stores) engineered to miss DL1 on every access and hit in L2, keeping
//!   the shared bus as busy as possible;
//! * [`rsk_nop`] — the paper's contribution kernel `rsk-nop(t, k)` (§4.1):
//!   an rsk with `k` nop instructions injected between consecutive
//!   bus-accessing instructions, sweeping the injection time δ;
//! * [`nop_kernel()`](nop_kernel::nop_kernel) — a loop of pure nops used to calibrate the nop
//!   latency `δ_nop` (§4.2);
//! * [`eembc`] — seeded synthetic workloads whose memory-access profiles
//!   mimic the EEMBC Autobench suite used in the paper's Fig. 6(a) (see
//!   DESIGN.md for the substitution argument);
//! * [`workload`] — multi-core workloads: one program per core around a
//!   designated scua, and random EEMBC task sets.
//!
//! ## Example: a load rsk-nop with 3 nops against three load rsk
//!
//! ```
//! use rrb_sim::{Machine, MachineConfig, CoreId};
//! use rrb_kernels::{AccessKind, RskBuilder};
//!
//! # fn main() -> Result<(), rrb_sim::SimError> {
//! let cfg = MachineConfig::ngmp_ref();
//! let mut machine = Machine::new(cfg.clone())?;
//! let scua = RskBuilder::new(AccessKind::Load)
//!     .nops(3)
//!     .iterations(100)
//!     .build(&cfg, CoreId::new(0));
//! machine.load_program(CoreId::new(0), scua);
//! for i in 1..cfg.num_cores {
//!     let contender = RskBuilder::new(AccessKind::Load)
//!         .endless()
//!         .build(&cfg, CoreId::new(i));
//!     machine.load_program(CoreId::new(i), contender);
//! }
//! let summary = machine.run()?;
//! assert!(summary.core(CoreId::new(0)).completed());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod eembc;
pub mod kernel_spec;
pub mod layout;
pub mod nop_kernel;
pub mod rng;
pub mod rsk;
pub mod rsk_variants;
pub mod workload;

pub use eembc::{AutobenchKernel, AutobenchProfile, ParseKernelError, StridePattern};
pub use kernel_spec::{KernelSpec, KernelSpecError};
pub use layout::DataLayout;
pub use nop_kernel::{estimate_delta_nop, nop_kernel};
pub use rng::KernelRng;
pub use rsk::{rsk, rsk_nop, AccessKind, ParseAccessError, RskBuilder};
pub use rsk_variants::{rsk_capacity, rsk_l2_miss, rsk_l2_miss_nop, rsk_mixed, rsk_pointer_chase};
pub use workload::{random_eembc_workload, WorkloadError, WorkloadSpec};
