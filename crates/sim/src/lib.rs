//! # rrb-sim — cycle-accurate round-robin-bus multicore simulator
//!
//! This crate implements the hardware substrate used by the DAC 2015 paper
//! *"Increasing Confidence on Measurement-Based Contention Bounds for
//! Real-Time Round-Robin Buses"* (Fernandez et al.): a model of the 4-core
//! Cobham Gaisler NGMP (LEON4) in which each core owns private IL1/DL1
//! caches and reaches a partitioned L2 cache and an on-chip memory
//! controller through a shared, round-robin arbitrated bus.
//!
//! The simulator is *timing-first*: its purpose is to reproduce, cycle by
//! cycle, the contention algebra the paper studies — in particular the
//! **synchrony effect** of heavily loaded round-robin buses and the
//! saw-tooth relation between request *injection time* and per-request
//! contention delay. Functional data values are not modelled; addresses
//! are, because cache hit/miss behaviour drives the timing.
//!
//! ## Architecture
//!
//! Contention is modelled as a composable **topology** of shared
//! resources on the request path, each an instance of the same
//! post/grant/occupy/complete protocol ([`SharedResource`]) with its own
//! arbiter, occupancy, and statistics:
//!
//! ```text
//!  core 0      core 1      core 2      core 3        (in-order, 1 req
//!  IL1/DL1/SB  IL1/DL1/SB  IL1/DL1/SB  IL1/DL1/SB     outstanding each)
//!     |           |           |           |
//!     +-----------+-----+-----+-----------+
//!                       |  resource 0: shared bus
//!                       |  (RR / TDMA / FP / FIFO / grouped-RR arbiter)
//!               +-------+--------+
//!               |  L2 (way-partitioned per core)
//!               +-------+--------+
//!                       |  resource 1 (optional): MC admission queue
//!                       |  (FIFO by default — the NGMP's second
//!                       |   contention point, §5.1)
//!               +-------+--------+
//!               |  DDR2-like DRAM (banked, open page)
//! ```
//!
//! [`MachineConfig::ngmp_ref`] is the classic one-resource topology;
//! [`MachineConfig::ngmp_two_level`] chains the controller queue behind
//! the bus, so every L2 miss arbitrates twice. The Eq. 1 bound
//! decomposes per resource — `ubd = Σ_r (Nc − 1)·l_r`, see
//! [`MachineConfig::ubd_breakdown`] — and the PMCs/trace tag every
//! request with its [`ResourceId`], so per-resource delay distributions
//! can be measured independently.
//!
//! ## Quick example
//!
//! A [`MachineConfig`] is plain data: start from a preset, write the
//! fields to change, and build with [`Machine::new`]:
//!
//! ```
//! use rrb_sim::{Machine, MachineConfig, Program, Instr, CoreId};
//!
//! # fn main() -> Result<(), rrb_sim::SimError> {
//! let mut machine = Machine::new(MachineConfig::ngmp_two_level())?; // bus + mc queue
//! // A two-instruction program on core 0: one load and one nop.
//! let prog = Program::from_body(vec![Instr::load(0x1000), Instr::Nop], 100);
//! machine.load_program(CoreId::new(0), prog);
//! let summary = machine.run()?;
//! assert!(summary.core(CoreId::new(0)).completed());
//! let terms = machine.config().ubd_breakdown();
//! assert_eq!(terms.iter().map(|t| t.ubd).sum::<u64>(), machine.config().ubd());
//! # Ok(())
//! # }
//! ```
//!
//! A `Machine` is single-threaded and fully deterministic: the same
//! configuration and programs always produce the same cycle-by-cycle
//! behaviour. Batch experiments exploit both properties — the `rrb`
//! crate's `Executor` describes each measurement as a `RunSpec` (one
//! machine, one workload), executes many machines concurrently on a
//! worker pool, and still emits bit-identical results regardless
//! of the thread count. For back-to-back runs, [`Machine::reset_to`]
//! rewinds a machine to a just-built state without reallocating — the
//! arena idiom the `rrb` crate's `MachineArena` wraps; the reset is
//! semantically indistinguishable from building a fresh machine (the
//! arena property test pins this).
//!
//! The companion crates build on this substrate: [`rrb-kernels`] generates
//! resource-stressing kernels, [`rrb-analysis`] provides the γ(δ) model and
//! saw-tooth period detection, and [`rrb`] implements the paper's
//! measurement-based methodology end to end — see `rrb`'s crate docs for
//! the campaign quick start.
//!
//! [`rrb-kernels`]: https://example.invalid/rrb
//! [`rrb-analysis`]: https://example.invalid/rrb
//! [`rrb`]: https://example.invalid/rrb

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod cache;
pub mod config;
pub mod core_model;
pub mod dram;
mod error;
mod fastforward;
pub mod instr;
pub mod l2;
pub mod machine;
pub mod pmc;
pub mod resource;
pub mod store_buffer;
pub mod trace;
mod types;

pub use bus::{
    build_arbiter, Arbiter, ArbiterKind, BusOpKind, FifoArbiter, FixedPriorityArbiter,
    GroupedRoundRobinArbiter, ParseArbiterError, RequestView, RoundRobinArbiter, TdmaArbiter,
};
pub use cache::{Cache, CacheStats, Replacement};
pub use config::{
    BusConfig, CacheConfig, DramConfig, L2Config, MachineConfig, McQueueConfig,
    ParseReplacementError, ResourceUbd, StoreBufferConfig, Topology,
};
pub use core_model::fetch_addr;
pub use error::{ConfigError, SimError};
pub use instr::{Instr, Iterations, Program, ProgramBuilder};
pub use machine::{CoreSummary, Machine, RunSummary};
pub use pmc::{Pmc, RequestRecord};
pub use resource::{ResourceId, ResourceKind, ResourceStats, SharedResource};
pub use trace::{Trace, TraceEvent};
pub use types::{Addr, CoreId, Cycle};
