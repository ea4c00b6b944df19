//! Machine and component configuration.
//!
//! Two presets mirror the paper's evaluation setups (§5.1):
//!
//! * [`MachineConfig::ngmp_ref`] — the reference NGMP-like architecture:
//!   4 cores, 16 KB 4-way IL1/DL1 with 1-cycle latency, a shared
//!   round-robin bus whose L2-hit occupancy is 9 cycles (6-cycle L2 hit +
//!   3-cycle transfer and arbitration handover), a way-partitioned 256 KB
//!   4-way L2, and a DDR2-667-like memory behind an FCFS controller.
//!   `ubd = (4 - 1) * 9 = 27` cycles.
//! * [`MachineConfig::ngmp_var`] — identical except IL1/DL1 latency is
//!   4 cycles, which raises the injection time of every bus-accessing
//!   instruction from 1 to 4 cycles.
//!
//! [`MachineConfig::toy`] builds the small bus of the paper's Figures 2–3
//! (`l_bus = 2`, `ubd = 6`) for didactic experiments and exact unit tests.
//!
//! Contention points are described by a [`Topology`]: the shared bus
//! (always resource 0), optionally chained into a memory-controller
//! queue ([`McQueueConfig`], resource 1) in front of DRAM —
//! [`MachineConfig::ngmp_two_level`] is the two-resource preset. The
//! theoretical bound decomposes per resource
//! (`ubd = Σ_r (Nc − 1) · l_r`, [`MachineConfig::ubd_breakdown`]).

use crate::bus::ArbiterKind;
use crate::error::ConfigError;
use crate::resource::ResourceKind;
use std::str::FromStr;

/// Cache replacement policy.
///
/// The paper's reference architecture uses LRU everywhere; FIFO is included
/// because the rsk construction in §2 explicitly supports it, and random
/// replacement is included as a stress case for the kernel generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Replacement {
    /// Evict the least recently used line.
    #[default]
    Lru,
    /// Evict lines in insertion order.
    Fifo,
    /// Evict a pseudo-random line (xorshift over the access counter).
    Random,
}

impl std::fmt::Display for Replacement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Replacement::Lru => write!(f, "LRU"),
            Replacement::Fifo => write!(f, "FIFO"),
            Replacement::Random => write!(f, "random"),
        }
    }
}

/// A replacement-policy token that [`Replacement::from_str`] could not
/// parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseReplacementError {
    /// The offending token.
    pub token: String,
}

impl ParseReplacementError {
    /// The canonical tokens, for error messages and CLI help.
    pub const ALLOWED: &'static str = "lru, fifo, random";
}

impl std::fmt::Display for ParseReplacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown replacement policy `{}` (expected one of: {})",
            self.token,
            Self::ALLOWED
        )
    }
}

impl std::error::Error for ParseReplacementError {}

impl FromStr for Replacement {
    type Err = ParseReplacementError;

    /// Parses a policy token, accepting both the lowercase canonical
    /// form and the `Display` spelling (`LRU`, `FIFO`, `random`), so the
    /// two directions round-trip.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lru" | "LRU" => Ok(Replacement::Lru),
            "fifo" | "FIFO" => Ok(Replacement::Fifo),
            "random" => Ok(Replacement::Random),
            other => Err(ParseReplacementError { token: other.to_string() }),
        }
    }
}

/// Geometry and latency of one cache (IL1, DL1, or one L2 partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a power of two.
    pub size_bytes: u64,
    /// Associativity. Must be non-zero and divide `size_bytes / line_bytes`.
    pub ways: u32,
    /// Line size in bytes. Must be a power of two.
    pub line_bytes: u64,
    /// Hit latency in cycles (also the time from instruction issue to the
    /// miss request becoming ready at the bus).
    pub latency: u64,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// The paper's 16 KB, 4-way, 32-byte-line L1 with the given latency.
    pub fn l1_ngmp(latency: u64) -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 32,
            latency,
            replacement: Replacement::Lru,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.ways))
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any size is zero or not a power of two,
    /// or if the set count does not come out integral (and a power of two).
    pub fn validate(&self, name: &'static str) -> Result<(), ConfigError> {
        if self.size_bytes == 0 {
            return Err(ConfigError::ZeroParameter { name: "size_bytes" });
        }
        if self.ways == 0 {
            return Err(ConfigError::ZeroParameter { name: "ways" });
        }
        if self.line_bytes == 0 {
            return Err(ConfigError::ZeroParameter { name: "line_bytes" });
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo { name: "line_bytes", value: self.line_bytes });
        }
        let denom = self.line_bytes * u64::from(self.ways);
        if !self.size_bytes.is_multiple_of(denom) {
            return Err(ConfigError::BadCacheGeometry {
                detail: format!(
                    "{name}: size {} is not a multiple of ways*line = {denom}",
                    self.size_bytes
                ),
            });
        }
        let sets = self.size_bytes / denom;
        if !sets.is_power_of_two() {
            return Err(ConfigError::BadCacheGeometry {
                detail: format!("{name}: set count {sets} is not a power of two"),
            });
        }
        Ok(())
    }
}

/// Rejects arbiter parameters that the arbiter constructors would
/// panic on, so a bad `tdma:<slot>`/`grr:<group>` token surfaces as a
/// [`ConfigError`] (and a per-run error record in campaigns) instead of
/// a process abort.
fn validate_arbiter(kind: ArbiterKind) -> Result<(), ConfigError> {
    match kind {
        ArbiterKind::Tdma { slot_cycles: 0 } => {
            Err(ConfigError::ZeroParameter { name: "arbiter.slot_cycles" })
        }
        ArbiterKind::GroupedRoundRobin { group_size: 0 } => {
            Err(ConfigError::ZeroParameter { name: "arbiter.group_size" })
        }
        _ => Ok(()),
    }
}

/// Shared-bus timing and arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BusConfig {
    /// Bus occupancy of an L2 *hit*, in cycles. On the NGMP configuration
    /// this is 9: a 6-cycle L2 hit plus 3 cycles of transfer and
    /// arbitration handover (§5.2). This is the `l_bus` of Eq. 1.
    pub l2_hit_occupancy: u64,
    /// Bus occupancy of each phase (request, response) of a *split* L2-miss
    /// transaction, in cycles.
    pub transfer_occupancy: u64,
    /// Bus occupancy of a write-through store, in cycles. Stores are
    /// posted writes — "immediately answered" (§2) — so on the NGMP they
    /// hold the bus only for the transfer, not the L2 round trip.
    pub store_occupancy: u64,
    /// Arbitration policy.
    pub arbiter: ArbiterKind,
}

impl BusConfig {
    /// Round-robin bus with the NGMP timing (`l_bus = 9`, posted stores
    /// occupy 3 cycles).
    pub fn ngmp() -> Self {
        BusConfig {
            l2_hit_occupancy: 9,
            transfer_occupancy: 3,
            store_occupancy: 3,
            arbiter: ArbiterKind::RoundRobin,
        }
    }

    /// Validates the bus timing.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroParameter`] if either occupancy is zero,
    /// or [`ConfigError::TdmaSlotTooShort`] for an unusable TDMA schedule.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate_arbiter(self.arbiter)?;
        if self.l2_hit_occupancy == 0 {
            return Err(ConfigError::ZeroParameter { name: "l2_hit_occupancy" });
        }
        if self.transfer_occupancy == 0 {
            return Err(ConfigError::ZeroParameter { name: "transfer_occupancy" });
        }
        if self.store_occupancy == 0 {
            return Err(ConfigError::ZeroParameter { name: "store_occupancy" });
        }
        if let ArbiterKind::Tdma { slot_cycles } = self.arbiter {
            if slot_cycles < self.l2_hit_occupancy {
                return Err(ConfigError::TdmaSlotTooShort {
                    slot: slot_cycles,
                    occupancy: self.l2_hit_occupancy,
                });
            }
        }
        Ok(())
    }
}

/// The admission queue at the on-chip memory controller — the second
/// arbitrated contention point of the reference NGMP (§5.1: "contention
/// only happens on the bus and the memory controller").
///
/// When present in a [`Topology`], every L2 miss must win this queue
/// (FIFO on the real hardware; other policies are available for
/// ablation) before its line fetch enters DRAM. The queue's service
/// occupancy is the `l_mc` of the per-resource Eq. 1 term
/// `ubd_mc = (Nc − 1) · l_mc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct McQueueConfig {
    /// Cycles the controller's admission stage is held per request.
    pub service_occupancy: u64,
    /// Arbitration policy among the per-core miss streams.
    pub arbiter: ArbiterKind,
}

impl McQueueConfig {
    /// The NGMP-like controller front end: FIFO admission, 6-cycle
    /// service slot (command decode + bank scheduling).
    pub fn ngmp() -> Self {
        McQueueConfig { service_occupancy: 6, arbiter: ArbiterKind::Fifo }
    }

    /// Validates the queue parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroParameter`] for a zero service
    /// occupancy, or [`ConfigError::TdmaSlotTooShort`] for an unusable
    /// TDMA schedule.
    pub fn validate(&self) -> Result<(), ConfigError> {
        validate_arbiter(self.arbiter)?;
        if self.service_occupancy == 0 {
            return Err(ConfigError::ZeroParameter { name: "mc.service_occupancy" });
        }
        if let ArbiterKind::Tdma { slot_cycles } = self.arbiter {
            if slot_cycles < self.service_occupancy {
                return Err(ConfigError::TdmaSlotTooShort {
                    slot: slot_cycles,
                    occupancy: self.service_occupancy,
                });
            }
        }
        Ok(())
    }
}

/// One resource's term of the decomposed Eq. 1 bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceUbd {
    /// Which contention point the term belongs to.
    pub resource: ResourceKind,
    /// Its worst-case per-request contribution `(Nc − 1) · l_r`.
    pub ubd: u64,
}

/// The chain of shared resources on the request path.
///
/// Resource 0 is always the bus; a memory-controller queue can be
/// chained behind it, in which case every L2 miss arbitrates twice: once
/// for the bus (request phase), once for controller admission. The
/// topology is the composable part of a [`MachineConfig`] — presets are
/// one-resource ([`MachineConfig::ngmp_ref`]) or two-resource
/// ([`MachineConfig::ngmp_two_level`]) instances of the same machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    /// The shared bus (resource 0, always present).
    pub bus: BusConfig,
    /// The memory-controller queue (resource 1), if modelled.
    pub mc: Option<McQueueConfig>,
}

impl Topology {
    /// The classic single-resource topology: just the bus.
    pub fn single_bus(bus: BusConfig) -> Self {
        Topology { bus, mc: None }
    }

    /// The per-resource Eq. 1 terms for `num_cores` requesters, in
    /// request-path order. Their sum is the machine's total `ubd`.
    pub fn ubd_breakdown(&self, num_cores: usize) -> Vec<ResourceUbd> {
        let contenders = num_cores.saturating_sub(1) as u64;
        let worst_bus = self
            .bus
            .l2_hit_occupancy
            .max(self.bus.transfer_occupancy)
            .max(self.bus.store_occupancy);
        let mut terms =
            vec![ResourceUbd { resource: ResourceKind::Bus, ubd: contenders * worst_bus }];
        if let Some(mc) = self.mc {
            terms.push(ResourceUbd {
                resource: ResourceKind::MemoryController,
                ubd: contenders * mc.service_occupancy,
            });
        }
        terms
    }

    /// Validates every chained resource.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in any resource.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.bus.validate()?;
        if let Some(mc) = &self.mc {
            mc.validate()?;
        }
        Ok(())
    }
}

/// Way-partitioned shared L2 configuration.
///
/// Each core receives `ways_per_core` ways of the shared cache, so cores
/// never conflict in the L2 and contention arises only on the bus and the
/// memory controller, as in the paper (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct L2Config {
    /// Total capacity in bytes across all partitions.
    pub size_bytes: u64,
    /// Total associativity across all partitions.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Replacement policy inside each partition.
    pub replacement: Replacement,
}

impl L2Config {
    /// The paper's 256 KB 4-way L2 with 32-byte lines.
    pub fn ngmp() -> Self {
        L2Config { size_bytes: 256 * 1024, ways: 4, line_bytes: 32, replacement: Replacement::Lru }
    }

    /// The per-core partition as a standalone cache geometry.
    ///
    /// With one way per core the partition behaves as a direct-mapped cache
    /// of `size_bytes / ways` bytes.
    pub fn partition(&self, num_cores: usize) -> CacheConfig {
        let ways_per_core = (self.ways as usize / num_cores).max(1) as u32;
        CacheConfig {
            size_bytes: self.size_bytes / u64::from(self.ways) * u64::from(ways_per_core),
            ways: ways_per_core,
            line_bytes: self.line_bytes,
            // L2 hit latency is folded into the bus occupancy, per the
            // paper's definition of l_bus; the partition itself adds none.
            latency: 0,
            replacement: self.replacement,
        }
    }

    /// Validates the geometry for a machine with `num_cores` cores.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero cores, zero/non-power-of-two sizes
    /// or when there are more cores than L2 ways to partition among them.
    pub fn validate(&self, num_cores: usize) -> Result<(), ConfigError> {
        if num_cores == 0 {
            return Err(ConfigError::ZeroParameter { name: "num_cores" });
        }
        if self.ways == 0 {
            return Err(ConfigError::ZeroParameter { name: "l2.ways" });
        }
        if num_cores > self.ways as usize {
            return Err(ConfigError::TooManyCores {
                requested: num_cores,
                max: self.ways as usize,
            });
        }
        self.partition(num_cores).validate("l2.partition")
    }
}

/// DDR2-like DRAM timing, in core cycles.
///
/// This stands in for the paper's DRAMsim2 + DDR2-667 configuration; see
/// DESIGN.md for the substitution argument. Defaults approximate a
/// one-rank, 4-bank DDR2-667 part driven by a 200 MHz core clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Number of banks.
    pub banks: u32,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: u64,
    /// Activate-to-read delay (tRCD), core cycles.
    pub t_rcd: u64,
    /// Precharge delay (tRP), core cycles.
    pub t_rp: u64,
    /// CAS latency (tCL), core cycles.
    pub t_cl: u64,
    /// Data-burst occupancy per access, core cycles.
    pub burst: u64,
    /// Fixed controller overhead per request, core cycles.
    pub controller_overhead: u64,
}

impl DramConfig {
    /// DDR2-667-like timing at a 200 MHz core clock.
    pub fn ddr2_667() -> Self {
        DramConfig {
            banks: 4,
            row_bytes: 2048,
            t_rcd: 4,
            t_rp: 4,
            t_cl: 4,
            burst: 2,
            controller_overhead: 2,
        }
    }

    /// Validates the timing parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if banks, row size, or burst length is zero,
    /// or the row size is not a power of two.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.banks == 0 {
            return Err(ConfigError::ZeroParameter { name: "dram.banks" });
        }
        if self.row_bytes == 0 {
            return Err(ConfigError::ZeroParameter { name: "dram.row_bytes" });
        }
        if !self.row_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                name: "dram.row_bytes",
                value: self.row_bytes,
            });
        }
        if self.burst == 0 {
            return Err(ConfigError::ZeroParameter { name: "dram.burst" });
        }
        Ok(())
    }
}

/// Store-buffer sizing (§5.3).
///
/// Write-through stores retire from the pipeline as soon as they enter the
/// buffer; the buffer drains to the bus in FIFO order. Once full, the
/// pipeline stalls and, crucially for the paper's store experiment, the
/// buffered requests reach the bus with zero injection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreBufferConfig {
    /// Number of entries.
    pub entries: usize,
}

impl StoreBufferConfig {
    /// The default 8-entry buffer.
    pub fn ngmp() -> Self {
        StoreBufferConfig { entries: 8 }
    }

    /// Validates the sizing.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroParameter`] for an empty buffer.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.entries == 0 {
            return Err(ConfigError::ZeroParameter { name: "store_buffer.entries" });
        }
        Ok(())
    }
}

/// Complete machine configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Number of cores (bus requesters).
    pub num_cores: usize,
    /// Private data cache.
    pub dl1: CacheConfig,
    /// Private instruction cache.
    pub il1: CacheConfig,
    /// Shared, partitioned L2.
    pub l2: L2Config,
    /// The chain of arbitrated contention points (bus, optional
    /// memory-controller queue).
    pub topology: Topology,
    /// DRAM timing behind the controller.
    pub dram: DramConfig,
    /// Per-core store buffer.
    pub store_buffer: StoreBufferConfig,
    /// Latency of a `nop` instruction, cycles (δ_nop). Almost always 1.
    pub nop_latency: u64,
    /// Latency of loop-control (branch) instructions, cycles.
    pub branch_latency: u64,
    /// Cycle budget for [`Machine::run`]; guards against livelock.
    ///
    /// [`Machine::run`]: crate::Machine::run
    pub max_cycles: u64,
    /// Whether the PMC records every individual bus request (needed for
    /// per-request histograms; costs memory on long runs).
    pub record_requests: bool,
    /// Whether to record a bus-event trace (used by timeline figures).
    pub record_trace: bool,
    /// Whether [`Machine::run`]/[`Machine::run_for`] may jump `now`
    /// straight to the next cross-component event horizon when no
    /// component can act on another this cycle, instead of stepping
    /// every such cycle. That covers cycles where every core is stalled
    /// on a DRAM/bus wait, and cycles where a core only dispatches a
    /// quiet run — IL1-hitting `nop`/`alu`/`branch` instructions, whose
    /// dispatches the core applies late, each as of its own cycle (see
    /// [`crate::core_model`]).
    ///
    /// The two modes are cycle-identical — skipping elides only cycles
    /// no other component can observe, and the golden-trace and
    /// equivalence property tests pin that — so this stays `true`
    /// everywhere except when forcing naive per-cycle stepping (every
    /// cycle stepped, every core ticked) to debug the simulator itself
    /// (or to benchmark the skip, as `simspeed` does).
    ///
    /// [`Machine::run`]: crate::Machine::run
    /// [`Machine::run_for`]: crate::Machine::run_for
    pub quiescence_skip: bool,
    /// Whether [`Machine::run`] may detect a steady-state period (the
    /// whole machine returning to a time-shifted copy of an earlier
    /// state at an iteration boundary) and fast-forward whole periods at
    /// once, scaling the monotone counters instead of replaying them.
    ///
    /// Like [`MachineConfig::quiescence_skip`], the two modes are
    /// cycle-identical — a period is only skipped when every
    /// time-relative component signature (pipeline states, cache
    /// contents and replacement ranks over the program's footprint,
    /// arbiter positions, DRAM and store-buffer queues) matches exactly,
    /// which the period-equivalence property test pins. The skip
    /// disables itself when it cannot be proven sound: trace or request
    /// recording is on, a cache uses random replacement, no core runs a
    /// finite program, or the footprint is too large to fingerprint.
    ///
    /// [`Machine::run`]: crate::Machine::run
    pub period_skip: bool,
}

impl MachineConfig {
    /// The paper's reference architecture (§5.1): 1-cycle L1s, `ubd = 27`.
    pub fn ngmp_ref() -> Self {
        MachineConfig {
            num_cores: 4,
            dl1: CacheConfig::l1_ngmp(1),
            il1: CacheConfig::l1_ngmp(1),
            l2: L2Config::ngmp(),
            topology: Topology::single_bus(BusConfig::ngmp()),
            dram: DramConfig::ddr2_667(),
            store_buffer: StoreBufferConfig::ngmp(),
            nop_latency: 1,
            branch_latency: 1,
            max_cycles: 200_000_000,
            record_requests: true,
            record_trace: false,
            quiescence_skip: true,
            period_skip: true,
        }
    }

    /// The paper's variant architecture (§5.1): 4-cycle L1s, so the
    /// injection time of every bus-accessing instruction rises from 1 to 4.
    pub fn ngmp_var() -> Self {
        let mut cfg = Self::ngmp_ref();
        cfg.dl1.latency = 4;
        cfg.il1.latency = 4;
        cfg
    }

    /// The reference architecture with *both* of its arbitrated
    /// contention points modelled: the round-robin bus chained into the
    /// FIFO memory-controller queue. L2 misses arbitrate twice, and the
    /// Eq. 1 bound decomposes as `ubd = ubd_bus + ubd_mc`
    /// (see [`MachineConfig::ubd_breakdown`]).
    pub fn ngmp_two_level() -> Self {
        let mut cfg = Self::ngmp_ref();
        cfg.topology.mc = Some(McQueueConfig::ngmp());
        cfg
    }

    /// The toy bus of Figures 2–3: `num_cores` cores, a *uniform*
    /// per-transaction occupancy of `l_bus` cycles (loads and stores
    /// alike), and tiny caches, so `ubd = (num_cores-1)*l_bus`.
    pub fn toy(num_cores: usize, l_bus: u64) -> Self {
        let mut cfg = Self::ngmp_ref();
        cfg.num_cores = num_cores;
        cfg.topology.bus.l2_hit_occupancy = l_bus;
        cfg.topology.bus.store_occupancy = l_bus;
        cfg.topology.bus.transfer_occupancy = l_bus;
        cfg.l2.ways = num_cores.max(4) as u32;
        cfg
    }

    /// The bus of the request-path topology (resource 0).
    pub fn bus(&self) -> &BusConfig {
        &self.topology.bus
    }

    /// The memory-controller queue, if this topology chains one.
    pub fn mc(&self) -> Option<&McQueueConfig> {
        self.topology.mc.as_ref()
    }

    /// The theoretical upper-bound delay of this configuration —
    /// Eq. 1 summed over every resource on the request path:
    /// `ubd = Σ_r (Nc - 1) * l_r`, with `l_r` the *longest* transaction
    /// any contender can hold resource `r` for (the L2-hit occupancy on
    /// the NGMP bus, where stores and split-transaction phases are
    /// shorter; the service occupancy at the controller queue).
    ///
    /// The whole point of the paper is that a COTS user *cannot* compute
    /// this (the latencies are undocumented); the simulator exposes it so
    /// experiments can compare measured estimates against the truth.
    /// [`MachineConfig::ubd_breakdown`] exposes the per-resource terms.
    pub fn ubd(&self) -> u64 {
        self.ubd_breakdown().iter().map(|t| t.ubd).sum()
    }

    /// The per-resource terms of [`MachineConfig::ubd`], in request-path
    /// order; they sum to the total by construction.
    pub fn ubd_breakdown(&self) -> Vec<ResourceUbd> {
        self.topology.ubd_breakdown(self.num_cores)
    }

    /// The bus's own term of the bound, `(Nc - 1) * l_bus` — the quantity
    /// the rsk-nop saw-tooth measures (rsk kernels hit in L2 at steady
    /// state, so they exercise the bus, not the controller queue).
    pub fn bus_ubd(&self) -> u64 {
        self.ubd_breakdown()[0].ubd
    }

    /// Validates every component.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in any component.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_cores == 0 {
            return Err(ConfigError::ZeroParameter { name: "num_cores" });
        }
        if self.nop_latency == 0 {
            return Err(ConfigError::ZeroParameter { name: "nop_latency" });
        }
        if self.max_cycles == 0 {
            return Err(ConfigError::ZeroParameter { name: "max_cycles" });
        }
        self.validate_caches()?;
        self.topology.validate()?;
        self.dram.validate()?;
        self.store_buffer.validate()?;
        Ok(())
    }

    /// Validates the cache hierarchy alone: the DL1, the IL1 and the
    /// per-core L2 partition. A [`Cache`](crate::Cache) may only be built
    /// from a geometry that passed this check.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found in any cache.
    pub fn validate_caches(&self) -> Result<(), ConfigError> {
        self.dl1.validate("dl1")?;
        self.il1.validate("il1")?;
        self.l2.validate(self.num_cores)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::ngmp_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ngmp_ref_matches_paper_numbers() {
        let cfg = MachineConfig::ngmp_ref();
        assert_eq!(cfg.num_cores, 4);
        assert_eq!(cfg.topology.bus.l2_hit_occupancy, 9);
        assert_eq!(cfg.ubd(), 27);
        assert_eq!(cfg.dl1.latency, 1);
        assert_eq!(cfg.dl1.sets(), 128);
        cfg.validate().expect("reference config must validate");
    }

    #[test]
    fn ngmp_var_only_changes_l1_latency() {
        let r = MachineConfig::ngmp_ref();
        let v = MachineConfig::ngmp_var();
        assert_eq!(v.dl1.latency, 4);
        assert_eq!(v.il1.latency, 4);
        assert_eq!(v.ubd(), r.ubd());
        v.validate().expect("variant config must validate");
    }

    #[test]
    fn toy_config_matches_figure_three() {
        let cfg = MachineConfig::toy(4, 2);
        assert_eq!(cfg.ubd(), 6);
        cfg.validate().expect("toy config must validate");
    }

    #[test]
    fn zero_cores_rejected() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.num_cores = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroParameter { name: "num_cores" }));
        // The partition check alone must not divide by the zero core count.
        assert_eq!(cfg.validate_caches(), Err(ConfigError::ZeroParameter { name: "num_cores" }));
    }

    #[test]
    fn more_cores_than_l2_ways_rejected() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.num_cores = 8;
        assert!(matches!(cfg.validate(), Err(ConfigError::TooManyCores { .. })));
    }

    #[test]
    fn bad_line_size_rejected() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.dl1.line_bytes = 48;
        assert!(matches!(cfg.validate(), Err(ConfigError::NotPowerOfTwo { .. })));
    }

    #[test]
    fn l2_partition_is_direct_mapped_per_core() {
        let l2 = L2Config::ngmp();
        let part = l2.partition(4);
        assert_eq!(part.ways, 1);
        assert_eq!(part.size_bytes, 64 * 1024);
        assert_eq!(part.sets(), 2048);
    }

    #[test]
    fn tdma_slot_shorter_than_occupancy_rejected() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.topology.bus.arbiter = ArbiterKind::Tdma { slot_cycles: 4 };
        assert!(matches!(cfg.validate(), Err(ConfigError::TdmaSlotTooShort { .. })));
    }

    #[test]
    fn ubd_scales_with_core_count_and_latency() {
        for nc in 2..=4usize {
            for lbus in [2u64, 5, 9, 12] {
                let cfg = MachineConfig::toy(nc, lbus);
                assert_eq!(cfg.ubd(), (nc as u64 - 1) * lbus);
            }
        }
    }

    #[test]
    fn single_bus_breakdown_is_the_classic_ubd() {
        let cfg = MachineConfig::ngmp_ref();
        let terms = cfg.ubd_breakdown();
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].resource, ResourceKind::Bus);
        assert_eq!(terms[0].ubd, 27);
        assert_eq!(cfg.bus_ubd(), 27);
        assert_eq!(cfg.ubd(), 27, "one-resource topology keeps the Eq. 1 total");
    }

    #[test]
    fn two_level_breakdown_sums_to_total() {
        let cfg = MachineConfig::ngmp_two_level();
        cfg.validate().expect("two-level preset must validate");
        let terms = cfg.ubd_breakdown();
        assert_eq!(
            terms.iter().map(|t| t.resource).collect::<Vec<_>>(),
            vec![ResourceKind::Bus, ResourceKind::MemoryController]
        );
        assert_eq!(terms[0].ubd, 27);
        assert_eq!(terms[1].ubd, 3 * McQueueConfig::ngmp().service_occupancy);
        assert_eq!(cfg.ubd(), terms[0].ubd + terms[1].ubd, "breakdown sums to the total");
        assert_eq!(cfg.bus_ubd(), 27, "the bus term is unchanged by the extra resource");
    }

    #[test]
    fn topology_constructors_chain_resources() {
        let kinds = |t: &Topology| -> Vec<ResourceKind> {
            t.ubd_breakdown(4).iter().map(|term| term.resource).collect()
        };
        let single = Topology::single_bus(BusConfig::ngmp());
        assert_eq!(single, MachineConfig::ngmp_ref().topology);
        assert_eq!(kinds(&single), vec![ResourceKind::Bus]);
        let two = MachineConfig::ngmp_two_level().topology;
        assert_eq!(two, Topology { mc: Some(McQueueConfig::ngmp()), ..single });
        assert_eq!(kinds(&two), vec![ResourceKind::Bus, ResourceKind::MemoryController]);
    }

    #[test]
    fn mc_queue_validation_rejects_bad_parameters() {
        let mut cfg = MachineConfig::ngmp_two_level();
        cfg.topology.mc = Some(McQueueConfig { service_occupancy: 0, arbiter: ArbiterKind::Fifo });
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::ZeroParameter { name: "mc.service_occupancy" })
        );
        cfg.topology.mc = Some(McQueueConfig {
            service_occupancy: 6,
            arbiter: ArbiterKind::Tdma { slot_cycles: 2 },
        });
        assert!(matches!(cfg.validate(), Err(ConfigError::TdmaSlotTooShort { .. })));
    }

    #[test]
    fn degenerate_arbiter_parameters_are_config_errors_not_panics() {
        // grr:0 / tdma:0 parse fine but would panic in the arbiter
        // constructors; validation must catch them on every resource.
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.topology.bus.arbiter = ArbiterKind::GroupedRoundRobin { group_size: 0 };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroParameter { name: "arbiter.group_size" }));
        let mut cfg = MachineConfig::ngmp_two_level();
        cfg.topology.mc = Some(McQueueConfig {
            service_occupancy: 6,
            arbiter: ArbiterKind::GroupedRoundRobin { group_size: 0 },
        });
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroParameter { name: "arbiter.group_size" }));
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.topology.bus.arbiter = ArbiterKind::Tdma { slot_cycles: 0 };
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroParameter { name: "arbiter.slot_cycles" }));
    }

    #[test]
    fn dram_validation_rejects_zero_banks() {
        let mut d = DramConfig::ddr2_667();
        d.banks = 0;
        assert!(d.validate().is_err());
    }
}
