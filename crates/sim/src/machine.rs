//! The multicore machine: cores + bus + L2 + DRAM, stepped cycle by cycle.
//!
//! ## Per-cycle event order
//!
//! 1. **Bus completion** — a transaction whose occupancy ends this cycle
//!    leaves the bus; its effects (data return, refill scheduling,
//!    store-buffer pop) are delivered immediately, so a core resumed by a
//!    data return executes its next instruction starting *this* cycle.
//! 2. **DRAM** — the memory controller advances; a finished line fetch
//!    becomes a refill request for the owning core.
//! 3. **Core pipelines** — each core dispatches at most one instruction.
//! 4. **Posting** — cores with a free bus slot place their next request
//!    (refill / demand miss first, then a store-buffer drain).
//! 5. **Arbitration** — if the bus is free, the arbiter grants among the
//!    requests whose ready cycle has arrived; the grant-time L2 lookup
//!    fixes the transaction's occupancy.
//!
//! Completion before arbitration in the same cycle is what produces the
//! back-to-back grant chains of the paper's Figures 2–3, and the
//! "resume, then request after `δ = dl1.latency`" rule in step 1/3 is what
//! makes the injection time of consecutive rsk loads equal the DL1 latency
//! (δ_rsk = 1 on `ngmp_ref`, 4 on `ngmp_var`).
//!
//! On a two-level topology ([`MachineConfig::ngmp_two_level`]) a second
//! [`SharedResource`] — the memory-controller queue — sits between the
//! bus and DRAM: an L2-miss request phase, after leaving the bus, posts
//! to the queue, arbitrates (FIFO by default) for controller admission,
//! and only then enters DRAM. The queue completes and grants inside the
//! same per-cycle phases as the bus, so single-bus configurations are
//! cycle-for-cycle unaffected (the golden-trace test pins this).
//!
//! ## Event-driven quiescence skipping
//!
//! [`Machine::step`] always advances exactly one cycle, but most cycles
//! of a contended run are *quiescent*: every core is stalled on a bus or
//! DRAM wait and every phase above is a no-op. Instead of stepping
//! through them, [`Machine::run`] and [`Machine::run_for`] ask each
//! component for its **event horizon** — the earliest future cycle at
//! which it can act:
//!
//! * each [`SharedResource`] reports its active transaction's completion
//!   cycle, or (when free) the earliest grant chance of its pending
//!   requests ([`Arbiter::earliest_grant`], which for TDMA folds in the
//!   slot schedule);
//! * the DRAM reports its in-flight access's `done` cycle;
//! * each core reports its pipeline resume deadline and, when it holds
//!   no bus transaction, its post/store-drain readiness.
//!
//! `now` then jumps straight to the minimum horizon
//! ([`Machine::next_event`]). Every horizon is a sound lower bound on
//! its component's next state change, so the elided cycles are provable
//! no-ops and both modes are cycle-identical — pinned by the
//! golden-trace test and the `prop_event_driven` equivalence property.
//! Set [`MachineConfig::quiescence_skip`] to `false` (or
//! [`MachineBuilder::quiescence_skip`]) to force naive per-cycle
//! stepping when debugging.
//!
//! [`Arbiter::earliest_grant`]: crate::bus::Arbiter::earliest_grant

use crate::bus::{ActiveTxn, ArbiterKind, BusOpKind};
use crate::cache::Access;
use crate::config::{BusConfig, MachineConfig, McQueueConfig, Topology};
use crate::core_model::CoreModel;
use crate::dram::Dram;
use crate::error::SimError;
use crate::instr::{Iterations, Program};
use crate::l2::L2;
use crate::pmc::{Pmc, RequestRecord};
use crate::resource::{ResourceId, SharedResource};
use crate::trace::{Trace, TraceEvent};
use crate::types::{CoreId, Cycle};

/// Result of one core's run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreSummary {
    /// Cycle the program's last instruction retired (None if unfinished or
    /// the program was endless).
    pub completed_at: Option<Cycle>,
    /// Instructions retired.
    pub instructions: u64,
    /// Bus requests observed for this core.
    pub bus_requests: u64,
    /// Largest per-request contention delay observed (`ubd_m` as a naive
    /// analysis would read it off the counters).
    pub max_gamma: Option<u64>,
    /// Sum of all contention delays suffered.
    pub total_gamma: u64,
}

impl CoreSummary {
    /// Whether the core's finite program ran to completion.
    pub fn completed(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Execution time (programs start at cycle 0).
    pub fn execution_time(&self) -> Option<Cycle> {
        self.completed_at
    }
}

/// Result of a [`Machine::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Cycle at which stepping stopped.
    pub cycles: Cycle,
    cores: Vec<CoreSummary>,
    /// Overall bus utilisation over the measurement window (the whole
    /// run, or since the last [`Machine::reset_measurements`]), in
    /// `[0, 1]`.
    pub bus_utilization: f64,
    /// Memory-controller-queue utilisation over the measurement window,
    /// when the topology chains one.
    pub mc_utilization: Option<f64>,
}

impl RunSummary {
    /// The summary of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core(&self, core: CoreId) -> &CoreSummary {
        &self.cores[core.index()]
    }

    /// Summaries of all cores in index order.
    pub fn cores(&self) -> &[CoreSummary] {
        &self.cores
    }
}

/// The simulated multicore.
///
/// Fields are crate-visible so the fast-forward module
/// (`fastforward`) can fingerprint and shift the whole machine
/// state without a wide accessor surface.
#[derive(Debug)]
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) now: Cycle,
    pub(crate) cores: Vec<CoreModel>,
    pub(crate) bus: SharedResource,
    /// The memory-controller queue of two-level topologies.
    pub(crate) mc: Option<SharedResource>,
    pub(crate) l2: L2,
    pub(crate) dram: Dram,
    pub(crate) pmc: Pmc,
    trace: Trace,
    /// Bus contender count captured when each core's current request was
    /// posted (one outstanding request per core).
    pub(crate) contenders_at_post: Vec<u32>,
    /// Same, for the memory-controller queue.
    pub(crate) mc_contenders_at_post: Vec<u32>,
    /// Cores that were loaded with a finite program (the measurement
    /// targets; endless contenders never terminate).
    pub(crate) finite: Vec<bool>,
    /// Number of finite cores that have not completed yet — maintained
    /// on load and on completion so the run loop never materialises the
    /// core list just to test emptiness.
    pub(crate) unfinished_count: usize,
    /// Cycle of the last [`Machine::reset_measurements`]: the start of
    /// the current measurement window. Utilisations divide by
    /// `now - measure_start`, not absolute `now`, so statistics stay
    /// meaningful after the warm-up idiom.
    measure_start: Cycle,
    /// Number of [`Machine::step`] calls executed — `now` minus the
    /// cycles elided by quiescence skipping. Diagnostics only.
    steps_executed: u64,
}

impl Machine {
    /// Builds a machine from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the configuration is invalid.
    pub fn new(cfg: MachineConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        let cores = (0..cfg.num_cores).map(|i| CoreModel::new(CoreId::new(i), &cfg)).collect();
        Ok(Machine {
            now: 0,
            cores,
            bus: SharedResource::bus(cfg.topology.bus, cfg.num_cores),
            mc: cfg.topology.mc.map(|mc| SharedResource::memory_controller(mc, cfg.num_cores)),
            l2: L2::new(cfg.l2, cfg.num_cores),
            dram: Dram::new(cfg.dram),
            pmc: Pmc::new(cfg.num_cores, cfg.record_requests),
            trace: Trace::new(cfg.record_trace),
            contenders_at_post: vec![0; cfg.num_cores],
            mc_contenders_at_post: vec![0; cfg.num_cores],
            finite: vec![false; cfg.num_cores],
            unfinished_count: 0,
            measure_start: 0,
            steps_executed: 0,
            cfg,
        })
    }

    /// Starts a [`MachineBuilder`] over the reference configuration.
    pub fn builder() -> MachineBuilder {
        MachineBuilder::new()
    }

    /// Rewinds the machine to the just-built state of `cfg`, reusing
    /// every allocation the new configuration's shape permits (cache
    /// line arrays, queue buffers, per-core vectors). Semantically
    /// indistinguishable from `*self = Machine::new(cfg)?` — the arena
    /// property test pins that — but without the allocator round trips,
    /// which dominate `Machine::new` on campaign-sized batches.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the configuration is invalid;
    /// the machine is left untouched in that case.
    pub fn reset_to(&mut self, cfg: MachineConfig) -> Result<(), SimError> {
        cfg.validate()?;
        self.cores.truncate(cfg.num_cores);
        for core in &mut self.cores {
            core.reset_to(&cfg);
        }
        while self.cores.len() < cfg.num_cores {
            self.cores.push(CoreModel::new(CoreId::new(self.cores.len()), &cfg));
        }
        self.bus.reset_to(
            cfg.topology.bus.arbiter,
            cfg.topology.bus.l2_hit_occupancy,
            cfg.num_cores,
        );
        self.mc = match (self.mc.take(), cfg.topology.mc) {
            (Some(mut mc), Some(mc_cfg)) => {
                mc.reset_to(mc_cfg.arbiter, mc_cfg.service_occupancy, cfg.num_cores);
                Some(mc)
            }
            (None, Some(mc_cfg)) => Some(SharedResource::memory_controller(mc_cfg, cfg.num_cores)),
            (_, None) => None,
        };
        self.l2.reset_to(cfg.l2, cfg.num_cores);
        self.dram.reset_to(cfg.dram);
        self.pmc.reset_to(cfg.num_cores, cfg.record_requests);
        if self.trace.is_enabled() == cfg.record_trace {
            self.trace.clear();
        } else {
            self.trace = Trace::new(cfg.record_trace);
        }
        self.contenders_at_post.clear();
        self.contenders_at_post.resize(cfg.num_cores, 0);
        self.mc_contenders_at_post.clear();
        self.mc_contenders_at_post.resize(cfg.num_cores, 0);
        self.finite.clear();
        self.finite.resize(cfg.num_cores, false);
        self.unfinished_count = 0;
        self.now = 0;
        self.measure_start = 0;
        self.steps_executed = 0;
        self.cfg = cfg;
        Ok(())
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The monitoring counters.
    pub fn pmc(&self) -> &Pmc {
        &self.pmc
    }

    /// The bus (resource 0), for utilisation statistics.
    pub fn bus(&self) -> &SharedResource {
        &self.bus
    }

    /// The memory-controller queue (resource 1), when the topology
    /// chains one.
    pub fn memory_controller(&self) -> Option<&SharedResource> {
        self.mc.as_ref()
    }

    /// A shared resource by request-path id, if present on this topology.
    pub fn resource(&self, id: ResourceId) -> Option<&SharedResource> {
        match id {
            ResourceId::BUS => Some(&self.bus),
            ResourceId::MEMORY_CONTROLLER => self.mc.as_ref(),
            _ => None,
        }
    }

    /// The event trace (empty unless `record_trace` was set).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The shared L2 (for hit-rate diagnostics).
    pub fn l2(&self) -> &L2 {
        &self.l2
    }

    /// The memory subsystem (for row-buffer diagnostics).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// DL1 statistics of one core.
    pub fn dl1_stats(&self, core: CoreId) -> crate::cache::CacheStats {
        self.cores[core.index()].dl1.stats()
    }

    /// Store-buffer stall count of one core.
    pub fn store_buffer_stalls(&self, core: CoreId) -> u64 {
        self.cores[core.index()].store_buffer.full_stalls()
    }

    /// Installs `program` on `core`, (re)starting it at the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range; use [`Machine::try_load_program`]
    /// for fallible loading.
    pub fn load_program(&mut self, core: CoreId, program: Program) {
        // lint_sources: allow (the documented-panicking convenience wrapper)
        self.try_load_program(core, program).expect("core index out of range");
    }

    /// Fallible variant of [`Machine::load_program`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NoSuchCore`] when `core` is out of range.
    pub fn try_load_program(&mut self, core: CoreId, program: Program) -> Result<(), SimError> {
        if core.index() >= self.cfg.num_cores {
            return Err(SimError::NoSuchCore { core: core.index(), num_cores: self.cfg.num_cores });
        }
        let idx = core.index();
        let was_unfinished = self.finite[idx] && !self.cores[idx].is_done();
        self.finite[idx] = matches!(program.iterations(), Iterations::Finite(_));
        self.cores[idx].load_program(program, self.now);
        let is_unfinished = self.finite[idx] && !self.cores[idx].is_done();
        match (was_unfinished, is_unfinished) {
            (false, true) => self.unfinished_count += 1,
            (true, false) => self.unfinished_count -= 1,
            _ => {}
        }
        Ok(())
    }

    fn unfinished(&self) -> Vec<usize> {
        (0..self.cfg.num_cores).filter(|&i| self.finite[i] && !self.cores[i].is_done()).collect()
    }

    /// Runs until every finite program completes — jumping over
    /// quiescent cycles unless [`MachineConfig::quiescence_skip`] is off.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CycleBudgetExhausted`] if `max_cycles` elapses
    /// first.
    pub fn run(&mut self) -> Result<RunSummary, SimError> {
        debug_assert_eq!(self.unfinished_count, self.unfinished().len());
        let budget = self.now + self.cfg.max_cycles;
        let mut ff = crate::fastforward::PeriodSkip::new(self);
        while self.unfinished_count > 0 {
            if self.now >= budget {
                return Err(SimError::CycleBudgetExhausted {
                    budget: self.cfg.max_cycles,
                    incomplete: self.unfinished(),
                });
            }
            self.step();
            if self.unfinished_count > 0 {
                self.skip_quiescence(budget);
                ff.observe(self, budget);
            }
        }
        Ok(self.summary())
    }

    /// Advances the machine by exactly `cycles` cycles (useful when every
    /// core runs an endless kernel), jumping over quiescent stretches
    /// unless [`MachineConfig::quiescence_skip`] is off.
    pub fn run_for(&mut self, cycles: Cycle) -> RunSummary {
        let end = self.now + cycles;
        while self.now < end {
            self.step();
            self.skip_quiescence(end);
        }
        self.summary()
    }

    /// Jumps `now` to the next event horizon, never past `horizon` and
    /// never backwards. A fully quiescent machine (no event at all: a
    /// deadlock unless every finite core is done) jumps straight to
    /// `horizon`, exactly as per-cycle stepping would idle up to it.
    fn skip_quiescence(&mut self, horizon: Cycle) {
        if !self.cfg.quiescence_skip || self.now >= horizon {
            return;
        }
        let target = self.next_event().unwrap_or(horizon).min(horizon);
        if target > self.now {
            self.now = target;
        }
    }

    /// The earliest cycle `>= now` at which any component can act — the
    /// minimum of the per-component event horizons — or `None` when the
    /// whole machine is quiescent (nothing in flight anywhere, so no
    /// amount of stepping will change its state).
    pub fn next_event(&self) -> Option<Cycle> {
        let now = self.now;
        let mut horizon = self.bus.next_event(now);
        if let Some(mc) = &self.mc {
            horizon = min_opt(horizon, mc.next_event(now));
        }
        horizon = min_opt(horizon, self.dram.next_event(now));
        for i in 0..self.cfg.num_cores {
            let may_post = !self.bus.has_outstanding(CoreId::new(i));
            horizon = min_opt(horizon, self.cores[i].next_event(now, may_post));
        }
        horizon
    }

    /// First cycle of the current measurement window (0 until
    /// [`Machine::reset_measurements`] moves it).
    pub fn measure_start(&self) -> Cycle {
        self.measure_start
    }

    /// Cycles elapsed in the current measurement window — the
    /// denominator of the summary's utilisations.
    pub fn measured_cycles(&self) -> Cycle {
        self.now - self.measure_start
    }

    /// Builds the current run summary. Utilisations are computed over
    /// the current measurement window (since the last
    /// [`Machine::reset_measurements`], or the whole run without one).
    pub fn summary(&self) -> RunSummary {
        let cores = (0..self.cfg.num_cores)
            .map(|i| {
                let core = &self.cores[i];
                let pmc = self.pmc.core(CoreId::new(i));
                CoreSummary {
                    completed_at: if self.finite[i] { core.completed_at() } else { None },
                    instructions: core.instructions(),
                    bus_requests: pmc.bus_requests(),
                    max_gamma: pmc.max_gamma(),
                    total_gamma: pmc.total_gamma(),
                }
            })
            .collect();
        let window = self.measured_cycles().max(1);
        RunSummary {
            cycles: self.now,
            cores,
            bus_utilization: self.bus.stats().utilization(window),
            mc_utilization: self.mc.as_ref().map(|mc| mc.stats().utilization(window)),
        }
    }

    /// Clears every measurement (PMCs, per-resource statistics, trace)
    /// without touching architectural state — the warm-up idiom — and
    /// starts a new measurement window at the current cycle, so the
    /// summary's utilisations divide by the cycles actually measured
    /// rather than the absolute cycle count.
    pub fn reset_measurements(&mut self) {
        self.pmc.reset();
        self.bus.reset_stats();
        if let Some(mc) = &mut self.mc {
            mc.reset_stats();
        }
        self.trace.clear();
        self.measure_start = self.now;
    }

    /// Number of cycles actually stepped so far — `now()` minus the
    /// quiescent cycles the event-driven loop jumped over.
    pub fn steps_executed(&self) -> u64 {
        self.steps_executed
    }

    /// Advances the machine by one cycle.
    pub fn step(&mut self) {
        self.steps_executed += 1;
        let now = self.now;

        // 1. Bus completion.
        if let Some(done) = self.bus.take_completed(now) {
            self.handle_completion(done, now);
        }

        // 1b. Memory-controller-queue completion: the miss has won
        // controller admission; its line fetch enters DRAM immediately.
        if let Some(mc) = &mut self.mc {
            if let Some(done) = mc.take_completed(now) {
                self.trace.push(TraceEvent::Complete {
                    resource: ResourceId::MEMORY_CONTROLLER,
                    core: done.core,
                    cycle: now,
                    kind: done.kind,
                });
                self.pmc.record_request(
                    done.core,
                    RequestRecord {
                        resource: ResourceId::MEMORY_CONTROLLER,
                        kind: done.kind,
                        addr: done.addr,
                        ready: done.ready,
                        granted: done.granted,
                        completed: now,
                        contenders: self.mc_contenders_at_post[done.core.index()],
                    },
                );
                self.dram.enqueue(done.core, done.addr, now);
            }
        }

        // 2. DRAM.
        if let Some(c) = self.dram.tick(now) {
            self.cores[c.core.index()].enqueue_refill(c.addr, c.finished);
        }

        // 3. Core pipelines.
        for i in 0..self.cfg.num_cores {
            let was_done = self.cores[i].is_done();
            let stalls = self.cores[i].tick(now);
            if stalls > 0 {
                self.pmc.core_mut(CoreId::new(i)).sb_stall_cycles += stalls;
            }
            if !was_done && self.finite[i] && self.cores[i].is_done() {
                self.unfinished_count -= 1;
            }
        }

        // 4. Posting.
        for i in 0..self.cfg.num_cores {
            let id = CoreId::new(i);
            if self.bus.has_outstanding(id) {
                continue;
            }
            // A request is presented to the bus at the first cycle where
            // it is ready AND the core's master slot is free; γ counts
            // from that cycle. Cycles spent blocked behind the core's own
            // earlier transaction are pipeline serialisation, not bus
            // contention, so they never inflate γ — which keeps the
            // invariant γ <= ubd that Eq. 1 promises.
            let post = match self.cores[i].want_post() {
                Some(p) if p.ready <= now => {
                    self.cores[i].take_post();
                    Some((p.kind, p.addr))
                }
                Some(_) => None, // not ready yet
                None => match (
                    self.cores[i].store_buffer.head(),
                    self.cores[i].store_buffer.head_ready(),
                ) {
                    (Some(addr), Some(ready)) if ready <= now => Some((BusOpKind::Store, addr)),
                    _ => None,
                },
            };
            if let Some((kind, addr)) = post {
                self.contenders_at_post[i] = self.bus.contenders_of(id);
                self.bus.post(id, kind, addr, now);
                self.trace.push(TraceEvent::Ready {
                    resource: ResourceId::BUS,
                    core: id,
                    cycle: now,
                    kind,
                });
            }
        }

        // 5. Bus arbitration.
        let l2 = &mut self.l2;
        let pmc = &mut self.pmc;
        let bus_cfg = self.cfg.topology.bus;
        let granted = self.bus.try_grant(now, |core, pending| match pending.kind {
            BusOpKind::Load | BusOpKind::Ifetch => match l2.touch(core, pending.addr) {
                Access::Hit => {
                    pmc.core_mut(core).l2_hits += 1;
                    (bus_cfg.l2_hit_occupancy, Some(true))
                }
                Access::Miss => {
                    pmc.core_mut(core).l2_misses += 1;
                    (bus_cfg.transfer_occupancy, Some(false))
                }
            },
            BusOpKind::Store => {
                // Write-through stores terminate at the L2 (allocating the
                // line); they never propagate to DRAM in this model, and
                // being posted writes they hold the bus only for
                // `store_occupancy` cycles (§2: "immediately answered").
                l2.touch(core, pending.addr);
                (bus_cfg.store_occupancy, Some(true))
            }
            BusOpKind::MissResponse => (bus_cfg.transfer_occupancy, None),
        });
        if let Some(txn) = granted {
            self.trace.push(TraceEvent::Grant {
                resource: ResourceId::BUS,
                core: txn.core,
                cycle: txn.granted,
                gamma: txn.gamma(),
                occupancy: txn.until - txn.granted,
                kind: txn.kind,
            });
        }

        // 6. Memory-controller-queue arbitration (two-level topologies):
        // a fixed service occupancy per admitted miss, granted by the
        // queue's own arbiter.
        if let Some(mc) = &mut self.mc {
            let occupancy = mc.worst_occupancy();
            if let Some(txn) = mc.try_grant(now, |_, _| (occupancy, None)) {
                self.trace.push(TraceEvent::Grant {
                    resource: ResourceId::MEMORY_CONTROLLER,
                    core: txn.core,
                    cycle: txn.granted,
                    gamma: txn.gamma(),
                    occupancy: txn.until - txn.granted,
                    kind: txn.kind,
                });
            }
        }

        self.now += 1;
    }

    fn handle_completion(&mut self, txn: ActiveTxn, now: Cycle) {
        self.trace.push(TraceEvent::Complete {
            resource: ResourceId::BUS,
            core: txn.core,
            cycle: now,
            kind: txn.kind,
        });
        let record = RequestRecord {
            resource: ResourceId::BUS,
            kind: txn.kind,
            addr: txn.addr,
            ready: txn.ready,
            granted: txn.granted,
            completed: now,
            contenders: self.contenders_at_post[txn.core.index()],
        };
        self.pmc.record_request(txn.core, record);
        let was_done = self.cores[txn.core.index()].is_done();
        let core = &mut self.cores[txn.core.index()];
        match txn.kind {
            BusOpKind::Load | BusOpKind::Ifetch => {
                if txn.l2_hit == Some(true) {
                    core.on_data_return(txn.addr, now);
                } else if let Some(mc) = &mut self.mc {
                    // Request phase of a split transaction on a two-level
                    // topology: the miss now arbitrates for controller
                    // admission before its line fetch may enter DRAM.
                    self.mc_contenders_at_post[txn.core.index()] = mc.contenders_of(txn.core);
                    mc.post(txn.core, txn.kind, txn.addr, now);
                    self.trace.push(TraceEvent::Ready {
                        resource: ResourceId::MEMORY_CONTROLLER,
                        core: txn.core,
                        cycle: now,
                        kind: txn.kind,
                    });
                } else {
                    // Single-bus topology: fetch the line directly.
                    self.dram.enqueue(txn.core, txn.addr, now);
                }
            }
            BusOpKind::MissResponse => {
                core.on_data_return(txn.addr, now);
            }
            BusOpKind::Store => {
                core.store_buffer.complete_head(now);
            }
        }
        let idx = txn.core.index();
        if !was_done && self.finite[idx] && self.cores[idx].is_done() {
            self.unfinished_count -= 1;
        }
    }
}

/// Minimum of two optional horizons (`None` = no event).
fn min_opt(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Chained builder for a [`Machine`]: start from a base configuration,
/// adjust the cores and caches, and compose the request-path topology
/// resource by resource.
///
/// ```
/// use rrb_sim::{MachineBuilder, BusConfig, McQueueConfig};
///
/// # fn main() -> Result<(), rrb_sim::SimError> {
/// let machine = MachineBuilder::new()
///     .cores(4)
///     .bus(BusConfig::ngmp())
///     .then_memory_controller(McQueueConfig::ngmp())
///     .build()?;
/// assert_eq!(machine.config().ubd_breakdown().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    cfg: MachineConfig,
}

impl MachineBuilder {
    /// A builder over the reference configuration
    /// ([`MachineConfig::ngmp_ref`]).
    pub fn new() -> Self {
        MachineBuilder { cfg: MachineConfig::ngmp_ref() }
    }

    /// A builder over an explicit base configuration.
    pub fn from_config(cfg: MachineConfig) -> Self {
        MachineBuilder { cfg }
    }

    /// Sets the core count.
    #[must_use]
    pub fn cores(mut self, num_cores: usize) -> Self {
        self.cfg.num_cores = num_cores;
        if (self.cfg.l2.ways as usize) < num_cores {
            self.cfg.l2.ways = num_cores as u32;
        }
        self
    }

    /// Replaces the whole request-path topology.
    #[must_use]
    pub fn topology(mut self, topology: Topology) -> Self {
        self.cfg.topology = topology;
        self
    }

    /// Sets the bus (resource 0) and drops any chained resource — the
    /// start of a fresh request path.
    #[must_use]
    pub fn bus(mut self, bus: BusConfig) -> Self {
        self.cfg.topology = Topology::single_bus(bus);
        self
    }

    /// Sets the bus arbitration policy in place.
    #[must_use]
    pub fn bus_arbiter(mut self, arbiter: ArbiterKind) -> Self {
        self.cfg.topology.bus.arbiter = arbiter;
        self
    }

    /// Chains a memory-controller queue behind the bus (resource 1).
    #[must_use]
    pub fn then_memory_controller(mut self, mc: McQueueConfig) -> Self {
        self.cfg.topology.mc = Some(mc);
        self
    }

    /// Enables or disables the per-request record log.
    #[must_use]
    pub fn record_requests(mut self, on: bool) -> Self {
        self.cfg.record_requests = on;
        self
    }

    /// Enables or disables the resource-event trace.
    #[must_use]
    pub fn record_trace(mut self, on: bool) -> Self {
        self.cfg.record_trace = on;
        self
    }

    /// Enables or disables quiescence skipping in `run`/`run_for`
    /// (cycle-identical either way; disable to force per-cycle stepping
    /// when debugging the simulator itself).
    #[must_use]
    pub fn quiescence_skip(mut self, on: bool) -> Self {
        self.cfg.quiescence_skip = on;
        self
    }

    /// Enables or disables steady-state period skipping in `run`
    /// (cycle-identical either way; the skip also disables itself when
    /// it cannot be proven sound — see
    /// [`MachineConfig::period_skip`]).
    #[must_use]
    pub fn period_skip(mut self, on: bool) -> Self {
        self.cfg.period_skip = on;
        self
    }

    /// The configuration built so far.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Consumes the builder, returning the configuration (e.g. to hand
    /// to a campaign instead of a single machine).
    pub fn into_config(self) -> MachineConfig {
        self.cfg
    }

    /// Validates the configuration and builds the machine.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] when the composed configuration is
    /// invalid.
    pub fn build(self) -> Result<Machine, SimError> {
        Machine::new(self.cfg)
    }
}

impl Default for MachineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    /// DL1-thrashing load addresses: `count` lines, all mapping to the
    /// same DL1 set (stride = sets * line = 4 KB on the NGMP config),
    /// based at 32 KB to stay clear of the ifetch L2 sets.
    fn thrash_addrs(count: u64) -> Vec<u64> {
        (0..count).map(|i| 32 * 1024 + i * 4096).collect()
    }

    fn rsk_load_body(k_nops: usize) -> Vec<Instr> {
        let mut body = Vec::new();
        for a in thrash_addrs(5) {
            body.push(Instr::load(a));
            body.extend(std::iter::repeat_n(Instr::Nop, k_nops));
        }
        body
    }

    #[test]
    fn single_core_rsk_in_isolation_has_zero_gamma() {
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 50));
        let s = m.run().expect("run");
        let c0 = s.core(CoreId::new(0));
        assert!(c0.completed());
        assert_eq!(c0.max_gamma, Some(0), "no contenders, no contention");
        assert_eq!(c0.total_gamma, 0);
        // 5 loads * 50 iterations, plus a handful of ifetch/refill txns.
        assert!(c0.bus_requests >= 250);
    }

    #[test]
    fn loads_miss_dl1_every_time() {
        // W+1 same-set lines thrash the 4-way DL1 (§2).
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 100));
        m.run().expect("run");
        let stats = m.dl1_stats(CoreId::new(0));
        assert_eq!(stats.hits, 0, "every rsk load must miss DL1");
        assert_eq!(stats.misses, 500);
    }

    #[test]
    fn rsk_hits_l2_after_first_iteration() {
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 100));
        m.run().expect("run");
        let pmc = m.pmc().core(CoreId::new(0));
        // 5 data lines + a few ifetch lines miss once; everything else hits.
        assert!(pmc.l2_misses <= 8, "l2 misses: {}", pmc.l2_misses);
        assert!(pmc.l2_hits >= 495);
    }

    #[test]
    fn four_saturating_rsk_reach_full_bus_utilization() {
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        for i in 0..4 {
            m.load_program(CoreId::new(i), Program::endless(rsk_load_body(0)));
        }
        let s = m.run_for(100_000);
        assert!(
            s.bus_utilization > 0.99,
            "Nc-1 rsk must saturate the bus (got {})",
            s.bus_utilization
        );
    }

    #[test]
    fn synchrony_effect_on_reference_architecture() {
        // §5.2 / Fig. 6(b): with 4 rsk on the ref architecture, almost all
        // requests suffer the same γ = ubd - δ_rsk = 27 - 1 = 26.
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 2000));
        for i in 1..4 {
            m.load_program(CoreId::new(i), Program::endless(rsk_load_body(0)));
        }
        let _ = m.run().expect("run");
        let pmc = m.pmc().core(CoreId::new(0));
        let (mode, count) = pmc.mode_gamma().expect("requests recorded");
        assert_eq!(mode, 26, "gamma histogram: {:?}", pmc.gamma_histogram);
        assert!(
            count as f64 / pmc.bus_requests() as f64 > 0.95,
            "synchrony: one delay dominates ({count} of {})",
            pmc.bus_requests()
        );
        // And crucially: ubd = 27 is never observed (ubd_m < ubd).
        assert!(pmc.max_gamma().expect("max") < 27);
    }

    #[test]
    fn synchrony_effect_on_variant_architecture() {
        // Variant: δ_rsk = 4, so the dominant γ is 27 - 4 = 23 (Fig. 6(b)).
        let mut m = Machine::new(MachineConfig::ngmp_var()).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 2000));
        for i in 1..4 {
            m.load_program(CoreId::new(i), Program::endless(rsk_load_body(0)));
        }
        let _ = m.run().expect("run");
        let pmc = m.pmc().core(CoreId::new(0));
        let (mode, _) = pmc.mode_gamma().expect("requests recorded");
        assert_eq!(mode, 23, "gamma histogram: {:?}", pmc.gamma_histogram);
    }

    #[test]
    fn contender_histogram_shows_three_under_saturation() {
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 500));
        for i in 1..4 {
            m.load_program(CoreId::new(i), Program::endless(rsk_load_body(0)));
        }
        let _ = m.run().expect("run");
        let hist = &m.pmc().core(CoreId::new(0)).contender_histogram;
        let at_three: u64 = hist.get(&3).copied().unwrap_or(0);
        let total: u64 = hist.values().sum();
        assert!(
            at_three as f64 / total as f64 > 0.9,
            "under saturation nearly every request sees 3 contenders: {hist:?}"
        );
    }

    #[test]
    fn cycle_budget_guards_livelock() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.max_cycles = 100;
        let mut m = Machine::new(cfg).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 1_000_000));
        match m.run() {
            Err(SimError::CycleBudgetExhausted { incomplete, .. }) => {
                assert_eq!(incomplete, vec![0]);
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn no_such_core_is_reported() {
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        let err = m.try_load_program(CoreId::new(9), Program::empty());
        assert_eq!(err, Err(SimError::NoSuchCore { core: 9, num_cores: 4 }));
    }

    #[test]
    fn store_program_drains_through_bus() {
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        let body: Vec<Instr> = thrash_addrs(5).into_iter().map(Instr::store).collect();
        m.load_program(CoreId::new(0), Program::from_body(body, 100));
        let s = m.run().expect("run");
        assert!(s.core(CoreId::new(0)).completed());
        // Keep the machine running so the buffer drains fully, then check
        // that stores reached the bus.
        let pmc = m.pmc().core(CoreId::new(0));
        assert!(pmc.bus_requests() >= 400, "stores must generate bus writes");
    }

    #[test]
    fn store_rsk_under_contention_reaches_full_ubd() {
        // §5.3: buffered stores are injected back to back (δ = 0), so under
        // saturation each drained store suffers the full ubd = 27 — the
        // one case where ubd is actually observable.
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        let body: Vec<Instr> = thrash_addrs(5).into_iter().map(Instr::store).collect();
        m.load_program(CoreId::new(0), Program::from_body(body, 500));
        for i in 1..4 {
            let contender: Vec<Instr> = thrash_addrs(5).into_iter().map(Instr::load).collect();
            m.load_program(CoreId::new(i), Program::endless(contender));
        }
        let _ = m.run().expect("run");
        let pmc = m.pmc().core(CoreId::new(0));
        let (mode, _) = pmc.mode_gamma().expect("requests");
        assert_eq!(mode, 27, "gamma histogram: {:?}", pmc.gamma_histogram);
    }

    #[test]
    fn reset_measurements_clears_counters_keeps_state() {
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 10));
        m.run().expect("run");
        assert!(m.pmc().core(CoreId::new(0)).bus_requests() > 0);
        m.reset_measurements();
        assert_eq!(m.pmc().core(CoreId::new(0)).bus_requests(), 0);
        assert_eq!(m.bus().stats().grants, 0);
    }

    #[test]
    fn trace_records_grants_when_enabled() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.record_trace = true;
        let mut m = Machine::new(cfg).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 5));
        m.run().expect("run");
        assert!(m.trace().events().iter().any(|e| matches!(e, TraceEvent::Grant { .. })));
    }

    #[test]
    fn memory_controller_contention_is_modelled() {
        // §5.1: "contention only happens on the bus and the memory
        // controller". Two cores streaming through working sets larger
        // than their L2 partitions queue at the FCFS controller.
        let cfg = MachineConfig::ngmp_ref();
        let miss_body = |core: usize| -> Vec<Instr> {
            // Stride of one DL1 span over twice the partition: misses
            // DL1 and L2 every time.
            let base = 0x4000_0000 + 0x0400_0000 * core as u64;
            (0..64).map(|i| Instr::load(base + i * 4096)).collect()
        };
        let mut solo = Machine::new(cfg.clone()).expect("config");
        solo.load_program(CoreId::new(0), Program::endless(miss_body(0)));
        solo.run_for(60_000);
        let solo_wait = solo.dram().stats().queue_wait_cycles;

        let mut duo = Machine::new(cfg.clone()).expect("config");
        duo.load_program(CoreId::new(0), Program::endless(miss_body(0)));
        duo.load_program(CoreId::new(1), Program::endless(miss_body(1)));
        duo.run_for(60_000);
        let duo_wait = duo.dram().stats().queue_wait_cycles;
        assert!(
            duo_wait > solo_wait * 2,
            "a second memory-hungry core must queue at the controller              (solo {solo_wait}, duo {duo_wait})"
        );
    }

    #[test]
    fn run_for_advances_all_infinite_workload() {
        let cfg = MachineConfig::ngmp_ref();
        let mut m = Machine::new(cfg.clone()).expect("config");
        for i in 0..4 {
            m.load_program(CoreId::new(i), Program::endless(rsk_load_body(0)));
        }
        let s = m.run_for(5_000);
        assert_eq!(s.cycles, 5_000);
        for i in 0..4 {
            let c = s.core(CoreId::new(i));
            assert!(c.instructions > 0, "core {i} must make progress");
            assert_eq!(c.completed_at, None, "endless programs never complete");
        }
        // run() with no finite programs returns immediately.
        let before = m.now();
        m.run().expect("vacuous run");
        assert_eq!(m.now(), before);
    }

    #[test]
    fn gantt_of_saturated_machine_shows_dense_bus() {
        let mut cfg = MachineConfig::toy(4, 2);
        cfg.record_trace = true;
        let mut m = Machine::new(cfg.clone()).expect("config");
        for i in 0..4 {
            m.load_program(CoreId::new(i), Program::endless(rsk_load_body(0)));
        }
        m.run_for(400);
        let g = m.trace().gantt(4, 300, 380);
        let occupied = g.chars().filter(|&c| c == '#').count();
        // Four rows over an 80-cycle window on a saturated bus: the
        // union of rows covers nearly every cycle.
        assert!(
            occupied >= 70,
            "gantt too sparse:
{g}"
        );
    }

    #[test]
    fn two_level_misses_arbitrate_at_the_controller_queue() {
        // §5.1: "contention only happens on the bus and the memory
        // controller". On the two-level topology, concurrent L2-miss
        // streams must queue (γ_mc > 0) at the controller resource.
        let mut cfg = MachineConfig::ngmp_two_level();
        cfg.record_trace = true;
        let miss_body = |core: usize| -> Vec<Instr> {
            let base = 0x4000_0000 + 0x0400_0000 * core as u64;
            (0..64).map(|i| Instr::load(base + i * 4096)).collect()
        };
        let mut m = Machine::new(cfg).expect("config");
        for i in 0..2 {
            m.load_program(CoreId::new(i), Program::endless(miss_body(i)));
        }
        let s = m.run_for(30_000);
        let mc = m.memory_controller().expect("two-level topology has an mc queue");
        assert_eq!(mc.id(), ResourceId::MEMORY_CONTROLLER);
        assert!(mc.stats().grants > 0, "misses must pass through the queue");
        assert!(s.mc_utilization.expect("mc utilisation reported") > 0.0);
        assert!(m.pmc().core(CoreId::new(0)).requests_at(ResourceId::MEMORY_CONTROLLER) > 0);
        // The bus staggers the two miss streams, so which core queues at
        // the controller is schedule-dependent — but *someone* must.
        let max_mc_gamma = (0..2)
            .filter_map(|i| {
                m.pmc().core(CoreId::new(i)).max_gamma_at(ResourceId::MEMORY_CONTROLLER)
            })
            .max()
            .expect("mc gammas recorded");
        assert!(max_mc_gamma > 0, "a second miss stream must contend at the controller");
        let mc_ubd = m.config().ubd_breakdown()[1].ubd;
        assert!(
            max_mc_gamma <= mc_ubd,
            "per-resource gamma {max_mc_gamma} must respect the per-resource term {mc_ubd}"
        );
        assert!(
            m.trace().events().iter().any(|e| e.resource() == ResourceId::MEMORY_CONTROLLER
                && matches!(e, TraceEvent::Grant { .. })),
            "trace must tag controller-queue grants"
        );
    }

    #[test]
    fn two_level_preserves_bus_synchrony() {
        // The extra resource sits behind the L2, so the steady-state
        // (L2-hitting) rsk traffic still sees the pure bus algebra:
        // dominant γ_bus = ubd_bus - δ_rsk = 26.
        let mut m = Machine::new(MachineConfig::ngmp_two_level()).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 2000));
        for i in 1..4 {
            m.load_program(CoreId::new(i), Program::endless(rsk_load_body(0)));
        }
        let _ = m.run().expect("run");
        let pmc = m.pmc().core(CoreId::new(0));
        let (mode, _) = pmc.mode_gamma().expect("requests recorded");
        assert_eq!(mode, 26, "gamma histogram: {:?}", pmc.gamma_histogram);
    }

    #[test]
    fn single_bus_machine_has_no_controller_resource() {
        let m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        assert!(m.memory_controller().is_none());
        assert!(m.resource(ResourceId::MEMORY_CONTROLLER).is_none());
        assert_eq!(m.resource(ResourceId::BUS).expect("bus").id(), ResourceId::BUS);
        assert_eq!(m.summary().mc_utilization, None);
    }

    #[test]
    fn builder_composes_topologies() {
        use crate::config::McQueueConfig;
        let m = Machine::builder()
            .cores(3)
            .bus_arbiter(crate::bus::ArbiterKind::Fifo)
            .then_memory_controller(McQueueConfig {
                service_occupancy: 4,
                arbiter: ArbiterKind::Fifo,
            })
            .record_trace(true)
            .build()
            .expect("build");
        assert_eq!(m.config().num_cores, 3);
        assert_eq!(m.bus().arbiter_kind(), ArbiterKind::Fifo);
        assert_eq!(m.memory_controller().expect("mc").arbiter_kind(), ArbiterKind::Fifo);
        assert_eq!(m.config().ubd(), m.config().bus_ubd() + 2 * 4);
        assert!(m.trace().is_enabled());
    }

    /// One machine per stepping mode over the same config and programs.
    fn paired_machines(mut cfg: MachineConfig) -> (Machine, Machine) {
        cfg.quiescence_skip = true;
        let skip = Machine::new(cfg.clone()).expect("config");
        cfg.quiescence_skip = false;
        let step = Machine::new(cfg).expect("config");
        (skip, step)
    }

    #[test]
    fn quiescence_skip_is_cycle_identical_on_contended_run() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.record_trace = true;
        let (mut a, mut b) = paired_machines(cfg);
        for m in [&mut a, &mut b] {
            m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(2), 300));
            for i in 1..4 {
                m.load_program(CoreId::new(i), Program::endless(rsk_load_body(0)));
            }
        }
        let sa = a.run().expect("skip run");
        let sb = b.run().expect("step run");
        assert_eq!(sa, sb, "summaries must be identical across stepping modes");
        assert_eq!(a.now(), b.now());
        assert_eq!(a.trace().events(), b.trace().events());
        assert_eq!(a.bus().stats(), b.bus().stats());
        assert_eq!(a.dram().stats(), b.dram().stats());
    }

    #[test]
    fn quiescence_skip_is_cycle_identical_on_dram_bound_run_for() {
        // The stall-heavy case the skip targets: every load misses L2, so
        // cores spend most cycles waiting on the serialised controller.
        let miss_body = |core: usize| -> Vec<Instr> {
            let base = 0x4000_0000 + 0x0400_0000 * core as u64;
            (0..64).map(|i| Instr::load(base + i * 4096)).collect()
        };
        let (mut a, mut b) = paired_machines(MachineConfig::ngmp_two_level());
        for m in [&mut a, &mut b] {
            for i in 0..2 {
                m.load_program(CoreId::new(i), Program::endless(miss_body(i)));
            }
        }
        let sa = a.run_for(20_000);
        let sb = b.run_for(20_000);
        assert_eq!(sa, sb);
        assert_eq!(sa.cycles, 20_000, "run_for lands exactly on the requested cycle");
        assert_eq!(a.dram().stats(), b.dram().stats());
        assert_eq!(a.l2().stats(CoreId::new(0)), b.l2().stats(CoreId::new(0)));
    }

    #[test]
    fn quiescence_skip_preserves_budget_exhaustion() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.max_cycles = 100;
        let (mut a, mut b) = paired_machines(cfg);
        for m in [&mut a, &mut b] {
            m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 1_000_000));
        }
        assert_eq!(a.run(), b.run(), "same error, same incomplete set");
        assert_eq!(a.now(), b.now(), "both stop at the budget");
    }

    #[test]
    fn next_event_is_none_on_quiescent_machine() {
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        assert_eq!(m.next_event(), None, "freshly built: nothing in flight");
        m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(0), 5));
        assert_eq!(m.next_event(), Some(0), "a loaded core dispatches at its start cycle");
        m.run().expect("run");
        assert_eq!(m.next_event(), None, "all work drained: quiescent again");
    }

    #[test]
    fn utilization_uses_measurement_window_after_reset() {
        // Warm-up idiom: idle warm-up, reset, then saturate the bus. The
        // absolute-cycle denominator would under-report utilisation by
        // the warm-up share; the window denominator must not.
        let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
        m.run_for(50_000); // long idle warm-up, no programs loaded
        for i in 0..4 {
            m.load_program(CoreId::new(i), Program::endless(rsk_load_body(0)));
        }
        m.run_for(2_000); // let the rsk reach steady state
        m.reset_measurements();
        assert_eq!(m.measure_start(), 52_000);
        let s = m.run_for(10_000);
        assert_eq!(m.measured_cycles(), 10_000);
        assert!(
            s.bus_utilization > 0.99,
            "saturated window must report ~full utilisation (got {})",
            s.bus_utilization
        );
    }

    #[test]
    fn builder_forces_per_cycle_stepping() {
        let m = Machine::builder().quiescence_skip(false).build().expect("build");
        assert!(!m.config().quiescence_skip);
        assert!(Machine::builder().build().expect("build").config().quiescence_skip);
    }

    #[test]
    fn isolation_execution_time_is_deterministic() {
        let run_once = || {
            let mut m = Machine::new(MachineConfig::ngmp_ref()).expect("config");
            m.load_program(CoreId::new(0), Program::from_body(rsk_load_body(3), 200));
            m.run().expect("run").core(CoreId::new(0)).execution_time().expect("done")
        };
        assert_eq!(run_once(), run_once());
    }
}
