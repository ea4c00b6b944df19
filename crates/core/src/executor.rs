//! The unified batch-execution front end: a warm [`MachineArena`]
//! behind one [`Executor`].
//!
//! Every measurement in this crate is a [`RunSpec`] — one machine, one
//! workload — and every run reaches the simulator the same way:
//! [`Scenario::plan`](crate::scenario::Scenario::plan) (or a
//! [`Campaign`](crate::campaign::Campaign) plan, which deduplicates
//! across scenarios) → [`Executor`] (a [`WorkerPool`] and an optional
//! store) → one [`MachineArena`] per worker:
//!
//! ```
//! use rrb::campaign::RunSpec;
//! use rrb::executor::Executor;
//! use rrb_kernels::{rsk_nop, AccessKind};
//! use rrb_sim::{CoreId, MachineConfig};
//!
//! let cfg = MachineConfig::toy(4, 2);
//! let scua = rsk_nop(AccessKind::Load, 1, &cfg, CoreId::new(0), 60);
//! let specs: Vec<RunSpec> = (0..4)
//!     .map(|k| RunSpec::contended_rsk(format!("k={k}"), cfg.clone(), scua.clone(), AccessKind::Load))
//!     .collect();
//! let (results, _usage) = Executor::new().jobs(2).execute(&specs);
//! assert!(results.iter().all(Result::is_ok));
//! ```
//!
//! ## The arena
//!
//! A [`MachineArena`] owns at most one [`Machine`] and re-targets it at
//! each incoming spec with [`Machine::reset_to`], which rewinds cores,
//! caches, shared resources, DRAM, PMCs and trace buffers to their
//! just-built state *without reallocating*. The reset is semantically
//! indistinguishable from building a fresh machine — the property test
//! in `tests/prop_arena_reset.rs` pins cycle-for-cycle equality of the
//! two paths over randomized configurations and workloads — so batched
//! runs reuse one warm machine per worker instead of paying an
//! allocator round trip per run.
//!
//! ## The worker pool
//!
//! [`WorkerPool`] is the one place runs execute on worker threads. Its
//! threads live as long as the pool, each keeps one warm
//! [`MachineArena`], and all of them drain one shared queue in
//! submission order. [`WorkerPool::submit`] queues a slice of specs and
//! hands back a channel of outcomes tagged with their slice index, in
//! completion order. [`Executor::execute`] builds a pool for one call
//! when it has more than one job; the `rrb-serve` daemon keeps one for
//! its lifetime and submits every campaign to it, so concurrent
//! campaigns interleave at run granularity.
//!
//! Every run, on a worker or inline, goes through
//! [`MachineArena::execute_stored`], which also contains panics: a run
//! that panics becomes that run's error record, the arena drops the
//! machine it may have left half-stepped, and the thread carries on. So
//! a panicking run reads the same under every `--jobs` and in
//! `rrb serve`.
//!
//! ## What the executor strips
//!
//! A [`RunMeasurement`] exposes aggregate counters and histograms only —
//! nothing in it can observe per-request [`RequestRecord`]s or trace
//! events. The executor therefore disables `record_requests` and
//! `record_trace` on the machines it drives: observationally identical
//! through this API, and it lets the simulator's steady-state
//! fast-forward engage (which refuses to skip when it would have to
//! synthesize per-request records for the skipped periods). Drive a
//! [`Machine`] directly when you need the records or the trace.
//!
//! [`RequestRecord`]: rrb_sim::RequestRecord

use crate::campaign::{undelivered, RunError, RunMeasurement, RunSource, RunSpec, StoreUsage};
use crate::store::{ResultStore, StoreLookup};
use rrb_analysis::Histogram;
use rrb_sim::{CoreId, Machine, MachineConfig};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// One run's full outcome against an optional persistent store: the
/// measurement (or failure), where it came from, and any non-fatal
/// store warnings.
pub type StoredOutcome = (Result<RunMeasurement, RunError>, RunSource, Vec<String>);

/// A reusable machine slot: executes [`RunSpec`]s back to back on one
/// warm [`Machine`], rebuilding only when the slot is still empty.
///
/// The arena is deliberately dumb — no scheduling, no threads; one
/// mutable slot. Each [`WorkerPool`] thread keeps one across jobs, and
/// [`Executor::execute`] drives one inline when it runs serially.
#[derive(Debug, Default)]
pub struct MachineArena {
    machine: Option<Machine>,
}

impl MachineArena {
    /// An empty (cold) arena.
    pub fn new() -> Self {
        MachineArena { machine: None }
    }

    /// Whether the arena holds a machine from a previous run.
    pub fn is_warm(&self) -> bool {
        self.machine.is_some()
    }

    /// Drops the warm machine, forcing the next run to build afresh.
    pub fn clear(&mut self) {
        self.machine = None;
    }

    /// Executes one spec, resetting the warm machine when one is held.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the configuration is invalid, the
    /// workload does not fit the machine, the cycle budget is
    /// exhausted, or the scua never terminates. A failed run leaves the
    /// arena usable: the next call resets (or rebuilds) as usual.
    pub fn execute(&mut self, spec: &RunSpec) -> Result<RunMeasurement, RunError> {
        let cfg = execution_config(&spec.cfg);
        let machine = match self.machine.take() {
            Some(mut m) => match m.reset_to(cfg) {
                Ok(()) => self.machine.insert(m),
                Err(e) => {
                    // Validation failed before any mutation: keep the
                    // warm machine for the next (valid) spec.
                    self.machine = Some(m);
                    return Err(e.into());
                }
            },
            None => self.machine.insert(Machine::new(cfg)?),
        };
        machine.try_load_program(CoreId::new(0), spec.scua.clone())?;
        for (i, contender) in spec.contenders.iter().enumerate() {
            machine.try_load_program(CoreId::new(i + 1), contender.clone())?;
        }
        let summary = machine.run()?;
        let scua = CoreId::new(0);
        let core = summary.core(scua);
        let execution_time = core.execution_time().ok_or(RunError::NonTerminatingScua)?;
        let pmc = machine.pmc().core(scua);
        Ok(RunMeasurement {
            execution_time,
            bus_requests: core.bus_requests,
            instructions: core.instructions,
            gamma_histogram: Histogram::from_bins(
                pmc.gamma_histogram.iter().map(|(&g, &n)| (g, n)),
            ),
            mc_gamma_histogram: Histogram::from_bins(
                pmc.mc_gamma_histogram.iter().map(|(&g, &n)| (g, n)),
            ),
            contender_histogram: Histogram::from_bins(
                pmc.contender_histogram.iter().map(|(&c, &n)| (u64::from(c), n)),
            ),
            bus_utilization: summary.bus_utilization,
            mc_utilization: summary.mc_utilization,
        })
    }

    /// [`MachineArena::execute`] behind an optional persistent store: a
    /// valid, structurally confirmed entry skips simulation entirely; a
    /// missing, corrupt, stale, or colliding entry simulates (recording
    /// a warning when the entry existed but could not be trusted) and
    /// persists the fresh measurement on success.
    ///
    /// This is the per-run function of every scheduler, so it also
    /// contains panics: a run that panics becomes its own error record
    /// and the arena drops its machine, whose state is then unknown.
    pub fn execute_stored(&mut self, spec: &RunSpec, store: Option<&ResultStore>) -> StoredOutcome {
        self.contained(&spec.label, |arena| arena.lookup_or_execute(spec, store))
    }

    fn lookup_or_execute(&mut self, spec: &RunSpec, store: Option<&ResultStore>) -> StoredOutcome {
        let mut warnings = Vec::new();
        if let Some(store) = store {
            match store.lookup(spec) {
                StoreLookup::Hit(m) => return (Ok(m), RunSource::Store, warnings),
                StoreLookup::Miss => {}
                StoreLookup::Rejected(reason) => warnings
                    .push(format!("cache entry rejected, re-executing `{}`: {reason}", spec.label)),
            }
        }
        let result = self.execute(spec);
        let mut recorded = false;
        if let (Some(store), Ok(m)) = (store, &result) {
            match store.insert(spec, m) {
                Ok(written) => recorded = written,
                Err(e) => warnings.push(format!("failed to cache `{}`: {e}", spec.label)),
            }
        }
        (result, RunSource::Simulated { recorded }, warnings)
    }

    /// Runs `run` on this arena, turning a panic into an error outcome
    /// for the run labelled `label` and clearing the arena.
    fn contained(
        &mut self,
        label: &str,
        run: impl FnOnce(&mut Self) -> StoredOutcome,
    ) -> StoredOutcome {
        catch_unwind(AssertUnwindSafe(|| run(self))).unwrap_or_else(|panic| {
            self.clear();
            let why = format!("caught a panic executing `{label}`: {}", panic_message(&*panic));
            (Err(RunError::Analysis(why)), RunSource::Simulated { recorded: false }, Vec::new())
        })
    }
}

fn panic_message(panic: &(dyn Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// The machine configuration a spec actually executes under: identical
/// timing, with the two pure-observability features a
/// [`RunMeasurement`] cannot expose turned off (see the module docs).
fn execution_config(cfg: &MachineConfig) -> MachineConfig {
    let mut cfg = cfg.clone();
    cfg.record_requests = false;
    cfg.record_trace = false;
    cfg
}

/// One queued run: a copy of the submitted spec, its index in the
/// submitted slice, the store to consult, and where the outcome goes.
struct Job {
    spec: RunSpec,
    index: usize,
    store: Option<Arc<ResultStore>>,
    reply: Sender<(usize, StoredOutcome)>,
}

/// Long-lived worker threads draining one shared queue, each with one
/// warm [`MachineArena`] (see the module docs).
pub struct WorkerPool {
    queue: Sender<Job>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` (at least 1) threads on an empty queue.
    pub fn new(workers: usize) -> WorkerPool {
        let (queue, jobs) = channel::<Job>();
        let jobs = Arc::new(Mutex::new(jobs));
        let workers = (0..workers.max(1))
            .map(|_| {
                let jobs = Arc::clone(&jobs);
                std::thread::spawn(move || work(&jobs))
            })
            .collect();
        WorkerPool { queue, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Queues every spec of `specs` against `store` (`None` executes
    /// uncached) and returns the channel their outcomes arrive on, each
    /// tagged with its index in `specs`, in completion order. The
    /// channel disconnects once every queued run has reported; a
    /// receiver dropped early only discards the outcomes, the runs
    /// still execute (and land in the store). The store is refreshed
    /// first, so the runs find what other processes recorded.
    pub fn submit(
        &self,
        specs: &[RunSpec],
        store: Option<&Arc<ResultStore>>,
    ) -> Receiver<(usize, StoredOutcome)> {
        if let Some(store) = store {
            store.refresh();
        }
        let (reply, outcomes) = channel();
        for (index, spec) in specs.iter().enumerate() {
            let job =
                Job { spec: spec.clone(), index, store: store.cloned(), reply: reply.clone() };
            // Sending fails only once every worker is gone; that run
            // then never reports, and the caller records it undelivered.
            let _ = self.queue.send(job);
        }
        outcomes
    }

    /// Graceful shutdown: closes the queue, lets the workers finish
    /// everything already queued, and joins them.
    pub fn shutdown(self) {
        drop(self.queue);
        for worker in self.workers {
            let _ = worker.join();
        }
    }
}

/// A worker thread: one warm arena, jobs in queue order, until the
/// queue closes and runs dry.
fn work(jobs: &Mutex<Receiver<Job>>) {
    let mut arena = MachineArena::new();
    loop {
        // The lock is released at the end of this statement, before the
        // run; a poisoned lock still guards an intact channel.
        let job = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = job else { return };
        let outcome = arena.execute_stored(&job.spec, job.store.as_deref());
        // A submitter that stopped listening still got its run stored.
        let _ = job.reply.send((job.index, outcome));
    }
}

/// The unified batch executor: plans in, plan-ordered results out.
///
/// Builder options select the worker-thread count ([`Executor::jobs`])
/// and a persistent result store ([`Executor::store`]). Whatever the
/// options, the returned results are **indexed by plan position** and
/// byte-identical: scheduling and caching can change how fast the answer
/// arrives, never what it is. Deduplication is the caller's plan's job:
/// a [`Campaign`](crate::campaign::Campaign) hands the executor its
/// unique runs only.
#[derive(Clone)]
pub struct Executor {
    jobs: usize,
    store: Option<Arc<ResultStore>>,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// A serial executor with no persistent store.
    pub fn new() -> Self {
        Executor { jobs: 1, store: None }
    }

    /// Sets the worker-thread count (1 = serial; clamped to the plan
    /// size at execution).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches a persistent [`ResultStore`]: warm entries skip
    /// simulation entirely, fresh results are recorded for the next
    /// batch. Output is byte-identical with or without a store.
    #[must_use]
    pub fn store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Executes one spec and returns its measurement, consulting the
    /// configured store if any.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] as [`MachineArena::execute`] does.
    pub fn run(&self, spec: &RunSpec) -> Result<RunMeasurement, RunError> {
        MachineArena::new().execute_stored(spec, self.store.as_deref()).0
    }

    /// Executes a plan under this executor's options: spreads `specs`
    /// over a [`WorkerPool`] of `jobs` workers (or runs them inline on
    /// one arena when serial) and returns the results **indexed by plan
    /// position** with the [`StoreUsage`] aggregated in plan order
    /// (independent of worker scheduling). The store, if any, is
    /// refreshed once before the first lookup.
    pub fn execute(
        &self,
        specs: &[RunSpec],
    ) -> (Vec<Result<RunMeasurement, RunError>>, StoreUsage) {
        let jobs = self.jobs.min(specs.len().max(1));
        let outcomes: Vec<StoredOutcome> = if jobs == 1 {
            if let Some(store) = &self.store {
                store.refresh();
            }
            let mut arena = MachineArena::new();
            specs.iter().map(|spec| arena.execute_stored(spec, self.store.as_deref())).collect()
        } else {
            let pool = WorkerPool::new(jobs);
            let outcomes = pool.submit(specs, self.store.as_ref());
            // Join before reading: a receiver blocked on the channel would
            // be woken once per run, taking CPU from the workers.
            pool.shutdown();
            let mut slots: Vec<Option<StoredOutcome>> = specs.iter().map(|_| None).collect();
            for (index, outcome) in outcomes {
                if let Some(slot) = slots.get_mut(index) {
                    *slot = Some(outcome);
                }
            }
            let missing = || (Err(undelivered()), RunSource::Simulated { recorded: false }, vec![]);
            slots.into_iter().map(|slot| slot.unwrap_or_else(missing)).collect()
        };
        let mut usage = StoreUsage::default();
        let results = outcomes.into_iter().map(|outcome| usage.tally(outcome)).collect();
        (results, usage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrb_kernels::{rsk, rsk_nop, AccessKind, KernelSpec};
    use rrb_sim::{ArbiterKind, SimError};

    fn toy() -> MachineConfig {
        MachineConfig::toy(4, 2)
    }

    fn plan(n: usize) -> Vec<RunSpec> {
        let cfg = toy();
        (0..n)
            .map(|k| {
                RunSpec::contended_rsk(
                    format!("k={k}"),
                    cfg.clone(),
                    rsk_nop(AccessKind::Load, k, &cfg, CoreId::new(0), 40),
                    AccessKind::Load,
                )
            })
            .collect()
    }

    #[test]
    fn warm_arena_matches_cold_runs() {
        let specs = plan(5);
        let mut arena = MachineArena::new();
        for spec in &specs {
            let warm = arena.execute(spec).expect("warm run");
            let cold = MachineArena::new().execute(spec).expect("cold run");
            assert_eq!(warm, cold, "arena reuse must not change `{}`", spec.label);
        }
        assert!(arena.is_warm());
    }

    #[test]
    fn arena_survives_a_failed_run() {
        let mut arena = MachineArena::new();
        let good = &plan(1)[0];
        let warm = arena.execute(good).expect("first run");
        let mut bad_cfg = toy();
        bad_cfg.topology.bus.arbiter = ArbiterKind::Tdma { slot_cycles: 1 };
        let bad = RunSpec::isolated("bad", bad_cfg, good.scua.clone());
        assert!(matches!(arena.execute(&bad), Err(RunError::Sim(SimError::Config(_)))));
        assert!(arena.is_warm(), "an invalid spec must not cost the warm machine");
        assert_eq!(arena.execute(good).expect("after failure"), warm);
    }

    #[test]
    fn arena_off_is_byte_identical_to_arena_on() {
        // "Off" is a fresh arena (so a freshly built machine) per run.
        let specs = plan(6);
        let on = Executor::new().execute(&specs).0;
        let off: Vec<_> = specs.iter().map(|spec| MachineArena::new().execute(spec)).collect();
        assert_eq!(on, off);
    }

    #[test]
    fn parallel_matches_serial_with_arenas() {
        let specs = plan(6);
        let serial = Executor::new().execute(&specs).0;
        let parallel = Executor::new().jobs(4).execute(&specs).0;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn dedup_scatters_shared_results() {
        // Deduplication lives in the campaign plan: the executor runs the
        // unique specs and the plan scatters them back per scenario.
        use crate::campaign::{Campaign, RunRecord};
        use crate::naive::NaiveScenario;
        use crate::scenario::Scenario;
        let cfg = toy();
        let scua = rsk_nop(AccessKind::Load, 1, &cfg, CoreId::new(0), 40);
        let a = NaiveScenario::new(cfg.clone(), scua.clone(), AccessKind::Load).named("a");
        let b = NaiveScenario::new(cfg, scua, AccessKind::Store).named("b");
        let campaign = Campaign::builder().scenario(a.clone()).scenario(b.clone()).build();
        let plan = campaign.plan();
        assert_eq!(plan.unique_specs().len(), 3, "one shared isolated baseline");
        let results = Executor::new().jobs(2).execute(plan.unique_specs()).0;
        let finished = plan.finish(&results, StoreUsage::default(), 2);
        let mut records = Vec::new();
        for (index, scenario) in [a, b].iter().enumerate() {
            let plain = scenario.outcomes(&Executor::new()).expect("plan");
            let name = scenario.name();
            records.extend(
                plain.iter().map(|o| RunRecord::ok(&name, &o.label, o.measurement().expect("run"))),
            );
            assert_eq!(finished.reports[index], scenario.analyze(&plain));
        }
        assert_eq!(finished.records, records);
    }

    #[test]
    fn isolated_run_reports_requests() {
        let cfg = MachineConfig::ngmp_ref();
        let p = rsk_nop(AccessKind::Load, 0, &cfg, CoreId::new(0), 100);
        let r = Executor::new().run(&RunSpec::isolated("isolated", cfg, p)).expect("run");
        assert!(r.execution_time > 0);
        // 5 loads x 100 iterations plus a few cold ifetch/refill requests.
        assert!(r.bus_requests >= 500);
        assert_eq!(r.instructions, 500);
    }

    #[test]
    fn det_is_zero_without_contenders() {
        let cfg = MachineConfig::ngmp_ref();
        let p = rsk_nop(AccessKind::Load, 0, &cfg, CoreId::new(0), 50);
        let idle = vec![rrb_sim::Program::empty(); cfg.num_cores - 1];
        let executor = Executor::new();
        let iso = executor.run(&RunSpec::isolated("isolated", cfg.clone(), p.clone()));
        let contended = executor.run(&RunSpec::contended("contended", cfg, p, idle));
        assert_eq!(contended.expect("run").execution_time, iso.expect("run").execution_time);
    }

    #[test]
    fn arena_resizes_across_core_counts_and_topologies() {
        let mut arena = MachineArena::new();
        for cfg in [
            MachineConfig::toy(2, 2),
            MachineConfig::ngmp_two_level(),
            MachineConfig::toy(4, 3),
            MachineConfig::ngmp_ref(),
        ] {
            let scua = rsk_nop(AccessKind::Load, 1, &cfg, CoreId::new(0), 30);
            let spec = RunSpec::contended_rsk("r", cfg, scua, AccessKind::Load);
            let warm = arena.execute(&spec).expect("warm");
            let cold = MachineArena::new().execute(&spec).expect("cold");
            assert_eq!(warm, cold);
        }
    }

    #[test]
    fn endless_scua_is_reported_and_leaves_arena_usable() {
        let cfg = toy();
        let mut arena = MachineArena::new();
        let endless =
            RunSpec::isolated("endless", cfg.clone(), rsk(AccessKind::Load, &cfg, CoreId::new(0)));
        assert!(matches!(arena.execute(&endless), Err(RunError::NonTerminatingScua)));
        let good = &plan(1)[0];
        assert_eq!(
            arena.execute(good).expect("run"),
            MachineArena::new().execute(good).expect("run")
        );
    }

    fn nop_spec(label: &str, iterations: u64) -> RunSpec {
        RunSpec::from_kernels(label, MachineConfig::toy(2, 2), &KernelSpec::Nop { iterations }, &[])
    }

    #[test]
    fn pool_executes_and_reports_by_index() {
        let pool = WorkerPool::new(2);
        let specs: Vec<RunSpec> =
            [10, 20, 30].iter().enumerate().map(|(i, &n)| nop_spec(&format!("r{i}"), n)).collect();
        let mut done: Vec<(usize, StoredOutcome)> = pool.submit(&specs, None).iter().collect();
        done.sort_by_key(|d| d.0);
        assert_eq!(done.iter().map(|d| d.0).collect::<Vec<_>>(), [0, 1, 2]);
        for (index, (result, _, _)) in &done {
            assert_eq!(*result, MachineArena::new().execute(&specs[*index]));
        }
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = WorkerPool::new(1);
        let specs: Vec<RunSpec> = (0..8).map(|i| nop_spec("q", 5 + i)).collect();
        let outcomes = pool.submit(&specs, None);
        pool.shutdown(); // must not lose the queued jobs
        assert_eq!(outcomes.iter().count(), 8);
    }

    #[test]
    fn a_panicking_run_becomes_its_error_record_and_clears_the_arena() {
        let mut arena = MachineArena::new();
        let good = &plan(1)[0];
        let warm = arena.execute(good).expect("first run");
        let (result, source, warnings) = arena.contained("boom", |_| panic!("injected"));
        let Err(RunError::Analysis(why)) = result else { panic!("expected an error record") };
        assert_eq!(why, "caught a panic executing `boom`: injected");
        assert_eq!(source, RunSource::Simulated { recorded: false });
        assert!(warnings.is_empty());
        assert!(!arena.is_warm(), "a panicked machine must not be reused");
        assert_eq!(arena.execute(good).expect("after the panic"), warm);
    }
}
