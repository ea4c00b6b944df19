//! The daemon's worker pool: long-lived threads executing [`RunSpec`]s
//! against one shared [`ResultStore`]. Each worker keeps one warm
//! [`MachineArena`] across jobs (the same per-worker arena the `rrb`
//! `Executor` uses for a batch), so
//! back-to-back runs reset an existing machine instead of rebuilding
//! one — the daemon's steady-state fast path.
//!
//! Sharding model: every campaign request turns into one [`Job`] per
//! deduplicated run, all submitted to a single process-wide MPMC queue
//! (an `mpsc` channel behind a mutex-shared receiver). Workers pull
//! jobs in submission order, so concurrent campaigns interleave fairly
//! at run granularity; the content-addressed store is the only shared
//! state, and it already tolerates racing writers (atomic temp+rename
//! entries).
//!
//! Workers only execute: each [`RunDone`] carries the arena's
//! [`StoredOutcome`] back to the submitting connection, whose
//! `CampaignPlan::walk` folds it into the stream in plan order — the
//! same walk `Campaign::run` takes.
//!
//! Error containment: a panicking run is caught with
//! [`std::panic::catch_unwind`] and surfaces as a failed outcome — the
//! worker thread survives and keeps serving.
//!
//! This module is on the lint-enforced no-panic path (`lint_sources`).

use rrb::campaign::{RunError, RunSource, RunSpec};
use rrb::executor::{MachineArena, StoredOutcome};
use rrb::store::ResultStore;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One unit of pool work: execute `spec` against `store` and report to
/// `reply` under the submitter's chosen index.
pub struct Job {
    /// The deduplicated run to execute.
    pub spec: RunSpec,
    /// The submitter's index for this run (position in its unique plan).
    pub index: usize,
    /// The shared persistent store (None executes uncached).
    pub store: Option<Arc<ResultStore>>,
    /// Where the outcome goes. Send failures are ignored: a client that
    /// disconnected mid-campaign no longer listens, but the result is
    /// already in the store for the next query.
    pub reply: Sender<RunDone>,
}

/// The outcome of one pool job.
pub struct RunDone {
    /// The submitter's index for this run.
    pub index: usize,
    /// The measurement (or why the run or its worker failed), where it
    /// came from, and any non-fatal store warnings.
    pub outcome: StoredOutcome,
}

/// A fixed-size pool of worker threads draining a shared job queue.
pub struct WorkerPool {
    sender: Sender<Job>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

/// A cheap handle connection threads use to submit jobs.
#[derive(Clone)]
pub struct PoolHandle {
    sender: Sender<Job>,
}

impl PoolHandle {
    /// Enqueues one job. Fails only after [`WorkerPool::shutdown`].
    ///
    /// # Errors
    ///
    /// Returns the job back when the pool is no longer accepting work.
    pub fn submit(&self, job: Job) -> Result<(), Box<Job>> {
        self.sender.send(job).map_err(|e| Box::new(e.0))
    }
}

impl WorkerPool {
    /// Spawns `workers` (at least 1) threads draining a shared queue.
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let handles = (0..workers)
            .map(|_| {
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || worker_loop(&receiver))
            })
            .collect();
        WorkerPool { sender, handles, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A submission handle for connection threads.
    pub fn handle(&self) -> PoolHandle {
        PoolHandle { sender: self.sender.clone() }
    }

    /// Graceful shutdown: stops accepting jobs, lets the workers drain
    /// everything already queued, and joins them.
    pub fn shutdown(self) {
        // Dropping the last sender closes the queue; workers exit once
        // it is empty. Connection threads hold clones via PoolHandle,
        // so the accept loop must drain connections first.
        drop(self.sender);
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

fn worker_loop(receiver: &Arc<Mutex<Receiver<Job>>>) {
    let mut arena = MachineArena::new();
    loop {
        // Recover the receiver even if a previous holder panicked while
        // holding the lock (the channel itself is not corrupted).
        let guard = match receiver.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        let job = guard.recv();
        drop(guard); // release the queue while simulating
        let Ok(job) = job else { return }; // queue closed: shutdown
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            arena.execute_stored(&job.spec, job.store.as_deref())
        }))
        .unwrap_or_else(|panic| {
            // A machine that panicked mid-run is in an unknown state;
            // drop it so the next job builds fresh.
            arena.clear();
            (
                Err(RunError::Analysis(format!(
                    "worker caught a panic executing `{}`: {}",
                    job.spec.label,
                    panic_message(&panic)
                ))),
                RunSource::Simulated { recorded: false },
                Vec::new(),
            )
        });
        let _ = job.reply.send(RunDone { index: job.index, outcome });
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = panic.downcast_ref::<&str>() {
        s
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrb_kernels::KernelSpec;
    use rrb_sim::MachineConfig;

    fn toy_spec(label: &str, iterations: u64) -> RunSpec {
        let cfg = MachineConfig::toy(2, 2);
        RunSpec::from_kernels(label, cfg, &KernelSpec::Nop { iterations }, &[])
    }

    #[test]
    fn pool_executes_and_reports_by_index() {
        let pool = WorkerPool::new(2);
        let handle = pool.handle();
        let (tx, rx) = channel();
        for (i, iters) in [10u64, 20, 30].iter().enumerate() {
            let job = Job {
                spec: toy_spec(&format!("r{i}"), *iters),
                index: i,
                store: None,
                reply: tx.clone(),
            };
            assert!(handle.submit(job).is_ok());
        }
        drop(tx);
        let mut done: Vec<RunDone> = rx.iter().collect();
        done.sort_by_key(|d| d.index);
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|d| d.outcome.0.is_ok()));
        drop(handle); // shutdown joins workers, which wait on every live handle
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = WorkerPool::new(1);
        let handle = pool.handle();
        let (tx, rx) = channel();
        for i in 0..8 {
            let job = Job {
                spec: toy_spec("q", 5 + i),
                index: i as usize,
                store: None,
                reply: tx.clone(),
            };
            assert!(handle.submit(job).is_ok());
        }
        drop(tx);
        drop(handle);
        pool.shutdown(); // must not lose the queued jobs
        assert_eq!(rx.iter().count(), 8);
    }
}
