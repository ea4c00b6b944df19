//! # rrb-serve — a sharded derivation service over the run store
//!
//! The paper's methodology is embarrassingly memoizable: every grid
//! cell is a pure function of its `RunSpec`, and the content-addressed
//! [`ResultStore`] answers warm queries about 11× faster than the cold
//! simulation path (`BENCH_cache.json` on a 2-vCPU host). This crate
//! turns that store into a *service*: a long-running daemon where the
//! store is a shared, ever-growing memo table and derivation is a thin
//! scheduler over it.
//!
//! The daemon is std-only, like the rest of the workspace: a hand-rolled
//! HTTP/1.1 subset ([`http`]), one long-lived [`WorkerPool`] (the pool
//! `rrb run` executes on too) draining one process-wide job queue, and a
//! router ([`router`]) exposing:
//!
//! | endpoint | what it does |
//! |----------|--------------|
//! | `POST /v1/campaigns` | validate + lint an [`ExperimentSpec`](rrb::spec::ExperimentSpec), shard its deduplicated runs across the pool, stream NDJSON records |
//! | `GET /v1/runs/{spec_hash}` | point query straight from the store (16-hex-digit content address) |
//! | `GET /v1/store/stats` | store facts plus server counters |
//! | `POST /v1/analyze` | static per-cell bounds via `rrb-static`, no simulation |
//! | `GET /healthz` | liveness |
//! | `POST /v1/shutdown` | graceful drain (same as SIGTERM) |
//!
//! Campaign responses stream one JSON object per line, in deterministic
//! plan order: a `campaign` header, one `run` line per planned run
//! (emitted as soon as its result — and every earlier plan position —
//! has landed), one `scenario` line per analysed scenario, a `summary`
//! line, and a final `stats` line. The `run` and `scenario` lines come
//! from `CampaignPlan::walk`, the one plan-order reassembly path that
//! `Campaign::run` also takes, so they carry exactly the records and
//! reports of `rrb run`. Everything *except* the `stats` line is
//! byte-identical across worker counts, cache states, and racing
//! clients.
//!
//! ```no_run
//! use rrb::store::ResultStore;
//! use rrb_serve::{ServeConfig, Server};
//! use std::sync::Arc;
//!
//! # fn main() -> std::io::Result<()> {
//! let store = Arc::new(ResultStore::open(".rrb-cache").map_err(std::io::Error::other)?);
//! let server = Server::bind(ServeConfig::default(), store)?;
//! rrb_serve::trap_termination_signals();
//! let stats = server.run()?; // blocks until SIGTERM or POST /v1/shutdown
//! eprintln!("served {} campaigns", stats.campaigns);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod router;

use rrb::campaign::clamped_jobs;
use rrb::executor::WorkerPool;
use rrb::store::ResultStore;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Duration;

/// How often the signal watcher looks at the SIGTERM/SIGINT flag. It
/// bounds how long a trapped signal waits before the drain starts; it
/// adds nothing to request latency.
const SIGNAL_CHECK_INTERVAL: Duration = Duration::from_millis(50);

/// Upper bound on the self-connect that wakes a blocked `accept()`.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Daemon configuration. [`ServeConfig::default`] matches the CLI
/// defaults (`rrb serve` with no flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7077` (port 0 picks a free one).
    pub addr: String,
    /// Worker threads; 0 means every available CPU. Either way the
    /// count is clamped to the machine's available parallelism —
    /// oversubscribing a pure-CPU simulator pool only adds scheduling
    /// overhead.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { addr: String::from("127.0.0.1:7077"), workers: 0 }
    }
}

/// Counters the daemon reports on exit and under `/v1/store/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Campaign requests accepted.
    pub campaigns: u64,
    /// Point queries answered.
    pub point_queries: u64,
    /// Run records streamed to clients.
    pub runs_streamed: u64,
    /// Runs actually simulated (the rest were store hits).
    pub runs_executed: u64,
}

/// Shared server state: the store, the drain flag, and the counters.
pub(crate) struct ServerState {
    pub(crate) store: Arc<ResultStore>,
    shutdown: AtomicBool,
    /// Where [`ServerState::begin_drain`] connects to wake the accept
    /// loop: the bound address, with loopback for an unspecified IP.
    wake_addr: SocketAddr,
    pub(crate) campaigns: AtomicU64,
    pub(crate) point_queries: AtomicU64,
    pub(crate) runs_streamed: AtomicU64,
    pub(crate) runs_executed: AtomicU64,
}

impl ServerState {
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::terminated()
    }

    /// Starts the graceful drain. [`Server::run`] blocks in `accept()`,
    /// so setting the flag is not enough: a connection to the listener
    /// wakes it, and it stops on seeing the flag. The flag is stored
    /// before the connect, so the loop observes it on the wake-up
    /// connection. A failed connect means the listener is already gone.
    pub(crate) fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect_timeout(&self.wake_addr, WAKE_TIMEOUT);
    }
}

/// A handle for stopping a running [`Server`] from another thread —
/// what `POST /v1/shutdown` and the signal handler do, made available
/// to embedding code (tests, benches).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// Requests a graceful drain: stop accepting connections, finish
    /// in-flight requests, drain queued runs, then return from
    /// [`Server::run`].
    pub fn shutdown(&self) {
        self.state.begin_drain();
    }
}

/// The daemon: a bound listener, its worker pool, and shared state.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    pool: WorkerPool,
}

impl Server {
    /// Binds the listener and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, ...).
    pub fn bind(config: ServeConfig, store: Arc<ResultStore>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let (workers, _) = clamped_jobs(Some(config.workers));
        let state = Arc::new(ServerState {
            store,
            shutdown: AtomicBool::new(false),
            wake_addr,
            campaigns: AtomicU64::new(0),
            point_queries: AtomicU64::new(0),
            runs_streamed: AtomicU64::new(0),
            runs_executed: AtomicU64::new(0),
        });
        Ok(Server { listener, state, pool: WorkerPool::new(workers) })
    }

    /// The bound address (resolves port 0 to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Worker threads in the pool (after clamping).
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// A shutdown handle for embedding code.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { state: Arc::clone(&self.state) }
    }

    /// Accepts connections until a graceful-shutdown request arrives
    /// (SIGTERM/SIGINT via [`trap_termination_signals`],
    /// `POST /v1/shutdown`, or [`ServerHandle::shutdown`]), then drains:
    /// every in-flight connection is joined — streaming campaigns run to
    /// completion — and the worker pool finishes everything already
    /// queued before this returns.
    ///
    /// The loop blocks in `accept()`; each drain trigger wakes it with a
    /// connection to the listener.
    ///
    /// # Errors
    ///
    /// Propagates listener failures, after the same drain; per-connection
    /// errors only drop that connection.
    pub fn run(self) -> std::io::Result<ServeStats> {
        let (stop_watcher, stopped) = mpsc::channel::<()>();
        // The scope joins the signal watcher and every connection thread.
        let state = &*self.state;
        let accepted = std::thread::scope(|scope| {
            scope.spawn(move || watch_signals(state, &stopped));
            let accepted = self.accept_until_drain(scope);
            // After an accept failure too, connections close once their
            // current request is answered.
            state.shutdown.store(true, Ordering::SeqCst);
            drop(stop_watcher);
            accepted
        });
        self.pool.shutdown();
        accepted?;
        Ok(ServeStats {
            campaigns: self.state.campaigns.load(Ordering::Relaxed),
            point_queries: self.state.point_queries.load(Ordering::Relaxed),
            runs_streamed: self.state.runs_streamed.load(Ordering::Relaxed),
            runs_executed: self.state.runs_executed.load(Ordering::Relaxed),
        })
    }

    /// The accept loop: one thread per connection, spawned in `scope`,
    /// until the drain flag is seen.
    fn accept_until_drain<'s>(&'s self, scope: &'s Scope<'s, '_>) -> std::io::Result<()> {
        let (state, pool) = (&*self.state, &self.pool);
        loop {
            let (stream, _) = self.listener.accept()?;
            if state.draining() {
                // The wake-up connection, or a client racing the drain.
                return Ok(());
            }
            scope.spawn(move || router::handle_connection(stream, state, pool));
        }
    }
}

/// Turns a trapped SIGTERM/SIGINT into a drain. The handler may only set
/// a flag, and `accept()` resumes after a signal, so this thread checks
/// the flag and wakes the loop. It exits when `stop` disconnects.
fn watch_signals(state: &ServerState, stop: &Receiver<()>) {
    while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(SIGNAL_CHECK_INTERVAL) {
        if signal::terminated() {
            state.begin_drain();
            return;
        }
    }
}

/// Installs SIGTERM/SIGINT handlers that request a graceful drain of
/// every [`Server::run`] loop in the process (a no-op off Unix). Safe
/// to call more than once.
pub fn trap_termination_signals() {
    signal::trap();
}

#[cfg(unix)]
mod signal {
    //! The one unsafe corner: registering C signal handlers without a
    //! libc dependency. The handler only stores to an atomic, which is
    //! async-signal-safe.
    #![allow(unsafe_code)]

    use std::sync::atomic::{AtomicBool, Ordering};

    static TERMINATED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_terminate(_signum: i32) {
        TERMINATED.store(true, Ordering::SeqCst);
    }

    pub(crate) fn trap() {
        // SAFETY: `signal` replaces the process disposition for
        // SIGTERM/SIGINT with a handler that performs a single atomic
        // store — async-signal-safe per POSIX.
        unsafe {
            signal(SIGTERM, on_terminate);
            signal(SIGINT, on_terminate);
        }
    }

    pub(crate) fn terminated() -> bool {
        TERMINATED.load(Ordering::Relaxed)
    }
}

#[cfg(not(unix))]
mod signal {
    pub(crate) fn trap() {}

    pub(crate) fn terminated() -> bool {
        false
    }
}
