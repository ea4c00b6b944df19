//! Persistent, content-addressed result store: `RunSpec` → measurement.
//!
//! The methodology is a campaign of *fully deterministic* simulations,
//! so a run's result is a pure function of its [`RunSpec`]. Every spec
//! has a stable FNV digest ([`RunSpec::spec_hash`]); this module turns
//! that digest into a durable cache key: a [`ResultStore`] is a
//! directory (`.rrb-cache/` by default) holding one compact binary
//! record per executed run, so re-running a campaign — after a crash, in
//! the next CI job, with one more grid axis — only simulates what
//! changed.
//!
//! ## Layout
//!
//! ```text
//! .rrb-cache/
//!   manifest.json          {"format": 3, "fingerprint": <u64>}
//!   segments/<pid>-<n>.seg append-only logs of records
//! ```
//!
//! A record is a 4-byte magic, five little-endian `u64` header words
//! (format, simulator fingerprint, content address, payload hash,
//! payload length) and the payload: the canonical spec encoding, then
//! the measurement. Records are appended back to back; nothing else is
//! in a segment. An open store keeps an in-memory index from content
//! address to (segment, offset, length), built by reading every segment
//! once, front to back, at [`ResultStore::open`]. A later record for the
//! same address supersedes an earlier one. Inserting is one `write` to
//! the store's own segment; a lookup is one positioned read on a file
//! handle that stays open. The design is Bitcask's (Sheehy & Smith,
//! 2010): an append-only log plus a hash index in memory.
//!
//! ## Trust
//!
//! Safety properties, in the order they are enforced on a lookup:
//!
//! 1. **Invalidation**: the store manifest records a *simulator
//!    fingerprint* ([`sim_fingerprint`]) — a golden-trace-style digest
//!    of two probe simulations, recomputed by the running binary —
//!    plus the record-format version. Records written by a build with
//!    different simulator semantics, or in an older format (format 2's
//!    `entries/` directory of one file per run, format 1's JSON
//!    entries), are purged wholesale at open.
//! 2. **Integrity**: every record carries `payload_hash`, the
//!    [`fnv1a_64`] of its payload bytes exactly as stored, and the
//!    payload length. The scan checks it before indexing a record and
//!    every lookup checks it again on the bytes it read, so a
//!    bit-flipped, spliced or stale record is reported as a warning and
//!    re-executes, never reused.
//! 3. **Structural confirmation**: the record stores the *complete*
//!    canonical encoding of its spec (machine, scua, contenders —
//!    labels excluded, exactly like campaign dedup). A hash hit is only
//!    a hit if the stored spec bytes equal the queried spec's encoding
//!    byte for byte, so an FNV collision costs one re-execution, never a
//!    wrong result.
//!
//! Failed runs are never cached: errors re-execute, which keeps a
//! transiently bad environment from poisoning the store.
//!
//! ## Writers and the refresh point
//!
//! Each open store appends only to its own segment, created on its
//! first insert under a name no other writer holds (`<pid>-<n>.seg`,
//! created exclusively), so two writers — threads of one process or
//! separate processes — never share a file. Records other stores write
//! after this one opened become visible at [`ResultStore::refresh`],
//! which reads new segments and the new tails of grown ones; every
//! campaign calls it once, before its lookups ([`Executor::execute`]
//! and [`WorkerPool::submit`]), so a long-running daemon sees what
//! other processes cached. Nothing is fsynced.
//!
//! ## Torn tails
//!
//! A record whose header or payload runs past the end of its segment is
//! a *torn tail*: a writer killed mid-append, or one still appending.
//! The scan of that segment stops there without a warning (the run
//! simply misses) and resumes from the same offset at the next refresh,
//! so a record another process was still writing is picked up once
//! complete. The store never truncates a segment — its writer may be
//! alive. [`ResultStore::gc`] drops torn tails (and damaged,
//! superseded, expired records) by copying the live records into a
//! fresh segment and removing the old ones; [`ResultStore::verify`]
//! reports them.
//!
//! ```
//! use rrb::campaign::{Campaign, CampaignGrid, GridScenario};
//! use rrb::store::ResultStore;
//! use rrb_sim::MachineConfig;
//! use std::sync::Arc;
//!
//! let dir = std::env::temp_dir().join(format!("rrb-store-doc-{}", std::process::id()));
//! let grid = CampaignGrid::new(GridScenario::Naive, MachineConfig::toy(4, 2));
//! let store = Arc::new(ResultStore::open(&dir).unwrap());
//! let cold = Campaign::builder().grid(&grid).store(store.clone()).build().run();
//! let warm = Campaign::builder().grid(&grid).store(store).build().run();
//! assert_eq!(warm.stats.executed_runs, 0, "warm re-run simulates nothing");
//! assert_eq!(cold.to_json(), warm.to_json());
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! [`Executor::execute`]: crate::executor::Executor::execute
//! [`WorkerPool::submit`]: crate::executor::WorkerPool::submit

use crate::campaign::{RunMeasurement, RunSpec};
use crate::json::{fnv1a_64, Json};
use crate::spec::Schema;
use rrb_analysis::Histogram;
use rrb_kernels::{rsk, rsk_nop, AccessKind};
use rrb_sim::{BusOpKind, CoreId, Instr, Machine, MachineConfig, Program, TraceEvent};
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::SystemTime;

/// The on-disk record/manifest format version. Bump on any layout change
/// so older stores are purged instead of misread.
pub const STORE_FORMAT_VERSION: u64 = 3;

/// Environment variable overriding the default store directory.
pub const CACHE_DIR_ENV: &str = "RRB_CACHE_DIR";

/// The default store directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = ".rrb-cache";

/// File-name extension of a segment.
const SEGMENT_EXT: &str = "seg";

// ---------------------------------------------------------------------
// Simulator fingerprint
// ---------------------------------------------------------------------

/// A golden-trace-style digest of the running simulator's semantics.
///
/// Two fixed probe workloads — a contended rsk-nop run on the toy
/// single-bus machine and one on the two-level (bus + memory
/// controller) NGMP preset — are simulated and their full event
/// streams, cycle counts, and utilisations folded into one FNV-1a
/// digest. Any change to simulation *semantics* (arbitration, timing,
/// cache behaviour, γ accounting) moves the fingerprint and thereby
/// invalidates every store record; pure performance work (e.g. better
/// quiescence skipping) leaves it unchanged, because only architectural
/// outputs are hashed.
///
/// The digest is computed once per process and memoised.
pub fn sim_fingerprint() -> u64 {
    static FINGERPRINT: OnceLock<u64> = OnceLock::new();
    *FINGERPRINT.get_or_init(|| {
        let mut h = crate::json::Fnv64Hasher::new();
        use std::hash::Hasher as _;
        let push = |h: &mut crate::json::Fnv64Hasher, word: u64| h.write(&word.to_le_bytes());
        for cfg in [MachineConfig::toy(4, 2), MachineConfig::ngmp_two_level()] {
            let mut cfg = cfg;
            cfg.record_trace = true;
            // lint_sources: allow (construction-time probe of a preset config)
            let mut m = Machine::new(cfg.clone()).expect("probe config is valid");
            m.load_program(CoreId::new(0), rsk_nop(AccessKind::Load, 2, &cfg, CoreId::new(0), 20));
            for i in 1..cfg.num_cores {
                let id = CoreId::new(i);
                m.load_program(id, rsk(AccessKind::Load, &cfg, id));
            }
            // lint_sources: allow (construction-time probe of a preset config)
            let summary = m.run().expect("probe run succeeds");
            for ev in m.trace().events() {
                match *ev {
                    TraceEvent::Ready { resource, core, cycle, kind } => {
                        for w in [1, resource.index() as u64, core.index() as u64, cycle, op(kind)]
                        {
                            push(&mut h, w);
                        }
                    }
                    TraceEvent::Grant { resource, core, cycle, gamma, occupancy, kind } => {
                        for w in [
                            2,
                            resource.index() as u64,
                            core.index() as u64,
                            cycle,
                            gamma,
                            occupancy,
                            op(kind),
                        ] {
                            push(&mut h, w);
                        }
                    }
                    TraceEvent::Complete { resource, core, cycle, kind } => {
                        for w in [3, resource.index() as u64, core.index() as u64, cycle, op(kind)]
                        {
                            push(&mut h, w);
                        }
                    }
                }
            }
            push(&mut h, summary.cycles);
            push(&mut h, summary.bus_utilization.to_bits());
            push(&mut h, summary.core(CoreId::new(0)).execution_time().unwrap_or(u64::MAX));
        }
        h.finish()
    })
}

fn op(kind: BusOpKind) -> u64 {
    match kind {
        BusOpKind::Load => 0,
        BusOpKind::Ifetch => 1,
        BusOpKind::Store => 2,
        BusOpKind::MissResponse => 3,
    }
}

// ---------------------------------------------------------------------
// Errors, lookups, reports
// ---------------------------------------------------------------------

/// Why a store could not be opened or written.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// What the store was doing.
        action: String,
        /// The underlying I/O error text.
        error: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { action, error } => write!(f, "result store: {action}: {error}"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(action: impl Into<String>) -> impl FnOnce(std::io::Error) -> StoreError {
    let action = action.into();
    move |e| StoreError::Io { action, error: e.to_string() }
}

/// The outcome of a [`ResultStore::lookup`].
#[derive(Debug, Clone, PartialEq)]
pub enum StoreLookup {
    /// A valid, structurally confirmed record.
    Hit(RunMeasurement),
    /// No record for this spec.
    Miss,
    /// A record exists but cannot be trusted (bit-flipped, truncated,
    /// wrong version, stale fingerprint, or a hash collision). The run
    /// re-executes and the reason is surfaced as a campaign warning.
    Rejected(String),
}

/// Aggregate facts about a store, for `rrb cache stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// The store directory.
    pub dir: PathBuf,
    /// Record-format version of this build.
    pub format: u64,
    /// Simulator fingerprint of this build.
    pub fingerprint: u64,
    /// Number of distinct content addresses with a valid record.
    pub entries: u64,
    /// Total size of the segment files in bytes.
    pub bytes: u64,
    /// Number of segment files.
    pub segments: u64,
}

/// The outcome of a full `rrb cache verify` sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Records that passed every check.
    pub ok: u64,
    /// `(segment@offset, problem)` for every record that failed and
    /// every torn or unreadable tail, by segment name, then offset.
    pub problems: Vec<(String, String)>,
}

/// What `rrb cache gc` did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Records examined, counting each torn or unreadable tail as one.
    pub examined: u64,
    /// Records dropped (damaged, superseded, expired, over the size cap)
    /// and tails dropped.
    pub removed: u64,
    /// Bytes freed.
    pub removed_bytes: u64,
    /// Records kept.
    pub kept: u64,
    /// Bytes still in the store.
    pub kept_bytes: u64,
}

// ---------------------------------------------------------------------
// ResultStore
// ---------------------------------------------------------------------

/// A persistent, content-addressed map from [`RunSpec::spec_hash`] to
/// the run's measurement. See the [module docs](self) for layout and
/// guarantees.
#[derive(Debug)]
pub struct ResultStore {
    dir: PathBuf,
    segments: PathBuf,
    fingerprint: u64,
    index: RwLock<Index>,
    /// This store's own segment, opened on the first insert.
    writer: Mutex<Option<Writer>>,
}

/// One segment file, open for positioned reads.
#[derive(Debug)]
struct Segment {
    name: String,
    file: File,
}

/// What the index knows about one segment.
#[derive(Debug)]
struct SegmentState {
    segment: Arc<Segment>,
    /// Where the next scan of this segment starts: the end of its last
    /// complete record.
    resume: u64,
    /// The segment's length when it was last scanned; it is scanned
    /// again only once it has grown past this.
    seen_len: u64,
    /// This store's own segment, which it indexes as it appends.
    own: bool,
}

/// Where one record lives.
#[derive(Debug, Clone, Copy)]
struct Loc {
    segment: usize,
    offset: u64,
    len: usize,
}

/// The in-memory index over every segment.
#[derive(Debug, Default)]
struct Index {
    records: HashMap<u64, Loc>,
    /// Content addresses whose only complete records failed the
    /// integrity check, with the reason: a lookup reports them as
    /// rejected, not missing, until a valid record supersedes them.
    damaged: HashMap<u64, String>,
    segments: Vec<SegmentState>,
    by_name: HashMap<String, usize>,
}

impl Index {
    /// Folds one scan of `segments[segment]` (its bytes from `base` on)
    /// into the index.
    fn absorb(&mut self, segment: usize, base: u64, scan: &Scan) {
        for &(hash, start, len) in &scan.records {
            self.records.insert(hash, Loc { segment, offset: base + start as u64, len });
            self.damaged.remove(&hash);
        }
        let Some(state) = self.segments.get(segment) else { return };
        let name = &state.segment.name;
        for (hash, start, why) in &scan.damaged {
            if !self.records.contains_key(hash) {
                self.damaged.insert(*hash, format!("{name}@{}: {why}", base + *start as u64));
            }
        }
    }
}

/// The append side of this store's own segment.
#[derive(Debug)]
struct Writer {
    segment: Arc<Segment>,
    /// Its position in [`Index::segments`].
    at: usize,
}

/// A segment file as listed on disk.
struct Listed {
    name: String,
    path: PathBuf,
    len: u64,
    modified: SystemTime,
}

impl ResultStore {
    /// Resolves the store directory from (in priority order) an explicit
    /// flag value, the `RRB_CACHE_DIR` environment variable, and the
    /// [`DEFAULT_CACHE_DIR`] fallback.
    pub fn resolve_dir(flag: Option<&str>) -> PathBuf {
        match flag {
            Some(dir) => PathBuf::from(dir),
            None => match std::env::var(CACHE_DIR_ENV) {
                Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
                _ => PathBuf::from(DEFAULT_CACHE_DIR),
            },
        }
    }

    /// Opens (creating if needed) the store at `dir` and indexes every
    /// segment.
    ///
    /// The manifest is checked against this build's record format and
    /// simulator fingerprint; on mismatch every existing record is
    /// purged — they describe a different simulator or layout — and a
    /// fresh manifest is written atomically.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the directory or manifest cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let segments = dir.join("segments");
        std::fs::create_dir_all(&segments)
            .map_err(io_err(format!("create `{}`", segments.display())))?;
        let store = ResultStore {
            dir,
            segments,
            fingerprint: sim_fingerprint(),
            index: RwLock::default(),
            writer: Mutex::new(None),
        };
        let manifest = store.manifest_json().render_pretty();
        let manifest_path = store.dir.join("manifest.json");
        let current = std::fs::read_to_string(&manifest_path).unwrap_or_default();
        if current != manifest {
            if !current.is_empty() {
                // A manifest from another build: its records are stale.
                store.purge();
            }
            write_file_atomic(&manifest_path, &manifest)?;
        }
        store.refresh();
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The simulator fingerprint records are keyed under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn manifest_json(&self) -> Json {
        Json::obj(vec![
            ("format", Json::U64(STORE_FORMAT_VERSION)),
            ("fingerprint", Json::U64(self.fingerprint)),
        ])
    }

    /// Removes every segment, and the `entries/` directory of a format-1
    /// or format-2 store.
    fn purge(&self) {
        let _ = std::fs::remove_dir_all(self.dir.join("entries"));
        for listed in self.segment_files() {
            let _ = std::fs::remove_file(listed.path);
        }
    }

    /// Every segment file, by name.
    fn segment_files(&self) -> Vec<Listed> {
        let mut out = Vec::new();
        if let Ok(read) = std::fs::read_dir(&self.segments) {
            for file in read.flatten() {
                let path = file.path();
                if path.extension().and_then(|e| e.to_str()) != Some(SEGMENT_EXT) {
                    continue;
                }
                let (Some(name), Ok(meta)) =
                    (path.file_name().and_then(|n| n.to_str()), file.metadata())
                else {
                    continue;
                };
                let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                out.push(Listed { name: name.to_string(), len: meta.len(), modified, path });
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    fn read_index(&self) -> std::sync::RwLockReadGuard<'_, Index> {
        self.index.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write_index(&self) -> std::sync::RwLockWriteGuard<'_, Index> {
        self.index.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Brings the index up to date with what other writers appended
    /// since this store opened (or last refreshed): new segments are
    /// scanned from the start, grown ones from where their last scan
    /// stopped. Costs one directory listing when nothing changed.
    /// Campaigns call it once, before their lookups.
    pub fn refresh(&self) {
        let listed = self.segment_files();
        {
            // A gc elsewhere removed this store's segment: appending to
            // the unlinked file would lose every record, so start anew.
            let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
            if writer.as_ref().is_some_and(|w| listed.iter().all(|l| l.name != w.segment.name)) {
                *writer = None;
            }
        }
        let stale = |index: &Index, l: &Listed| match index.by_name.get(&l.name) {
            None => true,
            Some(&i) => index.segments.get(i).is_some_and(|s| !s.own && l.len > s.seen_len),
        };
        let any_stale = {
            let index = self.read_index();
            listed.iter().any(|l| stale(&index, l))
        };
        if !any_stale {
            return;
        }
        let mut index = self.write_index();
        for l in &listed {
            if !stale(&index, l) {
                continue;
            }
            let at = match index.by_name.get(&l.name) {
                Some(&at) => at,
                None => {
                    // An unreadable segment stays unindexed: its runs miss.
                    let Ok(file) = File::open(&l.path) else { continue };
                    let segment = Arc::new(Segment { name: l.name.clone(), file });
                    let at = index.segments.len();
                    index.segments.push(SegmentState {
                        segment,
                        resume: 0,
                        seen_len: 0,
                        own: false,
                    });
                    index.by_name.insert(l.name.clone(), at);
                    at
                }
            };
            let Some(state) = index.segments.get(at) else { continue };
            let (base, segment) = (state.resume, Arc::clone(&state.segment));
            let Ok(len) = usize::try_from(l.len.saturating_sub(base)) else { continue };
            let mut bytes = vec![0; len];
            if read_exact_at(&segment.file, &mut bytes, base).is_err() {
                continue;
            }
            let scan = scan_segment(&bytes, self.fingerprint);
            index.absorb(at, base, &scan);
            if let Some(state) = index.segments.get_mut(at) {
                state.resume = base + scan.end as u64;
                state.seen_len = l.len;
            }
        }
    }

    /// Reads the record indexed under `spec_hash` and hands its bytes to
    /// `decode`. `Ok(None)` when there is none; `Err` with the reason
    /// when the record was damaged at scan time, cannot be read, or
    /// `decode` refuses it.
    fn with_record<T>(
        &self,
        spec_hash: u64,
        decode: impl FnOnce(&[u8]) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        let (segment, loc) = {
            let index = self.read_index();
            let found = index.records.get(&spec_hash).and_then(|&loc| {
                index.segments.get(loc.segment).map(|s| (Arc::clone(&s.segment), loc))
            });
            match found {
                Some(found) => found,
                None => return index.damaged.get(&spec_hash).cloned().map_or(Ok(None), Err),
            }
        };
        let at = || format!("{}@{}", segment.name, loc.offset);
        let mut bytes = vec![0; loc.len];
        match read_exact_at(&segment.file, &mut bytes, loc.offset) {
            Ok(()) => {}
            Err(e) if e.kind() == ErrorKind::UnexpectedEof => {
                return Err(format!("{}: truncated record: the segment ends inside it", at()))
            }
            Err(e) => return Err(format!("{}: unreadable record: {e}", at())),
        }
        decode(&bytes).map(Some).map_err(|why| format!("{}: {why}", at()))
    }

    /// Looks `spec` up. Never panics and never errors: anything short of
    /// a valid, structurally confirmed record is a [`StoreLookup::Miss`]
    /// or a [`StoreLookup::Rejected`] with the reason.
    pub fn lookup(&self, spec: &RunSpec) -> StoreLookup {
        let spec_hash = spec.spec_hash();
        let decoded = self.with_record(spec_hash, |bytes| {
            decode_entry(bytes, self.fingerprint, Some(spec_hash), Some(spec))
        });
        match decoded {
            Ok(Some(measurement)) => StoreLookup::Hit(measurement),
            Ok(None) => StoreLookup::Miss,
            Err(reason) => StoreLookup::Rejected(reason),
        }
    }

    /// Answers a point query by content address: reads and fully
    /// validates the record stored under `spec_hash` (format version,
    /// simulator fingerprint, content address, integrity hash) and
    /// returns its payload — the canonical spec plus the measurement —
    /// as JSON. This is the `rrb serve` `GET /v1/runs/{hash}` backend;
    /// the JSON is the same whatever the on-disk record format. An
    /// address the index lacks triggers one [`ResultStore::refresh`], so
    /// records other processes wrote are found.
    ///
    /// Returns `Ok(None)` when no record exists under that address.
    ///
    /// # Errors
    ///
    /// Returns the human-readable reason when a record exists but
    /// cannot be trusted (unreadable, corrupt, stale fingerprint, or
    /// mis-addressed).
    pub fn entry_payload(&self, spec_hash: u64) -> Result<Option<Json>, String> {
        let decode = |bytes: &[u8]| decode_payload_json(bytes, self.fingerprint, spec_hash);
        match self.with_record(spec_hash, decode)? {
            Some(payload) => Ok(Some(payload)),
            None => {
                self.refresh();
                self.with_record(spec_hash, decode)
            }
        }
    }

    /// Records a successful run: one append to this store's own segment
    /// (created on the first insert), then an index update. Failed runs
    /// are never inserted.
    ///
    /// Returns `false` (without writing) when the measurement contains a
    /// non-finite float: the point-query JSON renders it as `null`, and a
    /// NaN never compares equal to itself, so such runs simply stay
    /// uncached.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the record cannot be written; callers
    /// downgrade this to a warning (a broken cache must never fail a
    /// run that already succeeded).
    pub fn insert(&self, spec: &RunSpec, m: &RunMeasurement) -> Result<bool, StoreError> {
        if !m.bus_utilization.is_finite() || m.mc_utilization.is_some_and(|u| !u.is_finite()) {
            return Ok(false);
        }
        let spec_hash = spec.spec_hash();
        let record = encode_entry(self.fingerprint, spec_hash, spec, m);
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        if writer.is_none() {
            *writer = Some(self.create_segment()?);
        }
        let Some(w) = writer.as_ref() else { return Ok(false) };
        let (segment, at) = (Arc::clone(&w.segment), w.at);
        let mut file = &segment.file;
        // In append mode the write lands at the end of the file, and the
        // file position then sits right after it.
        let end = file.write_all(&record).and_then(|()| file.stream_position());
        let end = match end {
            Ok(end) => end,
            Err(e) => {
                // A partial record is a torn tail: retire this segment
                // so the next insert starts a fresh one after it.
                *writer = None;
                return Err(io_err(format!("append to `{}`", segment.name))(e));
            }
        };
        let offset = end.saturating_sub(record.len() as u64);
        let loc = Loc { segment: at, offset, len: record.len() };
        let mut index = self.write_index();
        index.records.insert(spec_hash, loc);
        index.damaged.remove(&spec_hash);
        Ok(true)
    }

    /// Creates this store's own segment under a fresh name and registers
    /// it in the index.
    fn create_segment(&self) -> Result<Writer, StoreError> {
        let (name, file) = create_unique(&self.segments)?;
        let segment = Arc::new(Segment { name, file });
        let mut index = self.write_index();
        let at = index.segments.len();
        let state =
            SegmentState { segment: Arc::clone(&segment), resume: 0, seen_len: 0, own: true };
        index.segments.push(state);
        index.by_name.insert(segment.name.clone(), at);
        Ok(Writer { segment, at })
    }

    /// Facts for `rrb cache stats`, after a [`ResultStore::refresh`].
    pub fn stats(&self) -> StoreStats {
        self.refresh();
        let listed = self.segment_files();
        StoreStats {
            dir: self.dir.clone(),
            format: STORE_FORMAT_VERSION,
            fingerprint: self.fingerprint,
            entries: self.read_index().records.len() as u64,
            bytes: listed.iter().map(|l| l.len).sum(),
            segments: listed.len() as u64,
        }
    }

    /// Reads every segment from disk and checks every record (integrity,
    /// version, fingerprint — everything except structural
    /// confirmation, which needs a querying spec). Torn tails and
    /// unreadable segments are problems too.
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for listed in self.segment_files() {
            let bytes = match std::fs::read(&listed.path) {
                Ok(bytes) => bytes,
                Err(e) => {
                    report.problems.push((listed.name, format!("unreadable segment: {e}")));
                    continue;
                }
            };
            let scan = scan_segment(&bytes, self.fingerprint);
            report.ok += scan.records.len() as u64;
            for (_, start, why) in scan.damaged {
                report.problems.push((format!("{}@{start}", listed.name), why));
            }
            if let Some(stop) = scan.stopped {
                let problem = stop.describe(bytes.len() - scan.end);
                report.problems.push((format!("{}@{}", listed.name, scan.end), problem));
            }
        }
        report
    }

    /// Compacts the store: keeps the newest valid record per content
    /// address, drops records in segments older than `max_age_secs`,
    /// then the oldest records until the kept bytes fit
    /// `max_size_bytes`. Survivors are copied, oldest first, into one
    /// new segment, whose modification time is set to that of the
    /// newest segment they came from (so a compaction never makes a
    /// record look younger than its segment was), and the old segments
    /// are removed. Records other processes append while `gc` runs may
    /// be lost; they re-execute.
    pub fn gc(&self, max_age_secs: Option<u64>, max_size_bytes: Option<u64>) -> GcReport {
        // Held throughout, so no insert of this store lands in a segment
        // about to be removed.
        let mut writer = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let mut report = GcReport::default();
        let now = SystemTime::now();
        let mut listed = self.segment_files();
        // Oldest segment first, so later records supersede earlier ones
        // and the size cap evicts the oldest.
        listed.sort_by(|a, b| (a.modified, &a.name).cmp(&(b.modified, &b.name)));
        let mut contents = Vec::with_capacity(listed.len());
        let mut total_bytes = 0;
        // (segment, start, len) of every surviving record, oldest first.
        let mut live: Vec<Option<(usize, usize, usize)>> = Vec::new();
        let mut newest: HashMap<u64, usize> = HashMap::new();
        for (i, l) in listed.iter().enumerate() {
            let bytes = std::fs::read(&l.path).unwrap_or_default();
            total_bytes += l.len;
            let scan = scan_segment(&bytes, self.fingerprint);
            report.examined += (scan.records.len() + scan.damaged.len()) as u64
                + u64::from(scan.end < bytes.len());
            let expired = max_age_secs.is_some_and(|max| {
                now.duration_since(l.modified).ok().is_none_or(|age| age.as_secs() >= max)
            });
            if !expired {
                for &(hash, start, len) in &scan.records {
                    if let Some(older) = newest.insert(hash, live.len()) {
                        if let Some(slot) = live.get_mut(older) {
                            *slot = None;
                        }
                    }
                    live.push(Some((i, start, len)));
                }
            }
            contents.push(bytes);
        }
        let mut live: Vec<(usize, usize, usize)> = live.into_iter().flatten().collect();
        if let Some(max) = max_size_bytes {
            let mut kept: u64 = live.iter().map(|&(_, _, len)| len as u64).sum();
            let evict = live
                .iter()
                .take_while(|&&(_, _, len)| {
                    let over = kept > max;
                    if over {
                        kept -= len as u64;
                    }
                    over
                })
                .count();
            live.drain(..evict);
        }
        report.kept = live.len() as u64;
        report.kept_bytes = live.iter().map(|&(_, _, len)| len as u64).sum();
        report.removed = report.examined - report.kept;
        report.removed_bytes = total_bytes.saturating_sub(report.kept_bytes);
        if report.removed_bytes == 0 && listed.len() <= 1 {
            return report; // already compact
        }
        if !live.is_empty() {
            let mut out = Vec::with_capacity(report.kept_bytes as usize);
            for &(i, start, len) in &live {
                if let Some(record) = contents.get(i).and_then(|b| b.get(start..start + len)) {
                    out.extend_from_slice(record);
                }
            }
            let written = create_unique(&self.segments).and_then(|(name, mut file)| {
                file.write_all(&out).map_err(io_err(format!("write `{name}`")))?;
                let youngest = live.iter().rev().find_map(|&(i, _, _)| listed.get(i));
                if let Some(l) = youngest {
                    let _ = file.set_modified(l.modified);
                }
                Ok(())
            });
            if written.is_err() {
                // Keep the old segments rather than lose the records.
                let (examined, kept_bytes) = (report.examined, total_bytes);
                return GcReport { examined, kept: examined, kept_bytes, ..GcReport::default() };
            }
        }
        for l in &listed {
            let _ = std::fs::remove_file(&l.path);
        }
        // The old segments, this store's own among them, are gone: start
        // a fresh index (and a fresh segment on the next insert).
        *writer = None;
        *self.write_index() = Index::default();
        drop(writer);
        self.refresh();
        report
    }
}

/// Creates `<pid>-<n>.seg` in `dir` for the smallest `n` no file holds
/// yet, open for appending and positioned reads. Exclusive creation is
/// what keeps two writers off one segment.
fn create_unique(dir: &Path) -> Result<(String, File), StoreError> {
    std::fs::create_dir_all(dir).map_err(io_err(format!("create `{}`", dir.display())))?;
    let pid = std::process::id();
    let mut n = 0u64;
    loop {
        let name = format!("{pid}-{n}.{SEGMENT_EXT}");
        let path = dir.join(&name);
        match OpenOptions::new().read(true).append(true).create_new(true).open(&path) {
            Ok(file) => return Ok((name, file)),
            Err(e) if e.kind() == ErrorKind::AlreadyExists => n += 1,
            Err(e) => return Err(io_err(format!("create `{}`", path.display()))(e)),
        }
    }
}

/// Fills `buf` from `file` at `offset` without moving the file position.
#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(file, buf, offset)
}

/// Fills `buf` from `file` at `offset`.
#[cfg(windows)]
fn read_exact_at(file: &File, mut buf: &mut [u8], mut offset: u64) -> std::io::Result<()> {
    use std::os::windows::fs::FileExt;
    while !buf.is_empty() {
        match file.seek_read(buf, offset) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                buf = &mut buf[n..];
                offset += n as u64;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes `contents` to `path` atomically (a uniquely named temp file
/// alongside the destination, then rename) — the write discipline the
/// store manifest and every result file in this workspace use, so an
/// interrupted process never leaves a half-written artifact at a
/// published path, and concurrent writers of one path never share a
/// temp file.
///
/// # Errors
///
/// Returns [`StoreError`] when the temp file cannot be written or the
/// rename fails.
pub fn write_file_atomic(path: impl AsRef<Path>, contents: &str) -> Result<(), StoreError> {
    static TMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = path.as_ref();
    let n = TMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = path.with_extension(format!("tmp-{}-{n}", std::process::id()));
    std::fs::write(&tmp, contents).map_err(|e| {
        // A partial temp (disk full, kill mid-write) is garbage.
        let _ = std::fs::remove_file(&tmp);
        io_err(format!("write `{}`", tmp.display()))(e)
    })?;
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        io_err(format!("rename `{}` into place", tmp.display()))(e)
    })
}

// ---------------------------------------------------------------------
// Entry codec: pure functions (no filesystem), unit-testable under Miri
// ---------------------------------------------------------------------

/// First bytes of every record.
const ENTRY_MAGIC: &[u8; 4] = b"RRBE";

/// Magic plus five little-endian `u64` header words.
const ENTRY_HEADER_LEN: usize = ENTRY_MAGIC.len() + 5 * 8;

/// Header offset of the content address.
const SPEC_HASH_AT: usize = ENTRY_MAGIC.len() + 2 * 8;

/// Header offset of the payload length.
const PAYLOAD_LEN_AT: usize = ENTRY_MAGIC.len() + 4 * 8;

/// Encodes one complete entry: the fixed header (magic, format version,
/// simulator fingerprint, content address, integrity hash, payload
/// length; integers little-endian) followed by the payload, which is the
/// length-prefixed canonical spec encoding ([`encode_spec`]) and then the
/// measurement.
fn encode_entry(fingerprint: u64, spec_hash: u64, spec: &RunSpec, m: &RunMeasurement) -> Vec<u8> {
    let mut spec_bytes = Vec::with_capacity(1024);
    encode_spec(spec, &mut spec_bytes);
    let mut payload = Vec::with_capacity(spec_bytes.len() + 128);
    put_varint(&mut payload, spec_bytes.len() as u64);
    payload.extend_from_slice(&spec_bytes);
    encode_measurement(m, &mut payload);
    let mut out = Vec::with_capacity(ENTRY_HEADER_LEN + payload.len());
    out.extend_from_slice(ENTRY_MAGIC);
    for word in
        [STORE_FORMAT_VERSION, fingerprint, spec_hash, fnv1a_64(&payload), payload.len() as u64]
    {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(&payload);
    out
}

/// An entry whose header checked out and whose payload passed the
/// integrity hash, split into its two payload sections.
struct CheckedEntry<'a> {
    spec: &'a [u8],
    measurement: &'a [u8],
}

/// Validates the header and the payload integrity. `fingerprint` is the
/// current build's simulator fingerprint; `expect_hash` pins the content
/// address (from the file name or the querying spec).
fn check_entry(
    bytes: &[u8],
    fingerprint: u64,
    expect_hash: Option<u64>,
) -> Result<CheckedEntry<'_>, String> {
    let mut r = Reader(bytes);
    if r.take(ENTRY_MAGIC.len())? != ENTRY_MAGIC {
        return Err(String::from("corrupt entry: not a binary store entry (bad magic)"));
    }
    let format = r.u64_le()?;
    if format != STORE_FORMAT_VERSION {
        return Err(format!("entry format {format} but this build writes {STORE_FORMAT_VERSION}"));
    }
    let entry_fingerprint = r.u64_le()?;
    if entry_fingerprint != fingerprint {
        return Err(format!(
            "stale simulator fingerprint {entry_fingerprint:016x} (current {fingerprint:016x})"
        ));
    }
    let spec_hash = r.u64_le()?;
    if let Some(expected) = expect_hash {
        if spec_hash != expected {
            return Err(format!(
                "content address mismatch: entry claims {spec_hash:016x}, expected \
                 {expected:016x}"
            ));
        }
    }
    let payload_hash = r.u64_le()?;
    let payload_len = r.u64_le()?;
    let payload = r.0;
    if payload.len() as u64 != payload_len {
        return Err(format!(
            "truncated or torn entry: {} payload bytes where the header says {payload_len}",
            payload.len()
        ));
    }
    if fnv1a_64(payload) != payload_hash {
        return Err(String::from("integrity hash mismatch (truncated or bit-flipped entry)"));
    }
    let mut p = Reader(payload);
    let spec = p.bytes()?;
    Ok(CheckedEntry { spec, measurement: p.0 })
}

/// Decodes and fully validates one entry: header and integrity
/// ([`check_entry`]), then — when `confirm` is the queried spec —
/// structural confirmation by byte comparison of the stored spec
/// encoding against the query's, then the measurement in one pass.
fn decode_entry(
    bytes: &[u8],
    fingerprint: u64,
    expect_hash: Option<u64>,
    confirm: Option<&RunSpec>,
) -> Result<RunMeasurement, String> {
    let entry = check_entry(bytes, fingerprint, expect_hash)?;
    if let Some(spec) = confirm {
        let mut queried = Vec::with_capacity(entry.spec.len());
        encode_spec(spec, &mut queried);
        if queried != entry.spec {
            return Err(String::from(
                "spec-hash collision: stored spec differs structurally from the queried one",
            ));
        }
    }
    decode_measurement(entry.measurement)
}

/// Validates one entry and renders its payload as the point-query JSON:
/// `{"spec": {"machine", "scua", "contenders"}, "measurement"}`.
fn decode_payload_json(bytes: &[u8], fingerprint: u64, spec_hash: u64) -> Result<Json, String> {
    let entry = check_entry(bytes, fingerprint, Some(spec_hash))?;
    let mut r = Reader(entry.spec);
    let machine = std::str::from_utf8(r.bytes()?)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .ok_or("corrupt entry: the stored machine is not JSON text")?;
    let scua = program_to_json(&decode_program(&mut r)?);
    let contenders = (0..r.len()?)
        .map(|_| decode_program(&mut r).map(|p| program_to_json(&p)))
        .collect::<Result<Vec<_>, _>>()?;
    r.finish()?;
    let spec = Json::obj(vec![
        ("machine", machine),
        ("scua", scua),
        ("contenders", Json::Arr(contenders)),
    ]);
    let m = decode_measurement(entry.measurement)?;
    Ok(Json::obj(vec![("spec", spec), ("measurement", measurement_to_json(&m))]))
}

/// Why a segment scan stopped before the end of the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// The next record's header or payload runs past the end.
    TornTail,
    /// The next bytes do not start with the record magic.
    BadMagic,
}

impl Stop {
    /// The problem `rrb cache verify` reports for the `tail` bytes the
    /// scan could not read.
    fn describe(self, tail: usize) -> String {
        match self {
            Stop::TornTail => format!("torn tail: a truncated record ({tail} bytes)"),
            Stop::BadMagic => {
                format!("corrupt segment: the {tail} bytes from here do not start with a record")
            }
        }
    }
}

/// What one front-to-back pass of [`scan_segment`] found. Offsets are
/// relative to the scanned bytes.
#[derive(Debug, Default)]
struct Scan {
    /// `(content address, start, length)` of every record that passed
    /// [`check_entry`].
    records: Vec<(u64, usize, usize)>,
    /// `(content address, start, reason)` of every complete record that
    /// failed it.
    damaged: Vec<(u64, usize, String)>,
    /// The end of the last complete record: where the next scan resumes.
    end: usize,
    /// Why the scan stopped short of the end, if it did.
    stopped: Option<Stop>,
}

/// Splits segment bytes into records. A record is complete when its
/// header and the payload length the header declares fit in `bytes`;
/// each complete record is checked with [`check_entry`] (format,
/// fingerprint, integrity hash) and lands in [`Scan::records`] or
/// [`Scan::damaged`]. The scan stops at a torn tail or at bytes without
/// the record magic, since past either it cannot find the next record.
fn scan_segment(bytes: &[u8], fingerprint: u64) -> Scan {
    let mut scan = Scan::default();
    while let Some(rest) = bytes.get(scan.end..).filter(|rest| !rest.is_empty()) {
        let Some(header) = rest.get(..ENTRY_HEADER_LEN) else {
            scan.stopped = Some(Stop::TornTail);
            break;
        };
        if !header.starts_with(ENTRY_MAGIC) {
            scan.stopped = Some(Stop::BadMagic);
            break;
        }
        let record = word_at(header, PAYLOAD_LEN_AT)
            .and_then(|n| usize::try_from(n).ok())
            .and_then(|n| n.checked_add(ENTRY_HEADER_LEN))
            .and_then(|len| rest.get(..len));
        let Some(record) = record else {
            scan.stopped = Some(Stop::TornTail);
            break;
        };
        let spec_hash = word_at(header, SPEC_HASH_AT).unwrap_or_default();
        match check_entry(record, fingerprint, None) {
            Ok(_) => scan.records.push((spec_hash, scan.end, record.len())),
            Err(why) => scan.damaged.push((spec_hash, scan.end, why)),
        }
        scan.end += record.len();
    }
    scan
}

/// The little-endian `u64` at `at`, if `bytes` holds all of it.
fn word_at(bytes: &[u8], at: usize) -> Option<u64> {
    let word: [u8; 8] = bytes.get(at..at.checked_add(8)?)?.try_into().ok()?;
    Some(u64::from_le_bytes(word))
}

// ---------------------------------------------------------------------
// Canonical binary encodings: RunSpec (confirmation) and RunMeasurement
// ---------------------------------------------------------------------

/// Appends the canonical, label-free encoding of a spec: the machine as
/// the compact JSON text of a spec file's machine section (a lossless
/// mapping), then every program as tagged instruction records. Injective
/// by construction, so byte equality of two encodings is structural
/// equality of the measurement-relevant spec.
///
/// Rendering the machine section costs most of an encoding, and a
/// campaign's runs share a handful of machines, so each thread keeps the
/// text of the last machine it encoded ([`put_machine`]). The bytes are
/// the same with or without the memo.
fn encode_spec(spec: &RunSpec, out: &mut Vec<u8>) {
    put_machine(&spec.cfg, out);
    encode_program(&spec.scua, out);
    put_varint(out, spec.contenders.len() as u64);
    for p in &spec.contenders {
        encode_program(p, out);
    }
}

thread_local! {
    /// The last machine this thread encoded and its compact JSON text.
    static MACHINE_TEXT: Cell<Option<(MachineConfig, String)>> = const { Cell::new(None) };
}

/// Appends the length-prefixed compact JSON text of `cfg`'s machine
/// section, rendering it only when `cfg` differs (by `==` over every
/// field) from the machine this thread encoded last.
fn put_machine(cfg: &MachineConfig, out: &mut Vec<u8>) {
    MACHINE_TEXT.with(|memo| {
        let (memo_cfg, text) = match memo.take() {
            Some(hit) if hit.0 == *cfg => hit,
            _ => (cfg.clone(), cfg.render().render_compact()),
        };
        put_bytes(out, text.as_bytes());
        memo.set(Some((memo_cfg, text)));
    });
}

// Instruction record tags: the tag byte, then the operand as a varint
// for the three instructions that carry one.
const TAG_LOAD: u8 = 0;
const TAG_STORE: u8 = 1;
const TAG_NOP: u8 = 2;
const TAG_ALU: u8 = 3;
const TAG_BRANCH: u8 = 4;

/// Iterations (`0` endless, `1` then the count), body length, records.
fn encode_program(p: &Program, out: &mut Vec<u8>) {
    match p.iterations().finite() {
        None => out.push(0),
        Some(n) => {
            out.push(1);
            put_varint(out, n);
        }
    }
    put_varint(out, p.body().len() as u64);
    for instr in p.body() {
        match *instr {
            Instr::Load(addr) => {
                out.push(TAG_LOAD);
                put_varint(out, addr);
            }
            Instr::Store(addr) => {
                out.push(TAG_STORE);
                put_varint(out, addr);
            }
            Instr::Nop => out.push(TAG_NOP),
            Instr::Alu { latency } => {
                out.push(TAG_ALU);
                put_varint(out, latency);
            }
            Instr::Branch => out.push(TAG_BRANCH),
        }
    }
}

fn decode_program(r: &mut Reader<'_>) -> Result<Program, String> {
    let iterations = match r.u8()? {
        0 => None,
        1 => Some(r.varint()?),
        other => return Err(format!("corrupt entry: iteration tag {other}")),
    };
    let len = r.len()?;
    let mut body = Vec::with_capacity(len);
    for _ in 0..len {
        body.push(match r.u8()? {
            TAG_LOAD => Instr::Load(r.varint()?),
            TAG_STORE => Instr::Store(r.varint()?),
            TAG_NOP => Instr::Nop,
            TAG_ALU => Instr::Alu { latency: r.varint()? },
            TAG_BRANCH => Instr::Branch,
            other => return Err(format!("corrupt entry: instruction tag {other}")),
        });
    }
    Ok(match iterations {
        None => Program::endless(body),
        Some(n) => Program::from_body(body, n),
    })
}

/// Counters as varints, each histogram as a bin count and `(value,
/// count)` varint pairs, utilisations as raw `f64` bits (`0`/`1` tag for
/// the optional one).
fn encode_measurement(m: &RunMeasurement, out: &mut Vec<u8>) {
    for v in [m.execution_time, m.bus_requests, m.instructions] {
        put_varint(out, v);
    }
    for h in [&m.gamma_histogram, &m.mc_gamma_histogram, &m.contender_histogram] {
        put_varint(out, h.iter().count() as u64);
        for (value, count) in h.iter() {
            put_varint(out, value);
            put_varint(out, count);
        }
    }
    out.extend_from_slice(&m.bus_utilization.to_bits().to_le_bytes());
    match m.mc_utilization {
        None => out.push(0),
        Some(u) => {
            out.push(1);
            out.extend_from_slice(&u.to_bits().to_le_bytes());
        }
    }
}

fn decode_measurement(bytes: &[u8]) -> Result<RunMeasurement, String> {
    let mut r = Reader(bytes);
    let (execution_time, bus_requests, instructions) = (r.varint()?, r.varint()?, r.varint()?);
    let mut histograms = [Histogram::new(), Histogram::new(), Histogram::new()];
    for h in &mut histograms {
        let n = r.len()?;
        let mut bins = Vec::with_capacity(n);
        for _ in 0..n {
            let (value, count) = (r.varint()?, r.varint()?);
            // Canonical bins only: ascending values, non-zero counts —
            // anything else would not survive the `Histogram` round trip.
            if count == 0 || bins.last().is_some_and(|&(last, _)| value <= last) {
                return Err(String::from("corrupt entry: non-canonical histogram bins"));
            }
            bins.push((value, count));
        }
        *h = Histogram::from_bins(bins);
    }
    let bus_utilization = f64::from_bits(r.u64_le()?);
    let mc_utilization = match r.u8()? {
        0 => None,
        1 => Some(f64::from_bits(r.u64_le()?)),
        other => return Err(format!("corrupt entry: mc utilisation tag {other}")),
    };
    r.finish()?;
    let [gamma_histogram, mc_gamma_histogram, contender_histogram] = histograms;
    Ok(RunMeasurement {
        execution_time,
        bus_requests,
        instructions,
        gamma_histogram,
        mc_gamma_histogram,
        contender_histogram,
        bus_utilization,
        mc_utilization,
    })
}

// ---------------------------------------------------------------------
// Byte-level primitives
// ---------------------------------------------------------------------

/// Appends `v` as an unsigned LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends a varint length, then the bytes.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// A bounds-checked cursor over entry bytes; every read that runs past
/// the end is an error, never a panic.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.0.len() {
            return Err(String::from("truncated entry: a field runs past the end"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u64_le(&mut self) -> Result<u64, String> {
        let mut word = [0u8; 8];
        word.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(word))
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                break;
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(String::from("corrupt entry: varint overflows 64 bits"))
    }

    /// A length or count: a varint no larger than the bytes left, since
    /// every counted item takes at least one byte. Bounds allocations.
    fn len(&mut self) -> Result<usize, String> {
        match usize::try_from(self.varint()?) {
            Ok(n) if n <= self.0.len() => Ok(n),
            _ => Err(String::from("truncated entry: a length runs past the end")),
        }
    }

    /// A length-prefixed byte string.
    fn bytes(&mut self) -> Result<&'a [u8], String> {
        let n = self.len()?;
        self.take(n)
    }

    fn finish(&self) -> Result<(), String> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(format!("corrupt entry: {} trailing bytes", self.0.len()))
        }
    }
}

fn program_to_json(p: &Program) -> Json {
    Json::obj(vec![
        // `Instr`'s Display form is injective (`ld 0x..`, `st 0x..`,
        // `nop`, `alu(n)`, `br`), so the token list is a faithful body.
        ("body", Json::Arr(p.body().iter().map(|i| Json::str(i.to_string())).collect())),
        ("iterations", Json::option(p.iterations().finite(), Json::U64)),
    ])
}

fn histogram_to_json(h: &Histogram) -> Json {
    Json::Arr(h.iter().map(|(v, n)| Json::Arr(vec![Json::U64(v), Json::U64(n)])).collect())
}

fn measurement_to_json(m: &RunMeasurement) -> Json {
    Json::obj(vec![
        ("execution_time", Json::U64(m.execution_time)),
        ("bus_requests", Json::U64(m.bus_requests)),
        ("instructions", Json::U64(m.instructions)),
        ("gamma_histogram", histogram_to_json(&m.gamma_histogram)),
        ("mc_gamma_histogram", histogram_to_json(&m.mc_gamma_histogram)),
        ("contender_histogram", histogram_to_json(&m.contender_histogram)),
        ("bus_utilization", Json::F64(m.bus_utilization)),
        ("mc_utilization", Json::option(m.mc_utilization, Json::F64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use rrb_kernels::{rsk_nop, KernelRng};

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rrb-store-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn toy_spec(k: usize) -> RunSpec {
        let cfg = MachineConfig::toy(4, 2);
        let scua = rsk_nop(AccessKind::Load, k, &cfg, CoreId::new(0), 30);
        RunSpec::contended_rsk(format!("k={k}"), cfg, scua, AccessKind::Load)
    }

    /// A hand-built measurement (no simulation) for the pure codec tests.
    fn toy_measurement() -> RunMeasurement {
        RunMeasurement {
            execution_time: 1234,
            bus_requests: 56,
            instructions: 789,
            gamma_histogram: [0u64, 2, 2, 6].into_iter().collect(),
            mc_gamma_histogram: Histogram::new(),
            contender_histogram: [3u64, 3, 3].into_iter().collect(),
            bus_utilization: 0.625,
            mc_utilization: None,
        }
    }

    /// A spec on the two-level preset whose contender uses every
    /// instruction kind, paired with a measurement that fills every field.
    fn rich_spec_and_measurement() -> (RunSpec, RunMeasurement) {
        let cfg = MachineConfig::ngmp_two_level();
        let scua = rsk_nop(AccessKind::Load, 3, &cfg, CoreId::new(0), 30);
        let mixed = rrb_sim::ProgramBuilder::new()
            .load(0x40)
            .store(u64::MAX)
            .nop()
            .alu(300)
            .branch()
            .endless()
            .build();
        let spec = RunSpec::contended("rich", cfg, scua, vec![mixed, Program::empty()]);
        let m = RunMeasurement {
            mc_gamma_histogram: [0u64, 0, 5, 200].into_iter().collect(),
            mc_utilization: Some(0.1 + 0.2),
            execution_time: u64::MAX,
            ..toy_measurement()
        };
        (spec, m)
    }

    // Header offset of the format word the damage tests forge.
    const FORMAT_AT: usize = 4;

    fn set_word(bytes: &mut [u8], at: usize, word: u64) {
        bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
    }

    // The `entry_*` tests exercise the pure encode/decode codec with no
    // filesystem or simulation — CI runs them (plus the `json` module)
    // under Miri, where a full machine run would be prohibitively slow.

    #[test]
    fn entry_codec_round_trips_without_touching_disk() {
        for (spec, m) in [(toy_spec(1), toy_measurement()), rich_spec_and_measurement()] {
            let bytes = encode_entry(0xfeed, spec.spec_hash(), &spec, &m);
            let back = decode_entry(&bytes, 0xfeed, Some(spec.spec_hash()), Some(&spec))
                .expect("valid entry");
            assert_eq!(back, m);
            assert_eq!(back.bus_utilization.to_bits(), m.bus_utilization.to_bits());
            assert_eq!(back.mc_utilization.map(f64::to_bits), m.mc_utilization.map(f64::to_bits));
            // The point-query payload is the JSON document of the spec
            // and the measurement.
            let payload = decode_payload_json(&bytes, 0xfeed, spec.spec_hash()).expect("payload");
            let spec_json = payload.get("spec").expect("spec");
            assert_eq!(spec_json.get("machine"), Some(&spec.cfg.render()));
            assert_eq!(spec_json.get("scua"), Some(&program_to_json(&spec.scua)));
            let contenders: Vec<Json> = spec.contenders.iter().map(program_to_json).collect();
            assert_eq!(spec_json.get("contenders"), Some(&Json::Arr(contenders)));
            assert_eq!(payload.get("measurement"), Some(&measurement_to_json(&m)));
        }
    }

    #[test]
    fn entry_decode_rejects_stale_fingerprint_and_wrong_address() {
        let spec = toy_spec(1);
        let bytes = encode_entry(0xfeed, spec.spec_hash(), &spec, &toy_measurement());
        let e = decode_entry(&bytes, 0xbeef, None, None).expect_err("stale fingerprint");
        assert!(e.contains("fingerprint"), "{e}");
        let e = decode_entry(&bytes, 0xfeed, Some(spec.spec_hash() ^ 1), None)
            .expect_err("wrong content address");
        assert!(e.contains("content address"), "{e}");
    }

    #[test]
    fn entry_decode_rejects_corruption_and_collisions() {
        let spec = toy_spec(1);
        let bytes = encode_entry(0xfeed, spec.spec_hash(), &spec, &toy_measurement());
        // Bit flip inside the payload: the integrity hash must catch it.
        let mut flipped = bytes.clone();
        *flipped.last_mut().expect("non-empty") ^= 0x10;
        let e = decode_entry(&flipped, 0xfeed, None, None).expect_err("bit flip");
        assert!(e.contains("integrity"), "{e}");
        // Structural confirmation against a different queried spec.
        let other = toy_spec(2);
        let e = decode_entry(&bytes, 0xfeed, None, Some(&other)).expect_err("collision");
        assert!(e.contains("collision"), "{e}");
        // Truncation, inside the payload and inside the header.
        let e = decode_entry(&bytes[..bytes.len() / 2], 0xfeed, None, None).expect_err("cut");
        assert!(e.contains("truncated"), "{e}");
        let e = decode_entry(&bytes[..10], 0xfeed, None, None).expect_err("cut header");
        assert!(e.contains("truncated"), "{e}");
        // A wrong format version, and a file that is not an entry at all.
        let mut old = bytes.clone();
        set_word(&mut old, FORMAT_AT, 1);
        let e = decode_entry(&old, 0xfeed, None, None).expect_err("format 1");
        assert!(e.contains("entry format 1 but this build writes 3"), "{e}");
        let e = decode_entry(b"{\"format\": 1}", 0xfeed, None, None).expect_err("v1 JSON");
        assert!(e.contains("magic"), "{e}");
    }

    /// `fnv1a_64` of the records `encode_entry(0xfeed, ..)` writes for
    /// `toy_spec(3)` with `toy_measurement()` and for
    /// `rich_spec_and_measurement()`, captured from the format-3 codec
    /// that rendered the machine section afresh for every record.
    const TOY_RECORD_FNV: u64 = 0x569c_1bdd_84c0_84f1;
    const RICH_RECORD_FNV: u64 = 0x0a7c_5f42_eca5_ba07;

    #[test]
    fn entry_bytes_are_pinned_through_the_machine_memo() {
        let toy = (toy_spec(3), toy_measurement());
        let rich = rich_spec_and_measurement();
        // Two rounds, so each record is also encoded right after the
        // other machine was: the memo must never hand one machine's text
        // to the other.
        for _ in 0..2 {
            for ((spec, m), pin) in [(&toy, TOY_RECORD_FNV), (&rich, RICH_RECORD_FNV)] {
                let bytes = encode_entry(0xfeed, spec.spec_hash(), spec, m);
                assert_eq!(fnv1a_64(&bytes), pin, "record of `{}`", spec.label);
            }
        }
    }

    #[test]
    fn entry_confirmation_rejects_a_forged_machine_whatever_the_memo_holds() {
        // Two specs that differ only in the machine: the stored machine
        // text is all that tells them apart.
        let a = toy_spec(1);
        let mut b = a.clone();
        b.cfg.max_cycles += 1;
        let m = toy_measurement();
        // Alternate the two configs on this thread. Each round encodes
        // the query's config first, so the memo holds it when the forged
        // record (the other machine, claiming the query's address) is
        // built and when the query is confirmed against it.
        for (stored, queried) in [(&a, &b), (&b, &a), (&a, &b), (&b, &a)] {
            encode_spec(queried, &mut Vec::new());
            let forged = encode_entry(0xfeed, queried.spec_hash(), stored, &m);
            let e = decode_entry(&forged, 0xfeed, Some(queried.spec_hash()), Some(queried))
                .expect_err("a forged machine must not confirm");
            assert!(e.contains("collision"), "{e}");
            for spec in [stored, queried] {
                let genuine = encode_entry(0xfeed, spec.spec_hash(), spec, &m);
                let back = decode_entry(&genuine, 0xfeed, Some(spec.spec_hash()), Some(spec));
                assert_eq!(back.as_ref(), Ok(&m));
            }
        }
    }

    #[test]
    fn entry_decode_survives_byte_mutations() {
        // Deterministic byte-mutation fuzzing: truncation at every length,
        // single bit flips across the entry, and random span overwrites.
        // Decoding must never panic and never return `Ok` with anything
        // but the encoded measurement (or payload document).
        let (bit_stride, spans) = if cfg!(miri) { (97, 24) } else { (1, 3000) };
        let mut rng = KernelRng::seed_from_u64(0x5eed_0e17);
        for (spec, m) in [(toy_spec(1), toy_measurement()), rich_spec_and_measurement()] {
            let hash = spec.spec_hash();
            let bytes = encode_entry(0xfeed, spec.spec_hash(), &spec, &m);
            let payload = decode_payload_json(&bytes, 0xfeed, hash).expect("intact payload");
            // Returns whether the mutated entry was accepted.
            let check = |mutated: &[u8]| {
                let confirmed = decode_entry(mutated, 0xfeed, Some(hash), Some(&spec));
                if let Ok(back) = &confirmed {
                    assert_eq!(back, &m, "accepted a mutated entry with a different measurement");
                }
                if let Ok(back) = decode_entry(mutated, 0xfeed, None, None) {
                    assert_eq!(back, m, "accepted a mutated entry with a different measurement");
                }
                if let Ok(back) = decode_payload_json(mutated, 0xfeed, hash) {
                    assert_eq!(back, payload, "accepted a mutated entry with a different payload");
                }
                confirmed.is_ok()
            };
            let truncation_stride = if cfg!(miri) { 53 } else { 1 };
            for len in (0..bytes.len()).step_by(truncation_stride) {
                assert!(!check(&bytes[..len]), "accepted a truncation to {len} bytes");
            }
            for bit in (0..bytes.len() * 8).step_by(bit_stride) {
                let mut mutated = bytes.clone();
                mutated[bit / 8] ^= 1 << (bit % 8);
                // With the address pinned, every header field is checked and
                // any one-byte payload change moves the FNV digest.
                assert!(!check(&mutated), "accepted a flip of bit {bit}");
            }
            for _ in 0..spans {
                let mut mutated = bytes.clone();
                let start = rng.gen_below(bytes.len() as u64) as usize;
                let len = 1 + rng.gen_below(24) as usize;
                for b in mutated.iter_mut().skip(start).take(len) {
                    *b = rng.next_u64() as u8;
                }
                check(&mutated);
            }
        }

        // The segment scanner, over both entries back to back, under the
        // same mutations: it never panics, keeps every offset inside the
        // bytes, and never indexes a record that fails the integrity
        // check or carries another measurement.
        let runs = [(toy_spec(1), toy_measurement()), rich_spec_and_measurement()];
        let segment: Vec<u8> =
            runs.iter().flat_map(|(s, m)| encode_entry(0xfeed, s.spec_hash(), s, m)).collect();
        let intact = scan_segment(&segment, 0xfeed);
        assert_eq!(intact.records.len(), 2, "{intact:?}");
        assert!(intact.damaged.is_empty() && intact.stopped.is_none(), "{intact:?}");
        assert_eq!(intact.end, segment.len());
        let first_len = intact.records[0].2;
        let scan = |mutated: &[u8]| {
            let scan = scan_segment(mutated, 0xfeed);
            assert!(scan.end <= mutated.len(), "{scan:?}");
            for &(hash, start, len) in &scan.records {
                let record = mutated.get(start..start + len).expect("record inside the bytes");
                let back = decode_entry(record, 0xfeed, Some(hash), None)
                    .expect("an indexed record passes the integrity check");
                assert!(runs.iter().any(|(_, m)| *m == back), "indexed a foreign measurement");
            }
            scan
        };
        let truncation_stride = if cfg!(miri) { 53 } else { 1 };
        for len in (0..segment.len()).step_by(truncation_stride) {
            // A cut is a torn tail: the complete records before it index,
            // and the cut record is neither indexed nor damage.
            let cut = scan(&segment[..len]);
            assert_eq!(cut.records.len(), usize::from(len >= first_len), "cut at {len}");
            assert!(cut.damaged.is_empty(), "cut at {len}: {cut:?}");
            let torn = len != 0 && len != first_len;
            assert_eq!(cut.stopped, torn.then_some(Stop::TornTail), "cut at {len}");
        }
        for bit in (0..segment.len() * 8).step_by(bit_stride) {
            let mut mutated = segment.clone();
            mutated[bit / 8] ^= 1 << (bit % 8);
            scan(&mutated);
        }
        for _ in 0..spans {
            let mut mutated = segment.clone();
            let start = rng.gen_below(segment.len() as u64) as usize;
            let len = 1 + rng.gen_below(24) as usize;
            for b in mutated.iter_mut().skip(start).take(len) {
                *b = rng.next_u64() as u8;
            }
            scan(&mutated);
        }
    }

    /// The store's segment files, by name.
    fn segment_paths(store: &ResultStore) -> Vec<PathBuf> {
        store.segment_files().into_iter().map(|l| l.path).collect()
    }

    /// `(start, len)` of every valid record in a segment, in file order.
    fn record_spans(path: &Path) -> Vec<(usize, usize)> {
        let bytes = std::fs::read(path).expect("read segment");
        scan_segment(&bytes, sim_fingerprint()).records.iter().map(|&(_, s, l)| (s, l)).collect()
    }

    /// Rewrites a segment through `f`.
    fn edit(path: &Path, f: impl FnOnce(&mut Vec<u8>)) {
        let mut bytes = std::fs::read(path).expect("read segment");
        f(&mut bytes);
        std::fs::write(path, bytes).expect("write segment");
    }

    /// Opens a store at `dir` and inserts the toy runs `ks`.
    fn filled(dir: &Path, ks: impl IntoIterator<Item = usize>) -> ResultStore {
        let store = ResultStore::open(dir).expect("open");
        for k in ks {
            let spec = toy_spec(k);
            let m = Executor::new().run(&spec).expect("run");
            assert!(store.insert(&spec, &m).expect("insert"));
        }
        store
    }

    #[test]
    fn round_trips_a_measurement_bit_exactly() {
        let dir = scratch("roundtrip");
        let store = ResultStore::open(&dir).expect("open");
        let spec = toy_spec(1);
        let m = Executor::new().run(&spec).expect("run");
        assert!(store.insert(&spec, &m).expect("insert"));
        match store.lookup(&spec) {
            StoreLookup::Hit(back) => {
                assert_eq!(back, m);
                assert_eq!(back.bus_utilization.to_bits(), m.bus_utilization.to_bits());
            }
            other => panic!("expected a hit, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn lookup_misses_cleanly_and_labels_do_not_matter() {
        let dir = scratch("miss");
        let store = ResultStore::open(&dir).expect("open");
        let spec = toy_spec(2);
        assert_eq!(store.lookup(&spec), StoreLookup::Miss);
        let m = Executor::new().run(&spec).expect("run");
        store.insert(&spec, &m).expect("insert");
        let mut relabelled = toy_spec(2);
        relabelled.label = String::from("another label");
        assert!(matches!(store.lookup(&relabelled), StoreLookup::Hit(_)));
        assert_eq!(store.lookup(&toy_spec(3)), StoreLookup::Miss);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn forged_content_address_fails_structural_confirmation() {
        // A valid record appended again under the wrong content address
        // simulates a spec-hash collision: the claimed hash matches the
        // query, the payload is intact, but the stored spec differs
        // structurally.
        let dir = scratch("collision");
        let stored = toy_spec(1);
        let store = filled(&dir, [1]);
        let queried = toy_spec(4);
        let segments = segment_paths(&store);
        assert_eq!(segments.len(), 1, "one writer, one segment");
        edit(&segments[0], |b| {
            let mut forged = b.clone();
            set_word(&mut forged, SPEC_HASH_AT, queried.spec_hash());
            b.extend_from_slice(&forged);
        });
        let store = ResultStore::open(&dir).expect("reopen");
        assert!(matches!(store.lookup(&stored), StoreLookup::Hit(_)));
        match store.lookup(&queried) {
            StoreLookup::Rejected(reason) => {
                // The content address sits outside the payload, so the
                // integrity hash still holds: structural confirmation is
                // what refuses the forged record.
                assert!(reason.contains("collision"), "{reason}");
            }
            other => panic!("forged record must be rejected, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn non_finite_measurements_stay_uncached() {
        let dir = scratch("nonfinite");
        let store = ResultStore::open(&dir).expect("open");
        let spec = toy_spec(1);
        let mut m = Executor::new().run(&spec).expect("run");
        m.bus_utilization = f64::NAN;
        assert!(!store.insert(&spec, &m).expect("insert refuses politely"));
        assert_eq!(store.lookup(&spec), StoreLookup::Miss);
        assert_eq!(store.stats().segments, 0, "nothing written, no segment created");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn fingerprint_is_stable_within_a_process() {
        assert_eq!(sim_fingerprint(), sim_fingerprint());
        assert_ne!(sim_fingerprint(), 0);
    }

    #[test]
    fn reopening_with_matching_manifest_keeps_entries() {
        let dir = scratch("reopen");
        drop(filled(&dir, [1]));
        let store = ResultStore::open(&dir).expect("reopen");
        assert!(matches!(store.lookup(&toy_spec(1)), StoreLookup::Hit(_)));
        assert_eq!(store.stats().entries, 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn foreign_manifest_purges_stale_entries() {
        let dir = scratch("purge");
        drop(filled(&dir, [1]));
        // A format-2 entry file, and a build with other simulator
        // semantics.
        std::fs::create_dir_all(dir.join("entries")).expect("entries dir");
        std::fs::write(dir.join("entries/0000000000000001.bin"), "RRBE").expect("old entry");
        std::fs::write(
            dir.join("manifest.json"),
            "{\n  \"format\": 2,\n  \"fingerprint\": 12345\n}\n",
        )
        .expect("write manifest");
        let store = ResultStore::open(&dir).expect("reopen");
        let stats = store.stats();
        assert_eq!((stats.entries, stats.segments), (0, 0), "stale records are purged at open");
        assert!(!dir.join("entries").exists(), "the format-2 entries directory goes too");
        assert_eq!(store.lookup(&toy_spec(1)), StoreLookup::Miss);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn gc_removes_expired_and_oversized_entries() {
        let dir = scratch("gc");
        let store = filled(&dir, 0..3);
        // A fourth record with a flipped payload byte, then junk: a
        // damaged record and a torn tail.
        let segment = &segment_paths(&store)[0];
        edit(segment, |b| {
            let spec = toy_spec(3);
            let mut damaged =
                encode_entry(sim_fingerprint(), spec.spec_hash(), &spec, &toy_measurement());
            *damaged.last_mut().expect("non-empty") ^= 0x01;
            b.extend_from_slice(&damaged);
            b.extend_from_slice(b"RRBE partial");
        });
        let report = store.gc(None, None);
        assert_eq!(report.examined, 5, "{report:?}");
        assert_eq!(report.removed, 2, "the damaged record and the torn tail go first: {report:?}");
        assert_eq!(report.kept, 3);
        assert_eq!(store.verify(), VerifyReport { ok: 3, problems: vec![] });
        for k in 0..3 {
            assert!(matches!(store.lookup(&toy_spec(k)), StoreLookup::Hit(_)), "k={k}");
        }

        // Size pressure evicts oldest-first down to the cap: one byte
        // under the current total forces out exactly the oldest record.
        let report = store.gc(None, Some(report.kept_bytes - 1));
        assert_eq!(report.kept, 2, "{report:?}");
        assert_eq!(report.removed, 1, "{report:?}");
        assert_eq!(store.lookup(&toy_spec(0)), StoreLookup::Miss);
        assert!(matches!(store.lookup(&toy_spec(2)), StoreLookup::Hit(_)));

        // max-age 0 expires everything that remains.
        let report = store.gc(Some(0), None);
        assert_eq!(report.kept, 0, "{report:?}");
        assert_eq!(store.stats().entries, 0);
        assert_eq!(store.stats().segments, 0);
        // The store keeps working: the next insert opens a new segment.
        let spec = toy_spec(5);
        store.insert(&spec, &toy_measurement()).expect("insert after gc");
        assert!(matches!(store.lookup(&spec), StoreLookup::Hit(_)));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn gc_leaves_a_compact_store_alone_and_merges_segments() {
        let dir = scratch("gc-merge");
        let first = filled(&dir, [1, 2]);
        let [segment] = &segment_paths(&first)[..] else { panic!("one segment") };
        let before = std::fs::metadata(segment).expect("stat").modified().expect("mtime");
        let report = first.gc(None, None);
        assert_eq!((report.kept, report.removed, report.removed_bytes), (2, 0, 0));
        assert!(segment.exists(), "a compact store is not rewritten");
        // A second writer's segment, holding one run again and one new.
        let second = filled(&dir, [2, 3]);
        assert_eq!(segment_paths(&second).len(), 2);
        let report = second.gc(None, None);
        assert_eq!((report.examined, report.kept, report.removed), (4, 3, 1), "{report:?}");
        let merged = segment_paths(&second);
        assert_eq!(merged.len(), 1, "{merged:?}");
        let after = std::fs::metadata(&merged[0]).expect("stat").modified().expect("mtime");
        assert!(after >= before, "the merged segment keeps its youngest source's age");
        for k in 1..=3 {
            assert!(matches!(second.lookup(&toy_spec(k)), StoreLookup::Hit(_)), "k={k}");
        }
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn verify_reports_each_kind_of_damage() {
        let dir = scratch("verify");
        let store = filled(&dir, 1..=5);
        let segment = &segment_paths(&store)[0];
        let spans = record_spans(segment);
        assert_eq!(spans.len(), 5);
        // Record 0 stays intact; the others take one kind of damage each,
        // in place, so the framing still holds: a payload bit flip, a
        // wrong version, a torn write (the full length on disk, but only
        // the first half of the payload made it), and — on the last
        // record, where a cut can only be — truncation.
        edit(segment, |b| {
            let (s1, _) = spans[1];
            b[s1 + ENTRY_HEADER_LEN + 7] ^= 0x04;
            set_word(&mut b[spans[2].0..], FORMAT_AT, 99);
            let (s3, l3) = spans[3];
            let half = s3 + ENTRY_HEADER_LEN + (l3 - ENTRY_HEADER_LEN) / 2;
            b[half..s3 + l3].fill(0);
            let (s4, l4) = spans[4];
            b.truncate(s4 + l4 / 2);
        });

        let report = store.verify();
        assert_eq!(report.ok, 1, "{report:?}");
        let reasons: Vec<&str> = report.problems.iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(reasons.len(), 4, "{report:?}");
        assert!(reasons.iter().any(|r| r.contains("truncated")), "{reasons:?}");
        assert_eq!(reasons.iter().filter(|r| r.contains("integrity hash")).count(), 2);
        assert!(reasons.iter().any(|r| r.contains("format 99")), "{reasons:?}");
        // Each problem names its segment and offset.
        let name = segment.file_name().and_then(|n| n.to_str()).expect("name");
        assert!(report.problems.iter().all(|(at, _)| at.starts_with(name)), "{report:?}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_store_sees_records_another_store_appends_at_its_next_refresh() {
        let dir = scratch("refresh");
        let reader = ResultStore::open(&dir).expect("open");
        let writer = filled(&dir, [1, 2]);
        assert_eq!(reader.lookup(&toy_spec(1)), StoreLookup::Miss, "not before the refresh");
        reader.refresh();
        for k in [1, 2] {
            assert!(matches!(reader.lookup(&toy_spec(k)), StoreLookup::Hit(_)), "k={k}");
        }
        // A grown segment is read from where its last scan stopped.
        let spec = toy_spec(3);
        writer.insert(&spec, &Executor::new().run(&spec).expect("run")).expect("insert");
        reader.refresh();
        assert!(matches!(reader.lookup(&spec), StoreLookup::Hit(_)));
        // A point query refreshes on its own when the index lacks the address.
        let spec = toy_spec(4);
        writer.insert(&spec, &Executor::new().run(&spec).expect("run")).expect("insert");
        assert!(matches!(reader.entry_payload(spec.spec_hash()), Ok(Some(_))));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn a_record_still_being_appended_is_picked_up_once_complete() {
        let dir = scratch("torn-then-whole");
        let reader = ResultStore::open(&dir).expect("open");
        let spec = toy_spec(1);
        let record = encode_entry(sim_fingerprint(), spec.spec_hash(), &spec, &toy_measurement());
        let path = dir.join("segments").join("other.seg");
        std::fs::write(&path, &record[..record.len() - 3]).expect("half a record");
        reader.refresh();
        assert_eq!(reader.lookup(&spec), StoreLookup::Miss, "a torn tail misses silently");
        std::fs::write(&path, &record).expect("the rest lands");
        reader.refresh();
        assert!(matches!(reader.lookup(&spec), StoreLookup::Hit(_)));
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
