//! Persistent, content-addressed result store: `RunSpec` → measurement.
//!
//! The methodology is a campaign of *fully deterministic* simulations,
//! so a run's result is a pure function of its [`RunSpec`]. PR 4 gave
//! every spec a stable FNV digest ([`RunSpec::spec_hash`]); this module
//! turns that digest into a durable cache key: a [`ResultStore`] is a
//! directory (`.rrb-cache/` by default) holding one compact binary entry
//! per executed run, so re-running a campaign — after a crash, in the next
//! CI job, with one more grid axis — only simulates what changed.
//!
//! Safety properties, in the order they are enforced on a lookup:
//!
//! 1. **Invalidation**: the store manifest records a *simulator
//!    fingerprint* ([`sim_fingerprint`]) — a golden-trace-style digest
//!    of two probe simulations, recomputed by the running binary —
//!    plus the entry-format version. Entries written by a build with
//!    different simulator semantics are purged wholesale at open.
//! 2. **Integrity**: every entry carries `payload_hash`, the
//!    [`fnv1a_64`] of its payload bytes exactly as stored, and the
//!    payload length. Truncated, bit-flipped, or half-written files fail
//!    the check and are reported as a warning, never reused.
//! 3. **Structural confirmation**: the entry stores the *complete*
//!    canonical encoding of its spec (machine, scua, contenders —
//!    labels excluded, exactly like campaign dedup). A hash hit is only
//!    a hit if the stored spec bytes equal the queried spec's encoding
//!    byte for byte, so an FNV collision costs one re-execution, never a
//!    wrong result.
//!
//! Writes are atomic (unique temp file in the same directory, then
//! `rename`), so concurrent campaigns sharing a store can only observe
//! complete entries or no entry. Failed runs are never cached: errors
//! re-execute, which keeps a transiently bad environment from poisoning
//! the store.
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

use crate::campaign::{RunMeasurement, RunSpec};
use crate::json::{fnv1a_64, Json};
use crate::spec::Schema;
use rrb_analysis::Histogram;
use rrb_kernels::{rsk, rsk_nop, AccessKind};
use rrb_sim::{BusOpKind, CoreId, Instr, Machine, MachineConfig, Program, TraceEvent};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::SystemTime;

/// The on-disk entry/manifest format version. Bump on any layout change
/// so older stores are purged instead of misread.
pub const STORE_FORMAT_VERSION: u64 = 2;

/// Environment variable overriding the default store directory.
pub const CACHE_DIR_ENV: &str = "RRB_CACHE_DIR";

/// The default store directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = ".rrb-cache";

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
/// invalidates every store entry; pure performance work (e.g. better
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
            let mut m = Machine::new(cfg.clone()).expect("probe config is valid");
            m.load_program(CoreId::new(0), rsk_nop(AccessKind::Load, 2, &cfg, CoreId::new(0), 20));
            for i in 1..cfg.num_cores {
                let id = CoreId::new(i);
                m.load_program(id, rsk(AccessKind::Load, &cfg, id));
            }
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
    /// A valid, structurally confirmed entry.
    Hit(RunMeasurement),
    /// No entry for this spec.
    Miss,
    /// An entry exists but cannot be trusted (truncated, bit-flipped,
    /// wrong version, stale fingerprint, or a hash collision). The run
    /// re-executes and the reason is surfaced as a campaign warning.
    Rejected(String),
}

/// Aggregate facts about a store, for `rrb cache stats`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// The store directory.
    pub dir: PathBuf,
    /// Entry-format version of this build.
    pub format: u64,
    /// Simulator fingerprint of this build.
    pub fingerprint: u64,
    /// Number of entry files.
    pub entries: u64,
    /// Total size of entry files in bytes.
    pub bytes: u64,
    /// Leftover temporary files (in-flight or abandoned writers).
    pub temp_files: u64,
}

/// The outcome of a full `rrb cache verify` sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VerifyReport {
    /// Entries that passed every check.
    pub ok: u64,
    /// `(file name, problem)` for every entry that failed.
    pub problems: Vec<(String, String)>,
}

/// What `rrb cache gc` did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Entries examined.
    pub examined: u64,
    /// Files removed (invalid entries, expired entries, temp files).
    pub removed: u64,
    /// Bytes freed.
    pub removed_bytes: u64,
    /// Entries kept.
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
    entries: PathBuf,
    fingerprint: u64,
    tmp_counter: AtomicU64,
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

    /// Opens (creating if needed) the store at `dir`.
    ///
    /// The manifest is checked against this build's entry format and
    /// simulator fingerprint; on mismatch every existing entry is purged
    /// — they describe a different simulator — and a fresh manifest is
    /// written atomically.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the directory or manifest cannot be
    /// created.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let entries = dir.join("entries");
        std::fs::create_dir_all(&entries)
            .map_err(io_err(format!("create `{}`", entries.display())))?;
        let store = ResultStore {
            dir,
            entries,
            fingerprint: sim_fingerprint(),
            tmp_counter: AtomicU64::new(0),
        };
        let manifest = store.manifest_json().render_pretty();
        let manifest_path = store.dir.join("manifest.json");
        let current = std::fs::read_to_string(&manifest_path).unwrap_or_default();
        if current != manifest {
            if !current.is_empty() {
                // A manifest from another build: its entries are stale.
                store.purge_entries();
            }
            store.write_atomic_in_dir(&manifest_path, manifest.as_bytes())?;
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The simulator fingerprint entries are keyed under.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn manifest_json(&self) -> Json {
        Json::obj(vec![
            ("format", Json::U64(STORE_FORMAT_VERSION)),
            ("fingerprint", Json::U64(self.fingerprint)),
        ])
    }

    fn entry_path(&self, spec_hash: u64) -> PathBuf {
        self.entries.join(format!("{spec_hash:016x}.bin"))
    }

    fn purge_entries(&self) {
        if let Ok(read) = std::fs::read_dir(&self.entries) {
            for file in read.flatten() {
                let _ = std::fs::remove_file(file.path());
            }
        }
    }

    /// Writes `contents` to `path` atomically: a uniquely named temp
    /// file in the same directory, flushed, then renamed over the
    /// destination. Readers only ever observe complete files.
    fn write_atomic_in_dir(&self, path: &Path, contents: &[u8]) -> Result<(), StoreError> {
        let tmp = path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed)
        ));
        write_atomic_via(&tmp, path, contents)
    }

    /// Looks `spec` up. Never panics and never errors: anything short of
    /// a valid, structurally confirmed entry is a [`StoreLookup::Miss`]
    /// or a [`StoreLookup::Rejected`] with the reason.
    pub fn lookup(&self, spec: &RunSpec) -> StoreLookup {
        let spec_hash = spec.spec_hash();
        let path = self.entry_path(spec_hash);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return StoreLookup::Miss,
            Err(e) => return StoreLookup::Rejected(format!("unreadable entry: {e}")),
        };
        match self.decode_entry(&bytes, Some(spec_hash), Some(spec)) {
            Ok(measurement) => StoreLookup::Hit(measurement),
            Err(reason) => StoreLookup::Rejected(format!("{}: {reason}", file_name(&path))),
        }
    }

    /// Answers a point query by content address: reads and fully
    /// validates the entry stored under `spec_hash` (format version,
    /// simulator fingerprint, content address, integrity hash) and
    /// returns its payload — the canonical spec plus the measurement —
    /// as JSON. This is the `rrb serve` `GET /v1/runs/{hash}` backend;
    /// the JSON is the same whatever the on-disk entry format.
    ///
    /// Returns `Ok(None)` when no entry exists under that address.
    ///
    /// # Errors
    ///
    /// Returns the human-readable reason when an entry exists but
    /// cannot be trusted (unreadable, corrupt, stale fingerprint, or
    /// mis-addressed).
    pub fn entry_payload(&self, spec_hash: u64) -> Result<Option<Json>, String> {
        let path = self.entry_path(spec_hash);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable entry: {e}")),
        };
        decode_payload_json(&bytes, self.fingerprint, spec_hash)
            .map(Some)
            .map_err(|reason| format!("{}: {reason}", file_name(&path)))
    }

    /// Records a successful run. Failed runs are never inserted.
    ///
    /// Returns `false` (without writing) when the measurement contains a
    /// non-finite float: the point-query JSON renders it as `null`, and a
    /// NaN never compares equal to itself, so such runs simply stay
    /// uncached.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the entry cannot be written; callers
    /// downgrade this to a warning (a broken cache must never fail a
    /// run that already succeeded).
    pub fn insert(&self, spec: &RunSpec, m: &RunMeasurement) -> Result<bool, StoreError> {
        if !m.bus_utilization.is_finite() || m.mc_utilization.is_some_and(|u| !u.is_finite()) {
            return Ok(false);
        }
        let entry = encode_entry(self.fingerprint, spec, m);
        self.write_atomic_in_dir(&self.entry_path(spec.spec_hash()), &entry)?;
        Ok(true)
    }

    /// Decodes and fully validates one entry against this store's
    /// fingerprint (see the free [`decode_entry`] for the pure logic).
    fn decode_entry(
        &self,
        bytes: &[u8],
        expect_hash: Option<u64>,
        confirm: Option<&RunSpec>,
    ) -> Result<RunMeasurement, String> {
        decode_entry(bytes, self.fingerprint, expect_hash, confirm)
    }

    /// Facts for `rrb cache stats`.
    pub fn stats(&self) -> StoreStats {
        let mut stats = StoreStats {
            dir: self.dir.clone(),
            format: STORE_FORMAT_VERSION,
            fingerprint: self.fingerprint,
            entries: 0,
            bytes: 0,
            temp_files: 0,
        };
        for (path, len, _) in self.entry_files() {
            if is_temp(&path) {
                stats.temp_files += 1;
            } else {
                stats.entries += 1;
                stats.bytes += len;
            }
        }
        stats
    }

    /// Validates every entry (integrity, version, fingerprint, content
    /// address — everything except structural confirmation, which needs
    /// a querying spec).
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for (path, _, _) in self.entry_files() {
            if is_temp(&path) {
                report.problems.push((file_name(&path), String::from("leftover temporary file")));
                continue;
            }
            let named_hash = path
                .file_stem()
                .and_then(|s| s.to_str())
                .and_then(|s| u64::from_str_radix(s, 16).ok());
            let result = match (std::fs::read(&path), named_hash) {
                (Err(e), _) => Err(format!("unreadable: {e}")),
                (_, None) => Err(String::from("file name is not a 64-bit content address")),
                (Ok(bytes), Some(hash)) => self.decode_entry(&bytes, Some(hash), None).map(|_| ()),
            };
            match result {
                Ok(()) => report.ok += 1,
                Err(problem) => report.problems.push((file_name(&path), problem)),
            }
        }
        report.problems.sort();
        report
    }

    /// Removes invalid entries and temp files, then entries older than
    /// `max_age_secs`, then the oldest entries until the store is within
    /// `max_size_bytes`.
    pub fn gc(&self, max_age_secs: Option<u64>, max_size_bytes: Option<u64>) -> GcReport {
        let mut report = GcReport::default();
        let now = SystemTime::now();
        let mut live: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        for (path, len, modified) in self.entry_files() {
            report.examined += 1;
            let invalid = is_temp(&path)
                || match std::fs::read(&path) {
                    Ok(bytes) => self.decode_entry(&bytes, None, None).is_err(),
                    Err(_) => true,
                };
            let expired = max_age_secs.is_some_and(|max| {
                now.duration_since(modified).ok().is_none_or(|age| age.as_secs() >= max)
            });
            if invalid || expired {
                remove(&path, len, &mut report);
            } else {
                live.push((path, len, modified));
            }
        }
        if let Some(max) = max_size_bytes {
            // Oldest first, so the survivors are the freshest entries.
            live.sort_by_key(|&(_, _, modified)| modified);
            let mut total: u64 = live.iter().map(|&(_, len, _)| len).sum();
            let mut keep = Vec::new();
            for (path, len, modified) in live {
                if total > max {
                    total -= len;
                    remove(&path, len, &mut report);
                } else {
                    keep.push((path, len, modified));
                }
            }
            live = keep;
        }
        report.kept = live.len() as u64;
        report.kept_bytes = live.iter().map(|&(_, len, _)| len).sum();
        report
    }

    /// Every file in the entries directory as `(path, len, mtime)`.
    fn entry_files(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let mut out = Vec::new();
        if let Ok(read) = std::fs::read_dir(&self.entries) {
            for file in read.flatten() {
                let path = file.path();
                if let Ok(meta) = file.metadata() {
                    let modified = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                    out.push((path, meta.len(), modified));
                }
            }
        }
        out.sort();
        out
    }
}

fn remove(path: &Path, len: u64, report: &mut GcReport) {
    if std::fs::remove_file(path).is_ok() {
        report.removed += 1;
        report.removed_bytes += len;
    }
}

fn is_temp(path: &Path) -> bool {
    path.extension().and_then(|e| e.to_str()).is_some_and(|e| e.starts_with("tmp-"))
}

fn file_name(path: &Path) -> String {
    path.file_name().and_then(|n| n.to_str()).unwrap_or("<entry>").to_string()
}

/// Writes `contents` to `path` via `tmp` (same directory) and an atomic
/// rename, cleaning the temp file up on failure.
fn write_atomic_via(tmp: &Path, path: &Path, contents: &[u8]) -> Result<(), StoreError> {
    std::fs::write(tmp, contents).map_err(|e| {
        // A partial temp (disk full, kill mid-write) is garbage: best-
        // effort removal so it cannot linger as a verify/gc problem.
        let _ = std::fs::remove_file(tmp);
        io_err(format!("write `{}`", tmp.display()))(e)
    })?;
    std::fs::rename(tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(tmp);
        io_err(format!("rename `{}` into place", tmp.display()))(e)
    })
}

/// Writes `contents` to `path` atomically (temp file alongside the
/// destination, then rename) — the write discipline every result file
/// in this workspace uses, so an interrupted process never leaves a
/// half-written artifact at a published path.
///
/// # Errors
///
/// Returns [`StoreError`] when the temp file cannot be written or the
/// rename fails.
pub fn write_file_atomic(path: impl AsRef<Path>, contents: &str) -> Result<(), StoreError> {
    let path = path.as_ref();
    let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
    write_atomic_via(&tmp, path, contents.as_bytes())
}

// ---------------------------------------------------------------------
// Entry codec: pure functions (no filesystem), unit-testable under Miri
// ---------------------------------------------------------------------

/// First bytes of every entry file.
const ENTRY_MAGIC: &[u8; 4] = b"RRBE";

/// Magic plus five little-endian `u64` header words.
const ENTRY_HEADER_LEN: usize = ENTRY_MAGIC.len() + 5 * 8;

/// Encodes one complete entry: the fixed header (magic, format version,
/// simulator fingerprint, content address, integrity hash, payload
/// length; integers little-endian) followed by the payload, which is the
/// length-prefixed canonical spec encoding ([`encode_spec`]) and then the
/// measurement.
fn encode_entry(fingerprint: u64, spec: &RunSpec, m: &RunMeasurement) -> Vec<u8> {
    let mut spec_bytes = Vec::with_capacity(1024);
    encode_spec(spec, &mut spec_bytes);
    let mut payload = Vec::with_capacity(spec_bytes.len() + 128);
    put_varint(&mut payload, spec_bytes.len() as u64);
    payload.extend_from_slice(&spec_bytes);
    encode_measurement(m, &mut payload);
    let mut out = Vec::with_capacity(ENTRY_HEADER_LEN + payload.len());
    out.extend_from_slice(ENTRY_MAGIC);
    for word in [
        STORE_FORMAT_VERSION,
        fingerprint,
        spec.spec_hash(),
        fnv1a_64(&payload),
        payload.len() as u64,
    ] {
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

// ---------------------------------------------------------------------
// Canonical binary encodings: RunSpec (confirmation) and RunMeasurement
// ---------------------------------------------------------------------

/// Appends the canonical, label-free encoding of a spec: the machine as
/// the compact JSON text of a spec file's machine section (a lossless
/// mapping), then every program as tagged instruction records. Injective
/// by construction, so byte equality of two encodings is structural
/// equality of the measurement-relevant spec.
fn encode_spec(spec: &RunSpec, out: &mut Vec<u8>) {
    put_bytes(out, spec.cfg.render().render_compact().as_bytes());
    encode_program(&spec.scua, out);
    put_varint(out, spec.contenders.len() as u64);
    for p in &spec.contenders {
        encode_program(p, out);
    }
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

    // Header offsets of the two words the damage tests forge.
    const FORMAT_AT: usize = 4;
    const SPEC_HASH_AT: usize = 20;

    fn set_word(bytes: &mut [u8], at: usize, word: u64) {
        bytes[at..at + 8].copy_from_slice(&word.to_le_bytes());
    }

    // The `entry_*` tests exercise the pure encode/decode codec with no
    // filesystem or simulation — CI runs them (plus the `json` module)
    // under Miri, where a full machine run would be prohibitively slow.

    #[test]
    fn entry_codec_round_trips_without_touching_disk() {
        for (spec, m) in [(toy_spec(1), toy_measurement()), rich_spec_and_measurement()] {
            let bytes = encode_entry(0xfeed, &spec, &m);
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
        let bytes = encode_entry(0xfeed, &spec, &toy_measurement());
        let e = decode_entry(&bytes, 0xbeef, None, None).expect_err("stale fingerprint");
        assert!(e.contains("fingerprint"), "{e}");
        let e = decode_entry(&bytes, 0xfeed, Some(spec.spec_hash() ^ 1), None)
            .expect_err("wrong content address");
        assert!(e.contains("content address"), "{e}");
    }

    #[test]
    fn entry_decode_rejects_corruption_and_collisions() {
        let spec = toy_spec(1);
        let bytes = encode_entry(0xfeed, &spec, &toy_measurement());
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
        assert!(e.contains("entry format 1 but this build writes 2"), "{e}");
        let e = decode_entry(b"{\"format\": 1}", 0xfeed, None, None).expect_err("v1 JSON");
        assert!(e.contains("magic"), "{e}");
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
            let bytes = encode_entry(0xfeed, &spec, &m);
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
        // A valid entry copied to the wrong content address simulates a
        // spec-hash collision: the claimed hash matches the query, the
        // payload is intact, but the stored spec differs structurally.
        let dir = scratch("collision");
        let store = ResultStore::open(&dir).expect("open");
        let stored = toy_spec(1);
        let m = Executor::new().run(&stored).expect("run");
        store.insert(&stored, &m).expect("insert");
        let queried = toy_spec(4);
        let mut forged = std::fs::read(store.entry_path(stored.spec_hash())).expect("read");
        set_word(&mut forged, SPEC_HASH_AT, queried.spec_hash());
        std::fs::write(store.entry_path(queried.spec_hash()), forged).expect("write");
        match store.lookup(&queried) {
            StoreLookup::Rejected(reason) => {
                // The content address sits outside the payload, so the
                // integrity hash still holds: structural confirmation is
                // what refuses the forged entry.
                assert!(reason.contains("collision"), "{reason}");
            }
            other => panic!("forged entry must be rejected, got {other:?}"),
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
        let spec = toy_spec(1);
        {
            let store = ResultStore::open(&dir).expect("open");
            let m = Executor::new().run(&spec).expect("run");
            store.insert(&spec, &m).expect("insert");
        }
        let store = ResultStore::open(&dir).expect("reopen");
        assert!(matches!(store.lookup(&spec), StoreLookup::Hit(_)));
        assert_eq!(store.stats().entries, 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn foreign_manifest_purges_stale_entries() {
        let dir = scratch("purge");
        let spec = toy_spec(1);
        {
            let store = ResultStore::open(&dir).expect("open");
            let m = Executor::new().run(&spec).expect("run");
            store.insert(&spec, &m).expect("insert");
        }
        // Simulate a build with different simulator semantics.
        std::fs::write(
            dir.join("manifest.json"),
            "{\n  \"format\": 1,\n  \"fingerprint\": 12345\n}\n",
        )
        .expect("write manifest");
        let store = ResultStore::open(&dir).expect("reopen");
        assert_eq!(store.stats().entries, 0, "stale entries are purged at open");
        assert_eq!(store.lookup(&spec), StoreLookup::Miss);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn gc_removes_expired_and_oversized_entries() {
        let dir = scratch("gc");
        let store = ResultStore::open(&dir).expect("open");
        for k in 0..3 {
            let spec = toy_spec(k);
            let m = Executor::new().run(&spec).expect("run");
            store.insert(&spec, &m).expect("insert");
        }
        // Drop a junk temp file and a corrupt entry into the store.
        std::fs::write(store.entries.join("dead.tmp-999"), "partial").expect("write");
        std::fs::write(store.entries.join("0000000000000bad.json"), "{").expect("write");
        let report = store.gc(None, None);
        assert_eq!(report.removed, 2, "temp + corrupt files go first: {report:?}");
        assert_eq!(report.kept, 3);

        // Size pressure evicts oldest-first down to the cap: one byte
        // under the current total forces out exactly the oldest entry.
        let report = store.gc(None, Some(report.kept_bytes - 1));
        assert_eq!(report.kept, 2, "{report:?}");
        assert_eq!(report.removed, 1, "{report:?}");

        // max-age 0 expires everything that remains.
        let report = store.gc(Some(0), None);
        assert_eq!(report.kept, 0, "{report:?}");
        assert_eq!(store.stats().entries, 0);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }

    #[test]
    fn verify_reports_each_kind_of_damage() {
        let dir = scratch("verify");
        let store = ResultStore::open(&dir).expect("open");
        let mut damage = Vec::new();
        for k in 1..=5 {
            let spec = toy_spec(k);
            let m = Executor::new().run(&spec).expect("run");
            store.insert(&spec, &m).expect("insert");
            damage.push(store.entry_path(spec.spec_hash()));
        }
        let rewrite = |path: &Path, f: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = std::fs::read(path).expect("read");
            f(&mut bytes);
            std::fs::write(path, bytes).expect("write");
        };
        // Entry 0 stays intact; the others take one kind of damage each,
        // in place, so the content address still matches.
        // Truncation, a payload bit flip, a wrong version, and a torn
        // write: the full length on disk, but only the first half of the
        // payload made it (the rest never left the page cache).
        rewrite(&damage[1], &|b| b.truncate(b.len() / 2));
        rewrite(&damage[2], &|b| b[ENTRY_HEADER_LEN + 7] ^= 0x04);
        rewrite(&damage[3], &|b| set_word(b, FORMAT_AT, 99));
        rewrite(&damage[4], &|b| {
            let half = ENTRY_HEADER_LEN + (b.len() - ENTRY_HEADER_LEN) / 2;
            b[half..].fill(0);
        });

        let report = store.verify();
        assert_eq!(report.ok, 1, "{report:?}");
        let reasons: Vec<&str> = report.problems.iter().map(|(_, p)| p.as_str()).collect();
        assert_eq!(reasons.len(), 4, "{report:?}");
        assert!(reasons.iter().any(|r| r.contains("truncated")), "{reasons:?}");
        assert_eq!(reasons.iter().filter(|r| r.contains("integrity hash")).count(), 2);
        assert!(reasons.iter().any(|r| r.contains("format 99")), "{reasons:?}");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
