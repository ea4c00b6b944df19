//! End-to-end validation of the persistent result store: the
//! acceptance contract (a warm re-run of the shipped
//! `ngmp_sweep.json` experiment simulates *nothing* and renders
//! byte-identical output) and the robustness contract (damaged or
//! concurrently written entries cause re-execution with a warning —
//! never a panic, never silent wrong reuse).

use rrb::campaign::{Campaign, CampaignGrid, CampaignResult, GridScenario};
use rrb::spec::ExperimentSpec;
use rrb::store::{ResultStore, StoreLookup};
use rrb_kernels::AccessKind;
use rrb_sim::MachineConfig;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};

/// A scratch store directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let path = std::env::temp_dir()
            .join(format!("rrb-integration-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open(dir: &ScratchDir) -> Arc<ResultStore> {
    Arc::new(ResultStore::open(&dir.0).expect("open store"))
}

fn small_grid() -> CampaignGrid {
    CampaignGrid::new(GridScenario::Sweep, MachineConfig::toy(4, 2))
        .contender_accesses(vec![AccessKind::Load, AccessKind::Store])
        .iterations(vec![60])
        .max_k(10)
}

fn run_with(store: &Arc<ResultStore>, jobs: usize) -> CampaignResult {
    Campaign::builder().grid(&small_grid()).jobs(jobs).store(store.clone()).build().run()
}

/// The store's segment files, by name.
fn segments(dir: &ScratchDir) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir.0.join("segments"))
        .expect("segments dir")
        .flatten()
        .map(|f| f.path())
        .collect();
    files.sort();
    files
}

/// A record's byte range in a segment. A record is a 4-byte magic, then
/// little-endian u64 words (format, fingerprint, content address,
/// payload hash, payload length), then the payload from byte 44.
fn records(segment: &[u8]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut at = 0;
    while at + 44 <= segment.len() {
        let len = u64::from_le_bytes(segment[at + 36..at + 44].try_into().expect("8 bytes"));
        let end = at + 44 + len as usize;
        if end > segment.len() {
            break;
        }
        out.push(at..end);
        at = end;
    }
    out
}

/// Rewrites a file through `f`.
fn edit(path: &Path, f: impl FnOnce(&mut Vec<u8>)) {
    let mut bytes = std::fs::read(path).expect("read segment");
    f(&mut bytes);
    std::fs::write(path, bytes).expect("write segment");
}

#[test]
fn warm_rerun_of_the_shipped_ngmp_sweep_simulates_nothing() {
    // The acceptance pin: the checked-in experiment file, run cold then
    // warm against one store. The warm pass must answer every unique
    // run from the store (zero simulations, per the campaign's run
    // counters) and render byte-identical json/csv/text.
    let spec_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/experiments/ngmp_sweep.json");
    let spec = ExperimentSpec::from_file(&spec_path).expect("shipped spec parses");
    let dir = ScratchDir::new("ngmp-sweep");
    let store = open(&dir);

    let campaign =
        |store: &Arc<ResultStore>| spec.to_campaign_builder(2).store(store.clone()).build().run();

    let cold = campaign(&store);
    assert!(cold.stats.executed_runs > 0, "cold run must simulate: {:?}", cold.stats);
    assert_eq!(cold.stats.store_hits, 0, "{:?}", cold.stats);
    assert_eq!(cold.stats.failed_runs, 0, "the shipped spec runs clean: {:?}", cold.stats);
    assert_eq!(
        cold.stats.store_writes, cold.stats.executed_runs,
        "every unique run is recorded: {:?}",
        cold.stats
    );

    let warm = campaign(&store);
    assert_eq!(warm.stats.executed_runs, 0, "warm run must simulate nothing: {:?}", warm.stats);
    assert_eq!(
        warm.stats.store_hits, cold.stats.executed_runs,
        "every unique run resumes from the store: {:?}",
        warm.stats
    );
    assert!(warm.warnings.is_empty(), "{:?}", warm.warnings);

    assert_eq!(cold.to_json(), warm.to_json(), "json must be byte-identical");
    assert_eq!(cold.to_csv(), warm.to_csv(), "csv must be byte-identical");
    assert_eq!(cold.render_text(), warm.render_text(), "text must be byte-identical");
}

#[test]
fn reopened_store_resumes_across_processes_boundaries() {
    // Drop and reopen the store between runs: entries are durable, not
    // tied to the process-lifetime dedup cache.
    let dir = ScratchDir::new("reopen");
    let cold = run_with(&open(&dir), 2);
    let warm = run_with(&open(&dir), 1);
    assert_eq!(warm.stats.executed_runs, 0, "{:?}", warm.stats);
    assert_eq!(cold.to_json(), warm.to_json());
    assert_eq!(cold.to_csv(), warm.to_csv());
    assert_eq!(cold.render_text(), warm.render_text());
}

#[test]
fn damaged_entries_reexecute_with_a_warning_and_heal() {
    let dir = ScratchDir::new("damage");
    let store = open(&dir);
    let cold = run_with(&store, 1);
    let [segment] = &segments(&dir)[..] else { panic!("one writer, one segment") };
    let spans = records(&std::fs::read(segment).expect("read segment"));
    assert_eq!(spans.len(), cold.stats.store_writes, "one record per recorded run");
    assert!(spans.len() >= 5, "need four records to damage and one to splice from");

    // Four kinds of damage, one record each, as byte edits of the
    // segment under the open store: truncation (of the last record, the
    // only one a cut can reach), a bit flip in the payload, a wrong
    // format version, and a torn record — the head of this record with
    // the rest of its bytes taken from another, what an interleaved
    // writer would leave.
    let last = spans.len() - 1;
    edit(segment, |b| {
        let other = b[spans[4].clone()].to_vec();
        b[spans[1].start + 44 + 5] ^= 0x01;
        b[spans[2].start + 4..spans[2].start + 12].copy_from_slice(&77u64.to_le_bytes());
        let torn = spans[3].start + 60..spans[3].end.min(spans[3].start + other.len());
        let from = 60..60 + torn.len();
        b[torn].copy_from_slice(&other[from]);
        b.truncate(spans[last].start + spans[last].len() / 3);
    });

    let healed = run_with(&store, 4);
    assert_eq!(healed.stats.executed_runs, 4, "all four damaged runs re-execute");
    assert_eq!(healed.warnings.len(), 4, "one warning per rejected record: {:?}", healed.warnings);
    for warning in &healed.warnings {
        assert!(warning.contains("re-executing"), "{warning}");
    }
    for reason in ["truncated", "integrity hash", "entry format 77"] {
        assert!(healed.warnings.iter().any(|w| w.contains(reason)), "{:?}", healed.warnings);
    }
    assert_eq!(healed.to_json(), cold.to_json(), "damage never changes results");
    assert_eq!(healed.to_csv(), cold.to_csv());

    // The re-execution appended fresh records that supersede the
    // damaged ones: a further run is fully warm and warning-free again.
    let warm = run_with(&store, 1);
    assert_eq!(warm.stats.executed_runs, 0, "{:?}", warm.stats);
    assert!(warm.warnings.is_empty(), "{:?}", warm.warnings);
    assert_eq!(warm.to_json(), cold.to_json());
}

#[test]
fn a_torn_tail_misses_silently_and_gc_drops_it() {
    let dir = ScratchDir::new("torn-tail");
    let cold = run_with(&open(&dir), 1);
    let [segment] = &segments(&dir)[..] else { panic!("one segment") };
    let spans = records(&std::fs::read(segment).expect("read segment"));
    let last = spans.last().expect("a record").clone();
    // A writer killed mid-append: the last record ends mid-payload.
    edit(segment, |b| b.truncate(last.start + 44 + (last.len() - 44) / 2));

    let store = open(&dir);
    assert_eq!(store.stats().entries as usize, spans.len() - 1, "the torn record is not indexed");
    let rerun = run_with(&store, 1);
    assert_eq!(rerun.stats.executed_runs, 1, "only the torn run misses: {:?}", rerun.stats);
    assert_eq!(rerun.stats.store_hits, spans.len() - 1, "{:?}", rerun.stats);
    assert!(rerun.warnings.is_empty(), "a torn tail is a miss, not damage: {:?}", rerun.warnings);
    assert_eq!(rerun.to_json(), cold.to_json());

    let report = store.verify();
    assert_eq!(report.problems.len(), 1, "{report:?}");
    assert!(report.problems[0].1.contains("torn tail"), "{report:?}");
    let gc = store.gc(None, None);
    assert_eq!(gc.removed, 1, "gc drops the tail and nothing else: {gc:?}");
    assert_eq!(gc.kept as usize, spans.len(), "{gc:?}");
    assert!(store.verify().problems.is_empty());
    assert_eq!(run_with(&open(&dir), 1).stats.executed_runs, 0);
}

#[test]
fn a_flipped_payload_byte_is_rejected_then_superseded() {
    let dir = ScratchDir::new("flip");
    let cold = run_with(&open(&dir), 1);
    let [segment] = &segments(&dir)[..] else { panic!("one segment") };
    let spans = records(&std::fs::read(segment).expect("read segment"));
    edit(segment, |b| b[spans[2].start + 44 + 9] ^= 0x80);

    // A store opened on the damaged segment: the scan leaves the record
    // out of the index, and its run is rejected, not missed.
    let store = open(&dir);
    let healed = run_with(&store, 2);
    assert_eq!(healed.stats.executed_runs, 1, "{:?}", healed.stats);
    assert_eq!(healed.warnings.len(), 1, "{:?}", healed.warnings);
    assert!(healed.warnings[0].contains("integrity hash"), "{:?}", healed.warnings);
    assert_eq!(healed.to_json(), cold.to_json());
    // The fresh record, in the healing store's own segment, supersedes
    // the damaged one — in this store and in the next one opened.
    assert_eq!(segments(&dir).len(), 2);
    for store in [store, open(&dir)] {
        let warm = run_with(&store, 1);
        assert_eq!(warm.stats.executed_runs, 0, "{:?}", warm.stats);
        assert!(warm.warnings.is_empty(), "{:?}", warm.warnings);
    }
}

#[test]
fn two_stores_on_one_directory_append_at_once() {
    let dir = ScratchDir::new("two-writers");
    let reference = Campaign::builder().grid(&small_grid()).jobs(1).build().run().to_json();
    let (a, b) = (open(&dir), open(&dir));
    // Each store appends one run before the race, so both hold an open
    // segment when the campaigns start together at the barrier.
    let campaign = Campaign::builder().grid(&small_grid()).build();
    let plan = campaign.plan();
    let mut arena = rrb::executor::MachineArena::new();
    for (store, spec) in [(&a, &plan.unique_specs()[0]), (&b, &plan.unique_specs()[1])] {
        assert!(store.insert(spec, &arena.execute(spec).expect("run")).expect("insert"));
    }
    let start = Barrier::new(2);
    let outputs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = [(&a, 1), (&b, 2)]
            .into_iter()
            .map(|(store, jobs)| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    run_with(store, jobs).to_json()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("campaign thread")).collect()
    });
    for output in &outputs {
        assert_eq!(output, &reference, "racing stores must agree byte for byte");
    }
    let report = open(&dir).verify();
    assert!(report.problems.is_empty(), "{report:?}");
    let warm = run_with(&open(&dir), 2);
    assert_eq!(warm.stats.executed_runs, 0, "{:?}", warm.stats);
    assert_eq!(warm.to_json(), reference);
    assert_eq!(segments(&dir).len(), 2, "each store appends to a segment of its own");
}

#[test]
fn a_long_lived_store_sees_another_writer_at_its_next_campaign() {
    // A daemon-style store, opened before any other process wrote: the
    // other writer's records show up at the daemon's next campaign.
    let dir = ScratchDir::new("daemon");
    let daemon = open(&dir);
    let other = run_with(&open(&dir), 2);
    assert_eq!(other.stats.store_writes, other.stats.executed_runs);
    let next = run_with(&daemon, 1);
    assert_eq!(next.stats.executed_runs, 0, "{:?}", next.stats);
    assert_eq!(next.stats.store_hits, other.stats.executed_runs, "{:?}", next.stats);
    assert_eq!(next.to_json(), other.to_json());
}

#[test]
fn a_store_written_by_the_json_codec_is_purged_and_re_executes_cleanly() {
    // A format-1 store as the JSON entry codec left it: a manifest with
    // this build's fingerprint but the old format, and pretty-JSON
    // entries named by content address.
    let dir = ScratchDir::new("v1-store");
    let fingerprint = rrb::store::sim_fingerprint();
    let entries = dir.0.join("entries");
    std::fs::create_dir_all(&entries).expect("create entries dir");
    std::fs::write(
        dir.0.join("manifest.json"),
        format!("{{\n  \"format\": 1,\n  \"fingerprint\": {fingerprint}\n}}\n"),
    )
    .expect("write v1 manifest");
    let campaign = Campaign::builder().grid(&small_grid()).build();
    let plan = campaign.plan();
    for spec in plan.unique_specs() {
        let hash = spec.spec_hash();
        let entry = format!(
            "{{\n  \"format\": 1,\n  \"fingerprint\": {fingerprint},\n  \"spec_hash\": {hash},\n  \
             \"payload_hash\": 0,\n  \"payload\": {{}}\n}}\n"
        );
        std::fs::write(entries.join(format!("{hash:016x}.json")), entry).expect("write v1 entry");
    }

    let store = open(&dir);
    assert_eq!(store.stats().entries, 0, "opening purges every format-1 entry");
    let cold = run_with(&store, 2);
    assert_eq!(cold.stats.executed_runs, plan.unique_specs().len(), "{:?}", cold.stats);
    assert!(cold.warnings.is_empty(), "purged entries are misses, not damage: {:?}", cold.warnings);
    let warm = run_with(&store, 1);
    assert_eq!(warm.stats.executed_runs, 0, "{:?}", warm.stats);
    assert_eq!(warm.to_json(), cold.to_json());
    assert!(store.verify().problems.is_empty());
}

#[test]
fn concurrent_campaigns_share_a_store_without_panics_or_drift() {
    // Several parallel campaigns race on one store: lookups, inserts,
    // and atomic renames interleave freely. Every campaign must finish
    // with byte-identical output, and afterwards the store must be
    // fully valid and fully warm.
    let dir = ScratchDir::new("concurrent");
    let store = open(&dir);
    let reference = Campaign::builder().grid(&small_grid()).jobs(1).build().run();
    let outputs: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let store = store.clone();
                scope.spawn(move || run_with(&store, 1 + i % 3).to_json())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("campaign thread")).collect()
    });
    for output in &outputs {
        assert_eq!(output, &reference.to_json(), "racing campaigns must agree");
    }
    let report = open(&dir).verify();
    assert!(report.problems.is_empty(), "{report:?}");
    assert!(report.ok > 0);
    let warm = run_with(&store, 2);
    assert_eq!(warm.stats.executed_runs, 0, "{:?}", warm.stats);
}

#[test]
fn failed_runs_are_never_cached() {
    // A scenario whose runs fail at execution time (starved cycle
    // budget): the campaign records errors, the store stays empty, and
    // a re-run re-executes — failures must not be resumed.
    let mut starved = MachineConfig::toy(4, 2);
    starved.max_cycles = 40;
    let dir = ScratchDir::new("failures");
    let store = open(&dir);
    let run = || {
        Campaign::builder()
            .grid(&CampaignGrid::new(GridScenario::Naive, starved.clone()))
            .store(store.clone())
            .build()
            .run()
    };
    let first = run();
    assert!(first.stats.failed_runs > 0, "{:?}", first.stats);
    assert_eq!(store.stats().entries, 0, "failed runs must not be recorded");
    let second = run();
    assert!(second.stats.executed_runs > 0, "failures re-execute: {:?}", second.stats);
    assert_eq!(first.to_json(), second.to_json());
}

#[test]
fn store_lookup_respects_label_independence_like_dedup() {
    // The store keys on the measurement (config + programs), not the
    // label — the same identity the in-memory dedup table uses — so a
    // renamed scenario still resumes.
    let dir = ScratchDir::new("labels");
    let store = open(&dir);
    let cfg = MachineConfig::toy(4, 2);
    let scua = rrb_kernels::rsk_nop(AccessKind::Load, 1, &cfg, rrb_sim::CoreId::new(0), 40);
    let spec = rrb::campaign::RunSpec::isolated("original", cfg, scua);
    let (result, _, _) = rrb::executor::MachineArena::new().execute_stored(&spec, Some(&store));
    let measurement = result.expect("run succeeds");
    let mut renamed = spec.clone();
    renamed.label = String::from("renamed");
    match store.lookup(&renamed) {
        StoreLookup::Hit(cached) => assert_eq!(cached, measurement),
        other => panic!("expected a hit for the renamed spec, got {other:?}"),
    }
}
