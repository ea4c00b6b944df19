//! End-to-end daemon tests over real sockets: boot a [`Server`] on an
//! ephemeral port, talk to it with the crate's own minimal client, and
//! check the streaming protocol, the store-backed endpoints, error
//! containment, concurrent clients, and graceful shutdown.

use rrb::campaign::{CampaignGrid, GridScenario, RunSpec};
use rrb::executor::Executor;
use rrb::json::Json;
use rrb::spec::{ExperimentSpec, WorkloadCase};
use rrb::store::ResultStore;
use rrb_kernels::{rsk_nop, AccessKind, AutobenchKernel, KernelSpec};
use rrb_serve::{client, ServeConfig, ServeStats, Server, ServerHandle};
use rrb_sim::{ArbiterKind, CoreId, MachineConfig};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("rrb-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Daemon {
    addr: SocketAddr,
    store: Arc<ResultStore>,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<ServeStats>>,
    _dir: TempDir,
}

impl Daemon {
    fn boot(tag: &str, workers: usize) -> Daemon {
        let dir = TempDir::new(tag);
        let store = Arc::new(ResultStore::open(dir.0.join("cache")).unwrap());
        let config = ServeConfig { addr: String::from("127.0.0.1:0"), workers };
        let server = Server::bind(config, Arc::clone(&store)).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Daemon { addr, store, handle, thread, _dir: dir }
    }

    /// Graceful shutdown via the endpoint, returning the final stats.
    fn shutdown(self) -> ServeStats {
        let resp = client::post(self.addr, "/v1/shutdown", "").unwrap();
        assert_eq!(resp.status, 200);
        self.thread.join().unwrap().unwrap()
    }
}

/// A small derive-grid spec (everything deduplicates through one plan).
fn small_spec() -> String {
    let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
        .iterations(vec![40])
        .max_k(8);
    ExperimentSpec::from_grid("serve-test", &grid).to_text()
}

/// The parsed `stats` trailer line of a campaign stream.
fn stats_line(body: &str) -> Json {
    let line = body
        .lines()
        .find(|l| l.contains("\"type\":\"stats\""))
        .expect("campaign stream has a stats line");
    Json::parse(line).unwrap()
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("no u64 `{key}` in {v:?}"))
}

/// Everything except the non-deterministic `stats` trailer.
fn deterministic_lines(body: &str) -> Vec<&str> {
    body.lines().filter(|l| !l.is_empty() && !l.contains("\"type\":\"stats\"")).collect()
}

#[test]
fn healthz_errors_and_unknown_routes() {
    let daemon = Daemon::boot("basic", 1);

    let ok = client::get(daemon.addr, "/healthz").unwrap();
    assert_eq!(ok.status, 200);
    assert_eq!(ok.body, "{\"status\":\"ok\"}");

    assert_eq!(client::get(daemon.addr, "/nope").unwrap().status, 404);
    assert_eq!(client::post(daemon.addr, "/healthz", "").unwrap().status, 405);
    assert_eq!(client::get(daemon.addr, "/v1/runs/zzz").unwrap().status, 400);
    assert_eq!(client::get(daemon.addr, "/v1/runs/0123456789abcdef").unwrap().status, 404);

    // Malformed and unrunnable specs are contained as status codes.
    assert_eq!(client::post(daemon.addr, "/v1/campaigns", "not json").unwrap().status, 422);
    let empty = "{\"version\":1,\"name\":\"x\",\"machine\":{},\"grid\":null,\"workloads\":[]}";
    let resp = client::post(daemon.addr, "/v1/campaigns", empty).unwrap();
    assert_eq!(resp.status, 422);
    assert!(resp.body.contains("error"));

    let stats = daemon.shutdown();
    assert_eq!(stats.campaigns, 0);
    assert_eq!(stats.runs_executed, 0);
}

#[test]
fn campaign_stream_cold_then_warm_and_point_queries() {
    let daemon = Daemon::boot("campaign", 2);
    let spec = small_spec();

    // Cold: every unique run simulates.
    let cold = client::post(daemon.addr, "/v1/campaigns", &spec).unwrap();
    assert_eq!(cold.status, 200);
    let header = Json::parse(cold.lines()[0]).unwrap();
    assert_eq!(header.get("type").and_then(Json::as_str), Some("campaign"));
    let unique = u64_field(&header, "unique_runs");
    assert!(unique > 0);
    let cold_stats = stats_line(&cold.body);
    assert_eq!(u64_field(&cold_stats, "executed_runs"), unique);
    assert_eq!(u64_field(&cold_stats, "store_hits"), 0);

    // Warm: byte-identical records, zero simulations.
    let warm = client::post(daemon.addr, "/v1/campaigns", &spec).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(deterministic_lines(&cold.body), deterministic_lines(&warm.body));
    let warm_stats = stats_line(&warm.body);
    assert_eq!(u64_field(&warm_stats, "executed_runs"), 0);
    assert_eq!(u64_field(&warm_stats, "store_hits"), unique);

    // Every streamed run's content address answers a point query.
    let mut hashes: Vec<String> = cold
        .body
        .lines()
        .filter(|l| l.contains("\"type\":\"run\""))
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| spec_hash_of(&v))
        .collect();
    hashes.sort();
    hashes.dedup();
    assert!(!hashes.is_empty());
    for hash in &hashes {
        let resp = client::get(daemon.addr, &format!("/v1/runs/{hash}")).unwrap();
        assert_eq!(resp.status, 200, "point query for {hash}: {}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert!(v.get("payload").and_then(|p| p.get("measurement")).is_some());
    }

    // The store stats endpoint sees the entries and the counters.
    let stats = client::get(daemon.addr, "/v1/store/stats").unwrap();
    assert_eq!(stats.status, 200);
    let v = Json::parse(&stats.body).unwrap();
    assert_eq!(u64_field(&v, "entries"), unique);
    let server = v.get("server").unwrap();
    assert_eq!(u64_field(server, "campaigns"), 2);

    // The static analyzer endpoint works on the same body.
    let analyzed = client::post(daemon.addr, "/v1/analyze", &spec).unwrap();
    assert_eq!(analyzed.status, 200);
    assert!(!Json::parse(&analyzed.body)
        .unwrap()
        .get("cells")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());

    let final_stats = daemon.shutdown();
    assert_eq!(final_stats.campaigns, 2);
    assert_eq!(final_stats.runs_executed, unique);
    assert!(final_stats.point_queries >= hashes.len() as u64);
}

fn spec_hash_of(v: &Json) -> Option<String> {
    v.get("spec_hash").and_then(Json::as_str).map(str::to_owned)
}

/// The runs whose point-query bodies are pinned under `tests/golden/`:
/// a contended rsk-nop run on the toy single-bus machine and one on the
/// two-level NGMP preset (so the body carries an mc histogram and an mc
/// utilisation).
fn golden_runs() -> Vec<(&'static str, RunSpec)> {
    [("toy", MachineConfig::toy(4, 2)), ("ngmp_two_level", MachineConfig::ngmp_two_level())]
        .into_iter()
        .map(|(name, cfg)| {
            let scua = rsk_nop(AccessKind::Load, 3, &cfg, CoreId::new(0), 12);
            (name, RunSpec::contended_rsk(name, cfg, scua, AccessKind::Load))
        })
        .collect()
}

fn golden_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/golden/point_{name}.json"))
}

/// Stores each golden run and fetches its `GET /v1/runs/{hash}` body.
fn golden_bodies(tag: &str) -> Vec<(&'static str, String)> {
    let daemon = Daemon::boot(tag, 1);
    let bodies = golden_runs()
        .into_iter()
        .map(|(name, spec)| {
            let m = Executor::new().run(&spec).unwrap();
            assert!(daemon.store.insert(&spec, &m).unwrap());
            let resp =
                client::get(daemon.addr, &format!("/v1/runs/{:016x}", spec.spec_hash())).unwrap();
            assert_eq!(resp.status, 200, "{}", resp.body);
            (name, resp.body)
        })
        .collect();
    daemon.shutdown();
    bodies
}

#[test]
fn point_query_bodies_are_byte_identical_to_the_golden_files() {
    // The bodies were captured from the original JSON entry codec; the
    // store's on-disk format may change, the point-query contract not.
    for (name, body) in golden_bodies("golden") {
        let expected = std::fs::read_to_string(golden_path(name)).unwrap();
        assert_eq!(body, expected, "point-query body for the {name} run drifted");
    }
}

/// Rewrites the golden files from the running build. Only for an
/// *intended* change to the point-query body:
/// `cargo test -p rrb-serve --test integration_serve -- --ignored`.
#[test]
#[ignore]
fn capture_golden_point_bodies() {
    for (name, body) in golden_bodies("golden-capture") {
        std::fs::create_dir_all(golden_path(name).parent().unwrap()).unwrap();
        std::fs::write(golden_path(name), body).unwrap();
    }
}

#[test]
fn concurrent_clients_agree_and_the_store_verifies_clean() {
    let daemon = Daemon::boot("concurrent", 2);
    let spec = small_spec();

    // N racing clients posting the same overlapping spec.
    let responses: Vec<client::Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let spec = spec.clone();
                let addr = daemon.addr;
                scope.spawn(move || client::post(addr, "/v1/campaigns", &spec).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let header = Json::parse(responses[0].lines()[0]).unwrap();
    let unique = u64_field(&header, "unique_runs");

    // Byte-identical per-run records (and scenario/summary lines) for
    // every client, regardless of interleaving.
    let reference = deterministic_lines(&responses[0].body);
    for resp in &responses {
        assert_eq!(resp.status, 200);
        assert_eq!(deterministic_lines(&resp.body), reference);
    }

    // No duplicate simulations beyond the benign race window: every
    // client saw each unique run exactly once (hit or simulated), and
    // the store ends up complete — a follow-up pass simulates nothing.
    for resp in &responses {
        let stats = stats_line(&resp.body);
        assert_eq!(u64_field(&stats, "executed_runs") + u64_field(&stats, "store_hits"), unique);
    }
    let warm = client::post(daemon.addr, "/v1/campaigns", &spec).unwrap();
    assert_eq!(u64_field(&stats_line(&warm.body), "executed_runs"), 0);

    // The racing writes left a verifiably clean store.
    let report = daemon.store.verify();
    assert!(report.problems.is_empty(), "store problems: {:?}", report.problems);
    assert_eq!(
        u64_field(
            &Json::parse(&client::get(daemon.addr, "/v1/store/stats").unwrap().body).unwrap(),
            "entries"
        ),
        unique
    );

    daemon.shutdown();
}

/// Joins the daemon thread, failing if `Server::run` has not returned
/// within `limit` (the accept loop blocks, so a missed wake-up hangs).
fn join_within(daemon: Daemon, limit: Duration) -> ServeStats {
    let deadline = Instant::now() + limit;
    while !daemon.thread.is_finished() {
        assert!(Instant::now() < deadline, "Server::run still blocked {limit:?} after the drain");
        std::thread::sleep(Duration::from_millis(2));
    }
    daemon.thread.join().unwrap().unwrap()
}

#[test]
fn idle_daemon_wakes_on_handle_shutdown() {
    let daemon = Daemon::boot("wake-handle", 1);
    // A served request shows the loop is up; it is now idle in accept().
    assert_eq!(client::get(daemon.addr, "/healthz").unwrap().status, 200);
    daemon.handle.shutdown();
    join_within(daemon, Duration::from_secs(1));
}

#[test]
fn idle_daemon_wakes_on_the_shutdown_endpoint() {
    let daemon = Daemon::boot("wake-endpoint", 1);
    assert_eq!(client::get(daemon.addr, "/healthz").unwrap().status, 200);
    let resp = client::post(daemon.addr, "/v1/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    join_within(daemon, Duration::from_secs(1));
}

#[test]
fn draining_shutdown_finishes_the_campaign_in_flight() {
    let daemon = Daemon::boot("drain", 1);
    let spec = small_spec();
    let addr = daemon.addr;

    // Start a campaign, wait until the daemon has accepted it (the
    // campaigns counter ticks at the start of the handler), then
    // request shutdown; the drain must let it finish, not cut it off.
    let campaign = std::thread::spawn(move || client::post(addr, "/v1/campaigns", &spec).unwrap());
    for _ in 0..1000 {
        let stats = client::get(daemon.addr, "/v1/store/stats").unwrap();
        let v = Json::parse(&stats.body).unwrap();
        if u64_field(v.get("server").unwrap(), "campaigns") >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = client::post(daemon.addr, "/v1/shutdown", "");
    let resp = campaign.join().unwrap();
    assert_eq!(resp.status, 200);
    let stats = stats_line(&resp.body);
    let header = Json::parse(resp.lines()[0]).unwrap();
    assert_eq!(
        u64_field(&stats, "executed_runs") + u64_field(&stats, "store_hits"),
        u64_field(&header, "unique_runs")
    );
    let final_stats = daemon.thread.join().unwrap().unwrap();
    assert_eq!(final_stats.campaigns, 1);
}

/// The checked-in NGMP sweep (a derive grid plus two workload cases).
fn ngmp_sweep_spec() -> String {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/experiments/ngmp_sweep.json");
    std::fs::read_to_string(path).unwrap()
}

/// A small workload-only spec on the toy machine. The cycle budget is
/// too tight for the second case, so its runs end in error records.
fn small_workload_spec() -> String {
    let mut machine = MachineConfig::toy(4, 2);
    machine.max_cycles = 4_000;
    let case = |name: &str, iterations| WorkloadCase {
        name: name.to_string(),
        scua: KernelSpec::RskNop { access: AccessKind::Load, nops: 2, iterations },
        contenders: vec![KernelSpec::Rsk { access: AccessKind::Load }; 3],
    };
    let workloads = vec![case("short", 20), case("over-budget", 5_000), case("short-again", 20)];
    ExperimentSpec { name: String::from("serve-workloads"), machine, grid: None, workloads }
        .to_text()
}

/// An NDJSON line's object minus the `drop` keys, rendered compactly.
fn without(line: &Json, drop: &[&str]) -> String {
    let fields = line.as_object().unwrap().iter().filter(|(k, _)| !drop.contains(&k.as_str()));
    Json::Obj(fields.cloned().collect()).render_compact()
}

/// The parsed lines of a stream whose `type` is `kind`, in order.
fn lines_of(body: &str, kind: &str) -> Vec<Json> {
    body.lines()
        .filter(|l| !l.is_empty())
        .map(|l| Json::parse(l).unwrap())
        .filter(|v| v.get("type").and_then(Json::as_str) == Some(kind))
        .collect()
}

#[test]
fn campaign_stream_matches_campaign_run_record_for_record() {
    let daemon = Daemon::boot("equivalence", 2);
    let mut failures_seen = 0;
    for text in [ngmp_sweep_spec(), small_workload_spec()] {
        let resp = client::post(daemon.addr, "/v1/campaigns", &text).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let campaign = ExperimentSpec::parse(&text).unwrap().to_campaign(1);
        let expected = campaign.run();
        let plan = campaign.plan();
        let unique_hashes: Vec<Option<String>> = plan
            .scenarios()
            .iter()
            .flat_map(|s| match &s.runs {
                Ok(_) => s
                    .indices
                    .iter()
                    .map(|&i| Some(format!("{:016x}", plan.unique_specs()[i].spec_hash())))
                    .collect(),
                Err(_) => vec![None],
            })
            .collect();

        let runs = lines_of(&resp.body, "run");
        assert_eq!(runs.len(), expected.records.len());
        assert_eq!(runs.len(), unique_hashes.len());
        for ((line, record), hash) in runs.iter().zip(&expected.records).zip(&unique_hashes) {
            assert_eq!(without(line, &["type", "spec_hash"]), record.to_json().render_compact());
            assert_eq!(&spec_hash_of(line), hash);
        }
        let scenarios = lines_of(&resp.body, "scenario");
        assert_eq!(scenarios.len(), expected.reports.len());
        for (line, report) in scenarios.iter().zip(&expected.reports) {
            assert_eq!(without(line, &["type"]), report.to_json().render_compact());
        }
        let summary = &lines_of(&resp.body, "summary")[0];
        assert_eq!(u64_field(summary, "failed_runs"), expected.stats.failed_runs as u64);
        failures_seen += expected.stats.failed_runs;
    }
    assert!(failures_seen > 0, "the workload spec must exercise failed run records");
    daemon.shutdown();
}

#[test]
fn lint_rejection_body_is_pinned() {
    let daemon = Daemon::boot("lint-reject", 1);
    let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
        .arbiters(vec![ArbiterKind::Tdma { slot_cycles: 1 }])
        .iterations(vec![40])
        .max_k(8);
    let spec = ExperimentSpec::from_grid("starving", &grid).to_text();
    let resp = client::post(daemon.addr, "/v1/campaigns", &spec).unwrap();
    assert_eq!(resp.status, 422);
    let expected = concat!(
        r#"{"error":"spec failed lint","findings":["#,
        r#"{"severity":"error","path":"grid.arbiters[0]","message":"tdma slot 1 is shorter "#,
        r#"than the worst bus occupancy 2; the arbiter only grants requests that fit the "#,
        r#"remaining slot, so those transactions starve forever"},"#,
        r#"{"severity":"warning","path":"grid.max_k","message":"nop sweep tops out at 8 but "#,
        r#"one saw-tooth period can reach 6 cycles; cover at least two periods (12) for the "#,
        r#"matcher to lock on"}]}"#,
    );
    assert_eq!(resp.body, expected);
    daemon.shutdown();
}

/// POSTs `body` to `/v1/campaigns` over a raw socket and returns the
/// socket, ready to read the raw response.
fn raw_campaign(addr: SocketAddr, body: &str) -> std::net::TcpStream {
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
    let head = format!(
        "POST /v1/campaigns HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: \
         {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    stream
}

/// Splits a raw chunked response into its head and the data of each
/// chunk, checking the framing (a size line, the data, CRLF, and a
/// final zero-length chunk).
fn chunks_of(raw: &[u8]) -> (String, Vec<Vec<u8>>) {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("a response head") + 4;
    let head = String::from_utf8(raw[..head_end].to_vec()).unwrap();
    let (mut chunks, mut pos) = (Vec::new(), head_end);
    loop {
        let line_end =
            pos + raw[pos..].windows(2).position(|w| w == b"\r\n").expect("a chunk size line");
        let size = usize::from_str_radix(std::str::from_utf8(&raw[pos..line_end]).unwrap(), 16)
            .expect("a hex chunk size");
        let data = line_end + 2;
        assert_eq!(&raw[data + size..data + size + 2], b"\r\n", "chunk data ends in CRLF");
        if size == 0 {
            assert_eq!(data + 2, raw.len(), "nothing follows the last chunk");
            return (head, chunks);
        }
        chunks.push(raw[data..data + size].to_vec());
        pos = data + size + 2;
    }
}

#[test]
fn every_http_chunk_holds_exactly_one_ndjson_line() {
    use std::io::Read;
    let daemon = Daemon::boot("framing", 2);
    let spec = small_spec();
    for pass in ["cold", "warm"] {
        let mut raw = Vec::new();
        raw_campaign(daemon.addr, &spec).read_to_end(&mut raw).unwrap();
        let (head, chunks) = chunks_of(&raw);
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"), "{pass}: {head}");
        assert!(head.contains("Transfer-Encoding: chunked"), "{pass}: {head}");
        let body = client::post(daemon.addr, "/v1/campaigns", &spec).unwrap().body;
        assert_eq!(chunks.len(), body.lines().count(), "{pass}: one chunk per line");
        for chunk in &chunks {
            let text = std::str::from_utf8(chunk).unwrap();
            assert!(text.ends_with('\n'), "{pass}: a chunk ends its line: {text:?}");
            assert_eq!(text.matches('\n').count(), 1, "{pass}: one line per chunk: {text:?}");
            Json::parse(text.trim_end()).expect("each chunk is one JSON document");
        }
    }
    daemon.shutdown();
}

/// A one-case workload spec: the scua alone (the case's isolated run,
/// which period skip finishes in well under a millisecond), then the
/// same seeded EEMBC-profile scua beside three endless EEMBC-profile
/// contenders of other lengths, whose run simulates for a while.
fn slow_workload_spec() -> String {
    let eembc = |kernel, seed, iterations| KernelSpec::Eembc { kernel, seed, iterations };
    let case = WorkloadCase {
        name: String::from("slow"),
        scua: eembc(AutobenchKernel::Canrdr, 1, Some(SLOW_ITERATIONS)),
        contenders: vec![
            eembc(AutobenchKernel::Matrix, 2, None),
            eembc(AutobenchKernel::Pntrch, 3, None),
            eembc(AutobenchKernel::Tblook, 4, None),
        ],
    };
    let machine = MachineConfig::toy(4, 2);
    ExperimentSpec { name: String::from("slow"), machine, grid: None, workloads: vec![case] }
        .to_text()
}

/// Iterations of [`slow_workload_spec`]'s scua: enough that its
/// contended run outlasts a line's trip to the client by a wide margin.
const SLOW_ITERATIONS: u64 = if cfg!(debug_assertions) { 1_500 } else { 5_000 };

/// Reads one chunk of a chunked response: its size line, then its data.
fn read_chunk(reader: &mut impl std::io::BufRead) -> String {
    let mut size = String::new();
    reader.read_line(&mut size).unwrap();
    let size = usize::from_str_radix(size.trim_end(), 16).unwrap();
    let mut data = vec![0; size + 2];
    reader.read_exact(&mut data).unwrap();
    assert!(data.ends_with(b"\r\n"));
    data.truncate(size);
    String::from_utf8(data).unwrap()
}

#[test]
fn a_cold_campaign_streams_each_line_before_the_next_run_finishes() {
    use std::io::{BufRead, BufReader, Read};
    let daemon = Daemon::boot("first-line", 1);
    let mut reader = BufReader::new(raw_campaign(daemon.addr, &slow_workload_spec()));
    let mut line = String::new();
    while line != "\r\n" {
        line.clear();
        reader.read_line(&mut line).unwrap();
    }
    // A run lands in the store when it finishes. The header, and then the
    // isolated run's line, reach the client while the contended run is
    // still executing: the writer flushed before each wait on the pool.
    let header = Json::parse(read_chunk(&mut reader).trim_end()).unwrap();
    assert_eq!(header.get("type").and_then(Json::as_str), Some("campaign"));
    assert_eq!(u64_field(&header, "unique_runs"), 2);
    assert!(daemon.store.stats().entries < 2, "the header waited for the contended run");
    let first = Json::parse(read_chunk(&mut reader).trim_end()).unwrap();
    assert_eq!(first.get("type").and_then(Json::as_str), Some("run"));
    let start = Instant::now();
    assert_eq!(daemon.store.stats().entries, 1, "the first run line waited for the second run");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    let waited = start.elapsed();
    assert_eq!(daemon.store.stats().entries, 2, "both runs finished and were stored");
    let rest = String::from_utf8(rest).unwrap();
    assert!(!rest.contains("\"error\":\""), "{rest}");
    eprintln!("the rest of the stream followed the first run line after {waited:?}");
    daemon.shutdown();
}
