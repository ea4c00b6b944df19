//! `serve-warm`: an in-process daemon in front of a store that set-up
//! filled with one cold pass of the derive specs.
//!
//! The load is a closed loop of two clients, one thread each: client 1
//! POSTs the campaigns back to back, client 2 cycles `GET
//! /v1/runs/{hash}` over every content address of the cold streams.
//! Store lookup and decode, lint, plan and the HTTP front end do the
//! work; nothing simulates.
//!
//! The traced run drives the same requests one at a time with client
//! spans (connect, first NDJSON line, rest of the stream) and then
//! attributes the daemon's work with a side pass that calls `lint_spec`,
//! `Campaign::plan`, `ResultStore::lookup` and `entry_payload` directly.

use crate::calib::Calibration;
use crate::specgen::{self, SpecText};
use crate::stats::{median, percentile, Summary};
use crate::trace::Tracer;
use crate::Run;
use rrb::campaign::{RunError, StoreUsage};
use rrb::json::Json;
use rrb::lint::lint_spec;
use rrb::store::{ResultStore, StoreLookup};
use rrb_serve::{client, ServeConfig, ServeStats, Server, ServerHandle};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Point queries and health checks per traced pass.
const POINTS_PER_PASS: usize = 100;
const HEALTHZ_PER_PASS: usize = 20;

/// A running daemon over a warm store, plus the cold pass's streams.
struct Warm {
    specs: Vec<SpecText>,
    store: Arc<ResultStore>,
    store_open_secs: f64,
    addr: SocketAddr,
    workers: usize,
    handle: ServerHandle,
    daemon: JoinHandle<std::io::Result<ServeStats>>,
    /// Each spec's cold stream without its `stats` line.
    cold: Vec<Vec<String>>,
    /// `run` lines per spec.
    planned: Vec<usize>,
    /// Every content address the cold streams named, deduplicated.
    hashes: Vec<String>,
    /// Runs the cold pass simulated.
    cold_executed: u64,
}

impl Warm {
    /// Drains the daemon and returns its counters.
    fn stop(self) -> ServeStats {
        self.handle.shutdown();
        self.daemon.join().expect("the daemon thread exits").expect("the daemon drains cleanly")
    }
}

/// The stream's lines minus the `stats` trailer, which legitimately
/// differs between cold and warm.
fn deterministic_lines(body: &str) -> Vec<String> {
    body.lines()
        .filter(|l| !l.is_empty() && !l.contains("\"type\":\"stats\""))
        .map(String::from)
        .collect()
}

fn stats_field(body: &str, key: &str) -> u64 {
    body.lines()
        .find(|l| l.contains("\"type\":\"stats\""))
        .and_then(|l| Json::parse(l).ok())
        .and_then(|v| v.get(key).and_then(Json::as_u64))
        .unwrap_or(0)
}

/// Specs, store, daemon and the cold pass that fills the store.
fn setup(seed: u64, work: &Path) -> Warm {
    let specs = specgen::derive_specs(seed);
    for s in &specs {
        specgen::parse(&s.text);
    }
    let start = Instant::now();
    let store =
        Arc::new(ResultStore::open(work.join("serve-store")).expect("open the daemon's store"));
    let store_open_secs = start.elapsed().as_secs_f64();
    let config = ServeConfig { addr: String::from("127.0.0.1:0"), ..ServeConfig::default() };
    let server = Server::bind(config, Arc::clone(&store)).expect("bind the daemon");
    let addr = server.local_addr().expect("the daemon's address");
    let workers = server.workers();
    let handle = server.handle();
    let daemon = std::thread::spawn(move || server.run());
    let (mut cold, mut planned, mut hashes) = (Vec::new(), Vec::new(), Vec::new());
    let mut seen = BTreeSet::new();
    let mut cold_executed = 0;
    for s in &specs {
        let resp = client::post(addr, "/v1/campaigns", &s.text).expect("cold campaign request");
        assert_eq!(resp.status, 200, "cold campaign `{}` failed: {}", s.name, resp.body);
        cold_executed += stats_field(&resp.body, "executed_runs");
        let lines = deterministic_lines(&resp.body);
        let runs: Vec<&String> = lines.iter().filter(|l| l.contains("\"type\":\"run\"")).collect();
        planned.push(runs.len());
        for line in runs {
            let hash = line.split("\"spec_hash\":\"").nth(1).and_then(|t| t.split('"').next());
            if let Some(hash) = hash {
                if seen.insert(hash.to_string()) {
                    hashes.push(hash.to_string());
                }
            }
        }
        cold.push(lines);
    }
    Warm {
        specs,
        store,
        store_open_secs,
        addr,
        workers,
        handle,
        daemon,
        cold,
        planned,
        hashes,
        cold_executed,
    }
}

/// One fresh-process set-up, in seconds (the daemon is drained after).
pub fn setup_only(seed: u64, work: &Path) -> f64 {
    let start = Instant::now();
    let warm = setup(seed, work);
    let secs = start.elapsed().as_secs_f64();
    warm.stop();
    secs
}

/// One warm campaign POST: which spec, round trip, and whether it
/// answered 200 with the cold stream's deterministic lines.
struct Post {
    spec: usize,
    secs: f64,
    /// Host-speed scale of the POST's round ([`Calibration::scale_at`]).
    scale: f64,
    ok: bool,
}

/// Client 1: POSTs every spec in turn until the deadline, stopping only
/// after a whole round, with the calibration kernel around each round.
fn campaign_client(warm: &Warm, deadline: Instant) -> (Vec<Post>, Calibration) {
    let mut out: Vec<Post> = Vec::new();
    let mut calibration = Calibration::default();
    calibration.sample(warm.workers);
    for round in 0.. {
        if !out.is_empty() && Instant::now() >= deadline {
            break;
        }
        let first = out.len();
        for (spec, s) in warm.specs.iter().enumerate() {
            let start = Instant::now();
            let resp = client::post(warm.addr, "/v1/campaigns", &s.text);
            let secs = start.elapsed().as_secs_f64();
            let ok = resp
                .is_ok_and(|r| r.status == 200 && deterministic_lines(&r.body) == warm.cold[spec]);
            out.push(Post { spec, secs, scale: 1.0, ok });
        }
        calibration.sample(warm.workers);
        for post in &mut out[first..] {
            post.scale = calibration.scale_at(round);
        }
    }
    (out, calibration)
}

/// Client 2: cycles point queries over the content addresses.
fn point_client(warm: &Warm, deadline: Instant) -> Vec<(f64, bool)> {
    let mut out = Vec::new();
    for hash in warm.hashes.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let start = Instant::now();
        let resp = client::get(warm.addr, &format!("/v1/runs/{hash}"));
        let secs = start.elapsed().as_secs_f64();
        out.push((secs, resp.is_ok_and(|r| r.status == 200 && r.body.contains(hash.as_str()))));
    }
    out
}

fn check_counters(run: &mut Run, stats: &ServeStats, cold: u64, campaigns: u64) {
    run.check(stats.runs_executed == cold, || {
        format!("the warm daemon simulated: runs_executed {} vs cold {cold}", stats.runs_executed)
    });
    run.check(stats.campaigns == campaigns, || {
        format!("daemon counted {} campaigns, clients sent {campaigns}", stats.campaigns)
    });
}

/// The end-to-end run; returns its own set-up time.
pub fn measured(run: &mut Run) -> f64 {
    let start = Instant::now();
    let warm = setup(run.seed, &run.work);
    let setup_s = start.elapsed().as_secs_f64();
    let deadline = Instant::now() + run.budget;
    let ((posts, calibration), points) = std::thread::scope(|scope| {
        let campaigns = scope.spawn(|| campaign_client(&warm, deadline));
        let points = scope.spawn(|| point_client(&warm, deadline));
        (
            campaigns.join().expect("the campaign client finishes"),
            points.join().expect("the point client finishes"),
        )
    });
    let (cold, n_specs, planned) = (warm.cold_executed, warm.specs.len(), warm.planned.clone());
    let names: Vec<&'static str> = warm.specs.iter().map(|s| s.name).collect();
    let addresses = warm.hashes.len();
    let stats = warm.stop();
    check_counters(run, &stats, cold, (n_specs + posts.len()) as u64);
    for p in &posts {
        run.check(p.ok, || {
            format!("warm POST of `{}` failed or differs from the cold stream", names[p.spec])
        });
    }
    let bad_points = points.iter().filter(|(_, ok)| !ok).count();
    run.ops(points.len() as u64, bad_points as u64);

    println!("{}", calibration.summary());
    run.scale = calibration.scale();
    // Runs answered per second of client-1 time, per round of specs.
    let rates: Vec<f64> = posts
        .chunks(n_specs)
        .map(|round| {
            let runs: usize = round.iter().map(|p| planned[p.spec]).sum();
            runs as f64 / round.iter().map(|p| p.secs * p.scale).sum::<f64>()
        })
        .collect();
    let post_ms: Vec<f64> = posts.iter().map(|p| p.secs * p.scale * 1e3).collect();
    // Unscaled: a point query is mostly the accept loop's 1 ms poll
    // sleep, which host speed does not change.
    let point_ms: Vec<f64> = points.iter().map(|(s, _)| s * 1e3).collect();
    println!(
        "serve-warm: {} POSTs, {} point queries over {addresses} content addresses",
        posts.len(),
        points.len()
    );
    let runs_per_s = Summary::of("warm_runs_per_s", "runs/s", &rates);
    println!("{runs_per_s}");
    for (i, name) in names.iter().enumerate() {
        let ms: Vec<f64> =
            posts.iter().filter(|p| p.spec == i).map(|p| p.secs * p.scale * 1e3).collect();
        println!("{}", Summary::of(format!("campaign_ms.{name}"), "ms", &ms));
    }
    let campaign = Summary::of("campaign_ms", "ms", &post_ms);
    println!("{campaign}");
    tail_line("campaign_p50_ms", &post_ms, 50.0);
    tail_line("campaign_p90_ms", &post_ms, 90.0);
    let point = Summary::of("point_ms", "ms", &point_ms);
    println!("{point}");
    tail_line("point_p50_ms", &point_ms, 50.0);
    tail_line("point_p99_ms", &point_ms, 99.0);
    run.set("items_per_s", runs_per_s.median);
    run.set("latency_p50_ms", point.median);
    setup_s
}

/// Prints one named percentile with its sample count, or says why it is
/// withheld.
fn tail_line(name: &str, xs: &[f64], p: f64) {
    match percentile(xs, p) {
        Some(v) => println!("metric {name:<26} unit ms       value {v:.6} n {}", xs.len()),
        None => println!(
            "metric {name:<26} unit ms       withheld: fewer than 10 of {} samples beyond p{p}",
            xs.len()
        ),
    }
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(why: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_string())
}

/// Whether `raw` holds the response head plus the first NDJSON line (a
/// chunk-size line and the line itself, two newlines past the head).
fn has_first_line(raw: &[u8]) -> bool {
    find(raw, b"\r\n\r\n")
        .is_some_and(|h| raw[h + 4..].iter().filter(|&&b| b == b'\n').count() >= 2)
}

/// Status and de-chunked body of a raw response.
fn decode(raw: &[u8]) -> std::io::Result<(u16, String)> {
    let h = find(raw, b"\r\n\r\n").ok_or_else(|| bad("no response head"))?;
    let head = String::from_utf8_lossy(&raw[..h]);
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let mut rest = &raw[h + 4..];
    if !head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        return Ok((status, String::from_utf8_lossy(rest).into_owned()));
    }
    let mut body = Vec::new();
    loop {
        let end = find(rest, b"\r\n").ok_or_else(|| bad("truncated chunk size"))?;
        let size_text = std::str::from_utf8(&rest[..end]).map_err(|_| bad("chunk size"))?;
        let size = usize::from_str_radix(size_text.trim(), 16).map_err(|_| bad("chunk size"))?;
        if size == 0 {
            return Ok((status, String::from_utf8_lossy(&body).into_owned()));
        }
        let chunk = rest.get(end + 2..end + 2 + size).ok_or_else(|| bad("truncated chunk"))?;
        body.extend_from_slice(chunk);
        rest = rest.get(end + 4 + size..).ok_or_else(|| bad("truncated chunk trailer"))?;
    }
}

/// A campaign POST with client spans: connect, request to first NDJSON
/// line, first line to last byte.
fn traced_post(addr: SocketAddr, body: &str, t: &mut Tracer) -> std::io::Result<(u16, String)> {
    let mut stream = t.span("serve.connect", |_| TcpStream::connect(addr))?;
    let mut raw = Vec::new();
    t.span("serve.first_line", |_| -> std::io::Result<()> {
        let head = format!(
            "POST /v1/campaigns HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        let mut buf = [0u8; 16 * 1024];
        while !has_first_line(&raw) {
            let n = stream.read(&mut buf)?;
            if n == 0 {
                break;
            }
            raw.extend_from_slice(&buf[..n]);
        }
        Ok(())
    })?;
    t.span("serve.stream", |_| stream.read_to_end(&mut raw))?;
    decode(&raw)
}

/// What the side pass counts.
#[derive(Default)]
struct Side {
    planned: usize,
    unique: usize,
    lookups: usize,
    hits: usize,
    rejected: usize,
}

/// Attributes the daemon's per-request work by calling its layers
/// directly on the warm store.
fn side_pass(warm: &Warm, t: &mut Tracer) -> Side {
    let mut side = Side::default();
    t.span("side", |t| {
        for s in &warm.specs {
            let spec = t.span("spec.parse", |_| specgen::parse(&s.text));
            t.span("lint", |_| lint_spec(&spec));
            let campaign = t.span("campaign.build", |_| spec.to_campaign_builder(1).build());
            let plan = t.span("campaign.plan", |_| campaign.plan());
            let mut usage = StoreUsage::default();
            let mut results = Vec::with_capacity(plan.unique_specs().len());
            for run in plan.unique_specs() {
                side.lookups += 1;
                results.push(match t.span("store.hit", |_| warm.store.lookup(run)) {
                    StoreLookup::Hit(m) => {
                        side.hits += 1;
                        usage.hits += 1;
                        Ok(m)
                    }
                    StoreLookup::Miss => Err(RunError::Analysis(String::from("store miss"))),
                    StoreLookup::Rejected(why) => {
                        side.rejected += 1;
                        Err(RunError::Analysis(why))
                    }
                });
            }
            let result = t.span("campaign.finish", |_| plan.finish(&results, usage, 1));
            t.span("campaign.render", |_| result.to_json());
            side.planned += plan.planned_runs();
            side.unique += plan.unique_specs().len();
        }
        for hash in &warm.hashes {
            let address = u64::from_str_radix(hash, 16).unwrap_or(0);
            if !matches!(
                t.span("store.payload", |_| warm.store.entry_payload(address)),
                Ok(Some(_))
            ) {
                side.rejected += 1;
            }
        }
    });
    side
}

/// One serial client pass: every campaign, then a window of point
/// queries and health checks. Returns the wall time and the NDJSON bytes.
fn client_pass(run: &mut Run, warm: &Warm, t: &mut Tracer, window: usize) -> (f64, usize) {
    let start = Instant::now();
    let mut bytes = 0;
    let mut failures = Vec::new();
    t.span("pass", |t| {
        for (i, s) in warm.specs.iter().enumerate() {
            match traced_post(warm.addr, &s.text, t) {
                Ok((200, body)) if deterministic_lines(&body) == warm.cold[i] => {
                    bytes += body.len()
                }
                other => {
                    failures.push(format!("traced POST of `{}`: {:?}", s.name, other.map(|r| r.0)))
                }
            }
        }
        for k in 0..POINTS_PER_PASS {
            let hash = &warm.hashes[(window * POINTS_PER_PASS + k) % warm.hashes.len()];
            let resp =
                t.span("serve.point", |_| client::get(warm.addr, &format!("/v1/runs/{hash}")));
            if !resp.is_ok_and(|r| r.status == 200) {
                failures.push(format!("point query {hash}"));
            }
        }
        for _ in 0..HEALTHZ_PER_PASS {
            if !t
                .span("serve.healthz", |_| client::get(warm.addr, "/healthz"))
                .is_ok_and(|r| r.status == 200)
            {
                failures.push(String::from("healthz"));
            }
        }
    });
    let wall = start.elapsed().as_secs_f64();
    run.ops((warm.specs.len() + POINTS_PER_PASS + HEALTHZ_PER_PASS) as u64, failures.len() as u64);
    for f in failures {
        eprintln!("rrbench: failed: {f}");
    }
    (wall, bytes)
}

/// The traced run: alternates untraced and traced client passes, with a
/// side pass after each traced one.
pub fn traced(run: &mut Run) -> Tracer {
    let warm = setup(run.seed, &run.work);
    let mut tracer = Tracer::new(false);
    client_pass(run, &warm, &mut tracer, 0);
    let deadline = Instant::now() + run.budget;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let (mut bytes, mut side) = (0, Side::default());
    let mut sample = 0u32;
    while on.is_empty() || Instant::now() < deadline {
        let traced = sample % 2 == 1;
        tracer.set_on(traced);
        tracer.set_sample(sample);
        let (wall, b) = client_pass(run, &warm, &mut tracer, sample as usize + 1);
        if traced {
            on.push(wall);
            bytes = b;
            side = side_pass(&warm, &mut tracer);
        } else {
            off.push(wall);
        }
        sample += 1;
    }
    tracer.set_on(false);
    let (cold, n_specs) = (warm.cold_executed, warm.specs.len() as u64);
    let open_ms = warm.store_open_secs * 1e3;
    let stats = warm.stop();
    check_counters(run, &stats, cold, n_specs * (1 + u64::from(sample) + 1));
    run.check(side.hits == side.lookups && side.rejected == 0, || {
        format!(
            "side pass: {} of {} lookups hit, {} rejected",
            side.hits, side.lookups, side.rejected
        )
    });

    let ms = |name: &str| median(&tracer.secs(name)) * 1e3;
    let us = |name: &str| median(&tracer.secs(name)) * 1e6;
    let metrics = [
        ("spec.parse_ms", ms("spec.parse")),
        ("lint.ms", ms("lint")),
        ("campaign.plan_ms", ms("campaign.plan")),
        ("campaign.finish_ms", ms("campaign.finish")),
        ("campaign.render_ms", ms("campaign.render")),
        ("campaign.output_bytes", bytes as f64),
        ("campaign.planned_runs", side.planned as f64),
        ("campaign.unique_runs", side.unique as f64),
        ("campaign.dedup_ratio", side.planned as f64 / side.unique.max(1) as f64),
        ("store.open_ms", open_ms),
        ("store.hit_us", us("store.hit")),
        ("store.payload_us", us("store.payload")),
        ("store.hit_ratio", side.hits as f64 / side.lookups.max(1) as f64),
        ("store.rejected", side.rejected as f64),
        ("serve.healthz_p50_ms", ms("serve.healthz")),
        ("serve.first_line_ms", ms("serve.first_line")),
        ("serve.stream_ms", ms("serve.stream")),
        ("serve.runs_executed", stats.runs_executed as f64),
        ("trace.coverage", tracer.coverage("pass")),
        ("trace.overhead", median(&on) / median(&off) - 1.0),
    ];
    for (name, value) in metrics {
        run.set(name, value);
    }
    println!("serve-warm traced: {} untraced and {} traced passes", off.len(), on.len());
    tracer
}
