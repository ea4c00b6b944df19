//! Daemon throughput benchmark: boots an in-process `rrb serve` on an
//! ephemeral port against a scratch store, replays the checked-in
//! `examples/experiments/ngmp_sweep.json` cold then warm, and times
//! point queries, writing the figures to `BENCH_serve.json`.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin serve_throughput
//! ```
//!
//! Like `cache_throughput`, the bin doubles as an end-to-end smoke
//! test: it asserts the service contracts — a warm replay simulates
//! **nothing**, and every line of the campaign stream except the
//! `stats` trailer is byte-identical across cold and warm — and a
//! violated contract fails the benchmark outright.
//!
//! Each mode records the median of [`PASSES`] timed campaigns (plus the
//! p10/p90 spread) through `rrb_bench::harness`: every cold campaign,
//! the warm-up included, goes to a freshly booted daemon over a fresh
//! store directory (booting is setup, not part of the sample), and the
//! warm campaigns replay the last cold daemon's store.
//! `warm_speedup` is the ratio of the two medians.

use rrb::json::Json;
use rrb::store::ResultStore;
use rrb_bench::bench_timed;
use rrb_serve::{client, ServeConfig, ServeStats, Server, ServerHandle};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SPEC_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/experiments/ngmp_sweep.json");

/// Timed campaigns per mode, after one warm-up campaign.
const PASSES: u32 = 5;

/// An in-process daemon on an ephemeral port.
struct Daemon {
    addr: SocketAddr,
    workers: usize,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<ServeStats>>,
}

impl Daemon {
    /// Boots a daemon over a store in `dir` and warms up its connection
    /// path.
    fn boot(dir: &Path) -> Daemon {
        let store = Arc::new(ResultStore::open(dir).expect("open scratch store"));
        let config = ServeConfig { addr: String::from("127.0.0.1:0"), ..ServeConfig::default() };
        let server = Server::bind(config, store).expect("bind daemon");
        let addr = server.local_addr().expect("daemon addr");
        let workers = server.workers();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        for _ in 0..10 {
            assert_eq!(client::get(addr, "/healthz").expect("healthz").status, 200);
        }
        Daemon { addr, workers, handle, thread }
    }

    /// Drains the daemon and returns its counters.
    fn stop(self) -> ServeStats {
        self.handle.shutdown();
        self.thread.join().expect("join daemon").expect("daemon exit")
    }
}

fn campaign(addr: SocketAddr, spec: &str) -> (Duration, client::Response) {
    let start = Instant::now();
    let resp = client::post(addr, "/v1/campaigns", spec).expect("campaign request");
    let elapsed = start.elapsed();
    assert_eq!(resp.status, 200, "campaign failed: {}", resp.body);
    (elapsed, resp)
}

/// The parsed `stats` trailer of a campaign stream.
fn stats_line(body: &str) -> Json {
    let line = body
        .lines()
        .find(|l| l.contains("\"type\":\"stats\""))
        .expect("campaign stream has a stats line");
    Json::parse(line).expect("stats line is JSON")
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("no u64 `{key}` in {v:?}"))
}

/// Everything except the non-deterministic `stats` trailer.
fn deterministic_lines(body: &str) -> Vec<&str> {
    body.lines().filter(|l| !l.is_empty() && !l.contains("\"type\":\"stats\"")).collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn main() {
    let spec = std::fs::read_to_string(SPEC_PATH).expect("read ngmp_sweep.json");
    let dir = std::env::temp_dir().join(format!("rrb-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold: a fresh daemon and store per campaign; each earlier cold
    // daemon is drained before the next boots, outside the sample.
    let mut pass = 0;
    let mut last_cold: Option<(Daemon, client::Response)> = None;
    let cold_t = bench_timed("serve/cold", 1, PASSES, || {
        pass += 1;
        if let Some((daemon, _)) = last_cold.take() {
            daemon.stop();
        }
        let daemon = Daemon::boot(&dir.join(format!("cold-{pass}")));
        let (elapsed, resp) = campaign(daemon.addr, &spec);
        assert_eq!(u64_field(&stats_line(&resp.body), "store_hits"), 0, "a cold store is empty");
        last_cold = Some((daemon, resp));
        elapsed
    });
    let (daemon, cold) = last_cold.expect("at least one cold campaign");
    let (addr, workers) = (daemon.addr, daemon.workers);
    let cold_stats = stats_line(&cold.body);
    let unique = u64_field(&cold_stats, "executed_runs") + u64_field(&cold_stats, "store_hits");

    let mut warm_executed = 0;
    let mut byte_identical = true;
    let warm_t = bench_timed("serve/warm", 1, PASSES, || {
        let (elapsed, warm) = campaign(addr, &spec);
        warm_executed = warm_executed.max(u64_field(&stats_line(&warm.body), "executed_runs"));
        byte_identical &= deterministic_lines(&cold.body) == deterministic_lines(&warm.body);
        elapsed
    });
    let (cold_s, warm_s) = (cold_t.median_seconds(), warm_t.median_seconds());

    // Point-query latency over every content address the cold stream
    // reported (one GET each, measured individually).
    let hashes: Vec<&str> = cold
        .body
        .lines()
        .filter(|l| l.contains("\"type\":\"run\""))
        .filter_map(|l| {
            let tail = l.split("\"spec_hash\":\"").nth(1)?;
            tail.split('"').next()
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::with_capacity(hashes.len());
    for hash in &hashes {
        let start = Instant::now();
        let resp = client::get(addr, &format!("/v1/runs/{hash}")).expect("point query");
        latencies.push(start.elapsed().as_secs_f64());
        assert_eq!(resp.status, 200, "point query {hash} failed: {}", resp.body);
    }
    latencies.sort_by(f64::total_cmp);
    let point_p50_ms = percentile(&latencies, 0.50) * 1e3;
    let point_p99_ms = percentile(&latencies, 0.99) * 1e3;

    let final_stats = daemon.stop();
    let speedup = cold_s / warm_s;

    println!("serve throughput: {unique} unique run(s), {workers} worker(s), daemon at {addr}");
    println!("  cold campaign (simulate + record) : {cold_s:.3} s (median of {PASSES})");
    println!(
        "  warm campaign (store hits only)   : {warm_s:.3} s (median of {PASSES}, {speedup:.1}x)"
    );
    println!("  warm runs simulated               : {warm_executed}");
    println!("  byte-identical stream             : {byte_identical}");
    println!("  point queries                     : {} (p50 {point_p50_ms:.2} ms, p99 {point_p99_ms:.2} ms)", latencies.len());
    println!("  daemon counters                   : {final_stats:?}");

    let artifact = Json::obj(vec![
        ("bench", Json::str("serve_throughput")),
        ("workers", Json::U64(workers as u64)),
        ("unique_runs", Json::U64(unique)),
        ("passes", Json::U64(u64::from(PASSES))),
        ("cold_seconds", Json::F64(cold_s)),
        ("cold_seconds_p10", Json::F64(cold_t.p10_seconds())),
        ("cold_seconds_p90", Json::F64(cold_t.p90_seconds())),
        ("warm_seconds", Json::F64(warm_s)),
        ("warm_seconds_p10", Json::F64(warm_t.p10_seconds())),
        ("warm_seconds_p90", Json::F64(warm_t.p90_seconds())),
        ("warm_speedup", Json::F64(speedup)),
        ("warm_executed_runs", Json::U64(warm_executed)),
        ("byte_identical_stream", Json::Bool(byte_identical)),
        ("point_queries", Json::U64(latencies.len() as u64)),
        ("point_p50_ms", Json::F64(point_p50_ms)),
        ("point_p99_ms", Json::F64(point_p99_ms)),
        ("campaigns_served", Json::U64(final_stats.campaigns)),
        ("runs_streamed", Json::U64(final_stats.runs_streamed)),
        ("runs_executed", Json::U64(final_stats.runs_executed)),
    ]);
    let path = "BENCH_serve.json";
    match rrb::store::write_file_atomic(path, &artifact.render_pretty()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(warm_executed, 0, "a warm daemon must answer every run from the store");
    assert!(byte_identical, "the deterministic stream must not depend on cache state");
    assert_eq!(final_stats.campaigns, 1 + 1 + u64::from(PASSES), "one cold, then the warm ones");
    assert_eq!(final_stats.runs_executed, unique, "only the cold pass simulates");
}
