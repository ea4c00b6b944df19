//! Result-store throughput benchmark: cold (simulate + record) vs warm
//! (answer every run from the store) campaign execution, written to
//! `BENCH_cache.json` so the cache's perf trajectory is tracked like
//! the simulator's and the campaign runner's.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin cache_throughput
//! ```
//!
//! The grid is the fixed 4-cell derivation grid of
//! `campaign_throughput` (115 unique runs), against a scratch store, so
//! the artifact's run counts are machine-independent while the
//! runs/sec figures track the hardware. The bin also asserts the
//! store's two contracts — a warm re-run simulates **nothing**, and
//! output is byte-identical to the cold run — so the benchmark doubles
//! as an end-to-end smoke test.
//!
//! Each mode records the median of [`PASSES`] timed passes (plus the
//! p10/p90 spread): every cold pass simulates into a fresh store
//! directory, and the warm passes replay the last cold pass's store.

use rrb::campaign::{Campaign, CampaignGrid, CampaignResult, GridScenario};
use rrb::json::Json;
use rrb::store::ResultStore;
use rrb_bench::bench_timed;
use rrb_kernels::AccessKind;
use rrb_sim::MachineConfig;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed passes per mode, after one warm-up pass.
const PASSES: u32 = 7;

/// The same fixed grid as `campaign_throughput`, so run counts match
/// across the two artifacts.
fn grid() -> CampaignGrid {
    CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
        .contender_accesses(vec![AccessKind::Load, AccessKind::Store])
        .iterations(vec![150, 200])
        .max_k(18)
}

fn timed_run(store: &Arc<ResultStore>) -> (Duration, CampaignResult) {
    let campaign = Campaign::builder().grid(&grid()).jobs(1).store(store.clone()).build();
    let start = Instant::now();
    let result = campaign.run();
    (start.elapsed(), result)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("rrb-cache-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Cold: every pass, the warm-up included, simulates into a fresh
    // store; opening the store is setup, not part of the pass.
    let mut pass = 0;
    let mut last_cold = None;
    let cold_t = bench_timed("cache/cold", 1, PASSES, || {
        pass += 1;
        let store = ResultStore::open(dir.join(format!("cold-{pass}"))).expect("open store");
        let store = Arc::new(store);
        let (elapsed, result) = timed_run(&store);
        last_cold = Some((store, result));
        elapsed
    });
    let (store, cold) = last_cold.expect("at least one cold pass");
    let mut last_warm = None;
    let warm_t = bench_timed("cache/warm", 1, PASSES, || {
        let (elapsed, result) = timed_run(&store);
        last_warm = Some(result);
        elapsed
    });
    let warm = last_warm.expect("at least one warm pass");
    let (cold_s, warm_s) = (cold_t.median_seconds(), warm_t.median_seconds());

    let unique = cold.stats.executed_runs + cold.stats.store_hits;
    let byte_identical = cold.to_json() == warm.to_json()
        && cold.to_csv() == warm.to_csv()
        && cold.render_text() == warm.render_text();
    let entries = store.stats();
    let speedup = cold_s / warm_s;

    println!("cache throughput: {} unique run(s), store at {}", unique, dir.display());
    println!(
        "  cold (simulate + record)       : {cold_s:.3} s ({:.1} runs/s)",
        unique as f64 / cold_s
    );
    println!(
        "  warm (store hits only)         : {warm_s:.3} s ({:.1} runs/s)",
        unique as f64 / warm_s
    );
    println!("  warm speedup                   : {speedup:.2}x");
    println!("  warm runs simulated            : {}", warm.stats.executed_runs);
    println!("  byte-identical output          : {byte_identical}");
    println!("  entries on disk                : {} ({} bytes)", entries.entries, entries.bytes);

    let artifact = Json::obj(vec![
        ("bench", Json::str("cache_throughput")),
        ("unique_runs", Json::U64(unique as u64)),
        ("cold_executed_runs", Json::U64(cold.stats.executed_runs as u64)),
        ("cold_store_writes", Json::U64(cold.stats.store_writes as u64)),
        ("warm_executed_runs", Json::U64(warm.stats.executed_runs as u64)),
        ("warm_store_hits", Json::U64(warm.stats.store_hits as u64)),
        ("store_entries", Json::U64(entries.entries)),
        ("store_bytes", Json::U64(entries.bytes)),
        ("passes", Json::U64(u64::from(PASSES))),
        ("cold_seconds", Json::F64(cold_s)),
        ("cold_seconds_p10", Json::F64(cold_t.p10_seconds())),
        ("cold_seconds_p90", Json::F64(cold_t.p90_seconds())),
        ("warm_seconds", Json::F64(warm_s)),
        ("warm_seconds_p10", Json::F64(warm_t.p10_seconds())),
        ("warm_seconds_p90", Json::F64(warm_t.p90_seconds())),
        ("runs_per_second_cold", Json::F64(unique as f64 / cold_s)),
        ("runs_per_second_warm", Json::F64(unique as f64 / warm_s)),
        ("warm_speedup", Json::F64(speedup)),
        ("byte_identical_output", Json::Bool(byte_identical)),
    ]);
    let path = "BENCH_cache.json";
    match rrb::store::write_file_atomic(path, &artifact.render_pretty()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(warm.stats.executed_runs, 0, "a warm store must answer every run");
    assert_eq!(warm.stats.store_hits, unique);
    assert!(byte_identical, "warm output must be byte-identical to cold");
}
