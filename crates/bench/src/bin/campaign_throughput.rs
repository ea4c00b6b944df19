//! Campaign-runner throughput benchmark on a 4-way derivation grid,
//! written to `BENCH_campaign.json` so future PRs have a perf
//! trajectory to beat.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin campaign_throughput
//! ```
//!
//! The grid is fixed (4 `Derive` cells on the toy bus, mixed contender
//! accesses and iteration counts), so the run count and the simulated
//! work are stable across machines; wall-clock is of course
//! hardware-dependent, which is why the artifact also records the
//! host's available parallelism.
//!
//! The gated metric is `runs_per_second_serial` — the cold-path
//! throughput of one thread driving one warm [`MachineArena`] through
//! the whole plan, over the median of [`PASSES`] timed passes (one pass
//! takes ~20 ms, so a single shot records host noise; the artifact
//! keeps the p10/p90 spread too). The parallel passes exist for the
//! byte-identity check and an informational speedup number: jobs are
//! resolved via [`clamped_jobs`], so on a 1-CPU container the parallel
//! timing is skipped entirely instead of reporting a meaningless
//! speedup.
//!
//! [`MachineArena`]: rrb::executor::MachineArena
//! [`clamped_jobs`]: rrb::campaign::clamped_jobs

use rrb::campaign::{clamped_jobs, Campaign, CampaignGrid, CampaignResult, GridScenario};
use rrb::json::Json;
use rrb_bench::{bench_timed, BenchResult};
use rrb_kernels::AccessKind;
use rrb_sim::MachineConfig;
use std::time::Instant;

/// Timed passes per mode, after one warm-up pass.
const PASSES: u32 = 7;

/// The benchmark grid: 4 cells, shared isolated baselines across the
/// contender-access dimension.
fn grid() -> CampaignGrid {
    CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
        .contender_accesses(vec![AccessKind::Load, AccessKind::Store])
        .iterations(vec![150, 200])
        .max_k(18)
}

/// Times [`PASSES`] runs of the grid on `jobs` workers, returning the
/// timing and the last pass's result.
fn timed_runs(name: &str, jobs: usize) -> (BenchResult, CampaignResult) {
    let mut last = None;
    let timing = bench_timed(name, 1, PASSES, || {
        let campaign = Campaign::builder().grid(&grid()).jobs(jobs).build();
        let start = Instant::now();
        let result = campaign.run();
        let elapsed = start.elapsed();
        last = Some(result);
        elapsed
    });
    (timing, last.expect("at least one pass"))
}

fn main() {
    // Resolve the parallel width against the actual host: on a 1-CPU
    // container this clamps to 1 and the parallel timing is skipped.
    let (parallel_jobs, clamp_note) = clamped_jobs(None);
    if let Some(note) = &clamp_note {
        println!("note: {note}");
    }

    let (serial_t, serial) = timed_runs("campaign/serial", 1);
    let serial_s = serial_t.median_seconds();
    let parallel = (parallel_jobs > 1).then(|| {
        let (t, result) = timed_runs(&format!("campaign/jobs{parallel_jobs}"), parallel_jobs);
        (t.median_seconds(), result)
    });

    let byte_identical = parallel.as_ref().is_none_or(|(_, p)| p.to_json() == serial.to_json());
    let total_runs = serial.stats.planned_runs;
    let executed_runs = serial.stats.executed_runs;
    let runs_per_second_serial = executed_runs as f64 / serial_s;
    let all_derived = serial.reports.iter().all(|r| r.metric_u64("ubd_m") == Some(6));

    println!(
        "campaign throughput: {} grid cells, {total_runs} planned runs, {executed_runs} executed",
        grid().cell_count()
    );
    println!(
        "  serial    (jobs=1)             : {serial_s:.3} s ({runs_per_second_serial:.1} runs/s)"
    );
    if let Some((parallel_s, _)) = &parallel {
        println!(
            "  parallel  (jobs={parallel_jobs})             : {parallel_s:.3} s ({:.1} runs/s, {:.2}x)",
            executed_runs as f64 / parallel_s,
            serial_s / parallel_s
        );
    } else {
        println!("  parallel                       : skipped (1 CPU available)");
    }
    println!("  byte-identical output          : {byte_identical}");
    println!("  all cells derived ubd_m = 6    : {all_derived}");

    let mut fields = vec![
        ("bench", Json::str("campaign_throughput")),
        ("grid_cells", Json::U64(grid().cell_count() as u64)),
        ("planned_runs", Json::U64(total_runs as u64)),
        ("executed_runs", Json::U64(executed_runs as u64)),
        ("cache_hits", Json::U64(serial.stats.cache_hits as u64)),
        ("passes", Json::U64(u64::from(PASSES))),
        ("serial_seconds", Json::F64(serial_s)),
        ("serial_seconds_p10", Json::F64(serial_t.p10_seconds())),
        ("serial_seconds_p90", Json::F64(serial_t.p90_seconds())),
        ("parallel_jobs", Json::U64(parallel_jobs as u64)),
        ("available_parallelism", Json::U64(clamped_jobs(None).0 as u64)),
        ("runs_per_second_serial", Json::F64(runs_per_second_serial)),
        ("byte_identical_output", Json::Bool(byte_identical)),
        ("all_cells_correct", Json::Bool(all_derived)),
    ];
    if let Some((parallel_s, _)) = &parallel {
        fields.push(("parallel_seconds", Json::F64(*parallel_s)));
        fields.push(("runs_per_second_parallel", Json::F64(executed_runs as f64 / parallel_s)));
        fields.push(("speedup", Json::F64(serial_s / parallel_s)));
    }
    let artifact = Json::obj(fields);
    let path = "BENCH_campaign.json";
    match std::fs::write(path, artifact.render_pretty()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }

    assert!(byte_identical, "parallel output must be byte-identical to serial");
    assert!(all_derived, "every cell must recover ubd = 6");
}
