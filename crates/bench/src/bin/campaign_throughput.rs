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
//! the whole plan. The parallel pass exists for the byte-identity
//! check and an informational speedup number: jobs are resolved via
//! [`clamped_jobs`], so on a 1-CPU container the parallel timing is
//! skipped entirely instead of reporting a meaningless speedup.
//!
//! [`MachineArena`]: rrb::executor::MachineArena
//! [`clamped_jobs`]: rrb::campaign::clamped_jobs

use rrb::campaign::{clamped_jobs, Campaign, CampaignGrid, GridScenario};
use rrb::json::Json;
use rrb_kernels::AccessKind;
use rrb_sim::MachineConfig;
use std::time::Instant;

/// The benchmark grid: 4 cells, shared isolated baselines across the
/// contender-access dimension.
fn grid() -> CampaignGrid {
    CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
        .contender_accesses(vec![AccessKind::Load, AccessKind::Store])
        .iterations(vec![150, 200])
        .max_k(18)
}

fn timed_run(jobs: usize) -> (f64, rrb::campaign::CampaignResult) {
    let campaign = Campaign::builder().grid(&grid()).jobs(jobs).build();
    let start = Instant::now();
    let result = campaign.run();
    (start.elapsed().as_secs_f64(), result)
}

fn main() {
    // Resolve the parallel width against the actual host: on a 1-CPU
    // container this clamps to 1 and the parallel timing is skipped.
    let (parallel_jobs, clamp_note) = clamped_jobs(None);
    if let Some(note) = &clamp_note {
        println!("note: {note}");
    }

    // Warm-up (page in code and allocator state), then timed runs.
    let _ = timed_run(1);
    let (serial_s, serial) = timed_run(1);
    let parallel = (parallel_jobs > 1).then(|| timed_run(parallel_jobs));

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
        ("serial_seconds", Json::F64(serial_s)),
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
