//! Simulator-core throughput benchmark: event-driven quiescence
//! skipping vs naive per-cycle stepping, and period skip vs none,
//! written to `BENCH_simspeed.json` so the perf trajectory of the hot
//! loop is tracked like the campaign runner's.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin simspeed            # full run
//! cargo run --release -p rrb-bench --bin simspeed -- --quick # CI smoke
//! ```
//!
//! Five workloads bracket the skips' leverage:
//!
//! * **dram-bound** — four cores streaming L2-missing loads through the
//!   two-level topology: almost every cycle is a DRAM/queue wait, the
//!   best case for skipping (and the acceptance gate: ≥ 3× simulated
//!   cycles/sec over per-cycle stepping).
//! * **bus-saturated** — four saturating rsk kernels: the bus is busy
//!   every cycle, so the skip can only jump grant-to-completion gaps.
//! * **fp-starved** — a finite rsk scua on core 0 of the reference
//!   machine with a fixed-priority bus and three endless rsk contenders,
//!   the lowest of which starves, run to completion through
//!   `Machine::run` with period skip on vs off. The two workloads above
//!   use `run_for` on endless programs, where period skip never arms;
//!   here it must fire through the starved request (the gated quantity
//!   is its stepped share of the simulated cycles).
//! * **nop-padded** — the paper's saw-tooth probe on the reference
//!   machine: an endless rsk-nop with k = 40 nops per load on core 0
//!   against three rsk contenders, through `run_for` so period skip stays
//!   out of it. Each run of 40 IL1-hitting nops is one event of the
//!   quiescence skip, so its stepped share (gated) falls with it.
//! * **campaign** — the toy derivation grid of `campaign_throughput`,
//!   run serially, reporting end-to-end methodology runs/sec (which
//!   inherit the skip through the default configuration).

use rrb::campaign::{Campaign, CampaignGrid, GridScenario};
use rrb::json::Json;
use rrb_kernels::{rsk, rsk_l2_miss, AccessKind, RskBuilder};
use rrb_sim::{ArbiterKind, CoreId, Cycle, Machine, MachineConfig, Program};
use std::time::Instant;

/// The two-level reference machine with DDR2-667 timed against a 1 GHz
/// core instead of the NGMP's 200 MHz — every DRAM parameter scales by
/// the 5x clock ratio, so each miss stalls its core for hundreds of
/// cycles. This is the stall-heavy regime quiescence skipping targets:
/// the queue-serialised misses leave long provably-idle stretches.
fn stall_heavy_config() -> MachineConfig {
    let mut cfg = MachineConfig::ngmp_two_level();
    cfg.dram.t_rcd *= 5;
    cfg.dram.t_rp *= 5;
    cfg.dram.t_cl *= 5;
    cfg.dram.burst *= 5;
    cfg.dram.controller_overhead *= 5;
    cfg
}

/// Simulates `cycles` of `cfg` with every core running `prog_of(core)`,
/// returning (wall seconds, steps actually executed).
fn simulate(
    cfg: &MachineConfig,
    cycles: Cycle,
    prog_of: impl Fn(&MachineConfig, CoreId) -> Program,
) -> (f64, u64) {
    let mut m = Machine::new(cfg.clone()).expect("config");
    for i in 0..cfg.num_cores {
        let id = CoreId::new(i);
        m.load_program(id, prog_of(cfg, id));
    }
    let start = Instant::now();
    let s = m.run_for(cycles);
    let elapsed = start.elapsed().as_secs_f64();
    assert_eq!(s.cycles, cycles);
    (elapsed, m.steps_executed())
}

/// One skip-vs-step comparison: returns (skip cps, step cps, speedup,
/// json record).
fn compare(
    name: &'static str,
    base: MachineConfig,
    cycles: Cycle,
    prog_of: impl Fn(&MachineConfig, CoreId) -> Program + Copy,
) -> (f64, Json) {
    let mut skip_cfg = base.clone();
    skip_cfg.quiescence_skip = true;
    // Measure the simulation loop, not the PMC request log (identical
    // in both modes; campaigns that need histograms pay it knowingly).
    skip_cfg.record_requests = false;
    let mut step_cfg = skip_cfg.clone();
    step_cfg.quiescence_skip = false;
    // Warm up (allocator, caches), then measure.
    let _ = simulate(&skip_cfg, cycles / 4, prog_of);
    let _ = simulate(&step_cfg, cycles / 4, prog_of);
    let (skip_s, steps) = simulate(&skip_cfg, cycles, prog_of);
    let (step_s, _) = simulate(&step_cfg, cycles, prog_of);
    record(name, cycles, steps, skip_s, step_s)
}

/// Prints one comparison and returns (speedup, json record): `cycles`
/// simulated in `skip_s` seconds with `steps` stepped, against `step_s`
/// seconds without the skip.
fn record(name: &str, cycles: Cycle, steps: u64, skip_s: f64, step_s: f64) -> (f64, Json) {
    let skip_cps = cycles as f64 / skip_s;
    let step_cps = cycles as f64 / step_s;
    let speedup = skip_cps / step_cps;
    let stepped_share = steps as f64 / cycles as f64;
    println!(
        "{name:<14} skip: {skip_cps:>12.0} cycles/s   step: {step_cps:>12.0} cycles/s   \
         speedup: {speedup:.2}x   (stepped {:.1}% of cycles)",
        stepped_share * 100.0
    );
    let record = Json::obj(vec![
        ("workload", Json::str(name)),
        ("simulated_cycles", Json::U64(cycles)),
        ("stepped_cycles", Json::U64(steps)),
        ("skip_seconds", Json::F64(skip_s)),
        ("step_seconds", Json::F64(step_s)),
        ("cycles_per_second_skip", Json::F64(skip_cps)),
        ("cycles_per_second_step", Json::F64(step_cps)),
        ("speedup", Json::F64(speedup)),
    ]);
    (speedup, record)
}

/// The fp-starved workload: the finite scua runs about `cycles` cycles
/// to completion, once with period skip and once without (quiescence
/// skip on in both).
fn fp_starved(cycles: Cycle) -> (f64, Json) {
    let mut cfg = MachineConfig::ngmp_ref();
    cfg.topology.bus.arbiter = ArbiterKind::FixedPriority;
    cfg.record_requests = false;
    // The top-priority scua takes about 90 cycles per iteration here.
    let scua =
        RskBuilder::new(AccessKind::Load).iterations(cycles / 90).build(&cfg, CoreId::new(0));
    let run = |period_skip: bool| {
        let mut m = Machine::new(MachineConfig { period_skip, ..cfg.clone() }).expect("config");
        m.load_program(CoreId::new(0), scua.clone());
        for i in 1..cfg.num_cores {
            let id = CoreId::new(i);
            m.load_program(id, rsk(AccessKind::Load, &cfg, id));
        }
        let start = Instant::now();
        m.run().expect("the scua completes within the budget");
        (start.elapsed().as_secs_f64(), m.steps_executed(), m.now())
    };
    // Warm up (allocator, caches), then measure.
    let _ = (run(true), run(false));
    let (skip_s, steps, simulated) = run(true);
    let (step_s, _, stepped_simulated) = run(false);
    assert_eq!(simulated, stepped_simulated, "period skip must not change the run");
    record("fp-starved", simulated, steps, skip_s, step_s)
}

/// The campaign grid of `campaign_throughput`, timed serially.
fn campaign_runs_per_second() -> (f64, u64) {
    let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
        .contender_accesses(vec![AccessKind::Load, AccessKind::Store])
        .iterations(vec![150, 200])
        .max_k(18);
    let campaign = Campaign::builder().grid(&grid).jobs(1).build();
    let start = Instant::now();
    let result = campaign.run();
    let elapsed = start.elapsed().as_secs_f64();
    let runs = result.stats.executed_runs as u64;
    (runs as f64 / elapsed, runs)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cycles: Cycle = if quick { 200_000 } else { 4_000_000 };

    let (dram_speedup, dram_record) =
        compare("dram-bound", stall_heavy_config(), cycles, rsk_l2_miss);
    let (bus_speedup, bus_record) =
        compare("bus-saturated", MachineConfig::ngmp_ref(), cycles, |cfg, core| {
            rsk(AccessKind::Load, cfg, core)
        });
    let (_, starved_record) = fp_starved(cycles);
    let (_, nop_record) = compare("nop-padded", MachineConfig::ngmp_ref(), cycles, |cfg, core| {
        let nops = if core.index() == 0 { 40 } else { 0 };
        RskBuilder::new(AccessKind::Load).nops(nops).endless().build(cfg, core)
    });
    let (campaign_rps, campaign_runs) = campaign_runs_per_second();
    println!("{:<14} {campaign_rps:>12.1} runs/s serial ({campaign_runs} runs)", "campaign");

    let artifact = Json::obj(vec![
        ("bench", Json::str("simspeed")),
        ("quick", Json::Bool(quick)),
        ("workloads", Json::Arr(vec![dram_record, bus_record, starved_record, nop_record])),
        ("campaign_runs", Json::U64(campaign_runs)),
        ("campaign_runs_per_second_serial", Json::F64(campaign_rps)),
    ]);
    let path = "BENCH_simspeed.json";
    match std::fs::write(path, artifact.render_pretty()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => eprintln!("\nfailed to write {path}: {e}"),
    }

    // Wall-clock gates only outside --quick: the CI smoke run simulates
    // too few cycles for timing assertions to be scheduler-noise-proof.
    if !quick {
        assert!(
            bus_speedup > 0.5,
            "skipping must not slow the saturated-bus case down materially (got {bus_speedup:.2}x)"
        );
        assert!(
            dram_speedup >= 3.0,
            "quiescence skipping must be >= 3x on the DRAM-bound workload (got {dram_speedup:.2}x)"
        );
    }
}
