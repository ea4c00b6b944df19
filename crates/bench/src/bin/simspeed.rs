//! Simulator-core throughput benchmark: event-driven quiescence
//! skipping vs naive per-cycle stepping, and period skip vs none,
//! written to `BENCH_simspeed.json` so the perf trajectory of the hot
//! loop is tracked like the campaign runner's. Every timing is the
//! median of [`PASSES`] timed passes after one warm-up pass, with the
//! p10/p90 spread beside it ([`rrb_bench::harness`]); a speedup is the
//! ratio of two medians, and the baselines gate those.
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
use rrb_bench::{bench_timed, BenchResult};
use rrb_kernels::{rsk, rsk_l2_miss, AccessKind, RskBuilder};
use rrb_sim::{ArbiterKind, CoreId, Cycle, Machine, MachineConfig, Program};
use std::time::{Duration, Instant};

/// Timed passes per measured side, after one warm-up pass.
const PASSES: u32 = 7;

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

/// Times [`PASSES`] passes of `pass` after one warm-up pass. Each pass
/// times its own simulation and returns (elapsed, steps executed,
/// cycles simulated), so building the machine stays out of the sample;
/// the step and cycle counts are deterministic, and the last pass's are
/// returned.
fn timed(
    name: &str,
    mut pass: impl FnMut() -> (Duration, u64, Cycle),
) -> (BenchResult, u64, Cycle) {
    let mut counts = (0, 0);
    let timing = bench_timed(name, 1, PASSES, || {
        let (elapsed, steps, cycles) = pass();
        counts = (steps, cycles);
        elapsed
    });
    (timing, counts.0, counts.1)
}

/// Simulates `cycles` of `cfg` with every core running `prog_of(core)`,
/// returning (wall time of the simulation, steps executed, cycles).
fn simulate(
    cfg: &MachineConfig,
    cycles: Cycle,
    prog_of: impl Fn(&MachineConfig, CoreId) -> Program,
) -> (Duration, u64, Cycle) {
    let mut m = Machine::new(cfg.clone()).expect("config");
    for i in 0..cfg.num_cores {
        let id = CoreId::new(i);
        m.load_program(id, prog_of(cfg, id));
    }
    let start = Instant::now();
    let s = m.run_for(cycles);
    let elapsed = start.elapsed();
    assert_eq!(s.cycles, cycles);
    (elapsed, m.steps_executed(), cycles)
}

/// One skip-vs-step comparison: returns (median speedup, json record).
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
    let (skip, steps, _) = timed(&format!("{name}/skip"), || simulate(&skip_cfg, cycles, prog_of));
    let (step, _, _) = timed(&format!("{name}/step"), || simulate(&step_cfg, cycles, prog_of));
    record(name, cycles, steps, skip, step)
}

/// Prints one comparison and returns (speedup, json record): `cycles`
/// simulated in the `skip` passes with `steps` stepped, against the
/// `step` passes without the skip. Rates and the speedup are taken from
/// the medians.
fn record(
    name: &str,
    cycles: Cycle,
    steps: u64,
    skip: BenchResult,
    step: BenchResult,
) -> (f64, Json) {
    let (skip_s, step_s) = (skip.median_seconds(), step.median_seconds());
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
        ("passes", Json::U64(u64::from(PASSES))),
        ("skip_seconds", Json::F64(skip_s)),
        ("skip_seconds_p10", Json::F64(skip.p10_seconds())),
        ("skip_seconds_p90", Json::F64(skip.p90_seconds())),
        ("step_seconds", Json::F64(step_s)),
        ("step_seconds_p10", Json::F64(step.p10_seconds())),
        ("step_seconds_p90", Json::F64(step.p90_seconds())),
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
        (start.elapsed(), m.steps_executed(), m.now())
    };
    let (skip, steps, simulated) = timed("fp-starved/skip", || run(true));
    let (step, _, stepped_simulated) = timed("fp-starved/step", || run(false));
    assert_eq!(simulated, stepped_simulated, "period skip must not change the run");
    record("fp-starved", simulated, steps, skip, step)
}

/// The campaign grid of `campaign_throughput`, timed serially: the
/// median runs/s and the unique run count.
fn campaign_runs_per_second() -> (f64, u64) {
    let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
        .contender_accesses(vec![AccessKind::Load, AccessKind::Store])
        .iterations(vec![150, 200])
        .max_k(18);
    let mut runs = 0;
    let timing = bench_timed("campaign/serial", 1, PASSES, || {
        let campaign = Campaign::builder().grid(&grid).jobs(1).build();
        let start = Instant::now();
        let result = campaign.run();
        let elapsed = start.elapsed();
        runs = result.stats.executed_runs as u64;
        elapsed
    });
    (runs as f64 / timing.median_seconds(), runs)
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
