//! `derive-cold`: cold `rrb run`-equivalent campaigns.
//!
//! One timed pass runs every spec of [`specgen::derive_specs`]: parse,
//! run the campaign over `clamped_jobs(None)` workers, render JSON. Every
//! unique run simulates, so a simulator change shows here and a daemon
//! change must read flat.
//!
//! The timed passes run without a result store, like `rrb run
//! --no-cache`. On the ext4 volume this benchmark was defined on,
//! creating the ~2.4k entry files of one pass took anywhere from 20 to
//! 600 µs per file depending on the volume's state, so pass times with a
//! store moved 3× between runs of the same code and no median was
//! steady. Store writes are measured per layer instead: the traced pass
//! opens a store in a fresh directory and times every `lookup` (a miss)
//! and `insert`, driving each unique run through [`Arena`], a
//! span-instrumented copy of `MachineArena::execute` built on the public
//! `Machine` API.

use crate::calib::Calibration;
use crate::specgen::{self, SpecText};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::Run;
use rrb::analysis::Histogram;
use rrb::campaign::{clamped_jobs, CampaignResult, RunError, RunMeasurement, RunSpec, StoreUsage};
use rrb::executor::Executor;
use rrb::json::fnv1a_64;
use rrb::sim::{CoreId, Machine, SimError};
use rrb::store::{ResultStore, StoreLookup};
use std::path::Path;
use std::time::Instant;

/// What set-up hands to the timed loop.
struct Setup {
    specs: Vec<SpecText>,
    jobs: usize,
}

/// Generates and parses the specs.
fn setup(seed: u64) -> Setup {
    let specs = specgen::derive_specs(seed);
    for s in &specs {
        specgen::parse(&s.text);
    }
    Setup { specs, jobs: clamped_jobs(None).0 }
}

/// One fresh-process set-up, in seconds.
pub fn setup_only(seed: u64) -> f64 {
    let start = Instant::now();
    setup(seed);
    start.elapsed().as_secs_f64()
}

/// Rendered outputs of one pass plus its counts.
#[derive(Default)]
struct Pass {
    wall: f64,
    unique: usize,
    records: u64,
    failed_records: u64,
    outputs: Vec<String>,
}

fn cold_pass(specs: &[SpecText], jobs: usize) -> Pass {
    let start = Instant::now();
    let mut pass = Pass::default();
    for s in specs {
        let result = specgen::parse(&s.text).to_campaign(jobs).run();
        pass.outputs.push(result.to_json());
        pass.unique += result.stats.executed_runs;
        pass.records += result.records.len() as u64;
        pass.failed_records += result.records.iter().filter(|r| !r.is_ok()).count() as u64;
    }
    pass.wall = start.elapsed().as_secs_f64();
    pass
}

/// The serial reference results every pass must reproduce byte for
/// byte.
fn reference(specs: &[SpecText]) -> Vec<CampaignResult> {
    specs.iter().map(|s| specgen::parse(&s.text).to_campaign(1).run()).collect()
}

fn digests(outputs: &[String]) -> Vec<u64> {
    outputs.iter().map(|o| fnv1a_64(o.as_bytes())).collect()
}

/// Checks the paper's result on the checked-in sweep: rsk-nop derives
/// the round-robin `ubd` of 18 cycles on three cores and 27 on four.
fn check_ubd(run: &mut Run, ngmp: &CampaignResult) {
    for (cores, ubd) in [(3u64, 18u64), (4, 27)] {
        let tag = format!("/c{cores}/");
        let got = ngmp
            .reports
            .iter()
            .find(|r| r.scenario.contains(&tag))
            .and_then(|r| r.metric_u64("ubd_m"));
        run.check(got == Some(ubd), || {
            format!("ngmp_sweep c{cores}: ubd_m {got:?}, expected {ubd}")
        });
    }
}

/// The end-to-end run; returns its own set-up time.
pub fn measured(run: &mut Run) -> f64 {
    let start = Instant::now();
    let setup = setup(run.seed);
    let setup_s = start.elapsed().as_secs_f64();
    let deadline = Instant::now() + run.budget;
    let (mut passes, mut pass_digests) = (Vec::new(), Vec::new());
    let mut calibration = Calibration::default();
    calibration.sample(setup.jobs);
    while passes.is_empty() || Instant::now() < deadline {
        let mut pass = cold_pass(&setup.specs, setup.jobs);
        calibration.sample(setup.jobs);
        pass_digests.push(digests(&pass.outputs));
        if !passes.is_empty() {
            pass.outputs.clear();
        }
        passes.push(pass);
    }
    let refs = reference(&setup.specs);
    let ref_json: Vec<String> = refs.iter().map(CampaignResult::to_json).collect();
    run.check(passes[0].outputs == ref_json, || {
        String::from("the first pass differs from the serial reference")
    });
    let want = digests(&ref_json);
    for (i, d) in pass_digests.iter().enumerate() {
        run.check(*d == want, || format!("pass {i} differs from the serial reference"));
    }
    check_ubd(run, &refs[0]);
    for p in &passes {
        run.ops(p.records, p.failed_records);
    }
    let raw: Vec<f64> = passes.iter().map(|p| p.wall * 1e3).collect();
    println!("{}", calibration.summary());
    run.scale = calibration.scale();
    let walls: Vec<f64> =
        raw.iter().enumerate().map(|(i, w)| w * calibration.scale_at(i)).collect();
    let rates: Vec<f64> =
        passes.iter().zip(&walls).map(|(p, w)| p.unique as f64 * 1e3 / w).collect();
    println!(
        "derive-cold: {} unique runs per pass over {} worker(s)",
        passes[0].unique, setup.jobs
    );
    println!("{}", Summary::of("raw_pass_ms", "ms", &raw));
    let runs_per_s = Summary::of("runs_per_s", "runs/s", &rates);
    let pass_ms = Summary::of("pass_ms", "ms", &walls);
    println!("{runs_per_s}");
    println!("{pass_ms}");
    run.set("items_per_s", runs_per_s.median);
    run.set("latency_p50_ms", pass_ms.median);
    setup_s
}

// ---------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------

/// A span-instrumented copy of `MachineArena::execute`: one warm
/// machine, reset between runs, recording off so period skip may engage.
#[derive(Default)]
struct Arena {
    machine: Option<Machine>,
}

/// One executed run: its measurement and the simulator's cycle counts.
struct Executed {
    m: RunMeasurement,
    now: u64,
    steps: u64,
}

impl Arena {
    fn execute(&mut self, spec: &RunSpec, t: &mut Tracer) -> Result<Executed, RunError> {
        let mut cfg = spec.cfg.clone();
        cfg.record_requests = false;
        cfg.record_trace = false;
        let machine = match self.machine.take() {
            Some(mut m) => {
                let reset = t.span("sim.reset", |_| m.reset_to(cfg));
                let m = self.machine.insert(m);
                reset?;
                m
            }
            None => self.machine.insert(t.span("sim.build", |_| Machine::new(cfg))?),
        };
        t.span("sim.load", |_| {
            machine.try_load_program(CoreId::new(0), spec.scua.clone())?;
            for (i, c) in spec.contenders.iter().enumerate() {
                machine.try_load_program(CoreId::new(i + 1), c.clone())?;
            }
            Ok::<(), SimError>(())
        })?;
        let summary = t.span("sim.run", |_| machine.run())?;
        let scua = CoreId::new(0);
        let core = summary.core(scua);
        let execution_time = core.execution_time().ok_or(RunError::NonTerminatingScua)?;
        let pmc = machine.pmc().core(scua);
        let m = RunMeasurement {
            execution_time,
            bus_requests: core.bus_requests,
            instructions: core.instructions,
            gamma_histogram: Histogram::from_bins(
                pmc.gamma_histogram.iter().map(|(&g, &n)| (g, n)),
            ),
            mc_gamma_histogram: Histogram::from_bins(
                pmc.mc_gamma_histogram.iter().map(|(&g, &n)| (g, n)),
            ),
            contender_histogram: Histogram::from_bins(
                pmc.contender_histogram.iter().map(|(&c, &n)| (u64::from(c), n)),
            ),
            bus_utilization: summary.bus_utilization,
            mc_utilization: summary.mc_utilization,
        };
        Ok(Executed { m, now: machine.now(), steps: machine.steps_executed() })
    }
}

/// One serial pass with spans, plus what the per-layer metrics need.
#[derive(Default)]
struct TracedPass {
    wall: f64,
    outputs: Vec<String>,
    planned: usize,
    unique: usize,
    lookups: usize,
    hits: usize,
    rejected: usize,
    entries: u64,
    entry_bytes: u64,
    /// Every executed run, kept for cycle accounting when asked.
    runs: Vec<(RunSpec, Executed)>,
}

fn traced_pass(specs: &[SpecText], dir: &Path, t: &mut Tracer, keep_runs: bool) -> TracedPass {
    let start = Instant::now();
    let mut out = TracedPass::default();
    let mut stores = Vec::new();
    t.span("pass", |t| {
        for (i, s) in specs.iter().enumerate() {
            let spec = t.span("spec.parse", |_| specgen::parse(&s.text));
            let store = t.span("store.open", |_| {
                ResultStore::open(dir.join(i.to_string())).expect("open a fresh result store")
            });
            let campaign = t.span("campaign.build", |_| spec.to_campaign_builder(1).build());
            let plan = t.span("campaign.plan", |_| campaign.plan());
            let mut arena = Arena::default();
            let mut usage = StoreUsage::default();
            let mut results = Vec::with_capacity(plan.unique_specs().len());
            for run in plan.unique_specs() {
                out.lookups += 1;
                match t.span("store.miss", |_| store.lookup(run)) {
                    StoreLookup::Miss => {}
                    StoreLookup::Hit(m) => {
                        out.hits += 1;
                        usage.hits += 1;
                        results.push(Ok(m));
                        continue;
                    }
                    StoreLookup::Rejected(why) => {
                        out.rejected += 1;
                        usage.warnings.push(why);
                    }
                }
                match t.span("executor.run", |t| arena.execute(run, t)) {
                    Ok(e) => {
                        if t.span("store.insert", |_| store.insert(run, &e.m)).unwrap_or(false) {
                            usage.writes += 1;
                        }
                        results.push(Ok(e.m.clone()));
                        if keep_runs {
                            out.runs.push((run.clone(), e));
                        }
                    }
                    Err(e) => results.push(Err(e)),
                }
            }
            let result = t.span("campaign.finish", |_| plan.finish(&results, usage, 1));
            out.outputs.push(t.span("campaign.render", |_| result.to_json()));
            out.planned += plan.planned_runs();
            out.unique += plan.unique_specs().len();
            stores.push(store);
        }
    });
    out.wall = start.elapsed().as_secs_f64();
    for store in &stores {
        let s = store.stats();
        out.entries += s.entries;
        out.entry_bytes += s.bytes;
    }
    out
}

/// Simulated cycles of a pass split three ways.
#[derive(Default)]
struct Cycles {
    total: u64,
    stepped: u64,
    event_skipped: u64,
    period_skipped: u64,
    period_skip_runs: u64,
}

/// Replays every run with period skip off: event-skipped cycles are
/// `now − steps(off)`, period-skipped ones `steps(off) − steps(on)`. The
/// replay must reproduce the measurement (execution time, bus requests,
/// γ histograms) and the cycle count exactly.
fn account(run: &mut Run, runs: &[(RunSpec, Executed)]) -> Cycles {
    let mut arena = Arena::default();
    let mut quiet = Tracer::new(false);
    let mut c = Cycles::default();
    for (spec, on) in runs {
        let mut full = spec.clone();
        full.cfg.period_skip = false;
        match arena.execute(&full, &mut quiet) {
            Ok(off) => {
                run.check(off.m == on.m && off.now == on.now, || {
                    format!("period skip changed the result of `{}`", spec.label)
                });
                c.total += on.now;
                c.stepped += on.steps;
                c.event_skipped += off.now - off.steps;
                c.period_skipped += off.steps.saturating_sub(on.steps);
                c.period_skip_runs += u64::from(off.steps > on.steps);
            }
            Err(e) => run.check(false, || format!("replay of `{}` failed: {e}", spec.label)),
        }
    }
    c
}

/// Serial time over `jobs` × parallel time on the five-arbiter sweep's
/// unique plan (no store), medians of three.
fn parallel_efficiency(spec: &SpecText, jobs: usize) -> f64 {
    let campaign = specgen::parse(&spec.text).to_campaign(1);
    let plan = campaign.plan();
    let time = |jobs: usize| {
        let walls: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                let _ = Executor::new().jobs(jobs).execute(plan.unique_specs());
                start.elapsed().as_secs_f64()
            })
            .collect();
        median(&walls)
    };
    time(1) / (jobs as f64 * time(jobs))
}

/// The traced run: alternates untraced and traced serial passes, then
/// accounts simulated cycles and parallel efficiency.
pub fn traced(run: &mut Run) -> Tracer {
    let setup = setup(run.seed);
    let want =
        digests(&reference(&setup.specs).iter().map(CampaignResult::to_json).collect::<Vec<_>>());
    let dir = run.fresh_dir("traced");
    let mut tracer = Tracer::new(false);
    // Warm-up pass: the first pass in a process pays one-off costs.
    traced_pass(&setup.specs, &dir, &mut tracer, false);
    let _ = std::fs::remove_dir_all(&dir);
    let deadline = Instant::now() + run.budget;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut first: Option<TracedPass> = None;
    let mut sample = 0u32;
    while on.is_empty() || Instant::now() < deadline {
        let traced = sample % 2 == 1;
        tracer.set_on(traced);
        tracer.set_sample(sample);
        let pass = traced_pass(&setup.specs, &dir, &mut tracer, traced && first.is_none());
        let _ = std::fs::remove_dir_all(&dir);
        run.check(digests(&pass.outputs) == want, || {
            format!("traced pass {sample} differs from the reference")
        });
        if traced {
            on.push(pass.wall);
            first.get_or_insert(pass);
        } else {
            off.push(pass.wall);
        }
        sample += 1;
    }
    tracer.set_on(false);
    let pass = first.expect("the loop runs at least one traced pass");
    let cycles = account(run, &pass.runs);
    let efficiency = parallel_efficiency(&setup.specs[1], setup.jobs);

    let ms = |name: &str| median(&tracer.secs(name)) * 1e3;
    let us = |name: &str| median(&tracer.secs(name)) * 1e6;
    let sim_run_secs: f64 = tracer.secs("sim.run").iter().sum();
    let traced_passes = on.len() as f64;
    let metrics = [
        ("spec.parse_ms", ms("spec.parse")),
        ("campaign.plan_ms", ms("campaign.plan")),
        ("campaign.finish_ms", ms("campaign.finish")),
        ("campaign.render_ms", ms("campaign.render")),
        ("campaign.output_bytes", pass.outputs.iter().map(String::len).sum::<usize>() as f64),
        ("campaign.planned_runs", pass.planned as f64),
        ("campaign.unique_runs", pass.unique as f64),
        ("campaign.dedup_ratio", pass.planned as f64 / pass.unique as f64),
        ("executor.run_us", us("executor.run")),
        ("executor.parallel_efficiency", efficiency),
        ("sim.build_us", us("sim.build")),
        ("sim.reset_us", us("sim.reset")),
        ("sim.load_us", us("sim.load")),
        ("sim.run_us", us("sim.run")),
        ("sim.cycles", cycles.total as f64),
        ("sim.stepped_cycles", cycles.stepped as f64),
        ("sim.event_skipped_cycles", cycles.event_skipped as f64),
        ("sim.period_skipped_cycles", cycles.period_skipped as f64),
        ("sim.period_skip_runs", cycles.period_skip_runs as f64),
        ("sim.ns_per_step", sim_run_secs * 1e9 / (cycles.stepped as f64 * traced_passes)),
        ("sim.cycles_per_s", cycles.total as f64 * traced_passes / sim_run_secs),
        ("store.open_ms", ms("store.open")),
        ("store.miss_us", us("store.miss")),
        ("store.insert_us", us("store.insert")),
        ("store.entry_bytes", pass.entry_bytes as f64 / pass.entries.max(1) as f64),
        ("store.hit_ratio", pass.hits as f64 / pass.lookups.max(1) as f64),
        ("store.rejected", pass.rejected as f64),
        ("trace.coverage", tracer.coverage("pass")),
        ("trace.overhead", median(&on) / median(&off) - 1.0),
    ];
    for (name, value) in metrics {
        run.set(name, value);
    }
    println!(
        "derive-cold traced: {} untraced and {} traced passes, {} runs replayed without period skip",
        off.len(),
        on.len(),
        pass.runs.len()
    );
    tracer
}
