//! `rrbench`: the end-to-end and per-layer benchmark of the rrb toolkit.
//!
//! ```sh
//! cargo run --release --offline --manifest-path rrbench/Cargo.toml -- \
//!     --workload derive-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads, each generated from `--seed`:
//!
//! * `derive-cold` ([`derive`]): `rrb run`-equivalent campaigns on an
//!   empty result store — simulation and store writes;
//! * `serve-warm` ([`serve`]): an in-process daemon over a filled store,
//!   driven by a closed loop of two clients — store reads and HTTP;
//! * `bounds` ([`bounds`]): lint, static and flow analysis and the model
//!   checker over a fixed grid of cells — no simulation.
//!
//! With `--trace 0` the run measures end-to-end metrics with tracing
//! off; with `--trace 1` it drives the same calls one at a time with
//! spans around each layer ([`trace`]) and reports per-layer metrics.
//! Every run checks its outputs; a failed check fails the command. The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.

mod bounds;
mod calib;
mod derive;
mod serve;
mod specgen;
mod stats;
mod trace;

use stats::Summary;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: rrbench --workload derive-cold|serve-warm|bounds --seed N \
                     --seconds N --trace 0|1";

/// Metrics reported with `--trace 0`, on every workload.
const END_TO_END: [(&str, &str); 4] =
    [("items_per_s", "1/s"), ("latency_p50_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Metrics reported with `--trace 1`, on every workload (0 where the
/// workload leaves the layer idle).
const PER_LAYER: [(&str, &str); 41] = [
    ("spec.parse_ms", "ms"),
    ("lint.ms", "ms"),
    ("campaign.plan_ms", "ms"),
    ("campaign.finish_ms", "ms"),
    ("campaign.render_ms", "ms"),
    ("campaign.output_bytes", "bytes"),
    ("campaign.planned_runs", "count"),
    ("campaign.unique_runs", "count"),
    ("campaign.dedup_ratio", "ratio"),
    ("executor.run_us", "us"),
    ("executor.parallel_efficiency", "ratio"),
    ("sim.build_us", "us"),
    ("sim.reset_us", "us"),
    ("sim.load_us", "us"),
    ("sim.run_us", "us"),
    ("sim.cycles", "count"),
    ("sim.stepped_cycles", "count"),
    ("sim.event_skipped_cycles", "count"),
    ("sim.period_skipped_cycles", "count"),
    ("sim.period_skip_runs", "count"),
    ("sim.ns_per_step", "ns"),
    ("sim.cycles_per_s", "1/s"),
    ("store.open_ms", "ms"),
    ("store.miss_us", "us"),
    ("store.insert_us", "us"),
    ("store.entry_bytes", "bytes"),
    ("store.hit_us", "us"),
    ("store.payload_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.rejected", "count"),
    ("serve.healthz_p50_ms", "ms"),
    ("serve.first_line_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.runs_executed", "count"),
    ("analyze.ms_per_cell", "ms"),
    ("verify.ms_per_cell", "ms"),
    ("verify.explored", "count"),
    ("verify.pruned", "count"),
    ("bounds.render_ms", "ms"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
];

/// Extra fresh-process set-ups per `--trace 0` run: at least
/// `SETUP_MIN` and then more, up to `SETUP_MAX`, while they have taken
/// under `SETUP_SECONDS` in total. `setup_s` is the median over these
/// and the run's own set-up.
const SETUP_MIN: usize = 2;
const SETUP_MAX: usize = 20;
const SETUP_SECONDS: f64 = 3.0;

/// The parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut setup_only = false;
        while let Some(flag) = argv.next() {
            if flag == "--setup-only" {
                setup_only = true;
                continue;
            }
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number =
                || value.parse::<u64>().map_err(|_| format!("{flag}: bad number `{value}`"));
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => trace = Some(number()? != 0),
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["derive-cold", "serve-warm", "bounds"].contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}`"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: if setup_only { 0 } else { seconds.ok_or("--seconds is required")? },
            trace: trace.unwrap_or(false),
            setup_only,
        })
    }
}

/// What a workload reports back: operation counts, printed summary
/// lines and the metrics of the result object.
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub budget: Duration,
    /// Temporary directory for stores, removed at exit.
    pub work: PathBuf,
    /// Operations attempted (run records, requests, cells, checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values for the result object.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Host-speed scale of the run's timings ([`calib`]); set-up times
    /// are reported at the same speed.
    pub scale: f64,
}

impl Run {
    /// Counts one output check; a failed check is an operation failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("rrbench: check failed: {}", what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Sets a result metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A fresh, empty directory under the temporary directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// Removes the temporary directory when dropped, then syncs its parent so
/// the filesystem's deferred work for the deleted files lands in this
/// run rather than in the next one's timed samples.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            if let Ok(handle) = std::fs::File::open(parent) {
                let _ = handle.sync_all();
            }
        }
    }
}

/// The host memory high-water mark of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Times one set-up of `args.workload` in a fresh process, so each
/// sample pays the per-process costs (the simulator fingerprint probe).
fn setup_in_subprocess(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let out = Command::new(exe)
        .args(["--setup-only", "--workload", &args.workload, "--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("spawning a set-up sample: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match (out.status.success(), text.lines().last().map(str::parse::<f64>)) {
        (true, Some(Ok(secs))) => Ok(secs),
        _ => Err(format!("set-up sample failed: {}", String::from_utf8_lossy(&out.stderr))),
    }
}

fn result_json(run: &Run, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            // A non-finite value has already failed its check; keep the
            // line valid JSON.
            let value = run.metrics.get(name).copied().filter(|v| v.is_finite()).unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted.max(1),
        run.failed,
        metrics.join(", ")
    )
}

fn setup_only(args: &Args, work: &Path) -> f64 {
    match args.workload.as_str() {
        "derive-cold" => derive::setup_only(args.seed),
        "serve-warm" => serve::setup_only(args.seed, work),
        _ => bounds::setup_only(args.seed),
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rrbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from(".rrbench");
    let work = WorkDir(root.join(format!("run-{}", std::process::id())));
    if args.setup_only {
        println!("{}", setup_only(&args, &work.0));
        return ExitCode::SUCCESS;
    }
    let mut run = Run {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        work: work.0.clone(),
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        scale: 1.0,
    };
    println!(
        "rrbench: workload {} seed {} seconds {} trace {} on {} CPU(s)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let names: &[(&str, &str)] = if args.trace {
        let tracer = match args.workload.as_str() {
            "derive-cold" => derive::traced(&mut run),
            "serve-warm" => serve::traced(&mut run),
            _ => bounds::traced(&mut run),
        };
        let path = root.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        if let Err(e) = std::fs::write(&path, tracer.render()) {
            eprintln!("rrbench: warning: could not write {}: {e}", path.display());
        }
        for (name, unit) in PER_LAYER {
            println!(
                "layer {name:<30} {:>18.6} {unit}",
                run.metrics.get(name).copied().unwrap_or(0.0)
            );
        }
        &PER_LAYER
    } else {
        let own_setup = match args.workload.as_str() {
            "derive-cold" => derive::measured(&mut run),
            "serve-warm" => serve::measured(&mut run),
            _ => bounds::measured(&mut run),
        };
        let mut setups = vec![own_setup];
        let started = Instant::now();
        while setups.len() <= SETUP_MIN
            || (setups.len() <= SETUP_MAX && started.elapsed().as_secs_f64() < SETUP_SECONDS)
        {
            match setup_in_subprocess(&args) {
                Ok(secs) => setups.push(secs),
                Err(e) => {
                    run.check(false, || e);
                    break;
                }
            }
        }
        let setups: Vec<f64> = setups.iter().map(|s| s * run.scale).collect();
        let setup = Summary::of("setup_s", "s", &setups);
        println!("{setup}");
        run.set("setup_s", setup.median);
        let rss = peak_rss_mb();
        println!("metric {:<26} unit {:<8} value {rss:.3} n 1", "peak_rss_mb", "MiB");
        run.set("peak_rss_mb", rss);
        &END_TO_END
    };
    // A per-layer value may legitimately be zero; none may be missing
    // or non-finite.
    for (name, _) in names {
        match run.metrics.get(name).copied() {
            None if args.trace => run.set(name, 0.0),
            value => {
                let value = value.unwrap_or(f64::NAN);
                run.check(value.is_finite(), || format!("metric {name} is {value}"));
            }
        }
    }
    println!(
        "metric {:<26} unit {:<8} value {:.6} ({} of {} operations failed)",
        "error_rate",
        "fraction",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.failed,
        run.attempted
    );
    println!("{}", result_json(&run, names));
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload bounds --seed 3 --seconds 10 --trace 1").expect("parses");
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("bounds", 3, 10, true));
        assert!(args("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(args("--workload bounds --seconds 10").is_err());
        assert!(args("--workload bounds --seed x --seconds 10").is_err());
    }

    #[test]
    fn result_object_has_the_four_keys_and_every_metric() {
        let mut run = Run {
            seed: 1,
            budget: Duration::ZERO,
            work: PathBuf::new(),
            attempted: 5,
            failed: 0,
            metrics: BTreeMap::new(),
            scale: 1.0,
        };
        run.set("items_per_s", 12.5);
        let json = result_json(&run, &END_TO_END[..1]);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": \
             {\"items_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        let parsed = rrb::json::Json::parse(&json).expect("valid JSON");
        assert_eq!(parsed.as_object().map(<[_]>::len), Some(4));
    }
}
