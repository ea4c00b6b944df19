//! Subcommand implementations. Each command returns its output as a
//! `String` so the whole surface is unit-testable without capturing
//! stdout.

use crate::args::Flag::{Switch, Value};
use crate::args::{Command, Flag, ParseArgsError, Parsed};
use rrb::campaign::{
    clamped_jobs, CampaignGrid, CampaignResult, GridScenario, ParseGridScenarioError,
};
use rrb::methodology::MethodologyConfig;
use rrb::spec::ExperimentSpec;
use rrb::store::{sim_fingerprint, write_file_atomic, ResultStore};
use rrb::{MbtaAnalysis, TaskSpec};
use rrb_analysis::GammaModel;
use rrb_kernels::{AccessKind, AutobenchKernel, ParseAccessError};
use rrb_sim::{CoreId, MachineConfig, McQueueConfig, ParseArbiterError};
use std::error::Error;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A top-level CLI failure.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Args(ParseArgsError),
    /// An unknown value for an enumerated flag.
    UnknownChoice {
        /// Flag name.
        flag: &'static str,
        /// Offending value.
        value: String,
        /// Allowed values.
        allowed: String,
    },
    /// A usage mistake that is not a single bad flag value (conflicting
    /// switches, an unknown cache action, …).
    Usage(String),
    /// A toolkit operation failed.
    Tool(Box<dyn Error>),
    /// The command ran and produced its output (the report itself, or
    /// the note that `--out` was written), but the report is a failure:
    /// the output goes to stdout as on success, and the exit code is 1.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownChoice { flag, value, allowed } => {
                write!(f, "--{flag}: unknown value `{value}` (expected one of: {allowed})")
            }
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Tool(e) => write!(f, "{e}"),
            CliError::Failed(output) => write!(f, "{output}"),
        }
    }
}

impl Error for CliError {}

impl From<ParseArgsError> for CliError {
    fn from(e: ParseArgsError) -> Self {
        CliError::Args(e)
    }
}

/// Wraps a toolkit failure.
fn tool(e: impl Error + 'static) -> CliError {
    CliError::Tool(Box::new(e))
}

type Handler = fn(&Parsed) -> Result<String, CliError>;

/// The base machine of a flag-built grid ([`machine_from`]).
const MACHINE: &[Flag] = &[
    Value("arch"),
    Value("cores"),
    Value("l-bus"),
    Value("nop-latency"),
    Value("topology"),
    Value("mc-arbiter"),
    Value("mc-occupancy"),
];
/// The derivation knobs ([`methodology_from`]).
const METHODOLOGY: &[Flag] =
    &[Value("max-k"), Value("iterations"), Value("min-utilization"), Switch("store-contenders")];
/// The grid axes ([`grid_from`]).
const GRID: &[Flag] = &[
    Value("scenario"),
    Value("arbiters"),
    Value("grid-cores"),
    Value("accesses"),
    Value("contenders"),
];
/// How a campaign executes ([`run_campaign`]): workers and result store.
const RUNNER: &[Flag] = &[Value("jobs"), Value("cache-dir"), Switch("no-cache"), Switch("resume")];
/// Where and how the output goes ([`format_from`], [`write_or_return`]).
const OUTPUT: &[Flag] = &[Value("format"), Value("out")];

/// Every command: its name, positional, flags and handler. `rrb help`
/// documents each of them.
static COMMANDS: &[Command<Handler>] = &[
    Command::new("gamma", None, &[&[Value("ubd"), Value("max-delta")]], cmd_gamma),
    Command::new(
        "audit",
        None,
        &[MACHINE, METHODOLOGY, &[Value("kernel"), Value("seed"), Value("trials")]],
        cmd_audit,
    ),
    Command::new("campaign", None, &[MACHINE, METHODOLOGY, GRID, RUNNER, OUTPUT], cmd_campaign),
    Command::new(
        "export-spec",
        None,
        &[MACHINE, METHODOLOGY, GRID, &[Value("name"), Value("out")]],
        cmd_export_spec,
    ),
    Command::new("run", Some("rrb run <spec.json>"), &[RUNNER, OUTPUT], cmd_run),
    Command::new(
        "analyze",
        Some("rrb analyze <spec.json>"),
        &[OUTPUT, &[Switch("composed"), Switch("check-runs")], RUNNER],
        cmd_analyze,
    ),
    Command::new(
        "verify",
        Some("rrb verify <spec.json>"),
        &[OUTPUT, &[Switch("check-runs"), Value("iterations")]],
        cmd_verify,
    ),
    Command::new("lint", Some("rrb lint <spec.json>"), &[OUTPUT], cmd_lint),
    Command::new(
        "cache",
        Some("rrb cache <action>, one of: stats, verify, gc, fingerprint"),
        &[&[Value("cache-dir"), Value("max-age"), Value("max-size")]],
        cmd_cache,
    ),
    Command::new(
        "serve",
        None,
        &[&[Value("addr"), Value("workers"), Value("cache-dir")]],
        cmd_serve,
    ),
    Command::new("help", None, &[], |_| Ok(HELP.to_string())),
];

/// Parses and runs a command line, returning the textual output.
///
/// # Errors
///
/// Returns [`CliError`] for malformed input or failed derivations.
pub fn dispatch(argv: &[String]) -> Result<String, CliError> {
    let (command, parsed) = Parsed::parse(argv, COMMANDS)?;
    (command.handler)(&parsed)
}

/// Resolves the [`MACHINE`] flags into a machine.
fn machine_from(parsed: &Parsed) -> Result<MachineConfig, CliError> {
    let arch = parsed.get("arch").unwrap_or("ref");
    let mut cfg = match arch {
        "ref" => MachineConfig::ngmp_ref(),
        "var" => MachineConfig::ngmp_var(),
        "toy" => {
            MachineConfig::toy(parsed.get_u64("cores", 4)? as usize, parsed.get_u64("l-bus", 2)?)
        }
        other => {
            return Err(CliError::UnknownChoice {
                flag: "arch",
                value: other.to_string(),
                allowed: String::from("ref, var, toy"),
            })
        }
    };
    // The NGMP presets fix their core count and bus latency; taking the
    // toy-only flags there would silently build a different machine.
    if let Some(flag) =
        ["cores", "l-bus"].into_iter().find(|&f| arch != "toy" && parsed.get(f).is_some())
    {
        return Err(CliError::Usage(format!(
            "--{flag} only applies to --arch toy; the {arch} machine fixes it \
             (vary the core count with --grid-cores)"
        )));
    }
    let has_mc_flags = parsed.get("mc-arbiter").is_some() || parsed.get("mc-occupancy").is_some();
    // The mc flags only make sense on the two-level topology, so giving
    // one implies it; an explicit --topology single-bus alongside them
    // is a contradiction, not something to ignore silently.
    let topology = match parsed.get("topology") {
        None if has_mc_flags => "bus+mc",
        None => "single-bus",
        Some(t) => t,
    };
    match topology {
        "single-bus" if has_mc_flags => {
            return Err(CliError::UnknownChoice {
                flag: "topology",
                value: String::from("single-bus (with --mc-arbiter/--mc-occupancy)"),
                allowed: String::from("bus+mc when the mc flags are given"),
            })
        }
        "single-bus" => {}
        "bus+mc" => {
            let mut mc = McQueueConfig::ngmp();
            if let Some(token) = parsed.get("mc-arbiter") {
                mc.arbiter = parse_token(token, "mc-arbiter", ParseArbiterError::ALLOWED)?;
            }
            mc.service_occupancy = parsed.get_u64("mc-occupancy", mc.service_occupancy)?;
            cfg.topology.mc = Some(mc);
        }
        other => {
            return Err(CliError::UnknownChoice {
                flag: "topology",
                value: other.to_string(),
                allowed: String::from("single-bus, bus+mc"),
            })
        }
    }
    cfg.nop_latency = parsed.get_u64("nop-latency", cfg.nop_latency)?.max(1);
    Ok(cfg)
}

/// Resolves the [`METHODOLOGY`] flags against the machine they derive on.
fn methodology_from(parsed: &Parsed, cfg: &MachineConfig) -> Result<MethodologyConfig, CliError> {
    let mut m = MethodologyConfig::paper();
    // The saw-tooth is bus-only, so the default sweep length scales
    // with the bus share of the bound (the mc term adds no period).
    m.max_k = parsed.get_u64("max-k", (cfg.bus_ubd() * 3).max(20))? as usize;
    // `--iterations` accepts a comma list for `campaign` grids; the
    // methodology template (and `audit`) use the first value.
    m.iterations = parsed.get_u64_list("iterations", &[300])?.first().copied().unwrap_or(300);
    // Short command-line sweeps include the cold-start transient in the
    // utilisation average, so the floor defaults a touch below the
    // paper preset; `--min-utilization` (percent) overrides it.
    m.min_bus_utilization = parsed.get_u64("min-utilization", 90)? as f64 / 100.0;
    if parsed.get_switch("store-contenders") {
        m.contender_access = AccessKind::Store;
    }
    Ok(m)
}

fn cmd_gamma(parsed: &Parsed) -> Result<String, CliError> {
    let ubd = parsed.get_u64("ubd", 27)?.max(1);
    let max_delta = parsed.get_u64("max-delta", 2 * ubd + 1)?;
    let model = GammaModel::new(ubd);
    let mut out = format!("gamma(delta) for ubd = {ubd} (Eq. 2):\ndelta  gamma\n");
    for delta in 0..=max_delta {
        out.push_str(&format!("{delta:>5}  {:>5}\n", model.gamma(delta)));
    }
    Ok(out)
}

fn cmd_audit(parsed: &Parsed) -> Result<String, CliError> {
    let cfg = machine_from(parsed)?;
    let mcfg = methodology_from(parsed, &cfg)?;
    let kernels = AutobenchKernel::all().map(|k| k.to_string()).join(", ");
    let kernel: AutobenchKernel =
        parse_token(parsed.get("kernel").unwrap_or("canrdr"), "kernel", &kernels)?;
    let iterations = parsed.get_u64("iterations", 200)?;

    let analysis = MbtaAnalysis::characterise(&cfg, &mcfg).map_err(tool)?;
    let task = TaskSpec::new(
        kernel.to_string(),
        kernel.profile().program(
            &cfg,
            CoreId::new(0),
            parsed.get_u64("seed", 1)?,
            Some(iterations),
        ),
    );
    let bound = analysis.bound_task(&task).map_err(tool)?;
    let validation = analysis
        .validate_bound(&task, &bound, parsed.get_u64("trials", 2)? as u32)
        .map_err(tool)?;
    Ok(format!(
        "platform ubd_m = {}\n{bound}\nvalidation: worst observed {} cycles, slack {} — bound {}\n",
        analysis.ubd_m(),
        validation.worst_observed,
        validation.slack,
        if validation.holds() { "holds" } else { "VIOLATED" }
    ))
}

/// Parses `token` through `T`'s canonical `FromStr` (the one grammar
/// the library, the spec files and the CLI share), naming `flag` and the
/// `allowed` tokens in the error.
fn parse_token<T: FromStr>(token: &str, flag: &'static str, allowed: &str) -> Result<T, CliError> {
    token.parse().map_err(|_| CliError::UnknownChoice {
        flag,
        value: token.to_string(),
        allowed: allowed.to_string(),
    })
}

/// [`parse_token`] over each token of the comma list `--flag` (or
/// `default` when absent).
fn parse_tokens<T: FromStr>(
    parsed: &Parsed,
    flag: &'static str,
    default: &[&str],
    allowed: &str,
) -> Result<Vec<T>, CliError> {
    parsed.get_list(flag, default).iter().map(|t| parse_token(t, flag, allowed)).collect()
}

/// Resolves the [`GRID`] flags into a [`CampaignGrid`] over the
/// `machine_from` base — shared by `rrb campaign` (which runs it) and
/// `rrb export-spec` (which serialises it), so the two can never
/// disagree about what a flag set means.
fn grid_from(parsed: &Parsed) -> Result<CampaignGrid, CliError> {
    let base = machine_from(parsed)?;
    let scenario: GridScenario = parse_token(
        parsed.get("scenario").unwrap_or("derive"),
        "scenario",
        ParseGridScenarioError::ALLOWED,
    )?;
    let arbiters = parse_tokens(parsed, "arbiters", &[], ParseArbiterError::ALLOWED)?;
    let accesses = parse_tokens(parsed, "accesses", &["load"], ParseAccessError::ALLOWED)?;
    let contender_accesses =
        parse_tokens(parsed, "contenders", &["load"], ParseAccessError::ALLOWED)?;
    let core_counts = parsed.get_u64_list("grid-cores", &[base.num_cores as u64])?;
    // The methodology template fixes the defaults (max-k, iterations,
    // min-utilization, store-contenders); the grid dimensions then fan
    // out per cell.
    let methodology = methodology_from(parsed, &base)?;
    let iterations = parsed.get_u64_list("iterations", &[methodology.iterations])?;
    let max_k = methodology.max_k;

    let mut grid = CampaignGrid::new(scenario, base)
        .accesses(accesses)
        .contender_accesses(contender_accesses)
        .cores(core_counts.iter().map(|&c| c as usize).collect())
        .iterations(iterations)
        .max_k(max_k)
        .methodology(methodology);
    if !arbiters.is_empty() {
        grid = grid.arbiters(arbiters);
    }
    Ok(grid)
}

/// Resolves `--format` (default `text`) against a command's `allowed`
/// choices, listed comma-separated.
fn format_from<'a>(parsed: &'a Parsed, allowed: &'static str) -> Result<&'a str, CliError> {
    let format = parsed.get("format").unwrap_or("text");
    if allowed.split(", ").any(|choice| choice == format) {
        Ok(format)
    } else {
        Err(CliError::UnknownChoice {
            flag: "format",
            value: format.to_string(),
            allowed: allowed.to_string(),
        })
    }
}

fn write_or_return(parsed: &Parsed, rendered: String) -> Result<String, CliError> {
    if let Some(path) = parsed.get("out") {
        // Atomic (temp file + rename), so an interrupted run never
        // leaves a half-written results file at the requested path.
        write_file_atomic(path, &rendered).map_err(tool)?;
        return Ok(format!("wrote {} bytes to {path}\n", rendered.len()));
    }
    Ok(rendered)
}

/// Resolves `--jobs` through [`clamped_jobs`]: absent means every
/// available CPU, and over-requests are clamped (with a stderr warning)
/// rather than oversubscribing a pure-CPU simulator pool.
fn jobs_from(parsed: &Parsed) -> Result<usize, CliError> {
    let requested = parsed.get_opt_u64("jobs")?.map(|jobs| jobs.max(1) as usize);
    let (jobs, warning) = clamped_jobs(requested);
    if let Some(warning) = warning {
        eprintln!("rrb: warning: {warning}");
    }
    Ok(jobs)
}

/// Resolves the persistent result store from `--cache-dir` /
/// `RRB_CACHE_DIR` / `.rrb-cache`. Caching is on by default for the
/// campaign-shaped commands — results are pure functions of their
/// specs, so reuse is always sound and the output stays byte-identical.
/// `--no-cache` opts out; `--resume` makes an unopenable store a hard
/// error instead of a degraded cold run.
fn store_from(parsed: &Parsed) -> Result<Option<Arc<ResultStore>>, CliError> {
    let resume = parsed.get_switch("resume");
    if parsed.get_switch("no-cache") {
        if resume {
            return Err(CliError::Usage(String::from(
                "--resume and --no-cache contradict each other",
            )));
        }
        return Ok(None);
    }
    let dir = ResultStore::resolve_dir(parsed.get("cache-dir"));
    match ResultStore::open(&dir) {
        Ok(store) => Ok(Some(Arc::new(store))),
        Err(e) if resume => Err(tool(e)),
        Err(e) => {
            eprintln!("rrb: warning: result cache disabled: {e}");
            Ok(None)
        }
    }
}

/// Runs `spec`'s campaign over the resolved `--jobs` through the result
/// store (see [`store_from`]), reporting store activity on stderr —
/// never stdout: the rendered result must stay byte-identical across
/// cold and warm runs.
fn run_campaign(parsed: &Parsed, spec: &ExperimentSpec) -> Result<CampaignResult, CliError> {
    let store = store_from(parsed)?;
    let mut builder = spec.to_campaign_builder(jobs_from(parsed)?);
    if let Some(store) = &store {
        builder = builder.store(store.clone());
    }
    let result = builder.build().run();
    if let Some(store) = &store {
        for warning in &result.warnings {
            eprintln!("rrb: warning: {warning}");
        }
        let s = &result.stats;
        eprintln!(
            "rrb: cache {}: {} of {} unique run(s) resumed, {} simulated, {} recorded",
            store.dir().display(),
            s.store_hits,
            s.store_hits + s.executed_runs,
            s.executed_runs,
            s.store_writes,
        );
    }
    Ok(result)
}

/// Runs `spec`'s campaign and renders it per `--format` to `--out` (or
/// returns it for stdout) — the tail `campaign` and `run` share.
fn run_spec(parsed: &Parsed, spec: &ExperimentSpec) -> Result<String, CliError> {
    let result = run_campaign(parsed, spec)?;
    let rendered = match format_from(parsed, "text, json, csv")? {
        "json" => result.to_json(),
        "csv" => result.to_csv(),
        _ => result.render_text(),
    };
    write_or_return(parsed, rendered)
}

/// `rrb campaign`: expand a parameter grid into scenarios, execute the
/// deduplicated run plan across `--jobs` worker threads, and print the
/// results as text, JSON, or CSV. Output is byte-identical for every
/// `--jobs` value and every cache state. Grid cells validate per cell
/// at plan time, so a bad flag-built machine yields error records.
fn cmd_campaign(parsed: &Parsed) -> Result<String, CliError> {
    run_spec(parsed, &ExperimentSpec::from_grid("campaign", &grid_from(parsed)?))
}

/// `rrb export-spec`: serialise the campaign a flag set describes into a
/// declarative experiment file, so `rrb run <file>` reproduces
/// `rrb campaign <same flags>` byte for byte.
fn cmd_export_spec(parsed: &Parsed) -> Result<String, CliError> {
    let grid = grid_from(parsed)?;
    let spec = ExperimentSpec::from_grid(parsed.get("name").unwrap_or("campaign"), &grid);
    write_or_return(parsed, spec.to_text())
}

/// `rrb run <spec.json>`: parse, validate, and execute a declarative
/// experiment file through the same campaign runner as `rrb campaign`.
/// `--jobs`, `--format`, and `--out` stay runtime choices — `--jobs`
/// never changes the serialised json/csv bytes (the text format's
/// trailing stats line does report the job count).
fn cmd_run(parsed: &Parsed) -> Result<String, CliError> {
    run_spec(parsed, &spec_from(parsed)?)
}

/// Loads the spec-file positional of `run`, `analyze`, `verify` and
/// `lint`.
fn spec_from(parsed: &Parsed) -> Result<ExperimentSpec, CliError> {
    ExperimentSpec::from_file(parsed.positional()).map_err(tool)
}

/// Fails with `header` and one indented line per violation, if there
/// are any.
fn fail_on_violations(header: &str, violations: &[String]) -> Result<(), CliError> {
    if violations.is_empty() {
        return Ok(());
    }
    let mut msg = format!("{header}\n");
    for v in violations {
        msg.push_str(&format!("  {v}\n"));
    }
    Err(CliError::Tool(msg.into()))
}

/// `rrb analyze <spec.json>`: compute the static contention bound for
/// every cell the spec would run — one finite analytic bound per
/// arbiter × topology cell, no simulation, no refusals — and flag
/// soundness violations (a static bound below the analytic truth, or,
/// with `--check-runs`, a measured per-request delay above the static
/// bound). `--composed` switches the text table to the interference-flow
/// columns: the flow-composed bound next to the saturating sum, with the
/// per-resource slack the topology proves unreachable.
fn cmd_analyze(parsed: &Parsed) -> Result<String, CliError> {
    let spec = spec_from(parsed)?;
    let rows = rrb::analyze::analyze_spec(&spec);
    let json = format_from(parsed, "text, json")? == "json";
    let mut out = if json {
        ndjson(rows.iter().map(rrb::CellStaticBound::to_json))
    } else if parsed.get_switch("composed") {
        rrb::analyze::render_rows_composed(&rows)
    } else {
        rrb::analyze::render_rows(&rows)
    };
    let mut violations: Vec<String> = rows.iter().filter_map(|r| r.violation()).collect();
    if parsed.get_switch("check-runs") {
        // Execute the spec's campaign (store-cached like `rrb run`) and
        // cross-check every observed per-request delay against the
        // static bound for its cell.
        let result = run_campaign(parsed, &spec)?;
        let check = rrb::analyze::check_measured(&rows, &result);
        if json {
            out.push_str(&ndjson(check.tightness.iter().map(rrb::CellTightness::to_json)));
        } else {
            out.push_str(&format!(
                "measured cross-check: {} run record(s), {} violation(s)\n",
                result.records.len(),
                check.violations.len()
            ));
            // How much of each static bound the runs actually realised:
            // the per-cell pessimism, not just pass/fail.
            for t in &check.tightness {
                out.push_str(&format!(
                    "  tightness {}: measured {} / static {} = {:.3}\n",
                    t.cell, t.measured, t.static_total, t.tightness
                ));
            }
        }
        violations.extend(check.violations);
    }
    fail_on_violations("static soundness violated:", &violations)?;
    write_or_return(parsed, out)
}

/// Renders an iterator of JSON values as NDJSON: one compact object per
/// line, the format the serve daemon already streams and the easiest one
/// to `grep`/`jq` incrementally.
fn ndjson(values: impl Iterator<Item = rrb::Json>) -> String {
    let mut out = String::new();
    for v in values {
        out.push_str(&v.render_compact());
        out.push('\n');
    }
    out
}

/// `rrb verify <spec.json>`: exhaustive model checking of every cell the
/// spec would run — the *exact* worst-case per-request delay per
/// resource (enumerating request alignments against the real arbiter
/// implementations), the tightness certificate `exact / static`, and a
/// replayable adversarial witness. Fails on any broken link of the bound
/// chain; with `--check-runs`, also replays each witness on the full
/// simulator and fails if a measured delay exceeds the exact bound.
fn cmd_verify(parsed: &Parsed) -> Result<String, CliError> {
    let spec = spec_from(parsed)?;
    let rows = rrb::verify::verify_spec(&spec, &rrb::statics::VerifyOptions::default());
    let json = format_from(parsed, "text, json")? == "json";
    let mut out = if json {
        ndjson(rows.iter().map(rrb::VerifiedCell::to_json))
    } else {
        rrb::verify::render_verified(&rows)
    };
    let mut violations: Vec<String> = rows.iter().flat_map(|r| r.violations()).collect();
    if parsed.get_switch("check-runs") {
        let iterations = parsed.get_u64("iterations", 60)?;
        for row in &rows {
            for replay in rrb::verify::replay_cell_witnesses(row, iterations) {
                if json {
                    out.push_str(&ndjson(std::iter::once(replay.to_json())));
                } else {
                    let measured =
                        replay.measured.map_or_else(|| String::from("none"), |m| m.to_string());
                    out.push_str(&format!(
                        "witness replay {} [{}]: measured {measured} / exact {} ({} runs)\n",
                        replay.cell, replay.resource, replay.exact, replay.runs
                    ));
                }
                violations.extend(replay.violation());
            }
        }
    }
    fail_on_violations("exact-bound soundness violated:", &violations)?;
    write_or_return(parsed, out)
}

/// `rrb lint <spec.json>`: static semantic checks on an experiment file —
/// starving TDMA slots, dangling grid axes, sweeps too short for the
/// period matcher, finite contenders, … Errors fail the command; CI runs
/// this over every checked-in spec.
fn cmd_lint(parsed: &Parsed) -> Result<String, CliError> {
    let spec = spec_from(parsed)?;
    let findings = rrb::lint::lint_spec(&spec);
    let rendered = match format_from(parsed, "text, json")? {
        "json" => ndjson(findings.iter().map(rrb::LintFinding::to_json)),
        _ => rrb::lint::render_findings(&findings),
    };
    let output = write_or_return(parsed, rendered)?;
    if rrb::lint::has_errors(&findings) {
        return Err(CliError::Failed(output));
    }
    Ok(output)
}

/// `rrb cache <stats|verify|gc|fingerprint>`: inspect and maintain the
/// persistent result store. Only the actions that read the store open
/// it, so `fingerprint` and an unknown action never create a store
/// directory as a side effect.
fn cmd_cache(parsed: &Parsed) -> Result<String, CliError> {
    let open =
        || ResultStore::open(ResultStore::resolve_dir(parsed.get("cache-dir"))).map_err(tool);
    match parsed.positional() {
        // The CI cache key.
        "fingerprint" => Ok(format!("{:016x}\n", sim_fingerprint())),
        "stats" => {
            let s = open()?.stats();
            Ok(format!(
                "result store     : {}\n\
                 format version   : {}\n\
                 sim fingerprint  : {:016x}\n\
                 entries          : {}\n\
                 entry bytes      : {}\n\
                 segments         : {}\n",
                s.dir.display(),
                s.format,
                s.fingerprint,
                s.entries,
                s.bytes,
                s.segments,
            ))
        }
        "verify" => {
            let report = open()?.verify();
            if report.problems.is_empty() {
                return Ok(format!("verified {} entr(y/ies): all valid\n", report.ok));
            }
            let mut msg = format!(
                "cache verification failed: {} valid, {} problem(s):\n",
                report.ok,
                report.problems.len()
            );
            for (file, problem) in &report.problems {
                msg.push_str(&format!("  {file}: {problem}\n"));
            }
            Err(CliError::Tool(msg.into()))
        }
        "gc" => {
            let (max_age, max_size) =
                (parsed.get_opt_u64("max-age")?, parsed.get_opt_u64("max-size")?);
            let report = open()?.gc(max_age, max_size);
            Ok(format!(
                "examined {} entr(y/ies): removed {} ({} bytes), kept {} ({} bytes)\n",
                report.examined,
                report.removed,
                report.removed_bytes,
                report.kept,
                report.kept_bytes,
            ))
        }
        other => Err(CliError::Usage(format!(
            "unknown cache action `{other}` (expected one of: stats, verify, gc, fingerprint)"
        ))),
    }
}

/// `rrb serve`: run the derivation daemon — a sharded scheduler over
/// the persistent result store. Blocks until SIGTERM/SIGINT or
/// `POST /v1/shutdown`, then drains gracefully and reports its
/// counters. The store is mandatory here (the service *is* the store);
/// `--cache-dir` / `RRB_CACHE_DIR` resolve it exactly like the batch
/// commands.
fn cmd_serve(parsed: &Parsed) -> Result<String, CliError> {
    let dir = ResultStore::resolve_dir(parsed.get("cache-dir"));
    let store = Arc::new(ResultStore::open(&dir).map_err(tool)?);
    let config = rrb_serve::ServeConfig {
        addr: parsed.get("addr").unwrap_or("127.0.0.1:7077").to_string(),
        workers: parsed.get_u64("workers", 0)? as usize,
    };
    let server = rrb_serve::Server::bind(config, store).map_err(tool)?;
    rrb_serve::trap_termination_signals();
    let addr = server.local_addr().map_err(tool)?;
    eprintln!(
        "rrb: serving {} on http://{addr} with {} worker(s) (SIGTERM or POST /v1/shutdown to drain)",
        dir.display(),
        server.workers(),
    );
    let stats = server.run().map_err(tool)?;
    Ok(format!(
        "served {} campaign(s), {} point quer(y/ies); streamed {} run record(s), simulated {}\n",
        stats.campaigns, stats.point_queries, stats.runs_streamed, stats.runs_executed,
    ))
}

/// `rrb help`. Every command of [`COMMANDS`] and every flag it declares
/// appears here (pinned by `help_lists_all_commands`).
const HELP: &str = "\
rrb — measurement-based contention bounds for round-robin buses
(reproduction of Fernandez et al., DAC 2015)

flag groups (each command below names the groups it takes):
  machine      --arch ref|var|toy  [--cores N --l-bus N (toy only)]
               [--nop-latency N]
               [--topology single-bus|bus+mc]  chain the memory-controller queue
               [--mc-arbiter TOKEN] [--mc-occupancy N]  configure the mc queue
               (arbiter TOKENs everywhere: rr, fp, fifo, tdma:<slot>, grr:<group>)
  methodology  [--max-k N] [--iterations N] [--min-utilization PCT]
               [--store-contenders]
  grid         [--scenario derive|naive|sweep|validate]
               [--arbiters rr,fifo,...] [--grid-cores 2,3,4]
               [--accesses load,store] [--contenders load,store]
               [--iterations 100,200]
  runner       [--jobs N] [--cache-dir DIR] [--no-cache] [--resume]
  output       [--format text|json|csv] [--out FILE]
A flag the command does not take is an error.

commands:
  gamma     print the Eq. 2 contention model
            [--ubd N] [--max-delta N]
  audit     derive ubd_m, bound an EEMBC-profile task, validate
            machine, methodology, [--kernel NAME] [--seed N] [--trials N]
  campaign  run a scenario grid through the parallel batch runner:
            machine, methodology, grid, runner, output.
            --scenario derive runs the rsk-nop methodology and derives
            ubd_m (with per-resource metrics on bus+mc); --scenario naive
            is the prior-practice rsk-vs-rsk estimate (det/nr, max gamma)
  export-spec  serialise the campaign the given flags describe into a
            declarative experiment file: machine, methodology, grid,
            [--name NAME] [--out FILE]
  run       execute an experiment file: rrb run <spec.json> runner, output
            (json/csv output is byte-identical to the flag-driven
            campaign the spec was exported from)
  analyze   static contention bounds for every cell of an experiment
            file — finite for every arbiter, no simulation:
            rrb analyze <spec.json> [--format text|json] [--out FILE]
            [--composed] [--check-runs] runner  (--composed shows the
            interference-flow bound and its slack vs the saturating sum;
            --check-runs also executes the campaign and fails if any
            measured delay exceeds its static bound)
  verify    exhaustive model check of every cell of an experiment file:
            exact worst-case delays, tightness certificates vs the static
            bounds, and replayable adversarial witnesses:
            rrb verify <spec.json> [--format text|json] [--out FILE]
            [--check-runs [--iterations N]]  (--check-runs replays each
            witness on the cycle-accurate simulator and fails if
            measured exceeds exact)
  lint      static semantic checks on an experiment file:
            rrb lint <spec.json> [--format text|json] [--out FILE]
            (errors exit 1 after writing the findings as usual)
  cache     inspect/maintain the persistent result store:
            rrb cache stats | verify | fingerprint [--cache-dir DIR]
            rrb cache gc [--max-age SECS] [--max-size BYTES]
  serve     run the derivation daemon over the result store:
            rrb serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]
            (POST /v1/campaigns streams NDJSON run records;
            GET /v1/runs/<hash> answers point queries; SIGTERM drains
            gracefully)
  help      this text

result cache (campaign, run, analyze --check-runs):
  runs are deterministic, so campaign/run results persist in a
  content-addressed store and warm re-runs simulate nothing; output is
  byte-identical either way. Default dir .rrb-cache (override:
  --cache-dir DIR or RRB_CACHE_DIR). --no-cache disables it; --resume
  makes an unusable cache a hard error instead of a silent cold run.
  Resume statistics and any corrupt-entry warnings go to stderr, never
  into results.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn run(line: &str) -> Result<String, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        dispatch(&argv)
    }

    #[test]
    fn help_lists_all_commands() {
        let h = run("help").expect("help");
        for command in COMMANDS {
            assert!(
                h.contains(&format!("\n  {} ", command.name)),
                "help must list {}",
                command.name
            );
            for flag in command.flags() {
                let flag = format!("--{}", flag.name());
                assert!(h.contains(&flag), "help must document {flag} of {}", command.name);
            }
        }
    }

    #[test]
    fn campaign_text_summarises_grid_cells() {
        let out = run("campaign --arch toy --cores 4 --l-bus 2 --scenario derive \
             --arbiters rr,fifo --iterations 60 --max-k 14 --jobs 2 --no-cache")
        .expect("campaign");
        assert!(out.contains("derive/rr/c4/load-vs-load/i60"), "{out}");
        assert!(out.contains("derive/fifo/c4/load-vs-load/i60"), "{out}");
        assert!(out.contains("ubd_m = 6"), "{out}");
        assert!(out.contains("campaign: 2 scenario(s)"), "{out}");
    }

    #[test]
    fn campaign_json_is_identical_across_jobs() {
        let line = "campaign --arch toy --cores 4 --l-bus 2 --scenario naive \
                    --contenders load,store --iterations 80 --format json --no-cache";
        let serial = run(&format!("{line} --jobs 1")).expect("serial");
        let parallel = run(&format!("{line} --jobs 8")).expect("parallel");
        assert_eq!(serial, parallel, "campaign output must not depend on --jobs");
        assert!(serial.contains("\"runs\""));
        assert!(serial.contains("\"ubd_m_max_gamma\": 5"));
    }

    #[test]
    fn campaign_csv_has_run_rows() {
        let out = run("campaign --arch toy --cores 4 --l-bus 2 --scenario sweep \
             --max-k 13 --iterations 60 --format csv --no-cache")
        .expect("campaign");
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("scenario,label,status"));
        assert_eq!(lines.len(), 1 + 2 * 14, "header + iso/contended pair per k");
    }

    #[test]
    fn campaign_rejects_bad_scenario_format_and_arbiter() {
        for (line, needle) in [
            ("campaign --scenario warp --no-cache", "derive, naive, sweep, validate"),
            (
                "campaign --arch toy --format yaml --max-k 12 --iterations 50 --no-cache",
                "text, json, csv",
            ),
            ("campaign --arbiters cdma --no-cache", "tdma:<slot>"),
            ("campaign --accesses rmw --no-cache", "load, store"),
        ] {
            let e = run(line).expect_err("must fail");
            assert!(e.to_string().contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn unknown_command_is_reported() {
        let e = run("frobnicate").expect_err("must fail");
        assert!(e.to_string().contains("frobnicate"));
        // The verbs `campaign --scenario derive|naive` and `run` replace.
        for verb in ["derive", "naive", "simulate"] {
            let e = run(&format!("{verb} --arch toy")).expect_err("must fail");
            assert!(e.to_string().contains(&format!("unknown command `{verb}`")), "{e}");
        }
    }

    #[test]
    fn stray_positionals_are_rejected_outside_run() {
        for line in ["campaign extra --arch toy", "export-spec extra", "gamma extra"] {
            let e = run(line).expect_err("must fail");
            assert!(e.to_string().contains("unexpected argument `extra`"), "{line}: {e}");
        }
    }

    #[test]
    fn undeclared_flags_are_rejected_naming_command_and_flag() {
        for (line, command, flag) in [
            (format!("verify {NGMP_SPEC} --horizon 4096"), "verify", "--horizon"),
            (String::from("campaign --arch toy --composed --no-cache"), "campaign", "--composed"),
            (String::from("export-spec --arch toy --jobs 2"), "export-spec", "--jobs"),
            (String::from("cache stats --no-cache"), "cache", "--no-cache"),
        ] {
            let e = run(&line).expect_err("must fail");
            let msg = e.to_string();
            assert!(msg.contains(&format!("rrb {command}")) && msg.contains(flag), "{line}: {msg}");
        }
    }

    #[test]
    fn toy_only_machine_flags_and_bad_numbers_are_usage_errors() {
        // Each used to be dropped without a word: an NGMP preset with
        // --cores/--l-bus exported its fixed machine, and a non-numeric
        // --nop-latency kept the default.
        for (line, needle) in [
            ("export-spec --arch ref --cores 2", "--cores only applies to --arch toy"),
            ("export-spec --l-bus 5", "--l-bus only applies to --arch toy"),
            ("campaign --arch var --cores 2 --no-cache", "--cores only applies to --arch toy"),
            ("export-spec --arch toy --nop-latency fast", "--nop-latency: `fast`"),
        ] {
            let e = run(line).expect_err("must fail");
            assert!(e.to_string().contains(needle), "{line}: {e}");
        }
        let spec = run("export-spec --arch toy --cores 2 --l-bus 3 --nop-latency 2").expect("toy");
        let spec = ExperimentSpec::parse(&spec).expect("parse");
        assert_eq!((spec.machine.num_cores, spec.machine.nop_latency), (2, 2));
    }

    /// A scratch path in the target-adjacent temp dir, removed on drop.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(name: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("rrb-cli-test-{}-{name}", std::process::id()));
            TempFile(path)
        }

        fn as_str(&self) -> &str {
            self.0.to_str().expect("utf-8 temp path")
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    /// A scratch directory for cache tests, removed on drop.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let path =
                std::env::temp_dir().join(format!("rrb-cli-test-{}-{name}", std::process::id()));
            let _ = std::fs::remove_dir_all(&path);
            TempDir(path)
        }

        fn as_str(&self) -> &str {
            self.0.to_str().expect("utf-8 temp path")
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn warm_cached_campaign_output_is_byte_identical_to_cold() {
        let cache = TempDir::new("warm-campaign");
        let line = format!(
            "campaign --arch toy --cores 4 --l-bus 2 --scenario naive --iterations 60 \
             --format json --cache-dir {}",
            cache.as_str()
        );
        let cold = run(&line).expect("cold run");
        let warm = run(&line).expect("warm run");
        assert_eq!(cold, warm, "cache state must never change the rendered output");
        let stats = run(&format!("cache stats --cache-dir {}", cache.as_str())).expect("stats");
        assert!(!stats.contains("entries          : 0"), "{stats}");
    }

    #[test]
    fn cache_stats_verify_gc_and_fingerprint() {
        let cache = TempDir::new("verbs");
        run(&format!(
            "campaign --arch toy --cores 4 --l-bus 2 --scenario naive --iterations 60 \
             --cache-dir {}",
            cache.as_str()
        ))
        .expect("populate");

        let fp = run("cache fingerprint").expect("fingerprint");
        assert_eq!(fp.trim().len(), 16, "{fp}");
        assert!(u64::from_str_radix(fp.trim(), 16).is_ok(), "{fp}");

        let verify = run(&format!("cache verify --cache-dir {}", cache.as_str())).expect("verify");
        assert!(verify.contains("all valid"), "{verify}");

        // Corrupt one record (the last payload byte of the segment):
        // verify must fail and name the segment.
        let segment = std::fs::read_dir(cache.0.join("segments"))
            .expect("segments dir")
            .flatten()
            .next()
            .expect("a segment")
            .path();
        let mut bytes = std::fs::read(&segment).expect("read segment");
        *bytes.last_mut().expect("a record") ^= 0x01;
        std::fs::write(&segment, bytes).expect("corrupt");
        let e =
            run(&format!("cache verify --cache-dir {}", cache.as_str())).expect_err("must fail");
        assert!(e.to_string().contains("problem(s)"), "{e}");
        let name = segment.file_name().and_then(|n| n.to_str()).expect("segment name");
        assert!(e.to_string().contains(name), "{e}");

        // gc with no limits removes only the corrupt record…
        let gc = run(&format!("cache gc --cache-dir {}", cache.as_str())).expect("gc");
        assert!(gc.contains("removed 1"), "{gc}");
        // …and --max-age 0 expires the rest.
        let gc = run(&format!("cache gc --max-age 0 --cache-dir {}", cache.as_str())).expect("gc");
        assert!(gc.contains("kept 0 (0 bytes)"), "{gc}");
    }

    #[test]
    fn cache_usage_errors_are_reported() {
        let e = run("campaign --resume --no-cache").expect_err("must fail");
        assert!(e.to_string().contains("contradict"), "{e}");
        let e = run("cache").expect_err("must fail");
        assert!(e.to_string().contains("stats, verify, gc, fingerprint"), "{e}");
        let e = run("cache defrag").expect_err("must fail");
        assert!(e.to_string().contains("defrag"), "{e}");
        let e = run("cache stats extra").expect_err("must fail");
        assert!(e.to_string().contains("extra"), "{e}");
    }

    #[test]
    fn cache_gc_max_size_prunes_to_budget_and_the_store_stays_valid() {
        let cache = TempDir::new("gc-size");
        run(&format!(
            "campaign --arch toy --cores 4 --l-bus 2 --scenario sweep --max-k 10 \
             --iterations 60 --cache-dir {}",
            cache.as_str()
        ))
        .expect("populate");
        let stats = run(&format!("cache stats --cache-dir {}", cache.as_str())).expect("stats");
        let bytes: u64 = stats
            .lines()
            .find(|l| l.starts_with("entry bytes"))
            .and_then(|l| l.split(':').nth(1))
            .and_then(|v| v.trim().parse().ok())
            .expect("entry bytes in stats");
        assert!(bytes > 0, "{stats}");

        // A budget of half the store forces a partial prune…
        let gc = run(&format!("cache gc --max-size {} --cache-dir {}", bytes / 2, cache.as_str()))
            .expect("gc");
        // "examined E: removed R (RB bytes), kept K (KB bytes)"
        let nums: Vec<u64> =
            gc.split(|c: char| !c.is_ascii_digit()).filter_map(|t| t.parse().ok()).collect();
        assert_eq!(nums.len(), 5, "{gc}");
        let (removed, kept, kept_bytes) = (nums[1], nums[3], nums[4]);
        assert!(removed >= 1, "{gc}");
        assert!(kept >= 1, "{gc}");
        assert!(kept_bytes <= bytes / 2, "{gc}");
        // …and what survives is still a fully valid store.
        let verify = run(&format!("cache verify --cache-dir {}", cache.as_str())).expect("verify");
        assert!(verify.contains("all valid"), "{verify}");
    }

    #[test]
    fn cache_gc_max_age_zero_empties_the_store_and_it_verifies_clean() {
        let cache = TempDir::new("gc-age");
        let campaign = format!(
            "campaign --arch toy --cores 4 --l-bus 2 --scenario naive --iterations 60 \
             --cache-dir {}",
            cache.as_str()
        );
        run(&campaign).expect("populate");
        let gc = run(&format!("cache gc --max-age 0 --cache-dir {}", cache.as_str())).expect("gc");
        assert!(gc.contains("kept 0 (0 bytes)"), "{gc}");
        let verify = run(&format!("cache verify --cache-dir {}", cache.as_str())).expect("verify");
        assert!(verify.contains("verified 0"), "{verify}");
        let stats = run(&format!("cache stats --cache-dir {}", cache.as_str())).expect("stats");
        assert!(stats.contains("entries          : 0"), "{stats}");
        // An emptied store repopulates transparently on the next run.
        run(&campaign).expect("repopulate");
        let stats = run(&format!("cache stats --cache-dir {}", cache.as_str())).expect("stats");
        assert!(!stats.contains("entries          : 0"), "{stats}");
    }

    #[test]
    fn serve_boots_answers_and_drains_via_the_cli() {
        let cache = TempDir::new("serve-cli");
        // Probe for a free port; serve needs a literal --addr up front.
        let port = {
            let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe");
            probe.local_addr().expect("probe addr").port()
        };
        let addr = format!("127.0.0.1:{port}");
        let line = format!("serve --addr {addr} --workers 1 --cache-dir {}", cache.as_str());
        let daemon = std::thread::spawn(move || run(&line).map_err(|e| e.to_string()));
        let sock: std::net::SocketAddr = addr.parse().expect("socket addr");
        let mut ready = false;
        for _ in 0..500 {
            if rrb_serve::client::get(sock, "/healthz").map(|r| r.status == 200).unwrap_or(false) {
                ready = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert!(ready, "daemon did not come up on {sock}");
        let resp = rrb_serve::client::post(sock, "/v1/shutdown", "").expect("shutdown");
        assert_eq!(resp.status, 200);
        let out = daemon.join().expect("join").expect("serve");
        assert!(out.contains("served 0 campaign(s)"), "{out}");
    }

    #[test]
    fn serve_rejects_bad_addresses_and_stray_arguments() {
        let cache = TempDir::new("serve-errors");
        run(&format!("serve not-a-flag --cache-dir {}", cache.as_str()))
            .expect_err("stray positionals must fail");
        let e = run(&format!("serve --addr not-an-address --cache-dir {}", cache.as_str()))
            .expect_err("must fail");
        assert!(!e.to_string().is_empty());
    }

    #[test]
    fn run_resumes_a_spec_from_the_cache() {
        let cache = TempDir::new("resume-spec");
        let spec_file = TempFile::new("resume.json");
        run(&format!(
            "export-spec --arch toy --cores 4 --l-bus 2 --scenario sweep --max-k 8 \
             --iterations 50 --out {}",
            spec_file.as_str()
        ))
        .expect("export");
        let line = |extra: &str| {
            format!(
                "run {} --format csv --cache-dir {} {extra}",
                spec_file.as_str(),
                cache.as_str()
            )
        };
        let cold = run(&line("")).expect("cold");
        let resumed = run(&line("--resume")).expect("resumed");
        assert_eq!(cold, resumed);
    }

    #[test]
    fn export_spec_then_run_reproduces_the_flag_driven_campaign() {
        let flags = "--arch toy --cores 4 --l-bus 2 --scenario derive \
                     --arbiters rr,fifo --iterations 60 --max-k 14";
        let cache = "--no-cache";
        let spec_file = TempFile::new("roundtrip.json");
        let exported =
            run(&format!("export-spec {flags} --out {}", spec_file.as_str())).expect("export");
        assert!(exported.contains("wrote"), "{exported}");

        // Every rendered format must match across differing --jobs —
        // including text, whose trailing stats line only reports
        // plan-determined numbers (execution stats go to stderr).
        for format in ["json", "csv", "text"] {
            let direct = run(&format!("campaign {flags} {cache} --format {format} --jobs 2"))
                .expect("flag campaign");
            let via_spec =
                run(&format!("run {} {cache} --format {format} --jobs 1", spec_file.as_str()))
                    .expect("spec campaign");
            assert_eq!(via_spec, direct, "--format {format} must match byte for byte");
        }
    }

    #[test]
    fn exported_spec_is_a_lossless_spec_file() {
        let spec_file = TempFile::new("lossless.json");
        run(&format!(
            "export-spec --arch ref --topology bus+mc --mc-occupancy 4 --scenario sweep \
             --grid-cores 2,4 --iterations 80 --max-k 10 --name ngmp --out {}",
            spec_file.as_str()
        ))
        .expect("export");
        let text = std::fs::read_to_string(spec_file.as_str()).expect("read");
        let spec = ExperimentSpec::parse(&text).expect("parse");
        assert_eq!(spec.name, "ngmp");
        assert_eq!(spec.machine.num_cores, 4);
        assert!(spec.machine.mc().is_some(), "mc flags must survive export");
        assert_eq!(spec.to_text(), text, "the file is the canonical rendering");
    }

    #[test]
    fn run_reports_missing_file_bad_spec_and_missing_argument() {
        let e = run("run").expect_err("must fail");
        assert!(e.to_string().contains("rrb run <spec.json>"), "{e}");
        let e = run("run /nonexistent/spec.json").expect_err("must fail");
        assert!(e.to_string().contains("No such file"), "{e}");
        let bad = TempFile::new("bad.json");
        std::fs::write(&bad.0, "{\"version\": 1}").expect("write");
        let e = run(&format!("run {}", bad.as_str())).expect_err("must fail");
        assert!(e.to_string().contains("name"), "{e}");
        let e = run("run a.json b.json").expect_err("must fail");
        assert!(e.to_string().contains("b.json"), "{e}");
    }

    #[test]
    fn run_rejects_invalid_machine_specs_with_a_clear_error() {
        // A structurally valid file whose machine cannot exist (0 cores):
        // validation must catch it before any run is attempted.
        let grid = CampaignGrid::new(GridScenario::Naive, {
            let mut cfg = rrb_sim::MachineConfig::toy(4, 2);
            cfg.num_cores = 0;
            cfg
        });
        let file = TempFile::new("invalid-machine.json");
        std::fs::write(&file.0, ExperimentSpec::from_grid("bad", &grid).to_text()).expect("write");
        let e = run(&format!("run {}", file.as_str())).expect_err("must fail");
        assert!(e.to_string().contains("num_cores"), "{e}");
    }

    /// The checked-in example experiment file, resolved from the crate
    /// root so the test passes regardless of the runner's cwd.
    const NGMP_SPEC: &str =
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/experiments/ngmp_sweep.json");

    /// `rrb analyze` and `rrb verify` output on both checked-in specs,
    /// pinned byte for byte in `tests/golden/`.
    #[test]
    fn analyze_and_verify_output_matches_the_golden_files() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
        for (stem, spec) in [
            ("ngmp_sweep", "examples/experiments/ngmp_sweep.json"),
            ("ablation_arbiters", "crates/bench/specs/ablation_arbiters.json"),
        ] {
            for (verb, flags, suffix) in [
                ("analyze", "", "analyze.txt"),
                ("analyze", "--composed", "analyze-composed.txt"),
                ("analyze", "--format json", "analyze.ndjson"),
                ("verify", "", "verify.txt"),
                ("verify", "--format json", "verify.ndjson"),
            ] {
                let out = run(&format!("{verb} {root}/{spec} {flags}")).expect(verb);
                let path = format!("{golden}/{stem}.{suffix}");
                let want = std::fs::read_to_string(&path).expect("golden file");
                assert_eq!(out, want, "`rrb {verb} {spec} {flags}` drifted from {path}");
            }
        }
    }

    /// `rrb campaign --format json` for a small toy grid of every
    /// `--scenario` (plus a two-level derive grid and a two-arbiter one)
    /// is pinned byte for byte in `tests/golden/`; regenerate one with
    /// `rrb campaign <flags> --no-cache --format json > campaign.<stem>.json`.
    #[test]
    fn campaign_output_matches_the_golden_files() {
        let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
        let toy = "--arch toy --cores 4 --l-bus 2 --no-cache --format json --jobs 2";
        for (stem, flags) in [
            ("derive", "--scenario derive --max-k 14 --iterations 60"),
            (
                "derive-bus-mc",
                "--scenario derive --topology bus+mc --mc-occupancy 2 --max-k 14 --iterations 60",
            ),
            ("derive-arbiters", "--scenario derive --arbiters rr,fifo --max-k 14 --iterations 60"),
            ("naive", "--scenario naive --contenders load,store --iterations 80"),
            ("sweep", "--scenario sweep --accesses load,store --max-k 13 --iterations 60"),
            ("validate", "--scenario validate --grid-cores 3,4 --max-k 8 --iterations 60"),
        ] {
            let out = run(&format!("campaign {toy} {flags}")).expect("campaign");
            let path = format!("{golden}/campaign.{stem}.json");
            let want = std::fs::read_to_string(&path).expect("golden file");
            assert_eq!(out, want, "`rrb campaign {flags}` drifted from {path}");
        }
    }

    #[test]
    fn analyze_bounds_every_cell_of_the_example_spec() {
        let out = run(&format!("analyze {NGMP_SPEC}")).expect("analyze");
        // Three grid cells (cores 2, 3, 4) plus two workload cases, every
        // one with a finite static bound and none below the analytic truth.
        for cell in ["/rr/c2/", "/rr/c3/", "/rr/c4/", "canrdr-vs-rsk", "pntrch-vs-mixed"] {
            assert!(out.contains(cell), "missing {cell}:\n{out}");
        }
        assert!(out.contains("5 cells: 5 sound, 0 unbounded, 0 UNSOUND"), "{out}");
    }

    #[test]
    fn analyze_json_format_carries_the_soundness_fields() {
        let out = run(&format!("analyze {NGMP_SPEC} --format json")).expect("analyze");
        for key in ["\"static_total\"", "\"truth_total\"", "\"sound_vs_truth\":true"] {
            assert!(out.contains(key), "missing {key}:\n{out}");
        }
        // NDJSON: one compact object per line, one line per cell.
        assert_eq!(out.trim().lines().count(), 5, "{out}");
        assert!(out.trim().lines().all(|l| l.starts_with('{') && l.ends_with('}')), "{out}");
        let e = run(&format!("analyze {NGMP_SPEC} --format yaml")).expect_err("must fail");
        assert!(e.to_string().contains("text, json"), "{e}");
        let e = run("analyze").expect_err("must fail");
        assert!(e.to_string().contains("rrb analyze <spec.json>"), "{e}");
    }

    #[test]
    fn analyze_composed_renders_the_flow_columns() {
        let out = run(&format!("analyze {NGMP_SPEC} --composed")).expect("analyze");
        assert!(out.contains("flow(tot)"), "{out}");
        assert!(out.contains("slack"), "{out}");
        assert!(out.contains("provable slack"), "{out}");
        // The flow keys also ride along in the JSON rows.
        let json = run(&format!("analyze {NGMP_SPEC} --format json")).expect("analyze");
        for key in ["\"flow_total\"", "\"flow_bus\"", "\"flow_mc\"", "\"flow_slack\""] {
            assert!(json.contains(key), "missing {key}:\n{json}");
        }
    }

    #[test]
    fn analyze_check_runs_cross_checks_measured_delays() {
        let spec_file = TempFile::new("check-runs.json");
        run(&format!(
            "export-spec --arch toy --cores 4 --l-bus 2 --scenario sweep --max-k 8 \
             --iterations 50 --out {}",
            spec_file.as_str()
        ))
        .expect("export");
        let out = run(&format!("analyze {} --check-runs --no-cache", spec_file.as_str()))
            .expect("a sound analyzer must survive its own cross-check");
        assert!(out.contains("measured cross-check:"), "{out}");
        assert!(out.contains("0 violation(s)"), "{out}");
    }

    #[test]
    fn lint_accepts_the_example_spec() {
        let out = run(&format!("lint {NGMP_SPEC}")).expect("lint");
        assert!(out.contains("0 errors"), "{out}");
    }

    #[test]
    fn lint_rejects_a_broken_spec_with_a_dotted_path() {
        let grid = CampaignGrid::new(GridScenario::Derive, rrb_sim::MachineConfig::toy(4, 2));
        let mut spec = ExperimentSpec::from_grid("broken", &grid);
        let g = spec.grid.as_mut().expect("grid spec");
        g.cores.clear(); // dangling axis: the grid expands to nothing
        g.arbiters[0] = rrb_sim::ArbiterKind::Tdma { slot_cycles: 1 }; // slot < worst occupancy
        let file = TempFile::new("broken-spec.json");
        std::fs::write(&file.0, spec.to_text()).expect("write");
        let Err(CliError::Failed(msg)) = run(&format!("lint {}", file.as_str())) else {
            panic!("lint must fail with its findings as output");
        };
        assert!(msg.starts_with("error: spec field `grid.cores`"), "{msg}");
        assert!(msg.contains("spec field `grid.arbiters[0]`"), "{msg}");
        assert!(msg.contains("starve"), "{msg}");
        // The same file is refused by analyze's spec loading? No — analyze
        // bounds what the spec *would* run (nothing), so lint is the gate.
        let out = run(&format!("analyze {}", file.as_str())).expect("analyze");
        assert!(out.contains("0 cells"), "{out}");
    }

    #[test]
    fn lint_json_format_is_ndjson_with_dotted_paths() {
        let grid = CampaignGrid::new(GridScenario::Derive, rrb_sim::MachineConfig::toy(4, 2));
        let mut spec = ExperimentSpec::from_grid("broken", &grid);
        spec.grid.as_mut().expect("grid spec").cores.clear();
        let file = TempFile::new("broken-json-spec.json");
        std::fs::write(&file.0, spec.to_text()).expect("write");
        let Err(CliError::Failed(msg)) = run(&format!("lint {} --format json", file.as_str()))
        else {
            panic!("lint must fail with its findings as output");
        };
        let lines: Vec<_> =
            msg.lines().map(|l| rrb::Json::parse(l).expect("every line is JSON")).collect();
        assert_eq!(lines[0].get("severity"), Some(&rrb::Json::str("error")), "{msg}");
        assert_eq!(lines[0].get("path"), Some(&rrb::Json::str("grid.cores")), "{msg}");
        // With --out the same lines go to the file, not to stdout.
        let out = TempFile::new("broken-json-spec.ndjson");
        let Err(CliError::Failed(note)) =
            run(&format!("lint {} --format json --out {}", file.as_str(), out.as_str()))
        else {
            panic!("lint must fail with the --out note as output");
        };
        assert_eq!(std::fs::read_to_string(&out.0).expect("findings file"), msg);
        assert_eq!(note, format!("wrote {} bytes to {}\n", msg.len(), out.as_str()));
        let e = run(&format!("lint {} --format yaml", file.as_str())).expect_err("must fail");
        assert!(e.to_string().contains("text, json"), "{e}");
    }

    #[test]
    fn verify_certifies_the_toy_grid_and_replays_witnesses() {
        let spec_file = TempFile::new("verify-spec.json");
        run(&format!(
            "export-spec --arch toy --cores 4 --l-bus 2 --scenario derive \
             --arbiters rr,fp,fifo --grid-cores 2,4 --max-k 8 --iterations 40 --out {}",
            spec_file.as_str()
        ))
        .expect("export");
        let out = run(&format!("verify {}", spec_file.as_str())).expect("verify");
        assert!(out.contains("6 cells: 6 exact, 0 unbounded, 0 UNSOUND"), "{out}");
        let json =
            run(&format!("verify {} --format json", spec_file.as_str())).expect("verify json");
        assert!(json.contains("\"tightness\""), "{json}");
        assert!(json.contains("\"sound\":true"), "{json}");
        assert_eq!(json.trim().lines().count(), 6, "{json}");
    }

    #[test]
    fn verify_check_runs_replays_witnesses_within_the_exact_bound() {
        let spec_file = TempFile::new("verify-replay.json");
        run(&format!(
            "export-spec --arch toy --cores 4 --l-bus 2 --scenario derive \
             --arbiters rr,fifo --grid-cores 4 --max-k 8 --iterations 40 --out {}",
            spec_file.as_str()
        ))
        .expect("export");
        let out = run(&format!("verify {} --check-runs --iterations 40", spec_file.as_str()))
            .expect("witness replay must stay within the exact bound");
        assert!(out.contains("witness replay"), "{out}");
    }

    #[test]
    fn gamma_table_matches_model() {
        let out = run("gamma --ubd 6 --max-delta 7").expect("gamma");
        assert!(out.contains("    0      6"));
        assert!(out.contains("    6      0"));
        assert!(out.contains("    7      5"));
    }

    /// The value of metric `name` in a text-format campaign cell.
    fn metric(out: &str, name: &str) -> u64 {
        out.lines()
            .find_map(|l| l.trim().strip_prefix(name)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing:\n{out}"))
    }

    #[test]
    fn derive_on_toy_bus_reports_six() {
        let out = run("campaign --scenario derive --arch toy --cores 4 --l-bus 2 --max-k 20 \
             --iterations 100 --no-cache")
        .expect("derive");
        assert!(out.contains("ubd_m = 6 (period 6"), "{out}");
        assert_eq!(metric(&out, "ubd_m"), 6, "{out}");
    }

    #[test]
    fn derive_on_two_level_topology_reports_breakdown_that_sums() {
        let out = run("campaign --scenario derive --arch toy --cores 4 --l-bus 2 \
             --topology bus+mc --mc-occupancy 2 --max-k 20 --iterations 100 --no-cache")
        .expect("derive");
        let (bus, mc, total) =
            (metric(&out, "ubd_bus"), metric(&out, "ubd_mc"), metric(&out, "ubd_total"));
        assert_eq!(bus + mc, total, "the per-resource shares sum to the total:\n{out}");
        assert_eq!(bus, 6, "the bus share is the saw-tooth bound:\n{out}");
        assert_eq!(metric(&out, "ubd_m"), 6, "{out}");
    }

    #[test]
    fn mc_flags_imply_two_level_topology() {
        // --mc-occupancy without --topology must not be silently ignored:
        // it implies bus+mc, so the per-resource metrics appear.
        let out = run("campaign --scenario derive --arch toy --cores 4 --l-bus 2 \
             --mc-occupancy 2 --max-k 20 --iterations 100 --no-cache")
        .expect("derive");
        assert!(out.contains("/bus+mc"), "{out}");
        assert!(out.contains("ubd_mc"), "{out}");
        // ...and contradicting them with an explicit single-bus errors.
        let e = run("export-spec --arch toy --topology single-bus --mc-occupancy 2")
            .expect_err("must fail");
        assert!(e.to_string().contains("bus+mc when the mc flags are given"), "{e}");
    }

    #[test]
    fn derive_rejects_bad_topology_and_mc_arbiter() {
        let e = run("campaign --arch toy --topology mesh --no-cache").expect_err("must fail");
        assert!(e.to_string().contains("single-bus, bus+mc"), "{e}");
        let e = run("export-spec --arch toy --topology bus+mc --mc-arbiter cdma")
            .expect_err("must fail");
        assert!(e.to_string().contains("tdma:<slot>"), "{e}");
    }

    #[test]
    fn campaign_on_two_level_topology_emits_per_resource_metrics() {
        let out = run("campaign --arch toy --cores 4 --l-bus 2 --topology bus+mc \
             --mc-occupancy 2 --scenario derive --iterations 60 --max-k 14 --jobs 2 --no-cache")
        .expect("campaign");
        assert!(out.contains("/bus+mc"), "scenario names carry the topology: {out}");
        assert!(out.contains("ubd_bus"), "{out}");
        assert!(out.contains("ubd_mc"), "{out}");
        assert!(out.contains("ubd_total"), "{out}");
    }

    #[test]
    fn naive_on_toy_bus_underestimates() {
        let out = run("campaign --scenario naive --arch toy --cores 4 --l-bus 2 --iterations 200 \
             --no-cache")
        .expect("naive");
        assert!(out.contains("(det/nr 6, max gamma 5)"), "{out}");
        assert_eq!(metric(&out, "ubd_m_max_gamma"), 5, "{out}");
    }

    #[test]
    fn bad_arch_is_rejected() {
        for line in ["campaign --arch sparc --no-cache", "export-spec --arch sparc"] {
            let e = run(line).expect_err("must fail");
            assert!(e.to_string().contains("ref, var, toy"), "{line}: {e}");
        }
    }

    /// A bad access token must be reported against the flag it came from.
    fn assert_bad_access_names(flag: &str) {
        let e = run(&format!("export-spec --arch toy --{flag} lod")).expect_err("must fail");
        assert_eq!(
            e.to_string(),
            format!("--{flag}: unknown value `lod` (expected one of: load, store)")
        );
    }

    #[test]
    fn bad_accesses_token_names_accesses() {
        assert_bad_access_names("accesses");
    }

    #[test]
    fn bad_contenders_token_names_contenders() {
        assert_bad_access_names("contenders");
    }

    #[test]
    fn bad_kernel_is_rejected() {
        // The error names the flag and lists every kernel `AutobenchKernel` knows.
        let e = run("audit --arch toy --kernel nosuch").expect_err("must fail");
        assert_eq!(
            e.to_string(),
            "--kernel: unknown value `nosuch` (expected one of: a2time, aifftr, aifirf, aiifft, \
             basefp, bitmnp, cacheb, canrdr, idctrn, iirflt, matrix, pntrch, puwmod, rspeed, \
             tblook, ttsprk)"
        );
        for kernel in AutobenchKernel::all() {
            assert!(e.to_string().contains(&format!(" {kernel}")), "{kernel}: {e}");
        }
    }

    #[test]
    fn audit_toy_kernel_bound_holds() {
        let out =
            run("audit --arch toy --cores 4 --l-bus 2 --max-k 20 --iterations 80 --kernel rspeed")
                .expect("audit");
        assert!(out.contains("bound holds"), "{out}");
    }
}
