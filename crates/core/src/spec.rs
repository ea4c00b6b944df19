//! Experiments as data: the declarative, serialisable [`ExperimentSpec`].
//!
//! The paper's methodology is a *campaign of parameterised runs* —
//! kernels × arbiters × topologies × core counts — and before this
//! module every such campaign could only be described in Rust code.
//! An `ExperimentSpec` makes the whole experiment a value:
//!
//! * a **machine** section mirroring [`MachineConfig`] field by field,
//!   topology included, so an experiment carries its platform instead
//!   of naming a preset that may change meaning between versions;
//! * an optional **grid** section, a [`GridSpec`]: the scenario kind
//!   and sweep axes, declared once and shared with [`CampaignGrid`]
//!   (which pairs them with a base machine). Cells expand straight from
//!   the section against the machine section;
//! * a list of explicit **workload** cases, each a scua
//!   [`KernelSpec`] against declarative contender kernels
//!   ([`WorkloadCase`], executed by [`WorkloadScenario`]).
//!
//! Specs round-trip losslessly through the [`Json`] document model:
//! `ExperimentSpec → Json → text → ExperimentSpec` is the identity, and
//! rendering is deterministic, so a spec file is a stable artifact —
//! [`ExperimentSpec::spec_hash`] digests the canonical rendering into
//! the cache key for campaign-level reuse. Parsing is strict: unknown,
//! duplicate or missing keys are rejected with a dotted field path
//! (`machine.dl1.ways`, `workloads[0].scua.kind`), so a typo in an
//! analyst's file is an error, not a silently ignored knob.
//!
//! Each key is declared once. Every config struct has one field table
//! (`spec_fields!`: its keys in file order) and [`KernelSpec`] one
//! table of `kind` tags (`kernel_kinds!`); the crate-private `Schema`
//! trait generated from them renders a value, reads it back strictly
//! and lists its paths ([`ExperimentSpec::field_paths`]), so the writer,
//! the parser and the path names `rrb lint` reports cannot drift apart.
//! The one absent-key default is `machine.period_skip = true`.
//!
//! ```
//! use rrb::spec::ExperimentSpec;
//! use rrb::campaign::{CampaignGrid, GridScenario};
//! use rrb_sim::MachineConfig;
//!
//! let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2));
//! let spec = ExperimentSpec::from_grid("toy-derive", &grid);
//! let text = spec.to_text();                        // the .json file
//! let back = ExperimentSpec::parse(&text).unwrap(); // rrb run <file>
//! assert_eq!(back, spec);
//! let result = back.to_campaign(1).run();
//! assert_eq!(result.reports[0].metric_u64("ubd_m"), Some(6));
//! ```

use crate::campaign::{Campaign, CampaignGrid, GridScenario, RunSpec};
use crate::json::{fnv1a_64, Json, JsonParseError};
use crate::methodology::MethodologyConfig;
use crate::scenario::{MetricValue, RunOutcome, Scenario, ScenarioError, ScenarioReport};
use rrb_kernels::{AccessKind, AutobenchKernel, KernelSpec};
use rrb_sim::{
    ArbiterKind, BusConfig, CacheConfig, DramConfig, L2Config, MachineConfig, McQueueConfig,
    Replacement, SimError, StoreBufferConfig, Topology,
};
use std::error::Error;
use std::fmt;
use std::str::FromStr;

/// The schema version this module reads and writes.
pub const SPEC_VERSION: u64 = 1;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why an experiment file could not be read or used.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The spec file could not be read.
    File {
        /// The path that failed.
        path: String,
        /// The I/O error text.
        error: String,
    },
    /// The text is not valid JSON.
    Parse(JsonParseError),
    /// A field is missing, has the wrong type, carries an unparseable
    /// token, or is unknown to the schema.
    Field {
        /// Dotted path of the offending field (e.g. `machine.dl1.ways`).
        path: String,
        /// What was wrong.
        problem: String,
    },
    /// The spec parsed but cannot describe a runnable experiment.
    Invalid(String),
}

impl SpecError {
    fn field(path: impl Into<String>, problem: impl Into<String>) -> Self {
        SpecError::Field { path: path.into(), problem: problem.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::File { path, error } => {
                write!(f, "cannot read spec file `{path}`: {error}")
            }
            SpecError::Parse(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Field { path, problem } => write!(f, "spec field `{path}`: {problem}"),
            SpecError::Invalid(detail) => write!(f, "invalid experiment spec: {detail}"),
        }
    }
}

impl Error for SpecError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SpecError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonParseError> for SpecError {
    fn from(e: JsonParseError) -> Self {
        SpecError::Parse(e)
    }
}

// ---------------------------------------------------------------------
// The schema: one field table per type
// ---------------------------------------------------------------------

/// One type's part of the spec schema: how a value renders, how it
/// reads back strictly, and which field paths lie below it. The leaf
/// types, the canonical tokens, `Option` (`null` is `None`) and `Vec`
/// implement it by hand; every config struct and [`KernelSpec`] get it
/// from their field tables below, so each key is declared once.
pub(crate) trait Schema: Sized {
    /// The value as JSON (deterministic key order).
    fn render(&self) -> Json;

    /// Reads a value back, naming `path` in errors.
    fn read(v: &Json, path: &str) -> Result<Self, SpecError>;

    /// Appends every field path below `path`, with `[]` for an index.
    fn paths(_path: &str, _out: &mut Vec<String>) {}
}

/// The path of `key` inside the object at `path` (the root path is
/// empty, so top-level keys carry no leading dot).
fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn get_str<'a>(v: &'a Json, path: &str) -> Result<&'a str, SpecError> {
    v.as_str().ok_or_else(|| SpecError::field(path, "expected a string"))
}

impl Schema for u64 {
    fn render(&self) -> Json {
        Json::U64(*self)
    }

    fn read(v: &Json, path: &str) -> Result<Self, SpecError> {
        v.as_u64().ok_or_else(|| SpecError::field(path, "expected an unsigned integer"))
    }
}

/// Unsigned integers narrower than the JSON `u64` class.
macro_rules! narrow_unsigned {
    ($($ty:ty: $overflow:literal),*) => {$(
        impl Schema for $ty {
            fn render(&self) -> Json {
                Json::U64(*self as u64)
            }

            fn read(v: &Json, path: &str) -> Result<Self, SpecError> {
                <$ty>::try_from(u64::read(v, path)?)
                    .map_err(|_| SpecError::field(path, $overflow))
            }
        }
    )*};
}

narrow_unsigned!(u32: "value does not fit in 32 bits", usize: "value does not fit in usize");

impl Schema for f64 {
    fn render(&self) -> Json {
        Json::F64(*self)
    }

    fn read(v: &Json, path: &str) -> Result<Self, SpecError> {
        v.as_f64().ok_or_else(|| SpecError::field(path, "expected a number"))
    }
}

impl Schema for bool {
    fn render(&self) -> Json {
        Json::Bool(*self)
    }

    fn read(v: &Json, path: &str) -> Result<Self, SpecError> {
        v.as_bool().ok_or_else(|| SpecError::field(path, "expected true or false"))
    }
}

impl Schema for String {
    fn render(&self) -> Json {
        Json::str(self.clone())
    }

    fn read(v: &Json, path: &str) -> Result<Self, SpecError> {
        get_str(v, path).map(str::to_string)
    }
}

/// Canonical-token types: written as their `Display` form and read
/// through their own `FromStr`, echoing its error message.
macro_rules! token_schema {
    ($($ty:ty),*) => {$(
        impl Schema for $ty {
            fn render(&self) -> Json {
                Json::str(self.to_string())
            }

            fn read(v: &Json, path: &str) -> Result<Self, SpecError> {
                get_str(v, path)?
                    .parse()
                    .map_err(|e: <$ty as FromStr>::Err| SpecError::field(path, e.to_string()))
            }
        }
    )*};
}

token_schema!(ArbiterKind, AccessKind, AutobenchKernel, Replacement, GridScenario);

impl<T: Schema> Schema for Option<T> {
    fn render(&self) -> Json {
        Json::option(self.as_ref(), T::render)
    }

    fn read(v: &Json, path: &str) -> Result<Self, SpecError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::read(v, path).map(Some)
        }
    }

    fn paths(path: &str, out: &mut Vec<String>) {
        T::paths(path, out);
    }
}

impl<T: Schema> Schema for Vec<T> {
    fn render(&self) -> Json {
        Json::Arr(self.iter().map(T::render).collect())
    }

    fn read(v: &Json, path: &str) -> Result<Self, SpecError> {
        let items = v.as_array().ok_or_else(|| SpecError::field(path, "expected an array"))?;
        items.iter().enumerate().map(|(i, x)| T::read(x, &format!("{path}[{i}]"))).collect()
    }

    fn paths(path: &str, out: &mut Vec<String>) {
        let item = format!("{path}[]");
        out.push(item.clone());
        T::paths(&item, out);
    }
}

/// A strict reader over one JSON object: every schema field must be
/// taken exactly once, and leftover keys are an error, so a typo in an
/// analyst's file is an error, not a silently ignored knob.
struct Fields<'a> {
    path: &'a str,
    pairs: &'a [(String, Json)],
    taken: Vec<bool>,
}

impl<'a> Fields<'a> {
    fn new(v: &'a Json, path: &'a str) -> Result<Self, SpecError> {
        let pairs =
            v.as_object().ok_or_else(|| SpecError::field(path, "expected a JSON object"))?;
        Ok(Fields { path, pairs, taken: vec![false; pairs.len()] })
    }

    /// Reads `key`; an absent key takes `default`, or is an error
    /// without one.
    fn take<T: Schema>(&mut self, key: &str, default: Option<T>) -> Result<T, SpecError> {
        let path = join(self.path, key);
        match self.pairs.iter().position(|(k, _)| k == key) {
            Some(i) => {
                self.taken[i] = true;
                T::read(&self.pairs[i].1, &path)
            }
            None => default.ok_or_else(|| SpecError::field(path, "missing required field")),
        }
    }

    fn finish(self) -> Result<(), SpecError> {
        match self.pairs.iter().zip(&self.taken).find(|(_, &taken)| !taken) {
            Some(((k, _), _)) => Err(SpecError::field(
                join(self.path, k),
                "unknown field (not part of the spec schema)",
            )),
            None => Ok(()),
        }
    }
}

/// Lists the path of `key` and every path below it; `_field` only
/// names the field's type.
fn list_field<S, T: Schema>(path: &str, key: &str, _field: fn(&S) -> &T, out: &mut Vec<String>) {
    let path = join(path, key);
    out.push(path.clone());
    T::paths(&path, out);
}

/// Declares a struct's field table: its keys in file order, each
/// written and read through the field type's [`Schema`]. `key = value`
/// gives an absent key that value; a leading `[key: T]` is a key with
/// no struct field, rendered and checked by the unit type `T`.
macro_rules! spec_fields {
    ($ty:ident $([$($pin:ident: $pty:ident),*])? {
        $($key:ident $(= $default:expr)?),* $(,)?
    }) => {
        impl Schema for $ty {
            fn render(&self) -> Json {
                Json::obj(vec![
                    $($((stringify!($pin), $pty.render()),)*)?
                    $((stringify!($key), self.$key.render()),)*
                ])
            }

            fn read(v: &Json, path: &str) -> Result<Self, SpecError> {
                let mut f = Fields::new(v, path)?;
                $($(f.take::<$pty>(stringify!($pin), None)?;)*)?
                let value = $ty {
                    $($key: f.take(stringify!($key), None $(.or(Some($default)))?)?,)*
                };
                f.finish()?;
                Ok(value)
            }

            fn paths(path: &str, out: &mut Vec<String>) {
                $($(out.push(join(path, stringify!($pin)));)*)?
                $(list_field(path, stringify!($key), |s: &$ty| &s.$key, out);)*
            }
        }
    };
}

/// Declares [`KernelSpec`]'s table: each variant's `kind` tag and its
/// keys in file order.
macro_rules! kernel_kinds {
    ($($variant:ident $tag:literal { $($key:ident),* }),* $(,)?) => {
        impl Schema for KernelSpec {
            fn render(&self) -> Json {
                match *self {
                    $(KernelSpec::$variant { $($key),* } => Json::obj(vec![
                        ("kind", Json::str($tag)),
                        $((stringify!($key), $key.render()),)*
                    ]),)*
                }
            }

            fn read(v: &Json, path: &str) -> Result<Self, SpecError> {
                let mut f = Fields::new(v, path)?;
                let kind: String = f.take("kind", None)?;
                let kernel = match kind.as_str() {
                    $($tag => KernelSpec::$variant { $($key: f.take(stringify!($key), None)?),* },)*
                    other => {
                        return Err(SpecError::field(
                            join(path, "kind"),
                            format!(
                                "unknown kernel kind `{other}` (expected one of: {})",
                                [$($tag),*].join(", ")
                            ),
                        ))
                    }
                };
                f.finish()?;
                Ok(kernel)
            }

            /// Each key once, though several variants share it.
            fn paths(path: &str, out: &mut Vec<String>) {
                for key in ["kind", $($(stringify!($key),)*)*] {
                    let key = join(path, key);
                    if !out.contains(&key) {
                        out.push(key);
                    }
                }
            }
        }
    };
}

spec_fields! { MachineConfig {
    num_cores, dl1, il1, l2, topology, dram, store_buffer, nop_latency, branch_latency,
    max_cycles, record_requests, record_trace, quiescence_skip,
    // Added after specs were already in the wild: absent reads as `true`,
    // the preset default, so older files keep their (now faster, still
    // cycle-identical) meaning.
    period_skip = true,
} }
spec_fields! { CacheConfig { size_bytes, ways, line_bytes, latency, replacement } }
spec_fields! { L2Config { size_bytes, ways, line_bytes, replacement } }
spec_fields! { Topology { bus, mc } }
spec_fields! { BusConfig { l2_hit_occupancy, transfer_occupancy, store_occupancy, arbiter } }
spec_fields! { McQueueConfig { service_occupancy, arbiter } }
spec_fields! { DramConfig { banks, row_bytes, t_rcd, t_rp, t_cl, burst, controller_overhead } }
spec_fields! { StoreBufferConfig { entries } }
spec_fields! { MethodologyConfig {
    access, contender_access, max_k, iterations, calibration_iterations, tolerance,
    min_bus_utilization,
} }

kernel_kinds! {
    Rsk "rsk" { access },
    RskNop "rsk-nop" { access, nops, iterations },
    Nop "nop" { iterations },
    Eembc "eembc" { kernel, seed, iterations },
    PointerChase "pointer-chase" { lines, seed },
    Mixed "mixed" { iterations },
    Capacity "capacity" { access, factor },
    L2Miss "l2-miss" {},
}

// ---------------------------------------------------------------------
// Grid and workload sections
// ---------------------------------------------------------------------

/// The scenario kind and sweep axes of a parameter grid — the one
/// declaration of the axes. It is the grid section of an
/// [`ExperimentSpec`] (whose machine section is the base machine) and
/// the `axes` of a [`CampaignGrid`]; [`GridSpec::new`],
/// [`GridSpec::cells`] and [`GridSpec::scenarios`] live with the rest of
/// the grid code in [`crate::campaign`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Which scenario each grid cell instantiates.
    pub scenario: GridScenario,
    /// Arbitration policies to sweep.
    pub arbiters: Vec<ArbiterKind>,
    /// Core counts to sweep.
    pub cores: Vec<usize>,
    /// Scua access kinds to sweep.
    pub accesses: Vec<AccessKind>,
    /// Contender access kinds to sweep.
    pub contender_accesses: Vec<AccessKind>,
    /// Per-run iteration counts to sweep.
    pub iterations: Vec<u64>,
    /// In-cell nop-padding ceiling.
    pub max_k: usize,
    /// Methodology template for `derive` cells (access kinds, iterations
    /// and `max_k` are overridden per cell from the axes).
    pub methodology: MethodologyConfig,
}

spec_fields! { GridSpec {
    scenario, arbiters, cores, accesses, contender_accesses, iterations, max_k, methodology,
} }

/// One explicit workload case: a finite scua kernel observed against
/// declarative contender kernels on the spec's machine.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadCase {
    /// Case name (the scenario name in campaign records).
    pub name: String,
    /// The observed kernel, on core 0. Must be finite.
    pub scua: KernelSpec,
    /// Contender kernels for cores `1..=contenders.len()`.
    pub contenders: Vec<KernelSpec>,
}

impl WorkloadCase {
    /// The workload preconditions shared by up-front spec validation and
    /// plan-time scenario checks (one definition, so the two can never
    /// drift): the scua must be finite, the contenders must fit the
    /// machine's non-scua cores, and every kernel must satisfy its
    /// machine-dependent preconditions.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem.
    pub fn check(&self, machine: &MachineConfig) -> Result<(), String> {
        if !self.scua.is_finite() {
            return Err(format!(
                "scua kernel `{}` never terminates, so it has no execution time",
                self.scua
            ));
        }
        let non_scua_cores = machine.num_cores.saturating_sub(1);
        if self.contenders.len() > non_scua_cores {
            return Err(format!(
                "{} contender kernel(s) but the machine has only {non_scua_cores} \
                 non-scua core(s)",
                self.contenders.len(),
            ));
        }
        for kernel in std::iter::once(&self.scua).chain(&self.contenders) {
            kernel.validate(machine).map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

spec_fields! { WorkloadCase { name, scua, contenders } }

// ---------------------------------------------------------------------
// WorkloadScenario
// ---------------------------------------------------------------------

/// A [`Scenario`] materialised from one [`WorkloadCase`]: an isolated
/// run of the scua plus a contended run against the case's kernels,
/// analysed into slowdown and contention metrics. This is the execution
/// path for the workload section of experiment files — kernels stay
/// declarative until [`Scenario::plan`] derives the programs.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadScenario {
    /// The platform under test.
    pub machine: MachineConfig,
    /// The declarative workload (name, scua, contenders).
    pub case: WorkloadCase,
}

impl WorkloadScenario {
    /// A scenario for `case` on `machine`.
    pub fn new(machine: MachineConfig, case: &WorkloadCase) -> Self {
        WorkloadScenario { machine, case: case.clone() }
    }
}

impl Scenario for WorkloadScenario {
    fn name(&self) -> String {
        self.case.name.clone()
    }

    fn plan(&self) -> Result<Vec<RunSpec>, ScenarioError> {
        self.machine.validate().map_err(SimError::from)?;
        self.case.check(&self.machine).map_err(ScenarioError::Analysis)?;
        Ok(vec![
            RunSpec::from_kernels("isolated", self.machine.clone(), &self.case.scua, &[]),
            RunSpec::from_kernels(
                "contended",
                self.machine.clone(),
                &self.case.scua,
                &self.case.contenders,
            ),
        ])
    }

    fn analyze(&self, outcomes: &[RunOutcome]) -> ScenarioReport {
        let measurements: Result<Vec<_>, _> =
            outcomes.iter().map(RunOutcome::measurement).collect();
        match measurements.as_deref() {
            Ok([isolated, contended]) => {
                let slowdown = contended.execution_time.saturating_sub(isolated.execution_time);
                ScenarioReport::success(
                    self.name(),
                    format!(
                        "{} vs {} contender(s): slowdown {} cycles",
                        self.case.scua,
                        self.case.contenders.len(),
                        slowdown
                    ),
                )
                .with("isolated_time", MetricValue::U64(isolated.execution_time))
                .with("contended_time", MetricValue::U64(contended.execution_time))
                .with("slowdown", MetricValue::U64(slowdown))
                .with("scua_requests", MetricValue::U64(contended.bus_requests))
                .with("max_gamma", MetricValue::U64(contended.max_gamma().unwrap_or(0)))
                .with("mode_gamma", MetricValue::U64(contended.mode_gamma().unwrap_or(0)))
                .with("bus_utilization", MetricValue::F64(contended.bus_utilization))
            }
            Ok(_) => ScenarioReport::failure(self.name(), "plan produced an unexpected run count"),
            Err(e) => ScenarioReport::failure(self.name(), e),
        }
    }
}

// ---------------------------------------------------------------------
// ExperimentSpec
// ---------------------------------------------------------------------

/// A fully declarative, serialisable description of a campaign.
///
/// See the [module docs](self) for the shape and guarantees, and
/// `examples/experiments/` for checked-in spec files.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Experiment name (documentation; not part of campaign output).
    pub name: String,
    /// The base machine every scenario starts from.
    pub machine: MachineConfig,
    /// The parameter-grid section, if any.
    pub grid: Option<GridSpec>,
    /// Explicit workload cases, run after the grid cells.
    pub workloads: Vec<WorkloadCase>,
}

impl ExperimentSpec {
    /// Captures a [`CampaignGrid`] as a spec — the exact inverse of
    /// [`ExperimentSpec::to_grid`], so flag-driven campaigns can be
    /// exported and re-run from the file with byte-identical output.
    pub fn from_grid(name: impl Into<String>, grid: &CampaignGrid) -> Self {
        let CampaignGrid { base, axes } = grid.clone();
        ExperimentSpec { name: name.into(), machine: base, grid: Some(axes), workloads: Vec::new() }
    }

    /// Reassembles the [`CampaignGrid`] of the grid section, if present.
    pub fn to_grid(&self) -> Option<CampaignGrid> {
        let axes = self.grid.clone()?;
        Some(CampaignGrid { base: self.machine.clone(), axes })
    }

    /// Expands the spec into scenarios: grid cells (row-major, as
    /// [`GridSpec::scenarios`]) followed by one [`WorkloadScenario`]
    /// per workload case.
    pub fn scenarios(&self) -> Vec<Box<dyn Scenario + Send + Sync>> {
        let mut out = self.grid.as_ref().map(|g| g.scenarios(&self.machine)).unwrap_or_default();
        for case in &self.workloads {
            out.push(Box::new(WorkloadScenario::new(self.machine.clone(), case)));
        }
        out
    }

    /// A campaign builder pre-loaded with every scenario of this spec,
    /// over `jobs` worker threads — the single expansion path shared by
    /// [`ExperimentSpec::to_campaign`] and callers that still need to
    /// attach a result store or other builder options.
    pub fn to_campaign_builder(&self, jobs: usize) -> crate::campaign::CampaignBuilder {
        let mut builder = Campaign::builder().jobs(jobs);
        for scenario in self.scenarios() {
            builder = builder.boxed(scenario);
        }
        builder
    }

    /// Builds the runnable campaign over `jobs` worker threads. The
    /// output is byte-identical for every `jobs` value.
    pub fn to_campaign(&self, jobs: usize) -> Campaign {
        self.to_campaign_builder(jobs).build()
    }

    /// Checks that the spec describes a runnable experiment: the machine
    /// validates, workload scuas are finite, and workload kernels satisfy
    /// their machine-dependent preconditions. Grid cells validate
    /// per-cell at plan time (a bad cell becomes an error record, not a
    /// dead campaign).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] describing the first problem.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.machine.validate().map_err(|e| SpecError::Invalid(format!("machine: {e}")))?;
        if self.grid.is_none() && self.workloads.is_empty() {
            return Err(SpecError::Invalid(String::from(
                "the spec has neither a grid section nor workload cases, so there is \
                 nothing to run",
            )));
        }
        for case in &self.workloads {
            case.check(&self.machine)
                .map_err(|msg| SpecError::Invalid(format!("workload `{}`: {msg}", case.name)))?;
        }
        Ok(())
    }

    /// The spec as a JSON value (deterministic key order).
    pub fn to_json(&self) -> Json {
        self.render()
    }

    /// The spec as pretty-printed JSON text — the on-disk file format.
    /// Deterministic: equal specs render byte-identically.
    pub fn to_text(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Reconstructs a spec from its JSON value.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Field`] naming the offending field path.
    pub fn from_json(v: &Json) -> Result<Self, SpecError> {
        Self::read(v, "")
    }

    /// Every dotted field path of the schema, parents before children,
    /// with `[]` for any array index (`workloads[].contenders[].kind`).
    /// Error and lint paths are these with the indices filled in.
    pub fn field_paths() -> Vec<String> {
        let mut out = Vec::new();
        Self::paths("", &mut out);
        out
    }

    /// Parses a spec from JSON text (the inverse of
    /// [`ExperimentSpec::to_text`]).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Parse`] for malformed JSON or
    /// [`SpecError::Field`] for schema violations.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }

    /// Reads, parses, **and validates** an experiment file — the one
    /// loading path every consumer (CLI, examples, bench bins) shares,
    /// so no call site can forget the validation step.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::File`] naming the path on read failures, and
    /// the parse/validation errors of [`ExperimentSpec::parse`] and
    /// [`ExperimentSpec::validate`] otherwise.
    pub fn from_file(path: impl AsRef<std::path::Path>) -> Result<Self, SpecError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| SpecError::File {
            path: path.display().to_string(),
            error: e.to_string(),
        })?;
        let spec = Self::parse(&text)?;
        spec.validate()?;
        Ok(spec)
    }

    /// A stable 64-bit FNV-1a digest of the canonical (compact) spec
    /// rendering. Equal specs hash equally on every platform, so the
    /// hash can key caches of campaign outputs.
    pub fn spec_hash(&self) -> u64 {
        fnv1a_64(self.to_json().render_compact().as_bytes())
    }
}

/// The `version` key: renders [`SPEC_VERSION`] and reads only that.
struct Version;

impl Schema for Version {
    fn render(&self) -> Json {
        Json::U64(SPEC_VERSION)
    }

    fn read(v: &Json, path: &str) -> Result<Self, SpecError> {
        match u64::read(v, path)? {
            SPEC_VERSION => Ok(Version),
            version => Err(SpecError::field(
                path,
                format!("unsupported spec version {version} (this build reads {SPEC_VERSION})"),
            )),
        }
    }
}

spec_fields! { ExperimentSpec [version: Version] { name, machine, grid, workloads } }

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::GridScenario;

    fn toy_spec() -> ExperimentSpec {
        let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
            .arbiters(vec![ArbiterKind::RoundRobin, ArbiterKind::Tdma { slot_cycles: 4 }])
            .iterations(vec![60, 80]);
        let mut spec = ExperimentSpec::from_grid("toy", &grid);
        spec.workloads.push(WorkloadCase {
            name: String::from("pntrch-vs-rsk"),
            scua: KernelSpec::Eembc {
                kernel: AutobenchKernel::Pntrch,
                seed: 7,
                iterations: Some(30),
            },
            contenders: vec![
                KernelSpec::Rsk { access: AccessKind::Load },
                KernelSpec::Mixed { iterations: None },
            ],
        });
        spec
    }

    #[test]
    fn spec_round_trips_through_text() {
        let spec = toy_spec();
        let text = spec.to_text();
        let back = ExperimentSpec::parse(&text).expect("parse");
        assert_eq!(back, spec);
        assert_eq!(back.to_text(), text, "rendering is deterministic");
        assert_eq!(back.spec_hash(), spec.spec_hash());
    }

    #[test]
    fn machine_spec_round_trips_every_preset() {
        for cfg in [
            MachineConfig::ngmp_ref(),
            MachineConfig::ngmp_var(),
            MachineConfig::ngmp_two_level(),
            MachineConfig::toy(3, 5),
        ] {
            let back = MachineConfig::read(&cfg.render(), "machine").expect("round trip");
            assert_eq!(back, cfg);
        }
    }

    #[test]
    fn grid_and_spec_convert_losslessly() {
        let grid = CampaignGrid::new(GridScenario::Sweep, MachineConfig::ngmp_two_level())
            .cores(vec![2, 4])
            .accesses(vec![AccessKind::Load, AccessKind::Store]);
        let spec = ExperimentSpec::from_grid("x", &grid);
        assert_eq!(spec.to_grid().expect("grid"), grid);
    }

    #[test]
    fn spec_campaign_matches_flag_style_campaign() {
        let grid = CampaignGrid::new(GridScenario::Naive, MachineConfig::toy(4, 2))
            .contender_accesses(vec![AccessKind::Load, AccessKind::Store]);
        let direct = Campaign::builder().grid(&grid).build().run();
        let spec = ExperimentSpec::from_grid("x", &grid);
        let reparsed = ExperimentSpec::parse(&spec.to_text()).expect("parse");
        let via_spec = reparsed.to_campaign(2).run();
        assert_eq!(via_spec.to_json(), direct.to_json());
        assert_eq!(via_spec.to_csv(), direct.to_csv());
    }

    #[test]
    fn workload_scenario_measures_a_slowdown() {
        let mut spec = toy_spec();
        spec.grid = None;
        spec.validate().expect("valid");
        let result = spec.to_campaign(1).run();
        assert_eq!(result.reports.len(), 1);
        let report = &result.reports[0];
        assert!(report.is_ok(), "{report:?}");
        assert_eq!(report.scenario, "pntrch-vs-rsk");
        let isolated = report.metric_u64("isolated_time").expect("isolated_time");
        let contended = report.metric_u64("contended_time").expect("contended_time");
        assert!(contended > isolated);
        assert_eq!(
            report.metric_u64("slowdown"),
            Some(contended - isolated),
            "slowdown is the difference"
        );
    }

    #[test]
    fn endless_scua_and_overfull_workloads_fail_validation() {
        let mut spec = toy_spec();
        spec.workloads[0].scua = KernelSpec::Rsk { access: AccessKind::Load };
        let e = spec.validate().expect_err("endless scua");
        assert!(e.to_string().contains("never terminates"), "{e}");

        let mut spec = toy_spec();
        spec.workloads[0].contenders = vec![KernelSpec::Rsk { access: AccessKind::Load }; 9];
        let e = spec.validate().expect_err("too many contenders");
        assert!(e.to_string().contains("non-scua"), "{e}");

        let mut spec = toy_spec();
        spec.workloads[0].contenders =
            vec![KernelSpec::Capacity { access: AccessKind::Load, factor: 1 }];
        let e = spec.validate().expect_err("bad capacity");
        assert!(e.to_string().contains("at least 2"), "{e}");

        let mut spec = toy_spec();
        spec.grid = None;
        spec.workloads.clear();
        let e = spec.validate().expect_err("empty spec");
        assert!(e.to_string().contains("nothing to run"), "{e}");
    }

    #[test]
    fn bad_workload_plans_become_error_records_not_panics() {
        // The same problems, arriving via the campaign path: contained.
        let mut spec = toy_spec();
        spec.grid = None;
        spec.workloads[0].scua = KernelSpec::Rsk { access: AccessKind::Load };
        let result = spec.to_campaign(1).run();
        assert_eq!(result.stats.failed_runs, 1);
        assert!(!result.reports[0].is_ok());
    }

    /// The spec's JSON with the object at `keys` (array items by their
    /// index) edited by `edit`.
    fn edited(keys: &[&str], edit: impl FnOnce(&mut Vec<(String, Json)>)) -> String {
        let mut doc = toy_spec().to_json();
        let mut node = &mut doc;
        for key in keys {
            node = match node {
                Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect("key").1,
                Json::Arr(items) => &mut items[key.parse::<usize>().expect("index")],
                _ => panic!("no container at {key}"),
            };
        }
        let Json::Obj(pairs) = node else { panic!("not an object") };
        edit(pairs);
        doc.render_pretty()
    }

    fn set(key: &'static str, value: Json) -> impl FnOnce(&mut Vec<(String, Json)>) {
        move |pairs| pairs.iter_mut().find(|(k, _)| k == key).expect("key").1 = value
    }

    fn remove(key: &'static str) -> impl FnOnce(&mut Vec<(String, Json)>) {
        move |pairs| pairs.retain(|(k, _)| k != key)
    }

    #[test]
    fn unknown_and_missing_fields_are_named_errors() {
        let cases = [
            (
                edited(&["machine", "dl1"], remove("ways")),
                "machine.dl1.ways: missing required field",
            ),
            (edited(&[], remove("name")), "name: missing required field"),
            (
                edited(&["machine", "dl1"], set("ways", Json::str("x"))),
                "machine.dl1.ways: expected an unsigned integer",
            ),
            (
                edited(&["machine", "dram"], set("banks", Json::U64(1 << 32))),
                "machine.dram.banks: value does not fit in 32 bits",
            ),
            (
                edited(&["machine", "topology", "bus"], |p| p.push(("zz".into(), Json::Null))),
                "machine.topology.bus.zz: unknown field (not part of the spec schema)",
            ),
            (
                edited(&[], |p| p.push(("zz".into(), Json::Null))),
                "zz: unknown field (not part of the spec schema)",
            ),
            (
                edited(&["workloads", "0", "contenders", "1"], set("kind", Json::str("spin"))),
                "workloads[0].contenders[1].kind: unknown kernel kind `spin` (expected one of: \
                 rsk, rsk-nop, nop, eembc, pointer-chase, mixed, capacity, l2-miss)",
            ),
            (
                edited(&["machine", "topology", "bus"], set("arbiter", Json::str("xx"))),
                "machine.topology.bus.arbiter: unknown arbiter `xx` (expected one of: rr, fp, \
                 fifo, tdma:<slot>, grr:<group>)",
            ),
            (
                edited(&["grid"], set("cores", Json::Arr(vec![Json::U64(2), Json::I64(-1)]))),
                "grid.cores[1]: expected an unsigned integer",
            ),
            (
                edited(&[], set("version", Json::U64(9))),
                "version: unsupported spec version 9 (this build reads 1)",
            ),
        ];
        for (text, expected) in cases {
            let e = ExperimentSpec::parse(&text).expect_err(expected);
            let (path, problem) = expected.split_once(": ").expect("path: problem");
            assert_eq!(e, SpecError::field(path, problem));
            assert_eq!(e.to_string(), format!("spec field `{path}`: {problem}"));
        }
        let e = ExperimentSpec::parse("{ not json").expect_err("must fail");
        assert!(matches!(e, SpecError::Parse(_)));
        // The one absent-key default: `period_skip` reads `true`.
        let back = ExperimentSpec::parse(&edited(&["machine"], remove("period_skip")))
            .expect("period_skip may be absent");
        assert!(back.machine.period_skip);
        assert_eq!(back, toy_spec());
    }

    #[test]
    fn field_paths_list_every_key_once() {
        let paths = ExperimentSpec::field_paths();
        let mut unique = paths.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), paths.len(), "{paths:?}");
        assert_eq!(paths[..4], ["version", "name", "machine", "machine.num_cores"]);
        for path in [
            "machine.dl1.ways",
            "machine.topology.mc.arbiter",
            "machine.period_skip",
            "grid.cores[]",
            "grid.methodology.min_bus_utilization",
            "workloads[].name",
            "workloads[].scua.kind",
            "workloads[].contenders[].iterations",
        ] {
            assert!(paths.iter().any(|p| p == path), "{path} missing from {paths:?}");
        }
        let kernel_keys: Vec<_> =
            paths.iter().filter_map(|p| p.strip_prefix("workloads[].scua.")).collect();
        assert_eq!(
            kernel_keys,
            ["kind", "access", "nops", "iterations", "kernel", "seed", "lines", "factor"]
        );
    }

    #[test]
    fn spec_hash_tracks_content() {
        let a = toy_spec();
        let mut b = toy_spec();
        assert_eq!(a.spec_hash(), b.spec_hash());
        b.machine.num_cores = 3;
        assert_ne!(a.spec_hash(), b.spec_hash());
    }
}
