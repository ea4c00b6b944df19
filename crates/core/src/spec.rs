//! Experiments as data: the declarative, serialisable [`ExperimentSpec`].
//!
//! The paper's methodology is a *campaign of parameterised runs* —
//! kernels × arbiters × topologies × core counts — and before this
//! module every such campaign could only be described in Rust code.
//! An `ExperimentSpec` makes the whole experiment a value:
//!
//! * a **machine** section mirroring [`MachineConfig`] field by field,
//!   topology included ([`MachineSpec`]);
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
//! the cache key for campaign-level reuse. Parsing is strict: unknown
//! or duplicate keys are rejected with a field path, so a typo in an
//! analyst's file is an error, not a silently ignored knob.
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
// Strict object cursor
// ---------------------------------------------------------------------

/// A strict reader over one JSON object: every schema field must be
/// taken exactly once, and leftover keys are an error. This is what
/// keeps the shipped schema and the parser from drifting apart — a
/// field added to the writer but not the reader (or vice versa) fails
/// the round-trip test immediately.
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

    fn take(&mut self, key: &str) -> Result<&'a Json, SpecError> {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if k == key {
                self.taken[i] = true;
                return Ok(v);
            }
        }
        Err(SpecError::field(format!("{}.{key}", self.path), "missing required field"))
    }

    /// Like [`Fields::take`], but absent keys read as `None` — for
    /// fields added to the schema after specs were already in the wild.
    fn take_opt(&mut self, key: &str) -> Option<&'a Json> {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if k == key {
                self.taken[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn finish(self) -> Result<(), SpecError> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.taken[i] {
                return Err(SpecError::field(
                    format!("{}.{k}", self.path),
                    "unknown field (not part of the spec schema)",
                ));
            }
        }
        Ok(())
    }
}

fn get_u64(v: &Json, path: &str) -> Result<u64, SpecError> {
    v.as_u64().ok_or_else(|| SpecError::field(path, "expected an unsigned integer"))
}

fn get_u32(v: &Json, path: &str) -> Result<u32, SpecError> {
    u32::try_from(get_u64(v, path)?)
        .map_err(|_| SpecError::field(path, "value does not fit in 32 bits"))
}

fn get_usize(v: &Json, path: &str) -> Result<usize, SpecError> {
    usize::try_from(get_u64(v, path)?)
        .map_err(|_| SpecError::field(path, "value does not fit in usize"))
}

fn get_f64(v: &Json, path: &str) -> Result<f64, SpecError> {
    v.as_f64().ok_or_else(|| SpecError::field(path, "expected a number"))
}

fn get_bool(v: &Json, path: &str) -> Result<bool, SpecError> {
    v.as_bool().ok_or_else(|| SpecError::field(path, "expected true or false"))
}

fn get_str<'a>(v: &'a Json, path: &str) -> Result<&'a str, SpecError> {
    v.as_str().ok_or_else(|| SpecError::field(path, "expected a string"))
}

/// Parses a canonical-token field (`arbiter`, `access`, `scenario`, …)
/// through the type's own `FromStr`, echoing its error message.
fn get_token<T>(v: &Json, path: &str) -> Result<T, SpecError>
where
    T: FromStr,
    T::Err: fmt::Display,
{
    get_str(v, path)?.parse().map_err(|e: T::Err| SpecError::field(path, e.to_string()))
}

fn get_array<'a>(v: &'a Json, path: &str) -> Result<&'a [Json], SpecError> {
    v.as_array().ok_or_else(|| SpecError::field(path, "expected an array"))
}

/// Parses an array field item by item with `item`, naming `path[i]` in
/// errors.
fn get_list<T>(
    v: &Json,
    path: &str,
    item: impl Fn(&Json, &str) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    get_array(v, path)?.iter().enumerate().map(|(i, x)| item(x, &format!("{path}[{i}]"))).collect()
}

/// Renders canonical tokens (the `Display` form `get_token` parses).
fn tokens<T: fmt::Display>(xs: &[T]) -> Json {
    Json::Arr(xs.iter().map(|x| Json::str(x.to_string())).collect())
}

// ---------------------------------------------------------------------
// MachineSpec: MachineConfig ⇄ Json
// ---------------------------------------------------------------------

/// The machine section of an experiment file: a [`MachineConfig`]
/// mirrored field by field into JSON, topology included. The mapping is
/// total in both directions — every config is expressible, and parsing
/// an emitted spec reconstructs the config exactly — so experiments
/// carry their platform with them instead of referencing presets that
/// may change meaning between versions.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec(pub MachineConfig);

impl MachineSpec {
    /// The machine as a JSON object.
    pub fn to_json(&self) -> Json {
        let cfg = &self.0;
        Json::obj(vec![
            ("num_cores", Json::U64(cfg.num_cores as u64)),
            ("dl1", cache_to_json(&cfg.dl1)),
            ("il1", cache_to_json(&cfg.il1)),
            ("l2", l2_to_json(&cfg.l2)),
            ("topology", topology_to_json(&cfg.topology)),
            ("dram", dram_to_json(&cfg.dram)),
            (
                "store_buffer",
                Json::obj(vec![("entries", Json::U64(cfg.store_buffer.entries as u64))]),
            ),
            ("nop_latency", Json::U64(cfg.nop_latency)),
            ("branch_latency", Json::U64(cfg.branch_latency)),
            ("max_cycles", Json::U64(cfg.max_cycles)),
            ("record_requests", Json::Bool(cfg.record_requests)),
            ("record_trace", Json::Bool(cfg.record_trace)),
            ("quiescence_skip", Json::Bool(cfg.quiescence_skip)),
            ("period_skip", Json::Bool(cfg.period_skip)),
        ])
    }

    /// Reconstructs the machine from its JSON object.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Field`] naming the offending field path.
    pub fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let mut f = Fields::new(v, path)?;
        let cfg = MachineConfig {
            num_cores: get_usize(f.take("num_cores")?, &format!("{path}.num_cores"))?,
            dl1: cache_from_json(f.take("dl1")?, &format!("{path}.dl1"))?,
            il1: cache_from_json(f.take("il1")?, &format!("{path}.il1"))?,
            l2: l2_from_json(f.take("l2")?, &format!("{path}.l2"))?,
            topology: topology_from_json(f.take("topology")?, &format!("{path}.topology"))?,
            dram: dram_from_json(f.take("dram")?, &format!("{path}.dram"))?,
            store_buffer: {
                let sb_path = format!("{path}.store_buffer");
                let mut sb = Fields::new(f.take("store_buffer")?, &sb_path)?;
                let entries = get_usize(sb.take("entries")?, &format!("{sb_path}.entries"))?;
                sb.finish()?;
                StoreBufferConfig { entries }
            },
            nop_latency: get_u64(f.take("nop_latency")?, &format!("{path}.nop_latency"))?,
            branch_latency: get_u64(f.take("branch_latency")?, &format!("{path}.branch_latency"))?,
            max_cycles: get_u64(f.take("max_cycles")?, &format!("{path}.max_cycles"))?,
            record_requests: get_bool(
                f.take("record_requests")?,
                &format!("{path}.record_requests"),
            )?,
            record_trace: get_bool(f.take("record_trace")?, &format!("{path}.record_trace"))?,
            quiescence_skip: get_bool(
                f.take("quiescence_skip")?,
                &format!("{path}.quiescence_skip"),
            )?,
            // Added after specs were already in the wild: absent reads
            // as `true`, the preset default, so older files keep their
            // (now faster, still cycle-identical) meaning.
            period_skip: match f.take_opt("period_skip") {
                Some(v) => get_bool(v, &format!("{path}.period_skip"))?,
                None => true,
            },
        };
        f.finish()?;
        Ok(MachineSpec(cfg))
    }
}

fn cache_to_json(c: &CacheConfig) -> Json {
    Json::obj(vec![
        ("size_bytes", Json::U64(c.size_bytes)),
        ("ways", Json::U64(u64::from(c.ways))),
        ("line_bytes", Json::U64(c.line_bytes)),
        ("latency", Json::U64(c.latency)),
        ("replacement", Json::str(c.replacement.to_string())),
    ])
}

fn cache_from_json(v: &Json, path: &str) -> Result<CacheConfig, SpecError> {
    let mut f = Fields::new(v, path)?;
    let c = CacheConfig {
        size_bytes: get_u64(f.take("size_bytes")?, &format!("{path}.size_bytes"))?,
        ways: get_u32(f.take("ways")?, &format!("{path}.ways"))?,
        line_bytes: get_u64(f.take("line_bytes")?, &format!("{path}.line_bytes"))?,
        latency: get_u64(f.take("latency")?, &format!("{path}.latency"))?,
        replacement: get_token::<Replacement>(
            f.take("replacement")?,
            &format!("{path}.replacement"),
        )?,
    };
    f.finish()?;
    Ok(c)
}

fn l2_to_json(l2: &L2Config) -> Json {
    Json::obj(vec![
        ("size_bytes", Json::U64(l2.size_bytes)),
        ("ways", Json::U64(u64::from(l2.ways))),
        ("line_bytes", Json::U64(l2.line_bytes)),
        ("replacement", Json::str(l2.replacement.to_string())),
    ])
}

fn l2_from_json(v: &Json, path: &str) -> Result<L2Config, SpecError> {
    let mut f = Fields::new(v, path)?;
    let l2 = L2Config {
        size_bytes: get_u64(f.take("size_bytes")?, &format!("{path}.size_bytes"))?,
        ways: get_u32(f.take("ways")?, &format!("{path}.ways"))?,
        line_bytes: get_u64(f.take("line_bytes")?, &format!("{path}.line_bytes"))?,
        replacement: get_token::<Replacement>(
            f.take("replacement")?,
            &format!("{path}.replacement"),
        )?,
    };
    f.finish()?;
    Ok(l2)
}

fn topology_to_json(t: &Topology) -> Json {
    Json::obj(vec![
        (
            "bus",
            Json::obj(vec![
                ("l2_hit_occupancy", Json::U64(t.bus.l2_hit_occupancy)),
                ("transfer_occupancy", Json::U64(t.bus.transfer_occupancy)),
                ("store_occupancy", Json::U64(t.bus.store_occupancy)),
                ("arbiter", Json::str(t.bus.arbiter.to_string())),
            ]),
        ),
        (
            "mc",
            Json::option(t.mc, |mc| {
                Json::obj(vec![
                    ("service_occupancy", Json::U64(mc.service_occupancy)),
                    ("arbiter", Json::str(mc.arbiter.to_string())),
                ])
            }),
        ),
    ])
}

fn topology_from_json(v: &Json, path: &str) -> Result<Topology, SpecError> {
    let mut f = Fields::new(v, path)?;
    let bus_path = format!("{path}.bus");
    let mut b = Fields::new(f.take("bus")?, &bus_path)?;
    let bus = BusConfig {
        l2_hit_occupancy: get_u64(
            b.take("l2_hit_occupancy")?,
            &format!("{bus_path}.l2_hit_occupancy"),
        )?,
        transfer_occupancy: get_u64(
            b.take("transfer_occupancy")?,
            &format!("{bus_path}.transfer_occupancy"),
        )?,
        store_occupancy: get_u64(
            b.take("store_occupancy")?,
            &format!("{bus_path}.store_occupancy"),
        )?,
        arbiter: get_token::<ArbiterKind>(b.take("arbiter")?, &format!("{bus_path}.arbiter"))?,
    };
    b.finish()?;
    let mc_value = f.take("mc")?;
    let mc = if mc_value.is_null() {
        None
    } else {
        let mc_path = format!("{path}.mc");
        let mut m = Fields::new(mc_value, &mc_path)?;
        let mc = McQueueConfig {
            service_occupancy: get_u64(
                m.take("service_occupancy")?,
                &format!("{mc_path}.service_occupancy"),
            )?,
            arbiter: get_token::<ArbiterKind>(m.take("arbiter")?, &format!("{mc_path}.arbiter"))?,
        };
        m.finish()?;
        Some(mc)
    };
    f.finish()?;
    Ok(Topology { bus, mc })
}

fn dram_to_json(d: &DramConfig) -> Json {
    Json::obj(vec![
        ("banks", Json::U64(u64::from(d.banks))),
        ("row_bytes", Json::U64(d.row_bytes)),
        ("t_rcd", Json::U64(d.t_rcd)),
        ("t_rp", Json::U64(d.t_rp)),
        ("t_cl", Json::U64(d.t_cl)),
        ("burst", Json::U64(d.burst)),
        ("controller_overhead", Json::U64(d.controller_overhead)),
    ])
}

fn dram_from_json(v: &Json, path: &str) -> Result<DramConfig, SpecError> {
    let mut f = Fields::new(v, path)?;
    let d = DramConfig {
        banks: get_u32(f.take("banks")?, &format!("{path}.banks"))?,
        row_bytes: get_u64(f.take("row_bytes")?, &format!("{path}.row_bytes"))?,
        t_rcd: get_u64(f.take("t_rcd")?, &format!("{path}.t_rcd"))?,
        t_rp: get_u64(f.take("t_rp")?, &format!("{path}.t_rp"))?,
        t_cl: get_u64(f.take("t_cl")?, &format!("{path}.t_cl"))?,
        burst: get_u64(f.take("burst")?, &format!("{path}.burst"))?,
        controller_overhead: get_u64(
            f.take("controller_overhead")?,
            &format!("{path}.controller_overhead"),
        )?,
    };
    f.finish()?;
    Ok(d)
}

// ---------------------------------------------------------------------
// KernelSpec ⇄ Json
// ---------------------------------------------------------------------

fn kernel_to_json(k: &KernelSpec) -> Json {
    let mut pairs = vec![("kind", Json::str(k.kind()))];
    match *k {
        KernelSpec::Rsk { access } => pairs.push(("access", Json::str(access.to_string()))),
        KernelSpec::RskNop { access, nops, iterations } => {
            pairs.push(("access", Json::str(access.to_string())));
            pairs.push(("nops", Json::U64(nops)));
            pairs.push(("iterations", Json::U64(iterations)));
        }
        KernelSpec::Nop { iterations } => pairs.push(("iterations", Json::U64(iterations))),
        KernelSpec::Eembc { kernel, seed, iterations } => {
            pairs.push(("kernel", Json::str(kernel.to_string())));
            pairs.push(("seed", Json::U64(seed)));
            pairs.push(("iterations", Json::option(iterations, Json::U64)));
        }
        KernelSpec::PointerChase { lines, seed } => {
            pairs.push(("lines", Json::U64(lines)));
            pairs.push(("seed", Json::U64(seed)));
        }
        KernelSpec::Mixed { iterations } => {
            pairs.push(("iterations", Json::option(iterations, Json::U64)));
        }
        KernelSpec::Capacity { access, factor } => {
            pairs.push(("access", Json::str(access.to_string())));
            pairs.push(("factor", Json::U64(factor)));
        }
        KernelSpec::L2Miss => {}
    }
    Json::obj(pairs)
}

fn opt_u64(v: &Json, path: &str) -> Result<Option<u64>, SpecError> {
    if v.is_null() {
        Ok(None)
    } else {
        get_u64(v, path).map(Some)
    }
}

fn kernel_from_json(v: &Json, path: &str) -> Result<KernelSpec, SpecError> {
    let mut f = Fields::new(v, path)?;
    let kind = get_str(f.take("kind")?, &format!("{path}.kind"))?.to_string();
    let k = match kind.as_str() {
        "rsk" => KernelSpec::Rsk {
            access: get_token::<AccessKind>(f.take("access")?, &format!("{path}.access"))?,
        },
        "rsk-nop" => KernelSpec::RskNop {
            access: get_token::<AccessKind>(f.take("access")?, &format!("{path}.access"))?,
            nops: get_u64(f.take("nops")?, &format!("{path}.nops"))?,
            iterations: get_u64(f.take("iterations")?, &format!("{path}.iterations"))?,
        },
        "nop" => KernelSpec::Nop {
            iterations: get_u64(f.take("iterations")?, &format!("{path}.iterations"))?,
        },
        "eembc" => KernelSpec::Eembc {
            kernel: get_token::<AutobenchKernel>(f.take("kernel")?, &format!("{path}.kernel"))?,
            seed: get_u64(f.take("seed")?, &format!("{path}.seed"))?,
            iterations: opt_u64(f.take("iterations")?, &format!("{path}.iterations"))?,
        },
        "pointer-chase" => KernelSpec::PointerChase {
            lines: get_u64(f.take("lines")?, &format!("{path}.lines"))?,
            seed: get_u64(f.take("seed")?, &format!("{path}.seed"))?,
        },
        "mixed" => KernelSpec::Mixed {
            iterations: opt_u64(f.take("iterations")?, &format!("{path}.iterations"))?,
        },
        "capacity" => KernelSpec::Capacity {
            access: get_token::<AccessKind>(f.take("access")?, &format!("{path}.access"))?,
            factor: get_u64(f.take("factor")?, &format!("{path}.factor"))?,
        },
        "l2-miss" => KernelSpec::L2Miss,
        other => {
            return Err(SpecError::field(
                format!("{path}.kind"),
                format!(
                    "unknown kernel kind `{other}` (expected one of: rsk, rsk-nop, nop, \
                     eembc, pointer-chase, mixed, capacity, l2-miss)"
                ),
            ))
        }
    };
    f.finish()?;
    Ok(k)
}

// ---------------------------------------------------------------------
// Methodology ⇄ Json
// ---------------------------------------------------------------------

fn methodology_to_json(m: &MethodologyConfig) -> Json {
    Json::obj(vec![
        ("access", Json::str(m.access.to_string())),
        ("contender_access", Json::str(m.contender_access.to_string())),
        ("max_k", Json::U64(m.max_k as u64)),
        ("iterations", Json::U64(m.iterations)),
        ("calibration_iterations", Json::U64(m.calibration_iterations)),
        ("tolerance", Json::U64(m.tolerance)),
        ("min_bus_utilization", Json::F64(m.min_bus_utilization)),
    ])
}

fn methodology_from_json(v: &Json, path: &str) -> Result<MethodologyConfig, SpecError> {
    let mut f = Fields::new(v, path)?;
    let m = MethodologyConfig {
        access: get_token::<AccessKind>(f.take("access")?, &format!("{path}.access"))?,
        contender_access: get_token::<AccessKind>(
            f.take("contender_access")?,
            &format!("{path}.contender_access"),
        )?,
        max_k: get_usize(f.take("max_k")?, &format!("{path}.max_k"))?,
        iterations: get_u64(f.take("iterations")?, &format!("{path}.iterations"))?,
        calibration_iterations: get_u64(
            f.take("calibration_iterations")?,
            &format!("{path}.calibration_iterations"),
        )?,
        tolerance: get_u64(f.take("tolerance")?, &format!("{path}.tolerance"))?,
        min_bus_utilization: get_f64(
            f.take("min_bus_utilization")?,
            &format!("{path}.min_bus_utilization"),
        )?,
    };
    f.finish()?;
    Ok(m)
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

impl GridSpec {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("scenario", Json::str(self.scenario.to_string())),
            ("arbiters", tokens(&self.arbiters)),
            ("cores", Json::Arr(self.cores.iter().map(|&c| Json::U64(c as u64)).collect())),
            ("accesses", tokens(&self.accesses)),
            ("contender_accesses", tokens(&self.contender_accesses)),
            ("iterations", Json::u64_array(&self.iterations)),
            ("max_k", Json::U64(self.max_k as u64)),
            ("methodology", methodology_to_json(&self.methodology)),
        ])
    }

    fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let mut f = Fields::new(v, path)?;
        let g = GridSpec {
            scenario: get_token::<GridScenario>(f.take("scenario")?, &format!("{path}.scenario"))?,
            arbiters: get_list(f.take("arbiters")?, &format!("{path}.arbiters"), get_token)?,
            cores: get_list(f.take("cores")?, &format!("{path}.cores"), get_usize)?,
            accesses: get_list(f.take("accesses")?, &format!("{path}.accesses"), get_token)?,
            contender_accesses: get_list(
                f.take("contender_accesses")?,
                &format!("{path}.contender_accesses"),
                get_token,
            )?,
            iterations: get_list(f.take("iterations")?, &format!("{path}.iterations"), get_u64)?,
            max_k: get_usize(f.take("max_k")?, &format!("{path}.max_k"))?,
            methodology: methodology_from_json(
                f.take("methodology")?,
                &format!("{path}.methodology"),
            )?,
        };
        f.finish()?;
        Ok(g)
    }
}

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

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name.clone())),
            ("scua", kernel_to_json(&self.scua)),
            ("contenders", Json::Arr(self.contenders.iter().map(kernel_to_json).collect())),
        ])
    }

    fn from_json(v: &Json, path: &str) -> Result<Self, SpecError> {
        let mut f = Fields::new(v, path)?;
        let c = WorkloadCase {
            name: get_str(f.take("name")?, &format!("{path}.name"))?.to_string(),
            scua: kernel_from_json(f.take("scua")?, &format!("{path}.scua"))?,
            contenders: {
                let arr_path = format!("{path}.contenders");
                get_array(f.take("contenders")?, &arr_path)?
                    .iter()
                    .enumerate()
                    .map(|(i, item)| kernel_from_json(item, &format!("{arr_path}[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?
            },
        };
        f.finish()?;
        Ok(c)
    }
}

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
        Json::obj(vec![
            ("version", Json::U64(SPEC_VERSION)),
            ("name", Json::str(self.name.clone())),
            ("machine", MachineSpec(self.machine.clone()).to_json()),
            ("grid", Json::option(self.grid.as_ref(), GridSpec::to_json)),
            ("workloads", Json::Arr(self.workloads.iter().map(WorkloadCase::to_json).collect())),
        ])
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
        let mut f = Fields::new(v, "")?;
        let version = get_u64(f.take("version")?, ".version")?;
        if version != SPEC_VERSION {
            return Err(SpecError::field(
                ".version",
                format!("unsupported spec version {version} (this build reads {SPEC_VERSION})"),
            ));
        }
        let spec = ExperimentSpec {
            name: get_str(f.take("name")?, ".name")?.to_string(),
            machine: MachineSpec::from_json(f.take("machine")?, ".machine")?.0,
            grid: {
                let grid_value = f.take("grid")?;
                if grid_value.is_null() {
                    None
                } else {
                    Some(GridSpec::from_json(grid_value, ".grid")?)
                }
            },
            workloads: {
                let arr = get_array(f.take("workloads")?, ".workloads")?;
                arr.iter()
                    .enumerate()
                    .map(|(i, item)| WorkloadCase::from_json(item, &format!(".workloads[{i}]")))
                    .collect::<Result<Vec<_>, _>>()?
            },
        };
        f.finish()?;
        Ok(spec)
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
            let json = MachineSpec(cfg.clone()).to_json();
            let back = MachineSpec::from_json(&json, "machine").expect("round trip");
            assert_eq!(back.0, cfg);
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

    #[test]
    fn unknown_and_missing_fields_are_named_errors() {
        let spec = toy_spec();
        let text = spec.to_text();
        let e = ExperimentSpec::parse(&text.replace("\"num_cores\"", "\"num_crores\""))
            .expect_err("must fail");
        let msg = e.to_string();
        assert!(msg.contains("machine.num_c"), "{msg}");
        let e = ExperimentSpec::parse(&text.replace("\"version\": 1", "\"version\": 9"))
            .expect_err("must fail");
        assert!(e.to_string().contains("unsupported spec version 9"), "{e}");
        let e = ExperimentSpec::parse(&text.replace("\"arbiter\": \"rr\"", "\"arbiter\": \"xx\""))
            .expect_err("must fail");
        assert!(e.to_string().contains("tdma:<slot>"), "{e}");
        let e = ExperimentSpec::parse("{ not json").expect_err("must fail");
        assert!(matches!(e, SpecError::Parse(_)));
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
