//! The static half of the bound ladder: the bridge between the
//! [`rrb_static`] analyzer and the campaign layer.
//!
//! Every cell a spec would run —
//! [`CampaignGrid::cells`](crate::campaign::CampaignGrid::cells) for
//! grids, one cell per workload case — is expanded once into the programs each core
//! executes. Each program is built once and profiled once into both the
//! worst-case envelope and the must/may-classified demand, and the cell
//! gets one [`CellStaticBound`] row: the machine-wide [`StaticBound`], the
//! observed core's tightened terms, and the interference-flow
//! [`ComposedBound`]. Every cell gets an answer: where the measurement
//! methodology refuses an arbiter (no saw-tooth period to recover for
//! `fp`/`fifo`), the static model still produces its analytic bound.
//! [`crate::verify`] runs the model checker on the same envelope
//! profiles, so a verified row's static half *is* this row.
//!
//! The ladder per cell is `measured ≤ exact ≤ observed ≤ static ≥ truth`,
//! with `flow ≤ sum`. This module owns the static links:
//!
//! * [`CellStaticBound::violations`] — the static bound fell below the
//!   analytic truth `Σ (Nc-1)·l_r`, or the flow composition exceeded the
//!   saturating sum it refines (a bug in the static model);
//! * [`check_measured`] — an observed per-request delay from an actual
//!   campaign run exceeded the static or flow bound (a bug in the static
//!   model or the simulator), plus how much of each bound the runs
//!   realised.

use crate::campaign::{CampaignResult, GridCell};
use crate::json::Json;
use crate::spec::{ExperimentSpec, WorkloadCase};
use rrb_kernels::{rsk, rsk_nop};
use rrb_sim::{CoreId, MachineConfig, Program, ResourceKind};
pub use rrb_static::{
    classified_profile, compose_flow, profile_program, ComposedBound, CoreProfile, FlowTerm,
    ResourceBound, StaticBound,
};
use std::fmt::Write as _;

/// The static bound for one campaign cell, alongside the analytic truth
/// it must dominate.
#[derive(Debug, Clone, PartialEq)]
pub struct CellStaticBound {
    /// Cell (scenario) name, matching the campaign's record names.
    pub cell: String,
    /// Cores contending in this cell.
    pub num_cores: usize,
    /// Bus arbiter token (`rr`, `fp`, `fifo`, `tdma:<s>`, `grr:<g>`).
    pub arbiter: String,
    /// Analytic truth for the bus term, `(Nc-1)·l_bus` (Eq. 1).
    pub truth_bus: u64,
    /// Analytic truth for the MC term (0 for single-level topologies).
    pub truth_mc: u64,
    /// The composed machine-wide static bound (worst-case envelope
    /// profiles — unchanged by the flow layer, so existing baselines
    /// stay pinned).
    pub bound: StaticBound,
    /// The interference-flow composition for the observed core, computed
    /// from must/may-classified demand profiles.
    pub composed: ComposedBound,
    /// Why the cell's machine cannot be built — `invalid machine: ` and
    /// its cache hierarchy's validation error
    /// ([`MachineConfig::validate_caches`]). Such a cell is reported, not
    /// bounded: every static, flow and exact term is unbounded with this
    /// as the reason.
    pub invalid: Option<String>,
}

impl CellStaticBound {
    /// Sum of the per-resource truth terms ([`MachineConfig::ubd`]).
    pub fn truth_total(&self) -> u64 {
        self.truth_bus.saturating_add(self.truth_mc)
    }

    /// The composed static bound; `None` when some resource is unbounded.
    pub fn static_total(&self) -> Option<u64> {
        self.bound.total()
    }

    /// The machine-wide static term for `kind` (`Some(0)` for a resource
    /// the topology lacks).
    pub(crate) fn static_for(&self, kind: ResourceKind) -> Option<u64> {
        self.bound.resource(kind).map_or(Some(0), |r| r.bound)
    }

    /// The static bus term.
    pub fn static_bus(&self) -> Option<u64> {
        self.static_for(ResourceKind::Bus)
    }

    /// The static MC term (`Some(0)` for single-level topologies).
    pub fn static_mc(&self) -> Option<u64> {
        self.static_for(ResourceKind::MemoryController)
    }

    /// The observed core's static total: the machine-wide terms with the
    /// request-cycle tightenings core 0's known demand permits. This is
    /// the denominator of the verifier's tightness certificate — the
    /// exact checker bounds core 0, so core 0's bound is what exactness
    /// is measured against.
    pub fn observed_total(&self) -> Option<u64> {
        self.bound.observed_total()
    }

    /// The observed core's term for `kind` (`Some(0)` for a resource the
    /// topology lacks).
    pub(crate) fn observed_for(&self, kind: ResourceKind) -> Option<u64> {
        self.bound.resource(kind).map_or(Some(0), |r| r.observed)
    }

    /// The flow-composed total for the observed core.
    pub fn flow_total(&self) -> Option<u64> {
        self.composed.flow_total()
    }

    /// The flow-composed bus term.
    pub fn flow_bus(&self) -> Option<u64> {
        self.composed.term(ResourceKind::Bus).and_then(|t| t.flow)
    }

    /// The flow-composed MC term (`Some(0)` for single-level topologies).
    pub fn flow_mc(&self) -> Option<u64> {
        self.composed.term(ResourceKind::MemoryController).map_or(Some(0), |t| t.flow)
    }

    /// Provable slack between the saturating static total and the flow
    /// composition: interference the saturating sum charges that no
    /// execution of this workload can realise.
    pub fn flow_slack(&self) -> Option<u64> {
        Some(self.static_total()?.saturating_sub(self.flow_total()?))
    }

    /// The static links of the bound chain that fail: `truth ≤ static`,
    /// then `flow ≤ sum`. Empty when the row is sound (or honestly
    /// unbounded).
    pub fn violations(&self) -> Vec<String> {
        let Some(total) = self.static_total() else { return Vec::new() };
        let mut out = Vec::new();
        if total < self.truth_total() {
            out.push(format!(
                "static bound {total} < analytic truth {} on `{}`",
                self.truth_total(),
                self.cell
            ));
        }
        // The flow composition refines the *observed core's* bound, so it
        // may drop below the machine-wide truth — but it must never
        // exceed the saturating sum it claims to refine.
        if let Some(flow) = self.flow_total().filter(|&flow| flow > total) {
            out.push(format!(
                "flow composed {flow} exceeds saturating sum {total} on `{}`",
                self.cell
            ));
        }
        out
    }

    /// The first failing static link, if any (see [`violations`]).
    ///
    /// [`violations`]: Self::violations
    pub fn violation(&self) -> Option<String> {
        self.violations().into_iter().next()
    }

    /// The row as a JSON object (used by `rrb analyze --json` and the
    /// topology ablation's `BENCH_static.json`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cell", Json::str(self.cell.clone())),
            ("num_cores", Json::U64(self.num_cores as u64)),
            ("arbiter", Json::str(self.arbiter.clone())),
            ("truth_bus", Json::U64(self.truth_bus)),
            ("truth_mc", Json::U64(self.truth_mc)),
            ("truth_total", Json::U64(self.truth_total())),
            ("static_bus", Json::option(self.static_bus(), Json::U64)),
            ("static_mc", Json::option(self.static_mc(), Json::U64)),
            ("static_total", Json::option(self.static_total(), Json::U64)),
            ("flow_bus", Json::option(self.flow_bus(), Json::U64)),
            ("flow_mc", Json::option(self.flow_mc(), Json::U64)),
            ("flow_total", Json::option(self.flow_total(), Json::U64)),
            ("flow_slack", Json::option(self.flow_slack(), Json::U64)),
            ("finite", Json::Bool(self.bound.is_finite())),
            ("sound_vs_truth", Json::Bool(self.violation().is_none())),
            ("reason", Json::option(self.bound.reason().map(String::from), Json::Str)),
        ])
    }
}

/// One cell a spec would run, expanded into the programs each core
/// executes. Core `i` runs the programs in `cores[i]`, whose profiles
/// are joined; `None` marks a kernel that cannot be built for this
/// machine, which the saturating envelope stands in for.
pub(crate) struct CellPrograms {
    /// Cell (scenario) name, matching the campaign's record names.
    pub(crate) name: String,
    /// The cell's machine configuration.
    pub(crate) cfg: MachineConfig,
    cores: Vec<Option<Vec<Program>>>,
}

impl CellPrograms {
    /// A grid cell: the scua sweeps `rsk-nop(t, k)` for `k = 0..=max_k`
    /// (joined over the endpoints — the count/makespan envelope is
    /// monotone in `k`), the other cores run endless resource-stressing
    /// kernels.
    ///
    /// A cell whose caches cannot be built gets no programs: the kernel
    /// layouts need its L2 partition, and [`CellPrograms::bound`]
    /// reports the cell invalid.
    pub(crate) fn grid(cell: &GridCell) -> Self {
        let cfg = &cell.cfg;
        if cfg.validate_caches().is_err() {
            return CellPrograms { name: cell.name.clone(), cfg: cfg.clone(), cores: Vec::new() };
        }
        let scua = [0, cell.max_k]
            .map(|k| rsk_nop(cell.access, k, cfg, CoreId::new(0), cell.iterations))
            .to_vec();
        let contenders = (1..cfg.num_cores)
            .map(|core| Some(vec![rsk(cell.contender_access, cfg, CoreId::new(core))]));
        let cores = std::iter::once(Some(scua)).chain(contenders).collect();
        CellPrograms { name: cell.name.clone(), cfg: cfg.clone(), cores }
    }

    /// A workload case: the scua on core 0, each contender kernel on the
    /// next core up, truncated to the machine.
    pub(crate) fn workload(machine: &MachineConfig, case: &WorkloadCase) -> Self {
        let kernels = std::iter::once(&case.scua).chain(&case.contenders).take(machine.num_cores);
        let cores = kernels
            .enumerate()
            .map(|(core, kernel)| {
                kernel.try_build(machine, CoreId::new(core)).ok().map(|p| vec![p])
            })
            .collect();
        CellPrograms { name: case.name.clone(), cfg: machine.clone(), cores }
    }

    /// Every cell a spec would run, in the campaign's enumeration order:
    /// each grid cell, then each workload case.
    pub(crate) fn of_spec(spec: &ExperimentSpec) -> impl Iterator<Item = CellPrograms> + '_ {
        let grid = spec.grid.as_ref().map(|g| g.cells(&spec.machine)).unwrap_or_default();
        grid.into_iter()
            .map(|cell| CellPrograms::grid(&cell))
            .chain(spec.workloads.iter().map(|case| CellPrograms::workload(&spec.machine, case)))
    }

    /// Profiles every program once and bounds the cell: the static row,
    /// plus the envelope profiles it was built from (what the model
    /// checker searches).
    /// A cell whose machine cannot be built is never profiled (the replay
    /// would need its caches) and gets every term opened instead.
    pub(crate) fn bound(&self) -> (CellStaticBound, Vec<CoreProfile>) {
        let cfg = &self.cfg;
        let invalid = cfg.validate_caches().err().map(|e| format!("invalid machine: {e}"));
        let cores = if invalid.is_some() { &[][..] } else { &self.cores[..] };
        let (envelope, classified): (Vec<_>, Vec<_>) = cores
            .iter()
            .enumerate()
            .map(|(core, programs)| {
                let id = CoreId::new(core);
                programs
                    .iter()
                    .flatten()
                    .map(|p| (profile_program(p, cfg), classified_profile(p, cfg, id)))
                    .reduce(|(e, c), (e2, c2)| (e.join(&e2), c.join(&c2)))
                    .unwrap_or_else(|| (CoreProfile::saturating(), CoreProfile::saturating()))
            })
            .unzip();
        let breakdown = cfg.ubd_breakdown();
        let truth = |kind| breakdown.iter().find(|t| t.resource == kind).map_or(0, |t| t.ubd);
        let mut row = CellStaticBound {
            cell: self.name.clone(),
            num_cores: cfg.num_cores,
            arbiter: cfg.topology.bus.arbiter.to_string(),
            truth_bus: truth(ResourceKind::Bus),
            truth_mc: truth(ResourceKind::MemoryController),
            bound: StaticBound::analyze(cfg, &envelope),
            composed: compose_flow(cfg, &classified),
            invalid,
        };
        if let Some(reason) = &row.invalid {
            for r in &mut row.bound.resources {
                (r.bound, r.observed, r.reason) = (None, None, Some(reason.clone()));
            }
            for t in &mut row.composed.terms {
                (t.sum, t.flow, t.reason) = (None, None, reason.clone());
            }
        }
        (row, envelope)
    }
}

/// Statically bounds one expanded grid cell.
pub fn analyze_grid_cell(cell: &GridCell) -> CellStaticBound {
    CellPrograms::grid(cell).bound().0
}

/// Statically bounds one workload case on `machine`.
pub fn analyze_workload(machine: &MachineConfig, case: &WorkloadCase) -> CellStaticBound {
    CellPrograms::workload(machine, case).bound().0
}

/// Statically bounds every cell a spec would run: each grid cell (in the
/// campaign's enumeration order), then each workload case.
pub fn analyze_spec(spec: &ExperimentSpec) -> Vec<CellStaticBound> {
    CellPrograms::of_spec(spec).map(|cell| cell.bound().0).collect()
}

/// What a campaign run says about the static bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredCheck {
    /// Per-cell measured/static tightness, in row order.
    pub tightness: Vec<CellTightness>,
    /// One message per soundness violation, in record order.
    pub violations: Vec<String>,
}

/// Per-cell measured/static tightness from a campaign run: how much of
/// the static bound the worst observed delay actually realised. A low
/// ratio is not a bug — it quantifies the pessimism of the static model
/// on that cell (Fig. 5's "how tight is the bound" question).
#[derive(Debug, Clone, PartialEq)]
pub struct CellTightness {
    /// Cell (scenario) name.
    pub cell: String,
    /// Worst observed total delay across the cell's runs (bus γ + MC γ).
    pub measured: u64,
    /// The cell's finite static total.
    pub static_total: u64,
    /// `measured / static_total` (1.0 when the static total is zero).
    pub tightness: f64,
}

impl CellTightness {
    /// The tightness row as a JSON object (`rrb analyze --check-runs
    /// --format json`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cell", Json::str(self.cell.clone())),
            ("measured", Json::U64(self.measured)),
            ("static_total", Json::U64(self.static_total)),
            ("tightness", Json::F64(self.tightness)),
        ])
    }
}

/// Cross-checks measured per-request delays from a campaign run against
/// the static bounds, in one pass over the successful run records (each
/// counts toward the first row of its scenario name).
///
/// Any observed `γ` above the cell's static term, or bus γ plus MC γ
/// above its flow bound, is a soundness violation. Every cell with a
/// finite static total and at least one successful run also gets a
/// [`CellTightness`] row.
pub fn check_measured(rows: &[CellStaticBound], result: &CampaignResult) -> MeasuredCheck {
    let mut worst: Vec<Option<u64>> = vec![None; rows.len()];
    let mut violations = Vec::new();
    for record in result.records.iter().filter(|r| r.is_ok()) {
        let Some((row, worst)) =
            rows.iter().zip(worst.iter_mut()).find(|(row, _)| row.cell == record.scenario)
        else {
            continue;
        };
        let checks = [
            ("bus", record.max_gamma, row.static_bus()),
            ("mc", record.max_gamma_mc, row.static_mc()),
        ];
        for (what, observed, bound) in checks {
            if let Some((observed, bound)) = observed.zip(bound).filter(|(o, b)| o > b) {
                violations.push(format!(
                    "measured {what} γ {observed} exceeds static bound {bound} on `{}` ({})",
                    record.scenario, record.label
                ));
            }
        }
        // The flow composition bounds the observed core's *total* worst
        // per-request delay across the topology, so the measured bus γ
        // plus MC γ must stay under it.
        let total = record.max_gamma.unwrap_or(0).saturating_add(record.max_gamma_mc.unwrap_or(0));
        if let Some(flow) = row.flow_total().filter(|&flow| total > flow) {
            violations.push(format!(
                "measured composed γ {total} exceeds flow bound {flow} on `{}` ({})",
                record.scenario, record.label
            ));
        }
        *worst = Some(worst.map_or(total, |w| w.max(total)));
    }
    let tightness = rows
        .iter()
        .zip(worst)
        .filter_map(|(row, measured)| {
            let (measured, static_total) = (measured?, row.static_total()?);
            let tightness = tightness_ratio(measured, static_total);
            Some(CellTightness { cell: row.cell.clone(), measured, static_total, tightness })
        })
        .collect();
    MeasuredCheck { tightness, violations }
}

/// How much of `bound` a `delay` realises: `delay / bound`, or `1.0`
/// for a zero bound (nothing to be pessimistic about).
pub fn tightness_ratio(delay: u64, bound: u64) -> f64 {
    if bound == 0 {
        1.0
    } else {
        delay as f64 / bound as f64
    }
}

/// One column of a bound table: its header, how it aligns, and its text
/// for one row.
pub(crate) struct Column<R> {
    header: &'static str,
    /// `None` left-aligns the column and fits it to its widest entry;
    /// `Some(w)` right-aligns it in at least `w` characters.
    width: Option<usize>,
    text: fn(&R) -> String,
}

impl<R> Column<R> {
    /// A left-aligned column as wide as its widest entry.
    pub(crate) fn fit(header: &'static str, text: fn(&R) -> String) -> Self {
        Column { header, width: None, text }
    }

    /// A right-aligned column at least `width` characters wide.
    pub(crate) fn right(header: &'static str, width: usize, text: fn(&R) -> String) -> Self {
        Column { header, width: Some(width), text }
    }
}

/// Renders `rows` as an aligned text table — one header line, one line
/// per row, columns two spaces apart, the last one unpadded — followed
/// by the `summary` line.
pub(crate) fn render_table<R>(columns: &[Column<R>], rows: &[R], summary: &str) -> String {
    let header = columns.iter().map(|c| c.header.to_string()).collect();
    let lines: Vec<Vec<String>> = std::iter::once(header)
        .chain(rows.iter().map(|r| columns.iter().map(|c| (c.text)(r)).collect()))
        .collect();
    let fit: Vec<usize> = (0..columns.len())
        .map(|i| lines.iter().filter_map(|line| line.get(i)).map(String::len).max().unwrap_or(0))
        .collect();
    let last = columns.len().saturating_sub(1);
    let mut out = String::new();
    for line in &lines {
        for (i, ((text, column), &fit)) in line.iter().zip(columns).zip(&fit).enumerate() {
            let sep = if i == 0 { "" } else { "  " };
            let _ = match column.width {
                _ if i == last => write!(out, "{sep}{text}"),
                None => write!(out, "{sep}{text:<fit$}"),
                Some(width) => write!(out, "{sep}{text:>width$}"),
            };
        }
        out.push('\n');
    }
    let _ = writeln!(out, "{summary}");
    out
}

/// A bound as table text: the number, or `unbounded`.
pub(crate) fn bound_text(bound: Option<u64>) -> String {
    bound.map_or_else(|| String::from("unbounded"), |b| b.to_string())
}

/// The `, N invalid` tail of a table's summary line; empty when every
/// cell's machine can be built.
pub(crate) fn invalid_tail(invalid: usize) -> String {
    if invalid == 0 {
        String::new()
    } else {
        format!(", {invalid} invalid")
    }
}

/// A static row's status: the machine's validation error when it cannot
/// be built, else its first violation, else `sound` when `finite`, else
/// the reason the bound is open.
fn status(r: &CellStaticBound, finite: bool) -> String {
    if let Some(reason) = &r.invalid {
        reason.clone()
    } else if let Some(v) = r.violation() {
        format!("UNSOUND: {v}")
    } else if finite {
        String::from("sound")
    } else {
        format!("unbounded: {}", r.bound.reason().unwrap_or("unknown"))
    }
}

/// Renders the rows as an aligned text table with a one-line verdict.
pub fn render_rows(rows: &[CellStaticBound]) -> String {
    let columns = [
        Column::fit("cell", |r: &CellStaticBound| r.cell.clone()),
        Column::right("truth", 5, |r| r.truth_total().to_string()),
        Column::right("stat(bus)", 9, |r| bound_text(r.static_bus())),
        Column::right("stat(mc)", 10, |r| bound_text(r.static_mc())),
        Column::right("stat(tot)", 9, |r| bound_text(r.static_total())),
        Column::right("arbiter", 12, |r| r.arbiter.clone()),
        Column::fit("status", |r| status(r, r.bound.is_finite())),
    ];
    let unsound = rows.iter().filter(|r| r.violation().is_some()).count();
    let invalid = rows.iter().filter(|r| r.invalid.is_some()).count();
    let unbounded = rows.iter().filter(|r| r.invalid.is_none() && !r.bound.is_finite()).count();
    let summary = format!(
        "{} cells: {} sound, {unbounded} unbounded, {unsound} UNSOUND{}",
        rows.len(),
        rows.len().saturating_sub(unsound + unbounded + invalid),
        invalid_tail(invalid),
    );
    render_table(&columns, rows, &summary)
}

/// Renders the rows with the interference-flow columns next to the
/// saturating sum (`rrb analyze --composed`): the flow-composed bus and
/// MC terms for the observed core, the composed total, and the provable
/// slack the saturating sum leaves on the table.
pub fn render_rows_composed(rows: &[CellStaticBound]) -> String {
    let columns = [
        Column::fit("cell", |r: &CellStaticBound| r.cell.clone()),
        Column::right("stat(tot)", 9, |r| bound_text(r.static_total())),
        Column::right("flow(bus)", 9, |r| bound_text(r.flow_bus())),
        Column::right("flow(mc)", 9, |r| bound_text(r.flow_mc())),
        Column::right("flow(tot)", 9, |r| bound_text(r.flow_total())),
        Column::right("slack", 9, |r| bound_text(r.flow_slack())),
        Column::right("s/f", 6, |r| match (r.static_total(), r.flow_total()) {
            (Some(s), Some(f)) if f > 0 => format!("{:.2}", s as f64 / f as f64),
            (Some(_), Some(0)) => String::from("inf"),
            _ => String::from("-"),
        }),
        Column::right("arbiter", 12, |r| r.arbiter.clone()),
        Column::fit("status", |r| status(r, r.composed.is_finite())),
    ];
    let total_slack: u64 = rows.iter().filter_map(CellStaticBound::flow_slack).sum();
    let summary = format!(
        "{} cells, {total_slack} cycles of provable slack attributed across the topology",
        rows.len()
    );
    render_table(&columns, rows, &summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignGrid, GridScenario};
    use rrb_kernels::AccessKind;
    use rrb_sim::ArbiterKind;

    fn toy_grid() -> CampaignGrid {
        CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
            .arbiters(vec![ArbiterKind::RoundRobin, ArbiterKind::FixedPriority, ArbiterKind::Fifo])
            .cores(vec![2, 4])
            .accesses(vec![AccessKind::Load])
            .contender_accesses(vec![AccessKind::Load])
            .iterations(vec![40])
            .max_k(8)
    }

    fn grid_rows(grid: &CampaignGrid) -> Vec<CellStaticBound> {
        grid.cells().iter().map(analyze_grid_cell).collect()
    }

    #[test]
    fn every_grid_cell_gets_a_finite_sound_bound() {
        let rows = grid_rows(&toy_grid());
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.bound.is_finite(), "cell `{}` must not be refused", row.cell);
            assert_eq!(row.violation(), None, "cell `{}` must dominate truth", row.cell);
        }
    }

    #[test]
    fn round_robin_cells_match_eq1_exactly() {
        let rows = grid_rows(&toy_grid());
        let rr4 = rows.iter().find(|r| r.cell.contains("/rr/c4/")).expect("rr c4 cell");
        assert_eq!(rr4.static_total(), Some(6));
        assert_eq!(rr4.truth_total(), 6);
    }

    #[test]
    fn fixed_priority_cells_use_the_window_bound() {
        let rows = grid_rows(&toy_grid());
        let fp4 = rows.iter().find(|r| r.cell.contains("/fp/c4/")).expect("fp c4 cell");
        let total = fp4.static_total().expect("finite via run window");
        assert!(total >= fp4.truth_total());
    }

    #[test]
    fn composed_flow_shaves_the_lookup_cycle_on_rr_cells() {
        let rows = grid_rows(&toy_grid());
        let rr4 = rows.iter().find(|r| r.cell.contains("/rr/c4/")).expect("rr c4 cell");
        // The classified scua has a proven request gap, so the observed
        // core's flow bound drops the request cycle: (4-1)*2 - 1.
        assert_eq!(rr4.flow_total(), Some(5), "{:?}", rr4.composed);
        assert_eq!(rr4.flow_slack(), Some(1));
        assert_eq!(rr4.static_total(), Some(6), "the saturating sum is untouched");
    }

    #[test]
    fn composed_flow_zeroes_the_mc_term_when_the_bus_serialises_arrivals() {
        let mut cfg = MachineConfig::toy(4, 2);
        cfg.topology.mc =
            Some(rrb_sim::McQueueConfig { service_occupancy: 2, arbiter: ArbiterKind::Fifo });
        let grid = CampaignGrid::new(GridScenario::Derive, cfg)
            .arbiters(vec![ArbiterKind::RoundRobin])
            .cores(vec![4])
            .accesses(vec![AccessKind::Load])
            .contender_accesses(vec![AccessKind::Load])
            .iterations(vec![40])
            .max_k(8);
        let rows = grid_rows(&grid);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.static_total(), Some(12), "saturating: bus 6 + mc 6");
        assert_eq!(
            row.flow_mc(),
            Some(0),
            "transfer occupancy covers the service: {:?}",
            row.composed
        );
        assert_eq!(row.flow_total(), Some(5), "{:?}", row.composed);
        assert_eq!(row.violation(), None);
        let text = render_rows_composed(&rows);
        assert!(text.contains("flow(tot)"), "{text}");
    }

    #[test]
    fn analyze_spec_covers_grid_and_workloads() {
        let spec = ExperimentSpec::from_grid("toy", &toy_grid());
        let rows = analyze_spec(&spec);
        assert_eq!(rows.len(), 6);
        let text = render_rows(&rows);
        assert!(text.contains("6 cells: 6 sound, 0 unbounded, 0 UNSOUND"), "summary: {text}");
    }
}
