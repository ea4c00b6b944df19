//! Exact worst-case delays per campaign cell: the bridge between the
//! bounded model checker ([`rrb_static::verify`]) and the campaign
//! layer, plus replay of the checker's adversarial witnesses on the full
//! simulator.
//!
//! This module is the exact half of the bound ladder
//! `measured ≤ exact ≤ observed ≤ static ≥ truth` (with `flow ≤ sum`).
//! Each cell is expanded and profiled once, by the same per-cell function
//! [`crate::analyze`] uses, and the checker searches exactly the envelope
//! profiles the cell's static row was built from:
//!
//! * **static / observed / flow** — the analytic row
//!   ([`CellStaticBound`]): sound by construction, possibly pessimistic.
//! * **exact** — the bounded-exhaustive worst case over all request
//!   alignments of the abstract single-resource model
//!   ([`rrb_static::exact_bounds`]). `exact ≤ observed ≤ static` is a
//!   theorem the checker re-proves per cell (where *observed* is core
//!   0's own static bound with the request-cycle tightenings);
//!   `exact / observed` is the **tightness certificate** — how much of
//!   the observed core's static bound is actually reachable.
//! * **measured** — what the cycle-accurate simulator observes when the
//!   checker's witness alignment is synthesised into a concrete workload
//!   ([`RunSpec::from_witness`]) and replayed. This is how the measured
//!   derivation finally covers `fp`/`fifo`: the methodology's saw-tooth
//!   refuses those arbiters, but a witness replay needs no period — it
//!   just runs the adversarial schedule and reads the worst γ off the
//!   PMCs.
//!
//! [`VerifiedCell::violations`] is the one chain check: the static row's
//! links, then the exact links.
//!
//! The replay sweeps the scua's nop padding over one rotation period
//! (the §4 argument: alignment is controlled modulo the period, so some
//! padding in `0..=period` lands the observed request in the witness's
//! alignment class) and keeps the worst measured delay. `measured ≤
//! exact` then becomes a machine-checkable soundness obligation of the
//! abstract model itself — enforced by `rrb verify --check-runs` and the
//! `prop_verify_exact` property test.

use crate::analyze::{
    bound_text, invalid_tail, render_table, tightness_ratio, CellPrograms, CellStaticBound, Column,
};
use crate::campaign::{CampaignGrid, GridCell, RunSpec};
use crate::executor::MachineArena;
use crate::json::Json;
use crate::spec::{ExperimentSpec, WorkloadCase};
use rrb_sim::{MachineConfig, ResourceKind};
use rrb_static::{exact_bounds, ExactBound, VerifyOptions, Witness};

/// One verified campaign cell: the static bound, the exact bound per
/// resource, and the machine configuration needed to replay witnesses.
#[derive(Debug, Clone)]
pub struct VerifiedCell {
    /// The static-analysis row for the same cell.
    pub statics: CellStaticBound,
    /// The cell's machine configuration (for witness replay).
    pub cfg: MachineConfig,
    /// Exact bounds, one per shared resource on the request path.
    pub exact: Vec<ExactBound>,
}

impl VerifiedCell {
    /// The exact bus bound (`None` when the observed core starves).
    pub fn exact_bus(&self) -> Option<u64> {
        self.exact_for(ResourceKind::Bus)
    }

    /// The exact MC bound (`Some(0)` for single-level topologies).
    pub fn exact_mc(&self) -> Option<u64> {
        self.exact_for(ResourceKind::MemoryController)
    }

    /// The exact bound for `kind` (`Some(0)` for a resource the topology
    /// lacks).
    fn exact_for(&self, kind: ResourceKind) -> Option<u64> {
        self.exact.iter().find(|r| r.resource == kind).map_or(Some(0), |r| r.exact)
    }

    /// The composed exact total; `None` when any resource starves.
    pub fn exact_total(&self) -> Option<u64> {
        Some(self.exact_bus()?.saturating_add(self.exact_mc()?))
    }

    /// The tightness certificate `exact_total / observed_total` — the
    /// fraction of the *observed core's* static bound that is actually
    /// reachable by some alignment. The checker bounds core 0, so core
    /// 0's bound (which folds in the request-cycle tightenings) is the
    /// right denominator; dividing by the machine-wide total would
    /// penalise the certificate for pessimism that only applies to
    /// contender cores. `None` when either total is unbounded; `1.0`
    /// when the observed total is zero (nothing to be pessimistic
    /// about).
    pub fn tightness(&self) -> Option<f64> {
        Some(tightness_ratio(self.exact_total()?, self.statics.observed_total()?))
    }

    /// Every failing link of the cell's bound chain: the static row's
    /// links (`truth ≤ static`, `flow ≤ sum`, see
    /// [`CellStaticBound::violations`]), then `exact ≤ observed-core
    /// static ≤ machine-wide static` per resource and in total. Empty
    /// means the static model dominates both the truth and the
    /// exhaustive search, and the flow composition never exceeds the sum
    /// it claims to tighten.
    ///
    /// Note there is deliberately **no** `exact_total ≤ flow_total`
    /// check: the exact MC term is the single-resource worst case under
    /// unconstrained arrivals, while the flow MC term exploits bus
    /// serialisation — the abstract exact sum can legitimately exceed
    /// the flow composition (that is exactly the pessimism flow
    /// removes).
    pub fn violations(&self) -> Vec<String> {
        let s = &self.statics;
        // (resource, or `None` for the total; exact; bound name; bound)
        let per_resource = self.exact.iter().flat_map(|row| {
            let kind = row.resource;
            [
                (Some(kind), row.exact, "static bound", s.static_for(kind)),
                (Some(kind), row.exact, "observed-core bound", s.observed_for(kind)),
            ]
        });
        let total = [
            (None, self.exact_total(), "static total", s.static_total()),
            (None, self.exact_total(), "observed-core total", s.observed_total()),
        ];
        let mut out = s.violations();
        out.extend(per_resource.chain(total).filter_map(|(kind, exact, bound_name, bound)| {
            let (exact, bound) = exact.zip(bound).filter(|(e, b)| e > b)?;
            let what = kind.map_or_else(|| String::from("total"), |k| format!("{k} delay"));
            Some(format!("exact {what} {exact} exceeds {bound_name} {bound} on `{}`", s.cell))
        }));
        out
    }

    /// Total alignments simulated across this cell's resources.
    pub fn explored(&self) -> u64 {
        self.exact.iter().map(|r| r.explored).sum()
    }

    /// Total alignments pruned by symmetry across this cell's resources.
    pub fn pruned(&self) -> u64 {
        self.exact.iter().map(|r| r.pruned).sum()
    }

    /// The row as a JSON object (one line of `rrb verify --format json`
    /// and one element of `BENCH_verify.json`).
    pub fn to_json(&self) -> Json {
        let resources = self
            .exact
            .iter()
            .map(|r| {
                let statics = self.statics.static_for(r.resource);
                let witness = r.witness.as_ref().map(|w| {
                    Json::obj(vec![
                        ("observed_gap", Json::U64(w.observed_gap)),
                        ("delay", Json::U64(w.delay)),
                        ("horizon", Json::U64(w.horizon)),
                        (
                            "contenders",
                            Json::Arr(
                                w.requesting_contenders()
                                    .into_iter()
                                    .map(|c| Json::U64(c as u64))
                                    .collect(),
                            ),
                        ),
                    ])
                });
                Json::obj(vec![
                    ("resource", Json::str(r.resource.to_string())),
                    ("occupancy", Json::U64(r.occupancy)),
                    ("static", Json::option(statics, Json::U64)),
                    ("exact", Json::option(r.exact, Json::U64)),
                    ("explored", Json::U64(r.explored)),
                    ("pruned", Json::U64(r.pruned)),
                    ("witness", witness.unwrap_or(Json::Null)),
                    ("reason", Json::option(r.reason.clone(), Json::Str)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("cell", Json::str(self.statics.cell.clone())),
            ("num_cores", Json::U64(self.statics.num_cores as u64)),
            ("arbiter", Json::str(self.statics.arbiter.clone())),
            ("static_total", Json::option(self.statics.static_total(), Json::U64)),
            ("observed_total", Json::option(self.statics.observed_total(), Json::U64)),
            ("flow_total", Json::option(self.statics.flow_total(), Json::U64)),
            ("flow_slack", Json::option(self.statics.flow_slack(), Json::U64)),
            ("exact_total", Json::option(self.exact_total(), Json::U64)),
            ("tightness", Json::option(self.tightness(), Json::F64)),
            ("explored", Json::U64(self.explored())),
            ("pruned", Json::U64(self.pruned())),
            ("sound", Json::Bool(self.violations().is_empty())),
            ("resources", Json::Arr(resources)),
        ])
    }
}

/// Verifies one expanded cell: its static row plus exact bounds over
/// the envelope profiles that row was built from.
fn verify_cell(cell: CellPrograms, opts: &VerifyOptions) -> VerifiedCell {
    let (statics, envelope) = cell.bound();
    let mut exact = exact_bounds(&cell.cfg, &envelope, opts);
    // An invalid cell has no profiles, so the search above found nothing
    // to delay; its rows are opened like its static terms.
    if let Some(reason) = &statics.invalid {
        for row in &mut exact {
            (row.exact, row.witness, row.reason) = (None, None, Some(reason.clone()));
        }
    }
    VerifiedCell { statics, cfg: cell.cfg, exact }
}

/// Verifies one expanded grid cell.
pub fn verify_grid_cell(cell: &GridCell, opts: &VerifyOptions) -> VerifiedCell {
    verify_cell(CellPrograms::grid(cell), opts)
}

/// Verifies one workload case on `machine`.
pub fn verify_workload(
    machine: &MachineConfig,
    case: &WorkloadCase,
    opts: &VerifyOptions,
) -> VerifiedCell {
    verify_cell(CellPrograms::workload(machine, case), opts)
}

/// Verifies every cell a spec would run, in campaign enumeration order —
/// row for row the cells [`crate::analyze::analyze_spec`] bounds.
pub fn verify_spec(spec: &ExperimentSpec, opts: &VerifyOptions) -> Vec<VerifiedCell> {
    CellPrograms::of_spec(spec).map(|cell| verify_cell(cell, opts)).collect()
}

/// Verifies every cell of a [`CampaignGrid`] directly.
pub fn verify_grid(grid: &CampaignGrid, opts: &VerifyOptions) -> Vec<VerifiedCell> {
    grid.cells().iter().map(|cell| verify_grid_cell(cell, opts)).collect()
}

/// The outcome of replaying one witness on the full simulator.
#[derive(Debug, Clone)]
pub struct WitnessReplay {
    /// Cell the witness belongs to.
    pub cell: String,
    /// The resource the witness attacks.
    pub resource: ResourceKind,
    /// The exact worst-case delay the witness certifies.
    pub exact: u64,
    /// Worst measured γ at the resource across the padding sweep.
    pub measured: Option<u64>,
    /// The nop padding that realised the worst measured γ.
    pub best_nops: Option<u64>,
    /// Runs executed (one per padding value).
    pub runs: usize,
    /// Per-run errors, if any (label plus cause).
    pub errors: Vec<String>,
}

impl WitnessReplay {
    /// `measured / exact` — how much of the exhaustive worst case the
    /// cycle-accurate machine reproduces. `1.0` when `exact` is zero.
    pub fn tightness(&self) -> Option<f64> {
        Some(tightness_ratio(self.measured?, self.exact))
    }

    /// A soundness violation of the abstract model: the real machine
    /// measured a delay *above* the exhaustive worst case.
    pub fn violation(&self) -> Option<String> {
        let measured = self.measured?;
        if measured > self.exact {
            Some(format!(
                "measured {} γ {measured} exceeds exact bound {} on `{}`",
                self.resource, self.exact, self.cell
            ))
        } else {
            None
        }
    }

    /// The replay row as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cell", Json::str(self.cell.clone())),
            ("resource", Json::str(self.resource.to_string())),
            ("exact", Json::U64(self.exact)),
            ("measured", Json::option(self.measured, Json::U64)),
            ("tightness", Json::option(self.tightness(), Json::F64)),
            ("best_nops", Json::option(self.best_nops, Json::U64)),
            ("runs", Json::U64(self.runs as u64)),
            ("errors", Json::Arr(self.errors.iter().cloned().map(Json::str).collect())),
        ])
    }
}

/// Replays one witness: synthesises [`RunSpec::from_witness`] for every
/// nop padding in `0..=period` (one rotation period of the witness's
/// arbiter — the §4 coverage argument) and keeps the worst measured γ at
/// the witness resource.
pub fn replay_witness(
    cell: &str,
    cfg: &MachineConfig,
    witness: &Witness,
    iterations: u64,
) -> WitnessReplay {
    let period = (witness.num_cores as u64).saturating_mul(witness.occupancy.max(1));
    let mut measured: Option<u64> = None;
    let mut best_nops = None;
    let mut errors = Vec::new();
    let mut runs = 0;
    // One warm machine replays every nop offset: the specs differ only in
    // their programs, so each run is a reset, not a rebuild.
    let mut arena = MachineArena::new();
    for nops in 0..=period {
        let label = format!("{cell}/witness-{}/k{nops}", witness.resource);
        let spec = RunSpec::from_witness(label.clone(), cfg.clone(), witness, nops, iterations);
        runs += 1;
        match arena.execute(&spec) {
            Ok(m) => {
                let gamma = match witness.resource {
                    ResourceKind::Bus => m.max_gamma(),
                    ResourceKind::MemoryController => m.max_gamma_mc(),
                };
                if let Some(gamma) = gamma {
                    if measured.is_none_or(|best| gamma > best) {
                        measured = Some(gamma);
                        best_nops = Some(nops);
                    }
                }
            }
            Err(e) => errors.push(format!("{label}: {e}")),
        }
    }
    WitnessReplay {
        cell: cell.to_string(),
        resource: witness.resource,
        exact: witness.delay,
        measured,
        best_nops,
        runs,
        errors,
    }
}

/// Replays every witness a verified cell carries.
pub fn replay_cell_witnesses(cell: &VerifiedCell, iterations: u64) -> Vec<WitnessReplay> {
    cell.exact
        .iter()
        .filter_map(|row| row.witness.as_ref())
        .map(|w| replay_witness(&cell.statics.cell, &cell.cfg, w, iterations))
        .collect()
}

/// Renders verified cells as an aligned text table with a one-line
/// verdict, through the same renderer as [`crate::analyze::render_rows`].
pub fn render_verified(rows: &[VerifiedCell]) -> String {
    let columns = [
        Column::fit("cell", |r: &VerifiedCell| r.statics.cell.clone()),
        Column::right("exact(bus)", 10, |r| bound_text(r.exact_bus())),
        Column::right("exact(mc)", 9, |r| bound_text(r.exact_mc())),
        Column::right("stat(tot)", 9, |r| bound_text(r.statics.static_total())),
        Column::right("obs(tot)", 8, |r| bound_text(r.statics.observed_total())),
        Column::right("flow(tot)", 9, |r| bound_text(r.statics.flow_total())),
        Column::right("exact(tot)", 9, |r| bound_text(r.exact_total())),
        Column::right("tight", 8, |r| {
            r.tightness().map_or_else(|| String::from("-"), |t| format!("{t:.3}"))
        }),
        Column::right("arbiter", 12, |r| r.statics.arbiter.clone()),
        Column::fit("status", |r| {
            if let Some(reason) = &r.statics.invalid {
                reason.clone()
            } else if let Some(v) = r.violations().first() {
                format!("UNSOUND: {v}")
            } else if r.exact_total().is_some() {
                String::from("exact")
            } else {
                let reason = r.exact.iter().find_map(|row| row.reason.as_deref());
                format!("unbounded: {}", reason.unwrap_or("unknown"))
            }
        }),
    ];
    let unsound = rows.iter().filter(|r| !r.violations().is_empty()).count();
    let invalid = rows.iter().filter(|r| r.statics.invalid.is_some()).count();
    let unbounded =
        rows.iter().filter(|r| r.statics.invalid.is_none() && r.exact_total().is_none()).count();
    let explored: u64 = rows.iter().map(VerifiedCell::explored).sum();
    let pruned: u64 = rows.iter().map(VerifiedCell::pruned).sum();
    let summary = format!(
        "{} cells: {} exact, {unbounded} unbounded, {unsound} UNSOUND{} \
         ({explored} alignments explored, {pruned} pruned)",
        rows.len(),
        rows.len().saturating_sub(unsound + unbounded + invalid),
        invalid_tail(invalid),
    );
    render_table(&columns, rows, &summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignGrid, GridScenario};
    use rrb_kernels::AccessKind;
    use rrb_sim::{ArbiterKind, McQueueConfig};

    fn toy_grid() -> CampaignGrid {
        CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
            .arbiters(vec![ArbiterKind::RoundRobin, ArbiterKind::FixedPriority, ArbiterKind::Fifo])
            .cores(vec![2, 4])
            .accesses(vec![AccessKind::Load])
            .contender_accesses(vec![AccessKind::Load])
            .iterations(vec![40])
            .max_k(8)
    }

    #[test]
    fn every_toy_cell_verifies_sound_and_exact() {
        let rows = verify_grid(&toy_grid(), &VerifyOptions::default());
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert!(row.violations().is_empty(), "cell `{}`", row.statics.cell);
            assert!(row.exact_total().is_some(), "cell `{}`", row.statics.cell);
            assert!(row.explored() > 0, "cell `{}`", row.statics.cell);
        }
    }

    #[test]
    fn round_robin_certificate_exposes_the_lookup_cycle() {
        let rows = verify_grid(&toy_grid(), &VerifyOptions::default());
        let rr4 = rows.iter().find(|r| r.statics.cell.contains("/rr/c4/")).expect("rr c4");
        // The Eq. 1 envelope is 6, but a load kernel's repost gap is at
        // least the DL1 lookup, so the reachable worst case is one
        // lower. The observed-core static bound proves exactly that
        // shave, so the certificate against it is perfect.
        assert_eq!(rr4.exact_total(), Some(5));
        assert_eq!(rr4.statics.static_total(), Some(6));
        assert_eq!(rr4.statics.observed_total(), Some(5));
        let tight = rr4.tightness().expect("finite");
        assert!((tight - 1.0).abs() < 1e-9, "exact == observed for rr: {tight}");
    }

    #[test]
    fn fixed_priority_certifies_a_much_tighter_exact_bound() {
        let rows = verify_grid(&toy_grid(), &VerifyOptions::default());
        let fp4 = rows.iter().find(|r| r.statics.cell.contains("/fp/c4/")).expect("fp c4");
        // Core 0 is highest priority: only blocking (L - 1) is
        // reachable, and the observed-core bound proves it statically —
        // the machine-wide total stays far above both.
        assert_eq!(fp4.exact_bus(), Some(1));
        let observed = fp4.statics.observed_total().expect("finite observed");
        let statics = fp4.statics.static_total().expect("finite static");
        assert!(observed < statics, "fp observed {observed} should undercut static {statics}");
        let tight = fp4.tightness().expect("finite");
        assert!((tight - 1.0).abs() < 1e-9, "exact == observed for top-priority fp: {tight}");
    }

    #[test]
    fn witness_replay_reaches_the_exact_bound_for_rr() {
        let rows = verify_grid(&toy_grid(), &VerifyOptions::default());
        let rr4 = rows.iter().find(|r| r.statics.cell.contains("/rr/c4/")).expect("rr c4");
        let replays = replay_cell_witnesses(rr4, 40);
        assert_eq!(replays.len(), 1);
        let replay = &replays[0];
        assert!(replay.errors.is_empty(), "{:?}", replay.errors);
        assert_eq!(replay.violation(), None);
        assert_eq!(replay.measured, Some(replay.exact), "measured must hit exact for rr");
    }

    #[test]
    fn witness_replay_covers_fifo_which_the_methodology_refuses() {
        let rows = verify_grid(&toy_grid(), &VerifyOptions::default());
        let fifo4 = rows.iter().find(|r| r.statics.cell.contains("/fifo/c4/")).expect("fifo c4");
        let replays = replay_cell_witnesses(fifo4, 40);
        let replay = &replays[0];
        assert!(replay.errors.is_empty(), "{:?}", replay.errors);
        assert_eq!(replay.violation(), None);
        let measured = replay.measured.expect("fifo replay must measure");
        assert!(measured >= 1, "fifo replay must observe contention, got {measured}");
    }

    #[test]
    fn two_level_cells_verify_both_resources() {
        let mut cfg = MachineConfig::toy(4, 2);
        cfg.topology.mc = Some(McQueueConfig { service_occupancy: 2, arbiter: ArbiterKind::Fifo });
        let grid = CampaignGrid::new(GridScenario::Derive, cfg)
            .arbiters(vec![ArbiterKind::RoundRobin])
            .cores(vec![4])
            .iterations(vec![40])
            .max_k(8);
        let rows = verify_grid(&grid, &VerifyOptions::default());
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.exact.len(), 2);
        assert!(row.violations().is_empty());
        assert!(row.exact_mc().expect("mc exact") > 0);
    }

    #[test]
    fn a_static_bound_below_truth_breaks_the_chain() {
        let mut cell = verify_grid(&toy_grid(), &VerifyOptions::default()).swap_remove(0);
        assert!(cell.violations().is_empty(), "{:?}", cell.violations());
        cell.statics.truth_bus = cell.statics.static_total().expect("finite") + 1;
        let violations = cell.violations();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("< analytic truth"), "{violations:?}");
        let text = render_verified(&[cell]);
        assert!(text.contains("UNSOUND: static bound"), "{text}");
        assert!(text.contains("1 cells: 0 exact, 0 unbounded, 1 UNSOUND"), "{text}");
    }

    #[test]
    fn an_exact_bound_above_static_breaks_every_exact_link() {
        let mut cell = verify_grid(&toy_grid(), &VerifyOptions::default()).swap_remove(0);
        let name = cell.statics.cell.clone();
        cell.exact[0].exact = Some(100);
        // Single-bus cell: the bus terms are the totals.
        let stat = cell.statics.static_total().expect("finite");
        let obs = cell.statics.observed_total().expect("finite");
        assert_eq!(
            cell.violations(),
            [
                format!("exact bus delay 100 exceeds static bound {stat} on `{name}`"),
                format!("exact bus delay 100 exceeds observed-core bound {obs} on `{name}`"),
                format!("exact total 100 exceeds static total {stat} on `{name}`"),
                format!("exact total 100 exceeds observed-core total {obs} on `{name}`"),
            ]
        );
    }

    #[test]
    fn render_and_json_carry_the_certificate() {
        let rows = verify_grid(&toy_grid(), &VerifyOptions::default());
        let text = render_verified(&rows);
        assert!(text.contains("6 cells: 6 exact, 0 unbounded, 0 UNSOUND"), "{text}");
        let json = rows[0].to_json().render_pretty();
        assert!(json.contains("\"tightness\""), "{json}");
        assert!(json.contains("\"sound\": true"), "{json}");
    }

    #[test]
    fn cells_whose_machine_cannot_be_built_are_reported_invalid() {
        let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::ngmp_ref())
            .cores(vec![3, 5])
            .max_k(8);
        let spec = ExperimentSpec::from_grid("ngmp", &grid);
        let verified = verify_spec(&spec, &VerifyOptions::default());
        let rows = crate::analyze::analyze_spec(&spec);
        assert_eq!(rows, verified.iter().map(|v| v.statics.clone()).collect::<Vec<_>>());
        let (c3, c5) = (&verified[0], &verified[1]);
        assert_eq!(c3.statics.invalid, None);
        assert_eq!(c3.exact_total(), Some(17), "{:?}", c3.exact);
        let error = "invalid machine: invalid cache geometry: l2.partition: size 52428 is not a \
                     multiple of ways*line = 32";
        assert_eq!(c5.statics.invalid.as_deref(), Some(error));
        assert_eq!(c5.statics.static_total(), None, "an invalid cell is never bounded");
        assert_eq!(c5.statics.flow_total(), None);
        assert_eq!(c5.exact_total(), None);
        assert!(c5.violations().is_empty(), "{:?}", c5.violations());
        assert_eq!(c5.explored(), 0, "no alignment of an invalid machine is searched");

        let analyzed = crate::analyze::render_rows(&rows);
        assert!(analyzed.contains(error), "{analyzed}");
        assert!(analyzed.ends_with("2 cells: 1 sound, 0 unbounded, 0 UNSOUND, 1 invalid\n"));
        let text = render_verified(&verified);
        assert!(text.contains(error), "{text}");
        assert!(text.contains("2 cells: 1 exact, 0 unbounded, 0 UNSOUND, 1 invalid ("), "{text}");
    }
}
