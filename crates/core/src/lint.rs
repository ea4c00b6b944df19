//! Static semantic checks on experiment specs (`rrb lint`).
//!
//! A spec can parse and validate yet still describe an experiment that
//! silently measures nothing: a TDMA slot the worst bus transaction never
//! fits (every request starves), a grid axis left empty (zero cells), a
//! nop sweep too short to cover two saw-tooth periods, a finite contender
//! that falls silent halfway through the scua. This pass catches those
//! before any cycle is simulated; CI runs it over every checked-in spec.
//!
//! Findings carry the same dotted field paths as [`SpecError::Field`]
//! diagnostics (e.g. `grid.cores`, `workloads[0].contenders[2]`), so a
//! finding always points at the exact field to fix.
//!
//! [`SpecError::Field`]: crate::spec::SpecError

use crate::json::Json;
use crate::spec::{ExperimentSpec, GridSpec};
use rrb_kernels::{rsk, AccessKind, KernelSpec};
use rrb_sim::{ArbiterKind, CoreId, MachineConfig};
use rrb_static::{classified_profile, compose_flow, steady_state_silent};
use std::fmt;
use std::fmt::Write as _;

/// How bad a lint finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintSeverity {
    /// The experiment cannot produce a meaningful result.
    Error,
    /// The experiment runs but likely does not measure what was intended.
    Warning,
}

impl fmt::Display for LintSeverity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintSeverity::Error => write!(f, "error"),
            LintSeverity::Warning => write!(f, "warning"),
        }
    }
}

/// One lint finding: a severity, the dotted path of the offending field,
/// and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Error or warning.
    pub severity: LintSeverity,
    /// Dotted field path (e.g. `grid.methodology.max_k`).
    pub path: String,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: spec field `{}`: {}", self.severity, self.path, self.message)
    }
}

impl LintFinding {
    /// The finding as a JSON object (one NDJSON line of
    /// `rrb lint --format json`).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("severity", Json::str(self.severity.to_string())),
            ("path", Json::str(self.path.clone())),
            ("message", Json::str(self.message.clone())),
        ])
    }
}

/// Whether any finding is an error (the CLI's exit criterion).
pub fn has_errors(findings: &[LintFinding]) -> bool {
    findings.iter().any(|f| f.severity == LintSeverity::Error)
}

/// Renders findings one per line, with a closing summary line.
pub fn render_findings(findings: &[LintFinding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
    }
    let errors = findings.iter().filter(|f| f.severity == LintSeverity::Error).count();
    let _ = writeln!(
        out,
        "{} findings ({} errors, {} warnings)",
        findings.len(),
        errors,
        findings.len() - errors
    );
    out
}

struct Linter {
    findings: Vec<LintFinding>,
}

impl Linter {
    fn error(&mut self, path: impl Into<String>, message: impl Into<String>) {
        self.findings.push(LintFinding {
            severity: LintSeverity::Error,
            path: path.into(),
            message: message.into(),
        });
    }

    fn warning(&mut self, path: impl Into<String>, message: impl Into<String>) {
        self.findings.push(LintFinding {
            severity: LintSeverity::Warning,
            path: path.into(),
            message: message.into(),
        });
    }
}

fn worst_bus_occupancy(machine: &MachineConfig) -> u64 {
    let bus = &machine.topology.bus;
    bus.l2_hit_occupancy.max(bus.transfer_occupancy).max(bus.store_occupancy)
}

/// Checks one arbiter's compatibility with the machine and the largest
/// swept core count.
fn lint_arbiter(
    lint: &mut Linter,
    path: &str,
    arbiter: ArbiterKind,
    machine: &MachineConfig,
    max_cores: usize,
) {
    match arbiter {
        ArbiterKind::Tdma { slot_cycles } => {
            let worst = worst_bus_occupancy(machine);
            if slot_cycles < worst {
                lint.error(
                    path,
                    format!(
                        "tdma slot {slot_cycles} is shorter than the worst bus occupancy \
                         {worst}; the arbiter only grants requests that fit the remaining \
                         slot, so those transactions starve forever"
                    ),
                );
            }
        }
        ArbiterKind::GroupedRoundRobin { group_size } => {
            if group_size == 0 {
                lint.error(path, "grouped round-robin group size must be at least 1");
            } else if group_size >= max_cores && max_cores > 0 {
                lint.warning(
                    path,
                    format!(
                        "group size {group_size} covers every swept core count (max \
                         {max_cores}); the arbiter degenerates to plain round-robin"
                    ),
                );
            }
        }
        _ => {}
    }
}

/// Flags a topology whose saturating sum is more than 2x the flow
/// composition under the canonical derive workload (a classified rsk
/// load kernel on every core): any per-resource sum reported against
/// this machine carries that much provable pessimism, so consumers
/// should read the flow columns (`rrb analyze --composed`) instead.
fn lint_composed_slack(lint: &mut Linter, machine: &MachineConfig) {
    if machine.num_cores < 2 {
        return;
    }
    let profiles: Vec<_> = (0..machine.num_cores)
        .map(|c| {
            let prog = rsk(AccessKind::Load, machine, CoreId::new(c));
            classified_profile(&prog, machine, CoreId::new(c))
        })
        .collect();
    let composed = compose_flow(machine, &profiles);
    if let (Some(flow), Some(sum)) = (composed.flow_total(), composed.sum_total()) {
        if flow.saturating_mul(2) < sum {
            lint.warning(
                "machine.topology",
                format!(
                    "composed_slack: the saturating sum ({sum} cycles) is more than 2x \
                     the flow-composed bound ({flow} cycles) on this topology; the bus \
                     serialises memory-controller arrivals, so per-resource sums carry \
                     {} provably unreachable cycles — read the flow columns \
                     (`rrb analyze --composed`)",
                    sum - flow
                ),
            );
        }
    }
}

fn lint_kernel(lint: &mut Linter, path: &str, kernel: &KernelSpec, machine: &MachineConfig) {
    if let Err(e) = kernel.try_build(machine, CoreId::new(0)) {
        lint.error(path, format!("kernel cannot be built for this machine: {e}"));
    }
}

/// Runs every lint check over `spec`. An empty result means the spec is
/// clean; [`has_errors`] decides pass/fail.
pub fn lint_spec(spec: &ExperimentSpec) -> Vec<LintFinding> {
    let mut lint = Linter { findings: Vec::new() };
    let machine = &spec.machine;

    if spec.name.trim().is_empty() {
        lint.error("name", "experiment name is empty");
    }

    // ---- machine ------------------------------------------------------
    if machine.num_cores < 2 && spec.grid.is_none() {
        lint.warning(
            "machine.num_cores",
            "a single core has no contenders; every measured delay will be zero",
        );
    }
    lint_arbiter(
        &mut lint,
        "machine.topology.bus.arbiter",
        machine.topology.bus.arbiter,
        machine,
        machine.num_cores,
    );
    if let Some(mc) = &machine.topology.mc {
        if let ArbiterKind::Tdma { slot_cycles } = mc.arbiter {
            if slot_cycles < mc.service_occupancy {
                lint.error(
                    "machine.topology.mc.arbiter",
                    format!(
                        "tdma slot {slot_cycles} is shorter than the controller service \
                         occupancy {}; admissions starve forever",
                        mc.service_occupancy
                    ),
                );
            }
        }
    }
    lint_composed_slack(&mut lint, machine);

    // ---- grid ---------------------------------------------------------
    if let Some(grid) = &spec.grid {
        let axes: [(&str, usize); 5] = [
            ("grid.arbiters", grid.arbiters.len()),
            ("grid.cores", grid.cores.len()),
            ("grid.accesses", grid.accesses.len()),
            ("grid.contender_accesses", grid.contender_accesses.len()),
            ("grid.iterations", grid.iterations.len()),
        ];
        for (path, len) in axes {
            if len == 0 {
                lint.error(path, "dangling grid axis: an empty list expands to zero cells");
            }
        }
        let max_cores = grid.cores.iter().copied().max().unwrap_or(0);
        // A core count changes the cell machine's L2 partition, so it can
        // break a template that validates: every cell it spans would fail.
        // (A template that fails on its own is the loader's error.)
        let template_valid = machine.validate().is_ok();
        for (i, &cores) in grid.cores.iter().enumerate() {
            let cell = GridSpec::cell_machine(machine, machine.topology.bus.arbiter, cores);
            let invalid = cell.validate().err().filter(|_| template_valid);
            if cores == 0 {
                lint.error(format!("grid.cores[{i}]"), "a zero-core machine cannot run");
            } else if let Some(e) = invalid {
                lint.error(
                    format!("grid.cores[{i}]"),
                    format!("cells with {cores} cores cannot be built: {e}"),
                );
            } else if cores == 1 {
                lint.warning(
                    format!("grid.cores[{i}]"),
                    "a single core has no contenders; the cell measures nothing",
                );
            }
        }
        for (i, &arbiter) in grid.arbiters.iter().enumerate() {
            lint_arbiter(&mut lint, &format!("grid.arbiters[{i}]"), arbiter, machine, max_cores);
        }
        for (i, &iters) in grid.iterations.iter().enumerate() {
            if iters == 0 {
                lint.error(
                    format!("grid.iterations[{i}]"),
                    "zero iterations: the scua never requests",
                );
            }
        }

        // Measurement-window sanity: the nop sweep must cover at least two
        // saw-tooth periods (the period equals the bus term of the bound)
        // for the period matcher to have two anchor points (§4.1).
        let worst = worst_bus_occupancy(machine);
        let period = (max_cores.saturating_sub(1) as u64).saturating_mul(worst);
        if period > 0 && (grid.max_k as u64) < 2 * period {
            lint.warning(
                "grid.max_k",
                format!(
                    "nop sweep tops out at {} but one saw-tooth period can reach {period} \
                     cycles; cover at least two periods ({}) for the matcher to lock on",
                    grid.max_k,
                    2 * period
                ),
            );
        }
        // The template's access kinds, iterations and max_k never reach a
        // run: every derive cell overrides them from the grid axes.
        let m = &grid.methodology;
        if m.calibration_iterations == 0 {
            lint.error(
                "grid.methodology.calibration_iterations",
                "zero calibration iterations: δ_nop cannot be measured",
            );
        }
        if !(m.min_bus_utilization > 0.0 && m.min_bus_utilization <= 1.0) {
            lint.error(
                "grid.methodology.min_bus_utilization",
                format!(
                    "{} is outside (0, 1]; the §4.3 confidence check is meaningless",
                    m.min_bus_utilization
                ),
            );
        }
        if period > 0 && m.tolerance >= period {
            lint.warning(
                "grid.methodology.tolerance",
                format!(
                    "tolerance {} is at least one saw-tooth period ({period}); the period \
                     matcher will accept any candidate",
                    m.tolerance
                ),
            );
        }
    }

    // ---- workloads ----------------------------------------------------
    for (i, case) in spec.workloads.iter().enumerate() {
        let base = format!("workloads[{i}]");
        if case.name.trim().is_empty() {
            lint.error(format!("{base}.name"), "workload name is empty");
        }
        if !case.scua.is_finite() {
            lint.error(
                format!("{base}.scua"),
                "the observed kernel must be finite for its execution time to exist",
            );
        }
        lint_kernel(&mut lint, &format!("{base}.scua"), &case.scua, machine);
        let contender_slots = machine.num_cores.saturating_sub(1);
        if case.contenders.len() > contender_slots {
            lint.error(
                format!("{base}.contenders"),
                format!(
                    "{} contenders but only {contender_slots} non-scua cores",
                    case.contenders.len()
                ),
            );
        } else if case.contenders.len() < contender_slots {
            lint.warning(
                format!("{base}.contenders"),
                format!(
                    "{} contenders leave {} cores idle; contention is below the \
                     machine's worst case",
                    case.contenders.len(),
                    contender_slots - case.contenders.len()
                ),
            );
        }
        for (j, contender) in case.contenders.iter().enumerate() {
            let cpath = format!("{base}.contenders[{j}]");
            if contender.is_finite() {
                lint.warning(
                    &cpath,
                    "finite contender can complete before the scua and fall silent; \
                     endless kernels keep pressure constant (§3.1)",
                );
            }
            lint_kernel(&mut lint, &cpath, contender, machine);
            let core = CoreId::new(j + 1);
            if let Ok(program) = contender.try_build(machine, core) {
                if steady_state_silent(&program, machine, core) {
                    lint.warning(
                        &cpath,
                        "contender never posts a bus or memory-controller request; \
                         it adds no contention and the cell silently measures isolation",
                    );
                }
            }
        }
    }
    for (i, a) in spec.workloads.iter().enumerate() {
        if let Some(j) = spec.workloads.iter().skip(i + 1).position(|b| b.name == a.name) {
            lint.error(
                format!("workloads[{}].name", i + 1 + j),
                format!("duplicate workload name `{}`; campaign records would collide", a.name),
            );
        }
    }

    lint.findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignGrid, GridScenario};
    use rrb_kernels::AccessKind;

    fn clean_spec() -> ExperimentSpec {
        let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
            .arbiters(vec![ArbiterKind::RoundRobin])
            .cores(vec![2, 4])
            .accesses(vec![AccessKind::Load])
            .contender_accesses(vec![AccessKind::Load])
            .iterations(vec![40])
            .max_k(16)
            .methodology(crate::MethodologyConfig::fast());
        ExperimentSpec::from_grid("toy", &grid)
    }

    /// `[N]` indices replaced by `[]`, the form of
    /// [`ExperimentSpec::field_paths`].
    fn schema_form(path: &str) -> String {
        let mut out = String::new();
        let mut in_index = false;
        for c in path.chars() {
            match c {
                '[' => (in_index, out) = (true, out + "[]"),
                ']' => in_index = false,
                _ if in_index => {}
                _ => out.push(c),
            }
        }
        out
    }

    #[test]
    fn lint_names_only_schema_paths() {
        use crate::spec::WorkloadCase;
        fn grid(spec: &mut ExperimentSpec) -> &mut GridSpec {
            spec.grid.as_mut().expect("grid")
        }
        fn mc(arbiter: ArbiterKind) -> Option<rrb_sim::McQueueConfig> {
            Some(rrb_sim::McQueueConfig { service_occupancy: 2, arbiter })
        }
        const RSK: KernelSpec = KernelSpec::Rsk { access: AccessKind::Load };
        const BAD: KernelSpec = KernelSpec::Capacity { access: AccessKind::Load, factor: 1 };
        fn case(contenders: &[KernelSpec]) -> WorkloadCase {
            WorkloadCase {
                name: "w".into(),
                scua: KernelSpec::RskNop { access: AccessKind::Load, nops: 0, iterations: 10 },
                contenders: contenders.to_vec(),
            }
        }
        let tdma1 = ArbiterKind::Tdma { slot_cycles: 1 };
        let grr = |group_size| ArbiterKind::GroupedRoundRobin { group_size };
        // One spec per lint check, each with the path it must report.
        type Edit<'a> = &'a dyn Fn(&mut ExperimentSpec);
        let table: &[(&str, Edit)] = &[
            ("name", &|s| s.name = " ".into()),
            ("machine.num_cores", &|s| (s.grid, s.machine) = (None, MachineConfig::toy(1, 2))),
            ("machine.topology.bus.arbiter", &|s| s.machine.topology.bus.arbiter = tdma1),
            ("machine.topology.mc.arbiter", &|s| s.machine.topology.mc = mc(tdma1)),
            ("machine.topology", &|s| s.machine.topology.mc = mc(ArbiterKind::Fifo)),
            ("grid.arbiters", &|s| grid(s).arbiters.clear()),
            ("grid.cores", &|s| grid(s).cores.clear()),
            ("grid.accesses", &|s| grid(s).accesses.clear()),
            ("grid.contender_accesses", &|s| grid(s).contender_accesses.clear()),
            ("grid.iterations", &|s| grid(s).iterations.clear()),
            ("grid.cores[]", &|s| grid(s).cores = vec![0]),
            ("grid.cores[]", &|s| grid(s).cores = vec![1]),
            ("grid.cores[]", &|s| {
                s.machine = MachineConfig::ngmp_ref();
                grid(s).cores = vec![5];
            }),
            ("grid.arbiters[]", &|s| grid(s).arbiters = vec![tdma1]),
            ("grid.arbiters[]", &|s| grid(s).arbiters = vec![grr(0)]),
            ("grid.arbiters[]", &|s| grid(s).arbiters = vec![grr(4)]),
            ("grid.iterations[]", &|s| grid(s).iterations = vec![0]),
            ("grid.max_k", &|s| grid(s).max_k = 3),
            ("grid.methodology.calibration_iterations", &|s| {
                grid(s).methodology.calibration_iterations = 0;
            }),
            ("grid.methodology.min_bus_utilization", &|s| {
                grid(s).methodology.min_bus_utilization = 0.0;
            }),
            ("grid.methodology.tolerance", &|s| grid(s).methodology.tolerance = 99),
            ("workloads[].name", &|s| {
                s.workloads = vec![WorkloadCase { name: "".into(), ..case(&[RSK; 3]) }]
            }),
            ("workloads[].name", &|s| s.workloads = vec![case(&[RSK; 3]), case(&[RSK; 3])]),
            ("workloads[].scua", &|s| {
                s.workloads = vec![WorkloadCase { scua: RSK, ..case(&[RSK; 3]) }]
            }),
            ("workloads[].scua", &|s| {
                s.workloads = vec![WorkloadCase { scua: BAD, ..case(&[RSK; 3]) }]
            }),
            ("workloads[].contenders", &|s| s.workloads = vec![case(&[RSK; 4])]),
            ("workloads[].contenders", &|s| s.workloads = vec![case(&[RSK])]),
            ("workloads[].contenders[]", &|s| {
                s.workloads = vec![case(&[KernelSpec::Nop { iterations: 10 }])];
            }),
            ("workloads[].contenders[]", &|s| s.workloads = vec![case(&[RSK, RSK, BAD])]),
        ];
        let schema = ExperimentSpec::field_paths();
        for (expected, edit) in table {
            let mut spec = clean_spec();
            edit(&mut spec);
            let findings = lint_spec(&spec);
            let paths: Vec<_> = findings.iter().map(|f| schema_form(&f.path)).collect();
            assert!(paths.iter().any(|p| p == expected), "{expected} not reported: {findings:?}");
            for path in &paths {
                assert!(schema.contains(path), "`{path}` is not a schema path: {schema:?}");
            }
        }
    }

    #[test]
    fn clean_spec_has_no_errors() {
        let findings = lint_spec(&clean_spec());
        assert!(!has_errors(&findings), "{findings:?}");
    }

    #[test]
    fn methodology_template_fields_the_axes_override_do_not_lint() {
        // Every derive cell takes its iterations and max_k from the grid
        // axes, so zeroes in the template cannot stop a spec from running.
        let mut spec = ExperimentSpec::parse(&clean_spec().to_text()).expect("round trip");
        let grid = spec.grid.as_mut().expect("grid");
        grid.methodology.iterations = 0;
        grid.methodology.max_k = 0;
        let findings = lint_spec(&spec);
        assert!(!has_errors(&findings), "{findings:?}");

        spec.grid.as_mut().expect("grid").iterations = vec![0];
        let findings = lint_spec(&spec);
        assert!(
            findings
                .iter()
                .any(|f| f.severity == LintSeverity::Error && f.path == "grid.iterations[0]"),
            "{findings:?}"
        );
    }

    #[test]
    fn empty_axis_is_a_dangling_grid_error() {
        let mut spec = clean_spec();
        spec.grid.as_mut().expect("grid").cores.clear();
        let findings = lint_spec(&spec);
        assert!(findings
            .iter()
            .any(|f| f.severity == LintSeverity::Error && f.path == "grid.cores"));
    }

    #[test]
    fn starving_tdma_slot_is_an_error_with_a_dotted_path() {
        let mut spec = clean_spec();
        // Worst occupancy on the toy bus is 2; a 1-cycle slot never fits.
        spec.grid.as_mut().expect("grid").arbiters = vec![ArbiterKind::Tdma { slot_cycles: 1 }];
        let findings = lint_spec(&spec);
        let hit = findings.iter().find(|f| f.path == "grid.arbiters[0]").expect("tdma finding");
        assert_eq!(hit.severity, LintSeverity::Error);
        assert!(hit.message.contains("starve"), "{}", hit.message);
    }

    #[test]
    fn core_count_whose_cells_cannot_be_built_is_an_error() {
        // Five cores force five L2 ways, and 256 KiB / 5 is no whole
        // number of lines: every c5 cell fails `MachineConfig::validate`.
        let grid =
            CampaignGrid::new(GridScenario::Derive, MachineConfig::ngmp_ref()).cores(vec![3, 5]);
        let findings = lint_spec(&ExperimentSpec::from_grid("ngmp", &grid));
        let errors: Vec<_> =
            findings.iter().filter(|f| f.severity == LintSeverity::Error).collect();
        assert_eq!(errors.len(), 1, "{findings:?}");
        assert_eq!(errors[0].path, "grid.cores[1]");
        assert_eq!(
            errors[0].message,
            "cells with 5 cores cannot be built: invalid cache geometry: l2.partition: size \
             52428 is not a multiple of ways*line = 32"
        );
    }

    #[test]
    fn short_nop_sweep_is_flagged() {
        let mut spec = clean_spec();
        spec.grid.as_mut().expect("grid").max_k = 3;
        let findings = lint_spec(&spec);
        assert!(findings.iter().any(|f| f.path == "grid.max_k"), "{findings:?}");
    }

    #[test]
    fn finite_contender_is_a_warning() {
        let mut spec = clean_spec();
        spec.workloads.push(crate::spec::WorkloadCase {
            name: "case".into(),
            scua: KernelSpec::Rsk { access: AccessKind::Load },
            contenders: vec![KernelSpec::RskNop {
                access: AccessKind::Load,
                nops: 0,
                iterations: 10,
            }],
        });
        let findings = lint_spec(&spec);
        // The endless rsk scua is an error; the finite contender a warning.
        assert!(findings.iter().any(|f| f.path == "workloads[0].scua"));
        assert!(
            findings
                .iter()
                .any(|f| f.path == "workloads[0].contenders[0]"
                    && f.severity == LintSeverity::Warning)
        );
    }

    #[test]
    fn findings_render_with_dotted_paths() {
        let mut spec = clean_spec();
        spec.grid.as_mut().expect("grid").cores.clear();
        let text = render_findings(&lint_spec(&spec));
        assert!(text.contains("spec field `grid.cores`"), "{text}");
    }

    #[test]
    fn grr_group_spanning_every_core_warns_of_degeneration() {
        let mut spec = clean_spec();
        // Max cores in the clean grid is 4; one group of 4 is plain rr.
        spec.grid.as_mut().expect("grid").arbiters =
            vec![ArbiterKind::GroupedRoundRobin { group_size: 4 }];
        let findings = lint_spec(&spec);
        let hit = findings.iter().find(|f| f.path == "grid.arbiters[0]").expect("grr finding");
        assert_eq!(hit.severity, LintSeverity::Warning);
        assert!(hit.message.contains("degenerates"), "{}", hit.message);
    }

    #[test]
    fn tdma_slot_matching_worst_occupancy_is_boundary_not_starvation() {
        let mut spec = clean_spec();
        // Worst occupancy on the toy(4, 2) bus is exactly 2: a 2-cycle slot
        // fits every transaction with zero slack and must lint clean.
        spec.grid.as_mut().expect("grid").arbiters = vec![ArbiterKind::Tdma { slot_cycles: 2 }];
        let findings = lint_spec(&spec);
        assert!(
            !findings.iter().any(|f| f.path == "grid.arbiters[0]"),
            "boundary slot flagged: {findings:?}"
        );
    }

    #[test]
    fn serialised_two_level_topology_warns_of_composed_slack() {
        let mut spec = clean_spec();
        spec.machine.topology.mc =
            Some(rrb_sim::McQueueConfig { service_occupancy: 2, arbiter: ArbiterKind::Fifo });
        let findings = lint_spec(&spec);
        let hit =
            findings.iter().find(|f| f.path == "machine.topology").expect("composed_slack finding");
        assert_eq!(hit.severity, LintSeverity::Warning);
        assert!(hit.message.contains("composed_slack"), "{}", hit.message);
        // A single-level topology has at most the lookup cycle of slack.
        let clean = lint_spec(&clean_spec());
        assert!(!clean.iter().any(|f| f.path == "machine.topology"), "{clean:?}");
    }

    #[test]
    fn always_hitting_contender_is_flagged_by_the_classification() {
        let mut spec = clean_spec();
        // A single-line pointer chase stays DL1-resident after the cold
        // fill: the old accesses-memory heuristic could not prove this
        // contender silent, the must/may classification can.
        spec.workloads.push(crate::spec::WorkloadCase {
            name: "resident".into(),
            scua: KernelSpec::RskNop { access: AccessKind::Load, nops: 0, iterations: 10 },
            contenders: vec![KernelSpec::PointerChase { lines: 1, seed: 1 }],
        });
        let findings = lint_spec(&spec);
        assert!(
            findings.iter().any(
                |f| f.path == "workloads[0].contenders[0]" && f.message.contains("never posts")
            ),
            "{findings:?}"
        );
    }

    #[test]
    fn contender_that_never_requests_is_a_warning_not_a_silent_pass() {
        let mut spec = clean_spec();
        spec.workloads.push(crate::spec::WorkloadCase {
            name: "quiet".into(),
            scua: KernelSpec::RskNop { access: AccessKind::Load, nops: 0, iterations: 10 },
            contenders: vec![KernelSpec::Nop { iterations: 10 }],
        });
        let findings = lint_spec(&spec);
        let hit = findings
            .iter()
            .find(|f| f.path == "workloads[0].contenders[0]" && f.message.contains("never posts"))
            .expect("silent-contender finding");
        assert_eq!(hit.severity, LintSeverity::Warning);
    }
}
