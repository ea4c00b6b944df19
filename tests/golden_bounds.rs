//! Golden pin for the bound ladder's text tables, plus the row alignment
//! between `analyze_*` and `verify_*` that downstream joins rely on.
//!
//! The pinned grid is the `verify_sweep` one — five arbiters on the toy
//! machine, single-bus and `bus+mc` — rendered through all three tables
//! (`render_rows`, `render_rows_composed`, `render_verified`), plus one
//! cell whose TDMA slot is shorter than the bus occupancy, so the
//! `unbounded: <reason>` status is pinned too. Re-capture the golden
//! file only for an intended output change:
//! `cargo test -p rrb --test golden_bounds -- --ignored`.

use rrb::analyze::{analyze_grid_cell, analyze_spec, render_rows, render_rows_composed};
use rrb::campaign::{CampaignGrid, GridScenario};
use rrb::spec::ExperimentSpec;
use rrb::statics::VerifyOptions;
use rrb::verify::{render_verified, verify_grid, verify_spec};
use rrb_sim::{ArbiterKind, MachineConfig, McQueueConfig};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/bound_ladder.txt");

fn toy(two_level: bool) -> MachineConfig {
    let mut cfg = MachineConfig::toy(4, 2);
    if two_level {
        cfg.topology.mc = Some(McQueueConfig { service_occupancy: 2, arbiter: ArbiterKind::Fifo });
    }
    cfg
}

fn grid(cfg: MachineConfig, arbiters: Vec<ArbiterKind>) -> CampaignGrid {
    CampaignGrid::new(GridScenario::Derive, cfg).arbiters(arbiters).iterations(vec![80]).max_k(16)
}

/// The `verify_sweep` grids, then a one-cell grid with a starving slot.
fn ladder_grids() -> Vec<CampaignGrid> {
    let arbiters = vec![
        ArbiterKind::RoundRobin,
        ArbiterKind::FixedPriority,
        ArbiterKind::Fifo,
        ArbiterKind::Tdma { slot_cycles: 6 },
        ArbiterKind::GroupedRoundRobin { group_size: 2 },
    ];
    vec![
        grid(toy(false), arbiters.clone()),
        grid(toy(true), arbiters),
        grid(toy(false), vec![ArbiterKind::Tdma { slot_cycles: 1 }]),
    ]
}

fn render_ladder() -> String {
    let mut out = String::new();
    for grid in ladder_grids() {
        let rows: Vec<_> = grid.cells().iter().map(analyze_grid_cell).collect();
        out.push_str(&render_rows(&rows));
        out.push_str(&render_rows_composed(&rows));
        out.push_str(&render_verified(&verify_grid(&grid, &VerifyOptions::default())));
    }
    out
}

#[test]
fn bound_ladder_tables_are_pinned() {
    let golden = std::fs::read_to_string(GOLDEN).expect("golden file");
    let out = render_ladder();
    assert!(out.contains("unbounded: "), "the starving cell must stay unbounded:\n{out}");
    assert_eq!(out, golden, "bound tables drifted from {GOLDEN}");
}

/// Rewrites the golden file from the current renderers.
#[test]
#[ignore]
fn capture_golden_bound_ladder() {
    std::fs::write(GOLDEN, render_ladder()).expect("write golden");
}

/// `verify_spec(s)[i].statics == analyze_spec(s)[i]`: the verifier's
/// static row is the analyzer's row for the same cell, in the same order.
#[test]
fn verified_rows_align_with_static_rows() {
    let spec_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut specs: Vec<ExperimentSpec> =
        ["examples/experiments/ngmp_sweep.json", "crates/bench/specs/ablation_arbiters.json"]
            .iter()
            .map(|p| ExperimentSpec::from_file(format!("{spec_dir}/{p}")).expect("spec"))
            .collect();
    let two_level =
        grid(toy(true), vec![ArbiterKind::RoundRobin, ArbiterKind::Fifo]).cores(vec![2, 4]);
    specs.push(ExperimentSpec::from_grid("two-level", &two_level));
    for spec in &specs {
        let statics = analyze_spec(spec);
        let verified = verify_spec(spec, &VerifyOptions::default());
        assert_eq!(statics.len(), verified.len(), "{}", spec.name);
        assert!(!statics.is_empty(), "{}", spec.name);
        for (s, v) in statics.iter().zip(&verified) {
            assert_eq!(&v.statics, s, "{}", spec.name);
        }
    }
}
