//! Benchmark of the bound-analysis layer on one cell — the `ngmp_ref`
//! four-core bus+mc round-robin derive cell: must/may cache
//! classification of the cell's kernels, then the static analysis,
//! the model check and the spec lint built on it — plus the model check
//! of the same cell with a fifo bus, the checker's costliest arbiter
//! (std-only harness; `harness = false`). Classification also runs on
//! an EEMBC-profile scua (`canrdr` on `ngmp_ref`): its 256-instruction
//! body reaches far more cache sets than the short rsk bodies, so it is
//! the input where listing and signing the reachable sets costs most.
//!
//! ```sh
//! cargo bench -p rrb-bench --bench analysis_cost
//! ```

use rrb::analyze::analyze_grid_cell;
use rrb::campaign::{CampaignGrid, GridCell, GridScenario};
use rrb::kernels::{rsk, rsk_nop, AutobenchKernel};
use rrb::lint::lint_spec;
use rrb::spec::ExperimentSpec;
use rrb::statics::{classify_accesses, VerifyOptions};
use rrb::verify::verify_grid_cell;
use rrb_bench::bench;
use rrb_sim::{ArbiterKind, CoreId, MachineConfig};
use std::hint::black_box;

/// The `ngmp_ref` four-core bus+mc derive grid with `arbiter` on the bus.
fn ngmp_grid(arbiter: ArbiterKind) -> CampaignGrid {
    CampaignGrid::new(GridScenario::Derive, MachineConfig::ngmp_two_level())
        .arbiters(vec![arbiter])
        .cores(vec![4])
}

fn bench_verify(cell: &GridCell, opts: &VerifyOptions) {
    println!("model check: {}", cell.name);
    bench("verify_grid_cell", 2, 20, || {
        black_box(verify_grid_cell(cell, opts));
    });
}

fn main() {
    let grid = ngmp_grid(ArbiterKind::RoundRobin);
    let spec = ExperimentSpec::from_grid("ngmp_ref_bus_mc_rr_c4", &grid);
    let cell = grid.cells().remove(0);
    let cfg = &cell.cfg;
    let scua = CoreId::new(0);
    let stressor = rsk(cell.access, cfg, scua);
    let swept = rsk_nop(cell.access, cell.max_k, cfg, scua, cell.iterations);
    let opts = VerifyOptions::default();

    println!("analysis cost: {}", cell.name);
    bench("classify_accesses/rsk", 5, 50, || {
        black_box(classify_accesses(&stressor, cfg, scua));
    });
    bench(&format!("classify_accesses/rsk-nop({})", cell.max_k), 5, 50, || {
        black_box(classify_accesses(&swept, cfg, scua));
    });
    let ngmp = MachineConfig::ngmp_ref();
    let canrdr = AutobenchKernel::Canrdr.profile().program(&ngmp, scua, 7, Some(1000));
    bench("classify_accesses/eembc-canrdr", 5, 50, || {
        black_box(classify_accesses(&canrdr, &ngmp, scua));
    });
    bench("analyze_grid_cell", 5, 50, || {
        black_box(analyze_grid_cell(&cell));
    });
    bench("verify_grid_cell", 2, 20, || {
        black_box(verify_grid_cell(&cell, &opts));
    });
    bench("lint_spec", 5, 50, || {
        black_box(lint_spec(&spec));
    });
    bench_verify(&ngmp_grid(ArbiterKind::Fifo).cells().remove(0), &opts);
}
