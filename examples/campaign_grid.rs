//! A measurement campaign over a parameter grid: derive `ubd` for every
//! arbiter × contender-access combination in one deduplicated, parallel
//! batch.
//!
//! ```sh
//! cargo run --release --example campaign_grid
//! ```
//!
//! Expected outcome: both round-robin cells derive the hidden `ubd = 6`.
//! The non-RR cells illustrate §4.3's applicability caveat: most are
//! refused by the confidence checks (recorded as per-scenario failures
//! while the rest of the campaign completes normally), and any number a
//! non-RR cell does produce is *not* the RR bound — knowing the arbiter
//! is round-robin is an input to the methodology.

use rrb::campaign::{clamped_jobs, Campaign, CampaignGrid, GridScenario};
use rrb_kernels::AccessKind;
use rrb_sim::{ArbiterKind, MachineConfig};

fn main() {
    // The platform under test: 4 cores, round-robin bus, l_bus = 2.
    let base = MachineConfig::toy(4, 2);

    let grid = CampaignGrid::new(GridScenario::Derive, base)
        .arbiters(vec![ArbiterKind::RoundRobin, ArbiterKind::FixedPriority, ArbiterKind::Fifo])
        .contender_accesses(vec![AccessKind::Load, AccessKind::Store])
        .iterations(vec![100]);
    println!("campaign: {} grid cells\n", grid.cell_count());

    let result = Campaign::builder().grid(&grid).jobs(clamped_jobs(None).0).build().run();

    print!("{}", result.render_text());
    println!("\nfirst records as CSV:");
    for line in result.to_csv().lines().take(5) {
        println!("  {line}");
    }

    let derived: Vec<_> = result
        .reports
        .iter()
        .filter_map(|r| r.metric_u64("ubd_m").map(|u| (r.scenario.clone(), u)))
        .collect();
    println!("\nderived bounds: {derived:?}");
    let rr: Vec<_> = derived.iter().filter(|(name, _)| name.contains("/rr/")).collect();
    assert_eq!(rr.len(), 2, "both RR cells must produce a bound");
    assert!(rr.iter().all(|(_, u)| *u == 6), "RR cells must recover ubd = 6");
}
