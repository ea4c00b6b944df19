//! Regenerates the paper's **Figure 7(a)**: slowdown of
//! `rsk-nop(load, k)` against 3 load rsk, as a function of `k`, on the
//! reference and variant architectures.
//!
//! A thin wrapper over the `Campaign` runner: two `SweepScenario`s (ref
//! and var) batched into one deduplicated parallel plan.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin fig7a_load_sawtooth
//! ```
//!
//! Expected shape (paper §5.3): a saw-tooth whose period is 27 on *both*
//! architectures — `27 = 54 − 27` on ref (peaks at k = 27·i) and
//! `27 = 51 − 24` on var (peaks at k = 24 + 27·i) — demonstrating that
//! the period, unlike the naive estimate, is robust to the platform's
//! injection time.

use rrb::campaign::{clamped_jobs, Campaign};
use rrb::report::render_sawtooth;
use rrb::scenario::{MetricValue, SweepScenario};
use rrb_analysis::sawtooth::{peak_positions, peak_spacing};
use rrb_sim::MachineConfig;

const MAX_K: usize = 80;
const ITERATIONS: u64 = 400;

fn main() {
    let result = Campaign::builder()
        .scenario(SweepScenario::new(MachineConfig::ngmp_ref(), MAX_K, ITERATIONS).named("ref"))
        .scenario(SweepScenario::new(MachineConfig::ngmp_var(), MAX_K, ITERATIONS).named("var"))
        .jobs(clamped_jobs(None).0)
        .build()
        .run();

    for report in &result.reports {
        let Some(MetricValue::Series(slowdowns)) = report.metric("slowdowns") else {
            println!("architecture {}: {}", report.scenario, report.summary);
            continue;
        };
        println!("architecture {}: d_bus(load, k) for k = 0..={MAX_K}", report.scenario);
        println!("{}", render_sawtooth(slowdowns, 10));
        let peaks = peak_positions(slowdowns, 0.02);
        println!("  peak positions (k) : {peaks:?}");
        if let Some(spacing) = peak_spacing(slowdowns, 0.02) {
            println!("  peak spacing       : {spacing} (Eq. 3 reading)");
        }
        match report.metric_u64("period") {
            Some(period) => println!("  saw-tooth period   : {period} -> ubd = {period}\n"),
            None => println!("  saw-tooth period   : NOT FOUND\n"),
        }
    }
}
