//! Ablation: δ_nop > 1 (§4.2's "unlikely case"). Varying k then *samples*
//! the δ-space saw-tooth; the calibrated δ_nop plus the candidate
//! disambiguation must still recover the exact `ubd`.
//!
//! A thin wrapper over the `Campaign` runner: one `Derive` scenario per
//! nop latency, batched into a single parallel plan.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin ablation_slow_nop
//! ```

use rrb::campaign::{clamped_jobs, Campaign};
use rrb::methodology::{MethodologyConfig, UbdScenario};
use rrb::scenario::MetricValue;
use rrb_sim::MachineConfig;

fn main() {
    println!("NGMP ref (true ubd = 27); sweeping the nop latency\n");
    let mut builder = Campaign::builder().jobs(clamped_jobs(None).0);
    for nop_latency in [1u64, 2, 3] {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.nop_latency = nop_latency;
        let mut mcfg = MethodologyConfig::paper();
        mcfg.iterations = 200;
        mcfg.max_k = 70;
        builder =
            builder.scenario(UbdScenario::new(cfg, mcfg).named(format!("delta_nop={nop_latency}")));
    }
    let result = builder.build().run();
    println!("delta_nop  k-period  candidates           derived ubd_m");
    for report in &result.reports {
        let candidates = match report.metric("candidates") {
            Some(MetricValue::Series(c)) => format!("{c:?}"),
            _ => String::from("-"),
        };
        match (
            report.metric_u64("delta_nop"),
            report.metric_u64("k_period"),
            report.metric_u64("ubd_m"),
        ) {
            (Some(delta_nop), Some(period), Some(ubd_m)) => {
                println!("{delta_nop:>9}  {period:>8}  {candidates:<20} {ubd_m:>12}");
            }
            _ => println!("{}  {}", report.scenario, report.summary),
        }
    }
    println!(
        "\nexpected: delta_nop = 2 keeps an apparent period of 27 (coprime);\n\
         delta_nop = 3 collapses it to 9 with candidates {{9, 27}}; both derive 27."
    );
}
