//! Ablation: the saw-tooth period tracks `l_bus` (Eq. 1) across bus
//! speeds, from the toy 2-cycle bus to a slow 12-cycle one.
//!
//! A thin wrapper over the `Campaign` runner: one `Derive` scenario per
//! bus speed, batched into a single parallel plan.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin ablation_bus_latency
//! ```

use rrb::campaign::{clamped_jobs, Campaign};
use rrb::methodology::{MethodologyConfig, UbdScenario};
use rrb_sim::MachineConfig;

fn main() {
    println!("Nc = 4; sweeping the bus occupancy l_bus\n");
    let mut builder = Campaign::builder().jobs(clamped_jobs(None).0);
    for l_bus in [2u64, 5, 9, 12] {
        let cfg = MachineConfig::toy(4, l_bus);
        let mut mcfg = MethodologyConfig::fast();
        mcfg.max_k = (cfg.ubd() as usize) * 3;
        builder = builder.scenario(UbdScenario::new(cfg, mcfg).named(format!("l_bus={l_bus}")));
    }
    let result = builder.build().run();
    println!("l_bus  true ubd  derived ubd_m  k-period");
    for (l_bus, report) in [2u64, 5, 9, 12].into_iter().zip(&result.reports) {
        let expected = MachineConfig::toy(4, l_bus).ubd();
        match (report.metric_u64("ubd_m"), report.metric_u64("k_period")) {
            (Some(ubd_m), Some(period)) => {
                println!("{l_bus:>5}  {expected:>8}  {ubd_m:>13}  {period:>8}");
            }
            _ => println!("{l_bus:>5}  {expected:>8}  {}", report.summary),
        }
    }
    println!("\nexpected: ubd_m = 3 * l_bus at every latency (the NGMP's l_bus = 9 gives 27).");
}
