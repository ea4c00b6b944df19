//! Ablation: Eq. 1 scaling — `ubd = (Nc - 1) · l_bus` recovered blind
//! across core counts.
//!
//! A thin wrapper over the `Campaign` runner: one `Derive` scenario per
//! core count, batched into a single parallel plan.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin ablation_core_count
//! ```

use rrb::campaign::{clamped_jobs, Campaign};
use rrb::methodology::{MethodologyConfig, UbdScenario};
use rrb_kernels::AccessKind;
use rrb_sim::MachineConfig;

const L_BUS: u64 = 3;

fn main() {
    println!("l_bus = {L_BUS}; sweeping core count\n");
    let mut builder = Campaign::builder().jobs(clamped_jobs(None).0);
    for nc in 2..=4usize {
        let cfg = MachineConfig::toy(nc, L_BUS);
        let mut mcfg = MethodologyConfig::fast();
        mcfg.max_k = (cfg.ubd() as usize) * 3;
        // One load contender cannot saturate a 2-core bus; use store
        // contenders there (they inject back to back, §5.3).
        if nc == 2 {
            mcfg.contender_access = AccessKind::Store;
        }
        builder = builder.scenario(UbdScenario::new(cfg, mcfg).named(format!("Nc={nc}")));
    }
    let result = builder.build().run();
    println!("Nc  true ubd  derived ubd_m  contenders");
    for (nc, report) in (2..=4usize).zip(&result.reports) {
        let expected = MachineConfig::toy(nc, L_BUS).ubd();
        let contenders = if nc == 2 { "store rsk" } else { "load rsk" };
        match report.metric_u64("ubd_m") {
            Some(ubd_m) => println!("{nc:>2}  {expected:>8}  {ubd_m:>13}  {contenders}"),
            None => println!(
                "{nc:>2}  {expected:>8}  {:>13}  {contenders} ({})",
                "refused", report.summary
            ),
        }
    }
    println!("\nexpected: derived ubd_m equals (Nc-1)*{L_BUS} for every Nc.");
}
