//! The store-buffer experiment of §5.3 / Fig. 7(b).
//!
//! ```sh
//! cargo run --release --example store_buffer_anomaly
//! ```
//!
//! Write-through stores retire into the store buffer and drain to the bus
//! back to back (injection time zero) — the only situation in which a
//! request actually suffers the full `ubd`. The slowdown of a store
//! `rsk-nop(store, k)` therefore shows *one* saw-tooth period and then
//! collapses to (near) zero: once `k` exceeds `ubd`, the buffer always
//! has a free slot before the next store arrives and hides the bus
//! latency entirely.

use rrb::executor::Executor;
use rrb::report;
use rrb::scenario::{Scenario, SweepScenario};
use rrb_kernels::AccessKind;
use rrb_sim::MachineConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MachineConfig::ngmp_ref();
    let iterations = 300;
    let max_k = 70;

    println!("store rsk-nop(k) against 3 load rsk — slowdown vs k\n");
    let sweep = SweepScenario::new(cfg.clone(), max_k, iterations)
        .access(AccessKind::Store)
        .contenders(AccessKind::Load);
    let slowdowns = sweep.slowdowns(&sweep.outcomes(&Executor::new())?)?;

    println!("{}", report::render_sawtooth(&slowdowns, 10));

    // The paper's observation: the first ~ubd ks show a decaying
    // saw-tooth; beyond one period, the buffer hides the latency.
    let ubd = cfg.ubd() as usize;
    let early_peak = *slowdowns[..ubd].iter().max().expect("non-empty");
    let late_peak = *slowdowns[ubd + 5..].iter().max().expect("non-empty");
    println!("peak slowdown in first period : {early_peak}");
    println!("peak slowdown after k > ubd+4 : {late_peak}");
    assert!(
        late_peak * 10 < early_peak.max(1),
        "store buffer must hide the bus latency once k exceeds ubd"
    );
    println!("=> beyond one period the store buffer fully hides contention, as in Fig. 7(b).");
    Ok(())
}
