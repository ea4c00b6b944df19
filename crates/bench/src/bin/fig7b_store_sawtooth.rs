//! Regenerates the paper's **Figure 7(b)**: slowdown of
//! `rsk-nop(store, k)` against 3 load rsk, as a function of `k`.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin fig7b_store_sawtooth
//! ```
//!
//! Expected shape (paper §5.3): because the store buffer absorbs stores
//! and drains them back to back, the slowdown shows a saw-tooth over
//! roughly the *first* period only (k up to ~ubd, with a small shift due
//! to buffer depth and processing time) and is (near) zero afterwards —
//! the buffer then always has a free slot and hides the bus latency.

use rrb::executor::Executor;
use rrb::report::render_sawtooth;
use rrb::scenario::{Scenario, SweepScenario};
use rrb_kernels::AccessKind;
use rrb_sim::MachineConfig;

fn main() {
    let cfg = MachineConfig::ngmp_ref();
    let max_k = 80usize;
    let iterations = 400u64;

    let sweep = SweepScenario::new(cfg.clone(), max_k, iterations)
        .access(AccessKind::Store)
        .contenders(AccessKind::Load);
    let outcomes = sweep.outcomes(&Executor::new()).expect("valid machine");
    let slowdowns = sweep.slowdowns(&outcomes).expect("measurement");

    println!("d_bus(store, k) for k = 0..={max_k} (true ubd = {}):", cfg.ubd());
    println!("{}", render_sawtooth(&slowdowns, 10));

    let ubd = cfg.ubd() as usize;
    let first_period_peak = *slowdowns[..=ubd].iter().max().expect("non-empty");
    let tail_peak = *slowdowns[ubd + 5..].iter().max().expect("non-empty");
    let last_nonzero = slowdowns.iter().rposition(|&d| d > first_period_peak / 100);
    println!("  peak slowdown, k in [0, ubd]   : {first_period_peak}");
    println!("  peak slowdown, k > ubd + 4     : {tail_peak}");
    println!("  last k with non-trivial slowdown: {last_nonzero:?}");
    println!(
        "  verdict: {}",
        if tail_peak * 10 < first_period_peak.max(1) {
            format!(
                "one saw-tooth period then ~zero — the first period spans k in [0, ~{}], as in Fig. 7(b)",
                last_nonzero.unwrap_or(ubd)
            )
        } else {
            String::from("UNEXPECTED: slowdown persists beyond one period")
        }
    );
}
