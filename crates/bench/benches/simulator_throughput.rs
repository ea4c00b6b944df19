//! Benchmarks of the simulator substrate: cycles simulated per second
//! for the workload shapes the experiments rely on (std-only harness;
//! `harness = false`).

use rrb::executor::Executor;
use rrb::scenario::{Scenario, SweepScenario};
use rrb_bench::bench;
use rrb_kernels::{random_eembc_workload, rsk, AccessKind};
use rrb_sim::{CoreId, Machine, MachineConfig};

fn main() {
    println!("saturated_rsk");
    for cycles in [10_000u64, 50_000] {
        let r = bench(&format!("saturated_rsk/{cycles}_cycles"), 2, 10, || {
            let cfg = MachineConfig::ngmp_ref();
            let mut m = Machine::new(cfg.clone()).expect("config");
            for i in 0..cfg.num_cores {
                m.load_program(CoreId::new(i), rsk(AccessKind::Load, &cfg, CoreId::new(i)));
            }
            std::hint::black_box(m.run_for(cycles));
        });
        let cps = cycles as f64 / r.median_seconds();
        println!("    -> {cps:.0} simulated cycles/s");
    }

    // (isolated, contended) measurement pairs for k = 0..=2 — the
    // methodology's inner loop.
    bench("slowdown_sweep_k0_2", 2, 10, || {
        let sweep = SweepScenario::new(MachineConfig::ngmp_ref(), 2, 100);
        let outcomes = sweep.outcomes(&Executor::new()).expect("valid machine");
        std::hint::black_box(sweep.slowdowns(&outcomes).expect("measurement"));
    });

    bench("eembc_workload_100_iters", 2, 10, || {
        let cfg = MachineConfig::ngmp_ref();
        let w = random_eembc_workload(&cfg, 7, 100);
        let mut m = w.into_machine(&cfg).expect("machine");
        std::hint::black_box(m.run().expect("run"));
    });
}
