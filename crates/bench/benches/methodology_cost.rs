//! Benchmark of the full methodology: what a complete blind `ubd`
//! derivation costs, per platform size — serial vs campaign-parallel
//! (std-only harness; `harness = false`).

use rrb::campaign::clamped_jobs;
use rrb::methodology::{derive_ubd, derive_ubd_repeated, MethodologyConfig};
use rrb_bench::bench;
use rrb_sim::MachineConfig;

fn main() {
    println!("derive_ubd");
    for l_bus in [2u64, 5] {
        let cfg = MachineConfig::toy(4, l_bus);
        let mut mcfg = MethodologyConfig::fast();
        mcfg.max_k = (cfg.ubd() as usize) * 3;
        bench(&format!("derive_ubd/toy_lbus{l_bus}"), 1, 10, || {
            std::hint::black_box(derive_ubd(&cfg, &mcfg).expect("derivation"));
        });
    }

    let cfg = MachineConfig::toy(4, 2);
    let mcfg = MethodologyConfig::fast();
    let jobs = clamped_jobs(None).0;
    bench("derive_ubd_repeated/3x_serial", 1, 5, || {
        std::hint::black_box(derive_ubd_repeated(&cfg, &mcfg, 3, 1).expect("runs"));
    });
    bench(&format!("derive_ubd_repeated/3x_jobs{jobs}"), 1, 5, || {
        std::hint::black_box(derive_ubd_repeated(&cfg, &mcfg, 3, jobs).expect("runs"));
    });

    bench("calibrate_delta_nop", 1, 10, || {
        let cfg = MachineConfig::ngmp_ref();
        std::hint::black_box(rrb::methodology::calibrate_delta_nop(&cfg, 10).expect("calibration"));
    });
}
