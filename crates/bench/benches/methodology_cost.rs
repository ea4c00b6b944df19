//! Benchmark of the full methodology: what a complete blind `ubd`
//! derivation costs, per platform size (std-only harness;
//! `harness = false`).

use rrb::methodology::{derive_ubd, MethodologyConfig};
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

    bench("calibrate_delta_nop", 1, 10, || {
        let cfg = MachineConfig::ngmp_ref();
        std::hint::black_box(rrb::methodology::calibrate_delta_nop(&cfg, 10).expect("calibration"));
    });
}
