//! A contention audit of a realistic software component — the workflow a
//! timing analyst would run on a COTS platform (§4.3, "Using ubd_m").
//!
//! ```sh
//! cargo run --release --example contention_audit
//! ```
//!
//! 1. Derive `ubd_m` once per platform with the rsk-nop methodology.
//! 2. Measure the component in isolation: execution time and bus
//!    requests (`nr`).
//! 3. Pad the execution-time bound: `ETB = ExecTime_isol + nr × ubd_m`.
//! 4. Sanity-check the bound against actual contended runs.

use rrb::campaign::RunSpec;
use rrb::executor::Executor;
use rrb::methodology::{derive_ubd, MethodologyConfig};
use rrb_analysis::EtbPadding;
use rrb_kernels::{AccessKind, AutobenchKernel};
use rrb_sim::{CoreId, MachineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MachineConfig::ngmp_ref();

    // 1. Platform characterisation (one-off).
    let mut mcfg = MethodologyConfig::paper();
    mcfg.iterations = 300;
    let derivation = derive_ubd(&cfg, &mcfg)?;
    println!("platform ubd_m = {} cycles\n", derivation.ubd_m);

    // 2. The software component under analysis: an automotive kernel.
    let kernel = AutobenchKernel::Canrdr;
    let scua = kernel.profile().program(&cfg, CoreId::new(0), 1234, Some(400));
    let isolated =
        Executor::new().run(&RunSpec::isolated(kernel.to_string(), cfg.clone(), scua.clone()))?;
    println!(
        "{kernel}: isolation time {} cycles, {} bus requests",
        isolated.execution_time, isolated.bus_requests
    );

    // 3. The execution-time bound.
    let padding = EtbPadding::new(isolated.bus_requests, derivation.ubd_m);
    let etb = padding.etb(isolated.execution_time);
    println!("{padding}");
    println!("ETB = {etb} cycles\n");

    // 4. Validation: no contended run may exceed the bound.
    for trial in 0..3 {
        let spec = RunSpec::contended_rsk(
            format!("trial {trial}"),
            cfg.clone(),
            scua.clone(),
            AccessKind::Load,
        );
        let contended = Executor::new().run(&spec)?;
        let slack = etb as i64 - contended.execution_time as i64;
        println!(
            "trial {trial}: contended time {} cycles (ETB slack {slack} cycles, max gamma {})",
            contended.execution_time,
            contended.gamma_histogram.max().unwrap_or(0),
        );
        assert!(contended.execution_time <= etb, "ETB violated: the bound is unsound");
    }
    println!("\n=> every contended run fits under the padded bound.");
    Ok(())
}
