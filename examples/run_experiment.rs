//! Experiments as data: load a checked-in experiment file, inspect it,
//! and run it through the campaign runner.
//!
//! The spec (`examples/experiments/ngmp_sweep.json`) sweeps the rsk-nop
//! ubd derivation across 2–4 cores of the reference NGMP machine and
//! adds two explicit kernel workloads — all declared in JSON, no Rust
//! required. `rrb run examples/experiments/ngmp_sweep.json` executes the
//! same file from the command line.
//!
//! ```sh
//! cargo run --release -p rrb --example run_experiment
//! ```

use rrb::campaign::clamped_jobs;
use rrb::spec::ExperimentSpec;

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/experiments/ngmp_sweep.json");
    let spec = ExperimentSpec::from_file(path).expect("load the checked-in experiment file");
    // The checked-in file is the canonical rendering of its own parse:
    // specs round-trip losslessly, so file bytes == re-rendered bytes.
    let text = std::fs::read_to_string(path).expect("re-read for the canonical-form check");
    assert_eq!(spec.to_text(), text, "the spec file must stay in canonical form");

    println!(
        "experiment `{}` (spec hash {:016x}): {} scenario(s), ubd truth = {} cycles",
        spec.name,
        spec.spec_hash(),
        spec.scenarios().len(),
        spec.machine.ubd(),
    );
    let result = spec.to_campaign(clamped_jobs(None).0).run();
    print!("{}", result.render_text());

    // The 3- and 4-core cells must rediscover ubd = (Nc - 1) * 9 exactly.
    // On 2 cores the single load contender cannot keep the bus fully
    // saturated, so the measured period lands a cycle high (a safe
    // over-estimate; §4.3's fix is store contenders) — bound it instead.
    for (cores, expected) in [(3u64, 18u64), (4, 27)] {
        let name = format!("derive/rr/c{cores}/load-vs-load/i120");
        let report = result
            .reports
            .iter()
            .find(|r| r.scenario == name)
            .unwrap_or_else(|| panic!("missing report {name}"));
        assert_eq!(report.metric_u64("ubd_m"), Some(expected), "{name}");
    }
    let c2 = result
        .reports
        .iter()
        .find(|r| r.scenario == "derive/rr/c2/load-vs-load/i120")
        .expect("missing 2-core report");
    assert!(c2.metric_u64("ubd_m") >= Some(9), "2-core bound must stay conservative");
    println!("\nevery core count rediscovered its (Nc-1)*9 bound from the spec file alone.");
}
