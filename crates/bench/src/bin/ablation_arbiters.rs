//! Ablation: does the saw-tooth methodology survive under non-RR
//! arbiters? (It must not — the synchrony effect is round-robin
//! specific, and the methodology's confidence checks must refuse.)
//!
//! The experiment itself is **data**: `specs/ablation_arbiters.json`
//! declares the machine, the arbiter axis, and the methodology; this bin
//! only loads and executes it. Edit the JSON to change the ablation — no
//! recompile — or run it directly with
//! `rrb run crates/bench/specs/ablation_arbiters.json`.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin ablation_arbiters
//! ```

use rrb::campaign::clamped_jobs;
use rrb::spec::ExperimentSpec;

fn main() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/specs/ablation_arbiters.json");
    let spec = ExperimentSpec::from_file(path).expect("load the checked-in experiment file");
    let text = std::fs::read_to_string(path).expect("re-read for the canonical-form check");
    assert_eq!(spec.to_text(), text, "the spec file must stay in canonical form");
    println!(
        "toy bus (Nc = 4, l_bus = 2, RR-ubd would be 6) — spec `{}`, hash {:016x}\n",
        spec.name,
        spec.spec_hash()
    );
    let result = spec.to_campaign(clamped_jobs(None).0).run();
    print!("{}", result.render_text());
    println!(
        "\nexpected: only round-robin yields ubd_m = 6; every other policy is refused\n\
         (no saw-tooth, failed utilisation check, or starvation) — the methodology's\n\
         applicability condition (§4.3: the bus must be RR) is self-checking."
    );
}
