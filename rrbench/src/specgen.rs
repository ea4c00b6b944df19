//! Seeded experiment specs. The seed picks the EEMBC kernels and kernel
//! seeds of the workload cases; the grid axes stay fixed, so run and
//! cell counts are the same for every seed. The measured program only
//! ever receives the rendered spec text.

use rrb::campaign::{CampaignGrid, GridScenario};
use rrb::kernels::{AccessKind, AutobenchKernel, KernelRng, KernelSpec};
use rrb::sim::{ArbiterKind, MachineConfig, McQueueConfig};
use rrb::spec::{ExperimentSpec, WorkloadCase};

/// The checked-in NGMP sweep, included unchanged.
pub const NGMP_SWEEP: &str = include_str!("../../examples/experiments/ngmp_sweep.json");

/// Nop-padding ceiling of the generated derive sweep: long enough for
/// the round-robin saw-tooth on four cores (period 27) to repeat.
const DERIVE_MAX_K: usize = 60;

/// A named spec text.
pub struct SpecText {
    /// Short name used in output lines.
    pub name: &'static str,
    /// The spec as the program receives it.
    pub text: String,
}

/// Parses and validates spec text, as `rrb run` loads a file. The texts
/// are the generator's own, so a failure is a benchmark bug.
pub fn parse(text: &str) -> ExperimentSpec {
    let spec = ExperimentSpec::parse(text).expect("generated spec text parses");
    spec.validate().expect("generated spec validates");
    spec
}

fn arbiters() -> Vec<ArbiterKind> {
    vec![
        ArbiterKind::RoundRobin,
        ArbiterKind::FixedPriority,
        ArbiterKind::Fifo,
        ArbiterKind::Tdma { slot_cycles: 9 },
        ArbiterKind::GroupedRoundRobin { group_size: 2 },
    ]
}

fn pick_kernel(rng: &mut KernelRng) -> AutobenchKernel {
    let all = AutobenchKernel::all();
    all[rng.gen_below(all.len() as u64) as usize]
}

/// Two workload cases: a finite EEMBC scua against an rsk, an endless
/// EEMBC kernel and a pointer chase.
fn workload_cases(rng: &mut KernelRng) -> Vec<WorkloadCase> {
    (0..2)
        .map(|i| {
            let scua = KernelSpec::Eembc {
                kernel: pick_kernel(rng),
                seed: rng.gen_range(1, 1 << 20),
                iterations: Some(150),
            };
            let contenders = vec![
                KernelSpec::Rsk { access: AccessKind::Load },
                KernelSpec::Eembc {
                    kernel: pick_kernel(rng),
                    seed: rng.gen_range(1, 1 << 20),
                    iterations: None,
                },
                KernelSpec::PointerChase { lines: 5, seed: rng.gen_range(1, 1 << 20) },
            ];
            WorkloadCase { name: format!("case{i}"), scua, contenders }
        })
        .collect()
}

/// The derive-cold and serve-warm specs: `ngmp_sweep.json` plus a
/// five-arbiter derive sweep over cores 2–4 on the two-level NGMP
/// reference machine.
pub fn derive_specs(seed: u64) -> Vec<SpecText> {
    let mut rng = KernelRng::seed_from_u64(seed);
    let ngmp = ExperimentSpec::parse(NGMP_SWEEP).expect("the checked-in ngmp_sweep.json parses");
    let mut methodology = ngmp.grid.expect("ngmp_sweep.json has a grid section").methodology;
    methodology.max_k = DERIVE_MAX_K;
    let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::ngmp_two_level())
        .arbiters(arbiters())
        .cores(vec![2, 3, 4])
        .iterations(vec![methodology.iterations])
        .max_k(DERIVE_MAX_K)
        .methodology(methodology);
    let mut sweep = ExperimentSpec::from_grid("five-arbiter-sweep", &grid);
    sweep.workloads = workload_cases(&mut rng);
    vec![
        SpecText { name: "ngmp_sweep", text: NGMP_SWEEP.to_string() },
        SpecText { name: "five_arbiter", text: sweep.to_text() },
    ]
}

/// The bounds specs: all five arbiters × cores 2–4 on the toy and the
/// reference machine, each single-bus and bus+mc, with workload cases.
pub fn bounds_specs(seed: u64) -> Vec<SpecText> {
    let mut rng = KernelRng::seed_from_u64(seed ^ 0xb0d5);
    let toy_mc = McQueueConfig { service_occupancy: 2, ..McQueueConfig::ngmp() };
    let machines = [
        ("toy_single", MachineConfig::toy(4, 2), None),
        ("toy_two_level", MachineConfig::toy(4, 2), Some(toy_mc)),
        ("ref_single", MachineConfig::ngmp_ref(), None),
        ("ref_two_level", MachineConfig::ngmp_ref(), Some(McQueueConfig::ngmp())),
    ];
    machines
        .into_iter()
        .map(|(name, mut machine, mc)| {
            machine.topology.mc = mc;
            let grid = CampaignGrid::new(GridScenario::Derive, machine)
                .arbiters(arbiters())
                .cores(vec![2, 3, 4]);
            let mut spec = ExperimentSpec::from_grid(name, &grid);
            spec.workloads = workload_cases(&mut rng);
            SpecText { name, text: spec.to_text() }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(seed: u64) -> Vec<SpecText> {
        derive_specs(seed).into_iter().chain(bounds_specs(seed)).collect()
    }

    #[test]
    fn the_same_seed_gives_byte_identical_spec_text() {
        for (a, b) in all(7).iter().zip(all(7)) {
            assert_eq!(a.text, b.text, "{}", a.name);
        }
    }

    #[test]
    fn two_seeds_give_different_spec_hashes() {
        let hash = |s: &SpecText| ExperimentSpec::parse(&s.text).expect("parses").spec_hash();
        for (a, b) in all(1).iter().zip(all(2)).skip(1) {
            assert_ne!(hash(a), hash(&b), "{}", a.name);
        }
        assert_eq!(derive_specs(1)[0].text, NGMP_SWEEP, "ngmp_sweep.json is included unchanged");
    }

    #[test]
    fn generated_specs_validate_and_lint_clean_with_fixed_grids() {
        for seed in 0..8 {
            for s in all(seed) {
                let spec = ExperimentSpec::parse(&s.text).expect("parses");
                spec.validate().unwrap_or_else(|e| panic!("{} seed {seed}: {e}", s.name));
                assert!(!rrb::lint::has_errors(&rrb::lint::lint_spec(&spec)), "{}", s.name);
                let cells = spec.to_grid().map_or(0, |g| g.cell_count());
                assert_eq!(cells, if s.name == "ngmp_sweep" { 3 } else { 15 }, "{}", s.name);
            }
        }
    }
}
