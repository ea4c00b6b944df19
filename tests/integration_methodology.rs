//! End-to-end validation of the rsk-nop methodology (§4–§5.3) on the
//! paper's two architectures — the headline result of the reproduction.
//!
//! These tests run the full pipeline (δ_nop calibration → k sweep →
//! period detection → disambiguation) on the NGMP-like machines and
//! assert the paper's numbers: `ubd_m = ubd = 27` on both `ref` and
//! `var`, while the naive estimators stay at 26 / 23.

use rrb::methodology::{calibrate_delta_nop, derive_ubd, MethodologyConfig, MethodologyError};
use rrb::naive::naive_rsk_vs_rsk;
use rrb_analysis::EtbPadding;
use rrb_kernels::AccessKind;
use rrb_sim::MachineConfig;

/// Shared sweep settings: paper-shaped but cheap enough for CI.
fn sweep() -> MethodologyConfig {
    let mut m = MethodologyConfig::paper();
    m.iterations = 200;
    m.max_k = 70; // > 2.5 periods of 27
    m
}

#[test]
fn methodology_recovers_ubd_on_reference_architecture() {
    let cfg = MachineConfig::ngmp_ref();
    let d = derive_ubd(&cfg, &sweep()).expect("derivation");
    assert_eq!(d.ubd_m, 27, "Fig. 7(a): period 27 on ref");
    assert_eq!(d.delta_nop, 1);
    assert_eq!(d.k_period, 27);
    assert!(d.min_bus_utilization > 0.95, "§4.3 confidence: saturation");
}

#[test]
fn methodology_recovers_ubd_on_variant_architecture() {
    // The variant's injection time is 4, not 1 — the saw-tooth is offset
    // but its period is unchanged (§5.3: "the period of the saw-tooth
    // shape is the same for both variant architectures").
    let cfg = MachineConfig::ngmp_var();
    let d = derive_ubd(&cfg, &sweep()).expect("derivation");
    assert_eq!(d.ubd_m, 27, "Fig. 7(a): period 27 on var too");
    assert_eq!(d.k_period, 27);
}

#[test]
fn methodology_beats_naive_on_both_architectures() {
    for cfg in [MachineConfig::ngmp_ref(), MachineConfig::ngmp_var()] {
        let naive = naive_rsk_vs_rsk(&cfg, AccessKind::Load, 300).expect("naive");
        let derived = derive_ubd(&cfg, &sweep()).expect("derivation");
        assert!(
            naive.ubd_m() < derived.ubd_m,
            "naive {} must undercut methodology {}",
            naive.ubd_m(),
            derived.ubd_m
        );
        assert_eq!(derived.ubd_m, cfg.ubd(), "methodology is exact");
    }
}

#[test]
fn naive_estimates_match_figure_6b() {
    let r = naive_rsk_vs_rsk(&MachineConfig::ngmp_ref(), AccessKind::Load, 400).expect("ref");
    assert_eq!(r.ubd_m_max_gamma, 26);
    let v = naive_rsk_vs_rsk(&MachineConfig::ngmp_var(), AccessKind::Load, 400).expect("var");
    assert_eq!(v.ubd_m_max_gamma, 23);
}

#[test]
fn delta_nop_calibration_is_exact_on_both_architectures() {
    for cfg in [MachineConfig::ngmp_ref(), MachineConfig::ngmp_var()] {
        assert_eq!(calibrate_delta_nop(&cfg, 20).expect("calibration"), 1);
    }
}

#[test]
fn methodology_handles_slow_nops_dividing_ubd() {
    // §4.2's "unlikely case δ_nop > 1": δ_nop = 3 divides ubd = 27, so
    // the k-space period collapses to 27 / gcd(3, 27) = 9. Inverting the
    // sampling with the calibrated δ_nop recovers the truth.
    let mut cfg = MachineConfig::ngmp_ref();
    cfg.nop_latency = 3;
    let d = derive_ubd(&cfg, &sweep()).expect("derivation");
    assert_eq!(d.delta_nop, 3);
    assert_eq!(d.k_period, 9, "sampled period = 27 / gcd(3, 27)");
    assert_eq!(d.ubd_m, 27, "inversion lands on the truth");
}

#[test]
fn methodology_handles_slow_nops_coprime_to_ubd() {
    // δ_nop = 2 is coprime to 27: the apparent period stays 27, but the
    // candidate set {27, 54} is genuinely ambiguous until the observed
    // maximum contention discards the impossible value.
    let mut cfg = MachineConfig::ngmp_ref();
    cfg.nop_latency = 2;
    let d = derive_ubd(&cfg, &sweep()).expect("derivation");
    assert_eq!(d.delta_nop, 2);
    assert_eq!(d.k_period, 27);
    assert!(d.candidates.len() > 1, "sampling is genuinely ambiguous: {:?}", d.candidates);
    assert_eq!(d.ubd_m, 27, "disambiguation still lands on the truth");
}

#[test]
fn etb_padding_from_derivation_is_sound() {
    // §4.3: pad = nr x ubd_m bounds any contended run.
    use rrb::campaign::RunSpec;
    use rrb::executor::Executor;
    use rrb_kernels::rsk_nop;
    use rrb_sim::CoreId;

    let cfg = MachineConfig::ngmp_ref();
    let d = derive_ubd(&cfg, &sweep()).expect("derivation");
    let scua = rsk_nop(AccessKind::Load, 2, &cfg, CoreId::new(0), 300);
    let isolated = Executor::new()
        .run(&RunSpec::isolated("isolated", cfg.clone(), scua.clone()))
        .expect("isolated");
    let etb = EtbPadding::new(isolated.bus_requests, d.ubd_m).etb(isolated.execution_time);
    let contended = Executor::new()
        .run(&RunSpec::contended_rsk("contended", cfg, scua, AccessKind::Load))
        .expect("contended");
    assert!(
        contended.execution_time <= etb,
        "contended {} must fit under ETB {etb}",
        contended.execution_time
    );
}

#[test]
fn etb_padding_from_naive_estimate_is_unsound_for_stores() {
    // The flip side: pad with the naive 26 and a store-heavy scua (whose
    // buffered requests really suffer 27) can exceed the bound's margin
    // per request. We check the shortfall arithmetic, which is the
    // paper's soundness argument in miniature.
    let cfg = MachineConfig::ngmp_ref();
    let naive = naive_rsk_vs_rsk(&cfg, AccessKind::Load, 300).expect("naive");
    let pad = EtbPadding::new(10_000, naive.ubd_m_max_gamma);
    assert!(pad.shortfall_against(cfg.ubd()) >= 10_000);
}

#[test]
fn non_round_robin_arbiters_do_not_mimic_rr() {
    // §4.3: knowing that the arbiter *is* round-robin is an input to the
    // methodology. This test documents why: under fixed priority the
    // highest-priority scua still sees a periodic slowdown — but its
    // period is one bus occupancy (the residual wait for the in-flight
    // transaction), not the RR window, so blindly trusting the output on
    // a non-RR bus yields a very different (here: much smaller) number.
    // Under TDMA the methodology refuses outright.
    use rrb_sim::ArbiterKind;

    let mut fp = MachineConfig::ngmp_ref();
    fp.topology.bus.arbiter = ArbiterKind::FixedPriority;
    match derive_ubd(&fp, &sweep()) {
        Ok(d) => assert_eq!(
            d.ubd_m, 9,
            "highest-priority core's tooth is one l_bus occupancy, not the RR ubd"
        ),
        Err(MethodologyError::NoPeriod { .. }) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }

    let mut tdma = MachineConfig::ngmp_ref();
    tdma.topology.bus.arbiter = ArbiterKind::Tdma { slot_cycles: 12 };
    match derive_ubd(&tdma, &sweep()) {
        Err(_) => {}
        Ok(d) => panic!("TDMA bus unexpectedly yielded ubd_m {}", d.ubd_m),
    }
}
