//! End-to-end validation of the `Scenario`/`Campaign` execution API:
//! parallel determinism, the shared-baseline cache, and per-run error
//! containment — the contracts every batch consumer (CLI, bench bins,
//! future scenarios) relies on.

use rrb::campaign::{Campaign, CampaignGrid, GridScenario};
use rrb::executor::Executor;
use rrb::methodology::{derive_ubd, MethodologyConfig, UbdScenario};
use rrb::scenario::Scenario;
use rrb_kernels::AccessKind;
use rrb_sim::{ArbiterKind, MachineConfig};

fn toy() -> MachineConfig {
    MachineConfig::toy(4, 2)
}

/// A small but non-trivial grid: 4 cells, mixed contender accesses, so
/// the plan contains both shared and distinct runs.
fn four_way_grid() -> CampaignGrid {
    CampaignGrid::new(GridScenario::Derive, toy())
        .contender_accesses(vec![AccessKind::Load, AccessKind::Store])
        .iterations(vec![60, 80])
        .max_k(14)
}

#[test]
fn parallel_campaign_output_is_byte_identical_to_serial() {
    let grid = four_way_grid();
    let serial = Campaign::builder().grid(&grid).jobs(1).build().run();
    let parallel = Campaign::builder().grid(&grid).jobs(8).build().run();

    // The strongest form of the determinism contract: the serialised
    // payloads match byte for byte, for both formats.
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.records, parallel.records);
    assert_eq!(serial.reports, parallel.reports);

    // And the campaign actually derived the hidden ubd = 6 in each cell.
    assert_eq!(serial.reports.len(), 4);
    for report in &serial.reports {
        assert_eq!(report.metric_u64("ubd_m"), Some(6), "{report:?}");
    }
}

#[test]
fn baseline_cache_returns_the_same_numbers_as_uncached_runs() {
    let grid = four_way_grid();
    let cached = Campaign::builder().grid(&grid).build().run();

    // The cache must be invisible in the results: every scenario,
    // planned and executed on its own, reports exactly what the
    // deduplicated campaign reported...
    assert_eq!(cached.reports.len(), grid.cell_count());
    for (scenario, report) in grid.scenarios().iter().zip(&cached.reports) {
        let outcomes = scenario.outcomes(&Executor::new()).expect("plan");
        assert_eq!(&scenario.analyze(&outcomes), report);
    }

    // ...and it must actually be working: the two contender accesses
    // share every isolated baseline and the calibration run.
    assert!(
        cached.stats.cache_hits > 0,
        "grid with shared baselines must hit the cache: {:?}",
        cached.stats
    );
    assert_eq!(cached.stats.planned_runs, cached.stats.executed_runs + cached.stats.cache_hits);
}

#[test]
fn invalid_grid_entry_surfaces_as_error_records_not_a_poisoned_campaign() {
    // A TDMA slot of 4 cycles cannot fit the 9-cycle NGMP transaction:
    // that cell's plan is rejected at validation. The round-robin cell
    // must be entirely unaffected.
    let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::ngmp_ref())
        .arbiters(vec![ArbiterKind::RoundRobin, ArbiterKind::Tdma { slot_cycles: 4 }])
        .iterations(vec![200])
        .max_k(70);
    let result = Campaign::builder().grid(&grid).jobs(4).build().run();

    assert_eq!(result.reports.len(), 2);
    let rr = &result.reports[0];
    let tdma = &result.reports[1];
    assert!(rr.is_ok(), "round-robin cell must succeed: {rr:?}");
    assert_eq!(rr.metric_u64("ubd_m"), Some(27), "the paper's headline number");
    assert!(!tdma.is_ok(), "TDMA cell must fail");
    assert!(tdma.error.as_deref().unwrap_or("").contains("TDMA slot"));

    // The failure is recorded, flagged, and contained.
    let error_records: Vec<_> = result.records.iter().filter(|r| !r.is_ok()).collect();
    assert_eq!(error_records.len(), 1);
    assert_eq!(error_records[0].scenario, tdma.scenario);
    assert!(result.stats.failed_runs > 0);
}

#[test]
fn runtime_run_failures_are_recorded_per_run() {
    // A valid configuration whose cycle budget is far too small: every
    // run of the scenario fails *at execution time*, and each failure
    // becomes its own error record instead of aborting the campaign.
    let mut starved = toy();
    starved.max_cycles = 50;
    let grid = CampaignGrid::new(GridScenario::Naive, toy());
    let campaign = Campaign::builder()
        .scenario(
            rrb::naive::NaiveScenario::new(
                starved,
                rrb_kernels::rsk_nop(AccessKind::Load, 0, &toy(), rrb_sim::CoreId::new(0), 1000),
                AccessKind::Load,
            )
            .named("starved"),
        )
        .grid(&grid)
        .build();
    let result = campaign.run();

    assert_eq!(result.reports.len(), 2);
    assert!(!result.reports[0].is_ok(), "starved scenario must fail");
    assert!(result.reports[1].is_ok(), "healthy scenario must be unaffected");
    let starved_records: Vec<_> =
        result.records.iter().filter(|r| r.scenario == "starved").collect();
    assert_eq!(starved_records.len(), 2, "one record per planned run");
    for record in starved_records {
        assert!(!record.is_ok());
        assert!(record.error.as_deref().unwrap_or("").contains("cycle budget"));
    }
}

#[test]
fn campaign_derivation_matches_direct_derive_ubd() {
    // The Scenario path and the classic free-function path must agree
    // exactly: same plan, same runs, same algebra.
    let cfg = toy();
    let mcfg = MethodologyConfig::fast();
    let direct = derive_ubd(&cfg, &mcfg).expect("direct derivation");

    let scenario = UbdScenario::new(cfg, mcfg).named("via-campaign");
    let outcomes = scenario.outcomes(&Executor::new().jobs(8)).expect("plan");
    let via_campaign = scenario.derivation(&outcomes).expect("campaign derivation");

    assert_eq!(direct, via_campaign);
}

#[test]
fn campaign_json_is_stable_across_repeated_runs() {
    // Same campaign, run twice: the simulator is deterministic, so the
    // payload must not drift (no timestamps, no iteration-order leaks).
    let grid = CampaignGrid::new(GridScenario::Sweep, toy()).max_k(13).iterations(vec![60]);
    let a = Campaign::builder().grid(&grid).jobs(2).build().run();
    let b = Campaign::builder().grid(&grid).jobs(3).build().run();
    assert_eq!(a.to_json(), b.to_json());
    assert_eq!(a.reports[0].metric_u64("period"), Some(6));
}

#[test]
fn two_level_campaign_reports_contributions_that_sum() {
    // Acceptance: a campaign on a bus+mc topology must emit per-resource
    // UBD contributions that sum to the reported total.
    let mut base = toy();
    base.topology.mc =
        Some(rrb_sim::McQueueConfig { service_occupancy: 2, arbiter: ArbiterKind::Fifo });
    let grid = CampaignGrid::new(GridScenario::Derive, base).iterations(vec![60]).max_k(14);
    let result = Campaign::builder().grid(&grid).build().run();
    assert_eq!(result.reports.len(), 1);
    let report = &result.reports[0];
    assert!(report.is_ok(), "{report:?}");
    assert!(report.scenario.ends_with("/bus+mc:fifo:2"), "{}", report.scenario);
    let bus = report.metric_u64("ubd_bus").expect("bus contribution");
    let mc = report.metric_u64("ubd_mc").expect("mc contribution");
    let total = report.metric_u64("ubd_total").expect("total");
    assert_eq!(bus + mc, total, "contributions must sum to the total");
    assert_eq!(bus, 6, "the saw-tooth still recovers the bus bound");
    assert_eq!(report.metric_u64("ubd_m"), Some(6));
    // The flat records expose the controller-queue delays too.
    let header = result.to_csv().lines().next().expect("header").to_string();
    assert!(header.ends_with("max_gamma_mc"), "{header}");
    assert!(
        result.records.iter().any(|r| r.max_gamma_mc.is_some()),
        "contended runs must record controller-queue gammas"
    );
}

#[test]
fn single_bus_derivation_has_one_contribution() {
    let d = derive_ubd(&toy(), &MethodologyConfig::fast()).expect("derivation");
    assert_eq!(d.resource_contributions.len(), 1);
    assert_eq!(d.resource_contributions[0].resource, "bus");
    assert_eq!(d.total_ubd_m(), d.ubd_m);
}
