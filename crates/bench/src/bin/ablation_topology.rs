//! Ablation: single-bus vs two-level contention topology — how tight is
//! the derived bound against the Eq. 1 truth once the memory-controller
//! queue is modelled, and under which bus arbiters?
//!
//! For each bus arbiter, the rsk-nop methodology runs on the same toy
//! machine twice: once with the classic single-bus topology, once with
//! the FIFO controller queue chained behind the bus. The saw-tooth
//! recovers the bus share exactly (rsk traffic hits in L2 at steady
//! state); the controller share is read off that resource's own γ
//! counters — which is why a measured `ubd_mc` of 0 does **not** mean
//! the queue is contention-free, only that the L2-hitting sweep never
//! exposed it. Every row therefore also records the per-resource
//! analytic truth (`truth_bus`, `truth_mc`) and the static analyzer's
//! per-resource bounds, which stay finite for every arbiter — including
//! the `fp`/`fifo` cells the measurement methodology refuses.
//!
//! The cells the methodology refuses are no longer holes: the bounded
//! model checker derives each cell's *exact* worst-case delay and an
//! adversarial witness, and this bench replays that witness on the full
//! simulator — so fp and fifo rows carry a measured delay too
//! (`witness_measured_*`), and no row is left with `refused: true`.
//!
//! The two-level cells also exercise the interference-flow composition:
//! the bus grant rate caps the controller queue's arrival rate, so the
//! flow-composed bound drops the mc term entirely (service fits inside a
//! bus rotation) where the saturating sum pays it in full. Each `bus+mc`
//! cell's `two_level_tightness` — witness-measured composed γ over the
//! flow bound — lands at 1.0 where the old measured-over-sum ratio sat
//! near 0.5.
//!
//! Artifacts: `BENCH_topology.json` (per-row measurement vs truth vs
//! exact), `BENCH_static.json` (static-bound coverage: zero refused
//! cells, all sound vs truth), and `BENCH_flow.json` (flow composition
//! vs saturating sum on the `bus+mc` cells), all gated by `bench_gate`.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin ablation_topology
//! ```

use rrb::analyze::{tightness_ratio, CellStaticBound};
use rrb::campaign::{clamped_jobs, Campaign, CampaignGrid, GridScenario};
use rrb::json::Json;
use rrb::statics::VerifyOptions;
use rrb::verify::{replay_cell_witnesses, verify_grid};
use rrb_sim::{ArbiterKind, MachineConfig, McQueueConfig, ResourceKind};

const MC_OCCUPANCY: u64 = 2;

fn base(two_level: bool) -> MachineConfig {
    let mut cfg = MachineConfig::toy(4, 2);
    if two_level {
        cfg.topology.mc =
            Some(McQueueConfig { service_occupancy: MC_OCCUPANCY, arbiter: ArbiterKind::Fifo });
    }
    cfg
}

fn main() {
    let arbiters = vec![ArbiterKind::RoundRobin, ArbiterKind::FixedPriority, ArbiterKind::Fifo];
    println!(
        "topology ablation on the toy machine (Nc = 4, l_bus = 2, l_mc = {MC_OCCUPANCY}):\n\
         single-bus truth ubd = {}, two-level truth ubd = {}\n",
        base(false).ubd(),
        base(true).ubd()
    );

    let mut rows = Vec::new();
    let mut flow_rows = Vec::new();
    let mut static_rows: Vec<CellStaticBound> = Vec::new();
    let mut derived = 0usize;
    let mut refused_measurement = 0usize;
    for two_level in [false, true] {
        let grid = CampaignGrid::new(GridScenario::Derive, base(two_level))
            .arbiters(arbiters.clone())
            .iterations(vec![80])
            .max_k(16);
        let verified = verify_grid(&grid, &VerifyOptions::default());
        let result = Campaign::builder().grid(&grid).jobs(clamped_jobs(None).0).build().run();
        // One report per grid cell, in the grid's enumeration order.
        for (report, exact) in result.reports.iter().zip(&verified) {
            let cell = &exact.statics;
            assert_eq!(report.scenario, cell.cell, "reports follow the grid's cell order");
            let (truth_bus, truth_mc, truth) = (cell.truth_bus, cell.truth_mc, cell.truth_total());
            let measured = report.metric_u64("ubd_total");
            let tightness = measured.map(|d| d as f64 / truth as f64);
            let static_tightness = cell.static_total().map(|s| s as f64 / truth as f64);

            // Replay the checker's adversarial witnesses on the full
            // simulator: the measured delay these runs produce covers the
            // fp/fifo cells the saw-tooth methodology refuses.
            let replays = replay_cell_witnesses(exact, 80);
            let replay_for = |kind: ResourceKind| replays.iter().find(|r| r.resource == kind);
            let witness_bus = replay_for(ResourceKind::Bus).and_then(|r| r.measured);
            let witness_mc = replay_for(ResourceKind::MemoryController).and_then(|r| r.measured);
            // Bus-only ratio: mc witnesses arrive bus-serialised on the
            // real machine, so their measured γ_mc sits near the queue's
            // structural floor and would understate the certificate.
            let witness_tightness =
                witness_bus.zip(exact.exact_bus()).map(|(m, e)| tightness_ratio(m, e));
            let refused = report.error.is_some() && witness_bus.is_none();
            derived += usize::from(measured.is_some() || witness_bus.is_some());
            refused_measurement += usize::from(refused);
            println!(
                "{:<36} measured = {:<8} witness = {:<8} exact = {:<8} static = {:<8} truth = {truth}",
                report.scenario,
                measured.map_or_else(|| String::from("refused"), |d| d.to_string()),
                witness_bus.map_or_else(|| String::from("none"), |d| d.to_string()),
                exact.exact_total().map_or_else(|| String::from("open"), |e| e.to_string()),
                cell.static_total().map_or_else(|| String::from("unbounded"), |s| s.to_string()),
            );
            rows.push(Json::obj(vec![
                ("scenario", Json::str(report.scenario.clone())),
                ("two_level", Json::Bool(two_level)),
                ("truth_bus", Json::U64(truth_bus)),
                ("truth_mc", Json::U64(truth_mc)),
                ("truth_ubd", Json::U64(truth)),
                ("ubd_bus", Json::option(report.metric_u64("ubd_bus"), Json::U64)),
                ("ubd_mc", Json::option(report.metric_u64("ubd_mc"), Json::U64)),
                ("ubd_total", Json::option(measured, Json::U64)),
                ("static_bus", Json::option(cell.static_bus(), Json::U64)),
                ("static_mc", Json::option(cell.static_mc(), Json::U64)),
                ("static_total", Json::option(cell.static_total(), Json::U64)),
                ("static_sound", Json::Bool(cell.violation().is_none())),
                ("exact_bus", Json::option(exact.exact_bus(), Json::U64)),
                ("exact_mc", Json::option(exact.exact_mc(), Json::U64)),
                ("exact_total", Json::option(exact.exact_total(), Json::U64)),
                ("exact_tightness", Json::option(exact.tightness(), Json::F64)),
                ("witness_measured_bus", Json::option(witness_bus, Json::U64)),
                ("witness_measured_mc", Json::option(witness_mc, Json::U64)),
                ("witness_tightness", Json::option(witness_tightness, Json::F64)),
                ("tightness", Json::option(tightness, Json::F64)),
                ("static_tightness", Json::option(static_tightness, Json::F64)),
                ("refused", Json::Bool(refused)),
            ]));

            if two_level {
                // Flow composition on the bus+mc cells: the witness
                // replay is the measured composed γ (bus γ plus mc γ of
                // the same adversarial schedule), and the flow bound
                // must dominate it while undercutting the saturating
                // sum. The exact mc term is deliberately not compared —
                // it assumes unconstrained arrivals, exactly the
                // pessimism the flow composition removes.
                let witness_composed = witness_bus.unwrap_or(0) + witness_mc.unwrap_or(0);
                let flow_total = cell.flow_total();
                let two_level_tightness = flow_total.map(|f| tightness_ratio(witness_composed, f));
                let sound_vs_measured = flow_total.is_some_and(|f| f >= witness_composed);
                let sound_vs_exact_bus =
                    cell.flow_bus().zip(exact.exact_bus()).is_some_and(|(f, e)| f >= e);
                let sound_vs_sum = flow_total.zip(cell.static_total()).is_some_and(|(f, s)| f <= s);
                flow_rows.push(Json::obj(vec![
                    ("scenario", Json::str(report.scenario.clone())),
                    ("sum_total", Json::option(cell.static_total(), Json::U64)),
                    ("flow_bus", Json::option(cell.flow_bus(), Json::U64)),
                    ("flow_mc", Json::option(cell.flow_mc(), Json::U64)),
                    ("flow_total", Json::option(flow_total, Json::U64)),
                    ("flow_slack", Json::option(cell.flow_slack(), Json::U64)),
                    ("exact_bus", Json::option(exact.exact_bus(), Json::U64)),
                    ("witness_composed", Json::U64(witness_composed)),
                    ("two_level_tightness", Json::option(two_level_tightness, Json::F64)),
                    ("sound_vs_measured", Json::Bool(sound_vs_measured)),
                    ("sound_vs_exact_bus", Json::Bool(sound_vs_exact_bus)),
                    ("sound_vs_sum", Json::Bool(sound_vs_sum)),
                ]));
            }
        }
        static_rows.extend(verified.into_iter().map(|v| v.statics));
    }
    println!(
        "\nexpected: only round-robin derives a *saw-tooth* bound (the methodology\n\
         is RR-specific), but no cell is refused outright any more: the model\n\
         checker's witness replay measures every fp and fifo cell too, and the\n\
         measured bus delay meets the exact bound. The measured mc share stays\n\
         near zero either way — witness arrivals reach the queue bus-serialised,\n\
         which is what truth_mc/static_mc record. The static analyzer bounds\n\
         every cell, fp and fifo included."
    );

    let refused_static = static_rows.iter().filter(|c| !c.bound.is_finite()).count();
    let unsound_static = static_rows.iter().filter(|c| c.violation().is_some()).count();

    let artifact = Json::obj(vec![
        ("bench", Json::str("ablation_topology")),
        ("mc_service_occupancy", Json::U64(MC_OCCUPANCY)),
        ("cells", Json::U64(rows.len() as u64)),
        ("derived", Json::U64(derived as u64)),
        ("refused_measurement", Json::U64(refused_measurement as u64)),
        ("rows", Json::Arr(rows)),
    ]);
    println!();
    write_artifact("BENCH_topology.json", &artifact);

    let static_artifact = Json::obj(vec![
        ("bench", Json::str("ablation_topology_static")),
        ("cells", Json::U64(static_rows.len() as u64)),
        ("refused_static", Json::U64(refused_static as u64)),
        ("unsound_static", Json::U64(unsound_static as u64)),
        ("all_finite", Json::Bool(refused_static == 0)),
        ("all_sound", Json::Bool(unsound_static == 0)),
        ("rows", Json::Arr(static_rows.iter().map(CellStaticBound::to_json).collect())),
    ]);
    write_artifact("BENCH_static.json", &static_artifact);

    let all_sound = flow_rows.iter().all(|r| {
        ["sound_vs_measured", "sound_vs_exact_bus", "sound_vs_sum"]
            .iter()
            .all(|k| matches!(r.get(k), Some(Json::Bool(true))))
    });
    let flow_artifact = Json::obj(vec![
        ("bench", Json::str("ablation_topology_flow")),
        ("cells", Json::U64(flow_rows.len() as u64)),
        ("all_sound", Json::Bool(all_sound)),
        ("rows", Json::Arr(flow_rows)),
    ]);
    write_artifact("BENCH_flow.json", &flow_artifact);
}

fn write_artifact(path: &str, artifact: &Json) {
    match std::fs::write(path, artifact.render_pretty()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
