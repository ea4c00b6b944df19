//! Property-based tests over the reproduction's core invariants.
//!
//! Where the integration tests check the paper's specific numbers, these
//! check the *algebra* for arbitrary parameters: Eq. 1/Eq. 2 identities,
//! period-detection round trips, histogram laws, and machine-level
//! bounds on randomly generated programs.
//!
//! The case generator is the workspace's own deterministic
//! [`KernelRng`] (std-only, fixed seeds), so failures reproduce exactly.

mod common;

use rrb_analysis::gamma::{ubd_from_parameters, GammaModel};
use rrb_analysis::sawtooth::{detect_period, exact_period, ubd_candidates};
use rrb_analysis::{EtbPadding, Histogram};
use rrb_kernels::{rsk, KernelRng, RskBuilder};
use rrb_sim::{CoreId, Instr, Machine, MachineConfig, Program};

use common::for_cases;

// ---------- Eq. 2 algebra ----------

/// γ(δ) is bounded by ubd and hits ubd only at δ = 0.
#[test]
fn gamma_bounded_by_ubd() {
    for_cases(0x01, 64, |rng| {
        let ubd = rng.gen_range(1, 200);
        let delta = rng.gen_below(2000);
        let g = GammaModel::new(ubd).gamma(delta);
        assert!(g <= ubd);
        if delta > 0 {
            assert!(g < ubd, "ubd={ubd} delta={delta}");
        }
    });
}

/// γ is periodic with period ubd for δ > 0.
#[test]
fn gamma_periodicity() {
    for_cases(0x02, 64, |rng| {
        let ubd = rng.gen_range(1, 200);
        let delta = rng.gen_range(1, 1000);
        let m = GammaModel::new(ubd);
        assert_eq!(m.gamma(delta), m.gamma(delta + ubd), "ubd={ubd} delta={delta}");
    });
}

/// γ(δ) + (δ mod ubd) ≡ 0 (mod ubd): waiting plus offset closes the
/// round-robin window.
#[test]
fn gamma_plus_offset_is_window() {
    for_cases(0x03, 64, |rng| {
        let ubd = rng.gen_range(1, 200);
        let delta = rng.gen_range(1, 1000);
        let g = GammaModel::new(ubd).gamma(delta);
        assert_eq!((g + delta % ubd) % ubd, 0, "ubd={ubd} delta={delta}");
    });
}

/// Eq. 1 is monotone in both parameters.
#[test]
fn ubd_monotone() {
    for_cases(0x04, 64, |rng| {
        let nc = rng.gen_range(1, 16);
        let lbus = rng.gen_range(1, 64);
        assert!(ubd_from_parameters(nc + 1, lbus) >= ubd_from_parameters(nc, lbus));
        assert!(ubd_from_parameters(nc, lbus + 1) >= ubd_from_parameters(nc, lbus));
    });
}

// ---------- Saw-tooth detection ----------

/// Detection round-trips synthesis: an Eq. 2 sweep with δ_nop = 1 over
/// ≥ 2 periods always yields exactly ubd.
#[test]
fn period_detection_round_trip() {
    for_cases(0x05, 64, |rng| {
        let ubd = rng.gen_range(2, 80);
        let delta0 = rng.gen_range(1, 80);
        let extra = rng.gen_below(40) as usize;
        let len = (2 * ubd) as usize + 2 + extra;
        let series = GammaModel::new(ubd).sweep(delta0, 1, len);
        assert_eq!(exact_period(&series), Some(ubd), "ubd={ubd} delta0={delta0} len={len}");
    });
}

/// Detection is scale-invariant (slowdown = per-request γ × requests).
#[test]
fn period_detection_scale_invariant() {
    for_cases(0x06, 64, |rng| {
        let ubd = rng.gen_range(2, 60);
        let requests = rng.gen_range(1, 100_000);
        let len = (2 * ubd + 4) as usize;
        let series: Vec<u64> =
            GammaModel::new(ubd).sweep(1, 1, len).into_iter().map(|g| g * requests).collect();
        let est = detect_period(&series, 0).expect("periodic series");
        assert_eq!(est.period, ubd, "ubd={ubd} requests={requests}");
    });
}

/// The sampled-sweep candidate set always contains the true ubd.
#[test]
fn candidates_contain_truth() {
    for_cases(0x07, 64, |rng| {
        let ubd = rng.gen_range(4, 60);
        let q = rng.gen_range(1, 6);
        let len = (3 * ubd) as usize;
        let series = GammaModel::new(ubd).sweep(1, q, len);
        if let Some(p) = exact_period(&series) {
            let cands = ubd_candidates(p, q);
            assert!(cands.contains(&ubd), "p={p} q={q} cands={cands:?}");
        }
    });
}

// ---------- Histogram laws ----------

#[test]
fn histogram_total_equals_input_len() {
    for_cases(0x08, 64, |rng| {
        let len = rng.gen_below(200) as usize;
        let values: Vec<u64> = (0..len).map(|_| rng.gen_below(50)).collect();
        let h: Histogram = values.iter().copied().collect();
        assert_eq!(h.total(), values.len() as u64);
        if let Some(max) = values.iter().max() {
            assert_eq!(h.max(), Some(*max));
        }
        // Quantiles are monotone.
        if !values.is_empty() {
            assert!(h.quantile(0.25) <= h.quantile(0.75));
        }
    });
}

#[test]
fn histogram_merge_is_additive() {
    for_cases(0x09, 64, |rng| {
        let la = rng.gen_below(50) as usize;
        let lb = rng.gen_below(50) as usize;
        let a: Vec<u64> = (0..la).map(|_| rng.gen_below(20)).collect();
        let b: Vec<u64> = (0..lb).map(|_| rng.gen_below(20)).collect();
        let ha: Histogram = a.iter().copied().collect();
        let hb: Histogram = b.iter().copied().collect();
        let mut merged = ha.clone();
        merged.merge(&hb);
        assert_eq!(merged.total(), ha.total() + hb.total());
        for v in 0..20u64 {
            assert_eq!(merged.count(v), ha.count(v) + hb.count(v));
        }
    });
}

// ---------- ETB algebra ----------

#[test]
fn etb_padding_laws() {
    for_cases(0x0a, 64, |rng| {
        let nr = rng.gen_below(1_000_000);
        let ubd_m = rng.gen_below(1_000);
        let truth = rng.gen_below(1_000);
        let p = EtbPadding::new(nr, ubd_m);
        assert_eq!(p.pad(), nr * ubd_m);
        // Shortfall is zero iff the estimate covers the truth (or nr = 0).
        if ubd_m >= truth || nr == 0 {
            assert_eq!(p.shortfall_against(truth), 0);
        } else {
            assert!(p.shortfall_against(truth) > 0, "nr={nr} ubd_m={ubd_m} truth={truth}");
        }
    });
}

// ---------- Machine-level properties (expensive; few cases) ----------

/// For arbitrary small programs under saturating contenders, no
/// request's contention ever exceeds Eq. 1's bound.
#[test]
fn no_request_exceeds_ubd() {
    for_cases(0x0b, 12, |rng| {
        let cfg = MachineConfig::toy(4, 2);
        let layout = rrb_kernels::DataLayout::for_core(&cfg, CoreId::new(0));
        let len = rng.gen_range(1, 20) as usize;
        let iters = rng.gen_range(5, 40);
        let body: Vec<Instr> = (0..len)
            .map(|i| match rng.gen_below(4) {
                0 => Instr::load(layout.addr((i % 5) as u64)),
                1 => Instr::store(layout.addr((i % 5) as u64)),
                2 => Instr::Nop,
                _ => Instr::Alu { latency: 2 },
            })
            .collect();
        let mut m = Machine::new(cfg.clone()).expect("config");
        m.load_program(CoreId::new(0), Program::from_body(body, iters));
        for i in 1..4 {
            m.load_program(
                CoreId::new(i),
                rsk(rrb_kernels::AccessKind::Load, &cfg, CoreId::new(i)),
            );
        }
        m.run().expect("run");
        if let Some(max) = m.pmc().core(CoreId::new(0)).max_gamma() {
            assert!(max <= cfg.ubd(), "gamma {} > ubd {}", max, cfg.ubd());
        }
    });
}

/// Execution time in isolation is deterministic and contention can
/// only increase it.
#[test]
fn contention_never_speeds_up_the_scua() {
    for_cases(0x0c, 12, |rng| {
        let cfg = MachineConfig::toy(4, 2);
        let k = rng.gen_below(8) as usize;
        let iters = rng.gen_range(10, 60);
        let scua = RskBuilder::new(rrb_kernels::AccessKind::Load)
            .nops(k)
            .iterations(iters)
            .build(&cfg, CoreId::new(0));

        let mut iso = Machine::new(cfg.clone()).expect("config");
        iso.load_program(CoreId::new(0), scua.clone());
        let t_iso = iso.run().expect("run").core(CoreId::new(0)).execution_time().expect("done");

        let mut con = Machine::new(cfg.clone()).expect("config");
        con.load_program(CoreId::new(0), scua);
        for i in 1..4 {
            con.load_program(
                CoreId::new(i),
                rsk(rrb_kernels::AccessKind::Load, &cfg, CoreId::new(i)),
            );
        }
        let t_con = con.run().expect("run").core(CoreId::new(0)).execution_time().expect("done");
        assert!(t_con >= t_iso, "contended {t_con} < isolated {t_iso} (k={k} iters={iters})");
    });
}

// ---------- Campaign invariants ----------

/// Parallel plan execution is pointwise equal to serial for arbitrary
/// mixed plans — the determinism contract behind `--jobs`.
#[test]
fn campaign_execution_is_schedule_invariant() {
    use rrb::campaign::RunSpec;
    use rrb::executor::Executor;
    let cfg = MachineConfig::toy(4, 2);
    let mut rng = KernelRng::seed_from_u64(0x0d);
    let specs: Vec<RunSpec> = (0..10)
        .map(|i| {
            let k = rng.gen_below(6) as usize;
            let iters = rng.gen_range(10, 50);
            let scua = RskBuilder::new(rrb_kernels::AccessKind::Load)
                .nops(k)
                .iterations(iters)
                .build(&cfg, CoreId::new(0));
            if rng.gen_below(2) == 0 {
                RunSpec::isolated(format!("i{i}"), cfg.clone(), scua)
            } else {
                RunSpec::contended_rsk(
                    format!("c{i}"),
                    cfg.clone(),
                    scua,
                    rrb_kernels::AccessKind::Load,
                )
            }
        })
        .collect();
    let serial = Executor::new().execute(&specs).0;
    for jobs in [2usize, 3, 8] {
        assert_eq!(Executor::new().jobs(jobs).execute(&specs).0, serial, "jobs={jobs}");
    }
}

// ---------- Arbiter invariants ----------

use rrb_sim::bus::{Arbiter, FifoArbiter, RequestView, TdmaArbiter};
use rrb_sim::{ArbiterKind, BusConfig, BusOpKind, SharedResource};

/// A pseudo-random request view: each requester is independently absent,
/// ready in the past, or ready in the future.
fn random_view(rng: &mut KernelRng, n: usize, now: u64) -> Vec<Option<RequestView>> {
    (0..n)
        .map(|_| match rng.gen_below(3) {
            0 => None,
            1 => Some(RequestView { ready: now.saturating_sub(rng.gen_below(50)), occupancy: 2 }),
            _ => Some(RequestView { ready: now + 1 + rng.gen_below(50), occupancy: 2 }),
        })
        .collect()
}

/// TDMA only ever grants the owner of the current slot, and only when the
/// transaction fits in the slot's remainder.
#[test]
fn tdma_grants_only_inside_the_owners_slot() {
    for_cases(0x20, 200, |rng| {
        let n = rng.gen_range(2, 6) as usize;
        let slot = rng.gen_range(2, 12);
        let now = rng.gen_below(10_000);
        let mut view = random_view(rng, n, now);
        // Randomise occupancies so slot-fitting is exercised too.
        for v in view.iter_mut().flatten() {
            v.occupancy = rng.gen_range(1, 15);
        }
        let mut a = TdmaArbiter::new(n, slot);
        if let Some(granted) = a.select(&view, now) {
            let owner = ((now / slot) as usize) % n;
            assert_eq!(granted, owner, "TDMA granted a non-owner (now={now} slot={slot})");
            let req = view[granted].expect("granted an empty slot");
            assert!(req.ready <= now, "granted a future request");
            assert!(
                req.occupancy <= slot - (now % slot),
                "transaction overruns the slot (now={now} slot={slot})"
            );
        }
    });
}

/// FIFO grants strictly in ready-time order (ties to the lower index).
/// The oracle is stated independently of the implementation: a grant
/// must exist exactly when some request is ready, the granted request
/// must itself be ready, and no other ready request may precede it in
/// (ready, index) order.
#[test]
fn fifo_grants_in_ready_time_order() {
    for_cases(0x21, 200, |rng| {
        let n = rng.gen_range(2, 8) as usize;
        let now = rng.gen_below(10_000);
        let view = random_view(rng, n, now);
        let mut a = FifoArbiter;
        let any_ready = view.iter().flatten().any(|r| r.ready <= now);
        match a.select(&view, now) {
            None => assert!(!any_ready, "FIFO left a ready request waiting"),
            Some(g) => {
                let granted = view[g].expect("granted an empty slot");
                assert!(granted.ready <= now, "granted a future request");
                for (i, req) in view.iter().enumerate() {
                    if i == g {
                        continue;
                    }
                    if let Some(r) = req {
                        if r.ready <= now {
                            assert!(
                                r.ready > granted.ready || (r.ready == granted.ready && i > g),
                                "request {i} (ready {}) precedes the grant {g} (ready {})",
                                r.ready,
                                granted.ready
                            );
                        }
                    }
                }
            }
        }
    });
}

/// Under saturation, a grouped-RR requester's per-request delay is
/// bounded by the group-count UBD: consecutive services of one member
/// are at most `max_group_size * groups` grants apart, so
/// `gamma <= (max_group_size * groups - 1) * l`.
#[test]
fn grouped_rr_delay_bounded_by_group_count_ubd() {
    for_cases(0x22, 8, |rng| {
        let num_cores = rng.gen_range(3, 7) as usize;
        let group_size = rng.gen_range(1, num_cores as u64) as usize;
        let l = rng.gen_range(1, 5);
        let cfg = BusConfig {
            l2_hit_occupancy: l,
            transfer_occupancy: l,
            store_occupancy: l,
            arbiter: ArbiterKind::GroupedRoundRobin { group_size },
        };
        let mut bus = SharedResource::bus(cfg, num_cores);
        for i in 0..num_cores {
            bus.post(CoreId::new(i), BusOpKind::Load, 0, 0);
        }
        let groups = num_cores.div_ceil(group_size);
        let bound = (group_size as u64 * groups as u64 - 1) * l;
        for now in 0..3_000u64 {
            if let Some(done) = bus.take_completed(now) {
                assert!(
                    done.gamma() <= bound,
                    "gamma {} > bound {bound} (cores={num_cores} group={group_size} l={l})",
                    done.gamma()
                );
                bus.post(done.core, BusOpKind::Load, 0, now);
            }
            bus.try_grant(now, |_, _| (l, Some(true)));
        }
    });
}
