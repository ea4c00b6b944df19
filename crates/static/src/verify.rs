//! Exhaustive model checking of the abstract arbiter model:
//! *exact* worst-case per-request delays, with replayable adversarial
//! witnesses.
//!
//! [`bounds`](crate::bounds) derives closed-form *upper* bounds on the
//! simulator's `γ = granted - ready`. This module closes the other side:
//! for each arbitrated resource it drives the **real arbiter
//! implementation** ([`rrb_sim::build_arbiter`]) over an abstract
//! single-resource model and enumerates every request-arrival alignment,
//! computing the exact worst-case delay the observed core can suffer.
//! `exact <= static` certifies the analytic model sound; `exact / static`
//! is its tightness certificate; and the maximising alignment is returned
//! as a [`Witness`] that both replays deterministically here
//! ([`Witness::replay`]) and synthesises into a concrete simulator
//! workload (`RunSpec::from_witness` in the core crate).
//!
//! ## The abstract model
//!
//! One resource in isolation, arbitrated on the uniform worst-case
//! occupancy `L` (exactly the view the simulator's arbiters get). The
//! observed core 0 — where the measurement methodology places the scua —
//! posts a *stream* of requests, reposting `gap` cycles after each
//! completion; every requesting contender saturates (reposts immediately
//! on completion). A stream rather than a single cold request matters:
//! the worst arbiter states (e.g. round-robin's head pointing *just past*
//! the observed core) are only reachable after the observed core's own
//! grants. The model mirrors the simulator's in-cycle phase order
//! (completion, then repost, then select), so a delay observed here is a
//! delay the full machine can exhibit.
//!
//! ## Alignment enumeration and per-arbiter pruning
//!
//! An alignment is the observed stream's repost gap plus one initial
//! ready offset per contender. The gap sweep is floored at the observed
//! profile's `min_gap` — a sound lower bound on how fast the real core
//! can repost — so the exact bound certifies the *reachable* worst case
//! of the actual workload, not the gap-0 envelope (e.g. for back-to-back
//! loads the Eq. 1 bound is off by exactly the L1 lookup latency, and
//! the checker proves it). The full space is `(P+1)^(m+1)` for period
//! `P` and `m` contenders; per-arbiter symmetry collapses it:
//!
//! * **rr / grr** — rotation symmetry: saturating contenders are
//!   interchangeable, so any contender offset assignment is a relabelling
//!   reachable by rotating the head pointer(s); the observed-gap sweep
//!   over a full rotation period visits every (head, phase) class.
//!   Contender offsets collapse to zero.
//! * **fp** — priority-level dominance: the observed core has top
//!   priority, so pending lower-priority requests never overtake it; only
//!   the in-flight transaction blocks. Contender offsets collapse to
//!   zero.
//! * **tdma** — slot-phase classes: grants depend only on `now mod Nc·s`
//!   and the owner's own request; contenders cannot delay the observed
//!   core at all. Only the observed gap (slot phase) is swept.
//! * **fifo** — queue-prefix canonicalisation: only the multiset of
//!   contender ready times relative to the observed request within one
//!   occupancy matters (identical contenders make permutations
//!   equivalent, and the gap sweep covers coarser shifts); the checker
//!   enumerates nondecreasing offset tuples over `0..=L`.
//!
//! ## Event-driven lasso search
//!
//! Each alignment is a deterministic finite system: its future depends
//! only on the arbiter's decision state and each requester's pending
//! ready cycle, both relative to `now`. The search jumps from event to
//! event — the active completion, or the earliest cycle any pending
//! request could be granted ([`Arbiter::earliest_grant`], exact for
//! tdma) — and at every bus-free decision point packs that relative
//! state into an exact fixed-width key: the arbiter's
//! [`Arbiter::ff_signature`] plus each core's tagged `ready - now`. When
//! a key recurs on the current path the schedule has closed a lasso, and
//! the worst delay on it is the alignment's exact worst case for any
//! horizon. A memo of resolved states → worst future observed delay lets
//! a later alignment that reaches a known state stop there; it is scoped
//! to one (resource, observed gap) and cleared when the gap changes, so
//! the gap stays out of the key.
//!
//! The horizon is only a safety cap. An alignment that reaches it before
//! closing its lasso, or whose state does not fit the key, reports the
//! worst delay within the cap — the plain bounded result — and is never
//! memoised. The default auto cap covers several rotation periods.

use crate::bounds::{can_request, resource_models};
use crate::profile::CoreProfile;
use rrb_sim::{build_arbiter, Arbiter, ArbiterKind, MachineConfig, RequestView, ResourceKind};

/// Options for the model checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VerifyOptions {
    /// Safety cap on the cycles explored per alignment before its lasso
    /// closes; `0` picks an automatic cap of several rotation periods.
    pub horizon: u64,
}

impl VerifyOptions {
    fn effective_horizon(&self, period: u64, occupancy: u64) -> u64 {
        if self.horizon > 0 {
            self.horizon
        } else {
            period.saturating_mul(8).saturating_add(occupancy.saturating_mul(16)).saturating_add(64)
        }
    }
}

/// The adversarial alignment that achieves the exact worst-case delay:
/// everything needed to re-simulate it, here or on the full machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// Resource the delay occurs at.
    pub resource: ResourceKind,
    /// Arbiter policy under test.
    pub arbiter: ArbiterKind,
    /// Number of cores in the model.
    pub num_cores: usize,
    /// Uniform worst-case occupancy the arbiter budgeted for.
    pub occupancy: u64,
    /// Observed core's repost gap (completion to next post).
    pub observed_gap: u64,
    /// Initial ready offset per contender core (`1..Nc`); `None` marks a
    /// core that never requests at this resource.
    pub contender_offsets: Vec<Option<u64>>,
    /// The exact worst-case delay this alignment achieves.
    pub delay: u64,
    /// Safety cap on the cycles the alignment is explored to before its
    /// lasso closes.
    pub horizon: u64,
}

impl Witness {
    /// Deterministically re-runs the witness alignment in the abstract
    /// model and returns the worst delay it exhibits — by construction
    /// equal to [`Witness::delay`]. This is the cheap certificate check:
    /// a mismatch means the checker is broken.
    pub fn replay(&self) -> Option<u64> {
        let period = rotation_period(self.arbiter, self.num_cores as u64, self.occupancy);
        LassoSearch::new(self.arbiter, self.num_cores, self.occupancy, period).worst(
            self.observed_gap,
            &self.contender_offsets,
            self.horizon,
        )
    }

    /// Contender core indices (`1..Nc`) that post requests in this
    /// witness.
    pub fn requesting_contenders(&self) -> Vec<usize> {
        self.contender_offsets.iter().enumerate().filter_map(|(i, o)| o.map(|_| i + 1)).collect()
    }
}

/// The exact worst-case per-request delay at one resource, with the
/// witness that achieves it and the exploration accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactBound {
    /// Resource this bound covers.
    pub resource: ResourceKind,
    /// Arbiter policy the resource uses.
    pub arbiter: ArbiterKind,
    /// Number of cores in the model.
    pub num_cores: usize,
    /// Uniform worst-case occupancy.
    pub occupancy: u64,
    /// Exact worst-case `granted - ready` for the observed core; `None`
    /// when no grant is reachable (starvation).
    pub exact: Option<u64>,
    /// The maximising alignment, absent only when `exact` is `None` or
    /// trivially zero with no contention to witness.
    pub witness: Option<Witness>,
    /// Alignments actually simulated.
    pub explored: u64,
    /// Alignments eliminated by the per-arbiter symmetry arguments
    /// (the full space minus `explored`, saturating).
    pub pruned: u64,
    /// Why `exact` is `None`, when it is.
    pub reason: Option<String>,
}

/// Rotation period of the arbiter over `nc` cores: the cycle count after
/// which the grant schedule's phase classes repeat.
fn rotation_period(arbiter: ArbiterKind, nc: u64, occupancy: u64) -> u64 {
    let occ = occupancy.max(1);
    match arbiter {
        ArbiterKind::RoundRobin | ArbiterKind::Fifo | ArbiterKind::FixedPriority => {
            nc.saturating_mul(occ)
        }
        ArbiterKind::GroupedRoundRobin { group_size } => {
            let g = (group_size.max(1)) as u64;
            g.saturating_mul(nc.div_ceil(g)).saturating_mul(occ)
        }
        ArbiterKind::Tdma { slot_cycles } => nc.saturating_mul(slot_cycles.max(1)),
    }
}

/// Nondecreasing tuples of length `len` over `0..=max` — the canonical
/// representatives of contender offset multisets for FIFO.
fn nondecreasing_tuples(len: usize, max: u64) -> Vec<Vec<u64>> {
    fn rec(len: usize, max: u64, start: u64, cur: &mut Vec<u64>, out: &mut Vec<Vec<u64>>) {
        if cur.len() == len {
            out.push(cur.clone());
            return;
        }
        for v in start..=max {
            cur.push(v);
            rec(len, max, v, cur, out);
            cur.pop();
        }
    }
    let mut out = Vec::new();
    rec(len, max, 0, &mut Vec::new(), &mut out);
    out
}

/// Bit layout of a packed state key: `sig_len` arbiter-signature words
/// of `sig_bits` each, then one `core_bits` field per core. Fixed per
/// resource, so equal keys mean equal states.
#[derive(Debug, Clone, Copy)]
struct KeyLayout {
    sig_len: usize,
    sig_bits: u32,
    core_bits: u32,
}

impl KeyLayout {
    /// The layout for `num_cores` cores and `sig_len` signature words
    /// bounded by `sig_bound`; `None` when 128 bits cannot hold it.
    fn new(num_cores: usize, sig_len: usize, sig_bound: u64) -> Option<Self> {
        let sig_bits = (u64::BITS - sig_bound.leading_zeros()).max(1);
        let used = u32::try_from(sig_len).ok()?.checked_mul(sig_bits).filter(|&u| u < 128)?;
        let core_bits = ((128 - used) / u32::try_from(num_cores.max(1)).ok()?).min(64);
        (core_bits >= 2).then_some(KeyLayout { sig_len, sig_bits, core_bits })
    }
}

/// What the memo knows about one state.
#[derive(Debug, Clone, Copy)]
enum Mark {
    /// Seen only on a path that was capped or did not fit the key.
    Unresolved,
    /// On the current alignment's path, at this index.
    OnPath(usize),
    /// Resolved: the worst observed delay from this state on (`None`
    /// when the observed core is never granted again).
    Done(Option<u64>),
}

/// State key → index of its [`Mark`], so resolving a path rewrites
/// marks without hashing again.
// lint_sources: allow (lookup-only memo: never iterated, so its order never reaches output)
type Memo = std::collections::HashMap<u128, usize>;

/// Zigzag-encodes a signed relative cycle so small magnitudes of either
/// sign pack into few bits.
fn zigzag(rel: i64) -> u64 {
    ((rel << 1) ^ (rel >> 63)) as u64
}

/// The event-driven lasso search over one resource's abstract model: the
/// real arbiter, built once, and every buffer an alignment needs, reused
/// so the alignment loop allocates nothing.
#[derive(Debug)]
struct LassoSearch {
    arb: Box<dyn Arbiter>,
    occupancy: u64,
    layout: Option<KeyLayout>,
    /// Whether a contender's waiting time is invisible to the arbiter,
    /// so its `ready` clamps to `now` in the key. True for every policy
    /// that only asks `ready <= now`; FIFO orders by `ready` itself.
    clamp_waiting: bool,
    /// Pending request per core: the arbiter's view and the state.
    view: Vec<Option<RequestView>>,
    sig: Vec<u64>,
    /// The current alignment's decision points: mark index and the
    /// observed delay granted there.
    path: Vec<(usize, Option<u64>)>,
    /// The observed gap the memo holds states for.
    memo_gap: Option<u64>,
    memo: Memo,
    marks: Vec<Mark>,
}

impl LassoSearch {
    /// A search over `num_cores` cores at one resource whose arbiter
    /// rotates with `period` (which bounds every signature word).
    fn new(arbiter: ArbiterKind, num_cores: usize, occupancy: u64, period: u64) -> Self {
        let arb = build_arbiter(arbiter, num_cores);
        let mut sig = Vec::new();
        arb.ff_signature(0, &mut sig);
        LassoSearch {
            arb,
            occupancy: occupancy.max(1),
            layout: KeyLayout::new(num_cores, sig.len(), period.max(num_cores as u64)),
            clamp_waiting: arbiter != ArbiterKind::Fifo,
            view: Vec::with_capacity(num_cores),
            sig,
            path: Vec::new(),
            memo_gap: None,
            memo: Memo::default(),
            marks: Vec::new(),
        }
    }

    /// Packs the state at decision point `now` into its exact key, or
    /// `None` when some field does not fit the layout.
    fn key(&mut self, now: u64) -> Option<u128> {
        let layout = self.layout?;
        self.sig.clear();
        self.arb.ff_signature(now, &mut self.sig);
        if self.sig.len() != layout.sig_len {
            return None;
        }
        let mut key = 0u128;
        for &word in &self.sig {
            if word >> layout.sig_bits != 0 {
                return None;
            }
            key = (key << layout.sig_bits) | u128::from(word);
        }
        for (core, slot) in self.view.iter().enumerate() {
            let field = match slot {
                None => 0,
                Some(req) => {
                    let mut rel = req.ready.wrapping_sub(now) as i64;
                    if core > 0 && self.clamp_waiting {
                        rel = rel.max(0);
                    }
                    zigzag(rel).checked_add(1)?
                }
            };
            if layout.core_bits < 64 && field >> layout.core_bits != 0 {
                return None;
            }
            key = (key << layout.core_bits) | u128::from(field);
        }
        Some(key)
    }

    /// Resolves every state on the path, walking back from a `tail`
    /// value that already covers states `cycle_from..`, and returns the
    /// first state's worst future delay.
    fn close(&mut self, tail: Option<u64>, cycle_from: usize) -> Option<u64> {
        let mut acc = tail;
        for (i, &(mark, delay)) in self.path.iter().enumerate().rev() {
            if i < cycle_from {
                acc = acc.max(delay);
            }
            self.marks[mark] = Mark::Done(acc);
        }
        acc
    }

    /// The exact worst observed-core delay of one alignment: the
    /// observed stream reposting `gap` cycles after each completion,
    /// contenders starting at `offsets` (`None` = never requests) and
    /// saturating. Mirrors the machine's in-cycle phase order
    /// (completion, repost, select). `None` when the observed core is
    /// never granted.
    fn worst(&mut self, gap: u64, offsets: &[Option<u64>], horizon: u64) -> Option<u64> {
        let occ = self.occupancy;
        if self.memo_gap != Some(gap) {
            // The gap is not in the key: a memo holds one gap's states.
            self.memo.clear();
            self.marks.clear();
            self.memo_gap = Some(gap);
        }
        self.arb.reset();
        self.view.clear();
        self.view.push(Some(RequestView { ready: gap, occupancy: occ }));
        self.view
            .extend(offsets.iter().map(|o| o.map(|ready| RequestView { ready, occupancy: occ })));
        self.path.clear();
        let mut keyed = self.layout.is_some();
        let mut worst: Option<u64> = None;
        let mut now = 0u64;
        loop {
            // The bus is free at `now`: a decision point.
            if keyed {
                match self.key(now) {
                    Some(key) => {
                        let fresh = self.marks.len();
                        let mark = *self.memo.entry(key).or_insert(fresh);
                        if mark == fresh {
                            self.marks.push(Mark::Unresolved);
                        }
                        match self.marks[mark] {
                            Mark::OnPath(start) => {
                                let cycle = self.path[start..].iter().map(|&(_, d)| d).max();
                                return self.close(cycle.flatten(), start);
                            }
                            Mark::Done(tail) => return self.close(tail, self.path.len()),
                            Mark::Unresolved if now < horizon => {
                                self.marks[mark] = Mark::OnPath(self.path.len());
                                self.path.push((mark, None));
                            }
                            Mark::Unresolved => {}
                        }
                    }
                    None => keyed = false,
                }
            }
            if now >= horizon {
                break;
            }
            match self.arb.select(&self.view, now) {
                Some(core) => {
                    let until = now + occ;
                    let ready = self.view[core].map_or(now, |req| req.ready);
                    // Contenders saturate; the observed stream reposts
                    // `gap` cycles after its completion.
                    let repost = if core == 0 { until + gap } else { until };
                    self.view[core] = Some(RequestView { ready: repost, occupancy: occ });
                    if core == 0 {
                        let gamma = now.saturating_sub(ready);
                        worst = worst.max(Some(gamma));
                        if let Some(last) = self.path.last_mut().filter(|_| keyed) {
                            last.1 = Some(gamma);
                        }
                    }
                    now = until;
                }
                None => {
                    let next = self
                        .view
                        .iter()
                        .enumerate()
                        .filter_map(|(c, slot)| {
                            slot.and_then(|req| self.arb.earliest_grant(c, req, now + 1))
                        })
                        .min();
                    match next {
                        Some(next) => now = next,
                        // Nothing can ever be granted again: the future
                        // holds no further delay.
                        None if keyed => return self.close(None, self.path.len()),
                        None => break,
                    }
                }
            }
        }
        // Capped, or a state did not fit the key: the bounded result,
        // never memoised.
        for &(mark, _) in &self.path {
            self.marks[mark] = Mark::Unresolved;
        }
        worst
    }
}

/// The contender offset tuples of one resource's pruned alignment
/// family, placed over cores `1..Nc` (`None` for a core that never
/// requests there), plus the size of the *unpruned* space `(P+1)^(m+1)`.
/// Every tuple is swept against every observed gap in
/// `gap_floor..=gap_floor + P`.
///
/// The observed-gap sweep is floored at `gap_floor` — the observed
/// profile's [`CoreProfile::min_gap`], a sound lower bound on how fast
/// the real core can repost. Gaps below it are physically unreachable
/// (e.g. an in-order core always burns the L1 lookup before its next
/// request is ready), so excluding them keeps `exact` an upper bound on
/// anything the machine measures while certifying a *tighter* reachable
/// worst case than the gap-0 envelope.
fn contender_family(
    arbiter: ArbiterKind,
    period: u64,
    occupancy: u64,
    requesting: &[bool],
) -> (Vec<Vec<Option<u64>>>, u64) {
    let m = requesting.iter().filter(|&&r| r).count();
    let tuples: Vec<Vec<u64>> = match arbiter {
        // Queue-prefix canonicalisation: offsets within one occupancy,
        // order-normalised.
        ArbiterKind::Fifo => nondecreasing_tuples(m, occupancy.max(1)),
        // Rotation symmetry / priority dominance / slot-phase classes:
        // contender offsets collapse to zero.
        _ => vec![vec![0; m]],
    };
    let placed = tuples
        .iter()
        .map(|tuple| {
            let mut next = tuple.iter();
            requesting.iter().map(|&req| if req { next.next().copied() } else { None }).collect()
        })
        .collect();
    let unpruned =
        u64::try_from((u128::from(period) + 1).saturating_pow(m as u32 + 1)).unwrap_or(u64::MAX);
    (placed, unpruned)
}

/// Computes the exact worst-case per-request delay for the observed core
/// (core 0) at every arbitrated resource of `cfg`, given one demand
/// profile per core (missing trailing cores are treated as idle).
///
/// Contenders whose profile can request at a resource are modelled as
/// saturating streams — the §3 measurement setup and the adversarial
/// envelope of any real contender behaviour — so `exact` is exact for
/// the worst admissible contention, and `exact <= static` must hold
/// against [`StaticBound::analyze`](crate::bounds::StaticBound::analyze)
/// on the same profiles.
pub fn exact_bounds(
    cfg: &MachineConfig,
    profiles: &[CoreProfile],
    opts: &VerifyOptions,
) -> Vec<ExactBound> {
    let num_cores = cfg.num_cores;
    let mut padded: Vec<CoreProfile> = profiles.to_vec();
    padded.resize(num_cores, CoreProfile::idle());

    resource_models(cfg)
        .iter()
        .map(|model| {
            let mut row = ExactBound {
                resource: model.kind,
                arbiter: model.arbiter,
                num_cores,
                occupancy: model.max_occ,
                exact: None,
                witness: None,
                explored: 0,
                pruned: 0,
                reason: None,
            };
            if !can_request(&padded[0], model.kind) {
                row.exact = Some(0);
                row.reason = Some(format!(
                    "observed core posts no {} requests; nothing to delay",
                    model.kind.slug()
                ));
                return row;
            }
            if let ArbiterKind::Tdma { slot_cycles } = model.arbiter {
                if slot_cycles < model.max_occ {
                    row.reason = Some(format!(
                        "tdma slot {slot_cycles} cannot fit the worst {} occupancy {}; \
                         the observed request starves",
                        model.kind.slug(),
                        model.max_occ
                    ));
                    return row;
                }
            }
            if let ArbiterKind::GroupedRoundRobin { group_size: 0 } = model.arbiter {
                row.reason = Some(String::from("grouped round-robin group size 0 is invalid"));
                return row;
            }
            let requesting: Vec<bool> =
                padded[1..num_cores].iter().map(|p| can_request(p, model.kind)).collect();
            let period = rotation_period(model.arbiter, num_cores as u64, model.max_occ);
            // Floor the observed-gap sweep at the observed profile's
            // minimum repost gap. A floor beyond one full rotation is
            // folded back to its phase class one period up: by then the
            // saturating contenders have rebuilt the same arbiter state,
            // so only the phase (and "slower than a rotation") matter.
            let min_gap = padded[0].min_gap;
            let gap_floor = if min_gap > period {
                period.saturating_add(min_gap % period.max(1))
            } else {
                min_gap
            };
            let horizon = opts
                .effective_horizon(period, model.max_occ)
                .saturating_add(gap_floor.saturating_mul(8));
            let (family, unpruned) =
                contender_family(model.arbiter, period, model.max_occ, &requesting);
            let mut search = LassoSearch::new(model.arbiter, num_cores, model.max_occ, period);
            for gap in gap_floor..=gap_floor.saturating_add(period) {
                for offsets in &family {
                    row.explored += 1;
                    let Some(delay) = search.worst(gap, offsets, horizon) else {
                        continue;
                    };
                    if row.exact.is_none_or(|e| delay > e) {
                        row.exact = Some(delay);
                        row.witness = Some(Witness {
                            resource: model.kind,
                            arbiter: model.arbiter,
                            num_cores,
                            occupancy: model.max_occ,
                            observed_gap: gap,
                            contender_offsets: offsets.clone(),
                            delay,
                            horizon,
                        });
                    }
                }
            }
            row.pruned = unpruned.saturating_sub(row.explored);
            if row.exact.is_none() {
                row.reason = Some(format!(
                    "observed core never granted at the {} within horizon {horizon}",
                    model.kind.slug()
                ));
            }
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::StaticBound;
    use rrb_kernels::KernelRng;
    use rrb_sim::McQueueConfig;

    /// The plain per-cycle oracle: the real arbiter stepped one cycle at a
    /// time from 0 to `horizon`, in the machine's in-cycle phase order
    /// (completion, repost, select). Returns the worst observed-core
    /// delay within the horizon.
    fn step_alignment(
        arbiter: ArbiterKind,
        num_cores: usize,
        occupancy: u64,
        gap: u64,
        offsets: &[Option<u64>],
        horizon: u64,
    ) -> Option<u64> {
        let occ = occupancy.max(1);
        let mut arb = build_arbiter(arbiter, num_cores);
        let mut pending: Vec<Option<u64>> = Vec::with_capacity(num_cores);
        pending.push(Some(gap));
        pending.extend(offsets.iter().copied());
        let mut view: Vec<Option<RequestView>> = vec![None; num_cores];
        let mut active: Option<(usize, u64)> = None;
        let mut worst: Option<u64> = None;
        for now in 0..horizon {
            if let Some((core, until)) = active {
                if until == now {
                    pending[core] = Some(if core == 0 { now + gap } else { now });
                    active = None;
                }
            }
            if active.is_none() {
                for (slot, ready) in view.iter_mut().zip(pending.iter()) {
                    *slot = ready.map(|ready| RequestView { ready, occupancy: occ });
                }
                if let Some(core) = arb.select(&view, now) {
                    let ready = pending[core].take().unwrap_or(now);
                    if core == 0 {
                        worst = worst.max(Some(now.saturating_sub(ready)));
                    }
                    active = Some((core, now + occ));
                }
            }
        }
        worst
    }

    fn random_arbiter(rng: &mut KernelRng, nc: usize, occ: u64) -> ArbiterKind {
        match rng.gen_below(5) {
            0 => ArbiterKind::RoundRobin,
            1 => ArbiterKind::FixedPriority,
            2 => ArbiterKind::Fifo,
            3 => ArbiterKind::Tdma { slot_cycles: occ + rng.gen_below(4) },
            _ => ArbiterKind::GroupedRoundRobin {
                group_size: rng.gen_range(1, nc as u64 + 1) as usize,
            },
        }
    }

    #[test]
    fn lasso_search_equals_stepping_to_ten_times_the_horizon() {
        let mut rng = KernelRng::seed_from_u64(0x1a55);
        for case in 0..200 {
            let nc = rng.gen_range(2, 5) as usize;
            let occ = rng.gen_range(1, 7);
            let arbiter = random_arbiter(&mut rng, nc, occ);
            let period = rotation_period(arbiter, nc as u64, occ);
            let gaps = [rng.gen_below(2 * period + 4), rng.gen_below(2 * period + 4)];
            // Alignments share one search, and runs of one gap share its
            // memo, as in the checker's own alignment loop.
            let mut search = LassoSearch::new(arbiter, nc, occ, period);
            for _ in 0..8 {
                let gap = gaps[rng.gen_below(2) as usize];
                let horizon =
                    VerifyOptions::default().effective_horizon(period, occ).saturating_add(gap * 8);
                let mut offsets: Vec<Option<u64>> = (1..nc)
                    .map(|_| (rng.gen_below(5) > 0).then(|| rng.gen_below(occ + 1)))
                    .collect();
                if arbiter == ArbiterKind::Fifo {
                    offsets.sort();
                }
                let lasso = search.worst(gap, &offsets, horizon);
                let oracle = step_alignment(arbiter, nc, occ, gap, &offsets, 10 * horizon);
                assert_eq!(
                    lasso, oracle,
                    "case {case}: {arbiter:?} nc={nc} occ={occ} gap={gap} offsets={offsets:?}"
                );
            }
        }
    }

    #[test]
    fn a_state_too_wide_for_the_key_falls_back_to_the_bounded_result() {
        // Sixteen cores leave 7 bits per core field, too few for the
        // observed core's 100-cycle repost offset.
        let (arbiter, nc, occ, gap) = (ArbiterKind::RoundRobin, 16, 2, 100);
        let period = rotation_period(arbiter, nc as u64, occ);
        let mut search = LassoSearch::new(arbiter, nc, occ, period);
        assert!(search.layout.is_some(), "the layout itself fits");
        let offsets = vec![Some(0); nc - 1];
        let horizon = VerifyOptions::default().effective_horizon(period, occ) + gap * 8;
        search.view.push(Some(RequestView { ready: gap, occupancy: occ }));
        search
            .view
            .extend(offsets.iter().map(|o| o.map(|ready| RequestView { ready, occupancy: occ })));
        assert_eq!(search.key(0), None, "the initial state does not fit");
        let fallback = search.worst(gap, &offsets, horizon);
        assert_eq!(fallback, step_alignment(arbiter, nc, occ, gap, &offsets, horizon));
        assert!(fallback.is_some());
        assert!(search.memo.is_empty(), "a fallback is never memoised");
    }

    fn saturating_profiles(nc: usize) -> Vec<CoreProfile> {
        vec![CoreProfile::saturating(); nc]
    }

    fn exact_total(rows: &[ExactBound]) -> Option<u64> {
        let mut total = 0u64;
        for r in rows {
            total = total.saturating_add(r.exact?);
        }
        Some(total)
    }

    #[test]
    fn round_robin_exact_matches_eq1() {
        for (nc, l) in [(2usize, 1u64), (2, 2), (4, 2), (4, 3), (6, 2)] {
            let cfg = MachineConfig::toy(nc, l);
            let rows = exact_bounds(&cfg, &saturating_profiles(nc), &VerifyOptions::default());
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].exact, Some((nc as u64 - 1) * l), "nc={nc} l={l}");
        }
    }

    #[test]
    fn fifo_exact_matches_round_robin_envelope() {
        let mut cfg = MachineConfig::toy(4, 2);
        cfg.topology.bus.arbiter = ArbiterKind::Fifo;
        let rows = exact_bounds(&cfg, &saturating_profiles(4), &VerifyOptions::default());
        assert_eq!(rows[0].exact, Some(6));
    }

    #[test]
    fn fixed_priority_exact_is_blocking_only() {
        // The observed core has top priority: only the in-flight
        // transaction delays it, by at most L - 1 cycles.
        let mut cfg = MachineConfig::toy(4, 2);
        cfg.topology.bus.arbiter = ArbiterKind::FixedPriority;
        let rows = exact_bounds(&cfg, &saturating_profiles(4), &VerifyOptions::default());
        assert_eq!(rows[0].exact, Some(1));
    }

    #[test]
    fn tdma_exact_matches_slot_geometry() {
        let mut cfg = MachineConfig::toy(4, 2);
        cfg.topology.bus.arbiter = ArbiterKind::Tdma { slot_cycles: 5 };
        let rows = exact_bounds(&cfg, &saturating_profiles(4), &VerifyOptions::default());
        // (4-1)*5 + 2-1 = 16: the static tdma bound is tight.
        assert_eq!(rows[0].exact, Some(16));
    }

    #[test]
    fn tdma_starvation_has_no_exact_bound() {
        let mut cfg = MachineConfig::toy(4, 4);
        cfg.topology.bus.arbiter = ArbiterKind::Tdma { slot_cycles: 3 };
        let rows = exact_bounds(&cfg, &saturating_profiles(4), &VerifyOptions::default());
        assert_eq!(rows[0].exact, None);
        assert!(rows[0].reason.as_deref().unwrap_or("").contains("starves"));
    }

    #[test]
    fn grouped_rr_exact_counts_group_rotation() {
        let mut cfg = MachineConfig::toy(4, 2);
        cfg.topology.bus.arbiter = ArbiterKind::GroupedRoundRobin { group_size: 2 };
        let rows = exact_bounds(&cfg, &saturating_profiles(4), &VerifyOptions::default());
        assert_eq!(rows[0].exact, Some(6));
    }

    #[test]
    fn two_level_topology_gets_an_exact_bound_per_resource() {
        let mut cfg = MachineConfig::toy(4, 2);
        cfg.topology.mc = Some(McQueueConfig { service_occupancy: 3, arbiter: ArbiterKind::Fifo });
        let rows = exact_bounds(&cfg, &saturating_profiles(4), &VerifyOptions::default());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].exact, Some(6), "bus: (4-1)*2");
        assert_eq!(rows[1].exact, Some(9), "mc: (4-1)*3");
        assert_eq!(exact_total(&rows), Some(15));
    }

    #[test]
    fn exact_never_exceeds_static_on_the_same_profiles() {
        for arbiter in [
            ArbiterKind::RoundRobin,
            ArbiterKind::FixedPriority,
            ArbiterKind::Fifo,
            ArbiterKind::Tdma { slot_cycles: 6 },
            ArbiterKind::GroupedRoundRobin { group_size: 2 },
        ] {
            let mut cfg = MachineConfig::toy(4, 2);
            cfg.topology.bus.arbiter = arbiter;
            let profiles = saturating_profiles(4);
            let rows = exact_bounds(&cfg, &profiles, &VerifyOptions::default());
            let statics = StaticBound::analyze(&cfg, &profiles);
            for row in &rows {
                let stat = statics.resource(row.resource).and_then(|r| r.bound);
                if let (Some(exact), Some(stat)) = (row.exact, stat) {
                    assert!(exact <= stat, "{arbiter:?}: exact {exact} > static {stat}");
                }
            }
        }
    }

    #[test]
    fn witness_replay_reproduces_the_exact_delay() {
        for arbiter in [
            ArbiterKind::RoundRobin,
            ArbiterKind::FixedPriority,
            ArbiterKind::Fifo,
            ArbiterKind::Tdma { slot_cycles: 6 },
            ArbiterKind::GroupedRoundRobin { group_size: 2 },
        ] {
            let mut cfg = MachineConfig::toy(4, 2);
            cfg.topology.bus.arbiter = arbiter;
            let rows = exact_bounds(&cfg, &saturating_profiles(4), &VerifyOptions::default());
            let witness = rows[0].witness.as_ref().expect("witness");
            assert_eq!(witness.replay(), rows[0].exact, "{arbiter:?}");
            assert_eq!(Some(witness.delay), rows[0].exact, "{arbiter:?}");
        }
    }

    #[test]
    fn observed_min_gap_tightens_the_exact_bound() {
        let cfg = MachineConfig::toy(4, 2);
        let mut profiles = saturating_profiles(4);
        profiles[0].min_gap = 1;
        let rows = exact_bounds(&cfg, &profiles, &VerifyOptions::default());
        // Reposting in the completion cycle itself (gap 0) is the only
        // alignment reaching (Nc-1)*L = 6: flooring at the real core's
        // repost latency certifies the reachable worst case, one lower.
        assert_eq!(rows[0].exact, Some(5));
        assert!(rows[0].witness.as_ref().expect("witness").observed_gap >= 1);
    }

    #[test]
    fn huge_min_gap_folds_back_to_its_phase_class() {
        let cfg = MachineConfig::toy(4, 2);
        let mut profiles = saturating_profiles(4);
        profiles[0].min_gap = 1000; // sparse requester, far beyond a rotation
        let rows = exact_bounds(&cfg, &profiles, &VerifyOptions::default());
        let exact = rows[0].exact.expect("still granted");
        assert!(exact <= 6, "folded sweep stays within the envelope: {exact}");
        assert!(exact >= 4, "a sparse request still eats a near-full rotation: {exact}");
    }

    #[test]
    fn idle_observed_core_has_a_trivial_exact_bound() {
        let cfg = MachineConfig::toy(4, 2);
        let mut profiles = saturating_profiles(4);
        profiles[0] = CoreProfile::idle();
        let rows = exact_bounds(&cfg, &profiles, &VerifyOptions::default());
        assert_eq!(rows[0].exact, Some(0));
        assert!(rows[0].witness.is_none());
    }

    #[test]
    fn single_core_suffers_no_delay() {
        let cfg = MachineConfig::toy(1, 2);
        let rows = exact_bounds(&cfg, &saturating_profiles(1), &VerifyOptions::default());
        assert_eq!(rows[0].exact, Some(0));
    }

    #[test]
    fn pruning_is_accounted_for() {
        let cfg = MachineConfig::toy(4, 2);
        let rows = exact_bounds(&cfg, &saturating_profiles(4), &VerifyOptions::default());
        // Period 8: 9 gap values, contender offsets pruned to one tuple.
        assert_eq!(rows[0].explored, 9);
        assert_eq!(rows[0].pruned, (9u64.pow(4)) - 9);
    }
}
