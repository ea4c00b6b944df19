//! The in-order core pipeline model.
//!
//! Each core executes its [`Program`] one instruction at a time:
//!
//! * `nop` / `alu` / `branch` burn their configured latency;
//! * a load probes DL1 after `dl1.latency` cycles — on a hit the
//!   instruction retires, on a miss the core posts a bus request and
//!   stalls until the data returns (so the *injection time* between two
//!   consecutive DL1-missing loads is exactly `dl1.latency`, matching the
//!   paper's `δ_rsk` of 1 on the reference and 4 on the variant setup);
//! * a store retires as soon as it enters the store buffer and only stalls
//!   the pipeline when the buffer is full (§5.3);
//! * instruction fetch goes through IL1; a fetch miss stalls the pipeline
//!   through a bus transaction like a load miss. Kernels are unrolled to
//!   fit IL1, as in the paper, so steady-state fetches always hit.
//!
//! The core is a single bus master: at most one of {demand load, fetch
//! miss, refill, store drain} is posted at a time, with refills first,
//! then demand misses, then store drains.
//!
//! ## Quiet runs
//!
//! A *quiet* instruction is a `nop`, an `alu` or a `branch` of non-zero
//! latency: it touches nothing but the core's own pc, retired-instruction
//! counter and IL1. A *quiet run* is a stretch of consecutive quiet
//! instructions whose fetch lines are resident in the IL1 and which stops
//! short of the body's last instruction, so the iteration wrap and the
//! program's completion are always dispatched live. Nothing outside the
//! core can observe a run before it ends: the run's fetches all hit, and
//! only this core's own accesses touch its IL1, so the residency probed
//! when the run is planned holds to its end.
//!
//! The core therefore treats a whole run as one event of the machine's
//! quiescence skip. [`CoreModel::load_program`] builds a per-program
//! table of run ends and latency prefix sums; whenever the pipeline
//! resumes, the core plans the run starting at its pc (one IL1 probe per
//! fetch line), and `CoreModel::next_event` reports the dispatch cycle
//! of the first instruction after the run, in O(1). The run's own
//! dispatches are applied late, each as of its own cycle, by
//! `CoreModel::catch_up` — from `tick` at the next live cycle, or by the
//! machine before anything reads the core's state — with one
//! `Cache::touch_n` per fetch line. Stepping every cycle
//! (`MachineConfig::quiescence_skip = false`) catches up one dispatch per
//! tick, so both modes leave the same state at every cycle.

use crate::bus::BusOpKind;
use crate::cache::{Access, Cache};
use crate::config::MachineConfig;
use crate::instr::{Instr, Iterations, Program};
use crate::store_buffer::StoreBuffer;
use crate::types::{Addr, CoreId, Cycle};
use std::ops::Range;

/// Base of the per-core instruction address region (64 MB apart so no two
/// cores alias instruction lines in DRAM rows).
const IFETCH_BASE: Addr = 0x8000_0000;
/// Size of each core's instruction region.
const IFETCH_STRIDE: Addr = 0x0400_0000;
/// Bytes per instruction.
const INSTR_BYTES: Addr = 4;

/// The address of the instruction at `pc` in `core`'s fetch region — the
/// one fetch-address formula. The core model fetches from it, period
/// skip lists the fetch footprint with it, and the static must/may replay
/// (`rrb_static::classify_accesses`) replays the same stream.
pub fn fetch_addr(core: CoreId, pc: usize) -> Addr {
    IFETCH_BASE + IFETCH_STRIDE * core.index() as Addr + INSTR_BYTES * pc as Addr
}

/// What a core wants to post on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PendingPost {
    /// Transaction kind ([`BusOpKind::Load`], [`BusOpKind::Ifetch`], or
    /// [`BusOpKind::MissResponse`]; store drains are generated from the
    /// store buffer directly).
    pub kind: BusOpKind,
    /// Target address.
    pub addr: Addr,
    /// Cycle at which the request is (or becomes) ready.
    pub ready: Cycle,
}

/// The quiet runs of one program: a table built once per
/// [`CoreModel::load_program`], so planning a run costs one lookup plus
/// one IL1 probe per fetch line.
#[derive(Debug, Clone, Default)]
struct QuietRuns {
    /// `end[pc]`: the first index `>= pc` that is not quiet or is the
    /// body's last instruction — where a run starting at `pc` stops.
    end: Vec<usize>,
    /// `cycles[pc]`: the summed latency of the quiet instructions before
    /// `pc` (memory instructions count zero). Within a run the dispatch
    /// cycle of instruction `j` is the run's start plus
    /// `cycles[j] − cycles[start]`.
    cycles: Vec<Cycle>,
}

impl QuietRuns {
    /// Rebuilds the table for `body`, reusing the allocations;
    /// `latency(instr)` is an instruction's fixed latency, and an
    /// instruction is quiet when that is non-zero.
    fn rebuild(&mut self, body: &[Instr], latency: impl Fn(Instr) -> Cycle) {
        self.cycles.clear();
        self.cycles.push(0);
        let mut sum = 0;
        for &instr in body {
            sum += latency(instr);
            self.cycles.push(sum);
        }
        self.end.clear();
        self.end.resize(body.len(), 0);
        let mut end = body.len();
        for pc in (0..body.len()).rev() {
            if pc + 1 == body.len() || latency(body[pc]) == 0 {
                end = pc;
            }
            self.end[pc] = end;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Next instruction dispatches once `resume_at` is reached.
    Idle { resume_at: Cycle },
    /// Stalled on a demand-load bus transaction.
    WaitLoad,
    /// Stalled on an instruction-fetch bus transaction.
    WaitIfetch,
    /// Program complete.
    Done,
}

/// The execution state of one core.
#[derive(Debug, Clone)]
pub struct CoreModel {
    id: CoreId,
    program: Program,
    pc: usize,
    iteration: u64,
    state: State,
    /// The quiet-run table of the installed program.
    runs: QuietRuns,
    /// While `Idle`: the instructions `pc..run_end` form the current
    /// quiet run, dispatching from `resume_at`, and the instruction at
    /// `run_end` dispatches live at `run_end_at`. Only `load_program`
    /// leaves `Done`, and it rebuilds `runs` and plans the run, so none
    /// of the three is read before it is set.
    run_end: usize,
    run_end_at: Cycle,
    /// Demand request waiting for the bus slot (fetch/load miss, refill).
    want_post: Option<PendingPost>,
    /// Private data cache.
    pub(crate) dl1: Cache,
    /// Private instruction cache.
    pub(crate) il1: Cache,
    /// Store buffer.
    pub(crate) store_buffer: StoreBuffer,
    completed_at: Option<Cycle>,
    instructions: u64,
    dl1_lat: u64,
    il1_lat: u64,
    nop_lat: u64,
    branch_lat: u64,
    /// DL1 line size: the granule of load and store addresses.
    line_bytes: Addr,
    /// IL1 line size: the granule of instruction fetch.
    fetch_line_bytes: Addr,
}

impl CoreModel {
    /// Builds an idle core with cold caches and an empty program.
    pub fn new(id: CoreId, cfg: &MachineConfig) -> Self {
        CoreModel {
            id,
            program: Program::empty(),
            pc: 0,
            iteration: 0,
            state: State::Done,
            runs: QuietRuns::default(),
            run_end: 0,
            run_end_at: 0,
            want_post: None,
            dl1: Cache::new(cfg.dl1),
            il1: Cache::new(cfg.il1),
            store_buffer: StoreBuffer::new(cfg.store_buffer.entries),
            completed_at: Some(0),
            instructions: 0,
            dl1_lat: cfg.dl1.latency,
            il1_lat: cfg.il1.latency,
            nop_lat: cfg.nop_latency,
            branch_lat: cfg.branch_latency,
            line_bytes: cfg.dl1.line_bytes,
            fetch_line_bytes: cfg.il1.line_bytes,
        }
    }

    /// The core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Rewinds the core to its just-built state for a possibly different
    /// configuration — empty program, cold caches, empty store buffer,
    /// zeroed counters, re-patched latencies — reusing the cache and
    /// buffer allocations where the geometry allows. Indistinguishable
    /// from `CoreModel::new(self.id(), cfg)`.
    pub fn reset_to(&mut self, cfg: &MachineConfig) {
        self.program = Program::empty();
        self.pc = 0;
        self.iteration = 0;
        self.state = State::Done;
        self.want_post = None;
        self.dl1.reset_to(cfg.dl1);
        self.il1.reset_to(cfg.il1);
        self.store_buffer.reset_to(cfg.store_buffer.entries);
        self.completed_at = Some(0);
        self.instructions = 0;
        self.dl1_lat = cfg.dl1.latency;
        self.il1_lat = cfg.il1.latency;
        self.nop_lat = cfg.nop_latency;
        self.branch_lat = cfg.branch_latency;
        self.line_bytes = cfg.dl1.line_bytes;
        self.fetch_line_bytes = cfg.il1.line_bytes;
    }

    /// Installs `program` and restarts execution from cycle `start`.
    pub fn load_program(&mut self, program: Program, start: Cycle) {
        let empty = match program.iterations() {
            Iterations::Finite(n) => n == 0 || program.body().is_empty(),
            Iterations::Infinite => program.body().is_empty(),
        };
        let (nop, branch) = (self.nop_lat, self.branch_lat);
        self.runs.rebuild(program.body(), |instr| fixed_latency(instr, nop, branch));
        self.program = program;
        self.pc = 0;
        self.iteration = 0;
        self.want_post = None;
        if empty {
            self.state = State::Done;
            self.completed_at = Some(start);
        } else {
            self.resume(start, true);
            self.completed_at = None;
        }
    }

    /// Whether the core has retired its whole (finite) program.
    pub fn is_done(&self) -> bool {
        matches!(self.state, State::Done)
    }

    /// Completion cycle of a finished finite program.
    pub fn completed_at(&self) -> Option<Cycle> {
        self.completed_at
    }

    /// Retired instruction count.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// The DL1 line of `addr` (line sizes are validated powers of two).
    fn line_of(&self, addr: Addr) -> Addr {
        addr & !(self.line_bytes - 1)
    }

    /// The IL1 line of the instruction at `pc`.
    fn fetch_line(&self, pc: usize) -> Addr {
        fetch_addr(self.id, pc) & !(self.fetch_line_bytes - 1)
    }

    /// The first pc after `pc` whose fetch line is not `line`, the fetch
    /// line of `pc`.
    fn pc_after_line(&self, line: Addr, pc: usize) -> usize {
        let next = (line + self.fetch_line_bytes).saturating_sub(fetch_addr(self.id, 0));
        (next.div_ceil(INSTR_BYTES) as usize).max(pc + 1)
    }

    /// Idles the pipeline until `resume_at` and plans the quiet run that
    /// dispatches from there. With `run` false the run is left empty, so
    /// the next instruction dispatches live.
    fn resume(&mut self, resume_at: Cycle, run: bool) {
        self.state = State::Idle { resume_at };
        let mut end = if run { self.runs.end[self.pc] } else { self.pc };
        // One probe per fetch line: the run stops at the first line that
        // would miss, whose first instruction then fetches live.
        let mut pc = self.pc;
        while pc < end {
            let line = self.fetch_line(pc);
            if !self.il1.probe(line) {
                end = pc;
                break;
            }
            pc = self.pc_after_line(line, pc);
        }
        self.run_end = end;
        self.run_end_at = resume_at + self.runs.cycles[end] - self.runs.cycles[self.pc];
    }

    /// Dispatches every instruction of the current quiet run that is due
    /// before `limit`, each as of its own cycle: the pc, the retired count
    /// and the IL1 end exactly where per-cycle ticking would leave them
    /// at `limit`. The machine calls it before it reads the core's state
    /// at a cycle it reached by skipping; `tick` calls it first thing.
    pub(crate) fn catch_up(&mut self, limit: Cycle) {
        let State::Idle { resume_at } = self.state else {
            return;
        };
        if self.pc == self.run_end || resume_at >= limit {
            return;
        }
        let from = self.runs.cycles[self.pc];
        let window = limit - resume_at;
        let due = self.runs.cycles[self.pc..self.run_end].partition_point(|&c| c - from < window);
        let to = self.pc + due;
        let mut pc = self.pc;
        while pc < to {
            let line = self.fetch_line(pc);
            let next = self.pc_after_line(line, pc).min(to);
            self.il1.touch_n(line, (next - pc) as u64);
            pc = next;
        }
        self.state = State::Idle { resume_at: resume_at + self.runs.cycles[to] - from };
        self.instructions += due as u64;
        self.pc = to;
    }

    /// Advances the program counter, wrapping at the body end and counting
    /// iterations; transitions to `Done` when the last iteration retires.
    fn advance_pc(&mut self, now: Cycle) {
        self.instructions += 1;
        self.pc += 1;
        if self.pc == self.program.body().len() {
            self.pc = 0;
            self.iteration += 1;
            if let Iterations::Finite(n) = self.program.iterations() {
                if self.iteration >= n {
                    self.state = State::Done;
                    self.completed_at = Some(now);
                }
            }
        }
    }

    /// The request this core wants the machine to post (if the bus slot is
    /// free). Cleared by [`CoreModel::take_post`].
    pub(crate) fn want_post(&self) -> Option<PendingPost> {
        self.want_post
    }

    /// Consumes the pending post once the machine has placed it on the bus.
    pub(crate) fn take_post(&mut self) -> Option<PendingPost> {
        self.want_post.take()
    }

    /// Called when DRAM produced the line: the core asks to post the
    /// refill (response phase) on the bus.
    pub(crate) fn enqueue_refill(&mut self, addr: Addr, ready: Cycle) {
        debug_assert!(self.want_post.is_none(), "refill while another post pending");
        self.want_post = Some(PendingPost { kind: BusOpKind::MissResponse, addr, ready });
    }

    /// Called when the final data for the in-flight demand miss is back
    /// (either an L2 hit completed, or the refill response completed).
    /// Fills the relevant L1 and resumes the pipeline at `now`.
    pub(crate) fn on_data_return(&mut self, addr: Addr, now: Cycle) {
        match self.state {
            State::WaitIfetch => {
                self.il1.touch(addr);
                // Fetch satisfied: dispatch the fetched instruction now.
                self.resume(now, true);
            }
            State::WaitLoad => {
                // The DL1 line was already allocated by the dispatch-time
                // lookup; re-touching here would double-count a hit.
                // The load retires as the data arrives.
                self.advance_pc(now);
                if !self.is_done() {
                    self.resume(now, true);
                }
            }
            s => unreachable!("data return in state {s:?}"),
        }
    }

    /// Advances the pipeline at cycle `now`: catches up the quiet run,
    /// then dispatches the instruction due at `now`, if any (every
    /// instruction costs at least one cycle, so there is at most one).
    /// Returns the number of store-buffer stall cycles incurred this tick.
    pub(crate) fn tick(&mut self, now: Cycle) -> u64 {
        self.catch_up(now + 1);
        let State::Idle { resume_at } = self.state else {
            return 0;
        };
        if resume_at > now || self.want_post.is_some() {
            return 0;
        }
        // Instruction fetch.
        let fetch_line = self.fetch_line(self.pc);
        if self.il1.probe(fetch_line) {
            self.il1.touch(fetch_line);
        } else {
            self.state = State::WaitIfetch;
            self.want_post = Some(PendingPost {
                kind: BusOpKind::Ifetch,
                addr: fetch_line,
                ready: now + self.il1_lat,
            });
            return 0;
        }
        let instr = self.program.body()[self.pc];
        let done = match instr {
            Instr::Load(addr) => {
                let line = self.line_of(addr);
                if self.dl1.touch(line) == Access::Miss {
                    // Miss known after the DL1 lookup: request ready then.
                    self.state = State::WaitLoad;
                    self.want_post = Some(PendingPost {
                        kind: BusOpKind::Load,
                        addr: line,
                        ready: now + self.dl1_lat,
                    });
                    return 0;
                }
                now + self.dl1_lat
            }
            Instr::Store(addr) => {
                let line = self.line_of(addr);
                if !self.store_buffer.try_push(line, now + self.dl1_lat) {
                    // Full buffer: stall one cycle and retry.
                    self.resume(now + 1, true);
                    return 1;
                }
                // Write-through, write-no-allocate DL1: refresh on hit only.
                if self.dl1.probe(line) {
                    self.dl1.touch(line);
                }
                now + self.dl1_lat
            }
            Instr::Nop | Instr::Alu { .. } | Instr::Branch => {
                now + fixed_latency(instr, self.nop_lat, self.branch_lat)
            }
        };
        self.advance_pc(done);
        if !self.is_done() {
            // A zero-latency branch resumes at `now`, but its successor
            // still dispatches a tick later: that one runs live.
            self.resume(done, done > now);
        }
        0
    }

    /// Completed loop iterations so far.
    pub(crate) fn iteration(&self) -> u64 {
        self.iteration
    }

    /// The installed program.
    pub(crate) fn program(&self) -> &Program {
        &self.program
    }

    /// The footprint this core's program can ever touch: pushes the data
    /// lines its loads and stores touch onto `data` and returns the
    /// address range its instruction fetches span. Programs are static,
    /// so [`Cache::reachable_sets`] over the two bounds the reachable
    /// cache footprint exactly.
    pub(crate) fn ff_footprint(&self, data: &mut Vec<Addr>) -> Range<Addr> {
        for instr in self.program.body() {
            if let Instr::Load(a) | Instr::Store(a) = instr {
                data.push(self.line_of(*a));
            }
        }
        fetch_addr(self.id, 0)..fetch_addr(self.id, self.program.body().len())
    }

    /// Appends a time-relative signature of the pipeline state to `out`
    /// (pc, execution state, pending post), with cycle stamps relative to
    /// `now`. Iteration and instruction counters are deliberately
    /// excluded: they advance monotonically and are scaled separately
    /// when a period is skipped. The quiet run is not signed: it follows
    /// from the pc, the program and the IL1, all signed. The caller
    /// catches the core up to `now` first.
    pub(crate) fn ff_signature(&self, now: Cycle, out: &mut Vec<u64>) {
        out.push(self.pc as u64);
        match self.state {
            State::Idle { resume_at } => {
                out.push(0);
                out.push(resume_at.wrapping_sub(now));
            }
            State::WaitLoad => out.push(1),
            State::WaitIfetch => out.push(2),
            State::Done => out.push(3),
        }
        match self.want_post {
            None => out.push(u64::MAX),
            Some(p) => {
                out.push(p.kind as u64);
                out.push(p.addr);
                out.push(p.ready.wrapping_sub(now));
            }
        }
        self.store_buffer.ff_signature(now, out);
    }

    /// Shifts every live cycle stamp forward by `delta` (fast-forward).
    /// The completion stamp of an already-finished program is a fixed
    /// past event and is left alone.
    pub(crate) fn ff_shift(&mut self, delta: Cycle) {
        if let State::Idle { resume_at } = &mut self.state {
            *resume_at += delta;
            self.run_end_at += delta;
        }
        if let Some(p) = &mut self.want_post {
            p.ready += delta;
        }
        self.store_buffer.ff_shift(delta);
    }

    /// The loop iteration counter, which fast-forward credits for the
    /// skipped periods.
    pub(crate) fn iteration_mut(&mut self) -> &mut u64 {
        &mut self.iteration
    }

    /// Hands each monotone counter but the iteration count to `f`, in a
    /// fixed order: retired instructions, then the DL1's, the IL1's and
    /// the store buffer's counters (fast-forward snapshots and scales
    /// them).
    pub(crate) fn ff_counters(&mut self, f: &mut impl FnMut(&mut u64)) {
        f(&mut self.instructions);
        self.dl1.ff_counters(f);
        self.il1.ff_counters(f);
        self.store_buffer.ff_counters(f);
    }

    /// The earliest cycle `>= now` at which this core can act on anything
    /// outside itself: dispatch the first instruction after its quiet run
    /// (the run's own dispatches are caught up later, see the module
    /// docs) or present a request to the machine's posting phase
    /// (demand/refill post readiness, store-buffer drain readiness).
    /// `None` when the core is passive — `Done`, or stalled waiting for a
    /// data return, which the bus completion horizon accounts for.
    ///
    /// `may_post` is whether the machine would accept a post this cycle
    /// (the core has no transaction outstanding at the bus); while one is
    /// outstanding, posting deadlines are unreachable until the bus
    /// completion — itself a tracked event — so they are excluded from
    /// the horizon.
    pub(crate) fn next_event(&self, now: Cycle, may_post: bool) -> Option<Cycle> {
        let mut horizon: Option<Cycle> = None;
        if let State::Idle { .. } = self.state {
            horizon = Some(self.run_end_at.max(now));
        }
        if may_post {
            let post_ready = match self.want_post {
                Some(p) => Some(p.ready),
                None => self.store_buffer.head_ready(),
            };
            if let Some(ready) = post_ready {
                let ready = ready.max(now);
                horizon = Some(horizon.map_or(ready, |h| h.min(ready)));
            }
        }
        horizon
    }
}

/// The cycles a `nop`, `alu` or `branch` occupies the pipeline, given
/// the configured nop and branch latencies; 0 for a memory instruction,
/// whose time depends on the caches. An instruction is quiet when this
/// is non-zero.
fn fixed_latency(instr: Instr, nop: Cycle, branch: Cycle) -> Cycle {
    match instr {
        Instr::Nop => nop,
        Instr::Alu { latency } => latency.max(1),
        Instr::Branch => branch,
        Instr::Load(_) | Instr::Store(_) => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn core(cfg: &MachineConfig) -> CoreModel {
        CoreModel::new(CoreId::new(0), cfg)
    }

    #[test]
    fn empty_program_is_done_immediately() {
        let cfg = MachineConfig::ngmp_ref();
        let mut c = core(&cfg);
        c.load_program(Program::empty(), 5);
        assert!(c.is_done());
        assert_eq!(c.completed_at(), Some(5));
    }

    #[test]
    fn nop_program_takes_nop_latency_each() {
        let cfg = MachineConfig::ngmp_ref();
        let mut c = core(&cfg);
        c.load_program(Program::from_body(vec![Instr::Nop; 3], 2), 0);
        let mut now = 0;
        // First tick triggers an ifetch miss; resolve it by hand.
        c.tick(now);
        let post = c.take_post().expect("cold IL1 misses");
        assert_eq!(post.kind, BusOpKind::Ifetch);
        c.on_data_return(post.addr, 10);
        now = 10;
        while !c.is_done() && now < 100 {
            c.tick(now);
            if let Some(p) = c.take_post() {
                // All 6 nops fit one IL1 line; no more fetch misses.
                panic!("unexpected post {p:?}");
            }
            now += 1;
        }
        // 6 nops at 1 cycle each, starting at cycle 10.
        assert_eq!(c.completed_at(), Some(16));
        assert_eq!(c.instructions(), 6);
    }

    #[test]
    fn load_miss_posts_after_dl1_latency() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.dl1.latency = 4; // variant architecture
        let mut c = core(&cfg);
        c.load_program(Program::from_body(vec![Instr::load(0x8000)], 1), 0);
        // Warm the IL1 first.
        c.tick(0);
        let f = c.take_post().expect("ifetch miss");
        c.on_data_return(f.addr, 20);
        c.tick(20);
        let p = c.take_post().expect("DL1 miss must request the bus");
        assert_eq!(p.kind, BusOpKind::Load);
        assert_eq!(p.ready, 24, "ready = dispatch + dl1 latency (4)");
        assert!(matches!(c.state, State::WaitLoad));
        c.on_data_return(p.addr, 40);
        assert!(c.is_done());
        assert_eq!(c.completed_at(), Some(40));
    }

    #[test]
    fn second_load_to_same_line_hits_dl1() {
        let cfg = MachineConfig::ngmp_ref();
        let mut c = core(&cfg);
        c.load_program(Program::from_body(vec![Instr::load(0x8000), Instr::load(0x8008)], 1), 0);
        c.tick(0);
        let f = c.take_post().expect("ifetch");
        c.on_data_return(f.addr, 10);
        c.tick(10);
        let p = c.take_post().expect("first load misses");
        c.on_data_return(p.addr, 30);
        // Second load: same 32-byte line, must hit and retire in 1 cycle.
        c.tick(30);
        assert!(c.take_post().is_none());
        assert!(c.is_done());
        assert_eq!(c.completed_at(), Some(31));
    }

    #[test]
    fn store_retires_into_buffer_without_stalling() {
        let cfg = MachineConfig::ngmp_ref();
        let mut c = core(&cfg);
        c.load_program(Program::from_body(vec![Instr::store(0x9000); 3], 1), 0);
        c.tick(0);
        let f = c.take_post().expect("ifetch");
        c.on_data_return(f.addr, 10);
        for now in 10..13 {
            let stalls = c.tick(now);
            assert_eq!(stalls, 0);
            assert!(c.take_post().is_none(), "stores do not post demand requests");
        }
        assert!(c.is_done());
        assert_eq!(c.completed_at(), Some(13), "one cycle per buffered store");
        assert_eq!(c.store_buffer.len(), 3);
    }

    #[test]
    fn full_store_buffer_stalls_pipeline() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.store_buffer.entries = 2;
        let mut c = core(&cfg);
        c.load_program(Program::from_body(vec![Instr::store(0x9000); 3], 1), 0);
        c.tick(0);
        let f = c.take_post().expect("ifetch");
        c.on_data_return(f.addr, 10);
        c.tick(10);
        c.tick(11);
        assert!(c.store_buffer.is_full());
        // Third store cannot enter; stalls accumulate until a drain.
        assert_eq!(c.tick(12), 1);
        assert_eq!(c.tick(13), 1);
        c.store_buffer.complete_head(14);
        assert_eq!(c.tick(14), 0);
        assert!(c.is_done());
    }

    #[test]
    fn infinite_program_never_completes() {
        let cfg = MachineConfig::ngmp_ref();
        let mut c = core(&cfg);
        c.load_program(Program::endless(vec![Instr::Nop]), 0);
        c.tick(0);
        let f = c.take_post().expect("ifetch");
        c.on_data_return(f.addr, 5);
        for now in 5..200 {
            c.tick(now);
        }
        assert!(!c.is_done());
        assert!(c.instructions() > 100);
    }

    #[test]
    fn next_event_follows_pipeline_and_posting_deadlines() {
        let cfg = MachineConfig::ngmp_ref();
        let mut c = core(&cfg);
        assert_eq!(c.next_event(0, true), None, "a Done core with nothing buffered is passive");
        c.load_program(Program::from_body(vec![Instr::load(0x8000)], 1), 4);
        assert_eq!(c.next_event(0, true), Some(4), "idle until the program start");
        c.tick(4);
        // Cold IL1 miss: the fetch post is ready after the IL1 latency.
        assert_eq!(c.next_event(4, true), Some(4 + cfg.il1.latency));
        assert_eq!(c.next_event(4, false), None, "posting blocked: wake on bus completion");
        let f = c.take_post().expect("ifetch miss");
        assert_eq!(c.next_event(5, false), None, "waiting for the fetch data");
        c.on_data_return(f.addr, 9);
        assert_eq!(c.next_event(7, true), Some(9), "resumes at the data return");
    }

    #[test]
    fn next_event_tracks_store_drain_readiness() {
        let cfg = MachineConfig::ngmp_ref();
        let mut c = core(&cfg);
        c.load_program(Program::from_body(vec![Instr::store(0x9000)], 1), 0);
        c.tick(0);
        let f = c.take_post().expect("ifetch");
        c.on_data_return(f.addr, 10);
        c.tick(10);
        assert!(c.is_done(), "the store retires into the buffer");
        // The buffered store becomes a posting deadline once the core may
        // post again: ready = dispatch + dl1 latency.
        assert_eq!(c.next_event(10, true), Some(10 + cfg.dl1.latency));
        assert_eq!(c.next_event(10, false), None);
        assert_eq!(c.next_event(20, true), Some(20), "overdue drains are imminent");
    }

    /// A core running `body` whose first fetch miss is resolved at
    /// cycle 10, so the first line is resident and the pipeline resumes
    /// there.
    fn warmed(cfg: &MachineConfig, body: Vec<Instr>, iterations: u64) -> CoreModel {
        let mut c = core(cfg);
        c.load_program(Program::from_body(body, iterations), 0);
        c.tick(0);
        let f = c.take_post().expect("cold IL1 misses");
        c.on_data_return(f.addr, 10);
        c
    }

    #[test]
    fn quiet_run_horizon_is_the_first_dispatch_after_the_run() {
        let cfg = MachineConfig::ngmp_ref();
        let body = vec![
            Instr::Nop,
            Instr::Nop,
            Instr::Alu { latency: 3 },
            Instr::Branch,
            Instr::load(0x8000),
            Instr::Nop,
            Instr::Nop,
        ];
        let mut c = warmed(&cfg, body, 2);
        // nop, nop, alu(3), branch dispatch at 10, 11, 12, 15: the load
        // is the first non-quiet instruction, due at 16.
        assert_eq!(c.next_event(10, true), Some(16));
        assert_eq!(c.next_event(14, false), Some(16), "the run is not an event");
        // The load's miss ends the run; its data returns at 40.
        c.tick(16);
        assert_eq!((c.pc, c.instructions()), (4, 4), "tick(16) caught up the whole run");
        let p = c.take_post().expect("the load misses DL1");
        c.on_data_return(p.addr, 40);
        // The body's last nop is never part of a run: the run from pc 5
        // is the one nop at 40, and the last one dispatches live at 41,
        // where the iteration wraps.
        assert_eq!(c.next_event(40, true), Some(41));
        c.tick(40);
        assert_eq!((c.pc, c.iteration()), (6, 0));
        c.tick(41);
        assert_eq!((c.pc, c.iteration()), (0, 1), "the wrap is a live dispatch");
    }

    #[test]
    fn quiet_run_stops_at_the_first_fetch_line_that_would_miss() {
        let cfg = MachineConfig::ngmp_ref();
        // 20 nops and a load span three 32-byte fetch lines; only the
        // first is resident after the cold fetch.
        let mut body = vec![Instr::Nop; 20];
        body.push(Instr::load(0x8000));
        let mut c = warmed(&cfg, body, 1);
        assert_eq!(c.next_event(10, true), Some(18), "eight nops fit the first line");
        c.tick(18);
        let f = c.take_post().expect("pc 8 misses the IL1 live");
        assert_eq!((f.kind, c.pc, c.instructions()), (BusOpKind::Ifetch, 8, 8));
        c.on_data_return(f.addr, 30);
        assert_eq!(c.next_event(30, true), Some(38), "the next line's eight nops");
    }

    #[test]
    fn catch_up_dispatches_each_instruction_at_its_own_cycle() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.nop_latency = 2;
        let body = vec![
            Instr::Nop,
            Instr::Alu { latency: 5 },
            Instr::Nop,
            Instr::Branch,
            Instr::store(0x9000),
        ];
        // Dispatches at 10 (nop), 12 (alu), 17 (nop), 19 (branch); the
        // store is due at 20.
        let mut c = warmed(&cfg, body.clone(), 1);
        let mut stepped = warmed(&cfg, body, 1);
        let mut ticked = 10;
        for (limit, pc, resume_at) in [(10, 0, 10), (11, 1, 12), (13, 2, 17), (18, 3, 19)] {
            c.catch_up(limit);
            for now in ticked..limit {
                stepped.tick(now);
            }
            ticked = limit;
            assert_eq!(c.pc, pc, "pc before cycle {limit}");
            assert_eq!(stepped.pc, pc, "per-cycle ticks before cycle {limit}");
            assert_eq!(c.state, State::Idle { resume_at }, "resume before cycle {limit}");
            assert_eq!(c.instructions(), pc as u64);
            assert_eq!(c.il1.stats(), stepped.il1.stats(), "one IL1 hit per dispatch");
        }
        assert_eq!(c.next_event(18, true), Some(20));
        c.tick(20);
        assert_eq!(c.instructions(), 5);
        assert!(c.is_done());
        assert_eq!(c.completed_at(), Some(21));
    }

    #[test]
    fn a_zero_latency_branch_leaves_its_successor_live() {
        let mut cfg = MachineConfig::ngmp_ref();
        cfg.branch_latency = 0;
        let body = vec![Instr::Branch, Instr::Nop, Instr::Nop, Instr::load(0x8000)];
        let mut c = warmed(&cfg, body, 1);
        assert_eq!(c.next_event(10, true), Some(10), "the branch is not quiet");
        c.tick(10);
        // Per-cycle ticking dispatches the first nop at 11, not 10.
        assert_eq!(c.next_event(11, true), Some(11));
        c.tick(11);
        assert_eq!(c.pc, 2);
        assert_eq!(c.next_event(12, true), Some(13), "the second nop, then the load");
    }

    #[test]
    fn pc_addresses_are_per_core_disjoint() {
        let cfg = MachineConfig::ngmp_ref();
        let a = CoreModel::new(CoreId::new(0), &cfg);
        let b = CoreModel::new(CoreId::new(1), &cfg);
        assert_ne!(a.fetch_line(0), b.fetch_line(0));
    }
}
