//! Instructions and programs.
//!
//! Programs are *timing skeletons*: sequences of instructions whose only
//! semantics are the memory addresses they touch and the cycles they burn.
//! This is exactly the abstraction level of the paper's resource-stressing
//! kernels (rsk), which are loops of loads/stores/nops engineered for their
//! cache behaviour, not their data.

use crate::types::Addr;
use std::fmt;
use std::sync::{Arc, LazyLock};

/// One instruction of a simulated program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// A load from the given address. Misses in DL1 generate a bus request.
    Load(Addr),
    /// A store to the given address. Write-through: always generates a bus
    /// write, buffered by the store buffer.
    Store(Addr),
    /// A no-operation; burns [`MachineConfig::nop_latency`] cycles.
    ///
    /// [`MachineConfig::nop_latency`]: crate::MachineConfig::nop_latency
    Nop,
    /// A generic ALU operation with an explicit latency in cycles. Used by
    /// the synthetic EEMBC-profile workloads to model compute phases.
    Alu {
        /// Cycles this operation occupies the core.
        latency: u64,
    },
    /// Loop-control overhead (compare + branch); burns
    /// [`MachineConfig::branch_latency`] cycles.
    ///
    /// [`MachineConfig::branch_latency`]: crate::MachineConfig::branch_latency
    Branch,
}

impl Instr {
    /// Convenience constructor for a load.
    pub fn load(addr: Addr) -> Self {
        Instr::Load(addr)
    }

    /// Convenience constructor for a store.
    pub fn store(addr: Addr) -> Self {
        Instr::Store(addr)
    }

    /// Whether this instruction may access the bus (i.e. is a memory op).
    pub fn accesses_memory(&self) -> bool {
        matches!(self, Instr::Load(_) | Instr::Store(_))
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Load(a) => write!(f, "ld 0x{a:x}"),
            Instr::Store(a) => write!(f, "st 0x{a:x}"),
            Instr::Nop => write!(f, "nop"),
            Instr::Alu { latency } => write!(f, "alu({latency})"),
            Instr::Branch => write!(f, "br"),
        }
    }
}

/// How many times a program's body repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Iterations {
    /// The body runs exactly this many times, then the core is done.
    Finite(u64),
    /// The body repeats until the machine stops (used for contender
    /// kernels, which "must not complete execution before the scua", §3.1).
    Infinite,
}

impl Iterations {
    /// Returns the finite count, if any.
    pub fn finite(self) -> Option<u64> {
        match self {
            Iterations::Finite(n) => Some(n),
            Iterations::Infinite => None,
        }
    }
}

/// A program: a loop body repeated a number of times.
///
/// The body is reference-counted, so cloning a program — which batched
/// execution does once per machine per run — shares the decoded
/// instructions instead of copying them. Equality and hashing delegate
/// to the instruction sequence itself, so two programs with equal
/// bodies compare equal regardless of sharing.
///
/// ```
/// use rrb_sim::{Program, Instr};
/// let p = Program::from_body(vec![Instr::load(0x100), Instr::Nop], 10);
/// assert_eq!(p.body().len(), 2);
/// assert_eq!(p.dynamic_instruction_count(), Some(20));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    body: Arc<[Instr]>,
    iterations: Iterations,
}

impl Program {
    /// A program whose `body` repeats `iterations` times.
    pub fn from_body(body: Vec<Instr>, iterations: u64) -> Self {
        Program { body: body.into(), iterations: Iterations::Finite(iterations) }
    }

    /// A program whose `body` repeats until the machine stops.
    pub fn endless(body: Vec<Instr>) -> Self {
        Program { body: body.into(), iterations: Iterations::Infinite }
    }

    /// An empty program (the core idles immediately). Every empty program
    /// shares one body, so the one each core gets on a machine reset
    /// costs no allocation.
    pub fn empty() -> Self {
        static EMPTY: LazyLock<Arc<[Instr]>> = LazyLock::new(|| Arc::from([]));
        Program { body: Arc::clone(&EMPTY), iterations: Iterations::Finite(0) }
    }

    /// The loop body.
    pub fn body(&self) -> &[Instr] {
        &self.body
    }

    /// The iteration count.
    pub fn iterations(&self) -> Iterations {
        self.iterations
    }

    /// Total dynamic instructions, if finite.
    pub fn dynamic_instruction_count(&self) -> Option<u64> {
        self.iterations.finite().map(|n| n * self.body.len() as u64)
    }

    /// Number of memory (bus-candidate) instructions per body iteration.
    pub fn memory_ops_per_iteration(&self) -> u64 {
        self.body.iter().filter(|i| i.accesses_memory()).count() as u64
    }

    /// Total dynamic memory operations, if finite.
    pub fn dynamic_memory_ops(&self) -> Option<u64> {
        self.iterations.finite().map(|n| n * self.memory_ops_per_iteration())
    }
}

/// Incremental builder for [`Program`]s.
///
/// ```
/// use rrb_sim::{ProgramBuilder, Instr};
/// let p = ProgramBuilder::new()
///     .load(0x1000)
///     .nops(3)
///     .store(0x2000)
///     .branch()
///     .iterations(100)
///     .build();
/// assert_eq!(p.body().len(), 6);
/// assert_eq!(p.memory_ops_per_iteration(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    body: Vec<Instr>,
    iterations: Option<Iterations>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a load.
    pub fn load(mut self, addr: Addr) -> Self {
        self.body.push(Instr::Load(addr));
        self
    }

    /// Appends a store.
    pub fn store(mut self, addr: Addr) -> Self {
        self.body.push(Instr::Store(addr));
        self
    }

    /// Appends one nop.
    pub fn nop(self) -> Self {
        self.nops(1)
    }

    /// Appends `n` nops.
    pub fn nops(mut self, n: usize) -> Self {
        self.body.extend(std::iter::repeat_n(Instr::Nop, n));
        self
    }

    /// Appends an ALU op of the given latency.
    pub fn alu(mut self, latency: u64) -> Self {
        self.body.push(Instr::Alu { latency });
        self
    }

    /// Appends loop-control overhead.
    pub fn branch(mut self) -> Self {
        self.body.push(Instr::Branch);
        self
    }

    /// Appends an arbitrary instruction.
    pub fn push(mut self, instr: Instr) -> Self {
        self.body.push(instr);
        self
    }

    /// Appends all instructions from an iterator.
    pub fn extend<I: IntoIterator<Item = Instr>>(mut self, instrs: I) -> Self {
        self.body.extend(instrs);
        self
    }

    /// Sets a finite iteration count (default 1).
    pub fn iterations(mut self, n: u64) -> Self {
        self.iterations = Some(Iterations::Finite(n));
        self
    }

    /// Marks the program as endless (contender kernels).
    pub fn endless(mut self) -> Self {
        self.iterations = Some(Iterations::Infinite);
        self
    }

    /// Finalizes the program.
    pub fn build(self) -> Program {
        Program {
            body: self.body.into(),
            iterations: self.iterations.unwrap_or(Iterations::Finite(1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let p = ProgramBuilder::new().load(0x10).nops(2).store(0x20).iterations(5).build();
        assert_eq!(p.body(), &[Instr::Load(0x10), Instr::Nop, Instr::Nop, Instr::Store(0x20)]);
        assert_eq!(p.iterations(), Iterations::Finite(5));
        assert_eq!(p.dynamic_instruction_count(), Some(20));
        assert_eq!(p.dynamic_memory_ops(), Some(10));
    }

    #[test]
    fn endless_program_has_no_counts() {
        let p = Program::endless(vec![Instr::Nop]);
        assert_eq!(p.dynamic_instruction_count(), None);
        assert_eq!(p.iterations().finite(), None);
    }

    #[test]
    fn empty_program_completes_immediately() {
        let p = Program::empty();
        assert_eq!(p.dynamic_instruction_count(), Some(0));
    }

    #[test]
    fn memory_op_classification() {
        assert!(Instr::load(0).accesses_memory());
        assert!(Instr::store(0).accesses_memory());
        assert!(!Instr::Nop.accesses_memory());
        assert!(!Instr::Branch.accesses_memory());
        assert!(!Instr::Alu { latency: 3 }.accesses_memory());
    }

    #[test]
    fn display_formats() {
        assert_eq!(Instr::load(0x1f).to_string(), "ld 0x1f");
        assert_eq!(Instr::store(0x2).to_string(), "st 0x2");
        assert_eq!(Instr::Nop.to_string(), "nop");
        assert_eq!(Instr::Branch.to_string(), "br");
        assert_eq!(Instr::Alu { latency: 4 }.to_string(), "alu(4)");
    }

    #[test]
    fn builder_default_is_single_iteration() {
        let p = ProgramBuilder::new().nop().build();
        assert_eq!(p.iterations(), Iterations::Finite(1));
    }
}
