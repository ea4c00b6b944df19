//! Fundamental value types shared across the simulator.

use std::fmt;

/// A simulation time stamp, in core clock cycles since machine reset.
pub type Cycle = u64;

/// A byte address in the simulated physical address space.
///
/// Addresses only matter for cache indexing and bank mapping; no data is
/// stored behind them.
pub type Addr = u64;

/// Identifier of a core (bus requester), in `0..num_cores`.
///
/// A newtype rather than a bare `usize` so that core indices cannot be
/// confused with cycle counts or way indices at API boundaries.
///
/// ```
/// use rrb_sim::CoreId;
/// let c = CoreId::new(2);
/// assert_eq!(c.index(), 2);
/// assert_eq!(c.to_string(), "c2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(usize);

impl CoreId {
    /// Creates a core identifier from a raw index.
    pub fn new(index: usize) -> Self {
        CoreId(index)
    }

    /// Returns the raw index of this core.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<CoreId> for usize {
    fn from(id: CoreId) -> usize {
        id.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_round_trips_index() {
        for i in 0..16 {
            assert_eq!(CoreId::new(i).index(), i);
            assert_eq!(usize::from(CoreId::new(i)), i);
        }
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(CoreId::new(7).to_string(), "c7");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(CoreId::new(1) < CoreId::new(2));
    }
}
