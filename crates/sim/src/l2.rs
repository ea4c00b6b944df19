//! The shared, way-partitioned L2 cache (§5.1).
//!
//! The paper's NGMP configuration splits the 4-way 256 KB L2 among the
//! cores, one way each, "hence contention only happens on the bus and the
//! memory controller". Each partition is therefore an independent cache
//! indexed by the owning core, and inter-core cache interference is
//! impossible by construction.

use crate::cache::{Access, Cache, CacheStats};
use crate::config::L2Config;
use crate::types::{Addr, CoreId};

/// The partitioned L2: one private slice per core.
#[derive(Debug, Clone)]
pub struct L2 {
    partitions: Vec<Cache>,
    cfg: L2Config,
}

impl L2 {
    /// Builds the L2 for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry; validate with [`L2Config::validate`]
    /// first for user-supplied configurations.
    pub fn new(cfg: L2Config, num_cores: usize) -> Self {
        // lint_sources: allow (construction-time geometry check)
        cfg.validate(num_cores).expect("invalid L2 geometry");
        let part = cfg.partition(num_cores);
        L2 { partitions: (0..num_cores).map(|_| Cache::new(part)).collect(), cfg }
    }

    /// The configuration this L2 was built with.
    pub fn config(&self) -> &L2Config {
        &self.cfg
    }

    /// Looks up `addr` in `core`'s partition, filling on miss.
    pub fn touch(&mut self, core: CoreId, addr: Addr) -> Access {
        self.partitions[core.index()].touch(addr)
    }

    /// Non-destructive residence check in `core`'s partition.
    pub fn probe(&self, core: CoreId, addr: Addr) -> bool {
        self.partitions[core.index()].probe(addr)
    }

    /// Hit/miss counters of `core`'s partition.
    pub fn stats(&self, core: CoreId) -> CacheStats {
        self.partitions[core.index()].stats()
    }

    /// Capacity of one partition, in bytes.
    pub fn partition_bytes(&self) -> u64 {
        self.partitions[0].config().size_bytes
    }

    /// Re-targets the L2 at `cfg` for `num_cores` cores, reusing the
    /// partition buffers when the per-partition geometry and core count
    /// are unchanged. Equivalent to `L2::new(cfg, num_cores)`.
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry, like [`L2::new`].
    pub fn reset_to(&mut self, cfg: L2Config, num_cores: usize) {
        // lint_sources: allow (construction-time geometry check)
        cfg.validate(num_cores).expect("invalid L2 geometry");
        if self.partitions.len() == num_cores {
            let part = cfg.partition(num_cores);
            for p in &mut self.partitions {
                p.reset_to(part);
            }
            self.cfg = cfg;
        } else {
            *self = L2::new(cfg, num_cores);
        }
    }

    /// Access to one partition for fast-forward signatures.
    pub(crate) fn partition(&self, core: CoreId) -> &Cache {
        &self.partitions[core.index()]
    }

    /// Mutable partition access for fast-forward statistics scaling.
    pub(crate) fn partition_mut(&mut self, core: CoreId) -> &mut Cache {
        &mut self.partitions[core.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Access;

    fn l2() -> L2 {
        L2::new(L2Config::ngmp(), 4)
    }

    #[test]
    fn partitions_are_isolated() {
        let mut l2 = l2();
        let a = 0x4000;
        assert_eq!(l2.touch(CoreId::new(0), a), Access::Miss);
        assert_eq!(l2.touch(CoreId::new(0), a), Access::Hit);
        // The same address is cold in every other partition.
        for i in 1..4 {
            assert_eq!(l2.touch(CoreId::new(i), a), Access::Miss, "core {i}");
        }
    }

    #[test]
    fn thrashing_one_partition_leaves_others_untouched() {
        let mut l2 = l2();
        let part_bytes = l2.partition_bytes();
        // Core 3 streams through twice its partition; core 0's single
        // line must stay resident (no inter-core eviction is possible).
        l2.touch(CoreId::new(0), 0x40);
        for i in 0..(2 * part_bytes / 32) {
            l2.touch(CoreId::new(3), i * 32);
        }
        assert!(l2.probe(CoreId::new(0), 0x40));
    }

    #[test]
    fn ngmp_partition_is_64kb() {
        let l2 = l2();
        assert_eq!(l2.partition_bytes(), 64 * 1024);
    }

    #[test]
    fn stats_are_per_core() {
        let mut l2 = l2();
        l2.touch(CoreId::new(1), 0x100);
        l2.touch(CoreId::new(1), 0x100);
        assert_eq!(l2.stats(CoreId::new(1)).hits, 1);
        assert_eq!(l2.stats(CoreId::new(1)).misses, 1);
        assert_eq!(l2.stats(CoreId::new(0)).accesses(), 0);
    }

    #[test]
    #[should_panic(expected = "invalid L2 geometry")]
    fn too_many_cores_panics() {
        let _ = L2::new(L2Config::ngmp(), 8);
    }

    #[test]
    fn reset_to_matches_a_fresh_l2() {
        let mut reused = l2();
        for i in 0..64u64 {
            reused.touch(CoreId::new((i % 4) as usize), i * 32);
        }
        reused.reset_to(L2Config::ngmp(), 2);
        let mut fresh = L2::new(L2Config::ngmp(), 2);
        for i in 0..64u64 {
            let c = CoreId::new((i % 2) as usize);
            assert_eq!(reused.touch(c, i * 32), fresh.touch(c, i * 32));
        }
        assert_eq!(reused.stats(CoreId::new(0)), fresh.stats(CoreId::new(0)));
    }
}
