//! Set-associative cache timing model.
//!
//! Tracks tags only (no data), with LRU, FIFO, or pseudo-random
//! replacement. Used for the private IL1/DL1 caches and for each core's
//! L2 partition.
//!
//! Lines live in one contiguous allocation (`sets × ways`), so building
//! or resetting a cache touches exactly one buffer — this is what makes
//! the batched-execution arena's reset-not-rebuild path cheap.

use crate::config::CacheConfig;
pub use crate::config::Replacement;
use crate::types::Addr;
use std::ops::Range;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (allocate-on-miss).
    Miss,
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in `[0, 1]`; `0` when there were no accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    /// LRU: last-touch stamp. FIFO: fill stamp.
    stamp: u64,
}

const COLD: Line = Line { tag: 0, valid: false, stamp: 0 };

/// A set-associative, tag-only cache.
///
/// ```
/// use rrb_sim::{Cache, CacheConfig, Replacement};
/// let cfg = CacheConfig {
///     size_bytes: 128, ways: 2, line_bytes: 32, latency: 1,
///     replacement: Replacement::Lru,
/// };
/// let mut c = Cache::new(cfg);
/// assert!(!c.probe(0x0));         // cold
/// c.touch(0x0);
/// assert!(c.probe(0x0));          // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// All lines, set-major: set `s` is `lines[s * ways .. (s + 1) * ways]`.
    lines: Box<[Line]>,
    /// Shift-and-mask indexing (validation makes the line size and the
    /// set count powers of two): an address's line is `addr >> line_shift`,
    /// its set `line & set_mask` and its tag `addr >> tag_shift`.
    line_shift: u32,
    set_mask: u64,
    tag_shift: u32,
    ways: usize,
    stats: CacheStats,
    /// Monotonic access counter; doubles as the xorshift seed for random
    /// replacement so the model stays deterministic.
    clock: u64,
}

impl Cache {
    /// Builds a cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid; validate configurations with
    /// [`CacheConfig::validate`] first when they come from user input.
    pub fn new(cfg: CacheConfig) -> Self {
        // lint_sources: allow (construction-time geometry check)
        cfg.validate("cache").expect("invalid cache geometry");
        let sets = cfg.sets();
        let ways = cfg.ways as usize;
        let lines = vec![COLD; sets as usize * ways].into_boxed_slice();
        let line_shift = cfg.line_bytes.trailing_zeros();
        let tag_shift = line_shift + sets.trailing_zeros();
        Cache {
            cfg,
            lines,
            line_shift,
            set_mask: sets - 1,
            tag_shift,
            ways,
            stats: CacheStats::default(),
            clock: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Adds a pre-computed delta to the counters (fast-forward scaling).
    pub(crate) fn ff_add_stats(&mut self, hits: u64, misses: u64) {
        self.stats.hits += hits;
        self.stats.misses += misses;
    }

    /// Rewinds the cache to its just-built state — cold lines, zeroed
    /// counters and replacement clock — without reallocating.
    pub fn reset(&mut self) {
        self.lines.fill(COLD);
        self.stats = CacheStats::default();
        self.clock = 0;
    }

    /// Re-targets this cache at `cfg`, reusing the line buffer when the
    /// geometry (size, ways, line size) is unchanged — only the latency
    /// and replacement policy are patched in. Falls back to a rebuild on
    /// a geometry change. Either way the result is indistinguishable from
    /// `Cache::new(cfg)`.
    pub fn reset_to(&mut self, cfg: CacheConfig) {
        if cfg.size_bytes == self.cfg.size_bytes
            && cfg.ways == self.cfg.ways
            && cfg.line_bytes == self.cfg.line_bytes
        {
            self.cfg = cfg;
            self.reset();
        } else {
            *self = Cache::new(cfg);
        }
    }

    fn set_index(&self, addr: Addr) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    fn tag(&self, addr: Addr) -> u64 {
        addr >> self.tag_shift
    }

    /// The set index an address maps to. Kernel construction uses it to
    /// engineer same-set conflict misses; [`Cache::reachable_sets`] maps
    /// addresses through it for both signature consumers, period skip and
    /// the static must/may replay.
    pub fn set_of(&self, addr: Addr) -> usize {
        self.set_index(addr)
    }

    /// The sets a static program can reach, ascending and deduplicated:
    /// the set of each address in `data` and of each line the `fetch`
    /// range overlaps (listed line by line, one lap of the sets at most).
    /// Both [`Cache::rank_signature`] consumers sign exactly these sets: a
    /// set outside them is cold in every state, so leaving it out keeps
    /// the signature's equality test the all-sets one.
    pub fn reachable_sets(&self, data: &[Addr], fetch: Range<Addr>) -> Vec<usize> {
        let mut sets: Vec<usize> = data.iter().map(|&a| self.set_of(a)).collect();
        if !fetch.is_empty() {
            let (first, last) =
                (fetch.start >> self.line_shift, (fetch.end - 1) >> self.line_shift);
            let lines = (last - first).min(self.set_mask) + 1;
            sets.extend((first..first + lines).map(|line| (line & self.set_mask) as usize));
        }
        sets.sort_unstable();
        sets.dedup();
        sets
    }

    /// Whether the line containing `addr` is resident, without touching
    /// replacement state or statistics.
    pub fn probe(&self, addr: Addr) -> bool {
        let base = self.set_index(addr) * self.ways;
        let set = &self.lines[base..base + self.ways];
        let tag = self.tag(addr);
        set.iter().any(|l| l.valid && l.tag == tag)
    }

    /// Accesses `addr`: returns [`Access::Hit`] when resident, otherwise
    /// fills the line (evicting per the replacement policy) and returns
    /// [`Access::Miss`]. Updates statistics and replacement state.
    pub fn touch(&mut self, addr: Addr) -> Access {
        self.clock += 1;
        let clock = self.clock;
        let tag = self.tag(addr);
        let base = self.set_index(addr) * self.ways;
        let replacement = self.cfg.replacement;
        let set = &mut self.lines[base..base + self.ways];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            if replacement == Replacement::Lru {
                line.stamp = clock;
            }
            self.stats.hits += 1;
            return Access::Hit;
        }

        // Miss: pick a victim.
        let victim = if let Some(pos) = set.iter().position(|l| !l.valid) {
            pos
        } else {
            match replacement {
                Replacement::Lru | Replacement::Fifo => {
                    // Oldest stamp. For FIFO the stamp is the fill time.
                    let mut best = 0;
                    for (i, l) in set.iter().enumerate().skip(1) {
                        if l.stamp < set[best].stamp {
                            best = i;
                        }
                    }
                    best
                }
                Replacement::Random => {
                    // Deterministic xorshift over the access counter.
                    let mut x = clock.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x % set.len() as u64) as usize
                }
            }
        };
        set[victim] = Line { tag, valid: true, stamp: clock };
        self.stats.misses += 1;
        Access::Miss
    }

    /// Accesses `addr` `n` times in a row, exactly as `n` calls of
    /// [`Cache::touch`] would, and returns the first access's outcome.
    /// On a resident line that is one lookup: the clock advances by `n`,
    /// the hit count by `n`, and an LRU line ends stamped with the last
    /// access. Otherwise the first access misses and fills the line, and
    /// the other `n − 1` hit it.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `n` is zero.
    pub(crate) fn touch_n(&mut self, addr: Addr, n: u64) -> Access {
        debug_assert!(n > 0, "touch_n needs at least one access");
        let (tag, base) = (self.tag(addr), self.set_index(addr) * self.ways);
        let set = &mut self.lines[base..base + self.ways];
        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            self.clock += n;
            if self.cfg.replacement == Replacement::Lru {
                line.stamp = self.clock;
            }
            self.stats.hits += n;
            return Access::Hit;
        }
        self.touch(addr);
        if n > 1 {
            self.touch_n(addr, n - 1);
        }
        Access::Miss
    }

    /// Invalidates the whole cache (e.g. between warm-up and measurement).
    pub fn invalidate_all(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
        }
    }

    /// Appends a time-free signature of the named sets to `out`: per way,
    /// validity, tag, and the line's *relative* stamp rank within its set.
    /// Two caches with equal signatures behave identically on any future
    /// LRU/FIFO access pattern confined to those sets, regardless of the
    /// absolute clock values. (Random replacement depends on the absolute
    /// clock, which is why both consumers refuse it.) The consumers sign
    /// the sets [`Cache::reachable_sets`] lists: period skip fingerprints
    /// the machine with it at iteration boundaries, and the static must/may
    /// replay (`rrb_static::classify_accesses`) proves a loop's cache
    /// outcomes periodic once it repeats.
    pub fn rank_signature(&self, sets: &[usize], out: &mut Vec<u64>) {
        for &s in sets {
            let base = s * self.ways;
            let set = &self.lines[base..base + self.ways];
            for l in set {
                out.push(u64::from(l.valid));
                out.push(if l.valid { l.tag } else { 0 });
                // Rank = number of valid lines in this set with a strictly
                // smaller stamp (stamps are unique per cache).
                let rank = if l.valid {
                    set.iter().filter(|o| o.valid && o.stamp < l.stamp).count() as u64
                } else {
                    0
                };
                out.push(rank);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;

    fn small(ways: u32, replacement: Replacement) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: u64::from(ways) * 2 * 32,
            ways,
            line_bytes: 32,
            latency: 1,
            replacement,
        })
    }

    #[test]
    fn cold_cache_misses_then_hits() {
        let mut c = small(4, Replacement::Lru);
        assert_eq!(c.touch(0x40), Access::Miss);
        assert_eq!(c.touch(0x40), Access::Hit);
        assert_eq!(c.touch(0x47), Access::Hit, "same line, different byte");
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // 2 sets, 2 ways. Set 0 holds lines whose (addr/32) is even.
        let mut c = small(2, Replacement::Lru);
        let line = |i: u64| i * 32 * 2; // all map to set 0
        assert_eq!(c.touch(line(0)), Access::Miss);
        assert_eq!(c.touch(line(1)), Access::Miss);
        assert_eq!(c.touch(line(0)), Access::Hit); // 1 is now LRU
        assert_eq!(c.touch(line(2)), Access::Miss); // evicts 1
        assert_eq!(c.touch(line(0)), Access::Hit);
        assert_eq!(c.touch(line(1)), Access::Miss, "line 1 was evicted");
    }

    #[test]
    fn fifo_evicts_in_fill_order_despite_rehits() {
        let mut c = small(2, Replacement::Fifo);
        let line = |i: u64| i * 32 * 2;
        c.touch(line(0));
        c.touch(line(1));
        c.touch(line(0)); // re-hit must NOT refresh FIFO order
        c.touch(line(2)); // evicts 0, the oldest fill
        assert_eq!(c.touch(line(1)), Access::Hit);
        assert_eq!(c.touch(line(0)), Access::Miss, "FIFO evicted the oldest fill");
    }

    #[test]
    fn ws_of_ways_plus_one_same_set_always_misses_lru() {
        // The paper's rsk construction (§2): W+1 same-set lines thrash a
        // W-way LRU set, so every access misses.
        let ways = 4;
        let mut c = small(ways, Replacement::Lru);
        let stride = 2 * 32; // set count * line size => same set
        let lines: Vec<u64> = (0..=u64::from(ways)).map(|i| i * stride).collect();
        // Warm-up round.
        for &a in &lines {
            c.touch(a);
        }
        for round in 0..10 {
            for &a in &lines {
                assert_eq!(c.touch(a), Access::Miss, "round {round} addr {a:#x}");
            }
        }
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn ws_of_ways_same_set_always_hits_after_warmup() {
        let ways = 4;
        let mut c = small(ways, Replacement::Lru);
        let stride = 2 * 32;
        let lines: Vec<u64> = (0..u64::from(ways)).map(|i| i * stride).collect();
        for &a in &lines {
            c.touch(a);
        }
        for &a in &lines {
            assert_eq!(c.touch(a), Access::Hit);
        }
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        let mut c = small(2, Replacement::Lru);
        let line = |i: u64| i * 32 * 2;
        c.touch(line(0));
        c.touch(line(1));
        let before = c.stats();
        assert!(c.probe(line(0)));
        assert!(!c.probe(line(5)));
        assert_eq!(c.stats(), before);
        // probe(line(0)) must not have refreshed line 0:
        c.touch(line(2)); // evicts LRU = line 0
        assert!(!c.probe(line(0)));
    }

    #[test]
    fn invalidate_all_empties_cache() {
        let mut c = small(2, Replacement::Lru);
        c.touch(0x0);
        c.invalidate_all();
        assert!(!c.probe(0x0));
    }

    #[test]
    fn random_replacement_is_deterministic() {
        let run = || {
            let mut c = small(2, Replacement::Random);
            let mut misses = 0;
            for i in 0..1000u64 {
                if c.touch((i % 5) * 64) == Access::Miss {
                    misses += 1;
                }
            }
            misses
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn set_mapping_uses_line_granularity() {
        let c = small(2, Replacement::Lru); // 2 sets
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(31), 0);
        assert_eq!(c.set_of(32), 1);
        assert_eq!(c.set_of(64), 0);
    }

    #[test]
    fn reachable_sets_list_data_sets_and_each_fetch_line_once() {
        // 4 ways of 8 sets of 32-byte lines.
        let c = Cache::new(CacheConfig {
            size_bytes: 1024,
            ways: 4,
            line_bytes: 32,
            latency: 1,
            replacement: Replacement::Lru,
        });
        assert_eq!(c.reachable_sets(&[0x20, 0x124, 0x20], 0..0), [1], "lines 1 and 9");
        assert_eq!(c.reachable_sets(&[], 0x44..0x84), [2, 3, 4], "a range starting mid-line");
        assert_eq!(c.reachable_sets(&[0xe0], 0x44..0x84), [2, 3, 4, 7]);
        assert_eq!(c.reachable_sets(&[], 0..0x1000), (0..8).collect::<Vec<_>>(), "one lap");
        // Stepping whole lines lists what mapping every instruction would.
        for (start, len) in [(0x8000_0000u64, 1u64), (0x8000_0004, 9), (0x8000_0010, 77)] {
            let range = start..start + 4 * len;
            let mut each: Vec<usize> = range.clone().step_by(4).map(|a| c.set_of(a)).collect();
            each.sort_unstable();
            each.dedup();
            assert_eq!(c.reachable_sets(&[], range), each, "{start:#x}+{len}");
        }
    }

    #[test]
    fn touch_n_equals_n_touches() {
        for repl in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            let (mut batched, mut single) = (small(2, repl), small(2, repl));
            // Runs over five lines of one 2-way set, so runs both hit
            // and miss, and misses evict by the replacement state the
            // earlier runs left.
            for i in 0..60u64 {
                let (addr, n) = ((i * 7 % 5) * 64, 1 + i % 4);
                let first = batched.touch_n(addr, n);
                let each: Vec<Access> = (0..n).map(|_| single.touch(addr)).collect();
                assert_eq!(first, each[0], "{repl:?} access {i}");
                assert_eq!(batched.stats(), single.stats(), "{repl:?} access {i}");
                assert_eq!(batched.clock, single.clock, "{repl:?} access {i}");
                let lines = |c: &Cache| -> Vec<(bool, u64, u64)> {
                    c.lines.iter().map(|l| (l.valid, l.tag, l.stamp)).collect()
                };
                assert_eq!(lines(&batched), lines(&single), "{repl:?} access {i}");
            }
        }
    }

    #[test]
    fn hit_rate_bounds() {
        let mut c = small(2, Replacement::Lru);
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.touch(0);
        c.touch(0);
        let r = c.stats().hit_rate();
        assert!(r > 0.0 && r <= 1.0);
    }

    /// Drives a cache through a workload twice — once fresh, once after a
    /// reset — and checks every observable matches.
    fn workload(c: &mut Cache) -> (Vec<Access>, CacheStats) {
        let accesses: Vec<Access> = (0..200u64).map(|i| c.touch((i % 7) * 64)).collect();
        (accesses, c.stats())
    }

    #[test]
    fn reset_is_indistinguishable_from_new() {
        for repl in [Replacement::Lru, Replacement::Fifo, Replacement::Random] {
            let mut fresh = small(2, repl);
            let expected = workload(&mut fresh);
            let mut reused = small(2, repl);
            let _ = workload(&mut reused); // dirty it
            reused.reset();
            assert_eq!(workload(&mut reused), expected, "{repl:?}");
        }
    }

    #[test]
    fn reset_to_patches_policy_on_same_geometry() {
        let mut c = small(2, Replacement::Lru);
        let _ = workload(&mut c);
        let mut cfg = *c.config();
        cfg.replacement = Replacement::Fifo;
        cfg.latency = 9;
        c.reset_to(cfg);
        assert_eq!(c.config().latency, 9);
        let mut fresh = Cache::new(cfg);
        assert_eq!(workload(&mut c), workload(&mut fresh));
    }

    #[test]
    fn reset_to_rebuilds_on_geometry_change() {
        let mut c = small(2, Replacement::Lru);
        let bigger = CacheConfig {
            size_bytes: 4 * 4 * 32,
            ways: 4,
            line_bytes: 32,
            latency: 1,
            replacement: Replacement::Lru,
        };
        c.reset_to(bigger);
        assert_eq!(*c.config(), bigger);
        let mut fresh = Cache::new(bigger);
        assert_eq!(workload(&mut c), workload(&mut fresh));
    }

    #[test]
    fn rank_signature_is_clock_invariant() {
        // Same residency + recency order at different absolute clocks must
        // produce the same signature.
        let mut a = small(2, Replacement::Lru);
        let mut b = small(2, Replacement::Lru);
        let line = |i: u64| i * 32 * 2;
        a.touch(line(0));
        a.touch(line(1));
        // b reaches the same placement and recency order after extra
        // re-hits (so at a strictly higher absolute clock).
        b.touch(line(0));
        b.touch(line(1));
        b.touch(line(0));
        b.touch(line(1));
        let mut sa = Vec::new();
        let mut sb = Vec::new();
        a.rank_signature(&[0], &mut sa);
        b.rank_signature(&[0], &mut sb);
        assert_eq!(sa, sb);
        // Disturbing the order changes it.
        b.touch(line(0));
        sb.clear();
        b.rank_signature(&[0], &mut sb);
        assert_ne!(sa, sb);
    }
}
