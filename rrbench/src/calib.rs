//! Host-speed calibration.
//!
//! The benchmark runs on shared virtual CPUs whose speed drifts with the
//! host's load: a fixed CPU loop read anywhere from 125 to 185 ms within
//! half an hour on the 2-vCPU host this benchmark was defined on, and
//! pass times moved with it. A timed loop therefore runs a fixed kernel
//! before its first sample and after every sample, and reports each
//! sample at the reference speed: `seconds × REFERENCE_SECS / mean of
//! the kernel times just before and just after it`. Bracketing each
//! sample follows drift within a run as well as between runs. The kernel
//! is the benchmark's own code, so a change to the measured program
//! cannot move it. The raw timings are printed alongside.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// The kernel's single-thread time on a quiet host, in seconds.
pub const REFERENCE_SECS: f64 = 0.05;

/// Entries of the pointer-chase ring (1 MiB of `u32`).
const RING: usize = 1 << 18;
/// Pointer-chase steps per kernel run.
const CHASE_STEPS: usize = 1_000_000;
/// Branchy state-machine steps per kernel run.
const BRANCH_STEPS: usize = 4_000_000;

/// A single-cycle permutation (Sattolo's algorithm over a fixed LCG), so
/// the chase visits every entry in an order no prefetcher predicts.
fn ring() -> &'static [u32] {
    static RING_CELLS: OnceLock<Vec<u32>> = OnceLock::new();
    RING_CELLS.get_or_init(|| {
        let mut v: Vec<u32> = (0..RING as u32).collect();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in (1..RING).rev() {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let j = (x >> 33) as usize % i;
            v.swap(i, j);
        }
        v
    })
}

/// One kernel run, shaped like the measured code: a dependent pointer
/// chase (cache-missing loads) and a state machine over a small table
/// whose branches depend on pseudo-random data (mispredicts, like a
/// cycle-accurate simulator's control flow).
fn kernel(ring: &[u32]) -> u64 {
    let mut i = 0usize;
    let mut acc = 0u64;
    for _ in 0..CHASE_STEPS {
        i = ring[i] as usize;
        acc = (acc ^ i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(7);
    }
    let mut table = [0u64; 512];
    let mut x = acc | 1;
    for _ in 0..BRANCH_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x >> 20) as usize & 511;
        match x & 7 {
            0 | 1 => table[slot] = table[slot].wrapping_add(x),
            2 => table[slot] ^= acc,
            3 if table[slot] & 1 == 1 => acc = acc.wrapping_add(table[slot]),
            4 | 5 => acc = acc.rotate_left((x & 31) as u32) ^ table[slot],
            _ => table[(slot + 1) & 511] = acc,
        }
    }
    acc ^ table.iter().fold(0, |a, &t| a ^ t)
}

/// Wall time of the kernel run on `threads` threads at once (one per
/// CPU the sample itself uses).
fn kernel_secs(threads: usize) -> f64 {
    let ring = ring();
    let start = Instant::now();
    if threads <= 1 {
        black_box(kernel(black_box(ring)));
    } else {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| black_box(kernel(black_box(ring))));
            }
        });
    }
    start.elapsed().as_secs_f64()
}

/// Kernel times bracketing a run's samples: one before the first
/// sample, then one after each.
#[derive(Debug, Default)]
pub struct Calibration {
    secs: Vec<f64>,
}

impl Calibration {
    /// Times the kernel on `threads` threads, the CPUs the samples use.
    pub fn sample(&mut self, threads: usize) {
        self.secs.push(kernel_secs(threads));
    }

    /// The factor that scales sample `i` to the reference speed.
    pub fn scale_at(&self, i: usize) -> f64 {
        2.0 * REFERENCE_SECS / (self.secs[i] + self.secs[i + 1])
    }

    /// The factor that scales the run as a whole (its set-up times) to
    /// the reference speed.
    pub fn scale(&self) -> f64 {
        REFERENCE_SECS / crate::stats::median(&self.secs)
    }

    /// The kernel's times as a summary line.
    pub fn summary(&self) -> crate::stats::Summary {
        let ms: Vec<f64> = self.secs.iter().map(|s| s * 1e3).collect();
        crate::stats::Summary::of("calibration_kernel_ms", "ms", &ms)
    }
}
