//! The reference kernel that scales the benchmark's host times to a
//! fixed host speed.
//!
//! On a shared host, other tenants slow the simulator by up to 1.6x, in
//! episodes from a second to minutes long, so raw campaign times of one
//! build spread by more than any useful regression bound. A fixed kernel
//! timed right before and right after each campaign, on the same CPUs
//! (`run.py` pins a run to one CPU per worker thread), slows down with it:
//! the kernel is a miniature of the simulator's hot path, a 16-way
//! set-associative tag walk with LRU victim scans over an array the size
//! of a core's L2 cache. Each campaign's time is divided by the mean of
//! the two kernel times and multiplied by [`REFERENCE_NS`], which gives
//! its time on a host where the kernel takes that long.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time (ns) the scaled times assume: about its median on the
/// 2-vCPU Xeon VM the benchmark was tuned on, so that there a scaled
/// time reads close to a raw one.
pub const REFERENCE_NS: f64 = 25_000_000.0;

const WAYS: usize = 16;
/// Tag slots: 64 Ki, i.e. 512 KiB of tags and 256 KiB of LRU stamps.
const SLOTS: usize = 1 << 16;
/// Lookups per kernel run.
const LOOKUPS: u32 = 500_000;
/// Distinct addresses the lookups draw from: 64x the slots, so most miss
/// and scan their set for a victim.
const ADDRESSES: u64 = 1 << 22;

/// The kernel's state for one thread, allocated once and reset per run.
struct Kernel {
    tags: Vec<u64>,
    stamps: Vec<u32>,
}

impl Kernel {
    fn new() -> Kernel {
        Kernel {
            tags: vec![0; SLOTS],
            stamps: vec![0; SLOTS],
        }
    }

    /// One run from empty: returns the hit count, so the work is kept.
    fn run(&mut self) -> u64 {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
        let sets = (SLOTS / WAYS) as u64;
        let mut x = 0x1234_5678_9abc_def1u64;
        let mut hits = 0;
        for t in 1..=LOOKUPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let addr = (x >> 20) % ADDRESSES;
            let base = (addr % sets) as usize * WAYS;
            let tag = addr / sets;
            let set = &mut self.tags[base..base + WAYS];
            let stamps = &mut self.stamps[base..base + WAYS];
            match set.iter().position(|&s| s == tag) {
                Some(way) => {
                    hits += 1;
                    stamps[way] = t;
                }
                None => {
                    let victim =
                        (1..WAYS).fold(0, |v, w| if stamps[w] < stamps[v] { w } else { v });
                    set[victim] = tag;
                    stamps[victim] = t;
                }
            }
        }
        hits
    }
}

/// The kernel on `threads` threads at once, as many as a campaign uses.
pub struct Reference {
    kernels: Vec<Kernel>,
}

impl Reference {
    /// State for `threads` threads (at least one).
    pub fn new(threads: usize) -> Reference {
        Reference {
            kernels: (0..threads.max(1)).map(|_| Kernel::new()).collect(),
        }
    }

    /// Runs the kernel once on every thread at once and returns the mean
    /// wall time per thread, in nanoseconds.
    pub fn time(&mut self) -> f64 {
        let times: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .kernels
                .iter_mut()
                .map(|k| {
                    s.spawn(move || {
                        let start = Instant::now();
                        black_box(k.run());
                        start.elapsed().as_nanos() as u64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference kernel does not panic"))
                .collect()
        });
        times.iter().sum::<u64>() as f64 / times.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_work_is_fixed_and_mostly_misses() {
        let mut k = Kernel::new();
        let hits = k.run();
        assert_eq!(k.run(), hits, "every run starts from empty");
        assert!(hits > 0 && hits < u64::from(LOOKUPS) / 4, "hits {hits}");
    }

    #[test]
    fn timing_runs_on_every_thread() {
        let mut r = Reference::new(2);
        assert_eq!(r.kernels.len(), 2);
        assert!(r.time() > 0.0);
    }
}
