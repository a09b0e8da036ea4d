//! Property-based tests for the cache designs' invariants.

use proptest::prelude::*;
use unison_core::residue::{mod_2n_minus_1, split_page_offset};
use unison_core::{
    AlloyCache, AlloyConfig, Divisor, DramCacheModel, FootprintCache, FootprintConfig, IdealCache,
    MemPorts, NoCache, Request, UnisonCache, UnisonConfig,
};

/// Divisors the property race draws from: 1, powers of two, `2^n − 1`
/// (page sizes), Alloy's 112 TADs per row, `u64::MAX`, and anything.
fn divisor() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(1u64),
        Just(112u64),
        Just(u64::MAX),
        (0u32..64).prop_map(|k| 1u64 << k),
        (1u32..=64).prop_map(|n| u64::MAX >> (64 - n)),
        1u64..1_000_000,
        any::<u64>().prop_map(|d| d.max(1)),
    ]
}

/// Numerators: arbitrary, small, and the top of the range.
fn numerator() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        0u64..100_000,
        (0u64..100_000).prop_map(|k| u64::MAX - k),
    ]
}

proptest! {
    /// The residue unit agrees with `%` over the whole address space —
    /// the §III-A.7 hardware trick is exact.
    #[test]
    fn residue_matches_modulo(x in any::<u64>(), n in 1u32..=32) {
        let m = (1u64 << n) - 1;
        if m > 1 {
            prop_assert_eq!(mod_2n_minus_1(x, n), x % m);
        } else {
            prop_assert_eq!(mod_2n_minus_1(x, n), 0);
        }
    }

    /// A precomputed [`Divisor`] equals `/` and `%` for any `u64`
    /// numerator and divisor.
    #[test]
    fn divisor_matches_hardware_division(d in divisor(), n in numerator()) {
        let div = Divisor::new(d);
        prop_assert_eq!(div.get(), d);
        prop_assert_eq!(div.quotient(n), n / d);
        prop_assert_eq!(div.divmod(n), (n / d, n % d));
    }

    /// The page split a cache runs per access (a precomputed divisor),
    /// the §III-A.7 residue unit and plain `/` and `%` agree on every
    /// block number, for every `2^n − 1` page size.
    #[test]
    fn divisor_split_matches_residue_unit(bn in numerator(), n in 1u32..=32) {
        let m = (1u64 << n) - 1;
        let (page, off) = split_page_offset(bn, n);
        prop_assert_eq!((page, u64::from(off)), (bn / m, bn % m));
        prop_assert_eq!(u64::from(off), mod_2n_minus_1(bn, n));
        prop_assert_eq!(Divisor::new(m).divmod(bn), (page, u64::from(off)));
    }

    /// Page/offset splitting reconstructs the block number for both
    /// Unison page sizes.
    #[test]
    fn split_reconstructs(bn in any::<u64>(), use_31 in any::<bool>()) {
        let n = if use_31 { 5 } else { 4 };
        let blocks = (1u64 << n) - 1;
        // Avoid the (page * blocks) overflow edge at u64::MAX.
        let bn = bn % (u64::MAX / 64);
        let (page, off) = split_page_offset(bn, n);
        prop_assert!(u64::from(off) < blocks);
        prop_assert_eq!(page * blocks + u64::from(off), bn);
    }

    /// After any request sequence, a resident block must hit on
    /// re-access (inclusion/coherence of the metadata state machine),
    /// for every design.
    #[test]
    fn resident_blocks_hit_on_reaccess(
        addrs in proptest::collection::vec(0u64..(1 << 24), 1..60),
    ) {
        let mut uc = UnisonCache::new(UnisonConfig::new(8 << 20));
        let mut ac = AlloyCache::new(AlloyConfig::new(8 << 20));
        let mut fc = FootprintCache::new(FootprintConfig::new(8 << 20));
        let mut mem = MemPorts::paper_default();
        let mut t = 0u64;
        for (i, &addr) in addrs.iter().enumerate() {
            let req = Request { core: (i % 16) as u8, pc: 0x400, addr, is_write: i % 3 == 0 };
            // Touch once (may miss), touch again immediately: must hit —
            // nothing can have evicted it in between.
            for expect_hit in [false, true] {
                let a = uc.access(t, &req, &mut mem);
                t = a.done_ps;
                if expect_hit {
                    prop_assert!(a.hit(), "unison lost a just-touched block @{addr:#x}");
                }
                let a = ac.access(t, &req, &mut mem);
                t = a.done_ps;
                if expect_hit {
                    prop_assert!(a.hit(), "alloy lost a just-touched block @{addr:#x}");
                }
                let a = fc.access(t, &req, &mut mem);
                t = a.done_ps;
                if expect_hit {
                    prop_assert!(a.hit(), "footprint lost a just-touched block @{addr:#x}");
                }
            }
        }
    }

    /// Statistics identities hold under arbitrary request streams:
    /// hits + misses == accesses, and critical latency is never negative.
    #[test]
    fn stats_identities(
        steps in proptest::collection::vec((0u64..(1 << 26), any::<bool>()), 1..150),
    ) {
        let mut uc = UnisonCache::new(UnisonConfig::new(4 << 20));
        let mut mem = MemPorts::paper_default();
        let mut t = 0u64;
        for (i, &(addr, w)) in steps.iter().enumerate() {
            let req = Request { core: (i % 16) as u8, pc: addr % 977, addr, is_write: w };
            let a = uc.access(t, &req, &mut mem);
            prop_assert!(a.critical_ps >= t);
            prop_assert!(a.done_ps >= a.critical_ps || a.done_ps >= t);
            t = a.done_ps;
        }
        let s = uc.stats();
        prop_assert_eq!(s.hits + s.misses(), s.accesses);
        prop_assert_eq!(s.accesses, steps.len() as u64);
        // Footprint accounting identities.
        prop_assert!(s.fp_covered_blocks <= s.fp_actual_blocks);
        prop_assert!(s.fp_covered_blocks + s.fp_over_blocks == s.fp_predicted_blocks);
    }

    /// The LRU victim policy never evicts the most recently used way.
    #[test]
    fn lru_never_evicts_mru(conflicts in 2u64..12) {
        let mut uc = UnisonCache::new(UnisonConfig::new(1 << 20));
        let sets = uc.num_sets();
        let mut mem = MemPorts::paper_default();
        let mut t = 0u64;
        // Fill one set, then keep touching page 0 while streaming
        // conflicting pages through: page 0 must stay resident.
        let touch = |uc: &mut UnisonCache, mem: &mut MemPorts, t: &mut u64, page: u64| {
            let req = Request { core: 0, pc: 0x999, addr: page * sets * 960, is_write: false };
            let a = uc.access(*t, &req, mem);
            *t = a.done_ps;
            a
        };
        touch(&mut uc, &mut mem, &mut t, 0);
        for k in 1..=conflicts {
            touch(&mut uc, &mut mem, &mut t, k);
            let a = touch(&mut uc, &mut mem, &mut t, 0);
            prop_assert!(a.hit(), "MRU page 0 evicted after {k} conflicts");
        }
    }
}

/// Every design builds at every preset size (the paper's 128 MB–8 GB and
/// the same sizes at the experiments' 1/16 and 1/64 scales) and maps
/// addresses across the whole space: low, high, at the cache size, and
/// near the top of a 46-bit physical space. Covers the Unison variants
/// whose locations take different branches: 1984 B pages, 1-way, and the
/// multi-row 32-way sets (`sets_per_row == 0`).
#[test]
fn every_design_builds_and_maps_at_every_preset_size() {
    const MB: u64 = 1 << 20;
    let paper = [
        128 * MB,
        256 * MB,
        512 * MB,
        1024 * MB,
        2048 * MB,
        4096 * MB,
        8192 * MB,
    ];
    for nominal in paper {
        for scale in [1, 16, 64] {
            let size = nominal / scale;
            let unison = |cfg: UnisonConfig| Box::new(UnisonCache::new(cfg.with_nominal(nominal)));
            let designs: Vec<(&str, Box<dyn DramCacheModel>)> = vec![
                ("alloy", Box::new(AlloyCache::new(AlloyConfig::new(size)))),
                (
                    "footprint",
                    Box::new(FootprintCache::new(
                        FootprintConfig::new(size).with_nominal(nominal),
                    )),
                ),
                ("unison", unison(UnisonConfig::new(size))),
                ("unison-1984", unison(UnisonConfig::large_pages(size))),
                ("unison-1way", unison(UnisonConfig::new(size).with_assoc(1))),
                (
                    "unison-32way",
                    unison(UnisonConfig::new(size).with_assoc(32)),
                ),
                ("ideal", Box::new(IdealCache::new(size))),
                ("nocache", Box::new(NoCache::new())),
            ];
            for (name, mut cache) in designs {
                let mut mem = MemPorts::paper_default();
                let mut t = 0u64;
                let addrs = [0, 64, size - 64, size, 3 * size + 4096, (1u64 << 46) - 64];
                for (i, &addr) in addrs.iter().enumerate() {
                    let req = Request {
                        core: (i % 16) as u8,
                        pc: 0x400,
                        addr,
                        is_write: i % 2 == 1,
                    };
                    for expect_hit in [false, true] {
                        let a = cache.access(t, &req, &mut mem);
                        assert!(a.critical_ps >= t, "{name} @ {size}: time ran backwards");
                        if expect_hit && name != "nocache" {
                            assert!(a.hit(), "{name} @ {size}: lost {addr:#x}");
                        }
                        t = a.done_ps;
                    }
                }
                let s = cache.stats();
                assert_eq!(s.accesses, 2 * addrs.len() as u64, "{name} @ {size}");
                assert_eq!(s.hits + s.misses(), s.accesses, "{name} @ {size}");
            }
        }
    }
}
