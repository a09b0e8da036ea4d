//! Integration tests: the full trace → system → cache → DRAM pipeline.

use unison_repro::core::{
    AlloyCache, AlloyConfig, DramCacheModel, FootprintCache, FootprintConfig, IdealCache, MemPorts,
    NoCache, UnisonCache, UnisonConfig,
};
use unison_repro::sim::{run_experiment, run_speedup, Design, SimConfig};
use unison_repro::trace::workloads;

fn quick() -> SimConfig {
    SimConfig::quick_test()
}

#[test]
fn every_design_runs_every_workload() {
    let cfg = quick();
    for w in workloads::all() {
        for d in [
            Design::Alloy,
            Design::Footprint,
            Design::Unison,
            Design::Unison1984,
            Design::Ideal,
            Design::NoCache,
        ] {
            let r = run_experiment(d, 256 << 20, &w, &cfg);
            assert!(
                r.uipc > 0.0,
                "{} on {} produced no progress",
                d.name(),
                w.name
            );
            assert!(
                r.cache.miss_ratio() >= 0.0 && r.cache.miss_ratio() <= 1.0,
                "{} on {}: miss ratio out of range",
                d.name(),
                w.name
            );
        }
    }
}

#[test]
fn ideal_dominates_and_nocache_trails() {
    // Ideal must beat every real design; every real design with a
    // reasonable hit rate must beat no-cache (on a memory-bound load).
    let cfg = quick();
    let w = workloads::data_serving();
    let ideal = run_experiment(Design::Ideal, 1 << 30, &w, &cfg);
    let base = run_experiment(Design::NoCache, 0, &w, &cfg);
    for d in [Design::Footprint, Design::Unison] {
        let r = run_experiment(d, 1 << 30, &w, &cfg);
        assert!(
            r.uipc <= ideal.uipc * 1.02,
            "{} beat the ideal cache: {} vs {}",
            d.name(),
            r.uipc,
            ideal.uipc
        );
        assert!(
            r.uipc > base.uipc,
            "{} lost to no-cache on a cache-friendly load",
            d.name()
        );
    }
}

#[test]
fn page_based_designs_beat_alloy_on_miss_ratio() {
    // The paper's central premise (§II): spatial fetching buys hit rate.
    let cfg = quick();
    for w in [workloads::web_search(), workloads::data_serving()] {
        let ac = run_experiment(Design::Alloy, 512 << 20, &w, &cfg);
        let fc = run_experiment(Design::Footprint, 512 << 20, &w, &cfg);
        let uc = run_experiment(Design::Unison, 512 << 20, &w, &cfg);
        assert!(
            fc.cache.miss_ratio() < ac.cache.miss_ratio(),
            "{}: FC {} !< AC {}",
            w.name,
            fc.cache.miss_ratio(),
            ac.cache.miss_ratio()
        );
        assert!(
            uc.cache.miss_ratio() < ac.cache.miss_ratio(),
            "{}: UC {} !< AC {}",
            w.name,
            uc.cache.miss_ratio(),
            ac.cache.miss_ratio()
        );
    }
}

#[test]
fn miss_ratio_falls_with_cache_size() {
    let cfg = quick();
    let w = workloads::web_serving();
    let small = run_experiment(Design::Unison, 128 << 20, &w, &cfg);
    let large = run_experiment(Design::Unison, 1 << 30, &w, &cfg);
    assert!(
        large.cache.miss_ratio() < small.cache.miss_ratio(),
        "1GB ({}) should miss less than 128MB ({})",
        large.cache.miss_ratio(),
        small.cache.miss_ratio()
    );
}

#[test]
fn associativity_helps_page_based_unison() {
    // Figure 5's effect: 4-way cuts conflicts vs direct-mapped.
    let cfg = quick();
    let w = workloads::data_serving();
    let dm = run_experiment(Design::UnisonAssoc(1), 256 << 20, &w, &cfg);
    let w4 = run_experiment(Design::UnisonAssoc(4), 256 << 20, &w, &cfg);
    assert!(
        w4.cache.miss_ratio() < dm.cache.miss_ratio(),
        "4-way {} !< direct-mapped {}",
        w4.cache.miss_ratio(),
        dm.cache.miss_ratio()
    );
}

#[test]
fn speedups_are_computed_against_nocache() {
    let cfg = quick();
    let s = run_speedup(Design::NoCache, 0, &workloads::web_search(), &cfg);
    assert!(
        (s.speedup - 1.0).abs() < 1e-9,
        "no-cache speedup over itself must be exactly 1.0, got {}",
        s.speedup
    );
}

#[test]
fn runs_are_deterministic() {
    let cfg = quick();
    let a = run_experiment(Design::Unison, 256 << 20, &workloads::tpch(), &cfg);
    let b = run_experiment(Design::Unison, 256 << 20, &workloads::tpch(), &cfg);
    assert_eq!(
        a.cache, b.cache,
        "identical configs must give identical stats"
    );
    assert_eq!(a.elapsed_ps, b.elapsed_ps);
}

#[test]
fn different_seeds_change_results_but_not_shape() {
    let mut cfg = quick();
    let a = run_experiment(Design::Unison, 256 << 20, &workloads::web_serving(), &cfg);
    cfg.seed = 1234;
    let b = run_experiment(Design::Unison, 256 << 20, &workloads::web_serving(), &cfg);
    assert_ne!(a.cache, b.cache);
    assert!((a.cache.miss_ratio() - b.cache.miss_ratio()).abs() < 0.1);
}

#[test]
fn predictor_statistics_populate_per_design() {
    let cfg = quick();
    let w = workloads::web_serving();
    let ac = run_experiment(Design::Alloy, 256 << 20, &w, &cfg);
    assert!(
        ac.cache.mp_accuracy() > 0.0,
        "alloy must report MP accuracy"
    );
    assert_eq!(ac.cache.wp_lookups, 0, "alloy has no way predictor");
    let uc = run_experiment(Design::Unison, 256 << 20, &w, &cfg);
    assert!(
        uc.cache.wp_accuracy() > 0.0,
        "unison must report WP accuracy"
    );
    assert!(
        uc.cache.fp_accuracy() > 0.0,
        "unison must report FP accuracy"
    );
    let fc = run_experiment(Design::Footprint, 256 << 20, &w, &cfg);
    assert!(
        fc.cache.fp_accuracy() > 0.0,
        "footprint must report FP accuracy"
    );
    assert_eq!(fc.cache.wp_lookups, 0, "footprint has no way predictor");
}

#[test]
fn traffic_conservation_holds() {
    // Fills plus writebacks must match the off-chip byte counters.
    let cfg = quick();
    let r = run_experiment(
        Design::Unison,
        256 << 20,
        &workloads::software_testing(),
        &cfg,
    );
    let s = &r.cache;
    assert_eq!(
        s.offchip_read_bytes,
        (s.fill_blocks + s.singleton_bypasses) * 64,
        "off-chip reads must equal fills plus forwarded singleton blocks"
    );
    assert_eq!(
        s.offchip_write_bytes,
        s.writeback_blocks * 64,
        "off-chip writes must equal writebacks"
    );
}

#[test]
fn adversarial_all_conflict_trace_survives() {
    // Every request maps to the same Unison set: forced thrashing must
    // not panic, and the cache must still serve every request.
    let mut uc = UnisonCache::new(UnisonConfig::new(16 << 20));
    let sets = uc.num_sets();
    let mut mem = MemPorts::paper_default();
    let mut t = 0;
    for i in 0..2000u64 {
        let page = (i % 64) * sets; // 64 pages, one set
        let req = unison_repro::core::Request {
            core: (i % 16) as u8,
            pc: 0x400,
            addr: page * 960,
            is_write: i % 5 == 0,
        };
        let a = uc.access(t, &req, &mut mem);
        t = a.done_ps;
    }
    assert_eq!(uc.stats().accesses, 2000);
    assert!(uc.stats().evictions > 0);
}

#[test]
fn adversarial_zero_locality_trace_survives() {
    // Unique random-ish addresses: everything misses everywhere.
    let designs: Vec<Box<dyn DramCacheModel>> = vec![
        Box::new(AlloyCache::new(AlloyConfig::new(16 << 20))),
        Box::new(FootprintCache::new(FootprintConfig::new(16 << 20))),
        Box::new(UnisonCache::new(UnisonConfig::new(16 << 20))),
        Box::new(IdealCache::new(16 << 20)),
        Box::new(NoCache::new()),
    ];
    for mut cache in designs {
        let mut mem = MemPorts::paper_default();
        let mut t = 0;
        for i in 0..1000u64 {
            let req = unison_repro::core::Request {
                core: (i % 16) as u8,
                pc: i.wrapping_mul(0x9e37_79b9),
                addr: i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % (1 << 40),
                is_write: false,
            };
            let a = cache.access(t, &req, &mut mem);
            assert!(a.critical_ps >= t);
            t = a.done_ps.max(t);
        }
        assert_eq!(cache.stats().accesses, 1000);
    }
}
