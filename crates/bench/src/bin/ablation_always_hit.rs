//! Ablation (§III-A): "a static 'always-hit' prediction would achieve
//! accuracy similar to a dynamic hit prediction" for Unison Cache.
//!
//! Runs a MAP-I shadow predictor over Unison Cache's hit/miss stream and
//! compares its accuracy against the static always-hit policy (whose
//! accuracy equals the hit ratio). If the two are close, Alloy's miss
//! predictor buys nothing at Unison's hit rates — the paper's argument
//! for dropping it.
//!
//! The shadow-predictor cells are custom, so they run through the
//! harness's generic parallel map (one cell per workload).

use serde::Serialize;
use unison_bench::shadow::ShadowMissPredictor;
use unison_bench::table::pct;
use unison_bench::{table5_size, BenchOpts, Table};
use unison_core::{DramCacheModel, UnisonCache, UnisonConfig};
use unison_sim::System;
use unison_trace::{workloads, WorkloadGen, WorkloadSpec};

#[derive(Serialize)]
struct Row {
    workload: String,
    hit_ratio: f64,
    static_always_hit_accuracy: f64,
    dynamic_map_i_accuracy: f64,
}

fn run_cell(opts: &BenchOpts, w: &WorkloadSpec) -> Row {
    let nominal = table5_size(w.name);
    let scaled_cache = opts.cfg.scaled_cache_bytes(nominal);
    let cache = ShadowMissPredictor::new(UnisonCache::new(
        UnisonConfig::new(scaled_cache).with_nominal(nominal),
    ));
    let sys_spec = opts.cfg.system;
    let mut sys = System::new(
        sys_spec.resolved_cores(w) as usize,
        cache,
        sys_spec.mem_ports(),
        sys_spec.core,
    );
    let mut trace = WorkloadGen::new(
        sys_spec.effective_workload(w).scaled(opts.cfg.scale),
        opts.cfg.seed,
    );
    let total = opts.cfg.accesses_for(scaled_cache);
    let warm = (total as f64 * opts.cfg.warmup_fraction) as u64;
    sys.run(&mut trace, warm);
    sys.reset_measurement();
    sys.run(&mut trace, total - warm);
    let hit_ratio = 1.0 - sys.cache().stats().miss_ratio();
    let (cache, _) = sys.into_parts();
    Row {
        workload: w.name.to_string(),
        hit_ratio,
        static_always_hit_accuracy: hit_ratio,
        dynamic_map_i_accuracy: cache.shadow_accuracy(),
    }
}

fn main() {
    unison_bench::require_cpu_features();
    let opts = BenchOpts::from_args();
    opts.print_header("Ablation: static always-hit vs dynamic MAP-I prediction on Unison Cache");

    let cells: Vec<WorkloadSpec> = workloads::all().into_iter().collect();
    let rows = opts.campaign().map(&cells, |w| run_cell(&opts, w));

    let mut t = Table::new([
        "Workload",
        "UC hit ratio",
        "static accuracy",
        "dynamic MAP-I accuracy",
    ]);
    for r in &rows {
        t.row([
            r.workload.clone(),
            pct(r.hit_ratio),
            pct(r.static_always_hit_accuracy),
            pct(r.dynamic_map_i_accuracy),
        ]);
    }
    t.print();
    println!("\npaper claim: with ~90%+ hit ratios the static policy matches the dynamic");
    println!("             predictor, so Unison Cache needs no miss predictor.");
    opts.maybe_dump_json(&rows);
}
