//! Ablation (§III-A.5/6, §V.B): what way prediction buys Unison Cache.
//!
//! Compares the paper's predicted-way design against the two rejected
//! alternatives — fetching all ways in parallel (bandwidth) and
//! serializing tags before data (latency). The paper quantifies the win
//! as ~12 cycles of hit latency (20%) and a 4x reduction in hit traffic.
//!
//! The cells are custom (a `WayPolicy` is not a [`unison_sim::Design`]),
//! so they run through the harness's generic parallel map rather than an
//! [`ScenarioGrid`]: declared up front, executed concurrently, rendered
//! in declaration order.

use serde::Serialize;
use unison_bench::{BenchOpts, Table};
use unison_core::unison::WayPolicy;
use unison_core::{DramCacheModel, UnisonCache, UnisonConfig};
use unison_sim::System;
use unison_trace::{workloads, WorkloadGen, WorkloadSpec};

#[derive(Serialize)]
struct Row {
    policy: String,
    workload: String,
    mean_latency_cycles: f64,
    stacked_read_bytes_per_access: f64,
    uipc: f64,
}

const POLICIES: [(WayPolicy, &str); 3] = [
    (WayPolicy::Predict, "Predict (paper)"),
    (WayPolicy::ParallelFetch, "Fetch all ways"),
    (WayPolicy::SerialTagData, "Serialize tag->data"),
];

fn run_cell(opts: &BenchOpts, w: &WorkloadSpec, policy: WayPolicy, label: &str) -> Row {
    let scaled_cache = opts.cfg.scaled_cache_bytes(1 << 30);
    let cache = UnisonCache::new(
        UnisonConfig::new(scaled_cache)
            .with_way_policy(policy)
            .with_nominal(1 << 30),
    );
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
    let before = sys.progress();
    sys.reset_measurement();
    sys.run(&mut trace, total - warm);
    let after = sys.progress();
    let stats = *sys.cache().stats();
    let lat_cy = stats.mean_latency_ps() * 3.0 / 1000.0;
    let rd_per_acc = stats.stacked_read_bytes as f64 / stats.accesses.max(1) as f64;
    let instr = after.instructions - before.instructions;
    let cyc = (after.elapsed_ps - before.elapsed_ps).max(1) as f64 * 3.0 / 1000.0;
    Row {
        policy: label.to_string(),
        workload: w.name.to_string(),
        mean_latency_cycles: lat_cy,
        stacked_read_bytes_per_access: rd_per_acc,
        uipc: instr as f64 / cyc,
    }
}

fn main() {
    unison_bench::require_cpu_features();
    let opts = BenchOpts::from_args();
    opts.print_header("Ablation: Unison Cache way-location policy (1GB, 960B pages, 4-way)");

    // Declare the (workload x policy) cells, then execute in parallel.
    let specs = [workloads::web_search(), workloads::data_serving()];
    let cells: Vec<(WorkloadSpec, WayPolicy, &str)> = specs
        .iter()
        .flat_map(|w| POLICIES.map(|(p, label)| (w.clone(), p, label)))
        .collect();
    let rows = opts.campaign().map(&cells, |(w, policy, label)| {
        run_cell(&opts, w, *policy, label)
    });

    for w in &specs {
        println!("-- {} --", w.name);
        let mut t = Table::new(["Policy", "mean latency (cy)", "stacked rd B/access", "UIPC"]);
        for r in rows.iter().filter(|r| r.workload == w.name) {
            t.row([
                r.policy.clone(),
                format!("{:.1}", r.mean_latency_cycles),
                format!("{:.1}", r.stacked_read_bytes_per_access),
                format!("{:.2}", r.uipc),
            ]);
        }
        t.print();
        println!();
    }
    println!("paper claims: prediction avoids ~12 cycles (serialization) and ~4x hit traffic");
    println!("              (parallel fetch of all four ways).");
    opts.maybe_dump_json(&rows);
}
