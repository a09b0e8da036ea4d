//! Ablation (§IV-C.1, Table V context): Unison Cache page size —
//! 960 B (15 blocks) vs 1984 B (31 blocks).
//!
//! The paper finds 960 B pages give better footprint accuracy on average
//! (and Footprint Cache cannot afford that granularity because its SRAM
//! tag array would double — Unison's in-DRAM tags make it free).

use serde::Serialize;
use unison_bench::table::{pct, speedup};
use unison_bench::{table5_grid, table5_size, BenchOpts, Table};
use unison_sim::Design;
use unison_trace::workloads;

#[derive(Serialize)]
struct Row {
    workload: String,
    miss_960: f64,
    miss_1984: f64,
    fp_acc_960: f64,
    fp_acc_1984: f64,
    speedup_960: f64,
    speedup_1984: f64,
}

fn main() {
    unison_bench::require_cpu_features();
    let opts = BenchOpts::from_args();
    opts.print_header("Ablation: Unison Cache page size, 960B vs 1984B");

    let grid = table5_grid([Design::Unison, Design::Unison1984]);
    let results = opts.campaign().run_speedups(&grid);

    let mut rows = Vec::new();
    let mut t = Table::new([
        "Workload",
        "miss% 960B",
        "miss% 1984B",
        "FP acc% 960B",
        "FP acc% 1984B",
        "speedup 960B",
        "speedup 1984B",
    ]);
    for w in workloads::all() {
        let size = table5_size(w.name);
        let a = results
            .get(w.name, &Design::Unison.name(), size)
            .expect("grid cell present");
        let b = results
            .get(w.name, &Design::Unison1984.name(), size)
            .expect("grid cell present");
        let (sa, sb) = (a.speedup.expect("speedup"), b.speedup.expect("speedup"));
        t.row([
            w.name.to_string(),
            pct(a.run.cache.miss_ratio()),
            pct(b.run.cache.miss_ratio()),
            pct(a.run.cache.fp_accuracy()),
            pct(b.run.cache.fp_accuracy()),
            speedup(sa),
            speedup(sb),
        ]);
        rows.push(Row {
            workload: w.name.to_string(),
            miss_960: a.run.cache.miss_ratio(),
            miss_1984: b.run.cache.miss_ratio(),
            fp_acc_960: a.run.cache.fp_accuracy(),
            fp_acc_1984: b.run.cache.fp_accuracy(),
            speedup_960: sa,
            speedup_1984: sb,
        });
    }
    t.print();
    println!("\npaper shape: 960B pages predict footprints better on average; the gap is");
    println!("             largest on low-spatial-locality workloads (Data Analytics).");
    opts.maybe_dump_json(&rows);
    opts.maybe_dump_csv(&results);
}
