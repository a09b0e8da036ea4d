//! Figure 5: Unison Cache miss ratio as a function of associativity
//! (1-way / 4-way / 32-way), at a small and a large cache size per
//! workload (128 MB and 1 GB; 1 GB and 8 GB for TPC-H).

use serde::Serialize;
use unison_bench::table::{pct, size_label};
use unison_bench::{BenchOpts, Table};
use unison_harness::ScenarioGrid;
use unison_sim::Design;
use unison_trace::workloads;

const ASSOCS: [u32; 3] = [1, 4, 32];

#[derive(Serialize)]
struct Point {
    workload: String,
    cache_bytes: u64,
    assoc: u32,
    miss_ratio: f64,
}

fn main() {
    unison_bench::require_cpu_features();
    let opts = BenchOpts::from_args();
    opts.print_header("Figure 5: Unison Cache miss ratio vs associativity (960B pages)");

    let grid = ScenarioGrid::new()
        .designs(ASSOCS.map(Design::UnisonAssoc))
        .workloads(workloads::all())
        .sizes([128 << 20, 1 << 30])
        .sizes_for("TPC-H", [1 << 30, 8u64 << 30]);
    let results = opts.campaign().run(&grid);

    let mut points = Vec::new();
    let mut t = Table::new(["Workload", "Size", "1-way", "4-way", "32-way", "4-way gain"]);
    for w in workloads::all() {
        for &size in grid.sizes_of(w.name) {
            let ratios: Vec<f64> = ASSOCS
                .iter()
                .map(|&assoc| {
                    let cell = results
                        .get(w.name, &Design::UnisonAssoc(assoc).name(), size)
                        .expect("grid cell present");
                    let miss = cell.run.cache.miss_ratio();
                    points.push(Point {
                        workload: w.name.to_string(),
                        cache_bytes: size,
                        assoc,
                        miss_ratio: miss,
                    });
                    miss
                })
                .collect();
            t.row([
                w.name.to_string(),
                size_label(size),
                pct(ratios[0]),
                pct(ratios[1]),
                pct(ratios[2]),
                format!("{:.2}x", ratios[0] / ratios[1].max(1e-9)),
            ]);
        }
    }
    t.print();
    println!("\npaper shape: 4-way cuts the direct-mapped miss ratio substantially (up to >2x);");
    println!("             32-way adds little beyond 4-way (paper: 'no significant reduction').");

    opts.maybe_dump_json(&points);
    opts.maybe_dump_csv(&results);
}
