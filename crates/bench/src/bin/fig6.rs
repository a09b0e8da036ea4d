//! Figure 6: miss ratio comparison of Alloy, Footprint, and Unison
//! Caches across cache sizes (128 MB–1 GB CloudSuite; 1–8 GB TPC-H).

use serde::Serialize;
use unison_bench::table::{pct, size_label};
use unison_bench::{BenchOpts, Table, CLOUD_SIZES, TPCH_SIZES};
use unison_harness::ScenarioGrid;
use unison_sim::Design;
use unison_trace::workloads;

#[derive(Serialize)]
struct Point {
    workload: String,
    design: String,
    cache_bytes: u64,
    miss_ratio: f64,
}

fn main() {
    unison_bench::require_cpu_features();
    let opts = BenchOpts::from_args();
    opts.print_header("Figure 6: DRAM cache miss ratio, Alloy vs Footprint vs Unison");

    let designs = [Design::Alloy, Design::Footprint, Design::Unison];
    let grid = ScenarioGrid::new()
        .designs(designs)
        .workloads(workloads::all())
        .sizes(CLOUD_SIZES)
        .sizes_for("TPC-H", TPCH_SIZES);
    let results = opts.campaign().run(&grid);

    let mut points = Vec::new();
    for w in workloads::all() {
        let sizes = grid.sizes_of(w.name);
        let mut t = Table::new(["Design", "128MB/1GB", "256MB/2GB", "512MB/4GB", "1GB/8GB"]);
        println!("-- {} --", w.name);
        for d in designs {
            let mut cells = vec![d.name()];
            for &size in sizes {
                let cell = results
                    .get(w.name, &d.name(), size)
                    .expect("grid cell present");
                let miss = cell.run.cache.miss_ratio();
                cells.push(pct(miss));
                points.push(Point {
                    workload: w.name.to_string(),
                    design: d.name(),
                    cache_bytes: size,
                    miss_ratio: miss,
                });
            }
            t.row(cells);
        }
        t.print();
        println!(
            "  (sizes: {})\n",
            sizes
                .iter()
                .map(|&s| size_label(s))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    println!("paper shape: Alloy far above Footprint/Unison everywhere (smallest gap on Data");
    println!("             Analytics); Footprint and Unison close; all fall with cache size;");
    println!("             TPC-H needs multi-GB caches before Alloy sees real hit rates.");

    opts.maybe_dump_json(&points);
    opts.maybe_dump_csv(&results);
}
