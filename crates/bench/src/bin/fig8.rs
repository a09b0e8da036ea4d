//! Figure 8: performance comparison for TPC-H queries with 1–8 GB
//! caches — the realistic multi-gigabyte scenario where Footprint
//! Cache's SRAM tag array stops being buildable and its latency erases
//! its hit-ratio advantage.

use serde::Serialize;
use unison_bench::table::speedup;
use unison_bench::{BenchOpts, Table, TPCH_SIZES};
use unison_harness::ScenarioGrid;
use unison_sim::Design;
use unison_trace::workloads;

#[derive(Serialize)]
struct Point {
    design: String,
    cache_bytes: u64,
    speedup: f64,
    miss_ratio: f64,
}

fn main() {
    unison_bench::require_cpu_features();
    let opts = BenchOpts::from_args();
    opts.print_header("Figure 8: speedup over no-DRAM-cache baseline (TPC-H, 1-8GB)");

    let designs = [
        Design::Alloy,
        Design::Footprint,
        Design::Unison,
        Design::Ideal,
    ];
    let grid = ScenarioGrid::new()
        .designs(designs)
        .workload(workloads::tpch())
        .sizes(TPCH_SIZES);
    let results = opts.campaign().run_speedups(&grid);

    let mut points = Vec::new();
    let mut t = Table::new(["Design", "1GB", "2GB", "4GB", "8GB"]);
    for d in designs {
        let mut cells = vec![d.name()];
        for &size in &TPCH_SIZES {
            let cell = results
                .get("TPC-H", &d.name(), size)
                .expect("grid cell present");
            let s = cell.speedup.expect("speedup campaign");
            cells.push(speedup(s));
            points.push(Point {
                design: d.name(),
                cache_bytes: size,
                speedup: s,
                miss_ratio: cell.run.cache.miss_ratio(),
            });
        }
        t.row(cells);
    }
    t.print();
    println!("\npaper shape: Unison above Footprint at every size (FC's 25-48-cycle tag");
    println!("             latency); Alloy improves steadily but stays capped by hit ratio;");
    println!("             note FC above 256-512MB is hypothetical (50MB SRAM tags @8GB).");

    opts.maybe_dump_json(&points);
    opts.maybe_dump_csv(&results);
}
