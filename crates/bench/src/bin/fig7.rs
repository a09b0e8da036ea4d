//! Figure 7: performance (speedup over the no-DRAM-cache baseline) of
//! Alloy, Footprint, Unison, and the Ideal cache for the five CloudSuite
//! workloads across 128 MB–1 GB, plus the geometric mean.
//!
//! The grid is declared once and executed by the harness: independent
//! cells run in parallel and the NoCache baseline is simulated exactly
//! once per workload (not once per design×size as the old serial loop
//! risked).

use serde::Serialize;
use unison_bench::table::{size_label, speedup};
use unison_bench::{BenchOpts, Table, CLOUD_SIZES};
use unison_harness::ScenarioGrid;
use unison_sim::Design;
use unison_trace::workloads;

#[derive(Serialize)]
struct Point {
    workload: String,
    design: String,
    cache_bytes: u64,
    speedup: f64,
}

fn main() {
    unison_bench::require_cpu_features();
    let opts = BenchOpts::from_args();
    opts.print_header("Figure 7: speedup over no-DRAM-cache baseline (CloudSuite)");

    let designs = [
        Design::Alloy,
        Design::Footprint,
        Design::Unison,
        Design::Ideal,
    ];
    let grid = ScenarioGrid::new()
        .designs(designs)
        .workloads(workloads::cloudsuite())
        .sizes(CLOUD_SIZES);
    let results = opts.campaign().run_speedups(&grid);

    let mut points: Vec<Point> = Vec::new();
    for w in workloads::cloudsuite() {
        let mut t = Table::new(["Design", "128MB", "256MB", "512MB", "1024MB"]);
        println!("-- {} --", w.name);
        for d in designs {
            let mut cells = vec![d.name()];
            for &size in &CLOUD_SIZES {
                let cell = results
                    .get(w.name, &d.name(), size)
                    .expect("grid cell present");
                let s = cell.speedup.expect("speedup campaign");
                cells.push(speedup(s));
                points.push(Point {
                    workload: w.name.to_string(),
                    design: d.name(),
                    cache_bytes: size,
                    speedup: s,
                });
            }
            t.row(cells);
        }
        t.print();
        println!();
    }

    // Geometric mean across workloads, per design and size.
    println!("-- Geometric Mean --");
    let mut t = Table::new(["Design", "128MB", "256MB", "512MB", "1024MB"]);
    for d in designs {
        let mut cells = vec![d.name()];
        for &size in &CLOUD_SIZES {
            let gm = results
                .geomean_speedup(&d.name(), size)
                .expect("non-empty speedup set");
            cells.push(speedup(gm));
        }
        t.row(cells);
    }
    t.print();
    println!(
        "\n(sizes: {})",
        CLOUD_SIZES
            .iter()
            .map(|&s| size_label(s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "(baselines: {} simulated, {} served from the memo cache)",
        results.baseline_runs, results.baseline_hits
    );
    println!("paper shape: Footprint leads at small sizes; Unison catches up and overtakes as");
    println!("             size grows (FC tag latency); all below Ideal; Data Serving largest.");

    opts.maybe_dump_json(&points);
    opts.maybe_dump_csv(&results);
}
