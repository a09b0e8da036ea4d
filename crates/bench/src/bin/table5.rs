//! Table V: accuracy of all predictors — Alloy's miss predictor (MP),
//! the footprint predictor (FP) in Footprint and Unison Cache, and
//! Unison's way predictor (WP) — per workload, at 1 GB (8 GB for TPC-H).

use serde::Serialize;
use unison_bench::table::pct;
use unison_bench::{table5_grid, table5_size, BenchOpts, Table};
use unison_sim::Design;
use unison_trace::workloads;

#[derive(Serialize)]
struct Row {
    workload: String,
    mp_accuracy: f64,
    mp_overfetch: f64,
    fc_fp_accuracy: f64,
    fc_fp_overfetch: f64,
    uc960_fp_accuracy: f64,
    uc960_fp_overfetch: f64,
    uc960_wp_accuracy: f64,
    uc1984_fp_accuracy: f64,
    uc1984_fp_overfetch: f64,
    uc1984_wp_accuracy: f64,
}

fn main() {
    unison_bench::require_cpu_features();
    let opts = BenchOpts::from_args();
    opts.print_header("Table V: predictor accuracy @ 1GB (8GB for TPC-H)");

    let grid = table5_grid([
        Design::Alloy,
        Design::Footprint,
        Design::Unison,
        Design::Unison1984,
    ]);
    let results = opts.campaign().run(&grid);

    let mut rows = Vec::new();
    for w in workloads::all() {
        let size = table5_size(w.name);
        let stats = |design: Design| {
            results
                .get(w.name, &design.name(), size)
                .expect("grid cell present")
                .run
                .cache
        };
        let ac = stats(Design::Alloy);
        let fc = stats(Design::Footprint);
        let uc = stats(Design::Unison);
        let uc2 = stats(Design::Unison1984);
        rows.push(Row {
            workload: w.name.to_string(),
            mp_accuracy: ac.mp_accuracy(),
            mp_overfetch: ac.mp_overfetch(),
            fc_fp_accuracy: fc.fp_accuracy(),
            fc_fp_overfetch: fc.fp_overfetch(),
            uc960_fp_accuracy: uc.fp_accuracy(),
            uc960_fp_overfetch: uc.fp_overfetch(),
            uc960_wp_accuracy: uc.wp_accuracy(),
            uc1984_fp_accuracy: uc2.fp_accuracy(),
            uc1984_fp_overfetch: uc2.fp_overfetch(),
            uc1984_wp_accuracy: uc2.wp_accuracy(),
        });
    }

    let avg = |f: fn(&Row) -> f64| rows.iter().map(f).sum::<f64>() / rows.len() as f64;

    let mut t = Table::new([
        "Predictor",
        "Data Analytics",
        "Data Serving",
        "Software Testing",
        "Web Search",
        "Web Serving",
        "TPC-H",
        "Average",
    ]);
    let metric = |label: &str, f: fn(&Row) -> f64, t: &mut Table, avg_v: f64| {
        let mut cells = vec![label.to_string()];
        cells.extend(rows.iter().map(|r| pct(f(r))));
        cells.push(pct(avg_v));
        t.row(cells);
    };
    metric(
        "Alloy MP Accuracy (%)",
        |r| r.mp_accuracy,
        &mut t,
        avg(|r| r.mp_accuracy),
    );
    metric(
        "Alloy MP Overfetch (%)",
        |r| r.mp_overfetch,
        &mut t,
        avg(|r| r.mp_overfetch),
    );
    metric(
        "FC FP Accuracy (%)",
        |r| r.fc_fp_accuracy,
        &mut t,
        avg(|r| r.fc_fp_accuracy),
    );
    metric(
        "FC FP Overfetch (%)",
        |r| r.fc_fp_overfetch,
        &mut t,
        avg(|r| r.fc_fp_overfetch),
    );
    metric(
        "UC-960B FP Accuracy (%)",
        |r| r.uc960_fp_accuracy,
        &mut t,
        avg(|r| r.uc960_fp_accuracy),
    );
    metric(
        "UC-960B FP Overfetch (%)",
        |r| r.uc960_fp_overfetch,
        &mut t,
        avg(|r| r.uc960_fp_overfetch),
    );
    metric(
        "UC-960B WP Accuracy (%)",
        |r| r.uc960_wp_accuracy,
        &mut t,
        avg(|r| r.uc960_wp_accuracy),
    );
    metric(
        "UC-1984B FP Accuracy (%)",
        |r| r.uc1984_fp_accuracy,
        &mut t,
        avg(|r| r.uc1984_fp_accuracy),
    );
    metric(
        "UC-1984B FP Overfetch (%)",
        |r| r.uc1984_fp_overfetch,
        &mut t,
        avg(|r| r.uc1984_fp_overfetch),
    );
    metric(
        "UC-1984B WP Accuracy (%)",
        |r| r.uc1984_wp_accuracy,
        &mut t,
        avg(|r| r.uc1984_wp_accuracy),
    );
    t.print();

    opts.maybe_dump_json(&rows);
    opts.maybe_dump_csv(&results);
}
