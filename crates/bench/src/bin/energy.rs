//! Section V.D energy analysis: row activations and dynamic DRAM energy.
//!
//! The paper's argument: row activations are the most energy-demanding
//! DRAM operations, and because Footprint/Unison transfer data at
//! footprint granularity (many blocks per activated row) while Alloy
//! moves isolated blocks, the page-based designs cut activations per
//! useful block by roughly an order of magnitude on the off-chip side.

use serde::Serialize;
use unison_bench::table::{pct, size_label};
use unison_bench::{table5_grid, table5_size, BenchOpts, Table};
use unison_dram::EnergyParams;
use unison_sim::Design;
use unison_trace::workloads;

#[derive(Serialize)]
struct Row {
    workload: String,
    design: String,
    cache_bytes: u64,
    offchip_acts_per_ki: f64,
    stacked_acts_per_ki: f64,
    offchip_blocks_per_act: f64,
    dyn_energy_mj: f64,
    offchip_row_hit_rate: f64,
}

fn main() {
    unison_bench::require_cpu_features();
    let opts = BenchOpts::from_args();
    opts.print_header("Section V.D: DRAM row activations and dynamic energy");

    let designs = [
        Design::Alloy,
        Design::Footprint,
        Design::Unison,
        Design::NoCache,
    ];
    let grid = table5_grid(designs);
    let results = opts.campaign().run(&grid);

    let mut rows = Vec::new();
    for w in workloads::all() {
        let size = table5_size(w.name);
        println!("-- {} @ {} --", w.name, size_label(size));
        let mut t = Table::new([
            "Design",
            "offchip ACT/KI",
            "stacked ACT/KI",
            "offchip blocks/ACT",
            "offchip row-hit %",
            "dyn energy (mJ)",
        ]);
        for d in designs {
            let r = &results
                .get(w.name, &d.name(), size)
                .expect("grid cell present")
                .run;
            let ki = r.instructions as f64 / 1000.0;
            let off_acts = r.offchip_energy.activations as f64;
            let st_acts = r.stacked_energy.activations as f64;
            let off_blocks =
                (r.offchip_energy.bytes_read + r.offchip_energy.bytes_written) as f64 / 64.0;
            let dyn_mj = r.offchip_energy.breakdown(&EnergyParams::ddr3()).total_mj()
                + r.stacked_energy
                    .breakdown(&EnergyParams::stacked())
                    .total_mj();
            let off_row_hits = r.offchip.row_hits as f64
                / (r.offchip.row_hits + r.offchip.row_empty + r.offchip.row_conflicts).max(1)
                    as f64;
            t.row([
                d.name(),
                format!("{:.2}", off_acts / ki),
                format!("{:.2}", st_acts / ki),
                format!("{:.1}", off_blocks / off_acts.max(1.0)),
                pct(off_row_hits),
                format!("{dyn_mj:.2}"),
            ]);
            rows.push(Row {
                workload: w.name.to_string(),
                design: d.name(),
                cache_bytes: size,
                offchip_acts_per_ki: off_acts / ki,
                stacked_acts_per_ki: st_acts / ki,
                offchip_blocks_per_act: off_blocks / off_acts.max(1.0),
                dyn_energy_mj: dyn_mj,
                offchip_row_hit_rate: off_row_hits,
            });
        }
        t.print();
        println!();
    }
    println!("paper shape: Footprint/Unison move ~a footprint (~10 blocks) per off-chip row");
    println!("             activation where Alloy moves ~1, cutting activation energy; both");
    println!("             also cut total off-chip traffic vs the uncached baseline.");

    opts.maybe_dump_json(&rows);
    opts.maybe_dump_csv(&results);
}
