//! Table II: comparison of key characteristics of the three DRAM cache
//! schemes (computed from the layout models, not hard-coded).
//!
//! Pass `--features` to also print the qualitative Table I matrix.

use unison_bench::table::size_label;
use unison_bench::Table;
use unison_core::layout::{AlloyRowLayout, FcTagModel, UnisonRowLayout};
use unison_predictors::{FootprintTable, MissPredictor, SingletonTable, WayPredictor};

fn main() {
    unison_bench::require_cpu_features();
    let features = std::env::args().any(|a| a == "--features");
    println!("== Table II: key characteristics @ 8GB stacked DRAM ==\n");

    const GB8: u64 = 8 << 30;
    let alloy = AlloyRowLayout::paper();
    let uc960 = UnisonRowLayout::new(15, 4);
    let uc1984 = UnisonRowLayout::new(31, 4);
    let fc = FcTagModel::for_cache_size(GB8);

    let mp = MissPredictor::paper_default();
    let wp_small = WayPredictor::for_cache_size(1 << 30, 4);
    let wp_large = WayPredictor::for_cache_size(GB8, 4);
    let ft = FootprintTable::paper_default(15);
    let st = SingletonTable::paper_default();

    let mut t = Table::new([
        "Characteristic",
        "Alloy Cache",
        "Footprint Cache",
        "Unison Cache",
    ]);
    t.row([
        "Associativity".to_string(),
        "direct-mapped".to_string(),
        "32-way".to_string(),
        "4-way".to_string(),
    ]);
    t.row([
        "64B blocks per 8KB row".to_string(),
        alloy.tads_per_row.to_string(),
        "128".to_string(),
        format!("{}-{}", uc960.blocks_per_row, uc1984.blocks_per_row),
    ]);
    t.row([
        "SRAM tag array @ 8GB".to_string(),
        "-".to_string(),
        format!("~{:.0}MB", fc.tag_mb),
        "-".to_string(),
    ]);
    let a_tags = alloy.in_dram_tag_bytes(GB8);
    let u_tags_lo = uc1984.in_dram_tag_bytes(GB8);
    let u_tags_hi = uc960.in_dram_tag_bytes(GB8);
    t.row([
        "In-DRAM tag size @ 8GB".to_string(),
        format!(
            "{} ({:.1}% of DRAM)",
            size_label(a_tags),
            a_tags as f64 / GB8 as f64 * 100.0
        ),
        "-".to_string(),
        format!(
            "{}-{}MB ({:.1}-{:.1}%)",
            u_tags_lo >> 20,
            u_tags_hi >> 20,
            u_tags_lo as f64 / GB8 as f64 * 100.0,
            u_tags_hi as f64 / GB8 as f64 * 100.0
        ),
    ]);
    t.row([
        "Miss-predictor size".to_string(),
        format!(
            "{}B total ({}B/core x16)",
            mp.storage_bytes(),
            mp.storage_bytes() / 16
        ),
        "-".to_string(),
        "-".to_string(),
    ]);
    t.row([
        "Way predictor".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!(
            "{}-{}KB",
            wp_small.storage_bytes() / 1024,
            wp_large.storage_bytes() / 1024
        ),
    ]);
    t.row([
        "Footprint history table".to_string(),
        "-".to_string(),
        format!("{}KB", ft.storage_bytes() / 1024),
        format!("{}KB", ft.storage_bytes() / 1024),
    ]);
    t.row([
        "Singleton table".to_string(),
        "-".to_string(),
        format!("{}KB", st.storage_bytes() / 1024),
        format!("{}KB", st.storage_bytes() / 1024),
    ]);
    t.row([
        "Hit latency".to_string(),
        "predictor + DRAM TAD read".to_string(),
        format!("SRAM tag ({} cy @8GB) + DRAM read", fc.latency_cycles),
        "overlapped DRAM tag + data reads".to_string(),
    ]);
    t.row([
        "Miss latency".to_string(),
        "predictor lookup".to_string(),
        "SRAM tag lookup".to_string(),
        "DRAM tag lookup".to_string(),
    ]);
    t.print();

    if features {
        println!("\n== Table I: qualitative comparison ==\n");
        let mut f = Table::new(["Property", "AC", "FC", "UC"]);
        f.row(["No SRAM tag overhead", "yes", "no", "yes"]);
        f.row(["Low hit latency", "yes", "no", "yes"]);
        f.row(["High hit rate", "no", "yes", "yes"]);
        f.row(["High effective capacity", "no", "no", "yes"]);
        f.row(["Scalability", "yes", "no", "yes"]);
        f.print();
    }
}
