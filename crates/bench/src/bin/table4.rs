//! Table IV: Footprint Cache SRAM tag-array size and lookup latency as a
//! function of cache size — the scalability wall Unison Cache removes.

use unison_bench::table::size_label;
use unison_bench::Table;
use unison_core::layout::FcTagModel;

fn main() {
    unison_bench::require_cpu_features();
    println!("== Table IV: Footprint Cache tag parameters ==\n");
    const MB: u64 = 1 << 20;
    let sizes = [
        128 * MB,
        256 * MB,
        512 * MB,
        1024 * MB,
        2048 * MB,
        4096 * MB,
        8192 * MB,
    ];
    let mut t = Table::new(["Cache size", "Tags (MB)", "Latency (cycles)"]);
    for s in sizes {
        let m = FcTagModel::for_cache_size(s);
        t.row([
            size_label(s),
            format!("{:.2}", m.tag_mb),
            m.latency_cycles.to_string(),
        ]);
    }
    t.print();
    println!("\npaper row:    0.8  1.58  3.12  6.2  12.5  25  50   (MB)");
    println!("paper row:    6    9     11    16   25    36  48   (cycles)");
}
