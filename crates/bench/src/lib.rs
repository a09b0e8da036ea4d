//! Experiment binaries regenerating every table and figure of the
//! paper's evaluation (see README/DESIGN for the experiment index).
//!
//! Each binary **declares** its experiment grid and renders tables from
//! the results; execution — parallel workers, memoized NoCache
//! baselines, structured sinks — is `unison_harness`'s job. Shared
//! flags:
//!
//! * `--scale N` — divide cache sizes *and* workload footprints by `N`
//!   (default 8; shapes are preserved, see `unison_sim::SimConfig`);
//! * `--accesses N` — trace-length floor per run;
//! * `--seed N` — workload seed;
//! * `--threads N` — worker-pool width (default: all hardware threads;
//!   `1` reproduces the historical serial behaviour);
//! * `--json PATH` — also dump machine-readable results;
//! * `--csv PATH` — also dump the campaign's flat per-cell CSV;
//! * `--journal PATH` — checkpoint completed cells to an append-only
//!   JSONL file; `--resume` restores them instead of re-simulating
//!   (bit-identical to an uninterrupted run). Applies to grid campaigns;
//!   the two `Campaign::map`-based ablations (`ablation_waypred`,
//!   `ablation_always_hit`) run custom cells and do not checkpoint;
//! * `--quick` — tiny sizes for smoke runs (used by `cargo bench`).
//!
//! Binaries: `table2`, `table4`, `table5`, `fig5`, `fig6`, `fig7`,
//! `fig8`, `energy`, `ablation_waypred`, `ablation_always_hit`,
//! `ablation_pagesize`, and `sweep` (run an arbitrary user-specified
//! grid in one command; `--shard I/N` / `--merge` split one campaign
//! across processes, `--list` prints every valid axis spelling).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod opts;
pub mod shadow;
pub mod table;

pub use opts::BenchOpts;
pub use table::Table;

/// The first CPU feature this build relies on that the host lacks, if
/// any.
///
/// `.cargo/config.toml` builds for `x86-64-v3`, so any code may use
/// AVX2, BMI1/2, FMA, LZCNT, MOVBE or F16C instructions, and a host
/// without one of them dies with SIGILL and no message. The features
/// are read from CPUID: `is_x86_feature_detected!` folds to `true` for
/// every feature a build enables, so in this build it cannot report one
/// missing.
pub fn missing_cpu_feature() -> Option<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaves 1 and 0x8000_0001 exist on every x86-64 CPU; leaf 7 only
        // where leaf 0 reports it.
        let basic = __cpuid(1).ecx;
        let structured = if __cpuid(0).eax >= 7 {
            __cpuid(7).ebx
        } else {
            0
        };
        let extended = __cpuid(0x8000_0001).ecx;
        [
            ("avx2", structured, 5),
            ("bmi1", structured, 3),
            ("bmi2", structured, 8),
            ("fma", basic, 12),
            ("lzcnt", extended, 5),
            ("movbe", basic, 22),
            ("f16c", basic, 29),
        ]
        .into_iter()
        .find(|&(_, register, bit)| register >> bit & 1 == 0)
        .map(|(feature, ..)| feature)
    }
    #[cfg(not(target_arch = "x86_64"))]
    None
}

/// Exits with status 2 and a one-line error naming the missing feature
/// when [`missing_cpu_feature`] finds one. Every binary calls this
/// first, so an older CPU gets a message instead of SIGILL.
pub fn require_cpu_features() {
    if let Some(feature) = missing_cpu_feature() {
        eprintln!(
            "error: this CPU lacks {feature}, which the x86-64-v3 target in \
             .cargo/config.toml requires; remove that rustflag and rebuild to run here"
        );
        std::process::exit(2);
    }
}

/// Nominal cache sizes of the CloudSuite sweeps (Figures 5–7).
pub const CLOUD_SIZES: [u64; 4] = [128 << 20, 256 << 20, 512 << 20, 1024 << 20];

/// Nominal cache sizes of the TPC-H sweeps (Figures 6 and 8).
pub const TPCH_SIZES: [u64; 4] = [1 << 30, 2 << 30, 4 << 30, 8 << 30];

/// The nominal size Table V reports: 1 GB (8 GB for TPC-H).
pub fn table5_size(workload: &str) -> u64 {
    if workload == "TPC-H" {
        8 << 30
    } else {
        1 << 30
    }
}

/// Grid over all workloads at their Table V size — the shape shared by
/// `table5`, `energy`, `ablation_pagesize`, and the smoke digest. The
/// size axis is driven by [`table5_size`], so declaration and lookup
/// cannot diverge.
pub fn table5_grid(
    designs: impl IntoIterator<Item = unison_sim::Design>,
) -> unison_harness::ScenarioGrid {
    let workloads = unison_trace::workloads::all();
    let mut grid = unison_harness::ScenarioGrid::new()
        .designs(designs)
        .workloads(workloads.clone());
    for w in &workloads {
        grid = grid.sizes_for(w.name, [table5_size(w.name)]);
    }
    grid
}

#[cfg(test)]
mod tests {
    #[test]
    fn build_host_has_every_cpu_feature_the_build_targets() {
        assert_eq!(super::missing_cpu_feature(), None);
    }
}
