//! The benchmark's two workloads: fixed campaign grids at the
//! headline 1/16 scale (see the crate documentation for why each one
//! exists).

use std::path::Path;

use unison_harness::ScenarioGrid;
use unison_sim::{Design, SimConfig};
use unison_trace::{workloads, WorkloadSpec};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["fig7-campaign", "dram-stream"];

/// Footprints and cache sizes are divided by this (the headline scale).
const SCALE: u64 = 16;
/// Floor on trace records per simulation (warmup + measurement). The
/// runner raises it to 1.57 M at 512 MB, to fill the scaled cache twice
/// over: a quarter of the `bench-report` headline's 6 M, so a run
/// repeats each grid more often on a noisy host.
const ACCESSES: u64 = 1_500_000;

/// Every design the traced ledger times on each workload, so each
/// workload reports the same per-layer metric names. Designs outside a
/// workload's grid run only in its traced run.
pub const LEDGER_DESIGNS: [Design; 6] = [
    Design::Alloy,
    Design::Footprint,
    Design::Unison,
    Design::UnisonAssoc(32),
    Design::Ideal,
    Design::NoCache,
];

/// The name a design takes inside metric names (`unison-32way`).
pub fn metric_key(design: Design) -> String {
    design.name().to_ascii_lowercase()
}

/// One benchmark workload: a campaign grid and how it runs.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Designs of the grid, in grid order.
    pub designs: Vec<Design>,
    /// Trace workloads of the grid, in grid order.
    pub specs: Vec<WorkloadSpec>,
    /// Nominal cache size of every cell, in bytes.
    pub size: u64,
    /// Whether the campaign computes speedups over memoized NoCache
    /// baselines (`Campaign::run_speedups`) or runs plain cells
    /// (`Campaign::run`).
    pub speedups: bool,
    /// Worker threads: the grid's width, never more than the host has.
    pub threads: usize,
}

impl Workload {
    /// The workload called `name`, with threads capped at `nproc`.
    pub fn by_name(name: &str, nproc: usize) -> Option<Workload> {
        let (designs, specs, size, speedups, threads) = match name {
            "fig7-campaign" => (
                vec![
                    Design::Alloy,
                    Design::Footprint,
                    Design::Unison,
                    Design::Ideal,
                ],
                vec![workloads::web_search(), workloads::tpch()],
                512 << 20,
                true,
                2,
            ),
            "dram-stream" => (
                vec![Design::NoCache, Design::Ideal],
                vec![workloads::tpch(), workloads::data_analytics()],
                512 << 20,
                false,
                1,
            ),
            _ => return None,
        };
        Some(Workload {
            name: NAMES.into_iter().find(|n| *n == name)?,
            designs,
            specs,
            size,
            speedups,
            threads: threads.min(nproc.max(1)),
        })
    }

    /// The simulation configuration every cell runs under.
    pub fn cfg(&self, seed: u64) -> SimConfig {
        SimConfig {
            accesses: ACCESSES,
            scale: SCALE,
            seed,
            ..SimConfig::bench_default()
        }
    }

    /// The campaign grid.
    pub fn grid(&self) -> ScenarioGrid {
        ScenarioGrid::new()
            .designs(self.designs.clone())
            .workloads(self.specs.clone())
            .sizes([self.size])
    }

    /// Records (warmup + measurement) one campaign over the grid
    /// simulates: every cell that runs a simulation, plus one NoCache
    /// baseline per trace workload in a speedup campaign (whose NoCache
    /// cells reuse the baseline instead of simulating).
    pub fn records(&self, cfg: &SimConfig) -> u64 {
        let mut records = 0;
        for spec in &self.specs {
            for &design in &self.designs {
                if !(self.speedups && design == Design::NoCache) {
                    records += cfg.trace_plan(spec, self.size).total;
                }
            }
            if self.speedups {
                records += cfg.trace_plan(spec, 0).total;
            }
        }
        records
    }

    /// The `sweep` arguments that run this grid at `seed` and write its
    /// timing-stripped cells to `json`.
    pub fn sweep_args(&self, seed: u64, json: &Path) -> Vec<String> {
        let join = |items: Vec<String>| items.join(",");
        vec![
            "--designs".into(),
            join(self.designs.iter().copied().map(metric_key).collect()),
            "--workloads".into(),
            join(self.specs.iter().map(|s| s.name.to_string()).collect()),
            "--sizes".into(),
            format!("{}M", self.size >> 20),
            "--metric".into(),
            if self.speedups { "speedup" } else { "miss" }.into(),
            "--scale".into(),
            SCALE.to_string(),
            "--accesses".into(),
            ACCESSES.to_string(),
            "--seed".into(),
            seed.to_string(),
            "--threads".into(),
            self.threads.to_string(),
            "--canonical".into(),
            "--json".into(),
            json.display().to_string(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_workload_resolves_and_caps_threads() {
        for name in NAMES {
            let w = Workload::by_name(name, 1).expect("named workload exists");
            assert_eq!(w.name, name);
            assert_eq!(w.threads, 1, "threads never exceed the host's");
        }
        assert_eq!(Workload::by_name("fig7-campaign", 8).unwrap().threads, 2);
        assert!(Workload::by_name("bogus", 2).is_none());
    }

    #[test]
    fn records_count_baselines_once_per_trace_workload() {
        let w = Workload::by_name("fig7-campaign", 2).unwrap();
        let cfg = w.cfg(1);
        let (cell, baseline) = (
            cfg.trace_plan(&w.specs[0], w.size).total,
            cfg.trace_plan(&w.specs[0], 0).total,
        );
        assert_eq!((cell, baseline), (1_572_864, ACCESSES));
        // 4 designs x 2 workloads, plus 2 baselines.
        assert_eq!(w.records(&cfg), 8 * cell + 2 * baseline);
        let w = Workload::by_name("dram-stream", 2).unwrap();
        assert_eq!(w.records(&w.cfg(1)), 4 * cell, "NoCache cells simulate");
    }

    #[test]
    fn sweep_arguments_name_the_same_grid() {
        let w = Workload::by_name("dram-stream", 2).unwrap();
        let args = w.sweep_args(7, Path::new("out.json"));
        let after = |flag: &str| {
            let i = args.iter().position(|a| a == flag).expect("flag present");
            args[i + 1].as_str()
        };
        assert_eq!(after("--designs"), "nocache,ideal");
        assert_eq!(after("--workloads"), "TPC-H,Data Analytics");
        assert_eq!(after("--sizes"), "512M");
        assert_eq!(after("--metric"), "miss");
        assert_eq!(after("--seed"), "7");
        for d in &w.designs {
            assert_eq!(Design::from_name(&metric_key(*d)), Some(*d));
        }
    }
}
