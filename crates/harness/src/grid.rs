//! Declarative experiment grids.

use unison_sim::{Design, Scenario, SystemSpec};
use unison_trace::WorkloadSpec;

/// One experiment cell: a single
/// `(design, scenario, cache size, workload, seed)` simulation.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Cache design under test.
    pub design: Design,
    /// The simulated machine (core count/model, geometry overrides, DRAM
    /// presets).
    pub scenario: Scenario,
    /// Nominal cache capacity in bytes (0 for NoCache).
    pub cache_bytes: u64,
    /// Workload specification.
    pub workload: WorkloadSpec,
    /// Trace seed for this cell.
    pub seed: u64,
}

impl Cell {
    /// One-line identity — design @ size on workload [scenario] (seed) —
    /// shared by progress lines, worker-panic labels, and journal
    /// diagnostics so a cell is named the same way everywhere.
    pub fn describe(&self) -> String {
        format!(
            "{} @ {}MB on {} [{}] (seed {})",
            self.design.name(),
            self.cache_bytes >> 20,
            self.workload.name,
            self.scenario.name,
            self.seed
        )
    }
}

/// The declarative cross product
/// `designs × scenarios × sizes × workloads × seeds`, with optional
/// per-workload size overrides (the paper sweeps CloudSuite at
/// 128 MB–1 GB but TPC-H at 1–8 GB).
///
/// The scenario axis defaults to the single [`Scenario::default`] (the
/// paper's Table III machine), so grids that never mention scenarios
/// behave exactly as they did before the axis existed.
#[derive(Debug, Clone, Default)]
pub struct ScenarioGrid {
    designs: Vec<Design>,
    scenarios: Vec<Scenario>,
    workloads: Vec<WorkloadSpec>,
    sizes: Vec<u64>,
    size_overrides: Vec<(String, Vec<u64>)>,
    seeds: Vec<u64>,
}

impl ScenarioGrid {
    /// Creates an empty grid.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the designs axis.
    pub fn designs(mut self, designs: impl IntoIterator<Item = Design>) -> Self {
        self.designs = designs.into_iter().collect();
        self
    }

    /// Sets the scenario axis (default: the single default scenario).
    pub fn scenarios(mut self, scenarios: impl IntoIterator<Item = Scenario>) -> Self {
        self.scenarios = scenarios.into_iter().collect();
        self
    }

    /// Appends one scenario.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Sets the workloads axis.
    pub fn workloads(mut self, workloads: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.workloads = workloads.into_iter().collect();
        self
    }

    /// Appends one workload.
    pub fn workload(mut self, workload: WorkloadSpec) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Sets the shared cache-size axis.
    pub fn sizes(mut self, sizes: impl IntoIterator<Item = u64>) -> Self {
        self.sizes = sizes.into_iter().collect();
        self
    }

    /// Overrides the size axis for one workload (by display name).
    pub fn sizes_for(mut self, workload: &str, sizes: impl IntoIterator<Item = u64>) -> Self {
        self.size_overrides
            .push((workload.to_string(), sizes.into_iter().collect()));
        self
    }

    /// Sets explicit trace seeds (default: the campaign config's seed).
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// The size axis effective for `workload`.
    pub fn sizes_of(&self, workload: &str) -> &[u64] {
        self.size_overrides
            .iter()
            .find(|(name, _)| name == workload)
            .map(|(_, sizes)| sizes.as_slice())
            .unwrap_or(&self.sizes)
    }

    /// The designs axis.
    pub fn design_axis(&self) -> &[Design] {
        &self.designs
    }

    /// The workloads axis.
    pub fn workload_axis(&self) -> &[WorkloadSpec] {
        &self.workloads
    }

    /// The explicit scenario axis (empty means "the default scenario").
    pub fn scenario_axis(&self) -> &[Scenario] {
        &self.scenarios
    }

    fn effective_scenarios(&self) -> Vec<Scenario> {
        if self.scenarios.is_empty() {
            vec![Scenario::default()]
        } else {
            self.scenarios.clone()
        }
    }

    fn effective_seeds(&self, default_seed: u64) -> Vec<u64> {
        if self.seeds.is_empty() {
            vec![default_seed]
        } else {
            self.seeds.clone()
        }
    }

    /// Enumerates all cells in deterministic grid order: workload
    /// (outermost) → scenario → seed → design → size. Grouping by
    /// `(workload, scenario, seed)` keeps cells that share a baseline
    /// (and a frozen trace) adjacent in the work queue. With the default
    /// single-scenario axis this is exactly the pre-scenario order.
    pub fn cells(&self, default_seed: u64) -> Vec<Cell> {
        let scenarios = self.effective_scenarios();
        let seeds = self.effective_seeds(default_seed);
        let mut cells = Vec::new();
        for workload in &self.workloads {
            let sizes = self.sizes_of(workload.name);
            for scenario in &scenarios {
                for &seed in &seeds {
                    for &design in &self.designs {
                        for &cache_bytes in sizes {
                            cells.push(Cell {
                                design,
                                scenario: scenario.clone(),
                                cache_bytes,
                                workload: workload.clone(),
                                seed,
                            });
                        }
                    }
                }
            }
        }
        cells
    }

    /// Total number of cells the grid enumerates (without materializing
    /// them): `designs × scenarios × seeds × Σ_workload sizes`.
    /// Independent of the campaign's default seed — an empty seed (or
    /// scenario) axis still means one.
    pub fn len(&self) -> usize {
        let seeds = if self.seeds.is_empty() {
            1
        } else {
            self.seeds.len()
        };
        let scenarios = if self.scenarios.is_empty() {
            1
        } else {
            self.scenarios.len()
        };
        let size_points: usize = self
            .workloads
            .iter()
            .map(|w| self.sizes_of(w.name).len())
            .sum();
        self.designs.len() * scenarios * seeds * size_points
    }

    /// True when the grid enumerates no cells (any required axis —
    /// designs, workloads, or every effective size list — is empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The unique `(workload, system spec, seed)` triples — one NoCache
    /// baseline each. Two scenarios whose *systems* are equal (labels
    /// aside) share a baseline; scenarios differing in any machine knob
    /// do not.
    pub fn baseline_keys(&self, default_seed: u64) -> Vec<(WorkloadSpec, SystemSpec, u64)> {
        let scenarios = self.effective_scenarios();
        let seeds = self.effective_seeds(default_seed);
        let mut keys: Vec<(WorkloadSpec, SystemSpec, u64)> = Vec::new();
        for workload in &self.workloads {
            for scenario in &scenarios {
                for &seed in &seeds {
                    if !keys
                        .iter()
                        .any(|(w, sys, s)| w == workload && *sys == scenario.system && *s == seed)
                    {
                        keys.push((workload.clone(), scenario.system, seed));
                    }
                }
            }
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_sim::SystemSpec;
    use unison_trace::workloads;

    #[test]
    fn cross_product_order_is_deterministic() {
        let grid = ScenarioGrid::new()
            .designs([Design::Alloy, Design::Unison])
            .workloads([workloads::web_search(), workloads::tpch()])
            .sizes([1 << 20, 2 << 20]);
        let cells = grid.cells(42);
        assert_eq!(cells.len(), 8);
        assert_eq!(cells[0].workload.name, "Web Search");
        assert_eq!(cells[0].design, Design::Alloy);
        assert_eq!(cells[0].cache_bytes, 1 << 20);
        assert_eq!(cells[1].cache_bytes, 2 << 20);
        assert_eq!(cells[2].design, Design::Unison);
        assert_eq!(cells[4].workload.name, "TPC-H");
        assert!(cells.iter().all(|c| c.seed == 42));
        assert!(cells.iter().all(|c| c.scenario.name == "default"));
    }

    #[test]
    fn per_workload_size_override() {
        let grid = ScenarioGrid::new()
            .designs([Design::Unison])
            .workloads([workloads::web_search(), workloads::tpch()])
            .sizes([128 << 20])
            .sizes_for("TPC-H", [1 << 30, 8u64 << 30]);
        assert_eq!(grid.sizes_of("Web Search"), &[128 << 20]);
        assert_eq!(grid.sizes_of("TPC-H"), &[1 << 30, 8 << 30]);
        assert_eq!(grid.cells(1).len(), 3);
    }

    #[test]
    fn len_and_is_empty_agree_with_cells() {
        let no_sizes = ScenarioGrid::new()
            .designs([Design::Unison])
            .workloads([workloads::web_search()]);
        assert!(no_sizes.is_empty());
        assert_eq!(no_sizes.len(), no_sizes.cells(42).len());

        let mixed = ScenarioGrid::new()
            .designs([Design::Unison, Design::Alloy])
            .workloads([workloads::web_search(), workloads::tpch()])
            .sizes([1 << 20])
            .sizes_for("TPC-H", [1u64 << 30, 2 << 30])
            .seeds([1, 2, 3])
            .scenarios([
                Scenario::default(),
                Scenario::from_spec(SystemSpec {
                    cores: Some(4),
                    ..SystemSpec::default()
                }),
            ]);
        assert!(!mixed.is_empty());
        assert_eq!(mixed.len(), mixed.cells(42).len());
        assert_eq!(mixed.len(), 2 * 2 * 3 * (1 + 2));
    }

    #[test]
    fn explicit_seeds_multiply_cells() {
        let grid = ScenarioGrid::new()
            .designs([Design::Unison])
            .workloads([workloads::web_search()])
            .sizes([1 << 20])
            .seeds([1, 2, 3]);
        assert_eq!(grid.cells(42).len(), 3);
        assert_eq!(grid.baseline_keys(42).len(), 3);
    }

    #[test]
    fn baseline_keys_are_unique_per_workload_scenario_seed() {
        let grid = ScenarioGrid::new()
            .designs([
                Design::Alloy,
                Design::Footprint,
                Design::Unison,
                Design::Ideal,
            ])
            .workloads([workloads::web_search(), workloads::data_serving()])
            .sizes([1 << 20, 2 << 20, 4 << 20, 8 << 20]);
        assert_eq!(grid.cells(42).len(), 32);
        assert_eq!(grid.baseline_keys(42).len(), 2);
    }

    #[test]
    fn scenarios_multiply_cells_and_baselines() {
        let quad = Scenario::from_spec(SystemSpec {
            cores: Some(4),
            ..SystemSpec::default()
        });
        let grid = ScenarioGrid::new()
            .designs([Design::Unison])
            .workloads([workloads::web_search()])
            .sizes([1 << 20])
            .scenarios([Scenario::default(), quad.clone()]);
        let cells = grid.cells(42);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].scenario.name, "default");
        assert_eq!(cells[1].scenario.name, "c4");
        assert_eq!(
            grid.baseline_keys(42).len(),
            2,
            "distinct machines need distinct baselines"
        );
    }

    #[test]
    fn equal_systems_with_different_names_share_a_baseline() {
        let a = Scenario {
            name: "alpha".into(),
            system: SystemSpec::default(),
        };
        let b = Scenario {
            name: "beta".into(),
            system: SystemSpec::default(),
        };
        let grid = ScenarioGrid::new()
            .designs([Design::Ideal])
            .workloads([workloads::web_search()])
            .sizes([1 << 20])
            .scenarios([a, b]);
        assert_eq!(grid.cells(42).len(), 2);
        assert_eq!(
            grid.baseline_keys(42).len(),
            1,
            "baselines key on the machine, not the label"
        );
    }
}
