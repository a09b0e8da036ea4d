//! The campaign planner and its one cell scheduler.
//!
//! [`TaskPlan::lower`] turns a declarative [`ScenarioGrid`] into an
//! explicit task plan: trace-prefill tasks, baseline tasks, and cell
//! tasks with their dependencies resolved, each cell keyed by a stable
//! [`CellKey`] derived from the serialized specs and carrying a
//! predicted cost ([`prior_ns`] over the cell's own trace length).
//! [`TaskPlan::shard`] LPT-packs those costs into the cells one process
//! runs, in the order its pool starts them: [`ShardSpec::WHOLE`] is the
//! in-process run, and `--shard I/N` lets N machines split one campaign
//! and later [`merge_shards`] the pieces into an output bit-identical to
//! the single-process run.
//!
//! The schedule is a pure function of the plan, so every process that
//! lowers the same grid under the same config computes the same shards
//! with nothing shipped between them. Scheduling never changes results:
//! each cell is a pure function of `(cell, config)`, so any subset — a
//! shard, or the remainder after a `--resume` restored the journaled
//! prefix — simulates bit-identically to the same cells inside a full
//! run, and outputs are reassembled in plan order.
//!
//! [`merge_shards`]: crate::journal::merge_shards

use std::collections::HashMap;

use unison_sim::{SimConfig, SystemSpec};
use unison_trace::{Fnv1a, WorkloadSpec};

use crate::baseline::baseline_key;
use crate::grid::{Cell, ScenarioGrid};

/// Stable identity of one planned cell, derived (FNV-1a) from the full
/// serialized workload spec, the scenario (name and system spec), the
/// design name, the cache size, and the seed. Two processes lowering the
/// same grid under the same config compute identical keys, which is what
/// makes shard merging and journal resume verifiable across machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(u64);

impl CellKey {
    /// Computes the key of `cell`.
    pub fn of(cell: &Cell) -> CellKey {
        let workload = serde_json::to_string(&cell.workload).expect("workload spec serializes");
        let system = serde_json::to_string(&cell.scenario.system).expect("system spec serializes");
        let mut h = Fnv1a::new();
        h.write(workload.as_bytes());
        h.write(&[0]);
        h.write(system.as_bytes());
        h.write(&[0]);
        h.write(cell.scenario.name.as_bytes());
        h.write(&[0]);
        h.write(cell.design.name().as_bytes());
        h.write(&[0]);
        h.write(&cell.cache_bytes.to_le_bytes());
        h.write(&cell.seed.to_le_bytes());
        CellKey(h.finish())
    }

    /// The raw 64-bit key value.
    pub fn value(&self) -> u64 {
        self.0
    }

    /// Canonical 16-hex-digit rendering (journal and shard files).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`Self::hex`] rendering back.
    ///
    /// # Errors
    ///
    /// Returns a message when `s` is not a 16-digit hex string.
    pub fn from_hex(s: &str) -> Result<CellKey, String> {
        if s.len() != 16 {
            return Err(format!("cell key must be 16 hex digits, got {s:?}"));
        }
        u64::from_str_radix(s, 16)
            .map(CellKey)
            .map_err(|_| format!("bad cell key {s:?}"))
    }
}

/// One shard of an N-way campaign partition. `index` is **0-based**
/// internally; the CLI spelling `--shard I/N` is 1-based ("shard 2/4" is
/// the second of four) and [`ShardSpec::parse`] converts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 0-based shard index, `< count`.
    pub index: u32,
    /// Total shards in the partition.
    pub count: u32,
}

impl ShardSpec {
    /// The single shard of a 1-way partition: the whole plan, in one
    /// process.
    pub const WHOLE: ShardSpec = ShardSpec { index: 0, count: 1 };

    /// Builds a spec from a 0-based index.
    ///
    /// # Errors
    ///
    /// Returns a message when `count` is zero or `index >= count`.
    pub fn new(index: u32, count: u32) -> Result<ShardSpec, String> {
        if count == 0 {
            return Err("shard count must be positive".into());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s)"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parses the CLI spelling `I/N` with **1-based** `I` (e.g. `1/2`
    /// and `2/2` are the two halves of a 2-way split).
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input, `I == 0`, or `I > N`.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("shard spec {s:?} must look like I/N (e.g. 1/2)"))?;
        let i: u32 = i
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index in {s:?}"))?;
        let n: u32 = n
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count in {s:?}"))?;
        if i == 0 {
            return Err(format!("shard index is 1-based: use 1/{n}..{n}/{n}"));
        }
        Self::new(i - 1, n)
    }

    /// The 1-based CLI rendering (`"2/4"`).
    pub fn display(&self) -> String {
        format!("{}/{}", self.index + 1, self.count)
    }
}

/// Freeze the `(scaled workload, seed)` trace artifact to `len` records —
/// the prefill dependency shared by every cell replaying that stream.
#[derive(Debug, Clone)]
pub struct TracePrefillTask {
    /// The scaled workload spec the generator runs with (the artifact
    /// key's spec half).
    pub spec: WorkloadSpec,
    /// Trace seed.
    pub seed: u64,
    /// Records to freeze: the maximum any dependent cell (or its
    /// baseline) replays, so the per-key grow-on-demand path never
    /// regenerates mid-campaign.
    pub len: u64,
}

/// Simulate the NoCache baseline for `(workload, system, seed)` — the
/// dependency of every speedup cell measured against it.
#[derive(Debug, Clone)]
pub struct BaselineTask {
    /// Workload under test (unscaled; the store scales it).
    pub workload: WorkloadSpec,
    /// The machine the baseline runs on.
    pub system: SystemSpec,
    /// Trace seed.
    pub seed: u64,
}

/// One cell task with its dependencies resolved.
#[derive(Debug, Clone)]
pub struct PlannedCell {
    /// Position in grid order — the index results are reassembled by.
    pub index: usize,
    /// Stable identity (journal entries, shard-merge verification).
    pub key: CellKey,
    /// The cell itself.
    pub cell: Cell,
    /// Index into [`TaskPlan::prefills`] of the trace artifact this cell
    /// replays (when trace sharing is enabled).
    pub prefill: usize,
    /// Index into [`TaskPlan::baselines`] of the baseline this cell's
    /// speedup is measured against (`None` in plain campaigns).
    pub baseline: Option<usize>,
    /// Predicted wall time, ns: [`prior_ns`] of the design over the
    /// records this cell replays. Scheduling only; it feeds no key or
    /// fingerprint.
    pub cost: u64,
}

/// The explicit task plan one grid lowers to: prefill tasks, baseline
/// tasks, and cell tasks with dependency edges, plus a fingerprint that
/// identifies the plan across processes (journal resume and shard merge
/// both verify it before trusting foreign results).
#[derive(Debug, Clone)]
pub struct TaskPlan {
    /// Cell tasks in grid order.
    pub cells: Vec<PlannedCell>,
    /// Deduplicated trace-prefill tasks (one per `(scaled spec, seed)`,
    /// at the maximum length any dependent requires).
    pub prefills: Vec<TracePrefillTask>,
    /// Deduplicated baseline tasks (one per baseline-store key; empty in
    /// plain campaigns).
    pub baselines: Vec<BaselineTask>,
    /// Whether cells compute speedups over their baselines.
    pub speedups: bool,
    fingerprint: String,
}

impl TaskPlan {
    /// Lowers `grid` under `cfg` into an explicit plan. Deterministic:
    /// the same grid and config produce the same cells, keys, and
    /// fingerprint in any process on any machine.
    pub fn lower(cfg: &SimConfig, grid: &ScenarioGrid, speedups: bool) -> TaskPlan {
        let mut prefills: Vec<TracePrefillTask> = Vec::new();
        let mut prefill_ix: HashMap<(String, u64), usize> = HashMap::new();
        let mut baselines: Vec<BaselineTask> = Vec::new();
        let mut baseline_ix: HashMap<(String, String, u64), usize> = HashMap::new();
        let mut cells = Vec::new();

        for (index, cell) in grid.cells(cfg.seed).into_iter().enumerate() {
            let key = CellKey::of(&cell);

            // The scenario's system spec feeds the trace plan, so its
            // core count lands in the scaled spec — the artifact key.
            // Cells of scenarios sharing an effective workload share a
            // freeze.
            let mut cell_cfg = *cfg;
            cell_cfg.system = cell.scenario.system;
            let tplan = cell_cfg.trace_plan(&cell.workload, cell.cache_bytes);
            let needed = if speedups {
                // The baseline runs at cache size 0; its trace is never
                // longer than a design cell's, but take the max anyway
                // rather than encode that reasoning here.
                tplan
                    .frozen_len
                    .max(cell_cfg.trace_plan(&cell.workload, 0).frozen_len)
            } else {
                tplan.frozen_len
            };
            let pjson =
                serde_json::to_string(&tplan.scaled_spec).expect("workload spec serializes");
            let prefill = *prefill_ix.entry((pjson, cell.seed)).or_insert_with(|| {
                prefills.push(TracePrefillTask {
                    spec: tplan.scaled_spec.clone(),
                    seed: cell.seed,
                    len: 0,
                });
                prefills.len() - 1
            });
            prefills[prefill].len = prefills[prefill].len.max(needed);

            let baseline = speedups.then(|| {
                let bkey = baseline_key(&cell.workload, &cell.scenario.system, cell.seed);
                *baseline_ix.entry(bkey).or_insert_with(|| {
                    baselines.push(BaselineTask {
                        workload: cell.workload.clone(),
                        system: cell.scenario.system,
                        seed: cell.seed,
                    });
                    baselines.len() - 1
                })
            });

            cells.push(PlannedCell {
                index,
                key,
                cost: prior_ns(&cell.design.name(), tplan.total),
                cell,
                prefill,
                baseline,
            });
        }

        let fingerprint = Self::fingerprint_of(cfg, speedups, &cells);
        TaskPlan {
            cells,
            prefills,
            baselines,
            speedups,
            fingerprint,
        }
    }

    /// Digest identifying this plan: the config, the mode, and every
    /// cell key in order. Two plans with equal fingerprints enumerate
    /// the same cells under the same config, so their results are
    /// interchangeable.
    fn fingerprint_of(cfg: &SimConfig, speedups: bool, cells: &[PlannedCell]) -> String {
        let cfg_json = serde_json::to_string(cfg).expect("sim config serializes");
        let mut h = Fnv1a::new();
        h.write(cfg_json.as_bytes());
        h.write(&[u8::from(speedups)]);
        h.write(&(cells.len() as u64).to_le_bytes());
        for c in cells {
            h.write(&c.key.value().to_le_bytes());
        }
        format!("{:016x}", h.finish())
    }

    /// The plan fingerprint (see [`Self::fingerprint_of`]).
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Number of cell tasks.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the plan has no cell tasks.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The plan indices `shard` runs, in the order its pool starts them
    /// (longest predicted first). The cells' costs are LPT-packed into
    /// `shard.count` bins and `shard` gets bin `shard.index`, so the N
    /// shards of a partition cover every cell exactly once and finish at
    /// about the same time. A pure function of the plan: processes that
    /// lower the same grid under the same config agree on every shard.
    pub fn shard(&self, shard: ShardSpec) -> Vec<usize> {
        let costs: Vec<u64> = self.cells.iter().map(|pc| pc.cost).collect();
        partition_balanced(&costs, shard.count).swap_remove(shard.index as usize)
    }
}

/// Structural cost prior: `records × per-design weight` (ns). The
/// weights follow measured per-design mean cell times at scale 16 (Ideal
/// 1.06 s : Footprint 2.19 : Alloy 2.38 : Unison 2.86 at equal trace
/// length); the record count carries the cache size, since a larger
/// cache needs a longer trace to warm. Only the ordering and rough
/// proportions matter for LPT, so precision is not required.
pub fn prior_ns(design: &str, records: u64) -> u64 {
    let weight = match design {
        "Ideal" => 26,
        "Footprint" => 54,
        "Alloy" => 58,
        "NoCache" => 18,
        d if d.starts_with("Unison") => 70,
        _ => 55,
    };
    records.saturating_mul(weight)
}

/// Sorts `indices` longest-processing-time-first under `costs`
/// (descending cost, ascending index on ties — deterministic).
fn order_lpt(costs: &[u64], indices: &mut [usize]) {
    indices.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
}

/// Greedy LPT bin-packing: every index `0..costs.len()` goes to the
/// currently least-loaded of `bins` bins, taking items in descending
/// cost order. Ties break on the lowest index / lowest bin, so the
/// result is a deterministic pure function of its inputs. Each bin lists
/// its indices in the order they were placed: longest first.
fn partition_balanced(costs: &[u64], bins: u32) -> Vec<Vec<usize>> {
    let bins = bins.max(1) as usize;
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order_lpt(costs, &mut order);
    let mut loads = vec![0u64; bins];
    let mut assignment: Vec<Vec<usize>> = vec![Vec::new(); bins];
    for i in order {
        let lightest = loads
            .iter()
            .enumerate()
            .min_by_key(|&(b, &load)| (load, b))
            .map(|(b, _)| b)
            .expect("at least one bin");
        loads[lightest] = loads[lightest].saturating_add(costs[i]);
        assignment[lightest].push(i);
    }
    assignment
}

/// Imbalance ratio of per-bin loads: max/mean. 1.0 is perfect balance;
/// empty or all-zero loads also report 1.0 (nothing to balance).
pub fn imbalance_ratio(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 1.0;
    }
    let total: u128 = loads.iter().map(|&l| u128::from(l)).sum();
    if total == 0 {
        return 1.0;
    }
    let mean = total as f64 / loads.len() as f64;
    let max = loads.iter().copied().max().unwrap_or(0) as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use unison_sim::{Design, Scenario, SimConfig, SystemSpec};
    use unison_trace::workloads;

    fn grid() -> ScenarioGrid {
        ScenarioGrid::new()
            .designs([Design::Unison, Design::Ideal])
            .workloads([workloads::web_search(), workloads::data_serving()])
            .sizes([128 << 20, 256 << 20])
    }

    #[test]
    fn cell_keys_are_stable_and_distinct() {
        let cfg = SimConfig::quick_test();
        let a = TaskPlan::lower(&cfg, &grid(), true);
        let b = TaskPlan::lower(&cfg, &grid(), true);
        assert_eq!(a.len(), 8);
        for (x, y) in a.cells.iter().zip(&b.cells) {
            assert_eq!(x.key, y.key, "keys must be deterministic");
        }
        let distinct: HashSet<CellKey> = a.cells.iter().map(|c| c.key).collect();
        assert_eq!(distinct.len(), 8, "distinct cells get distinct keys");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn every_key_component_changes_the_key() {
        let cfg = SimConfig::quick_test();
        let base = TaskPlan::lower(
            &cfg,
            &ScenarioGrid::new()
                .designs([Design::Unison])
                .workloads([workloads::web_search()])
                .sizes([128 << 20]),
            true,
        )
        .cells[0]
            .key;
        for (designs, workload, sizes, seed) in [
            (Design::Ideal, workloads::web_search(), 128u64 << 20, 42u64),
            (Design::Unison, workloads::tpch(), 128 << 20, 42),
            (Design::Unison, workloads::web_search(), 256 << 20, 42),
            (Design::Unison, workloads::web_search(), 128 << 20, 7),
        ] {
            let g = ScenarioGrid::new()
                .designs([designs])
                .workloads([workload])
                .sizes([sizes])
                .seeds([seed]);
            let k = TaskPlan::lower(&cfg, &g, true).cells[0].key;
            assert_ne!(k, base);
        }
        // Scenario name alone changes the key (same machine).
        let named = ScenarioGrid::new()
            .designs([Design::Unison])
            .workloads([workloads::web_search()])
            .sizes([128 << 20])
            .scenarios([Scenario {
                name: "alias".into(),
                system: SystemSpec::default(),
            }]);
        assert_ne!(TaskPlan::lower(&cfg, &named, true).cells[0].key, base);
    }

    #[test]
    fn fingerprint_tracks_config_and_mode() {
        let cfg = SimConfig::quick_test();
        let plan = TaskPlan::lower(&cfg, &grid(), true);
        let plain = TaskPlan::lower(&cfg, &grid(), false);
        assert_ne!(plan.fingerprint(), plain.fingerprint());
        let mut other = cfg;
        other.seed = 7;
        assert_ne!(
            TaskPlan::lower(&other, &grid(), true).fingerprint(),
            plan.fingerprint()
        );
    }

    #[test]
    fn plan_dedupes_prefills_and_baselines() {
        let cfg = SimConfig::quick_test();
        let plan = TaskPlan::lower(&cfg, &grid(), true);
        // Two workloads, one seed, one machine: two artifacts, two
        // baselines, shared by all eight cells.
        assert_eq!(plan.prefills.len(), 2);
        assert_eq!(plan.baselines.len(), 2);
        for pc in &plan.cells {
            assert!(pc.prefill < plan.prefills.len());
            assert!(pc.baseline.unwrap() < plan.baselines.len());
        }
        // Prefill lengths cover the largest dependent cell.
        for (i, p) in plan.prefills.iter().enumerate() {
            let max_dep = plan
                .cells
                .iter()
                .filter(|pc| pc.prefill == i)
                .map(|pc| {
                    let mut c = cfg;
                    c.system = pc.cell.scenario.system;
                    c.trace_plan(&pc.cell.workload, pc.cell.cache_bytes)
                        .frozen_len
                })
                .max()
                .unwrap();
            assert!(p.len >= max_dep);
        }
        let plain = TaskPlan::lower(&cfg, &grid(), false);
        assert!(plain.baselines.is_empty());
        assert!(plain.cells.iter().all(|pc| pc.baseline.is_none()));
    }

    #[test]
    fn shards_partition_the_plan_exactly() {
        let cfg = SimConfig::quick_test();
        let plan = TaskPlan::lower(&cfg, &grid(), true);
        for count in [1u32, 2, 3, 5] {
            let mut seen: Vec<usize> = Vec::new();
            for index in 0..count {
                seen.extend(plan.shard(ShardSpec::new(index, count).unwrap()));
            }
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..plan.len()).collect::<Vec<_>>(),
                "{count}-way partition must cover every cell exactly once"
            );
        }
        // The whole plan starts longest-first.
        let whole = plan.shard(ShardSpec::WHOLE);
        assert!(whole
            .windows(2)
            .all(|w| plan.cells[w[0]].cost >= plan.cells[w[1]].cost));
    }

    #[test]
    fn prior_orders_designs_by_measured_weight() {
        let n = 1_000_000;
        assert!(prior_ns("Unison", n) > prior_ns("Alloy", n));
        assert!(prior_ns("Alloy", n) > prior_ns("Footprint", n));
        assert!(prior_ns("Footprint", n) > prior_ns("Ideal", n));
        assert!(prior_ns("Unison-1984B", n) > prior_ns("Ideal", n));
    }

    /// A larger cache replays a longer trace, so the same design costs
    /// more at a larger size.
    #[test]
    fn planned_cost_grows_with_cache_size() {
        let cfg = SimConfig::quick_test();
        let plan = TaskPlan::lower(
            &cfg,
            &ScenarioGrid::new()
                .designs([Design::Unison])
                .workloads([workloads::web_search()])
                .sizes([128 << 20, 1 << 30]),
            true,
        );
        let (small, large) = (&plan.cells[0], &plan.cells[1]);
        assert_eq!(small.cell.cache_bytes, 128 << 20);
        assert!(
            large.cost > small.cost,
            "1 GB predicts {} ns, 128 MB {} ns",
            large.cost,
            small.cost
        );
    }

    #[test]
    fn lpt_order_is_descending_cost_with_index_ties() {
        let costs = [5, 9, 9, 1];
        let mut idx = vec![0, 1, 2, 3];
        order_lpt(&costs, &mut idx);
        assert_eq!(idx, vec![1, 2, 0, 3]);
    }

    #[test]
    fn balanced_partition_splits_a_skewed_load_evenly() {
        // One heavy item and three light ones: LPT puts the heavy item
        // alone and packs the rest together.
        let costs = [90, 30, 30, 30];
        let bins = partition_balanced(&costs, 2);
        assert_eq!(bins, vec![vec![0], vec![1, 2, 3]]);
        let loads = bin_loads(&costs, &bins);
        assert_eq!(loads, vec![90, 90]);
        assert!((imbalance_ratio(&loads) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalance_ratio_handles_degenerate_inputs() {
        assert_eq!(imbalance_ratio(&[]), 1.0);
        assert_eq!(imbalance_ratio(&[0, 0]), 1.0);
        assert!((imbalance_ratio(&[30, 10]) - 1.5).abs() < 1e-12);
    }

    /// Total cost landing in each bin of `assignment`.
    fn bin_loads(costs: &[u64], assignment: &[Vec<usize>]) -> Vec<u64> {
        assignment
            .iter()
            .map(|bin| bin.iter().map(|&i| costs[i]).sum())
            .collect()
    }

    /// A plan over the subsets of the axes `masks` selects (each at
    /// least one value): up to 5 designs × 4 sizes × 3 workloads × 3
    /// seeds.
    fn plan_of(designs: u8, sizes: u8, workloads: u8, seeds: u8) -> TaskPlan {
        fn pick<T: Clone>(all: &[T], mask: u8) -> Vec<T> {
            let picked: Vec<T> = all
                .iter()
                .enumerate()
                .filter(|(i, _)| mask >> i & 1 == 1)
                .map(|(_, x)| x.clone())
                .collect();
            if picked.is_empty() {
                all[..1].to_vec()
            } else {
                picked
            }
        }
        let grid = ScenarioGrid::new()
            .designs(pick(
                &[
                    Design::Alloy,
                    Design::Footprint,
                    Design::Unison,
                    Design::Ideal,
                    Design::NoCache,
                ],
                designs,
            ))
            .sizes(pick(&[128 << 20, 256 << 20, 512 << 20, 1 << 30], sizes))
            .workloads(pick(
                &[
                    workloads::web_search(),
                    workloads::data_serving(),
                    workloads::tpch(),
                ],
                workloads,
            ))
            .seeds(pick(&[1, 2, 3], seeds));
        TaskPlan::lower(&SimConfig::quick_test(), &grid, true)
    }

    proptest! {
        /// The N shards of a plan are complete and disjoint.
        #[test]
        fn shards_are_complete_and_disjoint(
            designs in 0u8..32, sizes in 0u8..16, wl in 0u8..8, seeds in 0u8..8,
            count in 1u32..9,
        ) {
            let plan = plan_of(designs, sizes, wl, seeds);
            let mut seen: Vec<usize> = (0..count)
                .flat_map(|i| plan.shard(ShardSpec::new(i, count).unwrap()))
                .collect();
            seen.sort_unstable();
            let expect: Vec<usize> = (0..plan.len()).collect();
            prop_assert_eq!(seen, expect, "every cell exactly once");
        }

        /// Two lowerings of the same grid shard identically: the
        /// cross-process agreement `--shard I/N` relies on.
        #[test]
        fn shards_are_deterministic(
            designs in 0u8..32, sizes in 0u8..16, wl in 0u8..8, seeds in 0u8..8,
            count in 1u32..9,
        ) {
            let a = plan_of(designs, sizes, wl, seeds);
            let b = plan_of(designs, sizes, wl, seeds);
            for i in 0..count {
                let shard = ShardSpec::new(i, count).unwrap();
                prop_assert_eq!(a.shard(shard), b.shard(shard));
            }
        }

        /// The shards honour the list-scheduling guarantee
        /// `count × makespan ≤ total + (count-1) × max_cell` — at most
        /// one cell away from the mean load any partition must reach or
        /// exceed.
        #[test]
        fn shards_respect_the_greedy_bound(
            designs in 0u8..32, sizes in 0u8..16, wl in 0u8..8, seeds in 0u8..8,
            count in 1u32..9,
        ) {
            let plan = plan_of(designs, sizes, wl, seeds);
            let costs: Vec<u64> = plan.cells.iter().map(|pc| pc.cost).collect();
            let shards: Vec<Vec<usize>> = (0..count)
                .map(|i| plan.shard(ShardSpec::new(i, count).unwrap()))
                .collect();
            let makespan = bin_loads(&costs, &shards).into_iter().max().unwrap_or(0);
            let total: u128 = costs.iter().map(|&c| u128::from(c)).sum();
            let max_cell = u128::from(costs.iter().copied().max().unwrap_or(0));
            prop_assert!(
                u128::from(makespan) * u128::from(count)
                    <= total + (u128::from(count) - 1) * max_cell
            );
        }
    }

    #[test]
    fn shard_spec_parses_one_based_cli_spelling() {
        assert_eq!(
            ShardSpec::parse("1/2").unwrap(),
            ShardSpec { index: 0, count: 2 }
        );
        assert_eq!(
            ShardSpec::parse("2/2").unwrap(),
            ShardSpec { index: 1, count: 2 }
        );
        assert_eq!(ShardSpec::parse("2/2").unwrap().display(), "2/2");
        for bad in ["0/2", "3/2", "x/2", "2", "2/", "/2", "2/0"] {
            assert!(ShardSpec::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn cell_key_hex_round_trips() {
        let cfg = SimConfig::quick_test();
        let key = TaskPlan::lower(&cfg, &grid(), false).cells[3].key;
        assert_eq!(CellKey::from_hex(&key.hex()).unwrap(), key);
        assert!(CellKey::from_hex("xyz").is_err());
        assert!(CellKey::from_hex("123").is_err());
    }
}
