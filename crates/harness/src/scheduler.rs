//! The campaign planner/executor layer.
//!
//! [`TaskPlan::lower`] turns a declarative [`ScenarioGrid`] into an
//! explicit task plan: trace-prefill tasks, baseline tasks, and cell
//! tasks with their dependencies resolved, each cell keyed by a stable
//! [`CellKey`] derived from the serialized specs. Execution is behind
//! the [`Executor`] trait — [`InProcessExecutor`] runs the whole plan on
//! the worker pool (the historical behaviour), and [`ShardedExecutor`]
//! runs the deterministic `--shard I/N` partition of it, so N machines
//! can split one campaign and later [`merge_shards`] the pieces into an
//! output bit-identical to the single-process run.
//!
//! The plan, not the executor, is the source of truth for *what* runs:
//! every executor sees the same cell indices, keys, and dependency
//! edges, so any subset of cells — a shard, or the remainder after a
//! `--resume` restored the journaled prefix — simulates bit-identically
//! to the same cells inside a full run.
//!
//! [`merge_shards`]: crate::journal::merge_shards

use std::collections::{HashMap, HashSet};

use unison_sim::{SimConfig, SystemSpec};
use unison_trace::{Fnv1a, WorkloadSpec};

use crate::baseline::baseline_key;
use crate::campaign::CellResult;
use crate::grid::{Cell, ScenarioGrid};
use crate::pool;

/// Stable identity of one planned cell, derived (FNV-1a) from the full
/// serialized workload spec, the scenario (name and system spec), the
/// design name, the cache size, and the seed. Two processes lowering the
/// same grid under the same config compute identical keys, which is what
/// makes `--shard I/N` partitioning and journal resume deterministic
/// across machines.
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

    /// The shard (0-based) this key lands in under an `count`-way
    /// deterministic partition.
    pub fn shard_of(&self, count: u32) -> u32 {
        (self.0 % u64::from(count.max(1))) as u32
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
    /// Stable identity (shard partitioning, journal entries).
    pub key: CellKey,
    /// The cell itself.
    pub cell: Cell,
    /// Index into [`TaskPlan::prefills`] of the trace artifact this cell
    /// replays (when trace sharing is enabled).
    pub prefill: usize,
    /// Index into [`TaskPlan::baselines`] of the baseline this cell's
    /// speedup is measured against (`None` in plain campaigns).
    pub baseline: Option<usize>,
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
}

/// Everything an executor needs besides the plan: the worker-pool
/// width, the set of plan indices already satisfied (restored from a
/// resume journal), the cell-running closure (baseline store and trace
/// store already wired in by the campaign), and a completion observer
/// invoked on the coordinating thread in completion order (journal
/// appends, progress lines).
pub struct ExecHooks<'a> {
    /// Worker-pool width (`1` = inline serial execution).
    pub threads: usize,
    /// Plan indices to skip (already completed in a previous run).
    pub skip: &'a HashSet<usize>,
    /// Runs one cell task to completion.
    pub run: &'a (dyn Fn(&PlannedCell) -> CellResult + Sync),
    /// Observes each completion, on the coordinating thread, in
    /// completion (not grid) order.
    pub observe: &'a mut dyn FnMut(&PlannedCell, &CellResult),
    /// Predicted wall time (ns) per plan index, present when the
    /// campaign has a [`CostModel`](crate::CostModel) loaded. Executors
    /// schedule work longest-first (LPT) under it, so the most
    /// expensive cell starts immediately and the pool's final wave
    /// drains through cheap cells instead of stalling on a straggler.
    /// Scheduling only: results are returned in plan order either way,
    /// and canonical output stays byte-identical.
    pub cost: Option<&'a [u64]>,
}

/// A strategy for executing (a partition of) a [`TaskPlan`].
///
/// Implementations decide *which* cells run ([`Executor::assigned`]);
/// the default [`Executor::execute`] runs that partition on the shared
/// worker pool, which is what both built-in executors want. Results are
/// returned as `(plan index, result)` pairs in plan order regardless of
/// worker scheduling, so execution strategy never changes output.
pub trait Executor {
    /// The plan indices this executor is responsible for, ascending.
    fn assigned(&self, plan: &TaskPlan) -> Vec<usize>;

    /// The shard coordinates of this executor's partition, 0-based
    /// `(index, count)`. The full in-process run is `(0, 1)`.
    fn shard(&self) -> (u32, u32) {
        (0, 1)
    }

    /// Human-readable label for progress lines.
    fn describe(&self) -> String;

    /// Executes every assigned cell not in `hooks.skip`, one pool task
    /// per cell, and returns the completions `(plan index, result)` in
    /// plan order, so scheduling never changes output.
    fn execute(&self, plan: &TaskPlan, hooks: ExecHooks<'_>) -> Vec<(usize, CellResult)> {
        let mut indices: Vec<usize> = self
            .assigned(plan)
            .into_iter()
            .filter(|i| !hooks.skip.contains(i))
            .collect();
        let observe = hooks.observe;
        if let Some(cost) = hooks.cost {
            crate::costs::order_lpt(cost, &mut indices);
        }
        let tasks: Vec<&PlannedCell> = indices.iter().map(|&i| &plan.cells[i]).collect();
        let run = hooks.run;
        let results = pool::parallel_map_observed(
            &tasks,
            hooks.threads,
            |pc| run(pc),
            // The [key=…] tag is machine-parseable culprit identity: the
            // orchestrator greps a dead worker's log for it to decide
            // which cell to quarantine.
            &|pc| format!("{} [key={}]", pc.cell.describe(), pc.key.hex()),
            &mut |slot, r| observe(tasks[slot], r),
        );
        let mut out: Vec<(usize, CellResult)> = indices.into_iter().zip(results).collect();
        out.sort_by_key(|(i, _)| *i);
        out
    }
}

/// The historical single-process strategy: every cell of the plan runs
/// on this process's worker pool.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessExecutor;

impl Executor for InProcessExecutor {
    fn assigned(&self, plan: &TaskPlan) -> Vec<usize> {
        (0..plan.cells.len()).collect()
    }

    fn describe(&self) -> String {
        "in-process".to_string()
    }
}

/// The `--shard I/N` strategy: runs exactly the cells whose [`CellKey`]
/// lands in this shard under the deterministic N-way partition
/// (`key % N == index`). Every shard of the same plan computes the same
/// partition, so N machines given shards `1/N .. N/N` cover every cell
/// exactly once with no coordination.
#[derive(Debug, Clone, Copy)]
pub struct ShardedExecutor {
    shard: ShardSpec,
}

impl ShardedExecutor {
    /// Builds the executor for one shard of the partition.
    pub fn new(shard: ShardSpec) -> Self {
        ShardedExecutor { shard }
    }

    /// The shard this executor runs.
    pub fn spec(&self) -> ShardSpec {
        self.shard
    }
}

impl Executor for ShardedExecutor {
    fn assigned(&self, plan: &TaskPlan) -> Vec<usize> {
        plan.cells
            .iter()
            .filter(|pc| pc.key.shard_of(self.shard.count) == self.shard.index)
            .map(|pc| pc.index)
            .collect()
    }

    fn shard(&self) -> (u32, u32) {
        (self.shard.index, self.shard.count)
    }

    fn describe(&self) -> String {
        format!("shard {} (by cell key)", self.shard.display())
    }
}

/// One shard of a cost-balanced partition: runs an explicit assignment
/// (one bin of [`CostModel::partition`](crate::CostModel::partition))
/// instead of the `key % N` hash split, while claiming the same shard
/// coordinates — shard outputs verify and merge exactly like hashed
/// ones, since coverage is always checked against the assignment.
///
/// The assignment is passed in rather than recomputed so the caller
/// controls which cost model produced it; determinism across processes
/// comes from parent and workers loading the same `costs.json`.
#[derive(Debug, Clone)]
pub struct BalancedExecutor {
    shard: ShardSpec,
    assigned: Vec<usize>,
}

impl BalancedExecutor {
    /// Builds the executor for shard `shard` running exactly
    /// `assigned` (plan indices, any order — execution normalizes).
    pub fn new(shard: ShardSpec, assigned: Vec<usize>) -> Self {
        BalancedExecutor { shard, assigned }
    }
}

impl Executor for BalancedExecutor {
    fn assigned(&self, _plan: &TaskPlan) -> Vec<usize> {
        let mut a = self.assigned.clone();
        a.sort_unstable();
        a
    }

    fn shard(&self) -> (u32, u32) {
        (self.shard.index, self.shard.count)
    }

    fn describe(&self) -> String {
        format!("shard {} (cost-balanced)", self.shard.display())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
                let exec = ShardedExecutor::new(ShardSpec::new(index, count).unwrap());
                seen.extend(exec.assigned(&plan));
            }
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..plan.len()).collect::<Vec<_>>(),
                "{count}-way partition must cover every cell exactly once"
            );
        }
        assert_eq!(
            InProcessExecutor.assigned(&plan),
            (0..plan.len()).collect::<Vec<_>>()
        );
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
