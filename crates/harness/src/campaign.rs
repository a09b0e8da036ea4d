//! Campaign execution: grid → task plan → one shard on the pool → typed
//! results.
//!
//! The campaign lowers the grid through [`TaskPlan::lower`], runs the
//! cells [`TaskPlan::shard`] assigns it (the whole plan for `run` and
//! `run_speedups`) longest-first on the worker pool, and wires in the
//! memoized baseline/trace stores and, when configured, the checkpoint
//! [`Journal`].

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use unison_sim::{
    run_experiment_with_source, run_speedup_with_baseline_source, Design, RunResult, SimConfig,
    SystemSpec, TraceSource,
};

use crate::baseline::BaselineStore;
use crate::fault;
use crate::grid::{Cell, ScenarioGrid};
use crate::journal::{IndexedCell, Journal, ShardOutput};
use crate::pool::{self, parallel_map};
use crate::progress::{CounterSnapshot, ProgressConfig, ProgressReporter};
use crate::scheduler::{BaselineTask, CellKey, PlannedCell, ShardSpec, TaskPlan, TracePrefillTask};
use crate::stats::geomean;
use crate::telemetry::{CampaignTiming, Clock, MonotonicClock, Phase, Telemetry};
use crate::trace_store::TraceStore;

/// One executed cell: the simulation outcome plus the scenario and seed
/// it ran under and (for speedup campaigns) its speedup over the memoized
/// NoCache baseline.
///
/// Serialization round-trips losslessly (pinned by the scheduler tests):
/// a `CellResult` written to a shard file or checkpoint journal and read
/// back re-serializes to identical bytes, which is what makes
/// shard-merge and resume bit-identical to a single uninterrupted run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellResult {
    /// Scenario display name.
    pub scenario: String,
    /// The machine the cell simulated (full spec, self-describing in
    /// JSON output).
    pub system: SystemSpec,
    /// Core count the run actually drove (the spec's override, or the
    /// workload's own pod size).
    pub cores: u32,
    /// Trace seed the cell ran with.
    pub seed: u64,
    /// Speedup over the NoCache baseline (`None` for plain campaigns).
    pub speedup: Option<f64>,
    /// The full simulation result.
    pub run: RunResult,
    /// Wall time this cell took to simulate, in nanoseconds (0 for
    /// NoCache cells that reuse the memoized baseline without running).
    ///
    /// Timing is **observability, not identity**: it never feeds the
    /// plan fingerprint or cell keys, and bit-identity comparisons
    /// (shard merge, resume, CI byte-compares) strip it first via
    /// [`CellResult::canonicalized`] — two runs of the same cell produce
    /// identical simulation payloads but necessarily different clocks.
    pub wall_ns: u64,
}

impl CellResult {
    /// Design display name.
    pub fn design(&self) -> &str {
        &self.run.design
    }

    /// A copy with the timing stripped (`wall_ns = 0`): the canonical
    /// form byte-identity comparisons reduce cells to before comparing.
    pub fn canonicalized(&self) -> CellResult {
        CellResult {
            wall_ns: 0,
            ..self.clone()
        }
    }

    /// Workload display name.
    pub fn workload(&self) -> &str {
        &self.run.workload
    }

    /// Nominal cache size in bytes.
    pub fn cache_bytes(&self) -> u64 {
        self.run.cache_bytes
    }
}

/// All results of one campaign, in grid order.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignResult {
    /// Executed cells, ordered exactly as [`ScenarioGrid::cells`]
    /// enumerated them (independent of worker scheduling).
    pub cells: Vec<CellResult>,
    /// NoCache baseline simulations actually executed.
    pub baseline_runs: usize,
    /// Baseline requests served from the memo cache.
    pub baseline_hits: usize,
    /// Trace artifacts generated (0 when trace sharing is disabled or
    /// everything came from the disk cache).
    pub trace_generated: usize,
    /// Trace requests served from the in-memory artifact memo.
    pub trace_memo_hits: usize,
    /// Trace requests served from the on-disk artifact cache.
    pub trace_disk_hits: usize,
    /// Cells restored from a `--resume` checkpoint journal instead of
    /// re-simulated (0 for campaigns without a journal).
    pub resumed_cells: usize,
    /// Per-phase wall-time summary (summed across shards for merged
    /// results; all zeros for hand-built fixtures).
    pub timing: CampaignTiming,
}

impl CampaignResult {
    /// The executed cells in grid order.
    pub fn cells(&self) -> &[CellResult] {
        &self.cells
    }

    /// The cells with all timing stripped ([`CellResult::canonicalized`])
    /// — what bit-identity tests and the CI byte-compare serialize, so
    /// that runs which are identical in every simulated respect compare
    /// equal despite wall clocks never repeating.
    pub fn canonical_cells(&self) -> Vec<CellResult> {
        self.cells.iter().map(CellResult::canonicalized).collect()
    }

    /// Rolls the memoization counters and timing into the summary block
    /// the JSON sink renders and the `sweep` footer prints.
    pub fn summary(&self) -> CampaignSummary {
        let cell_wall_ns_total: u64 = self.cells.iter().map(|c| c.wall_ns).sum();
        let n = self.cells.len() as u64;
        CampaignSummary {
            cells: self.cells.len(),
            baseline_runs: self.baseline_runs,
            baseline_hits: self.baseline_hits,
            trace_generated: self.trace_generated,
            trace_memo_hits: self.trace_memo_hits,
            trace_disk_hits: self.trace_disk_hits,
            resumed_cells: self.resumed_cells,
            cell_wall_ns_total,
            cell_wall_ns_mean: cell_wall_ns_total.checked_div(n).unwrap_or(0),
            timing: self.timing,
        }
    }

    /// First cell matching `(workload, design name, cache size)`.
    pub fn get(&self, workload: &str, design: &str, cache_bytes: u64) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.workload() == workload && c.design() == design && c.cache_bytes() == cache_bytes
        })
    }

    /// Cell matching `(workload, design name, cache size, seed)`.
    pub fn get_seeded(
        &self,
        workload: &str,
        design: &str,
        cache_bytes: u64,
        seed: u64,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.workload() == workload
                && c.design() == design
                && c.cache_bytes() == cache_bytes
                && c.seed == seed
        })
    }

    /// Speedups of every cell matching `(design name, cache size)`, in
    /// grid (workload) order.
    pub fn speedups(&self, design: &str, cache_bytes: u64) -> Vec<f64> {
        self.cells
            .iter()
            .filter(|c| c.design() == design && c.cache_bytes() == cache_bytes)
            .filter_map(|c| c.speedup)
            .collect()
    }

    /// Geometric-mean speedup across workloads for `(design, size)` —
    /// the summary bar of Figures 7 and 8.
    pub fn geomean_speedup(&self, design: &str, cache_bytes: u64) -> Option<f64> {
        geomean(&self.speedups(design, cache_bytes))
    }

    /// Cell matching `(scenario name, workload, design, size, seed)` —
    /// the fully qualified lookup for multi-scenario sweeps.
    pub fn get_in_scenario(
        &self,
        scenario: &str,
        workload: &str,
        design: &str,
        cache_bytes: u64,
        seed: u64,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.scenario == scenario
                && c.workload() == workload
                && c.design() == design
                && c.cache_bytes() == cache_bytes
                && c.seed == seed
        })
    }

    /// Speedups of every cell matching `(scenario, design, size)`, in
    /// grid (workload) order.
    pub fn speedups_in_scenario(&self, scenario: &str, design: &str, cache_bytes: u64) -> Vec<f64> {
        self.cells
            .iter()
            .filter(|c| {
                c.scenario == scenario && c.design() == design && c.cache_bytes() == cache_bytes
            })
            .filter_map(|c| c.speedup)
            .collect()
    }

    /// Geometric-mean speedup across workloads for
    /// `(scenario, design, size)`.
    pub fn geomean_speedup_in_scenario(
        &self,
        scenario: &str,
        design: &str,
        cache_bytes: u64,
    ) -> Option<f64> {
        geomean(&self.speedups_in_scenario(scenario, design, cache_bytes))
    }
}

/// The counter-and-timing summary of one campaign: everything
/// [`CampaignResult`] knows besides the cells themselves, in one
/// serializable block ([`CampaignResult::summary`]).
#[derive(Debug, Clone, Serialize)]
pub struct CampaignSummary {
    /// Number of executed (or restored) cells.
    pub cells: usize,
    /// NoCache baseline simulations actually executed.
    pub baseline_runs: usize,
    /// Baseline requests served from the memo cache.
    pub baseline_hits: usize,
    /// Trace artifacts generated.
    pub trace_generated: usize,
    /// Trace requests served from the in-memory artifact memo.
    pub trace_memo_hits: usize,
    /// Trace requests served from the on-disk artifact cache.
    pub trace_disk_hits: usize,
    /// Cells restored from a resume journal.
    pub resumed_cells: usize,
    /// Sum of per-cell wall times — aggregate simulation compute, which
    /// exceeds elapsed time on a multi-threaded pool.
    pub cell_wall_ns_total: u64,
    /// Mean per-cell wall time.
    pub cell_wall_ns_mean: u64,
    /// Per-phase wall-time summary.
    pub timing: CampaignTiming,
}

/// How a campaign sources its trace record streams.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TracePolicy {
    /// Regenerate the stream per cell with `WorkloadGen` (the historical
    /// behaviour; no artifact memory footprint).
    Generate,
    /// Freeze each `(workload, seed)` stream once per campaign and
    /// replay it from a shared in-memory artifact (bit-identical to
    /// generation; the default).
    #[default]
    Memoize,
    /// [`TracePolicy::Memoize`] plus an on-disk artifact cache, so
    /// repeated campaign invocations skip generation entirely.
    Disk(PathBuf),
}

/// Executes [`ScenarioGrid`]s under one [`SimConfig`] (whose system spec
/// each cell's scenario overrides): lowers the grid to a [`TaskPlan`]
/// and runs it (or one shard of it) on the worker pool, optionally
/// checkpointing completions to a [`Journal`] and resuming from one.
#[derive(Debug, Clone)]
pub struct Campaign {
    cfg: SimConfig,
    threads: usize,
    progress: ProgressConfig,
    traces: TracePolicy,
    journal: Option<PathBuf>,
    resume: bool,
    excluded: HashSet<CellKey>,
    clock: Arc<dyn Clock>,
}

impl Campaign {
    /// Creates a campaign running under `cfg` with one worker per
    /// available hardware thread.
    pub fn new(cfg: SimConfig) -> Self {
        Campaign {
            cfg,
            threads: pool::default_threads(),
            progress: ProgressConfig::off(),
            traces: TracePolicy::default(),
            journal: None,
            resume: false,
            excluded: HashSet::new(),
            clock: Arc::new(MonotonicClock::new()),
        }
    }

    /// Sets the worker-pool width. `1` reproduces the historical serial
    /// behaviour exactly (inline execution, no pool).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables per-cell progress lines on stderr (shorthand for
    /// [`Self::progress_config`] with
    /// [`ProgressConfig::per_cell`] / [`ProgressConfig::off`]).
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = if on {
            ProgressConfig::per_cell()
        } else {
            ProgressConfig::off()
        };
        self
    }

    /// Sets the full progress-reporting configuration (mode + emission
    /// interval) — what `sweep --progress[=SECS]` / `--progress-json`
    /// drive.
    pub fn progress_config(mut self, cfg: ProgressConfig) -> Self {
        self.progress = cfg;
        self
    }

    /// Injects the clock used for all campaign telemetry (phase timers,
    /// per-cell `wall_ns`, progress rate-limiting). Defaults to the real
    /// [`MonotonicClock`]; tests inject a
    /// [`MockClock`](crate::telemetry::MockClock) for deterministic
    /// timing.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the trace-sourcing policy (default:
    /// [`TracePolicy::Memoize`] — freeze each workload's stream once and
    /// replay it for every cell).
    pub fn traces(mut self, policy: TracePolicy) -> Self {
        self.traces = policy;
        self
    }

    /// Checkpoints completed cells to an append-only JSONL journal at
    /// `path`. Without [`Self::resume`], the file is truncated and
    /// started fresh; with it, previously completed cells are restored
    /// and skipped.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Resumes from the configured [`Self::journal`] (no-op without
    /// one): completed cells recorded there are restored instead of
    /// re-simulated, after verifying the journal belongs to this exact
    /// plan. A missing journal file simply starts fresh.
    pub fn resume(mut self, on: bool) -> Self {
        self.resume = on;
        self
    }

    /// Excludes (quarantines) specific cells from **execution**: a cell
    /// whose [`CellKey`] is listed is never simulated, though one
    /// already completed in a resume journal is still restored. This is
    /// the orchestrator's quarantine hand-off (`sweep --skip-cells`): a
    /// worker relaunched after repeated crashes on one cell skips it and
    /// completes the rest of its shard, degrading gracefully instead of
    /// crash-looping. The resulting [`ShardOutput`] simply lacks the
    /// excluded cells, which the supervisor accounts for in its
    /// partial-result manifest.
    pub fn exclude(mut self, keys: impl IntoIterator<Item = CellKey>) -> Self {
        self.excluded.extend(keys);
        self
    }

    /// The simulation configuration cells run under.
    pub fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs every cell of `grid`; no baselines, `speedup` is `None`.
    pub fn run(&self, grid: &ScenarioGrid) -> CampaignResult {
        self.run_whole(grid, false)
    }

    /// Runs every cell of `grid` and computes each cell's speedup over
    /// the NoCache baseline. Baselines are memoized: exactly one NoCache
    /// simulation per `(workload, system spec, seed)` in the whole
    /// campaign, prefilled in parallel before the design cells run.
    pub fn run_speedups(&self, grid: &ScenarioGrid) -> CampaignResult {
        self.run_whole(grid, true)
    }

    /// Builds the shared trace store for this campaign's policy.
    fn trace_store(&self) -> Option<Arc<TraceStore>> {
        match &self.traces {
            TracePolicy::Generate => None,
            TracePolicy::Memoize => Some(Arc::new(TraceStore::new())),
            TracePolicy::Disk(dir) => Some(Arc::new(TraceStore::new().with_dir(dir))),
        }
    }

    /// Generic order-preserving parallel map on this campaign's pool —
    /// for experiments whose cells are not plain
    /// (design, size, workload) simulations (custom policies, shadow
    /// predictors).
    pub fn map<I, T, F>(&self, items: &[I], f: F) -> Vec<T>
    where
        I: Sync,
        T: Send,
        F: Fn(&I) -> T + Sync,
    {
        parallel_map(items, self.threads, f)
    }

    fn run_whole(&self, grid: &ScenarioGrid, speedups: bool) -> CampaignResult {
        self.run_plan(grid, speedups, ShardSpec::WHOLE)
            .into_campaign_result()
            .expect("the whole-plan shard covers every planned cell")
    }

    /// Opens (or resumes) the configured journal for `plan`, returning
    /// the journal handle and the completed cells it already records.
    ///
    /// # Panics
    ///
    /// Panics when the journal cannot be created, or when resuming a
    /// journal that belongs to a different campaign — silently mixing
    /// results from two plans must never happen.
    fn open_journal(&self, plan: &TaskPlan) -> (Option<Journal>, Vec<IndexedCell>) {
        match &self.journal {
            None => (None, Vec::new()),
            Some(path) if self.resume => match Journal::resume(path, plan) {
                Ok((j, entries)) => (Some(j), entries),
                Err(e) => panic!("cannot resume campaign: {e}"),
            },
            Some(path) => match Journal::create(path, plan) {
                Ok(j) => (Some(j), Vec::new()),
                Err(e) => panic!("cannot create campaign journal at {}: {e}", path.display()),
            },
        }
    }

    /// Lowers `grid` to a [`TaskPlan`] and runs the cells
    /// [`TaskPlan::shard`] assigns to `shard` (minus any restored from a
    /// resume journal), longest predicted first, with exactly the trace
    /// freezes and baselines those cells depend on. `speedups` selects
    /// [`Self::run_speedups`] semantics. The cells simulate
    /// bit-identically to the same cells inside a full single-process
    /// run; the returned [`ShardOutput`] serializes to JSON, and
    /// [`merge_shards`](crate::merge_shards) combines a complete set of
    /// them into a [`CampaignResult`] bit-identical to
    /// [`Self::run_speedups`] (or [`Self::run`]) on one machine.
    pub fn run_plan(&self, grid: &ScenarioGrid, speedups: bool, shard: ShardSpec) -> ShardOutput {
        let plan = TaskPlan::lower(&self.cfg, grid, speedups);
        let assigned = plan.shard(shard);
        let assigned_set: HashSet<usize> = assigned.iter().copied().collect();

        let telemetry = Telemetry::new(Arc::clone(&self.clock));
        let (journal, mut restored) = self.open_journal(&plan);
        restored.retain(|e| assigned_set.contains(&e.index));
        restored.sort_by_key(|e| e.index);
        if self.progress.banners() && !restored.is_empty() {
            eprintln!(
                "[harness] restored {} completed cell(s) from journal {}",
                restored.len(),
                journal
                    .as_ref()
                    .map(|j| j.path().display().to_string())
                    .unwrap_or_default()
            );
        }
        let mut skip: HashSet<usize> = restored.iter().map(|e| e.index).collect();
        if !self.excluded.is_empty() {
            // Quarantined cells: never execute (restored ones above are
            // kept — a journaled completion is a completion).
            skip.extend(
                plan.cells
                    .iter()
                    .filter(|pc| self.excluded.contains(&pc.key))
                    .map(|pc| pc.index),
            );
        }
        let to_run: Vec<usize> = assigned
            .iter()
            .copied()
            .filter(|i| !skip.contains(i))
            .collect();

        // Dependency stages: freeze exactly the trace artifacts and
        // simulate exactly the baselines the cells about to run need.
        let traces = self.trace_store();
        if let Some(traces) = &traces {
            let mut needed: Vec<usize> = to_run.iter().map(|&i| plan.cells[i].prefill).collect();
            needed.sort_unstable();
            needed.dedup();
            let tasks: Vec<TracePrefillTask> = needed
                .into_iter()
                .map(|i| plan.prefills[i].clone())
                .collect();
            if self.progress.banners() && !tasks.is_empty() {
                eprintln!(
                    "[harness] freezing {} trace artifact(s) on {} thread(s)",
                    tasks.len(),
                    self.threads
                );
            }
            telemetry.time_phase(Phase::TracePrefill, || {
                traces.prefill(&tasks, self.threads);
            });
            if self.progress.banners() && !tasks.is_empty() {
                let held = traces.held();
                eprintln!(
                    "[harness] froze {} trace artifact(s): {:.1} MiB, {:.2} B/record",
                    held.artifacts,
                    held.bytes as f64 / (1u64 << 20) as f64,
                    held.bytes as f64 / held.records.max(1) as f64
                );
            }
        }
        let store = speedups.then(|| {
            let mut store = BaselineStore::new(self.cfg);
            if let Some(traces) = &traces {
                store = store.with_traces(Arc::clone(traces));
            }
            store
        });
        if let Some(store) = &store {
            let mut needed: Vec<usize> = to_run
                .iter()
                .filter_map(|&i| plan.cells[i].baseline)
                .collect();
            needed.sort_unstable();
            needed.dedup();
            let tasks: Vec<&BaselineTask> = needed.iter().map(|&i| &plan.baselines[i]).collect();
            if self.progress.banners() && !tasks.is_empty() {
                eprintln!(
                    "[harness] prefilling {} baseline(s) on {} thread(s)",
                    tasks.len(),
                    self.threads
                );
            }
            telemetry.time_phase(Phase::Baseline, || {
                pool::parallel_map_observed(
                    &tasks,
                    self.threads,
                    |t| {
                        store.get_for_system(&t.workload, &t.system, t.seed);
                    },
                    &|t| format!("NoCache baseline for {} (seed {})", t.workload.name, t.seed),
                    &mut |_, ()| {},
                );
            });
        }

        // Live-progress snapshots of the dependency-cache counters.
        let counters = || CounterSnapshot {
            baseline_runs: store.as_ref().map_or(0, BaselineStore::computed_runs),
            baseline_hits: store.as_ref().map_or(0, BaselineStore::cache_hits),
            trace_generated: traces.as_ref().map_or(0, |t| t.generated_traces()),
            trace_memo_hits: traces.as_ref().map_or(0, |t| t.memo_hits()),
            trace_disk_hits: traces.as_ref().map_or(0, |t| t.disk_hits()),
        };
        // `to_run` is in start order (longest predicted first), so the
        // pool never leaves a long cell for its last wave.
        let tasks: Vec<&PlannedCell> = to_run.iter().map(|&i| &plan.cells[i]).collect();
        let costs: Vec<u64> = tasks.iter().map(|pc| pc.cost).collect();
        let mut reporter = ProgressReporter::new(
            self.progress,
            self.threads,
            &costs,
            restored.len(),
            telemetry.now_ns(),
        );
        let executed = telemetry.time_phase(Phase::Cells, || {
            pool::parallel_map_observed(
                &tasks,
                self.threads,
                |pc| {
                    fault::check_cell_start(&pc.key.hex());
                    // Stamped on the worker thread: wall time of this
                    // cell's simulation alone, excluding queueing.
                    let start = telemetry.now_ns();
                    let mut r = self.run_cell(&pc.cell, store.as_ref(), traces.as_deref());
                    r.wall_ns = telemetry.now_ns().saturating_sub(start);
                    r
                },
                // The [key=…] tag is machine-parseable culprit identity:
                // the orchestrator greps a dead worker's log for it to
                // decide which cell to quarantine.
                &|pc| format!("{} [key={}]", pc.cell.describe(), pc.key.hex()),
                &mut |slot, r: &CellResult| {
                    let pc = tasks[slot];
                    if let Some(j) = &journal {
                        j.append(&IndexedCell {
                            index: pc.index,
                            key: pc.key.hex(),
                            result: r.clone(),
                        });
                    }
                    if let Some(line) = reporter.on_cell(
                        telemetry.now_ns(),
                        r.design(),
                        &pc.cell.describe(),
                        r.wall_ns,
                        pc.cost,
                        counters(),
                    ) {
                        eprintln!("{line}");
                    }
                    // After the journal append: the cells counted as
                    // completed really are durable when this fires.
                    fault::cell_completed(&pc.key.hex());
                },
            )
        });

        let resumed_cells = restored.len();
        let mut cells = restored;
        cells.extend(tasks.iter().zip(executed).map(|(pc, r)| IndexedCell {
            index: pc.index,
            key: pc.key.hex(),
            result: r,
        }));
        cells.sort_by_key(|e| e.index);
        ShardOutput {
            fingerprint: plan.fingerprint().to_string(),
            total_cells: plan.len(),
            shard_index: shard.index,
            shard_count: shard.count,
            speedups,
            cells,
            baseline_runs: store.as_ref().map_or(0, BaselineStore::computed_runs),
            baseline_hits: store.as_ref().map_or(0, BaselineStore::cache_hits),
            trace_generated: traces.as_ref().map_or(0, |t| t.generated_traces()),
            trace_memo_hits: traces.as_ref().map_or(0, |t| t.memo_hits()),
            trace_disk_hits: traces.as_ref().map_or(0, |t| t.disk_hits()),
            resumed_cells,
            timing: telemetry.timing(),
        }
    }

    fn run_cell(
        &self,
        cell: &Cell,
        store: Option<&BaselineStore>,
        traces: Option<&TraceStore>,
    ) -> CellResult {
        let mut cfg = self.cfg;
        cfg.seed = cell.seed;
        cfg.system = cell.scenario.system;
        let tag = |speedup: Option<f64>, run: RunResult| CellResult {
            scenario: cell.scenario.name.clone(),
            system: cell.scenario.system,
            cores: cell.scenario.system.resolved_cores(&cell.workload),
            seed: cell.seed,
            speedup,
            run,
            // Stamped by run_plan's run hook; stays 0 for cells built
            // outside a plan (tests, NoCache baseline reuse).
            wall_ns: 0,
        };
        // The shared artifact for this cell's (workload, system, seed),
        // when trace sharing is on. Held across the run; clones of the
        // Arc are O(1) and the payload is never copied.
        let artifact = traces.map(|t| {
            let plan = cfg.trace_plan(&cell.workload, cell.cache_bytes);
            t.get(&plan.scaled_spec, cell.seed, plan.frozen_len)
        });
        let source = artifact
            .as_ref()
            .map_or(TraceSource::Live, |a| TraceSource::Replay(a));
        match store {
            Some(store) => {
                let base = store.get_for_system(&cell.workload, &cell.scenario.system, cell.seed);
                if cell.design == Design::NoCache {
                    // The baseline *is* this cell's run; reuse it. Key the
                    // result by the cell's declared size so grid-coordinate
                    // lookups stay uniform.
                    let mut run = base;
                    run.cache_bytes = cell.cache_bytes;
                    tag(Some(1.0), run)
                } else {
                    let s = run_speedup_with_baseline_source(
                        cell.design,
                        cell.cache_bytes,
                        &cell.workload,
                        &cfg,
                        &base,
                        source,
                    );
                    tag(Some(s.speedup), s.run)
                }
            }
            None => tag(
                None,
                run_experiment_with_source(
                    cell.design,
                    cell.cache_bytes,
                    &cell.workload,
                    &cfg,
                    source,
                ),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_trace::workloads;

    fn tiny_grid() -> ScenarioGrid {
        ScenarioGrid::new()
            .designs([Design::Unison, Design::Ideal])
            .workloads([workloads::web_search(), workloads::data_serving()])
            .sizes([256 << 20])
    }

    #[test]
    fn plain_run_has_no_speedups() {
        let r = Campaign::new(SimConfig::quick_test())
            .threads(1)
            .run(&tiny_grid());
        assert_eq!(r.cells.len(), 4);
        assert!(r.cells.iter().all(|c| c.speedup.is_none()));
        assert_eq!(r.baseline_runs, 0);
    }

    #[test]
    fn speedup_run_memoizes_baselines() {
        let r = Campaign::new(SimConfig::quick_test())
            .threads(2)
            .run_speedups(&tiny_grid());
        assert_eq!(r.cells.len(), 4);
        assert!(r.cells.iter().all(|c| c.speedup.is_some()));
        // Two workloads, one seed: exactly two baseline simulations.
        assert_eq!(r.baseline_runs, 2);
        assert!(r.baseline_hits >= 4, "every cell reuses its baseline");
    }

    #[test]
    fn lookup_helpers_find_cells() {
        let r = Campaign::new(SimConfig::quick_test())
            .threads(1)
            .run_speedups(&tiny_grid());
        let c = r
            .get("Web Search", "Unison", 256 << 20)
            .expect("cell exists");
        assert_eq!(c.workload(), "Web Search");
        assert!(c.speedup.unwrap() > 0.0);
        assert_eq!(r.speedups("Ideal", 256 << 20).len(), 2);
        assert!(r.geomean_speedup("Ideal", 256 << 20).unwrap() > 1.0);
        assert!(r.get("Web Search", "Alloy", 256 << 20).is_none());
    }

    #[test]
    fn trace_memoization_is_bit_identical_to_regeneration() {
        let grid = tiny_grid();
        let generated = Campaign::new(SimConfig::quick_test())
            .threads(1)
            .traces(TracePolicy::Generate)
            .run_speedups(&grid);
        let memoized = Campaign::new(SimConfig::quick_test())
            .threads(2)
            .traces(TracePolicy::Memoize)
            .run_speedups(&grid);
        assert_eq!(
            serde_json::to_string(&generated.canonical_cells()).unwrap(),
            serde_json::to_string(&memoized.canonical_cells()).unwrap(),
            "replayed campaign diverged from regenerating campaign"
        );
        assert_eq!(generated.trace_generated, 0);
        // Two (workload, seed) streams, frozen exactly once each.
        assert_eq!(memoized.trace_generated, 2);
        assert!(
            memoized.trace_memo_hits >= 4,
            "every cell and baseline replays the shared artifact, got {}",
            memoized.trace_memo_hits
        );
    }

    #[test]
    fn disk_policy_survives_campaign_invocations() {
        let dir = std::env::temp_dir().join(format!(
            "unison-campaign-trace-cache-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = ScenarioGrid::new()
            .designs([Design::Ideal])
            .workloads([workloads::web_search()])
            .sizes([256 << 20]);

        let first = Campaign::new(SimConfig::quick_test())
            .threads(1)
            .traces(TracePolicy::Disk(dir.clone()))
            .run_speedups(&grid);
        assert_eq!(first.trace_generated, 1);
        assert_eq!(first.trace_disk_hits, 0);

        let second = Campaign::new(SimConfig::quick_test())
            .threads(1)
            .traces(TracePolicy::Disk(dir.clone()))
            .run_speedups(&grid);
        assert_eq!(
            second.trace_generated, 0,
            "second invocation loads from disk"
        );
        assert_eq!(second.trace_disk_hits, 1);
        assert_eq!(
            serde_json::to_string(&first.canonical_cells()).unwrap(),
            serde_json::to_string(&second.canonical_cells()).unwrap()
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pool width is a throughput knob, not a semantic one: running the
    /// same cells on one worker or three must not change a single
    /// canonical byte of the campaign output.
    #[test]
    fn pool_width_is_bit_identical() {
        let grid = ScenarioGrid::new()
            .designs([
                Design::Unison,
                Design::Alloy,
                Design::Ideal,
                Design::NoCache,
            ])
            .workloads([workloads::web_search(), workloads::data_serving()])
            .sizes([256 << 20]);
        let serial = Campaign::new(SimConfig::quick_test())
            .threads(1)
            .run_speedups(&grid);
        let pooled = Campaign::new(SimConfig::quick_test())
            .threads(3)
            .run_speedups(&grid);
        assert_eq!(
            serde_json::to_string(&serial.canonical_cells()).unwrap(),
            serde_json::to_string(&pooled.canonical_cells()).unwrap(),
            "a 3-thread campaign diverged from the serial run"
        );
        // Every simulated cell carries its own wall time. (NoCache cells
        // reuse the baseline; their near-instant fetch may round to 0 ns,
        // so only simulated cells are asserted.)
        assert!(pooled
            .cells
            .iter()
            .filter(|c| c.design() != "NoCache")
            .all(|c| c.wall_ns > 0));
    }

    #[test]
    fn executed_cells_are_stamped_with_wall_time_from_the_injected_clock() {
        use std::sync::atomic::{AtomicU64, Ordering};

        /// Deterministic test clock: every reading advances 1 µs, so any
        /// (start, end) pair differs by a positive, repeatable amount.
        #[derive(Debug, Default)]
        struct TickClock(AtomicU64);
        impl Clock for TickClock {
            fn now_ns(&self) -> u64 {
                self.0.fetch_add(1_000, Ordering::Relaxed)
            }
        }

        let r = Campaign::new(SimConfig::quick_test())
            .threads(1)
            .clock(Arc::new(TickClock::default()))
            .run_speedups(&tiny_grid());
        assert!(
            r.cells.iter().all(|c| c.wall_ns > 0),
            "every executed cell must carry a positive wall time"
        );
        assert!(r.timing.cells_ns > 0, "cells phase must be timed");
        assert!(r.timing.baseline_ns > 0, "baseline phase must be timed");
        assert_eq!(
            r.timing.total_ns,
            r.timing.trace_prefill_ns + r.timing.baseline_ns + r.timing.cells_ns
        );
        // Canonicalization strips all of it.
        assert!(r.canonical_cells().iter().all(|c| c.wall_ns == 0));
    }

    #[test]
    fn nocache_cells_reuse_the_baseline() {
        let grid = ScenarioGrid::new()
            .designs([Design::NoCache, Design::Ideal])
            .workloads([workloads::web_search()])
            .sizes([256 << 20]);
        let r = Campaign::new(SimConfig::quick_test())
            .threads(1)
            .run_speedups(&grid);
        assert_eq!(r.baseline_runs, 1, "NoCache cell must not re-simulate");
        let nc = r
            .get("Web Search", "NoCache", 256 << 20)
            .expect("baseline cell");
        assert_eq!(nc.speedup, Some(1.0));
    }

    #[test]
    fn scenario_axis_runs_distinct_machines_with_distinct_baselines() {
        use unison_sim::{Scenario, SystemSpec};
        let quad = Scenario::from_spec(SystemSpec {
            cores: Some(4),
            ..SystemSpec::default()
        });
        let grid = ScenarioGrid::new()
            .designs([Design::Unison])
            .workloads([workloads::web_search()])
            .sizes([256 << 20])
            .scenarios([Scenario::default(), quad]);
        let r = Campaign::new(SimConfig::quick_test())
            .threads(2)
            .run_speedups(&grid);
        assert_eq!(r.cells.len(), 2);
        assert_eq!(
            r.baseline_runs, 2,
            "each machine gets its own NoCache baseline"
        );
        // Different core counts generate different traces, so the two
        // cells must also freeze two distinct artifacts.
        assert_eq!(r.trace_generated, 2, "per-machine trace artifacts");
        let default = r
            .get_in_scenario("default", "Web Search", "Unison", 256 << 20, 42)
            .expect("default cell");
        let quad = r
            .get_in_scenario("c4", "Web Search", "Unison", 256 << 20, 42)
            .expect("c4 cell");
        assert_eq!(default.cores, 16);
        assert_eq!(quad.cores, 4);
        assert_ne!(
            default.run.uipc, quad.run.uipc,
            "core count must change the measured result"
        );
        // The scenario helpers slice per machine.
        assert_eq!(r.speedups_in_scenario("c4", "Unison", 256 << 20).len(), 1);
        assert!(r
            .geomean_speedup_in_scenario("default", "Unison", 256 << 20)
            .is_some());
    }

    #[test]
    fn scenarios_sharing_a_machine_share_baseline_and_trace() {
        use unison_sim::{Scenario, SystemSpec};
        // Same system spec under two names: one baseline, one artifact.
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
            .sizes([256 << 20])
            .scenarios([a, b]);
        let r = Campaign::new(SimConfig::quick_test())
            .threads(1)
            .run_speedups(&grid);
        assert_eq!(r.baseline_runs, 1, "identical machines share a baseline");
        assert_eq!(r.trace_generated, 1, "identical machines share a trace");
        assert_eq!(
            serde_json::to_string(&r.cells[0].run).unwrap(),
            serde_json::to_string(&r.cells[1].run).unwrap(),
            "same machine, same workload, same seed => same result"
        );
    }
}
