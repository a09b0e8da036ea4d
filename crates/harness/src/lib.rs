//! The experiment-campaign engine: declarative grids of
//! (design × scenario × size × workload × seed) cells executed by a
//! thread pool with memoized baselines and structured result sinks.
//!
//! The paper's evaluation is a large grid of independent simulations.
//! Every figure/table binary used to hand-roll a serial loop and
//! re-simulate the NoCache baseline per speedup; this crate factors that
//! into one engine:
//!
//! * [`ScenarioGrid`] — declare the axes (designs, scenarios, cache
//!   sizes, workloads, seeds), with per-workload size overrides for the
//!   CloudSuite-vs-TPC-H split the paper uses throughout. The scenario
//!   axis sweeps whole machines — `unison_sim::SystemSpec` points naming
//!   core counts, cache geometry, and DRAM presets; leaving it unset
//!   runs the paper's Table III system.
//! * [`Campaign`] — execute the grid's cells on `N` worker threads
//!   (`--threads 1` reproduces the historical serial behaviour exactly:
//!   simulations are deterministic and results are returned in grid
//!   order, so parallelism never changes output).
//! * [`BaselineStore`] — NoCache baselines are computed **once** per
//!   (workload, system spec, seed) and shared by every speedup in the
//!   campaign. A baseline for a 4-core machine is never reused for a
//!   16-core one: keys serialize the *full* specs.
//! * [`TraceStore`] — each (workload, seed) record stream is frozen
//!   **once** as a `unison_trace::TraceArtifact` and replayed zero-copy
//!   by every cell (bit-identical to live generation), optionally
//!   persisted to a disk cache so repeated invocations skip generation
//!   entirely. Opt out per campaign with
//!   [`Campaign::traces`]`(`[`TracePolicy::Generate`]`)`.
//! * [`CampaignResult`] — typed result set with lookup helpers,
//!   [`stats::geomean`] reductions, and JSON/CSV sinks ([`sink`]).
//! * [`TaskPlan`] / [`Executor`] ([`scheduler`]) — the grid lowers to an
//!   explicit task plan (trace prefills → baselines → cells, each cell
//!   keyed by a stable [`CellKey`]); executors run it in-process or as a
//!   deterministic `--shard I/N` partition ([`ShardedExecutor`]), and
//!   [`merge_shards`] reassembles a complete set of [`ShardOutput`]s
//!   bit-identically to the single-process run.
//! * [`Journal`] ([`journal`]) — append-only JSONL checkpoint of
//!   completed cells; `Campaign::journal(path).resume(true)` restores
//!   the completed prefix after an interruption and runs only the rest,
//!   bit-identical to an uninterrupted campaign.
//! * [`Telemetry`] ([`telemetry`]) + [`ProgressReporter`] ([`progress`])
//!   — campaign observability: phase timers and per-cell wall times
//!   under an injectable [`Clock`] (deterministic in tests via
//!   [`MockClock`]), and rate-limited live progress streams
//!   (human-readable or JSONL). Timing is observability, never
//!   identity: it feeds no key or fingerprint, and byte-identity
//!   checks compare [`CampaignResult::canonical_cells`] (timing
//!   stripped).
//! * [`CostModel`] ([`costs`]) — per-cell cost estimates learned from
//!   prior journals and shard outputs (with a structural prior for
//!   never-seen cells), persisted as `costs.json`. Drives LPT
//!   longest-first ordering in the in-process executor and the
//!   orchestrator's `--partition balanced` LPT bin-packing of cells
//!   onto workers, replacing the blind `key % N` split — scheduling
//!   only, never identity: canonical output stays byte-identical.
//! * [`orchestrator`] — the fault-tolerant campaign supervisor behind
//!   `sweep --orchestrate N`: journaled shard worker processes,
//!   crash-restart under bounded exponential backoff, repeat-offender
//!   cell quarantine, journal salvage, and an explicit partial-result
//!   [`CampaignManifest`] when the campaign degrades. Paired with
//!   [`fault`], a deterministic env-triggered fault-injection layer
//!   (`UNISON_FAULT=crash-after-cells:K`, `torn-journal`,
//!   `corrupt-shard-output`, `panic-on-cell:KEY`) that makes the
//!   recovery paths testable end to end.
//!
//! # Example
//!
//! ```
//! use unison_harness::{Campaign, ExperimentGrid};
//! use unison_sim::{Design, SimConfig};
//! use unison_trace::workloads;
//!
//! let grid = ExperimentGrid::new()
//!     .designs([Design::Unison, Design::Ideal])
//!     .workloads([workloads::web_search()])
//!     .sizes([256 << 20]);
//! let results = Campaign::new(SimConfig::quick_test())
//!     .threads(2)
//!     .run_speedups(&grid);
//! assert_eq!(results.cells().len(), 2);
//! assert_eq!(results.baseline_runs, 1); // one workload -> one baseline
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod baseline;
mod campaign;
pub mod costs;
pub mod errors;
pub mod fault;
mod grid;
pub mod journal;
pub mod orchestrator;
pub mod pool;
pub mod progress;
pub mod scheduler;
pub mod sink;
pub mod stats;
pub mod telemetry;
mod trace_store;

pub use baseline::BaselineStore;
pub use campaign::{Campaign, CampaignResult, CampaignSummary, CellResult, TracePolicy};
pub use costs::CostModel;
pub use errors::{FileError, IoContext};
pub use grid::{Cell, ExperimentGrid, ScenarioGrid};
pub use journal::{merge_shards, IndexedCell, Journal, ShardOutput};
pub use orchestrator::{
    CampaignManifest, OrchestrateOutcome, OrchestratorConfig, QuarantinedCell, WorkerLaunch,
    WorkerPaths, WorkerReport,
};
pub use progress::{
    CounterSnapshot, FleetProgress, ProgressConfig, ProgressMode, ProgressReporter, WorkerPhase,
    WorkerSample,
};
pub use scheduler::{
    BalancedExecutor, CellKey, ExecHooks, Executor, InProcessExecutor, PlannedCell, ShardSpec,
    ShardedExecutor, TaskPlan,
};
pub use telemetry::{CampaignTiming, Clock, MockClock, MonotonicClock, Phase, Telemetry};
pub use trace_store::{HeldArtifacts, TraceStore};
