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
//! * [`TaskPlan`] ([`scheduler`]) — the grid lowers to an explicit task
//!   plan (trace prefills → baselines → cells, each cell keyed by a
//!   stable [`CellKey`] and carrying a predicted cost). One scheduler,
//!   [`TaskPlan::shard`], LPT-packs those costs into the cells each
//!   process runs, longest first: the whole plan in-process, or one
//!   `--shard I/N` of it, with [`merge_shards`] reassembling a complete
//!   set of [`ShardOutput`]s bit-identically to the single-process run.
//!   Every process derives the same schedule from the plan alone.
//! * [`Journal`] ([`journal`]) — append-only JSONL checkpoint of
//!   completed cells; `Campaign::journal(path).resume(true)` restores
//!   the completed prefix after an interruption (a kill, an OOM, a torn
//!   final append) and runs only the rest, bit-identical to an
//!   uninterrupted campaign.
//! * [`Telemetry`] ([`telemetry`]) + [`ProgressReporter`] ([`progress`])
//!   — campaign observability: phase timers and per-cell wall times
//!   under an injectable [`Clock`] (deterministic in tests via
//!   [`MockClock`]), and rate-limited live progress streams
//!   (human-readable or JSONL). Timing is observability, never
//!   identity: it feeds no key or fingerprint, and byte-identity
//!   checks compare [`CampaignResult::canonical_cells`] (timing
//!   stripped).
//!
//! # Example
//!
//! ```
//! use unison_harness::{Campaign, ScenarioGrid};
//! use unison_sim::{Design, SimConfig};
//! use unison_trace::workloads;
//!
//! let grid = ScenarioGrid::new()
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
pub mod errors;
mod grid;
pub mod journal;
pub mod pool;
pub mod progress;
pub mod scheduler;
pub mod sink;
pub mod stats;
pub mod telemetry;
mod trace_store;

pub use baseline::BaselineStore;
pub use campaign::{Campaign, CampaignResult, CampaignSummary, CellResult, TracePolicy};
pub use errors::{FileError, IoContext};
pub use grid::{Cell, ScenarioGrid};
pub use journal::{merge_shards, write_shard_output, IndexedCell, Journal, ShardOutput};
pub use progress::{CounterSnapshot, ProgressConfig, ProgressMode, ProgressReporter};
pub use scheduler::{CellKey, PlannedCell, ShardSpec, TaskPlan};
pub use telemetry::{CampaignTiming, Clock, MockClock, MonotonicClock, Phase, Telemetry};
pub use trace_store::{HeldArtifacts, TraceStore};
