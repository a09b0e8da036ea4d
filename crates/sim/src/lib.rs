//! Trace-driven multicore system simulator and experiment runner.
//!
//! This crate stands in for the paper's Flexus + SimFlex full-system
//! methodology (§IV-A). The substitution, documented under "Methodology
//! notes" in the repository README:
//!
//! * **Cores** use an interval model ([`CoreParams`]): instruction gaps
//!   execute at a base IPC; loads stall the core for whatever part of the
//!   DRAM-cache-level latency an out-of-order window can't hide; stores
//!   are fire-and-forget (but still consume bandwidth).
//! * **Critical-block-first**: a trigger miss only stalls its core for the
//!   demanded block's path; the rest of the footprint transfers in the
//!   background and shows up solely as DRAM bus/bank occupancy — which is
//!   how the paper argues footprint fetching is affordable.
//! * **Warmup**: the first fraction of each trace warms the cache with
//!   statistics discarded, mirroring the paper's use of two thirds of
//!   each trace for warmup.
//! * The performance metric is **user instructions per cycle across the
//!   16-core pod** (UIPC), the throughput proxy the paper measures, and
//!   speedups are computed against the [`unison_core::NoCache`] baseline.
//!
//! # Example
//!
//! ```
//! use unison_sim::{Design, SimConfig, run_experiment};
//! use unison_trace::workloads;
//!
//! let cfg = SimConfig::quick_test();
//! let r = run_experiment(Design::Unison, 64 << 20, &workloads::web_search(), &cfg);
//! assert!(r.uipc > 0.0);
//! assert!(r.cache.miss_ratio() < 1.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod core_model;
mod metrics;
mod runner;
pub mod scenario;
mod system;

pub use core_model::CoreParams;
pub use metrics::RunResult;
pub use runner::{
    replay_lookahead, run_baseline, run_experiment, run_experiment_with_source, run_speedup,
    run_speedup_with_baseline, run_speedup_with_baseline_source, ArtifactColumns, Design,
    SimConfig, SpeedupResult, TracePlan, TraceSource,
};
pub use scenario::{scenarios_from_json, Scenario, SystemSpec};
pub use system::{Buffered, DispatchSession, RecordSource, System};
