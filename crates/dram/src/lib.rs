//! Timestamp-forwarding DRAM timing and energy model.
//!
//! This crate is the reproduction's substitute for DRAMSim2, the
//! cycle-accurate memory simulator the Unison Cache paper integrates into
//! Flexus. Instead of stepping a DRAM state machine cycle by cycle, each
//! request's completion time is *computed* from the current per-bank
//! row-buffer state, the JEDEC-style inter-command timing constraints, and
//! data-bus occupancy. The model preserves the three DRAM behaviours the
//! paper's arguments rest on:
//!
//! 1. **Row-buffer locality** — back-to-back accesses to the same row skip
//!    the activate/precharge cost, which is what makes Unison Cache's
//!    overlapped tag + data reads (two CASes to one open row) and its cheap
//!    way-misprediction recovery work.
//! 2. **Bank-level parallelism** — independent banks serve requests
//!    concurrently, bounded by `tRRD`/`tFAW` activation throttles.
//! 3. **Bus serialization** — every burst occupies the channel data bus, so
//!    footprint overfetch and parallel-way fetches cost real bandwidth.
//!
//! Two presets mirror Table III of the paper: [`DramConfig::stacked`] (the
//! 4-channel, 128-bit, 1.6 GHz die-stacked cache DRAM) and
//! [`DramConfig::ddr3_1600`] (the single-channel, 64-bit off-chip DDR3).
//!
//! # Example
//!
//! ```
//! use unison_dram::{DramConfig, DramModel, Op, RowCol};
//!
//! let mut dram = DramModel::new(DramConfig::stacked());
//! // Read 64 bytes from column 96 of global row 7 at time 0.
//! let c = dram.access(0, Op::Read, RowCol::new(7, 96), 64);
//! assert!(c.first_data_ps > 0);
//! // A second read to the same row is a row-buffer hit and faster.
//! let c2 = dram.access(c.last_data_ps, Op::Read, RowCol::new(7, 160), 64);
//! assert!(c2.row_hit);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod address;
mod bank;
mod config;
mod energy;
mod model;
mod time;

pub use address::{FlatRoute, Location, RouteMap, RowCol};
pub use bank::BankState;
pub use config::{DramConfig, DramPreset, EnergyParams, Timings};
pub use energy::{EnergyBreakdown, EnergyCounters};
pub use model::{Completion, DramModel, DramStats, Op, Session};
pub use time::{cpu_cycles_to_ps, ps_to_cpu_cycles, Ps, CPU_CLOCK_MHZ};
