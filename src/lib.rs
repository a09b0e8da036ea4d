//! Facade crate for the Unison Cache (MICRO 2014) reproduction.
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests can `use unison_repro::...`. See the repository
//! README for the architecture overview and the paper-to-crate mapping
//! ("Workspace layout"), and its "Scale substitution and workload
//! calibration" notes for how the synthetic traces stand in for the
//! paper's.

pub use unison_core as core;
pub use unison_dram as dram;
pub use unison_harness as harness;
pub use unison_predictors as predictors;
pub use unison_sim as sim;
pub use unison_trace as trace;
