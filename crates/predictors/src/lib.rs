//! The prediction structures the three DRAM cache designs rely on.
//!
//! * [`FootprintTable`] + [`SingletonTable`] — the SMS-style footprint
//!   predictor shared by Footprint Cache and Unison Cache (§III-A.1–4 of
//!   the paper): footprints are learned per `(PC, offset)` pair at page
//!   eviction and predicted at page allocation.
//! * [`WayPredictor`] — Unison Cache's 2-bit, XOR-hash-indexed way
//!   predictor (§III-A.6) that lets a set-associative cache read only the
//!   predicted way.
//! * [`MissPredictor`] — Alloy Cache's MAP-I-style instruction-indexed
//!   hit/miss predictor (per-core 3-bit counters).
//!
//! All structures are plain-old-data state machines with explicit storage
//! budgets matching Table II of the paper; none allocates per operation.
//!
//! # Example
//!
//! ```
//! use unison_predictors::{Footprint, FootprintTable};
//!
//! let mut t = FootprintTable::paper_default(32);
//! // No history yet: conservative full-page default.
//! assert_eq!(t.predict(0x400, 3), None);
//! t.train(0x400, 3, Footprint::from_mask(0b1011, 32));
//! assert_eq!(t.predict(0x400, 3), Some(Footprint::from_mask(0b1011, 32)));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod footprint;
mod miss;
mod util;
mod way;

pub use footprint::{
    EvictionInfo, Footprint, FootprintTable, FpQuality, SingletonEntry, SingletonTable,
};
pub use miss::{MissPrediction, MissPredictor, MissSlot};
pub use util::{fold_hash, mix64, SatCounter};
pub use way::{WayPredictor, WaySlot};
