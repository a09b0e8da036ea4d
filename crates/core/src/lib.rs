//! Die-stacked DRAM cache designs: the paper's contribution and its
//! baselines.
//!
//! This crate implements the five cache organizations the Unison Cache
//! paper evaluates, behind one trait ([`DramCacheModel`]):
//!
//! | Design | Paper role | Module |
//! |---|---|---|
//! | [`UnisonCache`] | the contribution (§III) | [`unison`] |
//! | [`AlloyCache`] | state-of-the-art block-based baseline (§II-A) | [`alloy`] |
//! | [`FootprintCache`] | state-of-the-art page-based baseline (§II-B) | [`footprint_cache`] |
//! | [`IdealCache`] | 100%-hit latency-optimized reference (§V.C) | [`ideal`] |
//! | [`NoCache`] | the speedup-1.0 baseline (all traffic off-chip) | [`nocache`] |
//!
//! All designs share the same two DRAM devices through [`MemPorts`], so
//! bandwidth contention, row-buffer behaviour, and energy are modeled
//! uniformly; they differ only in organization and prediction machinery —
//! exactly the comparison the paper makes.
//!
//! # Example
//!
//! ```
//! use unison_core::{DramCacheModel, MemPorts, Request, UnisonCache, UnisonConfig};
//!
//! let mut ports = MemPorts::paper_default();
//! let mut uc = UnisonCache::new(UnisonConfig::new(128 << 20));
//! let req = Request { core: 0, pc: 0x400, addr: 0x10_0000, is_write: false };
//! let a = uc.access(0, &req, &mut ports);
//! assert!(!a.hit()); // cold cache
//! assert!(a.critical_ps > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloy;
mod divisor;
pub mod footprint_cache;
pub mod ideal;
pub mod layout;
pub mod meta;
mod model;
pub mod nocache;
mod ports;
pub mod residue;
mod stats;
mod types;
pub mod unison;

pub use alloy::{AlloyCache, AlloyConfig};
pub use divisor::Divisor;
pub use footprint_cache::{FootprintCache, FootprintConfig};
pub use ideal::IdealCache;
pub use meta::{MetaStore, PageMeta, Replacement};
pub use model::{CacheAccess, DramCacheModel};
pub use nocache::NoCache;
pub use ports::MemPorts;
pub use stats::CacheStats;
pub use types::{AccessOutcome, Request, BLOCK_BYTES};
pub use unison::{UnisonCache, UnisonConfig, WayPolicy};
