//! Frozen trace artifacts: content-addressed, shareable, replayable.
//!
//! A campaign sweeping N designs × M sizes over one workload replays the
//! *same* `(spec, seed)` record stream N×M times. Regenerating it per cell
//! pays the full RNG/Zipf synthesis cost every time; a [`TraceArtifact`]
//! pays it **once**, freezing the stream in the [`crate::codec`] column
//! layout — one column of bit-packed entries per core plus a 1-byte
//! order stream, about 7 bytes per generated record — and
//! every subsequent consumer reads straight off the shared buffers: the
//! simulator's dispatch loop takes each core's records from its column,
//! and a [`TraceReplay`] cursor yields them in global order. No decode
//! `Vec`, no per-record heap allocation, and `Bytes` clones share
//! storage, so handing an artifact to a worker pool is O(1).
//!
//! Artifacts are **content-addressed**: [`artifact_key`] hashes the full
//! serialized workload spec, the seed, and the codec version into a
//! stable 64-bit key, so an on-disk cache can tell apart two specs that
//! share a display name and invalidates itself automatically when the
//! codec format (and therefore [`crate::codec::VERSION`]) changes.
//!
//! Replay is **bit-identical** to live generation: `artifact.replay()`
//! yields exactly the first `len` records of
//! `WorkloadGen::new(spec, seed)` (pinned by property tests and the
//! golden simulation fixtures).
//!
//! # Example
//!
//! ```
//! use unison_trace::{workloads, TraceArtifact, WorkloadGen};
//!
//! let spec = workloads::web_search().scaled(64);
//! let artifact = TraceArtifact::freeze(&spec, 7, 1_000);
//! let live: Vec<_> = WorkloadGen::new(spec, 7).take(1_000).collect();
//! let replayed: Vec<_> = artifact.replay().collect();
//! assert_eq!(live, replayed);
//! ```

use bytes::Bytes;

use crate::codec::{self, Columns, DecodeError};
use crate::gen::WorkloadGen;
use crate::spec::WorkloadSpec;

pub use crate::codec::TraceReplay;

/// Version of the **synthesis algorithm** behind `WorkloadGen`.
///
/// Bump this whenever a change to the generator stack (`gen.rs`,
/// `zipf.rs`, `profile.rs`, workload presets) alters the record stream
/// emitted for an unchanged `(spec, seed)` — the golden simulation
/// fixtures failing after a trace-crate change is the usual tell. The
/// value is folded into [`artifact_key`], so persisted artifact caches
/// from before the change stop being addressed instead of silently
/// replaying the outdated stream.
pub const GENERATOR_VERSION: u32 = 1;

/// Derives the stable content key for the trace of `(spec, seed)`.
///
/// The key is an FNV-1a 64 hash over the codec version, the generator
/// version ([`GENERATOR_VERSION`]), the full serialized spec (so two
/// specs sharing a display name but differing in any knob get distinct
/// keys), and the seed. Trace *length* is deliberately excluded: a
/// longer freeze of the same `(spec, seed)` is a strict prefix-extension
/// of a shorter one, so caches keep one artifact per key and grow it on
/// demand.
pub fn artifact_key(spec: &WorkloadSpec, seed: u64) -> u64 {
    let spec_json = serde_json::to_string(spec).expect("workload spec serializes");
    let mut h = Fnv1a::new();
    h.write(b"unison-trace-artifact");
    h.write(&codec::VERSION.to_le_bytes());
    h.write(&GENERATOR_VERSION.to_le_bytes());
    h.write(spec_json.as_bytes());
    h.write(&seed.to_le_bytes());
    h.finish()
}

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms
/// (unlike `DefaultHasher`, whose output is explicitly unspecified).
/// Public because every cross-process-stable key in the workspace
/// (trace-artifact keys here, the harness's cell keys and plan
/// fingerprints) must hash identically forever — one implementation,
/// not three copies to keep in sync.
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Starts a hash at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// A frozen, immutable trace: the first `len` records of
/// `WorkloadGen::new(spec, seed)` in the codec's column layout, plus the
/// content key that addresses it.
///
/// Cloning is cheap (the columns are shared [`Bytes`] buffers);
/// campaigns typically share one artifact behind an `Arc` anyway.
#[derive(Debug, Clone)]
pub struct TraceArtifact {
    key: u64,
    seed: u64,
    columns: Columns,
}

impl TraceArtifact {
    /// Generates and freezes the first `len` records of
    /// `WorkloadGen::new(spec, seed)` in one streaming pass, packing each
    /// record straight into its core's column under the layout the
    /// generator declares up front ([`WorkloadGen::layout`]). The
    /// generator hands each record over with its PC-table index, so
    /// packing looks nothing up.
    ///
    /// # Panics
    ///
    /// Panics if `spec` fails validation (same contract as
    /// [`WorkloadGen::new`]).
    pub fn freeze(spec: &WorkloadSpec, seed: u64, len: u64) -> Self {
        let len = usize::try_from(len).expect("trace length fits in memory");
        let mut gen = WorkloadGen::new(spec.clone(), seed);
        let mut enc = codec::Encoder::with_capacity(gen.layout(), spec.cores as usize, len);
        for _ in 0..len {
            let (r, index) = gen.next_indexed();
            enc.push(&r, index);
        }
        TraceArtifact {
            key: artifact_key(spec, seed),
            seed,
            columns: enc.finish(),
        }
    }

    /// Rehydrates an artifact from previously persisted bytes (e.g. a
    /// disk cache), fully validating it: header, version, layout, sizes,
    /// every order-stream core id against the column counts, **and**
    /// every entry's PC index — so reading it afterwards is infallible. The
    /// columns are views into `bytes`, not copies.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] found; corrupted cache files
    /// should be treated as misses and regenerated.
    pub fn from_bytes(key: u64, seed: u64, bytes: Bytes) -> Result<Self, DecodeError> {
        Ok(TraceArtifact {
            key,
            seed,
            columns: Columns::parse(bytes)?,
        })
    }

    /// The content key this artifact was frozen under (see
    /// [`artifact_key`]).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The trace seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of frozen records.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the artifact holds no records.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The per-core columns and order stream.
    pub fn columns(&self) -> &Columns {
        &self.columns
    }

    /// The encoded artifact, suitable for persisting verbatim and for
    /// [`Self::from_bytes`].
    ///
    /// # Errors
    ///
    /// Propagates `w`'s I/O errors.
    pub fn write_to<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.columns.write_to(w)
    }

    /// A zero-allocation cursor yielding the frozen records in global
    /// order.
    pub fn replay(&self) -> TraceReplay<'_> {
        self.columns.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    fn quick_spec() -> WorkloadSpec {
        workloads::data_serving().scaled(64)
    }

    #[test]
    fn replay_equals_live_generation() {
        let spec = quick_spec();
        let artifact = TraceArtifact::freeze(&spec, 42, 5_000);
        assert_eq!(artifact.len(), 5_000);
        let live: Vec<_> = WorkloadGen::new(spec, 42).take(5_000).collect();
        let replayed: Vec<_> = artifact.replay().collect();
        assert_eq!(replayed, live);
    }

    #[test]
    fn freeze_equals_the_live_stream_packed_by_pc_lookup() {
        for spec in workloads::all() {
            let spec = spec.scaled(64);
            let gen = WorkloadGen::new(spec.clone(), 5);
            let mut enc = codec::Encoder::with_capacity(gen.layout(), 0, 0);
            for r in gen.take(20_000) {
                let index = enc.layout().index_of(r.pc);
                enc.push(&r, index);
            }
            let frozen = TraceArtifact::freeze(&spec, 5, 20_000);
            assert_eq!(
                frozen.columns().to_vec(),
                enc.finish().to_vec(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn longer_freeze_is_a_prefix_extension() {
        let spec = quick_spec();
        let short = TraceArtifact::freeze(&spec, 9, 500);
        let long = TraceArtifact::freeze(&spec, 9, 2_000);
        let short_recs: Vec<_> = short.replay().collect();
        let long_prefix: Vec<_> = long.replay().take(500).collect();
        assert_eq!(short_recs, long_prefix);
    }

    #[test]
    fn key_depends_on_spec_seed_and_version_only() {
        let spec = quick_spec();
        assert_eq!(artifact_key(&spec, 1), artifact_key(&spec, 1));
        assert_ne!(artifact_key(&spec, 1), artifact_key(&spec, 2));
        let other = workloads::data_serving().scaled(32); // same name, new params
        assert_ne!(artifact_key(&spec, 1), artifact_key(&other, 1));
        let a = TraceArtifact::freeze(&spec, 1, 10);
        let b = TraceArtifact::freeze(&spec, 1, 999);
        assert_eq!(a.key(), b.key(), "length must not change the key");
    }

    #[test]
    fn from_bytes_round_trips() {
        let spec = quick_spec();
        let a = TraceArtifact::freeze(&spec, 3, 1_000);
        let mut encoded = Vec::new();
        a.write_to(&mut encoded).unwrap();
        let bytes = Bytes::from(encoded);
        let b = TraceArtifact::from_bytes(a.key(), 3, bytes.clone()).expect("valid payload");
        assert_eq!(b.len(), 1_000);
        assert_eq!(b.seed(), 3);
        let within = |p: *const u8| bytes.as_ptr_range().contains(&p);
        assert!(
            within(b.columns().order().as_ptr()),
            "rehydration must not copy the payload"
        );
        assert_eq!(
            a.replay().collect::<Vec<_>>(),
            b.replay().collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_bytes_rejects_corruption() {
        let spec = quick_spec();
        let a = TraceArtifact::freeze(&spec, 3, 10);
        let mut good = Vec::new();
        a.write_to(&mut good).unwrap();
        let load = |v: Vec<u8>| TraceArtifact::from_bytes(a.key(), 3, v.into()).err();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert_eq!(load(bad_magic), Some(DecodeError::BadMagic));

        let mut bad_version = good.clone();
        bad_version[8] = 99;
        assert_eq!(load(bad_version), Some(DecodeError::BadVersion(99)));

        assert_eq!(
            load(good[..good.len() - 5].to_vec()),
            Some(DecodeError::Truncated)
        );

        // Data Serving's 48 PCs take a 6-bit index, so 63 names no PC.
        let layout = a.columns().layout();
        assert_eq!(layout.pcs().len(), 48);
        let mut bad_index = good.clone();
        let last_entry = good.len() - codec::TAIL_BYTES - layout.entry_bytes();
        bad_index[last_entry] |= 63 << 1;
        assert_eq!(
            load(bad_index),
            Some(DecodeError::BadPcIndex(63)),
            "rehydration must validate every record, not just the header"
        );

        let mut bad_core = good.clone();
        let order_start = codec::HEADER_BYTES + 8 * (a.columns().cores() + layout.pcs().len());
        bad_core[order_start] = 200;
        assert_eq!(load(bad_core), Some(DecodeError::BadCore(200)));
    }

    #[test]
    fn replay_is_exact_size_and_clonable() {
        let artifact = TraceArtifact::freeze(&quick_spec(), 5, 100);
        let mut it = artifact.replay();
        assert_eq!(it.len(), 100);
        it.next();
        assert_eq!(it.len(), 99);
        let forked = it.clone();
        assert_eq!(it.collect::<Vec<_>>(), forked.collect::<Vec<_>>());
    }

    #[test]
    fn empty_artifact_is_fine() {
        let artifact = TraceArtifact::freeze(&quick_spec(), 5, 0);
        assert!(artifact.is_empty());
        assert_eq!(artifact.replay().count(), 0);
    }
}
