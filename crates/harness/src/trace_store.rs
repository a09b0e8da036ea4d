//! Memoized trace artifacts shared across a campaign.
//!
//! Every cell of a grid over one `(workload, seed)` replays the same
//! record stream; regenerating it per cell multiplies the RNG/Zipf
//! synthesis cost by the number of designs × sizes. This store freezes
//! each stream **once** as a [`TraceArtifact`] and hands every requester
//! the same `Arc` — modeled on [`crate::BaselineStore`], with two
//! extensions:
//!
//! * **Monotonic growth**: different cache sizes need different trace
//!   lengths (`SimConfig::trace_plan`), and a longer freeze of the same
//!   `(spec, seed)` is a strict prefix-extension of a shorter one. The
//!   store keeps one artifact per key and regenerates it longer when a
//!   bigger request arrives, so campaigns should prefill with their
//!   maximum length first (the [`crate::Campaign`] does).
//! * **Optional disk cache**: with a directory configured, artifacts are
//!   persisted as `trace-<key>.bin` (the codec's column encoding) and
//!   reloaded by later invocations — repeated campaigns skip generation
//!   entirely. Corrupted, truncated, or version-mismatched files are
//!   treated as misses and regenerated in place; the content key hashes
//!   the codec version, so a `codec::VERSION` bump automatically ignores
//!   stale files rather than misreading them.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use unison_trace::{artifact_key, TraceArtifact, WorkloadSpec};

/// Memo key: (serialized scaled workload spec, trace seed) — the same
/// full-spec keying as [`crate::BaselineStore`], so two specs sharing a
/// display name but differing in any knob get distinct artifacts.
type StoreKey = (String, u64);

/// One artifact slot. The outer mutex serializes generation per key:
/// concurrent first requests block until the one in-flight freeze
/// finishes, then share its result.
type Slot = Arc<Mutex<Option<Arc<TraceArtifact>>>>;

/// Totals over the artifacts a [`TraceStore`] holds in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HeldArtifacts {
    /// Artifacts held.
    pub artifacts: usize,
    /// Records across them.
    pub records: u64,
    /// Encoded bytes across them: what their columns occupy in memory,
    /// give or take a few bytes each.
    pub bytes: u64,
}

/// Exactly-once (per length high-water mark) store of frozen trace
/// artifacts, safe to share across the campaign worker pool.
pub struct TraceStore {
    dir: Option<PathBuf>,
    slots: Mutex<HashMap<StoreKey, Slot>>,
    generated: AtomicUsize,
    memo_hits: AtomicUsize,
    disk_hits: AtomicUsize,
}

impl TraceStore {
    /// Creates an empty in-memory store.
    pub fn new() -> Self {
        TraceStore {
            dir: None,
            slots: Mutex::new(HashMap::new()),
            generated: AtomicUsize::new(0),
            memo_hits: AtomicUsize::new(0),
            disk_hits: AtomicUsize::new(0),
        }
    }

    /// Adds a disk cache directory (created on first write). Artifacts
    /// are loaded from and persisted to `dir/trace-<key>.bin`.
    pub fn with_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.dir = Some(dir.into());
        self
    }

    /// The configured disk cache directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Returns an artifact for `(scaled_spec, seed)` holding at least
    /// `min_len` records, freezing (or growing) it on first request and
    /// serving the shared `Arc` afterwards.
    ///
    /// `scaled_spec` must be the spec the run actually generates with
    /// (i.e. `TracePlan::scaled_spec`), and `min_len` the plan's
    /// `frozen_len`; `unison_sim::run_experiment_with_source` re-derives
    /// and asserts both.
    pub fn get(&self, scaled_spec: &WorkloadSpec, seed: u64, min_len: u64) -> Arc<TraceArtifact> {
        let json = serde_json::to_string(scaled_spec).expect("workload spec serializes");
        let slot = {
            let mut map = self.slots.lock().expect("trace store map poisoned");
            Arc::clone(map.entry((json, seed)).or_default())
        };
        let mut guard = slot.lock().expect("trace store slot poisoned");
        if let Some(artifact) = guard.as_ref() {
            if artifact.len() as u64 >= min_len {
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(artifact);
            }
        }
        let key = artifact_key(scaled_spec, seed);
        if let Some(artifact) = self.load_disk(scaled_spec, key, seed, min_len) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            *guard = Some(Arc::clone(&artifact));
            return artifact;
        }
        self.generated.fetch_add(1, Ordering::Relaxed);
        let artifact = Arc::new(TraceArtifact::freeze(scaled_spec, seed, min_len));
        self.persist(&artifact);
        *guard = Some(Arc::clone(&artifact));
        artifact
    }

    /// Freezes every artifact in `tasks` in parallel on `threads`
    /// workers — the executor's trace-prefill stage. Each task should
    /// carry the maximum length any dependent cell replays (the planner
    /// guarantees this), so the per-key grow-on-demand path never
    /// regenerates mid-campaign.
    pub fn prefill(&self, tasks: &[crate::scheduler::TracePrefillTask], threads: usize) {
        crate::pool::parallel_map_observed(
            tasks,
            threads,
            |t| {
                self.get(&t.spec, t.seed, t.len);
            },
            &|t| format!("trace freeze for {} (seed {})", t.spec.name, t.seed),
            &mut |_, ()| {},
        );
    }

    /// Artifacts actually generated (including regrowth of too-short
    /// cached ones).
    pub fn generated_traces(&self) -> usize {
        self.generated.load(Ordering::Relaxed)
    }

    /// Requests served from the in-memory memo without generating.
    pub fn memo_hits(&self) -> usize {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Requests served by loading a persisted artifact from disk.
    pub fn disk_hits(&self) -> usize {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// What the store holds now. Waits for any freeze in flight.
    pub fn held(&self) -> HeldArtifacts {
        let slots: Vec<Slot> = self
            .slots
            .lock()
            .expect("trace store map poisoned")
            .values()
            .cloned()
            .collect();
        let mut held = HeldArtifacts::default();
        for slot in slots {
            if let Some(a) = slot.lock().expect("trace store slot poisoned").as_ref() {
                held.artifacts += 1;
                held.records += a.len() as u64;
                held.bytes += a.columns().encoded_len() as u64;
            }
        }
        held
    }

    fn disk_path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("trace-{key:016x}.bin")))
    }

    /// Records regenerated live and compared against a disk-loaded
    /// artifact's prefix before trusting it. The encoded file does not
    /// embed its spec or seed (the key only names the file), so a
    /// mislabeled file — renamed, copied between cache dirs, or a key
    /// collision — would otherwise pass every structural check and
    /// silently replay the wrong workload. A 64-record spot check
    /// (microseconds) catches that with overwhelming probability.
    const PREFIX_CHECK_RECORDS: usize = 64;

    /// Attempts to load `key` from the disk cache. Anything short of a
    /// fully valid artifact covering `min_len` — missing file, bad magic,
    /// stale codec version, truncation, corrupt records, too short, or a
    /// prefix that doesn't match live generation for `(spec, seed)` — is
    /// a miss: the caller regenerates and overwrites.
    fn load_disk(
        &self,
        spec: &WorkloadSpec,
        key: u64,
        seed: u64,
        min_len: u64,
    ) -> Option<Arc<TraceArtifact>> {
        let path = self.disk_path(key)?;
        let bytes = std::fs::read(&path).ok()?;
        match TraceArtifact::from_bytes(key, seed, bytes.into()) {
            Ok(artifact) if artifact.len() as u64 >= min_len => {
                let n = Self::PREFIX_CHECK_RECORDS.min(artifact.len());
                let fresh = unison_trace::WorkloadGen::new(spec.clone(), seed).take(n);
                if artifact.replay().take(n).eq(fresh) {
                    Some(Arc::new(artifact))
                } else {
                    eprintln!(
                        "[trace-store] cache file {} does not match its (spec, seed) — \
                         mislabeled or stale content; regenerating",
                        path.display()
                    );
                    None
                }
            }
            Ok(_) => None, // shorter than needed: regenerate longer
            Err(e) => {
                eprintln!(
                    "[trace-store] ignoring unusable cache file {} ({e}); regenerating",
                    path.display()
                );
                None
            }
        }
    }

    /// Persists `artifact` to the disk cache (write-to-temp + rename, so
    /// concurrent invocations never observe partial files). Disk errors
    /// only cost the cache, never the campaign: warn and continue.
    fn persist(&self, artifact: &TraceArtifact) {
        let Some(path) = self.disk_path(artifact.key()) else {
            return;
        };
        let dir = self.dir.as_ref().expect("disk_path implies dir");
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            let mut file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            artifact.write_to(&mut file)?;
            std::io::Write::flush(&mut file)?;
            drop(file);
            std::fs::rename(&tmp, &path)
        };
        if let Err(e) = write() {
            eprintln!(
                "[trace-store] failed to persist {} ({e}); continuing without disk cache",
                path.display()
            );
        }
    }
}

impl Default for TraceStore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_trace::codec;
    use unison_trace::workloads;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("unison-trace-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick_spec() -> WorkloadSpec {
        workloads::web_search().scaled(64)
    }

    #[test]
    fn memoizes_and_shares_one_arc() {
        let store = TraceStore::new();
        let spec = quick_spec();
        let a = store.get(&spec, 42, 1_000);
        let b = store.get(&spec, 42, 1_000);
        assert_eq!(store.generated_traces(), 1);
        assert_eq!(store.memo_hits(), 1);
        assert!(Arc::ptr_eq(&a, &b), "hits must share the same artifact");
        // A shorter request is also a hit on the existing artifact.
        let c = store.get(&spec, 42, 10);
        assert!(Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn held_totals_the_artifacts_in_memory() {
        let store = TraceStore::new();
        assert_eq!(store.held(), HeldArtifacts::default());
        let spec = quick_spec();
        let a = store.get(&spec, 1, 1_000);
        let b = store.get(&spec, 2, 500);
        store.get(&spec, 1, 10); // a memo hit adds nothing
        let held = store.held();
        assert_eq!((held.artifacts, held.records), (2, 1_500));
        let bytes = a.columns().to_vec().len() + b.columns().to_vec().len();
        assert_eq!(held.bytes, bytes as u64);
        assert!(held.bytes < 8 * 1_500 + 2_000, "{held:?}");
    }

    #[test]
    fn distinct_specs_and_seeds_get_distinct_artifacts() {
        let store = TraceStore::new();
        let spec = quick_spec();
        store.get(&spec, 1, 100);
        store.get(&spec, 2, 100);
        store.get(&workloads::web_search().scaled(32), 1, 100);
        assert_eq!(store.generated_traces(), 3);
    }

    #[test]
    fn grows_when_a_longer_trace_is_requested() {
        let store = TraceStore::new();
        let spec = quick_spec();
        let short = store.get(&spec, 7, 500);
        let long = store.get(&spec, 7, 2_000);
        assert_eq!(store.generated_traces(), 2, "regrowth regenerates");
        assert_eq!(long.len(), 2_000);
        // Prefix property: the grown artifact starts with the short one.
        assert_eq!(
            short.replay().collect::<Vec<_>>(),
            long.replay().take(500).collect::<Vec<_>>()
        );
        // And the store now serves the long one for any length <= 2000.
        let again = store.get(&spec, 7, 500);
        assert!(Arc::ptr_eq(&long, &again));
    }

    #[test]
    fn disk_cache_round_trips_across_store_instances() {
        let dir = scratch_dir("roundtrip");
        let spec = quick_spec();

        let first = TraceStore::new().with_dir(&dir);
        let a = first.get(&spec, 42, 1_000);
        assert_eq!(first.generated_traces(), 1);
        assert_eq!(first.disk_hits(), 0);

        // A fresh store (a new campaign invocation) loads from disk.
        let second = TraceStore::new().with_dir(&dir);
        let b = second.get(&spec, 42, 1_000);
        assert_eq!(second.generated_traces(), 0, "must load, not regenerate");
        assert_eq!(second.disk_hits(), 1);
        assert_eq!(
            a.replay().collect::<Vec<_>>(),
            b.replay().collect::<Vec<_>>()
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_disk_artifacts_are_regenerated_not_fatal() {
        let dir = scratch_dir("corrupt");
        let spec = quick_spec();
        let key = artifact_key(&spec, 42);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{key:016x}.bin"));

        for corruption in [
            b"garbage that is not a trace".to_vec(),
            {
                // Valid header, stale codec version.
                let good = TraceArtifact::freeze(&spec, 42, 10);
                let mut v = good.columns().to_vec();
                v[8] = codec::VERSION as u8 + 1;
                v
            },
            {
                // Truncated mid-record.
                let good = TraceArtifact::freeze(&spec, 42, 10);
                let v = good.columns().to_vec();
                v[..v.len() - 7].to_vec()
            },
        ] {
            std::fs::write(&path, &corruption).unwrap();
            let store = TraceStore::new().with_dir(&dir);
            let artifact = store.get(&spec, 42, 200);
            assert_eq!(store.generated_traces(), 1, "corrupt file must be a miss");
            assert_eq!(artifact.len(), 200);
            // The bad file was overwritten with a good one.
            let reread = TraceStore::new().with_dir(&dir);
            reread.get(&spec, 42, 200);
            assert_eq!(reread.disk_hits(), 1, "regenerated artifact persisted");
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mislabeled_disk_artifact_is_rejected_by_prefix_check() {
        let dir = scratch_dir("mislabel");
        let spec = quick_spec();
        let other = workloads::tpch().scaled(64);

        // Persist the *other* workload's artifact, then rename it to this
        // spec's key — structurally valid, wrong content.
        let wrong = TraceArtifact::freeze(&other, 42, 500);
        std::fs::create_dir_all(&dir).unwrap();
        let key = artifact_key(&spec, 42);
        std::fs::write(
            dir.join(format!("trace-{key:016x}.bin")),
            wrong.columns().to_vec(),
        )
        .unwrap();

        let store = TraceStore::new().with_dir(&dir);
        let artifact = store.get(&spec, 42, 500);
        assert_eq!(
            store.generated_traces(),
            1,
            "mislabeled file must be a miss, not silently replayed"
        );
        assert_eq!(store.disk_hits(), 0);
        // And the regenerated artifact really is this spec's stream.
        let fresh: Vec<_> = unison_trace::WorkloadGen::new(spec, 42).take(500).collect();
        assert_eq!(artifact.replay().collect::<Vec<_>>(), fresh);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn too_short_disk_artifact_is_grown_and_rewritten() {
        let dir = scratch_dir("grow");
        let spec = quick_spec();
        TraceStore::new().with_dir(&dir).get(&spec, 5, 100);

        let store = TraceStore::new().with_dir(&dir);
        let grown = store.get(&spec, 5, 1_000);
        assert_eq!(store.generated_traces(), 1, "short file is a miss");
        assert_eq!(grown.len(), 1_000);

        let reread = TraceStore::new().with_dir(&dir);
        assert_eq!(reread.get(&spec, 5, 1_000).len(), 1_000);
        assert_eq!(reread.disk_hits(), 1);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
