//! Property-based tests for the trace layer.

use proptest::prelude::*;
use unison_trace::codec::{self, decode, encode};
use unison_trace::{workloads, AccessKind, TraceArtifact, TraceRecord, WorkloadGen, Zipf};

fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (
        0u8..16,
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
        1u32..100_000,
    )
        .prop_map(|(core, w, pc, addr, igap)| TraceRecord {
            core,
            kind: if w {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            pc,
            addr,
            igap,
        })
}

proptest! {
    /// The binary codec roundtrips any record sequence bit-exactly.
    #[test]
    fn codec_roundtrips(records in proptest::collection::vec(arb_record(), 0..200)) {
        let bytes = encode(&records);
        let back = decode(&bytes).expect("decode");
        prop_assert_eq!(back, records);
    }

    /// Decoding never panics on arbitrary bytes (it returns errors).
    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let _ = decode(&bytes);
    }

    /// Past a valid magic and version, arbitrary bytes still only ever
    /// decode to an error or a complete record stream.
    #[test]
    fn decode_is_total_past_the_header(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        let mut buf = codec::MAGIC.to_vec();
        buf.extend_from_slice(&codec::VERSION.to_le_bytes());
        buf.extend_from_slice(&bytes);
        let _ = decode(&buf);
    }

    /// Rehydrating a mutated or truncated artifact never panics: it
    /// returns `Err`, or an artifact whose replay yields every record
    /// with an in-range core. An edit lands anywhere, in the header and
    /// column counts, or in the order stream with a value small enough
    /// to move a record to another real core instead of naming a core
    /// with no column.
    #[test]
    fn artifact_from_bytes_survives_mutation_and_truncation(
        seed in any::<u64>(),
        len in 0u64..300,
        edits in proptest::collection::vec((any::<u64>(), any::<u8>(), 0u8..3), 1..6),
        cut in any::<u64>(),
        truncate in any::<bool>(),
    ) {
        let spec = workloads::web_search().scaled(64);
        let good = TraceArtifact::freeze(&spec, seed, len);
        let mut bytes = Vec::new();
        good.write_to(&mut bytes).unwrap();
        let cores = good.columns().cores();
        let order_start = codec::HEADER_BYTES + 8 * cores;
        for (at, value, mode) in edits {
            let (start, span, value) = match mode {
                0 => (0, bytes.len(), value),
                1 => (0, order_start, value),
                _ if good.is_empty() => continue,
                _ => (order_start, good.len(), value % (cores as u8 + 1)),
            };
            bytes[start + (at % span as u64) as usize] = value;
        }
        if truncate {
            bytes.truncate((cut % bytes.len() as u64) as usize);
        }
        if let Ok(a) = TraceArtifact::from_bytes(good.key(), seed, bytes.into()) {
            let cores = a.columns().cores();
            let mut n = 0;
            for r in a.replay() {
                prop_assert!(usize::from(r.core) < cores);
                n += 1;
            }
            prop_assert_eq!(n, a.len());
            let total: usize = (0..cores).map(|c| a.columns().column(c).len()).sum();
            prop_assert_eq!(total, a.len());
        }
    }

    /// Replaying a frozen artifact yields the byte-identical record
    /// stream a fresh `WorkloadGen` produces, for every named workload at
    /// quick-test scale, for any seed and length.
    #[test]
    fn artifact_replay_equals_fresh_generation(seed in any::<u64>(), len in 0u64..800) {
        for w in workloads::all() {
            let spec = w.scaled(64);
            let artifact = TraceArtifact::freeze(&spec, seed, len);
            let live: Vec<_> = WorkloadGen::new(spec.clone(), seed).take(len as usize).collect();
            let replayed: Vec<_> = artifact.replay().collect();
            prop_assert_eq!(&replayed, &live, "workload {} seed {}", spec.name, seed);
            // The persisted form decodes back to the live stream, with
            // one column per core of the spec.
            prop_assert_eq!(decode(&artifact.columns().to_vec()).unwrap(), live);
            prop_assert_eq!(artifact.columns().cores(), spec.cores as usize);
        }
    }

    /// Zipf samples always land in range for any parameters.
    #[test]
    fn zipf_in_range(n in 1u64..1_000_000, theta in 0.0f64..2.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let z = Zipf::new(n, theta);
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Generators are deterministic and stay inside their address space
    /// for any seed.
    #[test]
    fn generator_determinism_and_bounds(seed in any::<u64>()) {
        let spec = workloads::web_serving().scaled(64);
        let limit = spec.mem_footprint_bytes;
        let a: Vec<_> = WorkloadGen::new(spec.clone(), seed).take(500).collect();
        let b: Vec<_> = WorkloadGen::new(spec, seed).take(500).collect();
        prop_assert_eq!(&a, &b);
        for r in a {
            prop_assert!(r.addr < limit);
            prop_assert!(r.igap >= 1);
            prop_assert!(r.core < 16);
        }
    }

    /// Scaling a workload never changes its ratio knobs, only the
    /// footprint.
    #[test]
    fn scaling_preserves_ratios(factor in 1u64..128) {
        for w in workloads::all() {
            let s = w.clone().scaled(factor);
            prop_assert_eq!(s.zipf_theta, w.zipf_theta);
            prop_assert_eq!(s.write_fraction, w.write_fraction);
            prop_assert_eq!(s.pattern_noise, w.pattern_noise);
            prop_assert!(s.mem_footprint_bytes <= w.mem_footprint_bytes);
        }
    }
}
