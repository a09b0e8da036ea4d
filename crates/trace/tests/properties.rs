//! Property-based tests for the trace layer.

use proptest::prelude::*;
use unison_trace::codec::{self, decode, encode, Columns, Encoder, Layout};
use unison_trace::{workloads, AccessKind, TraceArtifact, TraceRecord, WorkloadGen, Zipf};

/// Records with arbitrary fields: edge-case and unaligned addresses,
/// gaps from 0 to `u32::MAX`, thousands of distinct PCs and 1–256
/// cores.
fn arb_records() -> impl Strategy<Value = Vec<TraceRecord>> {
    let addr = prop_oneof![
        any::<u64>(),
        Just(0u64),
        Just(u64::MAX),
        0u64..4096,
        any::<u64>().prop_map(|a| a << 20),
    ];
    let igap = prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>(), 0u32..1000];
    let fields = (any::<u8>(), any::<bool>(), any::<u64>(), addr, igap);
    (
        1u64..=256,
        1u64..5000,
        any::<u64>(),
        proptest::collection::vec(fields, 0..3000),
    )
        .prop_map(|(cores, pcs, pc_seed, fields)| {
            fields
                .into_iter()
                .map(|(core, w, pick, addr, igap)| TraceRecord {
                    core: (u64::from(core) % cores) as u8,
                    kind: if w {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    pc: (pick % pcs).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pc_seed,
                    addr,
                    igap,
                })
                .collect()
        })
}

/// Byte offset of the order stream in an encoded stream.
fn order_start(columns: &Columns) -> usize {
    codec::HEADER_BYTES + 8 * (columns.cores() + columns.layout().pcs().len())
}

proptest! {
    /// The binary codec roundtrips any record sequence bit-exactly,
    /// through the batch and streaming encoders and every read path.
    #[test]
    fn codec_roundtrips(records in arb_records()) {
        let bytes = encode(&records);
        let back = decode(&bytes).expect("decode");
        prop_assert_eq!(&back, &records);

        let mut enc = Encoder::with_capacity(Layout::of(&records), 256, records.len());
        for r in &records {
            let index = enc.layout().index_of(r.pc);
            enc.push(r, index);
        }
        let streamed = enc.finish();
        prop_assert_eq!(streamed.iter().collect::<Vec<_>>(), records.clone());
        let parsed = Columns::parse(streamed.to_vec().into()).expect("parse");
        prop_assert_eq!(parsed.encoded_len(), streamed.encoded_len());
        let filler = TraceRecord { core: 0, kind: AccessKind::Read, pc: 0, addr: 0, igap: 0 };
        let mut burst = [filler; 7];
        for c in 0..parsed.cores() {
            let mine: Vec<_> = records.iter().filter(|r| usize::from(r.core) == c).copied().collect();
            let col = parsed.column(c);
            prop_assert_eq!(col.len(), mine.len());
            let got: Vec<_> = (0..col.len()).map(|i| col.get(i).expect("in range")).collect();
            prop_assert_eq!(&got, &mine);
            prop_assert_eq!(col.get(col.len()), None);
            let mut via_bursts = Vec::new();
            loop {
                let n = col.decode_into(via_bursts.len(), &mut burst);
                if n == 0 {
                    break;
                }
                via_bursts.extend_from_slice(&burst[..n]);
            }
            prop_assert_eq!(&via_bursts, &mine);
        }
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
        let order_start = order_start(good.columns());
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

    /// Rehydrating an artifact with a layout field out of range, an
    /// entry naming a PC past the table, or a truncated tail always
    /// returns `Err`, never a panic or an artifact.
    #[test]
    fn artifact_from_bytes_rejects_bad_layout_pc_index_and_truncation(
        seed in any::<u64>(),
        len in 1u64..300,
        mode in 0u8..4,
        pick in any::<u64>(),
        value in any::<u8>(),
    ) {
        let spec = workloads::web_search().scaled(64);
        let good = TraceArtifact::freeze(&spec, seed, len);
        let mut bytes = Vec::new();
        good.write_to(&mut bytes).unwrap();
        let layout = good.columns().layout();
        // Web Search's 40 PCs take a 6-bit index: 40..=63 name no PC.
        prop_assert_eq!(layout.pcs().len(), 40);
        match mode {
            0 => {
                // One width past its bound.
                let (at, min) = [(24, 64), (25, 65), (26, 33), (27, 32)][(pick % 4) as usize];
                bytes[at] = value.max(min);
            }
            1 => {
                // A PC table longer than the 6-bit index can address.
                let n = 65 + (pick % u64::from(u32::MAX - 65)) as u32;
                bytes[28..32].copy_from_slice(&n.to_le_bytes());
            }
            2 => {
                let entries = good.len();
                let width = layout.entry_bytes();
                let columns_start = order_start(good.columns()) + entries;
                let at = columns_start + (pick % entries as u64) as usize * width;
                let index = 40 + value % 24;
                bytes[at] = (bytes[at] & !(63 << 1)) | index << 1;
            }
            _ => bytes.truncate((pick % bytes.len() as u64) as usize),
        }
        prop_assert!(TraceArtifact::from_bytes(good.key(), seed, bytes.into()).is_err());
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

/// Every built-in workload, frozen at scale 16, encodes in at most 8
/// bytes per record, order byte included.
#[test]
fn built_in_workloads_encode_in_at_most_8_bytes_per_record() {
    let len = 50_000;
    for w in workloads::all() {
        let artifact = TraceArtifact::freeze(&w.clone().scaled(16), 1, len);
        let columns = artifact.columns();
        let per_record = 1 + columns.layout().entry_bytes();
        assert!(per_record <= 8, "{}: {per_record} B/record", w.name);
        assert_eq!(columns.encoded_len(), columns.to_vec().len());
        let average = columns.encoded_len() as f64 / len as f64;
        assert!(average <= 8.0, "{}: {average:.2} B/record", w.name);
    }
}
