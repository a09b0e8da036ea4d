//! Pins every preset's record stream and its frozen artifact bytes at
//! the source.
//!
//! Each case hashes (FNV-1a 64) the first [`RECORDS`] records of
//! `WorkloadGen::new(spec.scaled(scale), seed)` field by field, and the
//! encoded bytes of `TraceArtifact::freeze` over the same records. The
//! golden simulation fixtures only see the streams a few grids use;
//! these digests see all six presets at two scales and two seeds, so a
//! change to the generator or the codec that moves a single bit fails
//! here first, naming the preset.
//!
//! A digest that changes on purpose means the stream (or its encoding)
//! changed: bump `GENERATOR_VERSION` (or `codec::VERSION`) so persisted
//! artifact caches stop being addressed, re-bless the golden fixtures,
//! and only then replace the digests below.

use unison_trace::{workloads, Fnv1a, TraceArtifact, TraceRecord, WorkloadGen};

/// Records hashed per case.
const RECORDS: usize = 200_000;

/// `(preset, scale, seed, record-stream digest, artifact-bytes digest)`.
#[rustfmt::skip]
const DIGESTS: &[(&str, u64, u64, u64, u64)] = &[
    ("Data Analytics", 16, 1, 0x0df7cd0d008632ef, 0x680d52c8e87dd1ac),
    ("Data Analytics", 16, 42, 0x1ce91b915d8f230c, 0x146a6f936cf8e668),
    ("Data Analytics", 64, 1, 0xc9e3a171e4303f43, 0x4203b27accbad892),
    ("Data Analytics", 64, 42, 0x43565ec8d5c55972, 0xc83f3e4285e1f281),
    ("Data Serving", 16, 1, 0x43ac8e1386679d4b, 0xfe741378644b941c),
    ("Data Serving", 16, 42, 0xbcfd549446c42522, 0xaf1b5f9622aedb08),
    ("Data Serving", 64, 1, 0xb36cdde482d1641f, 0x1f9bcf6c7d041887),
    ("Data Serving", 64, 42, 0x22740474d73fdd2d, 0x2194a0b5c3751e8d),
    ("Software Testing", 16, 1, 0x3c72bed184e9b0dc, 0xa0b6213521bd8497),
    ("Software Testing", 16, 42, 0x9f68cd32beac79ee, 0x473663bb5b9080ba),
    ("Software Testing", 64, 1, 0x2f952d3f7d4c4ce5, 0x8c7cf2496e8abd28),
    ("Software Testing", 64, 42, 0xc4cb2af66a74e016, 0xcc5f715f7416c48b),
    ("Web Search", 16, 1, 0x3a3f6e8443c1086b, 0xe718d6fa243a68b9),
    ("Web Search", 16, 42, 0x74ed48938a7bb106, 0x7a2b8433eda7f14d),
    ("Web Search", 64, 1, 0x66131a919363cfdb, 0x8cc84aa5111ffdd4),
    ("Web Search", 64, 42, 0x3c49e02bfb29e10a, 0x5c4ab9ef194a1447),
    ("Web Serving", 16, 1, 0x58f227e224e4c3c4, 0xf9d8d28ffceed573),
    ("Web Serving", 16, 42, 0xf2af5ff80501a41d, 0xd556e3ab177d046d),
    ("Web Serving", 64, 1, 0x4d79d6e54e0d4951, 0x41cf962da10f1cab),
    ("Web Serving", 64, 42, 0xc84ef991043ba2f9, 0x299c8ee85bd85dc9),
    ("TPC-H", 16, 1, 0x538b10bb661d9a4d, 0x3ccd69f8eae0fd69),
    ("TPC-H", 16, 42, 0x717c5b9e6e364c19, 0x5df936a8bf6ea2d4),
    ("TPC-H", 64, 1, 0x80a7087ad3a9f0c5, 0xac563b799af14ee7),
    ("TPC-H", 64, 42, 0xc9aa11698adb0079, 0xb428aabf4f490674),
];

fn record_digest(records: impl Iterator<Item = TraceRecord>) -> u64 {
    let mut h = Fnv1a::new();
    for r in records {
        h.write(&[r.core, u8::from(r.kind.is_write())]);
        h.write(&r.pc.to_le_bytes());
        h.write(&r.addr.to_le_bytes());
        h.write(&r.igap.to_le_bytes());
    }
    h.finish()
}

fn bytes_digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[test]
fn preset_streams_and_artifacts_match_their_digests() {
    assert_eq!(
        DIGESTS.len(),
        workloads::all().len() * 4,
        "six presets x two scales x two seeds"
    );
    for &(name, scale, seed, stream, bytes) in DIGESTS {
        let spec = workloads::by_name(name).expect("a preset").scaled(scale);
        let got = record_digest(WorkloadGen::new(spec.clone(), seed).take(RECORDS));
        assert!(
            got == stream,
            "{name} x{scale} seed {seed}: record stream moved to {got:#018x}"
        );
        let artifact = TraceArtifact::freeze(&spec, seed, RECORDS as u64);
        let got = bytes_digest(&artifact.columns().to_vec());
        assert!(
            got == bytes,
            "{name} x{scale} seed {seed}: artifact bytes moved to {got:#018x}"
        );
    }
}
