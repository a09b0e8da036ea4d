//! Compact binary trace encoding, de-interleaved by core.
//!
//! A trace is stored as one record **column** per core plus a 1-byte
//! **order stream** naming the core of each record in global order. The
//! simulator's dispatch loop consumes each core's records in program
//! order, so it reads the columns directly — no global decode, no
//! per-core staging buffers — while [`Columns::iter`] still yields the
//! records in their original global order by walking the order stream.
//!
//! Layout (all integers little-endian):
//!
//! | offset | bytes | field |
//! |---|---|---|
//! | 0 | 8 | [`MAGIC`] |
//! | 8 | 4 | [`VERSION`] |
//! | 12 | 4 | `cores`: column count, at most [`MAX_CORES`] |
//! | 16 | 8 | `len`: total records |
//! | 24 | 8 × `cores` | record count of each column |
//! | … | `len` | order stream: the core id of each record |
//! | … | 21 × count | column 0, then 1, …: `kind` u8, `pc` u64, `addr` u64, `igap` u32 |
//!
//! A record costs [`RECORD_BYTES`] = 22 bytes in total (its order byte
//! plus its column entry) — the same as an interleaved encoding that
//! stores the core id inline.

use std::io::{self, Write};

use bytes::Bytes;

use crate::record::{AccessKind, TraceRecord};

/// Magic bytes identifying a trace stream.
pub const MAGIC: &[u8; 8] = b"UNISONTR";
/// Current format version (2: per-core columns plus an order stream).
pub const VERSION: u32 = 2;

/// Size of the fixed part of the header (magic, version, core count,
/// record count); the per-column counts follow it.
pub const HEADER_BYTES: usize = 24;
/// Size of one column entry (the record without its core id).
pub const COLUMN_RECORD_BYTES: usize = 1 + 8 + 8 + 4;
/// Encoded size of one record: its order-stream byte plus its column
/// entry.
pub const RECORD_BYTES: usize = 1 + COLUMN_RECORD_BYTES;
/// Most columns a stream can hold: core ids are one byte.
pub const MAX_CORES: usize = 256;

/// Errors produced while decoding a trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream does not start with [`MAGIC`].
    BadMagic,
    /// The stream's version is not supported.
    BadVersion(u32),
    /// The stream is shorter than its header says.
    Truncated,
    /// The stream is longer than its header says.
    TrailingBytes,
    /// The header declares more than [`MAX_CORES`] columns.
    BadCoreCount(u32),
    /// The order stream names a core with no column.
    BadCore(u8),
    /// The column counts do not add up to the order stream, or disagree
    /// with how often it names each core.
    ColumnMismatch,
    /// A record contained an invalid access-kind byte.
    BadKind(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "stream does not begin with the trace magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::Truncated => write!(f, "stream is shorter than its header says"),
            DecodeError::TrailingBytes => write!(f, "stream is longer than its header says"),
            DecodeError::BadCoreCount(n) => write!(f, "{n} core columns exceed {MAX_CORES}"),
            DecodeError::BadCore(c) => {
                write!(f, "order stream names core {c}, which has no column")
            }
            DecodeError::ColumnMismatch => {
                write!(f, "column counts disagree with the order stream")
            }
            DecodeError::BadKind(k) => write!(f, "invalid access kind byte {k}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes records into a self-describing byte buffer.
///
/// # Example
///
/// ```
/// use unison_trace::codec::{encode, decode};
/// use unison_trace::{AccessKind, TraceRecord};
///
/// let recs = vec![TraceRecord { core: 1, kind: AccessKind::Read, pc: 0x400, addr: 4096, igap: 12 }];
/// let bytes = encode(&recs);
/// assert_eq!(decode(&bytes)?, recs);
/// # Ok::<(), unison_trace::codec::DecodeError>(())
/// ```
pub fn encode(records: &[TraceRecord]) -> Bytes {
    let mut enc = Encoder::with_capacity(0, records.len());
    for r in records {
        enc.push(r);
    }
    enc.finish().to_vec().into()
}

/// Decodes a buffer produced by [`encode`] (or [`Columns::write_to`])
/// back into global record order.
///
/// # Errors
///
/// Returns a [`DecodeError`] on any malformed input; never panics.
pub fn decode(buf: &[u8]) -> Result<Vec<TraceRecord>, DecodeError> {
    Ok(Columns::parse(Bytes::from(buf.to_vec()))?.iter().collect())
}

/// Streaming column writer: appends records one at a time straight into
/// their core's column, so a trace pulled off a generator is never
/// materialized as a `Vec<TraceRecord>` or encoded in a second pass.
#[derive(Debug)]
pub struct Encoder {
    order: Vec<u8>,
    columns: Vec<Vec<u8>>,
}

impl Encoder {
    /// Creates an encoder with `cores` columns (more appear on demand
    /// when a record names a higher core), pre-sized for `records`
    /// records spread about evenly over them.
    pub fn with_capacity(cores: usize, records: usize) -> Self {
        let cores = cores.min(MAX_CORES);
        // Slack for uneven interleaving; capacity that is never written
        // is never touched, so it costs address space, not memory.
        let per_core = records.checked_div(cores).map_or(0, |n| n + n / 8 + 64);
        Encoder {
            order: Vec::with_capacity(records),
            columns: (0..cores)
                .map(|_| Vec::with_capacity(per_core * COLUMN_RECORD_BYTES))
                .collect(),
        }
    }

    /// Appends one record to its core's column.
    #[inline]
    pub fn push(&mut self, r: &TraceRecord) {
        let core = usize::from(r.core);
        if core >= self.columns.len() {
            self.columns.resize_with(core + 1, Vec::new);
        }
        let mut rec = [0u8; COLUMN_RECORD_BYTES];
        rec[0] = match r.kind {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        };
        rec[1..9].copy_from_slice(&r.pc.to_le_bytes());
        rec[9..17].copy_from_slice(&r.addr.to_le_bytes());
        rec[17..21].copy_from_slice(&r.igap.to_le_bytes());
        self.columns[core].extend_from_slice(&rec);
        self.order.push(r.core);
    }

    /// Records encoded so far.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no records have been encoded.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Freezes the columns; every buffer is taken over, not copied.
    pub fn finish(self) -> Columns {
        Columns {
            order: self.order.into(),
            columns: self.columns.into_iter().map(Bytes::from).collect(),
        }
    }
}

/// A frozen trace in column layout: one [`Column`] per core plus the
/// order stream. Clones share storage.
#[derive(Debug, Clone, Default)]
pub struct Columns {
    order: Bytes,
    columns: Vec<Bytes>,
}

impl Columns {
    /// Parses and fully validates an encoded stream — header, sizes, every
    /// order byte against the column counts, and every kind byte — so
    /// reading it afterwards is infallible. The columns are views into
    /// `buf`, not copies.
    ///
    /// # Errors
    ///
    /// Returns the first [`DecodeError`] found; never panics.
    pub fn parse(buf: Bytes) -> Result<Self, DecodeError> {
        let b: &[u8] = &buf;
        let u32_at = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
        if b.len() < 8 || &b[..8] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        if b.len() < 12 {
            return Err(DecodeError::Truncated);
        }
        let version = u32_at(8);
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        if b.len() < HEADER_BYTES {
            return Err(DecodeError::Truncated);
        }
        let cores = u32_at(12);
        if cores as usize > MAX_CORES {
            return Err(DecodeError::BadCoreCount(cores));
        }
        let cores = cores as usize;
        let order_start = HEADER_BYTES + 8 * cores;
        if b.len() < order_start {
            return Err(DecodeError::Truncated);
        }
        let counts: Vec<u64> = (0..cores).map(|c| u64_at(HEADER_BYTES + 8 * c)).collect();
        let len = u64_at(16);
        if counts.iter().try_fold(0u64, |s, &n| s.checked_add(n)) != Some(len) {
            return Err(DecodeError::ColumnMismatch);
        }
        // Both sizes overflow only for lengths no buffer could hold.
        let len = usize::try_from(len).map_err(|_| DecodeError::Truncated)?;
        let columns_start = order_start.checked_add(len).ok_or(DecodeError::Truncated)?;
        let end = len
            .checked_mul(COLUMN_RECORD_BYTES)
            .and_then(|n| n.checked_add(columns_start))
            .ok_or(DecodeError::Truncated)?;
        match b.len().cmp(&end) {
            std::cmp::Ordering::Less => return Err(DecodeError::Truncated),
            std::cmp::Ordering::Greater => return Err(DecodeError::TrailingBytes),
            std::cmp::Ordering::Equal => {}
        }
        let mut tally = [0u64; MAX_CORES];
        for &c in &b[order_start..columns_start] {
            if usize::from(c) >= cores {
                return Err(DecodeError::BadCore(c));
            }
            tally[usize::from(c)] += 1;
        }
        if tally[..cores] != counts[..] {
            return Err(DecodeError::ColumnMismatch);
        }
        for rec in b[columns_start..].chunks_exact(COLUMN_RECORD_BYTES) {
            if rec[0] > 1 {
                return Err(DecodeError::BadKind(rec[0]));
            }
        }
        let mut at = columns_start;
        let columns = counts
            .iter()
            .map(|&n| {
                let bytes = n as usize * COLUMN_RECORD_BYTES;
                at += bytes;
                buf.slice(at - bytes..at)
            })
            .collect();
        Ok(Columns {
            order: buf.slice(order_start..columns_start),
            columns,
        })
    }

    /// Total records.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of columns: the encoder's declared core count, or one past
    /// the highest core id pushed if that is larger.
    pub fn cores(&self) -> usize {
        self.columns.len()
    }

    /// The order stream: the core id of each record, in global order.
    pub fn order(&self) -> &[u8] {
        &self.order
    }

    /// Core `core`'s records in program order (empty past
    /// [`Self::cores`]).
    #[inline]
    pub fn column(&self, core: usize) -> Column<'_> {
        Column {
            core: core as u8,
            bytes: self.columns.get(core).map_or(&[], |b| &b[..]),
        }
    }

    /// The records in global order.
    pub fn iter(&self) -> TraceReplay<'_> {
        TraceReplay {
            order: &self.order,
            columns: &self.columns,
            next: [0; MAX_CORES],
        }
    }

    /// Moves per-core read cursors from the end of one dispatch phase to
    /// the start of the next, by the **stream-position rule**.
    ///
    /// On entry `next[c]` is how many of core `c`'s records the phase
    /// took from its column; the last one taken is `c`'s head-of-line
    /// record, which the phase did not consume. A reader that pulled the
    /// trace in global order, buffering each core's records until their
    /// turn, would have read exactly up to the latest of those
    /// head-of-line records: the stream position is one past the largest
    /// global position among them. If some core's column ran `dry`
    /// (a record was asked of it and it had none), such a reader would
    /// have read the whole stream instead. On return `next[c]` indexes
    /// `c`'s first record at or past the stream position, so the
    /// records in between are dropped exactly as a fresh buffered reader
    /// drops them. One scan of the order stream.
    ///
    /// # Panics
    ///
    /// Panics if `next` has more than [`MAX_CORES`] entries.
    pub fn skip_to_stream_position(&self, next: &mut [usize], dry: bool) {
        let mut seen = [0usize; MAX_CORES];
        if dry {
            for (c, col) in self.columns.iter().enumerate() {
                seen[c] = col.len() / COLUMN_RECORD_BYTES;
            }
        } else {
            let mut pending = next.iter().filter(|&&n| n > 0).count();
            for &c in self.order.iter() {
                if pending == 0 {
                    break;
                }
                let c = usize::from(c);
                seen[c] += 1;
                if seen[c] == next[c] {
                    pending -= 1;
                }
            }
        }
        next.copy_from_slice(&seen[..next.len()]);
    }

    /// Writes the encoded stream (the format [`Self::parse`] reads).
    ///
    /// # Errors
    ///
    /// Propagates `w`'s I/O errors.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(self.columns.len() as u32).to_le_bytes())?;
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        for col in &self.columns {
            w.write_all(&((col.len() / COLUMN_RECORD_BYTES) as u64).to_le_bytes())?;
        }
        w.write_all(&self.order)?;
        for col in &self.columns {
            w.write_all(col)?;
        }
        Ok(())
    }

    /// The encoded stream as one buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(HEADER_BYTES + 8 * self.columns.len() + self.len() * RECORD_BYTES);
        self.write_to(&mut out)
            .expect("writing to a Vec cannot fail");
        out
    }
}

/// One core's records in program order, read straight off the frozen
/// buffer.
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    core: u8,
    bytes: &'a [u8],
}

impl Column<'_> {
    /// Records in the column.
    #[inline]
    pub fn len(&self) -> usize {
        self.bytes.len() / COLUMN_RECORD_BYTES
    }

    /// True when the core has no records.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The column's `i`-th record, if it has one.
    #[inline]
    pub fn get(&self, i: usize) -> Option<TraceRecord> {
        let rec = self.bytes.get(i * COLUMN_RECORD_BYTES..)?.first_chunk()?;
        Some(read_record(self.core, rec))
    }

    /// Decodes the column's records from index `start` on into `out`, as
    /// many as fit or as the column has left, and returns how many it
    /// wrote. Decoding a run of records in one go lets the loads of
    /// their cache lines overlap, where [`Self::get`] per record waits
    /// on each line in turn.
    #[inline]
    pub fn decode_into(&self, start: usize, out: &mut [TraceRecord]) -> usize {
        let rest = start
            .checked_mul(COLUMN_RECORD_BYTES)
            .and_then(|at| self.bytes.get(at..))
            .unwrap_or(&[]);
        let mut n = 0;
        for (slot, rec) in out.iter_mut().zip(rest.chunks_exact(COLUMN_RECORD_BYTES)) {
            *slot = read_record(self.core, rec.try_into().expect("exact chunk"));
            n += 1;
        }
        n
    }
}

/// Decodes one column entry. Kind bytes were validated when the columns
/// were frozen or parsed: only 0 or 1 occur.
#[inline]
fn read_record(core: u8, rec: &[u8; COLUMN_RECORD_BYTES]) -> TraceRecord {
    TraceRecord {
        core,
        kind: if rec[0] == 0 {
            AccessKind::Read
        } else {
            AccessKind::Write
        },
        pc: u64::from_le_bytes(rec[1..9].try_into().expect("8-byte pc field")),
        addr: u64::from_le_bytes(rec[9..17].try_into().expect("8-byte addr field")),
        igap: u32::from_le_bytes(rec[17..21].try_into().expect("4-byte igap field")),
    }
}

/// Zero-allocation iterator yielding a trace's records in global order:
/// it walks the order stream and takes each record from the front of
/// its core's column.
///
/// Infallible by construction: the columns were validated when they
/// were frozen or parsed, so every order byte has a record waiting.
#[derive(Debug, Clone)]
pub struct TraceReplay<'a> {
    order: &'a [u8],
    columns: &'a [Bytes],
    /// Byte offset of each core's next column entry.
    next: [usize; MAX_CORES],
}

impl Iterator for TraceReplay<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        let (&core, rest) = self.order.split_first()?;
        self.order = rest;
        let c = usize::from(core);
        let at = self.next[c];
        self.next[c] = at + COLUMN_RECORD_BYTES;
        let rec = self.columns[c][at..]
            .first_chunk()
            .expect("validated column holds every record the order stream names");
        Some(read_record(core, rec))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.order.len(), Some(self.order.len()))
    }
}

impl ExactSizeIterator for TraceReplay<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;
    use crate::WorkloadGen;

    fn records(n: usize) -> Vec<TraceRecord> {
        WorkloadGen::new(workloads::tpch(), 1).take(n).collect()
    }

    #[test]
    fn roundtrip_generated_trace() {
        let recs: Vec<_> = WorkloadGen::new(workloads::web_serving(), 77)
            .take(10_000)
            .collect();
        let encoded = encode(&recs);
        assert_eq!(
            encoded.len(),
            HEADER_BYTES + 16 * 8 + recs.len() * RECORD_BYTES
        );
        let decoded = decode(&encoded).expect("roundtrip");
        assert_eq!(decoded, recs);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let encoded = encode(&[]);
        assert_eq!(decode(&encoded).unwrap(), vec![]);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOTATRACE_______"), Err(DecodeError::BadMagic));
        assert_eq!(decode(b""), Err(DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut b = encode(&[]).to_vec();
        b[8] = 99;
        assert_eq!(decode(&b), Err(DecodeError::BadVersion(99)));
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        let b = encode(&records(3)).to_vec();
        assert_eq!(decode(&b[..b.len() - 1]), Err(DecodeError::Truncated));
        assert_eq!(decode(&b[..HEADER_BYTES - 1]), Err(DecodeError::Truncated));
        let mut long = b.clone();
        long.push(0);
        assert_eq!(decode(&long), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn bad_kind_rejected() {
        let b = encode(&records(1)).to_vec();
        let mut bad = b.clone();
        let kind_at = b.len() - COLUMN_RECORD_BYTES; // the only column entry
        bad[kind_at] = 7;
        assert_eq!(decode(&bad), Err(DecodeError::BadKind(7)));
    }

    #[test]
    fn out_of_range_core_and_column_mismatch_rejected() {
        let recs = records(40);
        let b = encode(&recs).to_vec();
        let cores = u32::from_le_bytes(b[12..16].try_into().unwrap()) as usize;
        let order_start = HEADER_BYTES + 8 * cores;

        let mut bad_core = b.clone();
        bad_core[order_start] = cores as u8;
        assert_eq!(decode(&bad_core), Err(DecodeError::BadCore(cores as u8)));

        // Swap one record to another core in the order stream: the
        // tallies no longer match the column counts.
        let mut moved = b.clone();
        moved[order_start] = (moved[order_start] + 1) % cores as u8;
        assert_eq!(decode(&moved), Err(DecodeError::ColumnMismatch));

        // Column counts that do not add up to the record count.
        let mut miscounted = b.clone();
        miscounted[HEADER_BYTES] += 1;
        assert_eq!(decode(&miscounted), Err(DecodeError::ColumnMismatch));

        let mut too_many = b.clone();
        too_many[12..16].copy_from_slice(&300u32.to_le_bytes());
        assert_eq!(decode(&too_many), Err(DecodeError::BadCoreCount(300)));
    }

    #[test]
    fn streaming_encoder_matches_batch_encode() {
        let recs: Vec<_> = WorkloadGen::new(workloads::data_serving(), 5)
            .take(2_000)
            .collect();
        let mut enc = Encoder::with_capacity(16, recs.len());
        assert!(enc.is_empty());
        for r in &recs {
            enc.push(r);
        }
        assert_eq!(enc.len(), recs.len());
        let cols = enc.finish();
        assert_eq!(cols.to_vec(), encode(&recs).to_vec());
        assert_eq!(cols.iter().collect::<Vec<_>>(), recs);
    }

    #[test]
    fn columns_hold_each_cores_records_in_program_order() {
        let recs = records(3_000);
        let cols = Columns::parse(encode(&recs)).expect("valid");
        assert_eq!(cols.len(), recs.len());
        for c in 0..cols.cores() {
            let col = cols.column(c);
            let mine: Vec<_> = recs.iter().filter(|r| usize::from(r.core) == c).collect();
            assert_eq!(col.len(), mine.len());
            for (i, r) in mine.into_iter().enumerate() {
                assert_eq!(col.get(i), Some(*r));
            }
            assert_eq!(col.get(col.len()), None);
        }
        assert!(cols.column(cols.cores()).is_empty());
    }

    #[test]
    fn decode_into_matches_get() {
        let recs = records(3_000);
        let cols = Columns::parse(encode(&recs)).expect("valid");
        let col = cols.column(3);
        let filler = TraceRecord {
            core: 0,
            kind: AccessKind::Read,
            pc: 0,
            addr: 0,
            igap: 0,
        };
        let mut out = [filler; 16];
        for start in [
            0,
            1,
            15,
            col.len() - 5,
            col.len(),
            col.len() + 7,
            usize::MAX,
        ] {
            let n = col.decode_into(start, &mut out);
            assert_eq!(
                n,
                col.len().saturating_sub(start).min(out.len()),
                "from {start}"
            );
            for (i, r) in out[..n].iter().enumerate() {
                assert_eq!(Some(*r), col.get(start + i), "record {}", start + i);
            }
        }
        assert_eq!(col.decode_into(0, &mut []), 0);
    }

    #[test]
    fn parse_shares_the_buffer() {
        let bytes = encode(&records(100));
        let cols = Columns::parse(bytes.clone()).expect("valid");
        let mut again = Vec::new();
        cols.write_to(&mut again).unwrap();
        assert_eq!(again, bytes.to_vec());
    }

    /// The stream-position rule against a buffered global-order reader:
    /// take a few records per core, then the next phase must start each
    /// core where a reader that had buffered up to the latest taken
    /// record would.
    #[test]
    fn stream_position_rule_matches_a_buffered_reader() {
        let recs = records(500);
        let cols = Columns::parse(encode(&recs)).expect("valid");
        let n = cols.cores();
        for taken_per_core in [1usize, 3, 10] {
            let mut next = vec![taken_per_core; n];
            cols.skip_to_stream_position(&mut next, false);
            // Reference: positions of every core's last taken record.
            let mut seen = vec![0usize; n];
            let mut last = 0;
            for (p, r) in recs.iter().enumerate() {
                let c = usize::from(r.core);
                seen[c] += 1;
                if seen[c] == taken_per_core {
                    last = last.max(p + 1);
                }
            }
            let expect: Vec<usize> = (0..n)
                .map(|c| {
                    recs[..last]
                        .iter()
                        .filter(|r| usize::from(r.core) == c)
                        .count()
                })
                .collect();
            assert_eq!(next, expect, "{taken_per_core} taken per core");
        }
        // A dry column means the reader consumed the whole stream.
        let mut next = vec![1; n];
        cols.skip_to_stream_position(&mut next, true);
        assert_eq!(
            next,
            (0..n).map(|c| cols.column(c).len()).collect::<Vec<_>>()
        );
        // Nothing taken: nothing dropped.
        let mut none = vec![0; n];
        cols.skip_to_stream_position(&mut none, false);
        assert_eq!(none, vec![0; n]);
    }
}
