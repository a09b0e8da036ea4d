//! Compact binary trace encoding: bit-packed, de-interleaved by core.
//!
//! A trace is stored as one record **column** per core plus a 1-byte
//! **order stream** naming the core of each record in global order. The
//! simulator's dispatch loop consumes each core's records in program
//! order, so it reads the columns directly — no global decode, no
//! per-core staging buffers — while [`Columns::iter`] still yields the
//! records in their original global order by walking the order stream.
//!
//! Every column entry has the same width, `W` bytes, set by the
//! stream's [`Layout`]: the header declares once how many bits each
//! field takes and lists the distinct PCs in a table, so an entry stores
//! a PC-table index instead of a PC and an address without the
//! trailing zero bits every address shares. A generated trace has a few
//! hundred PCs, block-aligned addresses below its footprint and gaps
//! under 2^15, so its entries take 6 bytes where raw fields take 21.
//!
//! Layout (all integers little-endian):
//!
//! | offset | bytes | field |
//! |---|---|---|
//! | 0 | 8 | [`MAGIC`] |
//! | 8 | 4 | [`VERSION`] |
//! | 12 | 4 | `cores`: column count, at most [`MAX_CORES`] |
//! | 16 | 8 | `len`: total records |
//! | 24 | 1 | `addr_shift`: trailing zero bits every address shares, at most 63 |
//! | 25 | 1 | `addr_bits`: width of `addr >> addr_shift`, at most `64 - addr_shift` |
//! | 26 | 1 | `igap_bits`: width of `igap`, at most 32 |
//! | 27 | 1 | `pc_bits`: width of a PC-table index, at most 31 |
//! | 28 | 4 | `pcs`: PC-table length, at most `2^pc_bits` |
//! | 32 | 8 × `cores` | record count of each column |
//! | … | 8 × `pcs` | PC table |
//! | … | `len` | order stream: the core id of each record |
//! | … | `W` × count | column 0, then 1, … |
//! | … | 15 | zero padding, so any entry can be read with one 16-byte load |
//!
//! An entry packs, from its least significant bit up: `kind` (1 bit,
//! 1 = write), the PC-table index (`pc_bits`), `igap` (`igap_bits`) and
//! `addr >> addr_shift` (`addr_bits`), in
//! `W = ceil((1 + pc_bits + igap_bits + addr_bits) / 8)` bytes. `W` is
//! at most 16 for any input (1 + 31 + 32 + 64 bits), and a record costs
//! `W + 1` bytes with its order byte. The address goes last so that the
//! other three fields always sit in the entry's low 64 bits.

use std::io::{self, Write};

use bytes::Bytes;

use crate::record::{AccessKind, TraceRecord};

/// Magic bytes identifying a trace stream.
pub const MAGIC: &[u8; 8] = b"UNISONTR";
/// Current format version (4: bit-packed column entries under a
/// declared [`Layout`]). Version 3 is skipped: builds that were never
/// committed wrote files under that number.
pub const VERSION: u32 = 4;

/// Size of the fixed part of the header (magic, version, core count,
/// record count, layout); the per-column counts follow it.
pub const HEADER_BYTES: usize = 32;
/// Most columns a stream can hold: core ids are one byte.
pub const MAX_CORES: usize = 256;
/// Zero bytes after the last column entry: enough that a 16-byte load
/// at any entry stays inside the buffer.
pub const TAIL_BYTES: usize = 15;
/// Widest PC-table index: tables hold at most 2^31 PCs.
const MAX_PC_BITS: u32 = 31;

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
    /// The header declares a field width, or a PC-table length, out of
    /// range; the string names the field.
    BadLayout(&'static str),
    /// The order stream names a core with no column.
    BadCore(u8),
    /// The column counts do not add up to the order stream, or disagree
    /// with how often it names each core.
    ColumnMismatch,
    /// A column entry names a PC past the end of the PC table.
    BadPcIndex(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "stream does not begin with the trace magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::Truncated => write!(f, "stream is shorter than its header says"),
            DecodeError::TrailingBytes => write!(f, "stream is longer than its header says"),
            DecodeError::BadCoreCount(n) => write!(f, "{n} core columns exceed {MAX_CORES}"),
            DecodeError::BadLayout(field) => write!(f, "layout field {field} is out of range"),
            DecodeError::BadCore(c) => {
                write!(f, "order stream names core {c}, which has no column")
            }
            DecodeError::ColumnMismatch => {
                write!(f, "column counts disagree with the order stream")
            }
            DecodeError::BadPcIndex(i) => write!(f, "entry names PC {i}, past the PC table"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The field widths and PC table a stream's column entries are packed
/// under. Every record pushed into an [`Encoder`] must fit its layout:
/// its PC in the table, its address a multiple of `2^addr_shift` below
/// `2^(addr_shift + addr_bits)`, and its `igap` below `2^igap_bits`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Distinct PCs, ascending; an entry stores an index into it.
    pcs: Vec<u64>,
    addr_shift: u8,
    addr_bits: u8,
    igap_bits: u8,
    pc_bits: u8,
}

impl Layout {
    /// The narrowest layout holding records whose PCs are in `pcs`,
    /// whose addresses are multiples of `2^addr_shift` no larger than
    /// `max_addr`, and whose gaps are at most `max_igap`.
    ///
    /// # Panics
    ///
    /// Panics if `addr_shift > 63` or `pcs` holds more than 2^31
    /// distinct PCs.
    pub fn new(mut pcs: Vec<u64>, addr_shift: u32, max_addr: u64, max_igap: u32) -> Self {
        assert!(addr_shift < 64, "addr_shift {addr_shift} exceeds 63");
        pcs.sort_unstable();
        pcs.dedup();
        let index_bits = (pcs.len().max(1) - 1).checked_ilog2().map_or(0, |b| b + 1);
        assert!(
            index_bits <= MAX_PC_BITS,
            "{} distinct PCs exceed the 2^{MAX_PC_BITS} a PC table holds",
            pcs.len()
        );
        Layout {
            pcs,
            addr_shift: addr_shift as u8,
            addr_bits: (64 - (max_addr >> addr_shift).leading_zeros()) as u8,
            igap_bits: (32 - max_igap.leading_zeros()) as u8,
            pc_bits: index_bits as u8,
        }
    }

    /// The narrowest layout holding every record in `records`.
    pub fn of(records: &[TraceRecord]) -> Self {
        let common = records.iter().fold(0, |acc, r| acc | r.addr);
        Layout::new(
            records.iter().map(|r| r.pc).collect(),
            common.trailing_zeros().min(63),
            records.iter().map(|r| r.addr).max().unwrap_or(0),
            records.iter().map(|r| r.igap).max().unwrap_or(0),
        )
    }

    /// The PC table, ascending.
    pub fn pcs(&self) -> &[u64] {
        &self.pcs
    }

    /// The index of `pc` in the PC table, for packing a record that
    /// arrives without one ([`Encoder::push`]).
    ///
    /// # Panics
    ///
    /// Panics if `pc` is not in the table.
    pub fn index_of(&self, pc: u64) -> u32 {
        self.pcs
            .binary_search(&pc)
            .unwrap_or_else(|_| panic!("PC {pc:#x} is outside the layout's PC table"))
            as u32
    }

    /// Bytes per column entry, `W`.
    pub fn entry_bytes(&self) -> usize {
        Fields::of(self).width
    }

    /// Checks a layout read off a stream, with its PC table of
    /// `pc_count` entries: the header bounds in the module docs.
    fn validate(&self, pc_count: usize) -> Result<(), DecodeError> {
        if self.addr_shift > 63 {
            return Err(DecodeError::BadLayout("addr_shift"));
        }
        if u32::from(self.addr_bits) + u32::from(self.addr_shift) > 64 {
            return Err(DecodeError::BadLayout("addr_bits"));
        }
        if self.igap_bits > 32 {
            return Err(DecodeError::BadLayout("igap_bits"));
        }
        if u32::from(self.pc_bits) > MAX_PC_BITS {
            return Err(DecodeError::BadLayout("pc_bits"));
        }
        if pc_count > 1 << self.pc_bits {
            return Err(DecodeError::BadLayout("pcs"));
        }
        Ok(())
    }
}

/// The low `bits` bits set, for `bits` up to 64.
fn low_mask(bits: u32) -> u64 {
    u64::MAX.checked_shr(64 - bits).unwrap_or(0)
}

/// A [`Layout`]'s widths as the shifts and masks that pack and unpack an
/// entry.
#[derive(Debug, Clone, Copy)]
struct Fields {
    /// Bytes per entry.
    width: usize,
    addr_shift: u32,
    /// Bit offsets of the gap and address fields.
    igap_at: u32,
    addr_at: u32,
    pc_mask: u64,
    addr_mask: u64,
    igap_mask: u64,
}

impl Fields {
    fn of(layout: &Layout) -> Self {
        let (pc_bits, addr_bits, igap_bits) = (
            u32::from(layout.pc_bits),
            u32::from(layout.addr_bits),
            u32::from(layout.igap_bits),
        );
        let igap_at = 1 + pc_bits;
        let addr_at = igap_at + igap_bits;
        Fields {
            width: (addr_at + addr_bits).div_ceil(8) as usize,
            addr_shift: u32::from(layout.addr_shift),
            igap_at,
            addr_at,
            pc_mask: low_mask(pc_bits),
            addr_mask: low_mask(addr_bits),
            igap_mask: low_mask(igap_bits),
        }
    }

    /// Unpacks the entry at byte `at` of `bytes`: one unaligned 16-byte
    /// load (the tail padding keeps it in bounds), shifts and masks, and
    /// one PC-table load. Streams are validated when frozen or parsed,
    /// so the index is in the table. Kind, index and gap sit in the low
    /// 64 bits, and the address starts at bit 1 to 64, so each field
    /// takes one shift of at most 63 bits out of the word.
    #[inline(always)]
    fn unpack(&self, core: u8, bytes: &[u8], at: usize, pcs: &[u64]) -> TraceRecord {
        let word = u128::from_le_bytes(bytes[at..at + 16].try_into().expect("16-byte load"));
        let low = word as u64;
        TraceRecord {
            core,
            kind: if low & 1 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            },
            pc: pcs[((low >> 1) & self.pc_mask) as usize],
            igap: ((low >> self.igap_at) & self.igap_mask) as u32,
            addr: ((word >> 1 >> ((self.addr_at - 1) & 63)) as u64 & self.addr_mask)
                << self.addr_shift,
        }
    }

    /// The entry's PC-table index, for validation.
    #[inline]
    fn pc_index(&self, bytes: &[u8], at: usize) -> u64 {
        let low = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("entry plus padding"));
        (low >> 1) & self.pc_mask
    }
}

/// Encodes records into a self-describing byte buffer, under the
/// narrowest [`Layout`] that holds them.
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
    let mut enc = Encoder::with_capacity(Layout::of(records), 0, records.len());
    for r in records {
        let index = enc.layout().index_of(r.pc);
        enc.push(r, index);
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

/// Streaming column writer: packs records one at a time straight into
/// their core's column under a [`Layout`] fixed up front, so a trace
/// pulled off a generator is never materialized as a `Vec<TraceRecord>`
/// or encoded in a second pass.
#[derive(Debug)]
pub struct Encoder {
    layout: Layout,
    fields: Fields,
    /// Address and gap bits the layout has no room for.
    addr_reject: u64,
    igap_reject: u64,
    order: Vec<u8>,
    columns: Vec<Vec<u8>>,
}

impl Encoder {
    /// Creates an encoder packing under `layout`, with `cores` columns
    /// (more appear on demand when a record names a higher core),
    /// pre-sized for `records` records spread about evenly over them.
    pub fn with_capacity(layout: Layout, cores: usize, records: usize) -> Self {
        let cores = cores.min(MAX_CORES);
        let fields = Fields::of(&layout);
        // Slack for uneven interleaving; capacity that is never written
        // is never touched, so it costs address space, not memory.
        let per_core = records.checked_div(cores).map_or(0, |n| n + n / 8 + 64);
        Encoder {
            addr_reject: !(fields.addr_mask << fields.addr_shift),
            igap_reject: !fields.igap_mask,
            fields,
            layout,
            order: Vec::with_capacity(records),
            columns: (0..cores)
                .map(|_| Vec::with_capacity(per_core * fields.width))
                .collect(),
        }
    }

    /// The layout records are packed under.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Appends one record to its core's column, storing `index` as its
    /// PC: a generator that knows each record's PC-table index hands it
    /// over with the record ([`crate::TraceArtifact::freeze`]), and
    /// anyone else looks it up with [`Layout::index_of`].
    ///
    /// # Panics
    ///
    /// Panics if `index` does not name the record's PC in the table, or
    /// the record does not fit the layout: its address has bits outside
    /// the address field, or its gap is too wide. Nothing is ever
    /// truncated.
    #[inline]
    pub fn push(&mut self, r: &TraceRecord, index: u32) {
        let core = usize::from(r.core);
        if core >= self.columns.len() {
            self.columns.resize_with(core + 1, Vec::new);
        }
        assert!(
            self.layout.pcs.get(index as usize) == Some(&r.pc),
            "PC-table index {index} does not name the PC of record {r:?}"
        );
        assert!(
            r.addr & self.addr_reject == 0 && u64::from(r.igap) & self.igap_reject == 0,
            "record {r:?} does not fit the layout (addr_shift {}, addr_bits {}, igap_bits {})",
            self.layout.addr_shift,
            self.layout.addr_bits,
            self.layout.igap_bits
        );
        let f = &self.fields;
        let addr = r.addr >> f.addr_shift;
        // Kind, index and gap fill at most the low 64 bits; the address
        // field starts at bit 1 to 64 and spills into the high half.
        let low = u64::from(r.kind.is_write())
            | u64::from(index) << 1
            | u64::from(r.igap) << f.igap_at
            | addr << 1 << (f.addr_at - 1);
        let high = addr >> (64 - f.addr_at);
        // A fixed 16-byte copy, cut back to the entry width: cheaper than
        // a copy of variable length.
        let col = &mut self.columns[core];
        col.extend_from_slice(&(u128::from(high) << 64 | u128::from(low)).to_le_bytes());
        col.truncate(col.len() - (16 - f.width));
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
        let width = self.fields.width;
        let counts = self.columns.iter().map(|c| c.len() / width).collect();
        let columns = self
            .columns
            .into_iter()
            .map(|mut col| {
                col.extend_from_slice(&[0; TAIL_BYTES]);
                Bytes::from(col)
            })
            .collect();
        Columns {
            fields: self.fields,
            layout: self.layout,
            order: self.order.into(),
            counts,
            columns,
        }
    }
}

/// A frozen trace in column layout: one [`Column`] per core plus the
/// order stream. Clones share storage.
#[derive(Debug, Clone)]
pub struct Columns {
    layout: Layout,
    fields: Fields,
    order: Bytes,
    /// Records in each column.
    counts: Vec<usize>,
    /// Each column's entries, followed by at least [`TAIL_BYTES`] bytes
    /// that are zero padding or the next column's entries.
    columns: Vec<Bytes>,
}

impl Columns {
    /// Parses and fully validates an encoded stream — header, layout,
    /// sizes, every order byte against the column counts, and every
    /// entry's PC index against the table — so reading it afterwards is
    /// infallible. The columns are views into `buf`, not copies.
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
        let pc_count = u32_at(28) as usize;
        let mut layout = Layout {
            pcs: Vec::new(),
            addr_shift: b[24],
            addr_bits: b[25],
            igap_bits: b[26],
            pc_bits: b[27],
        };
        layout.validate(pc_count)?;
        let pcs_start = HEADER_BYTES + 8 * cores;
        let order_start = pcs_start + 8 * pc_count;
        if b.len() < order_start {
            return Err(DecodeError::Truncated);
        }
        let counts: Vec<u64> = (0..cores).map(|c| u64_at(HEADER_BYTES + 8 * c)).collect();
        let len = u64_at(16);
        if counts.iter().try_fold(0u64, |s, &n| s.checked_add(n)) != Some(len) {
            return Err(DecodeError::ColumnMismatch);
        }
        layout.pcs = (0..pc_count).map(|i| u64_at(pcs_start + 8 * i)).collect();
        let fields = Fields::of(&layout);
        // Both sizes overflow only for lengths no buffer could hold.
        let len = usize::try_from(len).map_err(|_| DecodeError::Truncated)?;
        let columns_start = order_start.checked_add(len).ok_or(DecodeError::Truncated)?;
        let end = len
            .checked_mul(fields.width)
            .and_then(|n| n.checked_add(columns_start + TAIL_BYTES))
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
        for at in (columns_start..end - TAIL_BYTES).step_by(fields.width) {
            let index = fields.pc_index(b, at);
            if index >= pc_count as u64 {
                return Err(DecodeError::BadPcIndex(index as u32));
            }
        }
        let counts: Vec<usize> = counts.into_iter().map(|n| n as usize).collect();
        let mut at = columns_start;
        let columns = counts
            .iter()
            .map(|&n| {
                at += n * fields.width;
                buf.slice(at - n * fields.width..at + TAIL_BYTES)
            })
            .collect();
        Ok(Columns {
            layout,
            fields,
            order: buf.slice(order_start..columns_start),
            counts,
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

    /// The layout the entries are packed under.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The order stream: the core id of each record, in global order.
    pub fn order(&self) -> &[u8] {
        &self.order
    }

    /// Size of the encoded stream ([`Self::write_to`]'s output), which is
    /// also about what the frozen columns hold in memory.
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES
            + 8 * (self.cores() + self.layout.pcs.len())
            + self.len() * (1 + self.fields.width)
            + TAIL_BYTES
    }

    /// Core `core`'s records in program order (empty past
    /// [`Self::cores`]).
    #[inline]
    pub fn column(&self, core: usize) -> Column<'_> {
        Column {
            core: core as u8,
            len: self.counts.get(core).copied().unwrap_or(0),
            bytes: self.columns.get(core).map_or(&[], |b| &b[..]),
            fields: &self.fields,
            pcs: &self.layout.pcs,
        }
    }

    /// The records in global order.
    pub fn iter(&self) -> TraceReplay<'_> {
        TraceReplay {
            order: &self.order,
            columns: &self.columns,
            fields: self.fields,
            pcs: &self.layout.pcs,
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
            seen[..self.counts.len()].copy_from_slice(&self.counts);
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
        let l = &self.layout;
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(self.columns.len() as u32).to_le_bytes())?;
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        w.write_all(&[l.addr_shift, l.addr_bits, l.igap_bits, l.pc_bits])?;
        w.write_all(&(l.pcs.len() as u32).to_le_bytes())?;
        for &n in &self.counts {
            w.write_all(&(n as u64).to_le_bytes())?;
        }
        for pc in &l.pcs {
            w.write_all(&pc.to_le_bytes())?;
        }
        w.write_all(&self.order)?;
        for (col, &n) in self.columns.iter().zip(&self.counts) {
            w.write_all(&col[..n * self.fields.width])?;
        }
        w.write_all(&[0; TAIL_BYTES])
    }

    /// The encoded stream as one buffer.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
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
    len: usize,
    /// The entries plus at least [`TAIL_BYTES`] readable bytes after them.
    bytes: &'a [u8],
    fields: &'a Fields,
    pcs: &'a [u64],
}

impl Column<'_> {
    /// Records in the column.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the core has no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column's `i`-th record, if it has one.
    #[inline]
    pub fn get(&self, i: usize) -> Option<TraceRecord> {
        (i < self.len).then(|| {
            self.fields
                .unpack(self.core, self.bytes, i * self.fields.width, self.pcs)
        })
    }

    /// Decodes the column's records from index `start` on into `out`, as
    /// many as fit or as the column has left, and returns how many it
    /// wrote. Decoding a run of records in one go lets the loads of
    /// their cache lines overlap, where [`Self::get`] per record waits
    /// on each line in turn.
    #[inline]
    pub fn decode_into(&self, start: usize, out: &mut [TraceRecord]) -> usize {
        let n = self.len.saturating_sub(start).min(out.len());
        let width = self.fields.width;
        for (k, slot) in out[..n].iter_mut().enumerate() {
            *slot = self
                .fields
                .unpack(self.core, self.bytes, (start + k) * width, self.pcs);
        }
        n
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
    fields: Fields,
    pcs: &'a [u64],
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
        self.next[c] = at + self.fields.width;
        Some(self.fields.unpack(core, &self.columns[c], at, self.pcs))
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
        let layout = Layout::of(&recs);
        assert_eq!(
            encoded.len(),
            HEADER_BYTES
                + 8 * (16 + layout.pcs().len())
                + recs.len() * (1 + layout.entry_bytes())
                + TAIL_BYTES
        );
        assert!(layout.entry_bytes() <= 7, "{layout:?}");
        let decoded = decode(&encoded).expect("roundtrip");
        assert_eq!(decoded, recs);
    }

    #[test]
    fn layout_widths_are_the_narrowest_that_fit() {
        let rec = |pc, addr, igap| TraceRecord {
            core: 0,
            kind: AccessKind::Write,
            pc,
            addr,
            igap,
        };
        let l = Layout::of(&[rec(9, 0x1_0000, 1), rec(3, 0x4_0000, 255), rec(9, 0, 2)]);
        assert_eq!(l.pcs(), &[3, 9]);
        assert_eq!(
            (l.addr_shift, l.addr_bits, l.igap_bits, l.pc_bits),
            (16, 3, 8, 1)
        );
        assert_eq!(l.entry_bytes(), 2); // 1 + 1 + 3 + 8 bits
        let widest = Layout::of(&[rec(0, u64::MAX, u32::MAX), rec(1, 1, 0)]);
        assert_eq!(widest.entry_bytes(), 13); // 1 + 1 + 64 + 32 bits
        assert_eq!(Layout::of(&[]).entry_bytes(), 1);
        assert_eq!(Layout::new(vec![1; 5], 0, 0, 0).pcs(), &[1]);
        assert_eq!(Layout::new((0..5).collect(), 0, 0, 0).pc_bits, 3);
        assert_eq!(Layout::new((0..4).collect(), 0, 0, 0).pc_bits, 2);
    }

    #[test]
    #[should_panic(expected = "PC 0x3 is outside")]
    fn index_of_rejects_an_unknown_pc() {
        let layout = Layout::new(vec![2, 1], 6, 4096, 10);
        assert_eq!((layout.index_of(1), layout.index_of(2)), (0, 1));
        layout.index_of(3);
    }

    #[test]
    #[should_panic(expected = "index 0 does not name the PC")]
    fn push_rejects_an_index_that_names_another_pc() {
        let mut enc = Encoder::with_capacity(Layout::new(vec![1, 2], 6, 4096, 10), 1, 1);
        let rec = TraceRecord {
            core: 0,
            kind: AccessKind::Read,
            pc: 2,
            addr: 64,
            igap: 1,
        };
        enc.push(&rec, 1);
        enc.push(&rec, 0);
    }

    #[test]
    fn push_rejects_what_does_not_fit_and_never_truncates() {
        let layout = Layout::new(vec![7], 6, 4096, 10);
        let ok = TraceRecord {
            core: 0,
            kind: AccessKind::Read,
            pc: 7,
            addr: 4096,
            igap: 15,
        };
        for (bad, index) in [
            (TraceRecord { addr: 32, ..ok }, 0),   // below the shift
            (TraceRecord { addr: 8192, ..ok }, 0), // past the address field
            (TraceRecord { igap: 16, ..ok }, 0),   // past the gap field
            (ok, 1),                               // past the PC table
        ] {
            let layout = layout.clone();
            let fits = std::panic::catch_unwind(move || {
                let mut enc = Encoder::with_capacity(layout, 1, 1);
                enc.push(&ok, 0);
                enc.push(&bad, index);
            });
            assert!(fits.is_err(), "{bad:?} was accepted");
        }
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
        for old in [2, 3, 99] {
            b[8] = old;
            assert_eq!(decode(&b), Err(DecodeError::BadVersion(u32::from(old))));
        }
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
    fn bad_layout_rejected() {
        let b = encode(&records(3)).to_vec();
        for (at, value, field) in [
            (24, 64, "addr_shift"),
            (25, 65, "addr_bits"),
            (26, 33, "igap_bits"),
            (27, 32, "pc_bits"),
            (27, 0, "pcs"),
        ] {
            let mut bad = b.clone();
            bad[at] = value;
            assert_eq!(decode(&bad), Err(DecodeError::BadLayout(field)), "{field}");
        }
        let mut shifted = b.clone();
        shifted[24] = 63; // with the 20-odd address bits, past bit 63
        assert_eq!(decode(&shifted), Err(DecodeError::BadLayout("addr_bits")));
        let mut long_table = b.clone();
        long_table[28..32].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&long_table), Err(DecodeError::BadLayout("pcs")));
    }

    #[test]
    fn bad_pc_index_rejected() {
        let rec = |pc| TraceRecord {
            core: 0,
            kind: AccessKind::Read,
            pc,
            addr: 0,
            igap: 0,
        };
        // Three PCs take a 2-bit index, so index 3 names no PC.
        let b = encode(&[rec(10), rec(20), rec(30)]).to_vec();
        let last_entry = b.len() - TAIL_BYTES - 1;
        assert_eq!(b[last_entry], 2 << 1);
        let mut bad = b.clone();
        bad[last_entry] = 3 << 1;
        assert_eq!(decode(&bad), Err(DecodeError::BadPcIndex(3)));
    }

    #[test]
    fn out_of_range_core_and_column_mismatch_rejected() {
        let recs = records(40);
        let b = encode(&recs).to_vec();
        let cores = u32::from_le_bytes(b[12..16].try_into().unwrap()) as usize;
        let order_start = HEADER_BYTES + 8 * (cores + Layout::of(&recs).pcs().len());

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
        let mut enc = Encoder::with_capacity(Layout::of(&recs), 16, recs.len());
        assert!(enc.is_empty());
        for r in &recs {
            let index = enc.layout().index_of(r.pc);
            enc.push(r, index);
        }
        assert_eq!(enc.len(), recs.len());
        let cols = enc.finish();
        assert_eq!(cols.to_vec(), encode(&recs).to_vec());
        assert_eq!(cols.encoded_len(), cols.to_vec().len());
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
