//! The multicore system driver.

use unison_core::{DramCacheModel, MemPorts, Request};
use unison_dram::Ps;
use unison_trace::{AccessKind, TraceRecord};

use crate::core_model::{CoreClock, CoreParams, GapTiming};

/// A 16-core (configurable) pod driving one DRAM cache design over a
/// trace, presenting requests to the memory system in global
/// arrival-time order.
#[derive(Debug)]
pub struct System<C> {
    cache: C,
    mem: MemPorts,
    params: CoreParams,
    gap: GapTiming,
    cores: Vec<CoreClock>,
}

/// Snapshot of progress counters at a point in time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Progress {
    /// Total instructions retired across cores.
    pub instructions: u64,
    /// The slowest core's local time (the pod's elapsed time).
    pub elapsed_ps: Ps,
    /// Total memory stall time across cores.
    pub stall_ps: Ps,
}

/// A supplier of per-core record streams for the dispatch loop.
///
/// The loop asks for records core by core, each in that core's program
/// order, and never looks at the global interleave itself. Two sources
/// exist: [`crate::ArtifactColumns`], which decodes a frozen artifact's
/// per-core columns in short bursts (the runner's replay path), and
/// [`Buffered`], which de-interleaves any global-order iterator through
/// per-core ring buffers.
pub trait RecordSource {
    /// The next record of `core`, or `None` once it has no more.
    fn next_record(&mut self, core: usize) -> Option<TraceRecord>;

    /// Ends a dispatch phase by the stream-position rule (see
    /// [`DispatchSession::next_phase`]): every record taken but not yet
    /// handed to a core's clock is dropped, and each core resumes at its
    /// first record at or past the stream position.
    fn skip_to_stream_position(&mut self);
}

/// Persistent dispatch state for a run consumed in record-budget
/// increments: the record source, each core's head-of-line record, and
/// a winner tree over their issue times.
///
/// Stepping a session through N budget increments with
/// [`System::run_session`] is **bit-identical** to one call with the
/// summed budget: all selection state lives in the session's tree, so a
/// budget boundary is just a place the loop stops and later reads the
/// root again (pinned by `session_stepping_matches_single_run`).
///
/// # The warmup-boundary record drop
///
/// Each phase of an experiment (warmup, then measurement) historically
/// ran on a fresh set of per-core buffers over one global-order stream.
/// At the end of a phase those buffers held records already pulled off
/// the stream but never dispatched — each core's head-of-line record,
/// and behind the slower cores everything read ahead for the faster
/// ones. The fresh buffers of the next phase dropped them and went on
/// reading where the stream stood. [`DispatchSession::next_phase`] keeps
/// that behaviour by a rule instead of by buffering: the stream position
/// is one past the largest global position among the cores'
/// head-of-line records (or the end of the stream if some core ran dry),
/// and the next phase starts each core at its first record at or past
/// that position. The golden fixtures pin the result.
#[derive(Debug)]
pub struct DispatchSession<S> {
    source: S,
    /// Each core's head-of-line record (meaningful where the core's leaf
    /// in `tree` is not [`IDLE`]).
    heads: Vec<TraceRecord>,
    /// Selection keys (see [`DispatchKeys`]) of the head-of-line records;
    /// its root is the next record to dispatch.
    tree: WinnerTree,
    primed: bool,
}

/// Selection key of a core with no record to dispatch.
const IDLE: u64 = u64::MAX;

impl<S: RecordSource> DispatchSession<S> {
    /// Creates a session over `source`; per-core state is sized on first
    /// use.
    pub fn new(source: S) -> Self {
        DispatchSession {
            source,
            heads: Vec::new(),
            tree: WinnerTree::default(),
            primed: false,
        }
    }

    /// Crosses a phase boundary: drops the head-of-line records and
    /// everything before the stream position (see the type docs), so the
    /// next [`System::run_session`] call starts the phase exactly as a
    /// fresh buffered reader would.
    pub fn next_phase(&mut self) {
        self.source.skip_to_stream_position();
        self.primed = false;
    }
}

/// Packs `(issue time, core)` into one `u64` whose plain ordering is the
/// dispatch order: lowest issue time first, lowest core on ties. The
/// core sits in the low `bits` bits, so keys are unique and one `min`
/// compares both fields.
#[derive(Debug, Clone, Copy)]
struct DispatchKeys {
    bits: u32,
    /// Largest issue time a key can hold without reaching [`IDLE`]:
    /// about 20 hours of simulated time even at 256 cores.
    max_ps: Ps,
}

impl DispatchKeys {
    fn new(cores: usize) -> Self {
        let bits = usize::BITS - (cores - 1).leading_zeros();
        DispatchKeys {
            bits,
            max_ps: (u64::MAX >> bits) - 1,
        }
    }

    #[inline]
    fn pack(self, t: Ps, core: usize) -> u64 {
        assert!(
            t <= self.max_ps,
            "simulated time {t} ps overflows the dispatch key"
        );
        (t << self.bits) | core as u64
    }

    #[inline]
    fn time(self, key: u64) -> Ps {
        key >> self.bits
    }

    #[inline]
    fn core(self, key: u64) -> usize {
        (key & ((1 << self.bits) - 1)) as usize
    }
}

/// A winner tree over one key per core: the leaves, padded with [`IDLE`]
/// to a power of two, sit at `nodes[leaves..]`, and every inner node
/// holds the smaller of its two children, so the root `nodes[1]` is the
/// smallest key. Changing one leaf recomputes only its log2(leaves)
/// ancestors.
#[derive(Debug, Default)]
struct WinnerTree {
    /// `2 * leaves` slots; slot 0 is unused.
    nodes: Vec<u64>,
    leaves: usize,
}

impl WinnerTree {
    /// Rebuilds the tree over `keys`, one per core.
    fn rebuild(&mut self, keys: impl ExactSizeIterator<Item = u64>) {
        self.leaves = keys.len().next_power_of_two();
        self.nodes.clear();
        self.nodes.resize(self.leaves, IDLE);
        self.nodes.extend(keys);
        self.nodes.resize(2 * self.leaves, IDLE);
        for i in (1..self.leaves).rev() {
            self.nodes[i] = self.nodes[2 * i].min(self.nodes[2 * i + 1]);
        }
    }

    /// The smallest key ([`IDLE`] when every leaf is).
    #[inline]
    fn min(&self) -> u64 {
        self.nodes[1]
    }

    /// Sets `leaf`'s key and replays its path to the root. The running
    /// minimum of the subtree climbed so far is the path node's value,
    /// so each level reads only the sibling.
    #[inline]
    fn set(&mut self, leaf: usize, key: u64) {
        let mut i = self.leaves + leaf;
        let mut min = key;
        self.nodes[i] = key;
        while i > 1 {
            min = min.min(self.nodes[i ^ 1]);
            i >>= 1;
            self.nodes[i] = min;
        }
    }
}

/// Initial per-core ring capacity, log2 (16 records). Refill is
/// *minimal* — it stops as soon as the requesting core has one record —
/// so buffered depth per core tracks how far the cores' clocks drift
/// from the trace's interleave order.
const SLAB_INIT_LOG2: u32 = 4;

/// A [`RecordSource`] over any global-order iterator: records pulled for
/// one core wait in per-core FIFO rings until their core asks for them.
///
/// Refill is *minimal* — pull exactly until the requesting core has a
/// record — so the stream position at any moment is one past the latest
/// record handed out, which is what the stream-position rule of
/// [`DispatchSession`] assumes. Ending a phase clears the rings.
#[derive(Debug)]
pub struct Buffered<I> {
    trace: I,
    bufs: CoreSlab,
    exhausted: bool,
}

impl<I: Iterator<Item = TraceRecord>> Buffered<I> {
    /// Buffers `trace` for a system of `cores` cores. Records naming a
    /// core past the last wrap around (`core % cores`).
    pub fn new(trace: I, cores: usize) -> Self {
        let mut bufs = CoreSlab::default();
        bufs.ensure_cores(cores);
        Buffered {
            trace,
            bufs,
            exhausted: false,
        }
    }
}

impl<I: Iterator<Item = TraceRecord>> RecordSource for Buffered<I> {
    #[inline]
    fn next_record(&mut self, core: usize) -> Option<TraceRecord> {
        // The core id is in range for any spec-conformant trace, so the
        // wrap is a predicted-not-taken branch, not a hardware division.
        let n = self.bufs.cores();
        while self.bufs.is_empty(core) && !self.exhausted {
            match self.trace.next() {
                Some(r) => {
                    let c = usize::from(r.core);
                    let c = if c < n { c } else { c % n };
                    self.bufs.push_back(c, r);
                }
                None => self.exhausted = true,
            }
        }
        self.bufs.pop_front(core)
    }

    fn skip_to_stream_position(&mut self) {
        // The iterator already stands at the stream position: everything
        // before it was either dispatched or is sitting in the rings.
        self.bufs.clear();
        self.exhausted = false;
    }
}

/// Per-core FIFO record buffers backed by one flat slab.
///
/// Core `c` owns the power-of-two window
/// `slab[c << cap_log2 .. (c + 1) << cap_log2]` and rings within it, so
/// a push or pop is one masked index plus a `u32` head/len update
/// against two small parallel arrays.
#[derive(Debug, Default)]
struct CoreSlab {
    /// All cores' rings, `cores << cap_log2` slots.
    slab: Vec<TraceRecord>,
    /// Per-core ring head, kept masked (`< 1 << cap_log2`).
    head: Vec<u32>,
    /// Per-core live record count, `<= 1 << cap_log2`.
    len: Vec<u32>,
    /// Log2 of each core's ring capacity; uniform so indexing is one
    /// shift + OR with no per-core lookup.
    cap_log2: u32,
}

impl CoreSlab {
    /// Sizes the slab for `n` cores (no-op once sized).
    fn ensure_cores(&mut self, n: usize) {
        if self.head.len() < n {
            self.head.resize(n, 0);
            self.len.resize(n, 0);
            if self.cap_log2 == 0 {
                self.cap_log2 = SLAB_INIT_LOG2;
            }
            self.slab.resize(n << self.cap_log2, FILLER);
        }
    }

    /// Number of cores the slab is sized for.
    #[inline]
    fn cores(&self) -> usize {
        self.head.len()
    }

    #[inline]
    fn is_empty(&self, core: usize) -> bool {
        self.len[core] == 0
    }

    /// Empties every ring, keeping the capacity.
    fn clear(&mut self) {
        self.len.fill(0);
    }

    #[inline]
    fn push_back(&mut self, core: usize, rec: TraceRecord) {
        let mask = (1u32 << self.cap_log2) - 1;
        if self.len[core] > mask {
            self.grow();
        }
        let mask = (1u32 << self.cap_log2) - 1;
        let slot = (self.head[core] + self.len[core]) & mask;
        self.slab[(core << self.cap_log2) | slot as usize] = rec;
        self.len[core] += 1;
    }

    #[inline]
    fn pop_front(&mut self, core: usize) -> Option<TraceRecord> {
        if self.len[core] == 0 {
            return None;
        }
        let mask = (1u32 << self.cap_log2) - 1;
        let rec = self.slab[(core << self.cap_log2) | self.head[core] as usize];
        self.head[core] = (self.head[core] + 1) & mask;
        self.len[core] -= 1;
        Some(rec)
    }

    /// Doubles every core's ring, repacking live records to offset 0.
    /// Capacity is uniform across cores, so one hot core's burst grows
    /// the whole slab — acceptable because depth tracks the trace's core
    /// interleave, which is similar for every core.
    #[cold]
    fn grow(&mut self) {
        let old_log2 = self.cap_log2;
        let new_log2 = old_log2 + 1;
        let mask = (1u32 << old_log2) - 1;
        let n = self.cores();
        let mut slab = vec![FILLER; n << new_log2];
        for core in 0..n {
            let old_base = core << old_log2;
            let new_base = core << new_log2;
            for i in 0..self.len[core] {
                let src = old_base | ((self.head[core] + i) & mask) as usize;
                slab[new_base + i as usize] = self.slab[src];
            }
            self.head[core] = 0;
        }
        self.slab = slab;
        self.cap_log2 = new_log2;
    }
}

/// Slot filler for unoccupied record slots; never dispatched.
pub(crate) const FILLER: TraceRecord = TraceRecord {
    core: 0,
    kind: AccessKind::Read,
    pc: 0,
    addr: 0,
    igap: 0,
};

impl<C: DramCacheModel> System<C> {
    /// Builds a system of `cores` cores around `cache` and `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cores: usize, cache: C, mem: MemPorts, params: CoreParams) -> Self {
        assert!(cores > 0, "need at least one core");
        System {
            cache,
            mem,
            params,
            gap: GapTiming::new(&params),
            cores: vec![CoreClock::default(); cores],
        }
    }

    /// The cache under test.
    pub fn cache(&self) -> &C {
        &self.cache
    }

    /// The shared memory devices.
    pub fn mem(&self) -> &MemPorts {
        &self.mem
    }

    /// Current progress counters.
    pub fn progress(&self) -> Progress {
        Progress {
            instructions: self.cores.iter().map(|c| c.instructions).sum(),
            elapsed_ps: self.cores.iter().map(|c| c.time_ps).max().unwrap_or(0),
            stall_ps: self.cores.iter().map(|c| c.stall_ps).sum(),
        }
    }

    /// Clears cache and DRAM statistics (the warmup boundary). Core
    /// clocks keep running — callers snapshot [`Self::progress`] before
    /// and after the measurement region instead.
    pub fn reset_measurement(&mut self) {
        self.cache.reset_stats();
        self.mem.reset_stats();
    }

    /// Runs up to `limit` records from `trace`, interleaving cores by
    /// issue time. Returns the number of records consumed.
    ///
    /// The trace arrives in per-core program order but arbitrary global
    /// order; it is de-interleaved through a fresh [`Buffered`] source
    /// and dispatched in global `(issue time, core)` order, so the memory
    /// system observes a globally time-ordered request stream. Records
    /// still buffered when the call returns are dropped, which is the
    /// phase boundary of [`DispatchSession`] for callers that run warmup
    /// and measurement as two calls over one iterator.
    pub fn run<I>(&mut self, trace: &mut I, limit: u64) -> u64
    where
        I: Iterator<Item = TraceRecord>,
    {
        let mut session = DispatchSession::new(Buffered::new(trace, self.cores.len()));
        self.run_session(&mut session, limit)
    }

    /// Consumes up to `limit` further records from `session`, leaving it
    /// ready to continue from exactly where this call stopped. Driving
    /// one session through many small budgets is bit-identical to one
    /// call with the summed budget; the experiment runner makes one call
    /// per phase, with [`DispatchSession::next_phase`] between them.
    ///
    /// Selection reads the root of the session's winner tree over each
    /// core's head-of-line `(issue time, core)` key: lowest issue time,
    /// then lowest core, the order a heap of `(issue, core)` pairs pops
    /// in. After a record is dispatched its core's leaf takes the key of
    /// the core's next record (or [`IDLE`]), which costs log2(cores)
    /// sibling reads whether or not the next record comes from the same
    /// core.
    pub fn run_session<S: RecordSource>(
        &mut self,
        session: &mut DispatchSession<S>,
        limit: u64,
    ) -> u64 {
        let n_cores = self.cores.len();
        let DispatchSession {
            source,
            heads,
            tree,
            primed,
        } = session;
        let packing = DispatchKeys::new(n_cores);

        if !*primed {
            heads.clear();
            heads.resize(n_cores, FILLER);
            let keys = (0..n_cores).map(|c| match source.next_record(c) {
                Some(r) => {
                    heads[c] = r;
                    packing.pack(self.cores[c].time_ps + self.gap.compute_ps(r.igap), c)
                }
                None => IDLE,
            });
            tree.rebuild(keys);
            *primed = true;
        }

        let mut consumed = 0u64;
        while consumed < limit {
            let key = tree.min();
            if key == IDLE {
                break;
            }
            let (t, c) = (packing.time(key), packing.core(key));
            let rec = heads[c];
            // `t` was derived from this exact (clock, record) pair, so
            // the clock advances to it directly.
            self.cores[c].advance_compute_to(t, u64::from(rec.igap));
            let req = Request {
                core: rec.core,
                pc: rec.pc,
                addr: rec.addr,
                is_write: rec.kind.is_write(),
            };
            let access = self.cache.access(t, &req, &mut self.mem);
            if !req.is_write || self.params.stall_on_stores {
                self.cores[c].apply_load(self.gap.overlap_ps, t, access.critical_ps);
            }
            consumed += 1;

            let next = match source.next_record(c) {
                Some(r) => {
                    heads[c] = r;
                    packing.pack(self.cores[c].time_ps + self.gap.compute_ps(r.igap), c)
                }
                None => IDLE,
            };
            tree.set(c, next);
        }
        consumed
    }

    /// Consumes the system, returning its parts (cache, memory).
    pub fn into_parts(self) -> (C, MemPorts) {
        (self.cache, self.mem)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use unison_core::{IdealCache, NoCache};
    use unison_trace::{workloads, WorkloadGen};

    #[test]
    fn runs_requested_number_of_records() {
        let mut sys = System::new(
            16,
            NoCache::new(),
            MemPorts::paper_default(),
            CoreParams::default(),
        );
        let mut trace = WorkloadGen::new(workloads::web_serving(), 1);
        let n = sys.run(&mut trace, 10_000);
        assert_eq!(n, 10_000);
        let p = sys.progress();
        assert!(p.instructions > 0);
        assert!(p.elapsed_ps > 0);
        assert_eq!(sys.cache().stats().accesses, 10_000);
    }

    #[test]
    fn finite_trace_ends_cleanly() {
        let mut sys = System::new(
            4,
            NoCache::new(),
            MemPorts::paper_default(),
            CoreParams::default(),
        );
        let recs: Vec<_> = WorkloadGen::new(workloads::web_search(), 2)
            .take(500)
            .collect();
        let mut iter = recs.into_iter();
        let n = sys.run(&mut iter, 1_000_000);
        assert_eq!(n, 500);
    }

    #[test]
    fn ideal_cache_outperforms_no_cache() {
        let spec = workloads::data_serving();
        let run = |cache_is_ideal: bool| -> f64 {
            let mut trace = WorkloadGen::new(spec.clone(), 3);
            let params = CoreParams::default();
            if cache_is_ideal {
                let mut sys = System::new(
                    16,
                    IdealCache::new(1 << 30),
                    MemPorts::paper_default(),
                    params,
                );
                sys.run(&mut trace, 30_000);
                let p = sys.progress();
                p.instructions as f64 / p.elapsed_ps as f64
            } else {
                let mut sys = System::new(16, NoCache::new(), MemPorts::paper_default(), params);
                sys.run(&mut trace, 30_000);
                let p = sys.progress();
                p.instructions as f64 / p.elapsed_ps as f64
            }
        };
        let ideal = run(true);
        let baseline = run(false);
        assert!(
            ideal > baseline * 1.1,
            "ideal {ideal:.6} should clearly beat no-cache {baseline:.6}"
        );
    }

    /// The original dispatch loop: `VecDeque` per-core buffers and one
    /// `(issue, core)` heap push + pop per record. Kept as the oracle the
    /// tree loop must match.
    fn run_reference<C: DramCacheModel, I: Iterator<Item = TraceRecord>>(
        sys: &mut System<C>,
        trace: &mut I,
        limit: u64,
    ) -> u64 {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n_cores = sys.cores.len();
        let mut bufs: Vec<VecDeque<TraceRecord>> = vec![VecDeque::new(); n_cores];
        let mut heap: BinaryHeap<Reverse<(Ps, usize)>> = BinaryHeap::new();
        let mut consumed = 0u64;
        let mut exhausted = false;

        fn refill<I: Iterator<Item = TraceRecord>>(
            trace: &mut I,
            bufs: &mut [VecDeque<TraceRecord>],
            core: usize,
            exhausted: &mut bool,
        ) {
            while bufs[core].is_empty() && !*exhausted {
                match trace.next() {
                    Some(r) => {
                        let c = usize::from(r.core) % bufs.len();
                        bufs[c].push_back(r);
                    }
                    None => *exhausted = true,
                }
            }
        }

        for c in 0..n_cores {
            refill(trace, &mut bufs, c, &mut exhausted);
            if let Some(r) = bufs[c].front() {
                let issue = sys.cores[c].time_ps + sys.params.compute_ps(u64::from(r.igap));
                heap.push(Reverse((issue, c)));
            }
        }

        while consumed < limit {
            let Some(Reverse((_, c))) = heap.pop() else {
                break;
            };
            let Some(rec) = bufs[c].pop_front() else {
                continue;
            };
            let issue = sys.cores[c].advance_compute(&sys.params, u64::from(rec.igap));
            let req = Request {
                core: rec.core,
                pc: rec.pc,
                addr: rec.addr,
                is_write: rec.kind.is_write(),
            };
            let access = sys.cache.access(issue, &req, &mut sys.mem);
            if !req.is_write || sys.params.stall_on_stores {
                sys.cores[c].apply_load(sys.params.overlap_ps(), issue, access.critical_ps);
            }
            consumed += 1;

            refill(trace, &mut bufs, c, &mut exhausted);
            if let Some(r) = bufs[c].front() {
                let next_issue = sys.cores[c].time_ps + sys.params.compute_ps(u64::from(r.igap));
                heap.push(Reverse((next_issue, c)));
            }
        }
        consumed
    }

    /// Everything a dispatch order can influence: every core's clock,
    /// the cache statistics, and both DRAM devices' statistics.
    fn fingerprint<C: DramCacheModel>(sys: &System<C>) -> String {
        let clocks: Vec<_> = sys
            .cores
            .iter()
            .map(|c| (c.time_ps, c.instructions, c.stall_ps))
            .collect();
        format!(
            "{clocks:?}\n{:?}\n{:?}\n{:?}",
            sys.cache.stats(),
            sys.mem.stacked.stats(),
            sys.mem.offchip.stats()
        )
    }

    fn ideal_system(cores: usize) -> System<IdealCache> {
        System::new(
            cores,
            IdealCache::new(1 << 26),
            MemPorts::paper_default(),
            CoreParams::default(),
        )
    }

    /// The tree loop must be indistinguishable from the heap reference
    /// — same consumed counts, same core clocks, same cache statistics —
    /// including across a warmup-style split where leftover buffered
    /// records are dropped between calls.
    #[test]
    fn tree_dispatch_matches_reference_loop() {
        for seed in [1u64, 7, 42] {
            let spec = workloads::web_serving();
            let mut fast = ideal_system(16);
            let mut slow = ideal_system(16);
            let mut trace_a = WorkloadGen::new(spec.clone(), seed);
            let mut trace_b = WorkloadGen::new(spec, seed);

            // Split run, as run_experiment does (warmup then measurement).
            assert_eq!(
                fast.run(&mut trace_a, 7_000),
                run_reference(&mut slow, &mut trace_b, 7_000)
            );
            fast.reset_measurement();
            slow.reset_measurement();
            assert_eq!(
                fast.run(&mut trace_a, 5_000),
                run_reference(&mut slow, &mut trace_b, 5_000)
            );
            assert_eq!(fingerprint(&fast), fingerprint(&slow), "seed {seed}");
        }
    }

    /// Stepping a persistent session through many odd-sized budget
    /// increments must be indistinguishable from one `run` call with the
    /// summed budget — same consumed counts, clocks, and cache stats —
    /// including across a warmup-style boundary, where the session's
    /// stream-position rule must reproduce the fresh buffers' drop.
    #[test]
    fn session_stepping_matches_single_run() {
        for seed in [1u64, 42] {
            let spec = workloads::web_serving();
            let mut whole = ideal_system(16);
            let mut stepped = ideal_system(16);
            let mut trace_a = WorkloadGen::new(spec.clone(), seed);
            let trace_b = WorkloadGen::new(spec, seed);

            // Warmup phase: 7_000 records in one call vs ragged steps.
            assert_eq!(whole.run(&mut trace_a, 7_000), 7_000);
            let mut session = DispatchSession::new(Buffered::new(trace_b, 16));
            let mut left = 7_000u64;
            for budget in [1u64, 7, 500, 1_234, 9_999] {
                let got = stepped.run_session(&mut session, budget.min(left));
                assert_eq!(got, budget.min(left));
                left -= got;
            }
            assert_eq!(left, 0);

            // Phase boundary.
            whole.reset_measurement();
            stepped.reset_measurement();
            session.next_phase();
            assert_eq!(whole.run(&mut trace_a, 5_000), 5_000);
            let mut done = 0u64;
            while done < 5_000 {
                done += stepped.run_session(&mut session, 777.min(5_000 - done));
            }
            assert_eq!(fingerprint(&whole), fingerprint(&stepped), "seed {seed}");
        }
    }

    /// How the race below feeds the tree loop.
    #[derive(Debug, Clone, Copy)]
    enum Feed {
        /// Live generation through [`Buffered`].
        Live,
        /// A finite prefix of the trace through [`Buffered`].
        Finite(u64),
        /// A frozen artifact's columns; short ones run dry and grow.
        Columns(u64),
    }

    /// Races one experiment-shaped run (warmup, boundary, measurement)
    /// of the tree loop, stepped with ragged budgets, against the heap
    /// reference over the same trace. With `ties`, every record is a
    /// store (stores do not stall) and every gap takes exactly one cycle
    /// (the IPC exceeds any gap), so all cores issue at the same times
    /// and every pick is decided by the lowest-core tie-break.
    #[allow(clippy::too_many_arguments)]
    fn race<C: DramCacheModel>(
        make: impl Fn() -> C,
        cores: usize,
        seed: u64,
        feed: Feed,
        phases: [u64; 2],
        budgets: &[u64],
        mut params: CoreParams,
        ties: bool,
    ) {
        let mut spec = workloads::web_serving().scaled(64);
        spec.cores = cores as u32;
        if ties {
            spec.write_fraction = 1.0;
            params.ipc_base = f64::from(1u32 << 31);
        }
        let live = || WorkloadGen::new(spec.clone(), seed);
        let mut fast = System::new(cores, make(), MemPorts::paper_default(), params);
        let mut slow = System::new(cores, make(), MemPorts::paper_default(), params);

        let artifact;
        let mut reference: Box<dyn Iterator<Item = TraceRecord>> = match feed {
            Feed::Finite(n) => Box::new(live().take(n as usize)),
            Feed::Live | Feed::Columns(_) => Box::new(live()),
        };
        let source: Box<dyn RecordSource> = match feed {
            Feed::Live => Box::new(Buffered::new(live(), cores)),
            Feed::Finite(n) => Box::new(Buffered::new(live().take(n as usize), cores)),
            Feed::Columns(n) => {
                artifact = unison_trace::TraceArtifact::freeze(&spec, seed, n);
                Box::new(crate::runner::ArtifactColumns::new(
                    &artifact, &spec, seed, cores,
                ))
            }
        };
        let mut session = DispatchSession::new(source);
        let mut steps = budgets.iter().cycle();
        for (i, &phase) in phases.iter().enumerate() {
            if i > 0 {
                fast.reset_measurement();
                slow.reset_measurement();
                session.next_phase();
            }
            let want = run_reference(&mut slow, &mut reference, phase);
            // At least one call per phase, even an empty one: a phase
            // primes every core's head-of-line record before its budget
            // check, as the reference does.
            let mut got = 0;
            loop {
                let ask = (*steps.next().unwrap()).min(phase - got);
                let step = fast.run_session(&mut session, ask);
                got += step;
                if got == phase || step < ask {
                    break; // done, or the source ran out
                }
            }
            assert_eq!(got, want, "{feed:?} phase {i}: consumed");
        }
        assert_eq!(
            fingerprint(&fast),
            fingerprint(&slow),
            "{cores} cores, seed {seed}, {feed:?}, phases {phases:?}"
        );
    }

    impl RecordSource for Box<dyn RecordSource + '_> {
        fn next_record(&mut self, core: usize) -> Option<TraceRecord> {
            (**self).next_record(core)
        }

        fn skip_to_stream_position(&mut self) {
            (**self).skip_to_stream_position();
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The bit-identity race: for random core counts (padded tree
        /// leaves included), seeds, phase lengths, ragged step budgets,
        /// forced issue-time ties and every record source — live,
        /// finite, and frozen columns that may run dry — the tree loop
        /// leaves every clock, the cache statistics and both DRAM
        /// devices' statistics exactly as the heap reference does.
        #[test]
        fn tree_loop_races_the_heap_reference(
            cores in prop_oneof![Just(1usize), Just(3), Just(5), Just(16), Just(17), 1usize..=64],
            seed in any::<u64>(),
            warmup in prop_oneof![Just(0u64), 1u64..3_000],
            measure in 1u64..3_000,
            budgets in proptest::collection::vec(1u64..700, 1..6),
            feed in 0u8..3,
            len in 0u64..5_000,
            nocache in any::<bool>(),
            odd_ipc in any::<bool>(),
            ties in any::<bool>(),
        ) {
            let feed = match feed {
                0 => Feed::Live,
                1 => Feed::Finite(len),
                _ => Feed::Columns(len),
            };
            let phases = [warmup, measure];
            // 1.5 keeps the division in the gap timing; 2.0 shifts.
            let params = CoreParams {
                ipc_base: if odd_ipc { 1.5 } else { 2.0 },
                ..CoreParams::default()
            };
            if nocache {
                race(NoCache::new, cores, seed, feed, phases, &budgets, params, ties);
            } else {
                let ideal = || IdealCache::new(1 << 22);
                race(ideal, cores, seed, feed, phases, &budgets, params, ties);
            }
        }
    }

    #[test]
    fn stall_time_accumulates_for_memory_bound_runs() {
        let mut sys = System::new(
            16,
            NoCache::new(),
            MemPorts::paper_default(),
            CoreParams::default(),
        );
        let mut trace = WorkloadGen::new(workloads::data_serving(), 5);
        sys.run(&mut trace, 20_000);
        let p = sys.progress();
        assert!(
            p.stall_ps > p.elapsed_ps / 4,
            "an uncached memory-bound run must be stall-dominated"
        );
    }
}
