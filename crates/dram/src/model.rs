//! The timestamp-forwarding DRAM timing engine.

use serde::{Deserialize, Serialize};

use crate::address::{FlatRoute, Location, RouteMap, RowCol};
use crate::bank::{BankState, RankState};
use crate::config::DramConfig;
use crate::energy::EnergyCounters;
use crate::time::Ps;

/// A column operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Column read (data leaves the device).
    Read,
    /// Column write (data enters the device).
    Write,
}

/// The computed timing of one DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// When the column command effectively issued (after all constraints).
    pub cas_ps: Ps,
    /// When the first data beat has arrived — the critical-word time a
    /// waiting core observes.
    pub first_data_ps: Ps,
    /// When the last data beat has transferred — when the bus frees and
    /// the full block is available.
    pub last_data_ps: Ps,
    /// The access found its row already open (row-buffer hit).
    pub row_hit: bool,
    /// The access had to activate a row.
    pub activated: bool,
    /// The access had to precharge a *different* open row first
    /// (row-buffer conflict).
    pub conflict: bool,
}

/// Aggregate counters over all accesses since the last stats reset.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Column reads served.
    pub reads: u64,
    /// Column writes served.
    pub writes: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Activations into an idle (precharged) bank.
    pub row_empty: u64,
    /// Activations that had to close another row first.
    pub row_conflicts: u64,
    /// Total data-bus occupancy accumulated, in picoseconds (summed across
    /// channels; divide by channels × elapsed time for utilization).
    pub bus_busy_ps: Ps,
}

/// Per-device timing constants with the clock multiply already paid.
///
/// `DramModel::access` historically converted every constraint from
/// device clocks to picoseconds with a `u64` multiply per use, plus a
/// `div_ceil` per burst — on the innermost per-access path. This table
/// premultiplies each `t_*` by `clock_ps` once at construction and
/// tabulates burst durations by beat count, so the row-hit fast path
/// performs zero multiplications and zero divisions.
///
/// All values are exact (`clocks_to_ps`/`burst_ps` applied eagerly), so
/// table-driven timing is bit-identical to the retained reference — the
/// property `crates/dram/tests/model_properties.rs` races.
#[derive(Debug, Clone)]
struct TimingTable {
    cas_ps: Ps,
    cwd_ps: Ps,
    rp_ps: Ps,
    rcd_ps: Ps,
    rc_ps: Ps,
    ras_ps: Ps,
    wr_ps: Ps,
    wtr_ps: Ps,
    rtp_ps: Ps,
    rrd_ps: Ps,
    faw_ps: Ps,
    /// `clock_ps.div_ceil(2)` — the first-beat arrival offset.
    half_clock_ps: Ps,
    /// Shift turning bytes into a beat index when bytes-per-beat is a
    /// power of two (true for every preset bus width); `None` falls back
    /// to [`DramConfig::burst_ps`].
    beat_shift: Option<u32>,
    /// `burst_ps` by beat count, covering `0..=row_bytes / beat_bytes`
    /// beats — every burst size a row-bounded access can issue (the
    /// designs use 32 B metadata, 64 B blocks, and up-to-row-sized
    /// footprint/page transfers).
    burst_by_beats: Vec<Ps>,
}

impl TimingTable {
    fn new(cfg: &DramConfig) -> Self {
        let t = cfg.timings;
        let beat_bytes = cfg.bus_bits / 8;
        let (beat_shift, burst_by_beats) = if beat_bytes > 0 && beat_bytes.is_power_of_two() {
            let max_beats = cfg.row_bytes.div_ceil(beat_bytes) as u64;
            let lut = (0..=max_beats)
                .map(|beats| (beats * cfg.clock_ps()).div_ceil(2))
                .collect();
            (Some(beat_bytes.trailing_zeros()), lut)
        } else {
            (None, Vec::new())
        };
        TimingTable {
            cas_ps: cfg.clocks_to_ps(t.t_cas),
            cwd_ps: cfg.clocks_to_ps(t.t_cwd),
            rp_ps: cfg.clocks_to_ps(t.t_rp),
            rcd_ps: cfg.clocks_to_ps(t.t_rcd),
            rc_ps: cfg.clocks_to_ps(t.t_rc),
            ras_ps: cfg.clocks_to_ps(t.t_ras),
            wr_ps: cfg.clocks_to_ps(t.t_wr),
            wtr_ps: cfg.clocks_to_ps(t.t_wtr),
            rtp_ps: cfg.clocks_to_ps(t.t_rtp),
            rrd_ps: cfg.clocks_to_ps(t.t_rrd),
            faw_ps: cfg.clocks_to_ps(t.t_faw),
            half_clock_ps: cfg.clock_ps().div_ceil(2),
            beat_shift,
            burst_by_beats,
        }
    }

    /// Tabulated [`DramConfig::burst_ps`]: one shift-add and a load.
    #[inline]
    fn burst(&self, bytes: u32, cfg: &DramConfig) -> Ps {
        match self.beat_shift {
            Some(shift) => {
                let beats = ((bytes as usize) + ((1usize << shift) - 1)) >> shift;
                match self.burst_by_beats.get(beats) {
                    Some(&ps) => ps,
                    // Row-crossing bursts are debug-asserted away in
                    // `access`; compute rather than index out of bounds.
                    None => cfg.burst_ps(bytes),
                }
            }
            None => cfg.burst_ps(bytes),
        }
    }

    /// The step every access takes once its row is open: when its CAS
    /// may issue, the write-to-read turnaround, the wait for the channel
    /// bus, the data burst, and the horizons it leaves for the next
    /// access. `activated` is `None` for a row hit, which waits only for
    /// `earliest_cas`; an access that just activated its row passes the
    /// CAS time `DramModel::activate` returned and whether it closed
    /// another row. [`DramModel::access`] and the row-hit runs of
    /// [`DramModel::access_train`] share it.
    #[inline(always)]
    fn step(
        &self,
        h: &mut RowHorizons,
        now: Ps,
        activated: Option<(Ps, bool)>,
        is_read: bool,
        burst: Ps,
    ) -> Completion {
        let cas_ready = match activated {
            None => now.max(h.earliest_cas),
            Some((ready, _)) => ready,
        };
        // Write-to-read turnaround within the rank.
        let cas_ready = if is_read {
            cas_ready.max(h.wtr_ready)
        } else {
            cas_ready
        };
        let cmd_to_data = if is_read { self.cas_ps } else { self.cwd_ps };
        // The data burst needs the channel bus; if the bus is still busy,
        // the column command slides later.
        let data_start = (cas_ready + cmd_to_data).max(h.bus_free);
        let cas_at = data_start - cmd_to_data;
        let data_end = data_start + burst;
        h.bus_free = data_end;

        // Bank horizons left behind for the next access. `earliest_cas`
        // approximates tCCD with the burst occupancy of this access.
        h.earliest_cas = h.earliest_cas.max(cas_at + burst);
        let pre_after = if is_read {
            cas_at + self.rtp_ps
        } else {
            data_end + self.wr_ps
        };
        h.earliest_pre = h.earliest_pre.max(h.act_at + self.ras_ps).max(pre_after);
        if !is_read {
            h.wtr_ready = data_end + self.wtr_ps;
        }

        // First beat completes after half a device clock (one DDR beat).
        let first_data_ps = data_start + self.half_clock_ps;
        Completion {
            cas_ps: cas_at,
            first_data_ps: first_data_ps.min(data_end),
            last_data_ps: data_end,
            row_hit: activated.is_none(),
            activated: activated.is_some(),
            conflict: activated.is_some_and(|(_, conflict)| conflict),
        }
    }
}

/// The timing state an access to an open row reads and advances: its
/// bank's CAS and PRE horizons (and ACT time), its rank's write-to-read
/// turnaround and its channel's bus. An access loads it, and a train
/// keeps it in locals for as long as it stays in one row.
#[derive(Debug, Clone, Copy)]
struct RowHorizons {
    earliest_cas: Ps,
    earliest_pre: Ps,
    act_at: Ps,
    wtr_ready: Ps,
    bus_free: Ps,
}

/// A single DRAM device (stacked cache DRAM or off-chip main memory).
///
/// See the [crate docs](crate) for the modelling approach. Accesses should
/// arrive in roughly non-decreasing `now` order; small inversions (a
/// demand access presented while an earlier request's background fill is
/// still charged in the future) are tolerated — the max-based timing
/// horizons make such accesses queue behind the already-charged work,
/// which is the causally conservative direction.
///
/// Construction precomputes two fast-path tables: a [`RouteMap`]
/// (shift/mask routing, present whenever the geometry is power-of-two —
/// true for every preset) and a [`TimingTable`] (clock multiplies and
/// burst `div_ceil`s paid once). [`Self::access`] runs on those tables,
/// falling back to the div/mod routing for other geometries. With the
/// `reference` feature, `access_reference` retains the original div/mod +
/// multiply path as the executable reference the property suite races
/// bit-for-bit.
///
/// A run of same-sized accesses, such as a footprint fill or a dirty-page
/// writeback, goes through [`Self::access_train`] as one call: it shares
/// the row-hit step with [`Self::access`] and keeps a row's horizons in
/// locals while the run stays in that row.
///
/// Each counter is kept once: the energy model's command and activation
/// counts are the [`DramStats`] counts, so [`Self::energy`] derives them
/// and the device itself only adds up the bytes moved.
#[derive(Debug, Clone)]
pub struct DramModel {
    cfg: DramConfig,
    route: Option<RouteMap>,
    timing: TimingTable,
    banks: Vec<BankState>,
    ranks: Vec<RankState>,
    /// Per-channel data bus busy-until horizon.
    bus_free: Vec<Ps>,
    stats: DramStats,
    /// Bytes moved out of and into the device since the last reset.
    bytes_read: u64,
    bytes_written: u64,
}

impl DramModel {
    /// Creates a device in the all-banks-precharged state at time zero.
    pub fn new(cfg: DramConfig) -> Self {
        let n_banks = cfg.total_banks() as usize;
        let n_ranks = (cfg.channels * cfg.ranks) as usize;
        let n_ch = cfg.channels as usize;
        let route = RouteMap::try_new(&cfg);
        let timing = TimingTable::new(&cfg);
        DramModel {
            route,
            timing,
            banks: vec![BankState::new(); n_banks],
            ranks: vec![RankState::default(); n_ranks],
            bus_free: vec![0; n_ch],
            stats: DramStats::default(),
            bytes_read: 0,
            bytes_written: 0,
            cfg,
        }
    }

    /// True when this device routes through the precomputed shift/mask
    /// [`RouteMap`] (power-of-two geometry — every preset qualifies).
    pub fn has_fast_route(&self) -> bool {
        self.route.is_some()
    }

    /// Routes `row` to its flat state indices: shift/mask when the
    /// geometry allows, the div/mod reference otherwise.
    #[inline]
    fn flat_route(&self, row: u64) -> FlatRoute {
        match self.route {
            Some(map) => map.flat(row),
            None => {
                let loc = Location::route(row, &self.cfg);
                FlatRoute {
                    channel: loc.channel as usize,
                    rank: loc.flat_rank(&self.cfg),
                    bank: loc.flat_bank(&self.cfg),
                }
            }
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Dynamic-energy counters accumulated since the last
    /// [`Self::reset_stats`]: every access is one column command, and
    /// every row-empty or conflicting access one activation.
    pub fn energy(&self) -> EnergyCounters {
        EnergyCounters {
            activations: self.stats.row_empty + self.stats.row_conflicts,
            read_cmds: self.stats.reads,
            write_cmds: self.stats.writes,
            bytes_read: self.bytes_read,
            bytes_written: self.bytes_written,
        }
    }

    /// Access statistics accumulated since the last [`Self::reset_stats`].
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Clears statistics and energy counters but *keeps* all timing state
    /// (open rows, horizons) — used at the warmup/measurement boundary.
    pub fn reset_stats(&mut self) {
        self.stats = DramStats::default();
        self.bytes_read = 0;
        self.bytes_written = 0;
    }

    /// Earliest time the data bus of the channel serving `row` frees up.
    /// Useful for callers modelling controller-queue backpressure.
    pub fn channel_free_at(&self, row: u64) -> Ps {
        let ch = match self.route {
            Some(map) => map.flat(row).channel,
            None => Location::route(row, &self.cfg).channel as usize,
        };
        self.bus_free[ch]
    }

    /// Performs one column access of `bytes` at `rc`, arriving at `now`.
    ///
    /// Returns the full timing. All inter-command constraints are enforced
    /// against the device state left behind by earlier accesses; the
    /// device state advances to reflect this access.
    ///
    /// This is the **table-driven fast path**: routing is shifts and
    /// masks (via the precomputed [`RouteMap`]), every timing constraint
    /// is a premultiplied picosecond constant, and burst durations come
    /// from a per-beat-count lookup table. The common case — a row hit —
    /// runs straight through the row-hit step without touching the
    /// ACT/PRE/`tFAW` machinery in [`Self::activate`], which stays out of
    /// line. `access` itself is `#[inline(always)]`, so the designs in
    /// other crates inline the row-hit path instead of calling it: with
    /// no LTO in the release profile, a plain `#[inline]` left a call at
    /// every design's call site.
    /// Bit-identical to `access_reference` (pinned by
    /// `crates/dram/tests/model_properties.rs` across presets, both ops,
    /// and non-pow2 fallback geometry).
    ///
    /// # Panics
    ///
    /// Debug-asserts that the access fits within one row.
    #[inline(always)]
    pub fn access(&mut self, now: Ps, op: Op, rc: RowCol, bytes: u32) -> Completion {
        debug_assert!(
            rc.col_byte + bytes <= self.cfg.row_bytes,
            "access must not cross a row boundary"
        );
        let is_read = op == Op::Read;
        let burst = self.timing.burst(bytes, &self.cfg);
        let (route, h, c) = self.open(now, rc.row, is_read, burst);
        self.close(route, h);
        self.count(
            is_read,
            bytes,
            burst,
            1,
            u64::from(c.row_hit),
            u64::from(c.conflict),
        );
        c
    }

    /// Performs a *train* of same-sized column accesses: one `op` of
    /// `bytes` per `(arrival, location)` in `reqs`, in order, handing
    /// each [`Completion`] to `each`. The device ends in the state, and
    /// `each` sees the completions, that calling [`Self::access`] once
    /// per request would give.
    ///
    /// A footprint fill or writeback is such a train: its blocks share
    /// one DRAM row, so every request after the first is a row hit. While
    /// consecutive requests stay in one row, the train keeps that row's
    /// bank, rank and bus horizons in locals and runs only the row-hit
    /// step; a row change writes them back and takes the general path.
    /// The statistics are added once per train.
    ///
    /// # Example
    ///
    /// ```
    /// # use unison_dram::{DramConfig, DramModel, Op, RowCol};
    /// let mut dram = DramModel::new(DramConfig::stacked());
    /// // Four 64 B blocks written into row 3, all arriving at time 0.
    /// let mut done = 0;
    /// let blocks = (0..4).map(|b| (0, RowCol::new(3, b * 64)));
    /// dram.access_train(Op::Write, 64, blocks, |c| done = c.last_data_ps);
    /// assert_eq!(dram.stats().writes, 4);
    /// assert_eq!(dram.stats().row_hits, 3);
    /// assert!(done > 0);
    /// ```
    ///
    /// # Panics
    ///
    /// Debug-asserts that every access fits within one row.
    #[inline]
    pub fn access_train<I, F>(&mut self, op: Op, bytes: u32, reqs: I, mut each: F)
    where
        I: IntoIterator<Item = (Ps, RowCol)>,
        F: FnMut(Completion),
    {
        let is_read = op == Op::Read;
        let burst = self.timing.burst(bytes, &self.cfg);
        let row_bytes = self.cfg.row_bytes;
        let (mut n, mut hits, mut conflicts) = (0u64, 0u64, 0u64);
        let mut reqs = reqs.into_iter();
        let mut next = reqs.next();
        while let Some((now, rc)) = next {
            debug_assert!(
                rc.col_byte + bytes <= row_bytes,
                "access must not cross a row boundary"
            );
            let (route, mut h, c) = self.open(now, rc.row, is_read, burst);
            n += 1;
            hits += u64::from(c.row_hit);
            conflicts += u64::from(c.conflict);
            each(c);
            // The rest of the run to this row: row hits by construction.
            next = loop {
                match reqs.next() {
                    Some((now, same)) if same.row == rc.row => {
                        debug_assert!(
                            same.col_byte + bytes <= row_bytes,
                            "access must not cross a row boundary"
                        );
                        n += 1;
                        hits += 1;
                        each(self.timing.step(&mut h, now, None, is_read, burst));
                    }
                    other => break other,
                }
            };
            self.close(route, h);
        }
        self.count(is_read, bytes, burst, n, hits, conflicts);
    }

    /// The general path of one access: routes `row`, activates it unless
    /// it is open, loads its horizons, and runs the step. The
    /// caller writes the horizons back with [`Self::close`].
    #[inline(always)]
    fn open(
        &mut self,
        now: Ps,
        row: u64,
        is_read: bool,
        burst: Ps,
    ) -> (FlatRoute, RowHorizons, Completion) {
        let route = self.flat_route(row);
        let activated = (!self.banks[route.bank].is_open(row))
            .then(|| self.activate(now, row, route.bank, route.rank));
        let mut h = self.horizons(route);
        let c = self.timing.step(&mut h, now, activated, is_read, burst);
        (route, h, c)
    }

    /// Loads the horizons an access to an open row reads and advances.
    #[inline(always)]
    fn horizons(&self, route: FlatRoute) -> RowHorizons {
        let b = &self.banks[route.bank];
        RowHorizons {
            earliest_cas: b.earliest_cas,
            earliest_pre: b.earliest_pre,
            act_at: b.act_at,
            wtr_ready: self.ranks[route.rank].wtr_ready,
            bus_free: self.bus_free[route.channel],
        }
    }

    /// Writes back the horizons [`Self::open`] loaded.
    #[inline(always)]
    fn close(&mut self, route: FlatRoute, h: RowHorizons) {
        let b = &mut self.banks[route.bank];
        b.earliest_cas = h.earliest_cas;
        b.earliest_pre = h.earliest_pre;
        self.ranks[route.rank].wtr_ready = h.wtr_ready;
        self.bus_free[route.channel] = h.bus_free;
    }

    /// Adds `n` accesses of one op and size to the statistics, `hits` of
    /// them row hits and `conflicts` of them row conflicts.
    #[inline(always)]
    fn count(&mut self, is_read: bool, bytes: u32, burst: Ps, n: u64, hits: u64, conflicts: u64) {
        if is_read {
            self.stats.reads += n;
            self.bytes_read += n * u64::from(bytes);
        } else {
            self.stats.writes += n;
            self.bytes_written += n * u64::from(bytes);
        }
        self.stats.row_hits += hits;
        self.stats.row_conflicts += conflicts;
        self.stats.row_empty += n - hits - conflicts;
        self.stats.bus_busy_ps += n * burst;
    }

    /// The activation slow path: needs an ACT, maybe a PRE first, under
    /// the rank-level `tRRD`/`tFAW` throttles and same-bank `tRC`. Kept
    /// out of line so the row-hit fast path stays compact. Returns the
    /// earliest CAS time and whether another row had to be closed.
    #[inline(never)]
    fn activate(&mut self, now: Ps, row: u64, bank_idx: usize, rank_idx: usize) -> (Ps, bool) {
        let t = &self.timing;
        let (rp_ps, rrd_ps, faw_ps, rc_ps, rcd_ps) =
            (t.rp_ps, t.rrd_ps, t.faw_ps, t.rc_ps, t.rcd_ps);
        let bank = self.banks[bank_idx];
        // An open row is a conflict: precharge it first. Only a bank that
        // has activated before has a row open, and only then does the
        // same-bank ACT-to-ACT constraint (tRC) apply.
        let conflict = bank.open_row.is_some();
        let (after_pre, rc_ready) = if conflict {
            let pre_at = now.max(bank.earliest_pre);
            (pre_at + rp_ps, bank.act_at + rc_ps)
        } else {
            (now.max(bank.earliest_act), 0)
        };
        // Rank-level activation throttles: tRRD after the first ACT,
        // tFAW once four ACTs have happened in the window.
        let rank = &mut self.ranks[rank_idx];
        let rrd_ready = if rank.act_count >= 1 {
            rank.last_act + rrd_ps
        } else {
            0
        };
        let faw_ready = if rank.act_count >= 4 {
            rank.faw[rank.faw_idx] + faw_ps
        } else {
            0
        };
        let act_at = after_pre.max(rrd_ready).max(faw_ready).max(rc_ready);

        rank.last_act = act_at;
        rank.faw[rank.faw_idx] = act_at;
        rank.faw_idx = (rank.faw_idx + 1) % 4;
        rank.act_count += 1;
        let b = &mut self.banks[bank_idx];
        b.open_row = Some(row);
        b.act_at = act_at;
        b.earliest_act = act_at + rc_ps;
        (act_at + rcd_ps, conflict)
    }

    /// [`Self::access`] on the original div/mod + multiply path:
    /// [`Location::route`] divides out the geometry, every constraint
    /// re-multiplies its clock count, and the burst duration recomputes
    /// its `div_ceil`s. Performs the identical state transition — the
    /// executable reference the property suite and the `dram_access`
    /// microbench group race the fast path against. Compiled only for
    /// tests and under the `reference` feature.
    #[cfg(any(test, feature = "reference"))]
    pub fn access_reference(&mut self, now: Ps, op: Op, rc: RowCol, bytes: u32) -> Completion {
        debug_assert!(
            rc.col_byte + bytes <= self.cfg.row_bytes,
            "access must not cross a row boundary"
        );
        let loc = Location::route(rc.row, &self.cfg);
        let bank_idx = loc.flat_bank(&self.cfg);
        let rank_idx = loc.flat_rank(&self.cfg);
        let ch = loc.channel as usize;
        let t = self.cfg.timings;
        let tck = self.cfg.clock_ps();
        let clocks = |c: u32| u64::from(c) * tck;

        let row_hit = self.banks[bank_idx].is_open(rc.row);
        let mut activated = false;
        let mut conflict = false;

        let mut cas_ready = if row_hit {
            now.max(self.banks[bank_idx].earliest_cas)
        } else {
            // Need an ACT; maybe a PRE first.
            let bank = self.banks[bank_idx];
            let after_pre = if bank.open_row.is_some() {
                conflict = true;
                let pre_at = now.max(bank.earliest_pre);
                pre_at + clocks(t.t_rp)
            } else {
                now.max(bank.earliest_act)
            };
            // Rank-level activation throttles: tRRD after the first ACT,
            // tFAW once four ACTs have happened in the window.
            let rank = self.ranks[rank_idx];
            let rrd_ready = if rank.act_count >= 1 {
                rank.last_act + clocks(t.t_rrd)
            } else {
                0
            };
            let faw_ready = if rank.act_count >= 4 {
                rank.faw[rank.faw_idx] + clocks(t.t_faw)
            } else {
                0
            };
            // Same-bank ACT-to-ACT (tRC), once the bank has activated.
            let rc_ready = if bank.open_row.is_some() {
                bank.act_at + clocks(t.t_rc)
            } else {
                0
            };
            let act_at = after_pre.max(rrd_ready).max(faw_ready).max(rc_ready);

            let b = &mut self.banks[bank_idx];
            b.open_row = Some(rc.row);
            b.act_at = act_at;
            b.earliest_act = act_at + clocks(t.t_rc);
            let r = &mut self.ranks[rank_idx];
            r.last_act = act_at;
            r.faw[r.faw_idx] = act_at;
            r.faw_idx = (r.faw_idx + 1) % 4;
            r.act_count += 1;
            activated = true;

            act_at + clocks(t.t_rcd)
        };

        // Write-to-read turnaround within the rank.
        if op == Op::Read {
            cas_ready = cas_ready.max(self.ranks[rank_idx].wtr_ready);
        }

        let cmd_to_data = match op {
            Op::Read => clocks(t.t_cas),
            Op::Write => clocks(t.t_cwd),
        };
        let burst = self.cfg.burst_ps(bytes);
        // The data burst needs the channel bus; if the bus is still busy,
        // the column command slides later.
        let data_start = (cas_ready + cmd_to_data).max(self.bus_free[ch]);
        let cas_at = data_start - cmd_to_data;
        let data_end = data_start + burst;
        self.bus_free[ch] = data_end;

        // Bank horizons left behind for the next access.
        {
            let b = &mut self.banks[bank_idx];
            // Approximates tCCD with the burst occupancy of this access.
            b.earliest_cas = b.earliest_cas.max(cas_at + burst);
            let pre_after = match op {
                Op::Read => cas_at + clocks(t.t_rtp),
                Op::Write => data_end + clocks(t.t_wr),
            };
            b.earliest_pre = b
                .earliest_pre
                .max(b.act_at + clocks(t.t_ras))
                .max(pre_after);
        }
        if op == Op::Write {
            self.ranks[rank_idx].wtr_ready = data_end + clocks(t.t_wtr);
        }

        // Statistics.
        match op {
            Op::Read => {
                self.stats.reads += 1;
                self.bytes_read += u64::from(bytes);
            }
            Op::Write => {
                self.stats.writes += 1;
                self.bytes_written += u64::from(bytes);
            }
        }
        if row_hit {
            self.stats.row_hits += 1;
        } else if conflict {
            self.stats.row_conflicts += 1;
        } else {
            self.stats.row_empty += 1;
        }
        self.stats.bus_busy_ps += burst;

        // First beat completes after half a device clock (one DDR beat).
        let first_data_ps = data_start + tck.div_ceil(2);
        Completion {
            cas_ps: cas_at,
            first_data_ps: first_data_ps.min(data_end),
            last_data_ps: data_end,
            row_hit,
            activated,
            conflict,
        }
    }

    /// The physical-address split [`Self::access_addr`] applies (linear
    /// row mapping), detached from the device: a caller maps a train's
    /// addresses with it while the device itself runs the train.
    #[inline]
    pub fn row_col(&self) -> impl Fn(u64) -> RowCol + Copy {
        let (route, row_bytes) = (self.route, self.cfg.row_bytes);
        move |addr| match route {
            Some(map) => map.row_col(addr),
            None => RowCol::from_phys_addr(addr, row_bytes),
        }
    }

    /// Convenience: access by physical byte address (linear row mapping).
    #[inline(always)]
    pub fn access_addr(&mut self, now: Ps, op: Op, addr: u64, bytes: u32) -> Completion {
        let rc = self.row_col()(addr);
        self.access(now, op, rc, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ddr3() -> DramModel {
        DramModel::new(DramConfig::ddr3_1600())
    }

    #[test]
    fn cold_read_pays_act_plus_cas() {
        let mut d = ddr3();
        let t = d.config().timings;
        let tck = d.config().clock_ps();
        let c = d.access(0, Op::Read, RowCol::new(0, 0), 64);
        assert!(!c.row_hit);
        assert!(c.activated);
        assert!(!c.conflict);
        // ACT at 0, CAS at tRCD, data at tRCD + tCAS.
        let expect = u64::from(t.t_rcd + t.t_cas) * tck;
        assert_eq!(c.last_data_ps, expect + d.config().burst_ps(64));
    }

    #[test]
    fn row_hit_skips_activation() {
        let mut d = ddr3();
        let c1 = d.access(0, Op::Read, RowCol::new(0, 0), 64);
        let c2 = d.access(c1.last_data_ps, Op::Read, RowCol::new(0, 64), 64);
        assert!(c2.row_hit);
        assert!(!c2.activated);
        assert!(c2.last_data_ps - c1.last_data_ps < c1.last_data_ps);
    }

    #[test]
    fn conflict_pays_precharge() {
        let mut d = ddr3();
        let cfg = d.config().clone();
        // Rows 0 and banks*channels*ranks map to the same bank.
        let stride = u64::from(cfg.total_banks());
        let c1 = d.access(0, Op::Read, RowCol::new(0, 0), 64);
        let far = c1.last_data_ps + 1_000_000; // long idle, all constraints met
        let c2 = d.access(far, Op::Read, RowCol::new(stride, 0), 64);
        assert!(c2.conflict);
        let t = cfg.timings;
        let tck = cfg.clock_ps();
        let expect = far + u64::from(t.t_rp + t.t_rcd + t.t_cas) * tck + cfg.burst_ps(64);
        assert_eq!(c2.last_data_ps, expect);
    }

    #[test]
    fn different_banks_overlap() {
        let mut d = ddr3();
        // ddr3 has 1 channel: rows 0 and 1 share a bus but not a bank.
        let c1 = d.access(0, Op::Read, RowCol::new(0, 0), 64);
        let c2 = d.access(0, Op::Read, RowCol::new(1, 0), 64);
        // Second access activates its own bank in parallel (delayed only
        // by tRRD); the data bursts serialize on the shared bus.
        let trrd = u64::from(d.config().timings.t_rrd) * d.config().clock_ps();
        assert!(c2.last_data_ps < 2 * c1.last_data_ps);
        assert!(c2.last_data_ps <= c1.last_data_ps + d.config().burst_ps(64) + trrd);
    }

    #[test]
    fn channels_are_fully_independent() {
        let mut d = DramModel::new(DramConfig::stacked());
        // Rows 0 and 1 are on different channels under row interleaving.
        let c1 = d.access(0, Op::Read, RowCol::new(0, 0), 64);
        let c2 = d.access(0, Op::Read, RowCol::new(1, 0), 64);
        assert_eq!(c1.last_data_ps, c2.last_data_ps);
    }

    #[test]
    fn overlapped_tag_and_data_read_cost_little_more_than_one_read() {
        // §III-A: Unison Cache issues a 32 B metadata read and a 64 B data
        // read back-to-back to the same row. The second read should finish
        // roughly one small burst after the first — NOT one full DRAM
        // access later.
        let mut d = DramModel::new(DramConfig::stacked());
        let meta = d.access(0, Op::Read, RowCol::new(0, 0), 32);
        let data = d.access(0, Op::Read, RowCol::new(0, 32), 64);
        let serialized_estimate = 2 * meta.last_data_ps;
        assert!(data.last_data_ps < serialized_estimate);
        assert_eq!(
            data.last_data_ps,
            meta.last_data_ps + d.config().burst_ps(64)
        );
    }

    #[test]
    fn write_then_read_pays_wtr() {
        let mut d = ddr3();
        let t = d.config().timings;
        let tck = d.config().clock_ps();
        let w = d.access(0, Op::Write, RowCol::new(0, 0), 64);
        let r = d.access(w.last_data_ps, Op::Read, RowCol::new(0, 64), 64);
        // Read CAS must wait tWTR after the write burst ends.
        assert!(r.cas_ps >= w.last_data_ps + u64::from(t.t_wtr) * tck);
    }

    #[test]
    fn faw_throttles_bursts_of_activations() {
        let mut d = ddr3();
        let cfg = d.config().clone();
        // Five activations to five different banks of rank 0 at time 0.
        // Banks on rank 0 (1 channel, 2 ranks... route: bank rotates first).
        let mut acts = vec![];
        for i in 0..5 {
            // Rows i map to banks i (channel 0). Ranks alternate after banks.
            let c = d.access(0, Op::Read, RowCol::new(i, 0), 64);
            if c.activated {
                acts.push(c);
            }
        }
        assert_eq!(acts.len(), 5);
        let t = cfg.timings;
        let tck = cfg.clock_ps();
        // The 5th ACT to the same rank must be >= first ACT + tFAW.
        let first_cas = acts[0].cas_ps;
        let fifth_cas = acts[4].cas_ps;
        assert!(fifth_cas >= first_cas + u64::from(t.t_faw) * tck - u64::from(t.t_rcd) * tck);
    }

    #[test]
    fn stats_and_energy_track_accesses() {
        let mut d = ddr3();
        d.access(0, Op::Read, RowCol::new(0, 0), 64);
        let t1 = d
            .access(1000, Op::Write, RowCol::new(0, 64), 64)
            .last_data_ps;
        d.access(t1, Op::Read, RowCol::new(0, 128), 64);
        let s = d.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.row_hits, 2);
        assert_eq!(s.row_empty, 1);
        let e = d.energy();
        assert_eq!(e.activations, 1);
        assert_eq!(e.bytes_read, 128);
        assert_eq!(e.bytes_written, 64);
    }

    #[test]
    fn reset_stats_preserves_timing_state() {
        let mut d = ddr3();
        let c1 = d.access(0, Op::Read, RowCol::new(0, 0), 64);
        d.reset_stats();
        assert_eq!(d.stats().reads, 0);
        // Row is still open: next access is a row hit.
        let c2 = d.access(c1.last_data_ps, Op::Read, RowCol::new(0, 64), 64);
        assert!(c2.row_hit);
    }

    #[test]
    fn bus_contention_delays_later_requests() {
        let mut d = ddr3();
        // Saturate the single channel with large bursts to one row.
        let c1 = d.access(0, Op::Read, RowCol::new(0, 0), 4096);
        let c2 = d.access(0, Op::Read, RowCol::new(0, 4096), 64);
        assert!(c2.first_data_ps > c1.last_data_ps);
    }

    #[test]
    fn completion_ordering_invariants() {
        let mut d = DramModel::new(DramConfig::stacked());
        let mut now = 0;
        for i in 0..200 {
            let c = d.access(
                now,
                Op::Read,
                RowCol::new(i % 37, ((i * 64) % 8128) as u32),
                64,
            );
            assert!(c.cas_ps >= now);
            assert!(c.first_data_ps > c.cas_ps);
            assert!(c.last_data_ps >= c.first_data_ps);
            now += 500;
        }
    }
}
