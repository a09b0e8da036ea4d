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
    /// runs straight through without touching the ACT/PRE/`tFAW` machinery
    /// in [`Self::activate`]. Bit-identical to `access_reference` (pinned
    /// by `crates/dram/tests/model_properties.rs` across presets, both
    /// ops, and non-pow2 fallback geometry).
    ///
    /// # Panics
    ///
    /// Debug-asserts that the access fits within one row.
    pub fn access(&mut self, now: Ps, op: Op, rc: RowCol, bytes: u32) -> Completion {
        debug_assert!(
            rc.col_byte + bytes <= self.cfg.row_bytes,
            "access must not cross a row boundary"
        );
        let FlatRoute {
            channel: ch,
            rank: rank_idx,
            bank: bank_idx,
        } = self.flat_route(rc.row);
        let is_read = op == Op::Read;

        // Row-hit fast path: one bank-state load, one compare, one max —
        // none of the activation state is touched.
        let bank = self.banks[bank_idx];
        let row_hit = bank.is_open(rc.row);
        let (mut cas_ready, activated, conflict) = if row_hit {
            (now.max(bank.earliest_cas), false, false)
        } else {
            let (ready, conflict) = self.activate(now, rc.row, bank_idx, rank_idx);
            (ready, true, conflict)
        };

        // Write-to-read turnaround within the rank.
        if is_read {
            cas_ready = cas_ready.max(self.ranks[rank_idx].wtr_ready);
        }

        let t = &self.timing;
        let cmd_to_data = if is_read { t.cas_ps } else { t.cwd_ps };
        let burst = t.burst(bytes, &self.cfg);
        let (rtp_ps, wr_ps, ras_ps, wtr_ps, half_clock_ps) =
            (t.rtp_ps, t.wr_ps, t.ras_ps, t.wtr_ps, t.half_clock_ps);
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
            let pre_after = if is_read {
                cas_at + rtp_ps
            } else {
                data_end + wr_ps
            };
            b.earliest_pre = b.earliest_pre.max(b.act_at + ras_ps).max(pre_after);
        }
        if !is_read {
            self.ranks[rank_idx].wtr_ready = data_end + wtr_ps;
        }

        // Statistics; the hit/empty/conflict classification is
        // branchless (the three counts are disjoint indicator sums).
        if is_read {
            self.stats.reads += 1;
            self.bytes_read += u64::from(bytes);
        } else {
            self.stats.writes += 1;
            self.bytes_written += u64::from(bytes);
        }
        self.stats.row_hits += u64::from(row_hit);
        self.stats.row_conflicts += u64::from(conflict);
        self.stats.row_empty += u64::from(!row_hit && !conflict);
        self.stats.bus_busy_ps += burst;

        // First beat completes after half a device clock (one DDR beat).
        let first_data_ps = data_start + half_clock_ps;
        Completion {
            cas_ps: cas_at,
            first_data_ps: first_data_ps.min(data_end),
            last_data_ps: data_end,
            row_hit,
            activated,
            conflict,
        }
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

    /// Convenience: access by physical byte address (linear row mapping).
    pub fn access_addr(&mut self, now: Ps, op: Op, addr: u64, bytes: u32) -> Completion {
        let rc = match self.route {
            Some(map) => map.row_col(addr),
            None => RowCol::from_phys_addr(addr, self.cfg.row_bytes),
        };
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
