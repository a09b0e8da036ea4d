//! The shared memory context: one stacked device, one off-chip device.

use unison_dram::{DramConfig, DramModel, Op, Ps, RowCol};

use crate::types::BLOCK_BYTES;

/// The two DRAM devices every cache design operates against.
///
/// Sharing one `MemPorts` across a simulation makes bandwidth contention,
/// row-buffer state, and energy accounting uniform across designs — the
/// same substrate DRAMSim2 provides in the paper's setup.
///
/// Construction is where each device's per-access fast paths are
/// precomputed: [`DramModel::new`] builds the shift/mask routing map and
/// premultiplied timing tables once here (both Table III geometries are
/// power-of-two), so every access a design issues through these ports
/// takes the table-driven path with no per-call setup.
#[derive(Debug, Clone)]
pub struct MemPorts {
    /// The die-stacked cache DRAM (Table III "Stacked DRAM").
    pub stacked: DramModel,
    /// Off-chip main memory (Table III "Off-chip DRAM").
    pub offchip: DramModel,
}

impl MemPorts {
    /// Builds the Table III pair: 4-channel stacked DRAM and one
    /// DDR3-1600 channel.
    pub fn paper_default() -> Self {
        MemPorts {
            stacked: DramModel::new(DramConfig::stacked()),
            offchip: DramModel::new(DramConfig::ddr3_1600()),
        }
    }

    /// Builds from explicit device configurations.
    pub fn new(stacked: DramConfig, offchip: DramConfig) -> Self {
        MemPorts {
            stacked: DramModel::new(stacked),
            offchip: DramModel::new(offchip),
        }
    }

    /// Clears statistics and energy on both devices (warmup boundary)
    /// while preserving timing state.
    pub fn reset_stats(&mut self) {
        self.stacked.reset_stats();
        self.offchip.reset_stats();
    }

    /// Fills `blocks` of a page into the cache: each is read off-chip
    /// from physical address `from(block)`, all arriving at `now`, and
    /// written to stacked location `to(block)` once its read completes.
    /// Returns the first block's first-data time (the critical word when
    /// the trigger block comes first) and the time the last write
    /// completes.
    pub(crate) fn fill(
        &mut self,
        now: Ps,
        blocks: impl Iterator<Item = u32>,
        from: impl Fn(u32) -> u64,
        to: impl Fn(u32) -> RowCol,
    ) -> (Ps, Ps) {
        let row_col = self.offchip.row_col();
        transfer(
            &mut self.offchip,
            &mut self.stacked,
            now,
            blocks,
            |b| row_col(from(b)),
            to,
        )
    }

    /// Writes `blocks` of an evicted page back: each is read from stacked
    /// location `from(block)`, all arriving at `now`, and written off-chip
    /// to physical address `to(block)` once its read completes. Returns
    /// the time the last write completes (`now` when there is none).
    pub(crate) fn write_back(
        &mut self,
        now: Ps,
        blocks: impl Iterator<Item = u32>,
        from: impl Fn(u32) -> RowCol,
        to: impl Fn(u32) -> u64,
    ) -> Ps {
        let row_col = self.offchip.row_col();
        transfer(
            &mut self.stacked,
            &mut self.offchip,
            now,
            blocks,
            from,
            |b| row_col(to(b)),
        )
        .1
    }
}

/// Moves `blocks` from `src` to `dst` through one session per device:
/// each block is read from `src`, every read arriving at `now`, and
/// written to `dst` when its read completes. A page's blocks share one
/// row on each device, so every request after a session's first is a
/// row hit on horizons held in locals. Returns the first read's
/// first-data time and the last write's completion, both `now` when
/// `blocks` is empty.
fn transfer(
    src: &mut DramModel,
    dst: &mut DramModel,
    now: Ps,
    blocks: impl Iterator<Item = u32>,
    src_at: impl Fn(u32) -> RowCol,
    dst_at: impl Fn(u32) -> RowCol,
) -> (Ps, Ps) {
    let (mut reads, mut writes) = (src.session(), dst.session());
    let (mut first, mut done) = (None, now);
    for b in blocks {
        let r = reads.access(now, Op::Read, src_at(b), BLOCK_BYTES as u32);
        first.get_or_insert(r.first_data_ps);
        let w = writes.access(r.last_data_ps, Op::Write, dst_at(b), BLOCK_BYTES as u32);
        done = done.max(w.last_data_ps);
    }
    (first.unwrap_or(now), done)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_has_expected_devices() {
        let p = MemPorts::paper_default();
        assert_eq!(p.stacked.config().channels, 4);
        assert_eq!(p.offchip.config().channels, 1);
    }

    #[test]
    fn reset_clears_both() {
        let mut p = MemPorts::paper_default();
        p.offchip.access_addr(0, unison_dram::Op::Read, 0, 64);
        p.stacked.access_addr(0, unison_dram::Op::Read, 0, 64);
        p.reset_stats();
        assert_eq!(p.offchip.stats().reads, 0);
        assert_eq!(p.stacked.stats().reads, 0);
    }
}
