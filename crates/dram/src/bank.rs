//! Per-bank row-buffer and timing state.

use crate::time::Ps;

/// The timing-relevant state of one DRAM bank.
///
/// The model keeps, for each bank, the currently open row plus the earliest
/// legal times for the next precharge and activate. These are *forwarded
/// timestamps*: instead of simulating the command bus cycle by cycle, each
/// request computes when its commands could legally issue and advances
/// these horizons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankState {
    /// Row currently latched in the row buffer, if any. A bank is never
    /// closed once activated (a conflict precharges and reopens it in one
    /// step), so this is also the "has ever activated" flag that gates
    /// the `tRC` constraint.
    pub open_row: Option<u64>,
    /// When the open row's ACT command issued; meaningful once
    /// `open_row` is set.
    pub act_at: Ps,
    /// Earliest time a PRE may issue (covers `tRAS`, `tRTP`, `tWR`).
    pub earliest_pre: Ps,
    /// Earliest time the next ACT may issue (covers `tRP` after a
    /// precharge and `tRC` since the previous ACT).
    pub earliest_act: Ps,
    /// Earliest time a CAS to the open row may issue (covers `tRCD`).
    pub earliest_cas: Ps,
}

/// The timing-relevant state one rank shares across its banks: the
/// activation throttles (`tRRD`, `tFAW`) and the write-to-read
/// turnaround (`tWTR`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct RankState {
    /// Time of the most recent ACT (for `tRRD`).
    pub(crate) last_act: Ps,
    /// Ring buffer of the last four ACT times (for `tFAW`); `faw_idx`
    /// names the oldest, the next to overwrite.
    pub(crate) faw: [Ps; 4],
    pub(crate) faw_idx: usize,
    /// ACTs issued so far; `tRRD` applies after the first, `tFAW` after
    /// the fourth.
    pub(crate) act_count: u64,
    /// Earliest read CAS after a write burst (for `tWTR`).
    pub(crate) wtr_ready: Ps,
}

impl BankState {
    /// Creates a bank with no open row and no pending constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if `row` is latched in the row buffer.
    ///
    /// This is the row-hit fast-path test: when it holds, an access needs
    /// only `earliest_cas` from this state — none of the ACT/PRE horizons
    /// are read or written, which is what keeps the common case in
    /// `DramModel::access` branch-minimal.
    #[inline]
    pub fn is_open(&self, row: u64) -> bool {
        self.open_row == Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bank_has_no_open_row() {
        let b = BankState::new();
        assert_eq!(b.open_row, None);
        assert!(!b.is_open(0));
    }

    #[test]
    fn is_open_matches_exact_row() {
        let b = BankState {
            open_row: Some(42),
            ..BankState::new()
        };
        assert!(b.is_open(42));
        assert!(!b.is_open(43));
    }
}
