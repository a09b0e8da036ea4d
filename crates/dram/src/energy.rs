//! Dynamic-energy accounting for the Section V.D analysis.

use serde::{Deserialize, Serialize};

use crate::config::EnergyParams;

/// Raw dynamic-event counters of a [`crate::DramModel`]. The command and
/// activation counts are the device's [`crate::DramStats`] read another
/// way; [`crate::DramModel::energy`] derives them on demand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnergyCounters {
    /// Row activations (each implies a matching precharge).
    pub activations: u64,
    /// Column read commands.
    pub read_cmds: u64,
    /// Column write commands.
    pub write_cmds: u64,
    /// Bytes moved out of the device.
    pub bytes_read: u64,
    /// Bytes moved into the device.
    pub bytes_written: u64,
}

impl EnergyCounters {
    /// Computes the dynamic energy breakdown under `params`.
    pub fn breakdown(&self, params: &EnergyParams) -> EnergyBreakdown {
        let act_pre_pj = self.activations as f64 * params.act_pre_pj;
        let rd_wr_pj = self.bytes_read as f64 * params.read_pj_per_byte
            + self.bytes_written as f64 * params.write_pj_per_byte;
        let io_pj = (self.bytes_read + self.bytes_written) as f64 * params.io_pj_per_byte;
        EnergyBreakdown {
            act_pre_pj,
            rd_wr_pj,
            io_pj,
        }
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &EnergyCounters) {
        self.activations += other.activations;
        self.read_cmds += other.read_cmds;
        self.write_cmds += other.write_cmds;
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
    }
}

/// Dynamic DRAM energy split by source, in picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Energy spent on ACT/PRE pairs — the paper calls row activations
    /// "the most energy-demanding operations" (§V.D).
    pub act_pre_pj: f64,
    /// Column read/write array energy.
    pub rd_wr_pj: f64,
    /// I/O and termination energy.
    pub io_pj: f64,
}

impl EnergyBreakdown {
    /// Total dynamic energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.act_pre_pj + self.rd_wr_pj + self.io_pj
    }

    /// Total dynamic energy in millijoules (convenience for reports).
    pub fn total_mj(&self) -> f64 {
        self.total_pj() / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_sums_components() {
        let c = EnergyCounters {
            activations: 10,
            read_cmds: 5,
            write_cmds: 5,
            bytes_read: 640,
            bytes_written: 320,
        };
        let p = EnergyParams::ddr3();
        let b = c.breakdown(&p);
        assert!(b.act_pre_pj > 0.0);
        assert!((b.total_pj() - (b.act_pre_pj + b.rd_wr_pj + b.io_pj)).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = EnergyCounters {
            activations: 1,
            ..Default::default()
        };
        let b = EnergyCounters {
            activations: 2,
            bytes_read: 64,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.activations, 3);
        assert_eq!(a.bytes_read, 64);
    }

    #[test]
    fn activation_energy_dominates_small_transfers() {
        // One activation vs one 64 B read: ACT/PRE should dominate, which
        // is the premise of the paper's §V.D argument.
        let c = EnergyCounters {
            activations: 1,
            read_cmds: 1,
            bytes_read: 64,
            ..Default::default()
        };
        let b = c.breakdown(&EnergyParams::ddr3());
        assert!(b.act_pre_pj > b.rd_wr_pj + b.io_pj);
    }
}
