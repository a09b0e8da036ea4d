//! The interval-style core timing model.

use serde::{Deserialize, Serialize};
use unison_dram::{cpu_cycles_to_ps, Ps};

/// Timing parameters of one modeled core (an ARM Cortex-A15-like 3-way
/// OoO at 3 GHz, per Table III).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CoreParams {
    /// Sustained non-memory IPC: how fast instruction gaps between
    /// post-L2 accesses retire (includes L1/L2 hit costs, which are part
    /// of the gap in post-L2 traces).
    pub ipc_base: f64,
    /// Memory latency (in CPU cycles) the out-of-order window hides per
    /// load before the core actually stalls.
    pub overlap_cycles: u64,
    /// Whether stores stall the core (an OoO core with store buffers
    /// retires past stores; they still consume DRAM bandwidth).
    pub stall_on_stores: bool,
}

impl Default for CoreParams {
    fn default() -> Self {
        CoreParams {
            ipc_base: 2.0,
            overlap_cycles: 24,
            stall_on_stores: false,
        }
    }
}

/// Manual deserialization so scenario files may override a single core
/// knob (`{"ipc_base": 4.0}`) without restating the rest.
impl Deserialize for CoreParams {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = serde::expect_obj(v, "CoreParams")?;
        serde::deny_unknown(
            obj,
            &["ipc_base", "overlap_cycles", "stall_on_stores"],
            "CoreParams",
        )?;
        let d = CoreParams::default();
        let pick = |key: &str| obj.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        Ok(CoreParams {
            ipc_base: match pick("ipc_base") {
                Some(v) => f64::from_value(v)?,
                None => d.ipc_base,
            },
            overlap_cycles: match pick("overlap_cycles") {
                Some(v) => u64::from_value(v)?,
                None => d.overlap_cycles,
            },
            stall_on_stores: match pick("stall_on_stores") {
                Some(v) => bool::from_value(v)?,
                None => d.stall_on_stores,
            },
        })
    }
}

impl CoreParams {
    /// Picoseconds needed to execute `instructions` of non-memory work.
    pub fn compute_ps(&self, instructions: u64) -> Ps {
        let cycles = (instructions as f64 / self.ipc_base).ceil() as u64;
        cpu_cycles_to_ps(cycles)
    }

    /// The OoO overlap window in picoseconds.
    pub fn overlap_ps(&self) -> Ps {
        cpu_cycles_to_ps(self.overlap_cycles)
    }
}

/// [`CoreParams::compute_ps`] for the dispatch loop, with the float
/// division taken off the per-record path where it is exact to do so.
///
/// When `ipc_base` is a power of two of at least 1 (the paper's 2.0),
/// `ceil(gap / ipc_base)` over the `u32` instruction gap of a trace
/// record is an exact shift: the gap converts to `f64` exactly and
/// dividing by a power of two only moves the exponent. Other IPCs keep
/// the division. Results equal `compute_ps` bit for bit (property-tested
/// below). The overlap window is converted to picoseconds here too, once
/// per system rather than once per load.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GapTiming {
    /// `log2(ipc_base)` when the shift form applies.
    shift: Option<u32>,
    ipc_base: f64,
    /// [`CoreParams::overlap_ps`].
    pub(crate) overlap_ps: Ps,
}

impl GapTiming {
    pub(crate) fn new(params: &CoreParams) -> Self {
        let ipc = params.ipc_base;
        let shift = (ipc >= 1.0 && ipc <= f64::from(1u32 << 31) && ipc.fract() == 0.0)
            .then_some(ipc as u64)
            .filter(|n| n.is_power_of_two())
            .map(u64::trailing_zeros);
        GapTiming {
            shift,
            ipc_base: ipc,
            overlap_ps: params.overlap_ps(),
        }
    }

    /// Picoseconds needed to execute a record's `igap` instructions.
    #[inline]
    pub(crate) fn compute_ps(self, igap: u32) -> Ps {
        let n = u64::from(igap);
        let cycles = match self.shift {
            Some(k) => (n >> k) + u64::from(n & ((1 << k) - 1) != 0),
            None => (n as f64 / self.ipc_base).ceil() as u64,
        };
        cpu_cycles_to_ps(cycles)
    }
}

/// Per-core progress state.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreClock {
    /// Local time: when this core finishes everything issued so far.
    pub time_ps: Ps,
    /// User instructions retired.
    pub instructions: u64,
    /// Picoseconds spent stalled on memory.
    pub stall_ps: Ps,
}

impl CoreClock {
    /// Advances past `igap` instructions of compute, returning the issue
    /// time of the access that follows.
    ///
    /// The dispatch loop's hot path uses [`Self::advance_compute_to`]
    /// with the value it already computed for its selection key; this method
    /// remains the semantic definition (and the reference loop in
    /// `system.rs`'s tests drives it directly).
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn advance_compute(&mut self, params: &CoreParams, igap: u64) -> Ps {
        self.time_ps += params.compute_ps(igap);
        self.instructions += igap;
        self.time_ps
    }

    /// [`Self::advance_compute`] when the issue time has already been
    /// computed (`issue_ps` must equal
    /// `self.time_ps + params.compute_ps(igap)`): the dispatch loop keys
    /// its core selection on exactly that value, so consuming the record
    /// reuses it instead of recomputing it.
    pub fn advance_compute_to(&mut self, issue_ps: Ps, igap: u64) -> Ps {
        debug_assert!(issue_ps >= self.time_ps);
        self.time_ps = issue_ps;
        self.instructions += igap;
        issue_ps
    }

    /// Applies the stall of a load whose data arrives at `ready_ps`,
    /// given it issued at `issue_ps`, under an out-of-order window of
    /// `overlap_ps` ([`CoreParams::overlap_ps`]).
    pub fn apply_load(&mut self, overlap_ps: Ps, issue_ps: Ps, ready_ps: Ps) {
        let latency = ready_ps.saturating_sub(issue_ps);
        let stall = latency.saturating_sub(overlap_ps);
        self.time_ps += stall;
        self.stall_ps += stall;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_scales_with_ipc() {
        let fast = CoreParams {
            ipc_base: 4.0,
            ..CoreParams::default()
        };
        let slow = CoreParams {
            ipc_base: 1.0,
            ..CoreParams::default()
        };
        assert!(fast.compute_ps(1000) < slow.compute_ps(1000));
        // 1000 instructions at IPC 1 = 1000 cycles = 333,334 ps.
        assert_eq!(slow.compute_ps(1000), cpu_cycles_to_ps(1000));
    }

    #[test]
    fn short_latencies_are_fully_hidden() {
        let p = CoreParams::default();
        let mut c = CoreClock::default();
        let issue = c.advance_compute(&p, 100);
        // Data ready within the overlap window: no stall.
        c.apply_load(p.overlap_ps(), issue, issue + p.overlap_ps() / 2);
        assert_eq!(c.stall_ps, 0);
    }

    #[test]
    fn long_latencies_stall_the_remainder() {
        let p = CoreParams::default();
        let mut c = CoreClock::default();
        let issue = c.advance_compute(&p, 100);
        let ready = issue + p.overlap_ps() + 10_000;
        c.apply_load(p.overlap_ps(), issue, ready);
        assert_eq!(c.stall_ps, 10_000);
        assert_eq!(c.time_ps, issue + 10_000);
    }

    proptest::proptest! {
        /// The dispatch loop's gap timing equals `compute_ps` for every
        /// gap, on power-of-two IPCs (shift form) and others (division).
        #[test]
        fn gap_timing_matches_compute_ps(
            igap in proptest::strategy::any::<u32>(),
            small in 0u32..5_000,
            ipc in proptest::prop_oneof![
                proptest::strategy::Just(1.0f64),
                proptest::strategy::Just(2.0),
                proptest::strategy::Just(4.0),
                proptest::strategy::Just(64.0),
                proptest::strategy::Just(0.5),
                proptest::strategy::Just(3.0),
                0.25f64..9.0,
            ],
        ) {
            let params = CoreParams { ipc_base: ipc, ..CoreParams::default() };
            let fast = GapTiming::new(&params);
            for gap in [igap, small] {
                proptest::prop_assert_eq!(fast.compute_ps(gap), params.compute_ps(u64::from(gap)));
            }
        }
    }

    #[test]
    fn gap_timing_takes_the_shift_form_only_for_powers_of_two() {
        let shift = |ipc| {
            GapTiming::new(&CoreParams {
                ipc_base: ipc,
                ..CoreParams::default()
            })
            .shift
        };
        assert_eq!(shift(2.0), Some(1));
        assert_eq!(shift(1.0), Some(0));
        assert_eq!(shift(3.0), None);
        assert_eq!(shift(0.5), None);
        assert_eq!(shift(2.5), None);
    }

    #[test]
    fn instructions_accumulate() {
        let p = CoreParams::default();
        let mut c = CoreClock::default();
        c.advance_compute(&p, 100);
        c.advance_compute(&p, 250);
        assert_eq!(c.instructions, 350);
    }
}
