//! Incremental single-cell simulation for trace-shared batching.
//!
//! [`CellSim`] is [`crate::run_experiment_with_source`] unrolled into a
//! resumable state machine: construct one per campaign cell, then
//! [`CellSim::step`] each in turn with small record budgets so a group
//! of cells replaying the **same** frozen [`TraceArtifact`] interleave
//! their simulations over one streaming pass of the shared bytes —
//! every cell's replay cursor walks the region of the artifact that is
//! already hot in cache. Results are **bit-identical** to the one-shot
//! runner (pinned by `stepped_cell_sim_matches_one_shot_runner` and the
//! harness-level batching identity tests): the phase boundaries, the
//! stream-position record drop, and the result arithmetic all replicate
//! `drive_cache` exactly.

use unison_core::DramCacheModel;
use unison_trace::{TraceArtifact, WorkloadSpec};

use crate::metrics::RunResult;
use crate::runner::{artifact_columns, ArtifactColumns, Design, SimConfig};
use crate::system::{DispatchSession, Progress, System};

/// Where a [`CellSim`] is in the warmup → measurement → done lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Warmup,
    Measurement,
    Done,
}

/// One experiment cell being simulated incrementally against a borrowed
/// trace artifact.
///
/// Borrows **only** the artifact (the trace plan's scaled spec is cloned
/// into the column source), so a batch driver can hold many `CellSim`s
/// against `Arc`-shared artifacts without self-referential lifetimes.
///
/// # Construction panics
///
/// [`CellSim::new`] validates the artifact exactly as
/// [`crate::TraceSource::Replay`] does: it must have been frozen from
/// this cell's `(scaled spec, seed)` and cover the planned
/// `frozen_len`.
pub struct CellSim<'a> {
    design: Design,
    cache_bytes: u64,
    workload: String,
    sys: System<Box<dyn DramCacheModel>>,
    session: DispatchSession<ArtifactColumns<'a>>,
    phase: Phase,
    /// Records consumed so far within the current phase.
    done_in_phase: u64,
    warmup: u64,
    total: u64,
    before: Progress,
    after: Progress,
}

impl<'a> CellSim<'a> {
    /// Sets up the cell: builds the scaled cache and system, validates
    /// `artifact` against the run's trace plan, and positions every
    /// core at its first record. No records are consumed yet.
    pub fn new(
        design: Design,
        cache_bytes: u64,
        spec: &WorkloadSpec,
        cfg: &SimConfig,
        artifact: &'a TraceArtifact,
    ) -> Self {
        let plan = cfg.trace_plan(spec, cache_bytes);
        let columns = artifact_columns(artifact, &plan, spec, cfg);
        let scaled_cache = cfg.scaled_cache_bytes(cache_bytes);
        // `build_scaled` constructs the identical cache the one-shot
        // runner's `drive` would for every design: its Ideal/NoCache
        // devirtualization is a dispatch-cost optimization, not a
        // different model.
        let cache = design.build_scaled(scaled_cache, cache_bytes.max(1), &cfg.system);
        let sys = System::new(
            cfg.system.resolved_cores(spec) as usize,
            cache,
            cfg.system.mem_ports(),
            cfg.system.core,
        );
        let total = plan.total;
        CellSim {
            design,
            cache_bytes,
            workload: spec.name.to_string(),
            sys,
            session: DispatchSession::new(columns),
            phase: Phase::Warmup,
            done_in_phase: 0,
            warmup: (total as f64 * cfg.warmup_fraction) as u64,
            total,
            before: Progress::default(),
            after: Progress::default(),
        }
    }

    /// Whether both phases have run to completion.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Records still to be consumed across the remaining phases.
    pub fn remaining(&self) -> u64 {
        match self.phase {
            Phase::Warmup => self.total - self.done_in_phase,
            Phase::Measurement => (self.total - self.warmup) - self.done_in_phase,
            Phase::Done => 0,
        }
    }

    /// Advances the simulation by up to `budget` records, crossing the
    /// warmup/measurement boundary mid-step if the budget spans it
    /// (snapshotting progress, resetting statistics, and applying the
    /// stream-position rule exactly as the one-shot runner's phase split
    /// does). Returns the records actually consumed — less than
    /// `budget` only once the cell finishes.
    ///
    /// # Panics
    ///
    /// Panics if the trace runs dry before a phase completes, with the
    /// same diagnostics as the one-shot runner. (A column that runs dry
    /// re-freezes a longer artifact, so this indicates a genuinely broken
    /// source, not an undersized artifact.)
    pub fn step(&mut self, budget: u64) -> u64 {
        let mut consumed = 0u64;
        while consumed < budget && self.phase != Phase::Done {
            let phase_total = match self.phase {
                Phase::Warmup => self.warmup,
                Phase::Measurement => self.total - self.warmup,
                Phase::Done => unreachable!(),
            };
            let want = (budget - consumed).min(phase_total - self.done_in_phase);
            if want > 0 {
                let got = self.sys.run_session(&mut self.session, want);
                self.done_in_phase += got;
                consumed += got;
                if got < want {
                    match self.phase {
                        Phase::Warmup => panic!(
                            "trace for '{}' ran dry during warmup ({} of {} records)",
                            self.workload, self.done_in_phase, self.warmup,
                        ),
                        _ => panic!("trace for '{}' ran dry during measurement", self.workload,),
                    }
                }
            }
            if self.done_in_phase == phase_total {
                match self.phase {
                    Phase::Warmup => {
                        self.before = self.sys.progress();
                        self.sys.reset_measurement();
                        self.session.next_phase();
                        self.phase = Phase::Measurement;
                    }
                    Phase::Measurement => {
                        self.after = self.sys.progress();
                        self.phase = Phase::Done;
                    }
                    Phase::Done => unreachable!(),
                }
                self.done_in_phase = 0;
            }
        }
        consumed
    }

    /// Finalizes the cell into the same [`RunResult`] the one-shot
    /// runner produces.
    ///
    /// # Panics
    ///
    /// Panics if the cell has not been stepped to completion.
    pub fn into_result(self) -> RunResult {
        assert!(
            self.phase == Phase::Done,
            "CellSim for '{}' finalized before completion",
            self.workload,
        );
        let (before, after) = (self.before, self.after);
        let instructions = after.instructions - before.instructions;
        let elapsed_ps = after.elapsed_ps.saturating_sub(before.elapsed_ps).max(1);
        // UIPC at 3 GHz: instructions / cycles, cycles = ps * 3 / 1000.
        let cycles = (elapsed_ps * 3) as f64 / 1000.0;
        let (cache, mem) = self.sys.into_parts();
        RunResult {
            design: self.design.name(),
            workload: self.workload,
            cache_bytes: self.cache_bytes,
            measured_accesses: self.total - self.warmup,
            instructions,
            elapsed_ps,
            uipc: instructions as f64 / cycles,
            cache: *cache.stats(),
            stacked: *mem.stacked.stats(),
            offchip: *mem.offchip.stats(),
            stacked_energy: *mem.stacked.energy(),
            offchip_energy: *mem.offchip.energy(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_experiment_with_source, TraceSource};
    use unison_trace::workloads;

    /// Stepping a `CellSim` with ragged budgets (straddling the
    /// warmup/measurement boundary mid-step) must reproduce the one-shot
    /// runner bit for bit, for both a heavy boxed design and a
    /// devirtualized one.
    #[test]
    fn stepped_cell_sim_matches_one_shot_runner() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_serving();
        let size = 128 << 20;
        let plan = cfg.trace_plan(&w, size);
        let artifact =
            unison_trace::TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);

        for design in [Design::Unison, Design::Ideal, Design::NoCache] {
            let one_shot =
                run_experiment_with_source(design, size, &w, &cfg, TraceSource::Replay(&artifact));

            let mut cell = CellSim::new(design, size, &w, &cfg, &artifact);
            // Ragged budget schedule, including a big chunk that crosses
            // the phase boundary inside one step() call.
            let mut budgets = [1u64, 17, 5_000, 50_000, 999].iter().cycle();
            while !cell.is_done() {
                cell.step(*budgets.next().unwrap());
            }
            assert_eq!(cell.step(1_000), 0, "a done cell consumes nothing");
            let stepped = cell.into_result();

            assert_eq!(
                serde_json::to_string(&stepped).unwrap(),
                serde_json::to_string(&one_shot).unwrap(),
                "{design:?}: stepped simulation must be bit-identical to the one-shot runner"
            );
        }
    }

    #[test]
    fn remaining_counts_down_to_zero() {
        let cfg = SimConfig::quick_test();
        let w = workloads::web_search();
        let size = 128 << 20;
        let plan = cfg.trace_plan(&w, size);
        let artifact =
            unison_trace::TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);
        let mut cell = CellSim::new(Design::Alloy, size, &w, &cfg, &artifact);
        let mut last = cell.remaining();
        assert!(last > 0);
        while !cell.is_done() {
            cell.step(30_000);
            assert!(cell.remaining() <= last);
            last = cell.remaining();
        }
        assert_eq!(cell.remaining(), 0);
    }
}
