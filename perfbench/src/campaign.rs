//! One untraced campaign over a workload's grid, and the cross-check of
//! its cells against the `sweep` binary.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use unison_harness::{Campaign, CampaignResult, TracePolicy};
use unison_sim::SimConfig;

use crate::check::{self, Gate};
use crate::procfs;
use crate::workload::Workload;

/// The outcome and cost of one campaign.
pub struct CampaignRun {
    /// Wall time from the call to the last result.
    pub wall_ns: u64,
    /// Wall time of the trace prefill, before any cell dispatches.
    pub setup_ns: u64,
    /// Process CPU time over the whole campaign.
    pub cpu_ns: u64,
    /// Records simulated (see [`Workload::records`]).
    pub records: u64,
    /// The correctness gate over its cells.
    pub gate: Gate,
    /// The result, unless the campaign panicked.
    pub result: Option<CampaignResult>,
}

impl CampaignRun {
    /// Timing-stripped cells, as `sweep --canonical --json` writes them.
    pub fn canonical(&self) -> Option<String> {
        self.result.as_ref().map(check::canonical_json)
    }
}

/// Runs the workload's grid once through `Campaign`, as `sweep` does:
/// memoized traces, trace-shared batching, the workload's thread count.
pub fn run(w: &Workload, cfg: &SimConfig) -> CampaignRun {
    let campaign = Campaign::new(*cfg)
        .threads(w.threads)
        .traces(TracePolicy::Memoize);
    let grid = w.grid();
    let cpu0 = procfs::cpu_ns();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        if w.speedups {
            campaign.run_speedups(&grid)
        } else {
            campaign.run(&grid)
        }
    }));
    let wall_ns = start.elapsed().as_nanos() as u64;
    let cpu_ns = procfs::cpu_ns().saturating_sub(cpu0);
    let (gate, setup_ns, result) = match result {
        Ok(r) => (check::gate(w, cfg, &r), r.timing.trace_prefill_ns, Some(r)),
        Err(e) => {
            let why = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            (
                Gate::panicked(grid.len(), format!("campaign panicked: {why}")),
                0,
                None,
            )
        }
    };
    CampaignRun {
        wall_ns,
        setup_ns,
        cpu_ns,
        records: w.records(cfg),
        gate,
        result,
    }
}

/// Runs `sweep` on the same grid and seed and compares its
/// `--canonical --json` output with `canonical` byte for byte.
pub fn cross_check(
    w: &Workload,
    seed: u64,
    sweep: &Path,
    out_dir: &Path,
    canonical: &str,
) -> Result<(), String> {
    let json = out_dir.join(format!("sweep-{}-seed{seed}.json", w.name));
    let _ = std::fs::remove_file(&json);
    let out = Command::new(sweep)
        .args(w.sweep_args(seed, &json))
        .env_remove("UNISON_TRACE_CACHE")
        .env_remove("UNISON_FAULT")
        .output()
        .map_err(|e| format!("cannot run {}: {e}", sweep.display()))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
        return Err(format!(
            "sweep exited with {}: {}",
            out.status,
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
    }
    let theirs = std::fs::read_to_string(&json)
        .map_err(|e| format!("cannot read {}: {e}", json.display()))?;
    if theirs != canonical {
        return Err(format!(
            "sweep --canonical --json (digest {}) differs from the benchmark's cells (digest {})",
            check::digest(&theirs),
            check::digest(canonical)
        ));
    }
    Ok(())
}
