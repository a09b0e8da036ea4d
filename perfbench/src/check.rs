//! The correctness gate every campaign's cells must pass, and the
//! digest that identifies a campaign's simulated results.

use unison_harness::{CampaignResult, CellResult};
use unison_sim::{Design, SimConfig};
use unison_trace::Fnv1a;

use crate::workload::Workload;

/// Cells checked and the problems found.
#[derive(Debug, Default, Clone)]
pub struct Gate {
    /// Cells attempted.
    pub attempted: usize,
    /// Cells that panicked or failed a check.
    pub failed: usize,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Gate {
    /// Adds another gate's counts and problems.
    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
    }

    /// A campaign that panicked: every cell of the grid failed.
    pub fn panicked(cells: usize, why: String) -> Gate {
        Gate {
            attempted: cells,
            failed: cells,
            problems: vec![why],
        }
    }

    /// A failure of a check that is not about one cell (a cross-check),
    /// counted as one failed attempt.
    pub fn failure(why: String) -> Gate {
        Gate::panicked(1, why)
    }
}

/// Records (warmup + measurement) the simulation behind `cell` consumed:
/// the baseline's plan for NoCache cells of a speedup campaign (which
/// reuse it), the cell's own plan otherwise.
fn planned_total(w: &Workload, cfg: &SimConfig, cell: &CellResult) -> Option<u64> {
    let spec = w.specs.iter().find(|s| s.name == cell.workload())?;
    let size = if w.speedups && cell.design() == Design::NoCache.name() {
        0
    } else {
        cell.cache_bytes()
    };
    Some(cfg.trace_plan(spec, size).total)
}

/// Problems with one cell, empty when it passes:
/// `misses + hits == accesses`, `accesses == measured == total - warmup`,
/// and a finite positive UIPC and (in speedup campaigns) speedup.
fn cell_problems(w: &Workload, cfg: &SimConfig, cell: &CellResult) -> Vec<String> {
    let mut out = Vec::new();
    let run = &cell.run;
    let stats = &run.cache;
    if stats.misses() + stats.hits != stats.accesses {
        out.push(format!(
            "misses {} + hits {} != accesses {}",
            stats.misses(),
            stats.hits,
            stats.accesses
        ));
    }
    match planned_total(w, cfg, cell) {
        Some(total) => {
            let warmup = (total as f64 * cfg.warmup_fraction) as u64;
            if run.measured_accesses != total - warmup || stats.accesses != run.measured_accesses {
                out.push(format!(
                    "measured {} / accessed {} records, planned {total} - {warmup} warmup",
                    run.measured_accesses, stats.accesses
                ));
            }
        }
        None => out.push(format!("workload {:?} is not in the grid", cell.workload())),
    }
    if !(run.uipc.is_finite() && run.uipc > 0.0) {
        out.push(format!("uipc {}", run.uipc));
    }
    match (w.speedups, cell.speedup) {
        (true, Some(s)) if s.is_finite() && s > 0.0 => {}
        (false, None) => {}
        (_, s) => out.push(format!("speedup {s:?}")),
    }
    out
}

/// Checks every cell of a finished campaign, and that Ideal's UIPC is at
/// least every design's on the same trace workload.
pub fn gate(w: &Workload, cfg: &SimConfig, result: &CampaignResult) -> Gate {
    let expected = w.designs.len() * w.specs.len();
    let mut gate = Gate {
        attempted: expected.max(result.cells.len()),
        ..Gate::default()
    };
    if result.cells.len() != expected {
        gate.failed += expected.abs_diff(result.cells.len());
        gate.problems.push(format!(
            "campaign returned {} cells, the grid has {expected}",
            result.cells.len()
        ));
    }
    for cell in &result.cells {
        let mut problems = cell_problems(w, cfg, cell);
        let ideal = result
            .cells
            .iter()
            .find(|c| c.workload() == cell.workload() && c.design() == Design::Ideal.name());
        if let Some(ideal) = ideal {
            if ideal.run.uipc < cell.run.uipc {
                problems.push(format!(
                    "uipc {} above Ideal's {}",
                    cell.run.uipc, ideal.run.uipc
                ));
            }
        }
        if !problems.is_empty() {
            gate.failed += 1;
            gate.problems.push(format!(
                "{} on {}: {}",
                cell.design(),
                cell.workload(),
                problems.join("; ")
            ));
        }
    }
    gate
}

/// The campaign's timing-stripped cells exactly as
/// `sweep --canonical --json` writes them.
pub fn canonical_json(result: &CampaignResult) -> String {
    serde_json::to_string_pretty(&result.canonical_cells()).expect("campaign cells serialize")
}

/// FNV-1a of the canonical cells, in hex: equal digests mean identical
/// simulated results.
pub fn digest(canonical: &str) -> String {
    let mut h = Fnv1a::new();
    h.write(canonical.as_bytes());
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_harness::Campaign;
    use unison_trace::workloads;

    fn tiny() -> (Workload, SimConfig, CampaignResult) {
        let mut w = Workload::by_name("fig7-campaign", 2).unwrap();
        w.designs = vec![Design::Unison, Design::Ideal];
        w.specs = vec![workloads::web_search()];
        let cfg = SimConfig {
            seed: 3,
            ..SimConfig::quick_test()
        };
        let result = Campaign::new(cfg).threads(2).run_speedups(&w.grid());
        (w, cfg, result)
    }

    #[test]
    fn a_correct_campaign_passes_and_a_tampered_one_fails() {
        let (w, cfg, mut result) = tiny();
        let ok = gate(&w, &cfg, &result);
        assert_eq!((ok.attempted, ok.failed), (2, 0), "{:?}", ok.problems);

        result.cells[0].run.cache.hits += 1;
        result.cells[1].speedup = Some(f64::NAN);
        let bad = gate(&w, &cfg, &result);
        assert_eq!(bad.failed, 2, "{:?}", bad.problems);

        let (_, _, mut result) = tiny();
        result.cells[0].run.uipc = result.cells[1].run.uipc * 2.0;
        let bad = gate(&w, &cfg, &result);
        assert_eq!(
            bad.failed, 1,
            "a design faster than Ideal: {:?}",
            bad.problems
        );

        result.cells.pop();
        assert!(gate(&w, &cfg, &result).failed >= 1, "a missing cell fails");
    }

    #[test]
    fn digest_tracks_canonical_bytes() {
        let (_, _, result) = tiny();
        let canonical = canonical_json(&result);
        assert_eq!(digest(&canonical), digest(&canonical.clone()));
        assert_ne!(
            digest(&canonical),
            digest(&canonical.replace("Unison", "Unisom"))
        );
    }
}
