//! Checkpoint journal and shard-output artifacts.
//!
//! A [`Journal`] is an append-only JSONL file of completed
//! [`CellResult`]s: a fingerprint header line, then one
//! [`IndexedCell`] per line, flushed as each cell completes. Killing a
//! campaign loses at most the cell mid-write; `--resume` reloads the
//! journal, verifies it belongs to the same plan (fingerprint + per-cell
//! keys), restores the completed prefix, and runs only the remainder —
//! producing output bit-identical to an uninterrupted run because the
//! restored results *are* the uninterrupted run's results.
//!
//! A [`ShardOutput`] is the serialized result of one `--shard I/N`
//! partition: the plan fingerprint, shard coordinates, and this shard's
//! cells tagged with their plan indices. [`merge_shards`] verifies a set
//! of shard files against each other (same fingerprint, same partition
//! arity, disjoint and complete index coverage) and reassembles the
//! full [`CampaignResult`] in grid order — bit-identical to the
//! single-process run.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use crate::campaign::{CampaignResult, CellResult};
use crate::errors::IoContext;
use crate::scheduler::TaskPlan;
use crate::telemetry::CampaignTiming;

/// Journal schema version (the header's `unison_journal` field).
///
/// Version history: 1 — original `CellResult` schema; 2 — cells carry
/// per-cell `wall_ns` (a version-1 journal's entries no longer parse, so
/// resuming one fails at the header with a clear version message instead
/// of a confusing mid-file "corrupt entry" error).
pub const JOURNAL_VERSION: u32 = 2;

/// One completed cell tagged with its plan position and stable key —
/// the unit both the journal and shard outputs record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IndexedCell {
    /// Plan (grid-order) index of the cell.
    pub index: usize,
    /// The cell's [`CellKey`](crate::CellKey) in canonical hex.
    pub key: String,
    /// The completed result.
    pub result: CellResult,
}

/// The journal's first line: identifies which plan the entries belong
/// to, so resuming under a different grid, config, or mode fails loudly
/// instead of silently mixing results.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct JournalHeader {
    unison_journal: u32,
    fingerprint: String,
    total_cells: usize,
    speedups: bool,
}

impl JournalHeader {
    fn of(plan: &TaskPlan) -> JournalHeader {
        JournalHeader {
            unison_journal: JOURNAL_VERSION,
            fingerprint: plan.fingerprint().to_string(),
            total_cells: plan.len(),
            speedups: plan.speedups,
        }
    }
}

/// Append-only JSONL checkpoint journal of completed cells.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
}

impl Journal {
    /// Starts a fresh journal for `plan` at `path`: truncates any
    /// existing file and writes the header line.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error (unwritable directory, etc.).
    pub fn create(path: impl Into<PathBuf>, plan: &TaskPlan) -> std::io::Result<Journal> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut file = File::create(&path)?;
        let header =
            serde_json::to_string(&JournalHeader::of(plan)).expect("journal header serializes");
        writeln!(file, "{header}")?;
        file.flush()?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
        })
    }

    /// Reopens the journal at `path` for `plan`, returning the journal
    /// (positioned to append) and every completed cell it already
    /// records. A missing file starts fresh (resume of nothing is a
    /// fresh run). The final line may be a torn partial write from a
    /// killed process — it is dropped with a warning; any earlier
    /// malformed line is corruption and an error.
    ///
    /// # Errors
    ///
    /// Returns a message when the journal belongs to a different plan
    /// (fingerprint, total, or mode mismatch), records a cell whose key
    /// contradicts the plan, or is corrupt before its final line.
    pub fn resume(
        path: impl Into<PathBuf>,
        plan: &TaskPlan,
    ) -> Result<(Journal, Vec<IndexedCell>), String> {
        let path = path.into();
        if !path.exists() {
            return Journal::create(&path, plan)
                .map(|j| (j, Vec::new()))
                .map_err(|e| format!("cannot create journal {}: {e}", path.display()));
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read journal {}: {e}", path.display()))?;
        if text.trim().is_empty() {
            // A created-but-never-written journal: start fresh.
            return Journal::create(&path, plan)
                .map(|j| (j, Vec::new()))
                .map_err(|e| format!("cannot recreate journal {}: {e}", path.display()));
        }
        let parsed = parse_entries(&text, plan, &path)?;
        let Some((entries, good_end)) = parsed else {
            // Nothing durable survived (a kill tore the header itself):
            // start the journal over rather than appending to wreckage.
            eprintln!(
                "[journal] {}: no durable header (killed during creation?); starting fresh",
                path.display()
            );
            return Journal::create(&path, plan)
                .map(|j| (j, Vec::new()))
                .map_err(|e| format!("cannot recreate journal {}: {e}", path.display()));
        };
        if (good_end as usize) < text.len() {
            // Cut the torn tail off before appending, so the next entry
            // starts on its own line instead of gluing onto the
            // fragment a kill left behind.
            let f = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| format!("cannot truncate journal {}: {e}", path.display()))?;
            f.set_len(good_end)
                .map_err(|e| format!("cannot truncate journal {}: {e}", path.display()))?;
        }
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot append to journal {}: {e}", path.display()))?;
        Ok((
            Journal {
                path,
                file: Mutex::new(file),
            },
            entries,
        ))
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one completed cell (whole line + flush, so a kill tears
    /// at most the line being written).
    ///
    /// Every failure mode degrades instead of panicking — journal loss
    /// costs resumability (the cell re-executes on resume), never the
    /// campaign: a non-serializing entry is skipped with a warning, a
    /// lock poisoned by a panicking sibling worker is recovered (line
    /// writes are atomic with respect to the file's consistency, so the
    /// journal itself is still well-formed), and a failed write (full
    /// disk, yanked mount) is reported and execution continues.
    pub fn append(&self, entry: &IndexedCell) {
        let line = match serde_json::to_string(entry) {
            Ok(line) => line,
            Err(e) => {
                eprintln!(
                    "[journal] cannot serialize entry for cell {} ({e}); \
                     skipping checkpoint (the cell re-executes on resume)",
                    entry.index
                );
                return;
            }
        };
        let mut file = match self.file.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
            eprintln!(
                "[journal] failed to append to {} ({e}); continuing without checkpoint",
                self.path.display()
            );
        }
    }
}

/// Parses and validates journal lines against `plan`, returning the
/// completed entries plus the byte length of the durable prefix (every
/// fully written, newline-terminated line) — the caller truncates any
/// torn tail beyond it before appending. `Ok(None)` means not even the
/// header line was durably written (the caller recreates the journal).
fn parse_entries(
    text: &str,
    plan: &TaskPlan,
    path: &Path,
) -> Result<Option<(Vec<IndexedCell>, u64)>, String> {
    let mut entries: Vec<IndexedCell> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut header_done = false;
    let mut offset = 0usize;
    let mut good_end = 0usize;
    let raw_lines: Vec<&str> = text.split_inclusive('\n').collect();
    for (k, raw) in raw_lines.iter().enumerate() {
        let lineno = k + 1;
        let is_last = lineno == raw_lines.len();
        let terminated = raw.ends_with('\n');
        let line = raw.trim_end_matches(['\r', '\n']);
        offset += raw.len();
        if line.trim().is_empty() {
            if terminated {
                good_end = offset;
            }
            continue;
        }
        if !header_done {
            if !terminated {
                // A kill between the header write and its newline (or
                // mid-header): nothing durable exists yet. Appending
                // here would glue the first entry onto the header line
                // and corrupt the journal forever.
                return Ok(None);
            }
            let header: JournalHeader = serde_json::from_str(line)
                .map_err(|e| format!("{}: not a campaign journal ({e})", path.display()))?;
            if header.unison_journal != JOURNAL_VERSION {
                return Err(format!(
                    "{}: journal version {} unsupported (expected {JOURNAL_VERSION})",
                    path.display(),
                    header.unison_journal
                ));
            }
            if header.fingerprint != plan.fingerprint()
                || header.total_cells != plan.len()
                || header.speedups != plan.speedups
            {
                return Err(format!(
                    "{}: journal belongs to a different campaign \
                     (journal fingerprint {}, plan fingerprint {}); refusing to resume",
                    path.display(),
                    header.fingerprint,
                    plan.fingerprint()
                ));
            }
            header_done = true;
            good_end = offset;
            continue;
        }
        match serde_json::from_str::<IndexedCell>(line) {
            Ok(entry) if terminated => {
                let Some(planned) = plan.cells.get(entry.index) else {
                    return Err(format!(
                        "{}: journal entry index {} out of range for {}-cell plan",
                        path.display(),
                        entry.index,
                        plan.len()
                    ));
                };
                if planned.key.hex() != entry.key {
                    return Err(format!(
                        "{}: journal entry {} has key {} but the plan expects {}; \
                         this journal belongs to a different campaign",
                        path.display(),
                        entry.index,
                        entry.key,
                        planned.key.hex()
                    ));
                }
                if seen.insert(entry.index) {
                    entries.push(entry);
                }
                good_end = offset;
            }
            Ok(_) => {
                // Parseable but missing its newline: the very tail of a
                // killed append. Treat as torn — re-running one cell is
                // cheaper than ever gluing an append onto it.
                eprintln!(
                    "[journal] {}: dropping unterminated final line {lineno} \
                     (killed mid-write?)",
                    path.display()
                );
            }
            Err(e) => {
                if is_last {
                    eprintln!(
                        "[journal] {}: dropping torn final line {lineno} (killed mid-write?)",
                        path.display()
                    );
                } else {
                    return Err(format!(
                        "{}: corrupt journal entry on line {lineno} ({e})",
                        path.display()
                    ));
                }
            }
        }
    }
    if !header_done {
        // Only blank lines: nothing durable to append after.
        return Ok(None);
    }
    Ok(Some((entries, good_end as u64)))
}

/// The serialized outcome of one campaign partition — what `sweep
/// --shard I/N --json FILE` writes and `sweep --merge` reads back.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardOutput {
    /// Fingerprint of the plan this shard belongs to.
    pub fingerprint: String,
    /// Total cells in the full plan (across all shards).
    pub total_cells: usize,
    /// 0-based shard index.
    pub shard_index: u32,
    /// Shard count of the partition (1 for a full in-process run).
    pub shard_count: u32,
    /// Whether cells carry speedups.
    pub speedups: bool,
    /// This shard's completed cells, tagged with plan indices, in plan
    /// order.
    pub cells: Vec<IndexedCell>,
    /// NoCache baseline simulations this shard executed.
    pub baseline_runs: usize,
    /// Baseline requests served from this shard's memo cache.
    pub baseline_hits: usize,
    /// Trace artifacts this shard generated.
    pub trace_generated: usize,
    /// Trace requests served from this shard's in-memory memo.
    pub trace_memo_hits: usize,
    /// Trace requests served from this shard's on-disk artifact cache.
    pub trace_disk_hits: usize,
    /// Cells restored from a resume journal instead of executed.
    pub resumed_cells: usize,
    /// Per-phase wall-time summary of this shard's run.
    pub timing: CampaignTiming,
}

impl ShardOutput {
    /// Converts a **complete** output (every plan index present) into a
    /// [`CampaignResult`] in grid order.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing indices otherwise.
    pub fn into_campaign_result(self) -> Result<CampaignResult, String> {
        merge_shards(vec![self])
    }
}

/// Serializes one shard output as pretty JSON and writes it to `path` —
/// what `sweep --shard I/N --json FILE` writes and `sweep --merge` reads.
///
/// # Errors
///
/// Returns a one-line message naming the path on serialization or write
/// failure.
pub fn write_shard_output(path: &Path, out: &ShardOutput) -> Result<(), String> {
    let text = serde_json::to_string_pretty(out)
        .map_err(|e| format!("shard output does not serialize: {e}"))?;
    std::fs::write(path, text + "\n")
        .file_ctx("write shard output", path)
        .map_err(|e| e.to_string())
}

/// Verifies `outputs` form one complete partition of a single plan and
/// reassembles the full campaign result in grid order.
///
/// Verification: at least one shard; all fingerprints, totals, modes,
/// and shard counts agree; shard indices are distinct and in range; no
/// two shards claim the same cell; every plan index `0..total` is
/// covered. Counters are summed across shards (a workload's baseline
/// may legitimately run once per shard that needs it).
///
/// # Errors
///
/// Returns a message describing the first inconsistency.
pub fn merge_shards(outputs: Vec<ShardOutput>) -> Result<CampaignResult, String> {
    let Some(first) = outputs.first() else {
        return Err("no shard outputs to merge".into());
    };
    let fingerprint = first.fingerprint.clone();
    let total = first.total_cells;
    let count = first.shard_count;
    let speedups = first.speedups;
    let mut shard_seen: Vec<u32> = Vec::new();
    let mut slots: Vec<Option<IndexedCell>> = (0..total).map(|_| None).collect();
    let mut result = CampaignResult {
        cells: Vec::new(),
        baseline_runs: 0,
        baseline_hits: 0,
        trace_generated: 0,
        trace_memo_hits: 0,
        trace_disk_hits: 0,
        resumed_cells: 0,
        timing: CampaignTiming::default(),
    };
    for (n, out) in outputs.into_iter().enumerate() {
        if out.fingerprint != fingerprint {
            return Err(format!(
                "shard output {n} has fingerprint {} but shard 0 has {fingerprint}; \
                 these partials belong to different campaigns",
                out.fingerprint
            ));
        }
        if out.total_cells != total || out.shard_count != count || out.speedups != speedups {
            return Err(format!(
                "shard output {n} disagrees on plan shape \
                 ({} cells / {} shards vs {total} cells / {count} shards)",
                out.total_cells, out.shard_count
            ));
        }
        if out.shard_index >= count {
            return Err(format!(
                "shard output {n} claims index {} of a {count}-way partition",
                out.shard_index
            ));
        }
        if shard_seen.contains(&out.shard_index) {
            return Err(format!(
                "shard {}/{count} appears more than once",
                out.shard_index + 1
            ));
        }
        shard_seen.push(out.shard_index);
        result.baseline_runs += out.baseline_runs;
        result.baseline_hits += out.baseline_hits;
        result.trace_generated += out.trace_generated;
        result.trace_memo_hits += out.trace_memo_hits;
        result.trace_disk_hits += out.trace_disk_hits;
        result.resumed_cells += out.resumed_cells;
        result.timing.absorb(&out.timing);
        for cell in out.cells {
            let Some(slot) = slots.get_mut(cell.index) else {
                return Err(format!(
                    "cell index {} out of range for the {total}-cell plan",
                    cell.index
                ));
            };
            if let Some(existing) = slot {
                return Err(format!(
                    "cell {} ({}) appears in more than one shard output",
                    cell.index, existing.key
                ));
            }
            *slot = Some(cell);
        }
    }
    let missing: Vec<usize> = slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_none())
        .map(|(i, _)| i)
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "merged shards cover {} of {total} cells; missing indices {:?}{} — \
             did a shard of the partition not run (or not finish)?",
            total - missing.len(),
            &missing[..missing.len().min(8)],
            if missing.len() > 8 { ", ..." } else { "" }
        ));
    }
    result.cells = slots
        .into_iter()
        .map(|s| s.expect("missing indices checked above").result)
        .collect();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ScenarioGrid;
    use crate::scheduler::ShardSpec;
    use crate::Campaign;
    use unison_sim::{Design, SimConfig};
    use unison_trace::workloads;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("unison-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn grid() -> ScenarioGrid {
        ScenarioGrid::new()
            .designs([Design::Unison, Design::Ideal])
            .workloads([workloads::web_search()])
            .sizes([256 << 20])
    }

    #[test]
    fn journal_round_trips_completed_cells() {
        let dir = scratch("roundtrip");
        let path = dir.join("j.jsonl");
        let cfg = SimConfig::quick_test();
        let plan = TaskPlan::lower(&cfg, &grid(), true);
        let full = Campaign::new(cfg).threads(1).run_speedups(&grid());

        let j = Journal::create(&path, &plan).unwrap();
        for (i, cell) in full.cells().iter().enumerate() {
            j.append(&IndexedCell {
                index: i,
                key: plan.cells[i].key.hex(),
                result: cell.clone(),
            });
        }
        drop(j);

        let (_j, restored) = Journal::resume(&path, &plan).unwrap();
        assert_eq!(restored.len(), full.cells().len());
        assert_eq!(
            serde_json::to_string(&restored.iter().map(|e| &e.result).collect::<Vec<_>>()).unwrap(),
            serde_json::to_string(&full.cells().iter().collect::<Vec<_>>()).unwrap(),
            "journaled results must round-trip bit-identically"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_drops_torn_final_line_but_rejects_mid_corruption() {
        let dir = scratch("torn");
        let path = dir.join("j.jsonl");
        let cfg = SimConfig::quick_test();
        let plan = TaskPlan::lower(&cfg, &grid(), true);
        let full = Campaign::new(cfg).threads(1).run_speedups(&grid());
        let j = Journal::create(&path, &plan).unwrap();
        for (i, cell) in full.cells().iter().enumerate() {
            j.append(&IndexedCell {
                index: i,
                key: plan.cells[i].key.hex(),
                result: cell.clone(),
            });
        }
        drop(j);

        // Torn final line (kill mid-write): entry 1 survives, tail drops.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let torn = format!("{}\n{}\n{}", lines[0], lines[1], &lines[2][..20]);
        std::fs::write(&path, torn).unwrap();
        let (_j, restored) = Journal::resume(&path, &plan).unwrap();
        assert_eq!(restored.len(), 1);
        assert_eq!(restored[0].index, 0);

        // The same damage mid-file is corruption, not truncation.
        let corrupt = format!("{}\n{}\n{}\n", lines[0], &lines[1][..20], lines[2]);
        std::fs::write(&path, corrupt).unwrap();
        let err = Journal::resume(&path, &plan).unwrap_err();
        assert!(err.contains("corrupt"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_foreign_journals() {
        let dir = scratch("foreign");
        let path = dir.join("j.jsonl");
        let cfg = SimConfig::quick_test();
        let plan = TaskPlan::lower(&cfg, &grid(), true);
        Journal::create(&path, &plan).unwrap();

        // Different seed => different fingerprint.
        let mut other = cfg;
        other.seed = 7;
        let other_plan = TaskPlan::lower(&other, &grid(), true);
        let err = Journal::resume(&path, &other_plan).unwrap_err();
        assert!(err.contains("different campaign"), "{err}");

        // Not a journal at all.
        std::fs::write(&path, "{\"whatever\": 1}\n").unwrap();
        assert!(Journal::resume(&path, &plan).is_err());

        // Missing file: fresh start.
        let fresh = dir.join("missing.jsonl");
        let (_j, restored) = Journal::resume(&fresh, &plan).unwrap();
        assert!(restored.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_header_restarts_the_journal_instead_of_gluing_onto_it() {
        let dir = scratch("torn-header");
        let path = dir.join("j.jsonl");
        let cfg = SimConfig::quick_test();
        let plan = TaskPlan::lower(&cfg, &grid(), true);

        // A kill between the header write and its newline: the file
        // holds a complete header JSON but no terminator. Appending
        // as-is would glue the first entry onto the header line and
        // corrupt the journal permanently.
        Journal::create(&path, &plan).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end()).unwrap();

        let (j, restored) = Journal::resume(&path, &plan).unwrap();
        assert!(restored.is_empty(), "nothing durable to restore");
        let full = Campaign::new(cfg).threads(1).run_speedups(&grid());
        j.append(&IndexedCell {
            index: 0,
            key: plan.cells[0].key.hex(),
            result: full.cells()[0].clone(),
        });
        drop(j);
        // The recreated journal parses cleanly and restores the entry.
        let (_j, restored) = Journal::resume(&path, &plan).unwrap();
        assert_eq!(restored.len(), 1);
        assert_eq!(restored[0].index, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_validates_partitions() {
        let cfg = SimConfig::quick_test();
        let g = grid();
        let shard = |i: u32| {
            Campaign::new(cfg)
                .threads(1)
                .run_plan(&g, true, ShardSpec::new(i, 2).unwrap())
        };
        let a = shard(0);
        let b = shard(1);
        assert_eq!(a.cells.len() + b.cells.len(), 2);

        // Same shard twice: either duplicate-shard or missing-cells.
        let err = merge_shards(vec![a.clone(), a.clone()]).unwrap_err();
        assert!(
            err.contains("more than once") || err.contains("missing"),
            "{err}"
        );

        // One shard alone: incomplete (unless it happens to hold all
        // cells, in which case the duplicate test above still covered
        // validation).
        if a.cells.len() < a.total_cells {
            let err = merge_shards(vec![a.clone()]).unwrap_err();
            assert!(err.contains("missing"), "{err}");
        }

        // Foreign fingerprint.
        let mut other_cfg = cfg;
        other_cfg.seed = 9;
        let foreign =
            Campaign::new(other_cfg)
                .threads(1)
                .run_plan(&g, true, ShardSpec::new(1, 2).unwrap());
        let err = merge_shards(vec![a.clone(), foreign]).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");

        // The happy path. Timing is canonicalized away: two runs never
        // share wall clocks, but the simulated payloads must be
        // bit-identical.
        let merged = merge_shards(vec![a, b]).unwrap();
        let full = Campaign::new(cfg).threads(1).run_speedups(&g);
        assert_eq!(
            serde_json::to_string(&merged.canonical_cells()).unwrap(),
            serde_json::to_string(&full.canonical_cells()).unwrap()
        );
    }

    #[test]
    fn full_run_output_converts_to_campaign_result() {
        let cfg = SimConfig::quick_test();
        let g = grid();
        let out = Campaign::new(cfg)
            .threads(1)
            .run_plan(&g, false, ShardSpec::WHOLE);
        assert_eq!(out.shard_count, 1);
        assert_eq!(out.cells.len(), out.total_cells);
        let r = out.into_campaign_result().unwrap();
        assert_eq!(r.cells().len(), 2);
    }
}
