//! The in-process campaign supervisor behind `sweep --orchestrate N`.
//!
//! One parent process lowers the plan once, shards its cells across
//! N child `--shard i/N` worker processes (each checkpointing to its own
//! [`Journal`]), and supervises them: a worker that dies — panicking
//! cell, injected crash, SIGKILL, corrupted output — is relaunched with
//! `--resume` from its journal under bounded exponential backoff, so the
//! cells it already completed are restored instead of re-simulated.
//!
//! Failure handling degrades gracefully, never silently:
//!
//! * A worker that dies **twice in a row on the same cell** (identified
//!   by the `key=…` tag the pool's panic relabeling and the fault layer
//!   put in its log) has that cell *quarantined*: the next incarnation
//!   is launched with `--skip-cells` and completes the rest of its
//!   shard.
//! * A worker that exhausts its restart budget is marked failed; its
//!   journal is salvaged read-only ([`Journal::peek`]) so its durable
//!   completions still land in the result.
//! * If every shard completes and nothing was quarantined, the outputs
//!   go through the existing [`merge_shards`] fingerprint/arity/coverage
//!   verification and the merged result is **bit-identical** to an
//!   uninterrupted unsharded run. Otherwise the run finishes with a
//!   partial [`CampaignResult`] plus a [`CampaignManifest`] naming every
//!   missing cell and what happened to its worker — written to
//!   `manifest.json` in the scratch directory either way.
//!
//! The supervisor never trusts a worker's exit code alone: a
//! successfully-exiting worker whose output file is missing, unparseable
//! (e.g. an injected `corrupt-shard-output`), mislabeled, or short on
//! coverage is treated exactly like a crash.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::campaign::CampaignResult;
use crate::errors::IoContext;
use crate::fault;
use crate::journal::{merge_shards, IndexedCell, Journal, ShardOutput};
use crate::progress::{FleetProgress, ProgressConfig, WorkerPhase, WorkerSample};
use crate::scheduler::{imbalance_ratio, ShardSpec, TaskPlan};
use crate::telemetry::CampaignTiming;

/// Supervision policy for one orchestrated campaign.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Worker (shard) count, ≥ 1.
    pub workers: u32,
    /// Restarts allowed **per worker** before it is marked failed (its
    /// first launch is not a restart: `max_restarts = 3` allows 4
    /// incarnations).
    pub max_restarts: u32,
    /// First restart backoff, milliseconds; doubles per consecutive
    /// restart of the same worker.
    pub backoff_base_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub backoff_cap_ms: u64,
    /// Scratch directory owning the per-worker journals, shard outputs,
    /// logs, and the manifest. Re-running the same campaign with the
    /// same directory resumes from whatever the journals hold.
    pub dir: PathBuf,
    /// Suppress the fleet progress/supervision lines on stderr.
    pub quiet: bool,
}

impl OrchestratorConfig {
    /// Default policy: 3 restarts per worker, 250 ms → 5 s backoff.
    pub fn new(workers: u32, dir: impl Into<PathBuf>) -> OrchestratorConfig {
        OrchestratorConfig {
            workers: workers.max(1),
            max_restarts: 3,
            backoff_base_ms: 250,
            backoff_cap_ms: 5_000,
            dir: dir.into(),
            quiet: false,
        }
    }
}

/// Exponential backoff before restart `restart_no` (1-based): doubles
/// from `base_ms` per consecutive restart, capped at `cap_ms`.
pub fn backoff_ms(base_ms: u64, cap_ms: u64, restart_no: u32) -> u64 {
    let doublings = restart_no.saturating_sub(1).min(32);
    base_ms
        .saturating_mul(1u64 << doublings)
        .min(cap_ms.max(base_ms))
}

/// The scratch files of one worker slot.
#[derive(Debug, Clone)]
pub struct WorkerPaths {
    /// The worker's checkpoint journal (`--journal`, resumed across
    /// incarnations).
    pub journal: PathBuf,
    /// The worker's shard-output JSON (`--json`).
    pub output: PathBuf,
    /// The worker's combined stdout+stderr capture, appended across
    /// incarnations (where crash diagnoses come from).
    pub log: PathBuf,
}

/// Everything a launcher closure needs to build one worker incarnation's
/// [`Command`]. The orchestrator wires stdio redirection itself; the
/// closure only supplies the program and arguments.
#[derive(Debug)]
pub struct WorkerLaunch<'a> {
    /// 0-based worker index (== shard index).
    pub worker: u32,
    /// The shard this worker executes.
    pub shard: ShardSpec,
    /// The worker's scratch files.
    pub paths: &'a WorkerPaths,
    /// Canonical hex keys of quarantined cells this incarnation must
    /// skip (`--skip-cells`).
    pub skip: &'a [String],
    /// 0 for the first launch, incremented per restart.
    pub attempt: u32,
}

/// A cell the orchestrated campaign could not complete, as named by the
/// partial-result manifest.
#[derive(Debug, Clone, Serialize)]
pub struct QuarantinedCell {
    /// Plan (grid-order) index.
    pub index: usize,
    /// Canonical hex cell key.
    pub key: String,
    /// Human-readable cell identity ([`Cell::describe`](crate::Cell)).
    pub cell: String,
    /// The worker the cell was assigned to.
    pub worker: u32,
    /// The failure that doomed it, when one was attributable.
    pub error: Option<String>,
}

/// Per-worker supervision summary inside the manifest.
#[derive(Debug, Clone, Serialize)]
pub struct WorkerReport {
    /// 0-based worker index.
    pub worker: u32,
    /// CLI shard spelling (`"1/2"`).
    pub shard: String,
    /// Restarts consumed.
    pub restarts: u32,
    /// Whether the worker's shard output verified complete.
    pub completed: bool,
    /// Cells recovered from this worker (verified output, or journal
    /// salvage for a failed worker).
    pub cells: usize,
    /// Wall time this worker spent simulating cells, ns
    /// (`timing.cells_ns` of its verified output; 0 when it never
    /// completed). Feeds the manifest's imbalance ratio.
    pub busy_ns: u64,
    /// The last failure observed, if any.
    pub last_error: Option<String>,
}

/// The explicit record an orchestrated campaign finishes with — written
/// to `manifest.json` in the scratch directory whether the run completed
/// or degraded, so partial results are never silent.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignManifest {
    /// Plan fingerprint.
    pub fingerprint: String,
    /// True when every cell completed and the merged output passed full
    /// verification (bit-identical to an unsharded run).
    pub complete: bool,
    /// Cells in the full plan.
    pub total_cells: usize,
    /// Cells actually present in the assembled result.
    pub completed_cells: usize,
    /// Restarts summed across workers.
    pub total_restarts: u32,
    /// Max/mean of per-worker busy (cell-simulation) time across
    /// workers with verified outputs. 1.0 is perfect balance; how close
    /// a run lands measures how well [`TaskPlan::shard`]'s predicted
    /// costs matched the measured ones.
    pub imbalance_ratio: f64,
    /// Cells missing from the result, with attribution.
    pub quarantined: Vec<QuarantinedCell>,
    /// Per-worker supervision summaries.
    pub workers: Vec<WorkerReport>,
}

/// What [`run`] hands back: the (possibly partial) campaign result plus
/// the manifest describing how it was obtained.
#[derive(Debug)]
pub struct OrchestrateOutcome {
    /// The assembled campaign result (every plan cell when complete;
    /// the recoverable subset, in grid order, when degraded).
    pub result: CampaignResult,
    /// The supervision record.
    pub manifest: CampaignManifest,
    /// Where the manifest was written (`<dir>/manifest.json`).
    pub manifest_path: PathBuf,
}

impl OrchestrateOutcome {
    /// True when the campaign completed with no quarantined cells.
    pub fn is_complete(&self) -> bool {
        self.manifest.complete
    }
}

/// Serializes and writes one shard output, applying the
/// `corrupt-shard-output` fault when armed — the single write path
/// shared by `sweep --shard` and the test worker, so fault injection
/// covers both.
///
/// # Errors
///
/// Returns a one-line message naming the path on serialization or write
/// failure.
pub fn write_shard_output(path: &Path, out: &ShardOutput) -> Result<(), String> {
    let text = serde_json::to_string_pretty(out)
        .map_err(|e| format!("shard output does not serialize: {e}"))?;
    let mut bytes = text.into_bytes();
    bytes.push(b'\n');
    fault::corrupt_shard_output(&mut bytes);
    std::fs::write(path, bytes)
        .file_ctx("write shard output", path)
        .map_err(|e| e.to_string())
}

/// One worker slot's supervision state.
enum Phase {
    /// Needs (re)launching.
    Idle,
    /// Alive; polled with `try_wait`.
    Running(Child),
    /// Dead; waiting out the restart backoff.
    Backoff(Instant),
    /// Shard output verified.
    Done(Box<ShardOutput>),
    /// Restart budget exhausted.
    Failed,
}

struct Worker {
    index: u32,
    shard: ShardSpec,
    paths: WorkerPaths,
    assigned: Vec<usize>,
    phase: Phase,
    restarts: u32,
    /// Quarantined cell keys (canonical hex), passed as `--skip-cells`.
    skip: Vec<String>,
    /// `(key, error)` for each quarantined cell, for attribution.
    quarantine_errors: Vec<(String, String)>,
    last_culprit: Option<String>,
    last_error: Option<String>,
}

impl Worker {
    fn skip_indices(&self, plan: &TaskPlan) -> HashSet<usize> {
        plan.cells
            .iter()
            .filter(|pc| self.skip.contains(&pc.key.hex()))
            .map(|pc| pc.index)
            .collect()
    }
}

/// Runs `plan` as an orchestrated campaign: `cfg.workers` supervised
/// shard workers launched via `launch`, restarted from their journals on
/// death, quarantining repeat-offender cells, merging on completion.
///
/// The launcher closure turns a [`WorkerLaunch`] into the [`Command`] to
/// spawn (typically `current_exe()` with `--shard i/N --json … --journal
/// … --resume` plus the campaign flags); the orchestrator itself
/// redirects the child's stdout/stderr to the worker log.
///
/// # Errors
///
/// Returns a message only for *supervisor-level* failures (scratch
/// directory unusable, manifest unwritable, or a merge inconsistency
/// that verification should have made impossible). Worker failures never
/// error: they degrade into a partial outcome with
/// [`OrchestrateOutcome::is_complete`] `== false`.
pub fn run(
    plan: &TaskPlan,
    cfg: &OrchestratorConfig,
    launch: &dyn Fn(&WorkerLaunch<'_>) -> Command,
) -> Result<OrchestrateOutcome, String> {
    std::fs::create_dir_all(&cfg.dir)
        .file_ctx("create orchestrator directory", &cfg.dir)
        .map_err(|e| e.to_string())?;

    let mut workers: Vec<Worker> = (0..cfg.workers)
        .map(|i| {
            let shard = ShardSpec::new(i, cfg.workers).expect("index < count by construction");
            let paths = WorkerPaths {
                journal: cfg.dir.join(format!("worker-{i}.journal.jsonl")),
                output: cfg.dir.join(format!("worker-{i}.shard.json")),
                log: cfg.dir.join(format!("worker-{i}.log")),
            };
            // A stale journal from a *different* campaign in this
            // scratch dir would make every incarnation die on resume
            // ("different campaign") — a guaranteed crash loop. Clear it
            // up front; same-campaign journals are kept (that is how
            // re-running the same orchestrate command resumes).
            if paths.journal.exists() && Journal::peek(&paths.journal, plan).is_err() {
                if !cfg.quiet {
                    eprintln!(
                        "[orchestrate] w{i}: discarding stale journal {} (different campaign)",
                        paths.journal.display()
                    );
                }
                let _ = std::fs::remove_file(&paths.journal);
            }
            Worker {
                index: i,
                shard,
                assigned: plan.shard(shard),
                paths,
                phase: Phase::Idle,
                restarts: 0,
                skip: Vec::new(),
                quarantine_errors: Vec::new(),
                last_culprit: None,
                last_error: None,
            }
        })
        .collect();

    let started = Instant::now();
    let mut fleet = FleetProgress::new(ProgressConfig::DEFAULT_INTERVAL_NS, 0);
    let mut next_sample = Instant::now();
    loop {
        let mut settled = true;
        for w in &mut workers {
            match &mut w.phase {
                Phase::Idle => {
                    settled = false;
                    spawn_worker(w, plan, cfg, launch);
                }
                Phase::Running(child) => {
                    settled = false;
                    match child.try_wait() {
                        Ok(Some(status)) => handle_exit(w, status, plan, cfg),
                        Ok(None) => {}
                        Err(e) => {
                            let _ = child.kill();
                            let _ = child.wait();
                            fail_attempt(w, format!("cannot poll worker: {e}"), None, cfg);
                        }
                    }
                }
                Phase::Backoff(until) => {
                    settled = false;
                    if Instant::now() >= *until {
                        w.phase = Phase::Idle;
                    }
                }
                Phase::Done(_) | Phase::Failed => {}
            }
        }
        if settled {
            break;
        }
        if !cfg.quiet && Instant::now() >= next_sample {
            next_sample = Instant::now() + Duration::from_millis(500);
            let samples = sample_fleet(&workers);
            let now_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            if let Some(line) = fleet.sample(now_ns, &samples) {
                eprintln!("{line}");
            }
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    if !cfg.quiet {
        eprintln!("{}", FleetProgress::render(&sample_fleet(&workers)));
    }

    assemble(plan, cfg, workers)
}

/// Launches the next incarnation of `w`, redirecting its output to the
/// worker log. A spawn failure consumes a restart like any other death.
fn spawn_worker(
    w: &mut Worker,
    plan: &TaskPlan,
    cfg: &OrchestratorConfig,
    launch: &dyn Fn(&WorkerLaunch<'_>) -> Command,
) {
    // A stale output from a previous incarnation (or a previous
    // orchestrate of the same campaign) must not be mistaken for this
    // incarnation's work.
    let _ = std::fs::remove_file(&w.paths.output);
    let spec = WorkerLaunch {
        worker: w.index,
        shard: w.shard,
        paths: &w.paths,
        skip: &w.skip,
        attempt: w.restarts,
    };
    let mut cmd = launch(&spec);
    let log = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&w.paths.log);
    match log.and_then(|f| f.try_clone().map(|g| (f, g))) {
        Ok((out, err)) => {
            cmd.stdout(Stdio::from(out)).stderr(Stdio::from(err));
        }
        Err(e) => {
            fail_attempt(w, format!("cannot open worker log: {e}"), None, cfg);
            return;
        }
    }
    cmd.stdin(Stdio::null());
    match cmd.spawn() {
        Ok(child) => {
            if !cfg.quiet {
                let what = if w.restarts == 0 {
                    "launched".to_string()
                } else {
                    format!("restarted (attempt {})", w.restarts + 1)
                };
                eprintln!(
                    "[orchestrate] w{} shard {}: {what}, {} cell(s) assigned{}",
                    w.index,
                    w.shard.display(),
                    w.assigned.len(),
                    if w.skip.is_empty() {
                        String::new()
                    } else {
                        format!(", skipping {} quarantined", w.skip.len())
                    }
                );
            }
            w.phase = Phase::Running(child);
        }
        Err(e) => fail_attempt(w, format!("cannot spawn worker: {e}"), None, cfg),
    }
    // Silence the unused warning for plan: kept in the signature so the
    // launch site has the plan available if future policies scope argv
    // per incarnation.
    let _ = plan;
}

/// Classifies a worker exit: success means exit-0 **and** a verified
/// output file; anything else is a failure attempt with a diagnosis
/// pulled from the worker log.
fn handle_exit(w: &mut Worker, status: ExitStatus, plan: &TaskPlan, cfg: &OrchestratorConfig) {
    let verified = if status.success() {
        verify_output(w, plan)
    } else {
        Err(format!("worker died ({status})"))
    };
    match verified {
        Ok(out) => {
            if !cfg.quiet {
                eprintln!(
                    "[orchestrate] w{} shard {}: completed {} cell(s) ({} resumed from journal)",
                    w.index,
                    w.shard.display(),
                    out.cells.len(),
                    out.resumed_cells
                );
            }
            w.phase = Phase::Done(Box::new(out));
        }
        Err(err) => {
            let diag = diagnose_log(&w.paths.log);
            let err = match &diag.detail {
                Some(line) => format!("{err} — {line}"),
                None => err,
            };
            fail_attempt(w, err, diag.culprit, cfg);
        }
    }
}

/// Verifies a successfully-exited worker's output file: parseable, same
/// plan, same shard coordinates, and covering exactly the assigned cells
/// minus quarantined ones. An exit code is an opinion; the output file
/// is the evidence.
fn verify_output(w: &Worker, plan: &TaskPlan) -> Result<ShardOutput, String> {
    let text = std::fs::read_to_string(&w.paths.output)
        .map_err(|e| format!("exited 0 but shard output is unreadable: {e}"))?;
    let out: ShardOutput = serde_json::from_str(&text)
        .map_err(|e| format!("exited 0 but shard output does not parse: {e}"))?;
    if out.fingerprint != plan.fingerprint() {
        return Err(format!(
            "shard output fingerprint {} does not match plan {}",
            out.fingerprint,
            plan.fingerprint()
        ));
    }
    if out.total_cells != plan.len() || out.speedups != plan.speedups {
        return Err("shard output disagrees with the plan shape".to_string());
    }
    if out.shard_index != w.shard.index || out.shard_count != w.shard.count {
        return Err(format!(
            "shard output claims shard {}/{} but this worker runs {}",
            out.shard_index + 1,
            out.shard_count,
            w.shard.display()
        ));
    }
    let covered: HashSet<usize> = out.cells.iter().map(|c| c.index).collect();
    let assigned: HashSet<usize> = w.assigned.iter().copied().collect();
    let skipped = w.skip_indices(plan);
    if let Some(&stray) = covered.iter().find(|i| !assigned.contains(i)) {
        return Err(format!("shard output claims unassigned cell {stray}"));
    }
    let missing: Vec<usize> = w
        .assigned
        .iter()
        .copied()
        .filter(|i| !covered.contains(i) && !skipped.contains(i))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "exited 0 but shard output covers {} of {} assigned cell(s); missing {:?}{}",
            covered.len(),
            assigned.len() - skipped.len(),
            &missing[..missing.len().min(8)],
            if missing.len() > 8 { ", ..." } else { "" }
        ));
    }
    Ok(out)
}

/// What a dead worker's log tail yields: the culprit cell key (the last
/// `key=<16 hex>` tag in the log — panic relabels and fault markers both
/// carry one) and the last diagnostic line for human consumption.
struct LogDiagnosis {
    culprit: Option<String>,
    detail: Option<String>,
}

fn diagnose_log(path: &Path) -> LogDiagnosis {
    let Ok(bytes) = std::fs::read(path) else {
        return LogDiagnosis {
            culprit: None,
            detail: None,
        };
    };
    let text = String::from_utf8_lossy(&bytes);
    let culprit = extract_last_key(&text);
    let detail = text
        .lines()
        .rev()
        .find(|l| l.contains("panicked") || l.contains("[fault]"))
        .map(|l| {
            let mut s = l.trim().to_string();
            if s.len() > 240 {
                s.truncate(240);
                s.push_str("...");
            }
            s
        });
    LogDiagnosis { culprit, detail }
}

/// Extracts the last `key=<16 hex>` occurrence in `text`.
fn extract_last_key(text: &str) -> Option<String> {
    let mut last = None;
    let mut rest = text;
    while let Some(at) = rest.find("key=") {
        let candidate = &rest[at + 4..];
        let hex: String = candidate
            .chars()
            .take_while(|c| c.is_ascii_hexdigit())
            .take(16)
            .collect();
        if hex.len() == 16 {
            last = Some(hex.to_ascii_lowercase());
        }
        rest = &rest[at + 4..];
    }
    last
}

/// Books one failed incarnation: quarantines the culprit cell when the
/// worker died on it twice in a row, then either schedules a restart
/// under exponential backoff or marks the worker failed once the budget
/// is spent.
fn fail_attempt(w: &mut Worker, err: String, culprit: Option<String>, cfg: &OrchestratorConfig) {
    if let Some(c) = &culprit {
        if w.last_culprit.as_deref() == Some(c.as_str()) && !w.skip.contains(c) {
            if !cfg.quiet {
                eprintln!(
                    "[orchestrate] w{}: cell key={c} killed two incarnations in a row; \
                     quarantining it",
                    w.index
                );
            }
            w.skip.push(c.clone());
            w.quarantine_errors.push((c.clone(), err.clone()));
        }
    }
    w.last_culprit = culprit;
    w.last_error = Some(err.clone());
    w.restarts += 1;
    if w.restarts > cfg.max_restarts {
        if !cfg.quiet {
            eprintln!(
                "[orchestrate] w{}: {err}; restart budget ({}) exhausted, giving up on this \
                 worker (its journal will be salvaged)",
                w.index, cfg.max_restarts
            );
        }
        w.phase = Phase::Failed;
        return;
    }
    let wait = backoff_ms(cfg.backoff_base_ms, cfg.backoff_cap_ms, w.restarts);
    if !cfg.quiet {
        eprintln!(
            "[orchestrate] w{}: {err}; restarting from journal in {wait} ms (restart {}/{})",
            w.index, w.restarts, cfg.max_restarts
        );
    }
    w.phase = Phase::Backoff(Instant::now() + Duration::from_millis(wait));
}

fn sample_fleet(workers: &[Worker]) -> Vec<WorkerSample> {
    workers
        .iter()
        .map(|w| {
            let (phase, done) = match &w.phase {
                Phase::Done(out) => (WorkerPhase::Done, out.cells.len()),
                Phase::Failed => (WorkerPhase::Failed, count_journal_cells(&w.paths.journal)),
                Phase::Backoff(_) => (
                    WorkerPhase::BackingOff,
                    count_journal_cells(&w.paths.journal),
                ),
                Phase::Idle | Phase::Running(_) => {
                    (WorkerPhase::Running, count_journal_cells(&w.paths.journal))
                }
            };
            WorkerSample {
                worker: w.index,
                done,
                total: w.assigned.len(),
                restarts: w.restarts,
                phase,
            }
        })
        .collect()
}

/// Durable cells in a worker journal, cheaply: terminated lines minus
/// the header. Progress sampling only — salvage uses [`Journal::peek`].
fn count_journal_cells(path: &Path) -> usize {
    match std::fs::read(path) {
        Ok(bytes) => bytes
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            .saturating_sub(1),
        Err(_) => 0,
    }
}

/// Assembles the final outcome: full merge when everything completed
/// clean, otherwise a partial result from verified outputs plus
/// journal salvage, with a manifest naming every missing cell.
fn assemble(
    plan: &TaskPlan,
    cfg: &OrchestratorConfig,
    workers: Vec<Worker>,
) -> Result<OrchestrateOutcome, String> {
    let total_restarts: u32 = workers.iter().map(|w| w.restarts).sum();
    let manifest_path = cfg.dir.join("manifest.json");
    // Partition-quality telemetry: how unevenly measured cell work
    // landed across the fleet (verified outputs only — a failed worker
    // has no trustworthy timing).
    let busy: Vec<u64> = workers
        .iter()
        .filter_map(|w| match &w.phase {
            Phase::Done(out) => Some(out.timing.cells_ns),
            _ => None,
        })
        .collect();
    let imbalance_ratio = imbalance_ratio(&busy);
    if !cfg.quiet && busy.len() > 1 {
        eprintln!(
            "[orchestrate] shard busy-time imbalance: {imbalance_ratio:.3}× (max/mean over {} \
             worker(s))",
            busy.len()
        );
    }
    let all_clean = workers
        .iter()
        .all(|w| matches!(w.phase, Phase::Done(_)) && w.skip.is_empty());

    if all_clean {
        let reports: Vec<WorkerReport> = workers.iter().map(|w| report_of(w, true)).collect();
        let outputs: Vec<ShardOutput> = workers
            .into_iter()
            .map(|w| match w.phase {
                Phase::Done(out) => *out,
                _ => unreachable!("all_clean checked above"),
            })
            .collect();
        let result = merge_shards(outputs)?;
        let manifest = CampaignManifest {
            fingerprint: plan.fingerprint().to_string(),
            complete: true,
            total_cells: plan.len(),
            completed_cells: result.cells.len(),
            total_restarts,
            imbalance_ratio,
            quarantined: Vec::new(),
            workers: reports,
        };
        write_manifest(&manifest_path, &manifest)?;
        return Ok(OrchestrateOutcome {
            result,
            manifest,
            manifest_path,
        });
    }

    // Degraded path: recover everything recoverable, name the rest.
    let mut slots: Vec<Option<IndexedCell>> = (0..plan.len()).map(|_| None).collect();
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
    let mut reports = Vec::new();
    let mut quarantined = Vec::new();
    for w in &workers {
        let mut recovered = 0usize;
        match &w.phase {
            Phase::Done(out) => {
                result.baseline_runs += out.baseline_runs;
                result.baseline_hits += out.baseline_hits;
                result.trace_generated += out.trace_generated;
                result.trace_memo_hits += out.trace_memo_hits;
                result.trace_disk_hits += out.trace_disk_hits;
                result.resumed_cells += out.resumed_cells;
                result.timing.absorb(&out.timing);
                for cell in &out.cells {
                    if let Some(slot) = slots.get_mut(cell.index) {
                        recovered += usize::from(slot.is_none());
                        *slot = Some(cell.clone());
                    }
                }
            }
            Phase::Failed => {
                // Journal salvage: the dead worker's durable completions
                // count as resumed — they were restored from its
                // checkpoint, not executed by anyone still alive.
                let salvaged = Journal::peek(&w.paths.journal, plan).unwrap_or_default();
                for cell in salvaged {
                    if w.assigned.contains(&cell.index) {
                        if let Some(slot) = slots.get_mut(cell.index) {
                            recovered += usize::from(slot.is_none());
                            *slot = Some(cell);
                        }
                    }
                }
                result.resumed_cells += recovered;
            }
            Phase::Idle | Phase::Running(_) | Phase::Backoff(_) => {
                unreachable!("supervision loop only exits when every worker settled")
            }
        }
        for &i in &w.assigned {
            if slots[i].is_some() {
                continue;
            }
            let key = plan.cells[i].key.hex();
            let error = w
                .quarantine_errors
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, e)| e.clone())
                .or_else(|| w.last_error.clone());
            quarantined.push(QuarantinedCell {
                index: i,
                key,
                cell: plan.cells[i].cell.describe(),
                worker: w.index,
                error,
            });
        }
        let completed = matches!(w.phase, Phase::Done(_));
        let mut report = report_of(w, completed);
        report.cells = recovered;
        reports.push(report);
    }
    quarantined.sort_by_key(|q| q.index);
    result.cells = slots
        .into_iter()
        .filter_map(|s| s.map(|c| c.result))
        .collect();
    let manifest = CampaignManifest {
        fingerprint: plan.fingerprint().to_string(),
        complete: false,
        total_cells: plan.len(),
        completed_cells: result.cells.len(),
        total_restarts,
        imbalance_ratio,
        quarantined,
        workers: reports,
    };
    write_manifest(&manifest_path, &manifest)?;
    Ok(OrchestrateOutcome {
        result,
        manifest,
        manifest_path,
    })
}

fn report_of(w: &Worker, completed: bool) -> WorkerReport {
    WorkerReport {
        worker: w.index,
        shard: w.shard.display(),
        restarts: w.restarts,
        completed,
        cells: match &w.phase {
            Phase::Done(out) => out.cells.len(),
            _ => 0,
        },
        busy_ns: match &w.phase {
            Phase::Done(out) => out.timing.cells_ns,
            _ => 0,
        },
        last_error: w.last_error.clone(),
    }
}

fn write_manifest(path: &Path, manifest: &CampaignManifest) -> Result<(), String> {
    let text = serde_json::to_string_pretty(manifest)
        .map_err(|e| format!("manifest does not serialize: {e}"))?;
    std::fs::write(path, text + "\n")
        .file_ctx("write manifest", path)
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(backoff_ms(250, 5_000, 1), 250);
        assert_eq!(backoff_ms(250, 5_000, 2), 500);
        assert_eq!(backoff_ms(250, 5_000, 3), 1_000);
        assert_eq!(backoff_ms(250, 5_000, 5), 4_000);
        assert_eq!(backoff_ms(250, 5_000, 6), 5_000, "cap");
        assert_eq!(backoff_ms(250, 5_000, 60), 5_000, "no shift overflow");
        assert_eq!(
            backoff_ms(10_000, 5_000, 1),
            10_000,
            "cap below base: base wins"
        );
    }

    #[test]
    fn culprit_extraction_takes_the_last_key() {
        let log = "freezing 2 artifacts\n\
                   [pool] worker panicked running Unison @ 512MB [key=00aabbccddeeff11] (item 3) \
                   after 1.2s: injected fault: poison cell key=ffeeddccbbaa9988\n";
        assert_eq!(
            extract_last_key(log).as_deref(),
            Some("ffeeddccbbaa9988"),
            "a panic payload carrying its own key outranks the pool label"
        );
        assert_eq!(extract_last_key("key=123 too short"), None);
        assert_eq!(extract_last_key("no tags at all"), None);
        assert_eq!(
            extract_last_key("[fault] crash-after-cells firing after cell key=0123456789ABCDEF"),
            Some("0123456789abcdef".to_string())
        );
    }

    /// A genuine panic in a cell that shares its trace artifact with an
    /// earlier cell must name that cell: the key extracted from the
    /// pool's panic message is the one the supervisor quarantines, so a
    /// neighbour's key there would quarantine a healthy cell and leave
    /// the faulty one killing workers.
    #[test]
    fn culprit_of_a_cell_panic_is_that_cell_not_its_trace_neighbour() {
        use crate::{Campaign, ScenarioGrid, TaskPlan};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use unison_sim::{Design, SimConfig};
        use unison_trace::workloads;

        // Zero ways trips an assertion inside the Unison constructor: a
        // real panic in the run hook, after Unison on the same trace
        // (equal predicted cost, so plan order decides who starts first).
        let grid = ScenarioGrid::new()
            .designs([Design::Unison, Design::UnisonAssoc(0)])
            .workloads([workloads::web_search()])
            .sizes([256 << 20]);
        let cfg = SimConfig::quick_test();
        let plan = TaskPlan::lower(&cfg, &grid, false);
        let faulty = plan
            .cells
            .iter()
            .find(|pc| pc.cell.design == Design::UnisonAssoc(0))
            .expect("the zero-way cell is planned");
        assert!(
            plan.cells
                .iter()
                .any(|pc| pc.prefill == faulty.prefill && pc.index < faulty.index),
            "the faulty cell must not be first in its trace group"
        );

        let payload = catch_unwind(AssertUnwindSafe(|| {
            Campaign::new(cfg).threads(1).run(&grid)
        }))
        .expect_err("a zero-way Unison cell must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the pool re-raises with a String payload");
        assert_eq!(
            extract_last_key(msg),
            Some(faulty.key.hex()),
            "culprit misattributed: {msg}"
        );
    }
}
