//! Tier-1 acceptance tests for the planner/scheduler campaign
//! architecture: a sharded campaign, merged, must be **bit-identical**
//! to the single-process run, and a campaign resumed after a kill must
//! be **bit-identical** to an uninterrupted one. Both properties go
//! through the real serialization path (JSON files on disk), so the
//! serde round-trip of `CellResult` is pinned too.
//!
//! Cells carry per-cell `wall_ns` telemetry, which is observability —
//! never identity: two runs of the same plan read different clocks, so
//! every byte-compare here serializes `CampaignResult::canonical_cells`
//! (timing stripped). That the timing is *present* in journals and
//! results is pinned separately.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use unison_repro::harness::fault::{FAULT_ENV, FAULT_ONCE_ENV};
use unison_repro::harness::{
    merge_shards, orchestrator, Campaign, CellKey, CellResult, OrchestratorConfig, ScenarioGrid,
    ShardOutput, ShardSpec, TaskPlan, WorkerLaunch,
};
use unison_repro::sim::{Design, Scenario, SimConfig, SystemSpec};
use unison_repro::trace::workloads;

/// A configuration even smaller than `quick_test`, for grid-shaped tests
/// that run dozens of cells.
fn tiny() -> SimConfig {
    let mut cfg = SimConfig::quick_test();
    cfg.accesses = 30_000;
    cfg.scale = 256;
    cfg
}

/// A grid exercising every axis the planner keys on: two designs, two
/// workloads, two sizes, and a non-default scenario.
fn grid() -> ScenarioGrid {
    ScenarioGrid::new()
        .designs([Design::Unison, Design::Alloy])
        .workloads([workloads::web_search(), workloads::data_serving()])
        .sizes([128 << 20, 512 << 20])
        .scenarios([
            Scenario::default(),
            Scenario::from_spec(SystemSpec {
                cores: Some(4),
                ..SystemSpec::default()
            }),
        ])
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "unison-scheduler-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn two_shards_merged_are_bit_identical_to_the_unsharded_run() {
    let g = grid();
    let unsharded = Campaign::new(tiny()).threads(4).run_speedups(&g);
    assert_eq!(unsharded.cells().len(), 16);

    let dir = scratch("shard-merge");
    let mut files = Vec::new();
    for i in 0..2u32 {
        let out =
            Campaign::new(tiny())
                .threads(2)
                .run_plan(&g, true, ShardSpec::new(i, 2).unwrap());
        assert_eq!(out.total_cells, 16);
        assert!(
            !out.cells.is_empty() && out.cells.len() < 16,
            "a 2-way split of 16 cells should give each shard some work, \
             got {} cells in shard {i}",
            out.cells.len()
        );
        // Through the real file format, like a multi-machine run.
        let path = dir.join(format!("shard-{i}.json"));
        std::fs::write(&path, serde_json::to_string_pretty(&out).unwrap()).unwrap();
        files.push(path);
    }

    let outputs: Vec<ShardOutput> = files
        .iter()
        .map(|p| serde_json::from_str(&std::fs::read_to_string(p).unwrap()).unwrap())
        .collect();
    assert_eq!(
        outputs.iter().map(|o| o.cells.len()).sum::<usize>(),
        16,
        "shards must partition the grid"
    );
    let merged = merge_shards(outputs).expect("complete partition merges");

    assert_eq!(
        serde_json::to_string(&merged.canonical_cells()).unwrap(),
        serde_json::to_string(&unsharded.canonical_cells()).unwrap(),
        "merged shard campaign diverged from the single-process run"
    );
    // Timing rides along without perturbing identity: the executed
    // cells carry real wall times and the merged timing block sums the
    // shards' phases.
    assert!(
        merged.cells.iter().all(|c| c.wall_ns > 0),
        "merged cells must keep their per-cell wall times"
    );
    assert!(
        merged.timing.cells_ns > 0,
        "shard timing must survive merge"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_kill_is_bit_identical_to_an_uninterrupted_run() {
    let g = ScenarioGrid::new()
        .designs([Design::Unison, Design::Ideal])
        .workloads([workloads::web_search(), workloads::data_serving()])
        .sizes([128 << 20, 512 << 20]);
    let uninterrupted = Campaign::new(tiny()).threads(4).run_speedups(&g);
    assert_eq!(uninterrupted.cells().len(), 8);
    assert_eq!(uninterrupted.resumed_cells, 0);

    let dir = scratch("resume");
    let path = dir.join("campaign.jsonl");

    // First run, journaled to completion...
    let first = Campaign::new(tiny())
        .threads(2)
        .journal(&path)
        .run_speedups(&g);
    assert_eq!(
        serde_json::to_string(&first.canonical_cells()).unwrap(),
        serde_json::to_string(&uninterrupted.canonical_cells()).unwrap(),
        "journaling must not change results"
    );

    // ...then "killed": keep the header, three completed entries, and a
    // torn partial line (the append a kill interrupted).
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains("\"wall_ns\""),
        "journal entries must record per-cell wall time"
    );
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + 8, "header + one line per cell");
    let torn = format!(
        "{}\n{}\n{}\n{}\n{}",
        lines[0],
        lines[1],
        lines[2],
        lines[3],
        &lines[4][..lines[4].len() / 2]
    );
    std::fs::write(&path, torn).unwrap();

    let resumed = Campaign::new(tiny())
        .threads(2)
        .journal(&path)
        .resume(true)
        .run_speedups(&g);
    assert_eq!(
        resumed.resumed_cells, 3,
        "three journaled cells restored, the torn one re-run"
    );
    assert_eq!(
        serde_json::to_string(&resumed.canonical_cells()).unwrap(),
        serde_json::to_string(&uninterrupted.canonical_cells()).unwrap(),
        "resumed campaign diverged from the uninterrupted run"
    );

    // The journal is now complete again: a second resume restores
    // everything and simulates nothing.
    let rerun = Campaign::new(tiny())
        .threads(2)
        .journal(&path)
        .resume(true)
        .run_speedups(&g);
    assert_eq!(rerun.resumed_cells, 8);
    assert_eq!(rerun.baseline_runs, 0, "nothing left to simulate");
    assert_eq!(
        serde_json::to_string(&rerun.canonical_cells()).unwrap(),
        serde_json::to_string(&uninterrupted.canonical_cells()).unwrap()
    );
    // The restored cells are the journaled bytes: each still carries the
    // wall time the original run recorded.
    assert!(rerun.cells.iter().all(|c| c.wall_ns > 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_journal_from_a_different_campaign() {
    let dir = scratch("foreign");
    let path = dir.join("campaign.jsonl");
    let g = ScenarioGrid::new()
        .designs([Design::Ideal])
        .workloads([workloads::web_search()])
        .sizes([128 << 20]);
    Campaign::new(tiny()).threads(1).journal(&path).run(&g);

    // Same journal, different seed => different plan fingerprint.
    let mut other = tiny();
    other.seed = 7;
    let result = std::panic::catch_unwind(|| {
        Campaign::new(other)
            .threads(1)
            .journal(&path)
            .resume(true)
            .run(&g)
    });
    let err = result.expect_err("foreign journal must be refused");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("different campaign"),
        "refusal must say why: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plans_are_deterministic_across_processes_in_spirit() {
    // Re-lowering the same grid yields the same fingerprint, keys and
    // shards — the property `--merge` uses to verify foreign shard
    // files, and what makes `--shard I/N` on N machines a true
    // partition.
    let cfg = tiny();
    let g = grid();
    let a = TaskPlan::lower(&cfg, &g, true);
    let b = TaskPlan::lower(&cfg, &g, true);
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.len(), 16);
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.key, y.key);
        assert_eq!(x.index, y.index);
    }
    // Shard membership is a pure function of the plan.
    for count in [1u32, 2, 4] {
        for index in 0..count {
            let shard = ShardSpec::new(index, count).unwrap();
            assert_eq!(a.shard(shard), b.shard(shard), "shard {}", shard.display());
        }
    }
}

/// Re-entrant worker: the orchestrator tests spawn this test binary as
/// their shard worker processes (`subprocess_worker_entry --exact`),
/// steered by env vars. Without `UNISON_TEST_WORKER` set it is a no-op,
/// so a plain `cargo test` run skips straight past it.
#[test]
fn subprocess_worker_entry() {
    if std::env::var("UNISON_TEST_WORKER").is_err() {
        return;
    }
    let shard = ShardSpec::parse(&std::env::var("UNISON_TEST_SHARD").expect("shard env"))
        .expect("valid shard spec");
    let journal = PathBuf::from(std::env::var("UNISON_TEST_JOURNAL").expect("journal env"));
    let out_path = PathBuf::from(std::env::var("UNISON_TEST_OUT").expect("out env"));
    let mut campaign = Campaign::new(tiny())
        .threads(2)
        .journal(&journal)
        .resume(true);
    if let Ok(skip) = std::env::var("UNISON_TEST_SKIP") {
        let keys: Vec<CellKey> = skip
            .split(',')
            .filter(|k| !k.is_empty())
            .map(|k| CellKey::from_hex(k).expect("valid skip key"))
            .collect();
        campaign = campaign.exclude(keys);
    }
    // Like `sweep --shard I/N`: the worker recomputes its shard from
    // the plan alone. Had it diverged from the parent's, the
    // orchestrator's coverage verification would reject the output.
    let out = campaign.run_plan(&grid(), true, shard);
    orchestrator::write_shard_output(&out_path, &out).expect("write shard output");
    // Exit before libtest prints its summary: the orchestrator reads the
    // exit status and the output file, nothing else.
    std::process::exit(0);
}

/// The launch closure the orchestrator tests share: re-enter this test
/// binary as the worker, layering per-worker fault env vars on top.
fn test_launcher(
    faults: HashMap<u32, Vec<(String, String)>>,
) -> impl Fn(&WorkerLaunch<'_>) -> Command {
    move |l| {
        let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
        cmd.args(["subprocess_worker_entry", "--exact", "--nocapture"]);
        cmd.env("UNISON_TEST_WORKER", "1")
            .env("UNISON_TEST_SHARD", l.shard.display())
            .env("UNISON_TEST_JOURNAL", &l.paths.journal)
            .env("UNISON_TEST_OUT", &l.paths.output)
            .env("UNISON_TEST_SKIP", l.skip.join(","))
            .env_remove(FAULT_ENV)
            .env_remove(FAULT_ONCE_ENV);
        for (k, v) in faults.get(&l.worker).into_iter().flatten() {
            cmd.env(k, v);
        }
        cmd
    }
}

fn canonical_json(cells: &[CellResult]) -> String {
    serde_json::to_string(cells).expect("cells serialize")
}

/// A fast supervision policy for tests: real restarts, token backoff.
fn test_orchestrator_config(workers: u32, dir: PathBuf) -> OrchestratorConfig {
    let mut cfg = OrchestratorConfig::new(workers, dir);
    cfg.backoff_base_ms = 10;
    cfg.backoff_cap_ms = 50;
    cfg.quiet = true;
    cfg
}

#[test]
fn orchestrated_run_with_two_injected_crashes_is_bit_identical() {
    let g = grid();
    let uninterrupted = Campaign::new(tiny()).threads(4).run_speedups(&g);
    let plan = TaskPlan::lower(&tiny(), &g, true);
    // The workers run the plan's cost-balanced shards, which each worker
    // recomputes on its own side; a divergence would fail coverage
    // verification.
    let n0 = plan.shard(ShardSpec::new(0, 2).unwrap()).len();
    let n1 = plan.len() - n0;
    assert!(
        n0 >= 1 && n1 >= 2,
        "grid reshuffle broke the fault preconditions: shard sizes {n0}/{n1}"
    );

    let dir = scratch("orchestrate-crashes");
    let m0 = dir.join("marker-w0");
    let m1 = dir.join("marker-w1");
    // Worker 0 hard-aborts right after journaling its first cell; worker
    // 1 dies mid-append, leaving a torn journal line. Each fault fires
    // exactly once (marker files), so the restarted incarnations finish.
    let faults = HashMap::from([
        (
            0u32,
            vec![
                (FAULT_ENV.to_string(), "crash-after-cells:1".to_string()),
                (FAULT_ONCE_ENV.to_string(), m0.display().to_string()),
            ],
        ),
        (
            1u32,
            vec![
                (FAULT_ENV.to_string(), "torn-journal:2".to_string()),
                (FAULT_ONCE_ENV.to_string(), m1.display().to_string()),
            ],
        ),
    ]);
    let cfg = test_orchestrator_config(2, dir.join("scratch"));
    let outcome =
        orchestrator::run(&plan, &cfg, &test_launcher(faults)).expect("orchestrator runs");

    assert!(m0.exists(), "crash-after-cells fault must have fired");
    assert!(m1.exists(), "torn-journal fault must have fired");
    assert!(
        outcome.is_complete(),
        "both workers must recover: {:?}",
        outcome.manifest
    );
    assert_eq!(
        outcome.manifest.total_restarts, 2,
        "each injected crash costs exactly one restart"
    );
    assert_eq!(
        outcome.result.resumed_cells, 2,
        "each restarted worker restores its one durable cell from its journal"
    );
    assert!(
        outcome.manifest.imbalance_ratio >= 1.0,
        "two busy workers must yield a measured imbalance ratio, got {}",
        outcome.manifest.imbalance_ratio
    );
    assert_eq!(
        canonical_json(&outcome.result.canonical_cells()),
        canonical_json(&uninterrupted.canonical_cells()),
        "orchestrated campaign with two injected crashes diverged from the \
         uninterrupted single-process run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restarted worker's busy time counts every cell it delivered: the
/// cell its first incarnation simulated and journaled before crashing
/// is restored, not re-run, by the second, and its journaled `wall_ns`
/// still counts toward the worker's `busy_ns`.
#[test]
fn crashed_worker_busy_time_counts_its_restored_cell() {
    let g = grid();
    let plan = TaskPlan::lower(&tiny(), &g, true);
    let dir = scratch("orchestrate-busy");
    let marker = dir.join("marker-w0");
    let faults = HashMap::from([(
        0u32,
        vec![
            (FAULT_ENV.to_string(), "crash-after-cells:1".to_string()),
            (FAULT_ONCE_ENV.to_string(), marker.display().to_string()),
        ],
    )]);
    let cfg = test_orchestrator_config(2, dir.join("scratch"));
    let outcome =
        orchestrator::run(&plan, &cfg, &test_launcher(faults)).expect("orchestrator runs");
    assert!(marker.exists(), "crash-after-cells fault must have fired");
    assert!(outcome.is_complete(), "{:?}", outcome.manifest);
    assert_eq!(outcome.result.resumed_cells, 1, "one cell restored");

    // Every delivered cell carries its own simulation time, and each
    // worker's busy time is the sum over the cells of its shard.
    let cells = &outcome.result.cells;
    assert!(cells.iter().all(|c| c.wall_ns > 0), "cells must be timed");
    for report in &outcome.manifest.workers {
        let shard = plan.shard(ShardSpec::new(report.worker, 2).unwrap());
        let delivered: u64 = shard.iter().map(|&i| cells[i].wall_ns).sum();
        assert_eq!(
            report.busy_ns, delivered,
            "worker {} (restarts {}): busy time must count every delivered cell",
            report.worker, report.restarts
        );
    }
    assert_eq!(outcome.manifest.workers[0].restarts, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_exceeding_restart_budget_yields_partial_manifest() {
    let g = grid();
    let full = Campaign::new(tiny()).threads(4).run_speedups(&g);
    let plan = TaskPlan::lower(&tiny(), &g, true);

    let dir = scratch("orchestrate-budget");
    // No once-marker: the fault fires in EVERY incarnation, one new
    // journaled cell each, so a budget of 1 restart dies after two.
    let faults = HashMap::from([(
        0u32,
        vec![(FAULT_ENV.to_string(), "crash-after-cells:1".to_string())],
    )]);
    let mut cfg = test_orchestrator_config(1, dir.join("scratch"));
    cfg.max_restarts = 1;
    let outcome =
        orchestrator::run(&plan, &cfg, &test_launcher(faults)).expect("degrades, not errors");

    assert!(!outcome.is_complete(), "budget exhaustion must degrade");
    let m = &outcome.manifest;
    assert_eq!(m.total_restarts, 2, "initial launch + 1 restart, both die");
    assert_eq!(
        m.completed_cells, 2,
        "each incarnation journaled exactly one cell before dying"
    );
    assert_eq!(
        outcome.result.resumed_cells, 2,
        "the dead worker's durable cells are salvaged from its journal"
    );
    assert_eq!(m.quarantined.len(), plan.len() - 2);
    assert!(!m.workers[0].completed);
    let err = m.quarantined[0]
        .error
        .as_deref()
        .expect("quarantined cells carry the failure");
    assert!(
        err.contains("crash-after-cells") || err.contains("died"),
        "error must name the failure: {err}"
    );
    // The manifest landed on disk as valid JSON.
    let manifest_text = std::fs::read_to_string(&outcome.manifest_path).expect("manifest written");
    assert!(manifest_text.contains("\"complete\": false"));

    // What WAS salvaged is bit-identical to the same cells of a full run.
    let missing: HashSet<usize> = m.quarantined.iter().map(|q| q.index).collect();
    let full_cc = full.canonical_cells();
    let expect: Vec<CellResult> = (0..plan.len())
        .filter(|i| !missing.contains(i))
        .map(|i| full_cc[i].clone())
        .collect();
    assert_eq!(
        canonical_json(&outcome.result.canonical_cells()),
        canonical_json(&expect),
        "salvaged cells diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn poison_cell_is_quarantined_and_the_rest_completes() {
    let g = grid();
    let full = Campaign::new(tiny()).threads(4).run_speedups(&g);
    let plan = TaskPlan::lower(&tiny(), &g, true);
    let poison = plan.cells[0].key.hex();

    let dir = scratch("orchestrate-poison");
    // No once-marker: the poison cell panics the worker in every
    // incarnation that attempts it, so the second consecutive death on
    // the same key triggers quarantine and the third incarnation
    // (launched with --skip-cells semantics) completes the rest.
    let faults = HashMap::from([(
        0u32,
        vec![(FAULT_ENV.to_string(), format!("panic-on-cell:{poison}"))],
    )]);
    let cfg = test_orchestrator_config(1, dir.join("scratch"));
    let outcome =
        orchestrator::run(&plan, &cfg, &test_launcher(faults)).expect("degrades, not errors");

    assert!(!outcome.is_complete());
    let m = &outcome.manifest;
    assert_eq!(
        m.quarantined.len(),
        1,
        "exactly the poison cell is lost: {:?}",
        m.quarantined
    );
    assert_eq!(m.quarantined[0].key, poison);
    assert_eq!(m.quarantined[0].index, 0);
    let err = m.quarantined[0].error.as_deref().unwrap_or_default();
    assert!(
        err.contains("poison"),
        "quarantine error must carry the panic diagnosis: {err}"
    );
    assert_eq!(
        m.total_restarts, 2,
        "two deaths on the same cell, then quarantine"
    );
    assert_eq!(outcome.result.cells.len(), plan.len() - 1);

    // Everything else matches the uninterrupted run bit-for-bit.
    let full_cc = full.canonical_cells();
    let expect: Vec<CellResult> = (1..plan.len()).map(|i| full_cc[i].clone()).collect();
    assert_eq!(
        canonical_json(&outcome.result.canonical_cells()),
        canonical_json(&expect),
        "quarantine must not perturb the surviving cells"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigkill_mid_campaign_resumes_bit_identically() {
    let g = grid();
    let uninterrupted = Campaign::new(tiny()).threads(4).run_speedups(&g);

    let dir = scratch("sigkill");
    let journal = dir.join("worker.journal.jsonl");
    let out_path = dir.join("worker.shard.json");
    let spawn = || {
        let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
        cmd.args(["subprocess_worker_entry", "--exact", "--nocapture"])
            .env("UNISON_TEST_WORKER", "1")
            .env("UNISON_TEST_SHARD", "1/1")
            .env("UNISON_TEST_JOURNAL", &journal)
            .env("UNISON_TEST_OUT", &out_path)
            .env_remove(FAULT_ENV)
            .env_remove(FAULT_ONCE_ENV)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .stdin(Stdio::null());
        cmd.spawn().expect("spawn worker")
    };

    // Run a real worker process and SIGKILL it once at least one cell is
    // durable (no fault injection — the raw kill -9 path).
    let mut child = spawn();
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let journaled = std::fs::read(&journal)
            .map(|b| b.iter().filter(|&&c| c == b'\n').count())
            .unwrap_or(0);
        if journaled >= 2 {
            break; // header + at least one durable cell
        }
        if child.try_wait().expect("poll worker").is_some() {
            break; // finished before we got to kill it — still a valid run
        }
        assert!(Instant::now() < deadline, "worker made no progress");
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    let _ = child.wait();

    // Restart from the journal; the torn tail (if the kill landed
    // mid-append) is truncated, durable cells are restored.
    let status = spawn().wait().expect("await restarted worker");
    assert!(status.success(), "restarted worker must finish: {status}");
    let out: ShardOutput =
        serde_json::from_str(&std::fs::read_to_string(&out_path).expect("shard output"))
            .expect("shard output parses");
    let merged = merge_shards(vec![out]).expect("1/1 shard covers the plan");
    assert_eq!(
        canonical_json(&merged.canonical_cells()),
        canonical_json(&uninterrupted.canonical_cells()),
        "campaign killed with SIGKILL and resumed diverged from the \
         uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_runs_compute_only_their_own_dependencies() {
    // One workload appears only in cells of one shard half; the other
    // shard must not simulate its baseline or freeze its trace.
    let g = ScenarioGrid::new()
        .designs([Design::Unison, Design::Ideal])
        .workloads([workloads::web_search(), workloads::data_serving()])
        .sizes([128 << 20, 512 << 20]);
    let full = Campaign::new(tiny()).threads(2).run_speedups(&g);
    let total_baselines = full.baseline_runs;
    assert_eq!(total_baselines, 2);

    let mut shard_baselines = 0;
    for i in 0..4u32 {
        let out =
            Campaign::new(tiny())
                .threads(2)
                .run_plan(&g, true, ShardSpec::new(i, 4).unwrap());
        // A shard needs at most one baseline per workload it touches.
        let touched: std::collections::HashSet<&str> = out
            .cells
            .iter()
            .map(|c| c.result.run.workload.as_str())
            .collect();
        assert!(
            out.baseline_runs <= touched.len(),
            "shard {i} simulated {} baselines for {} workloads",
            out.baseline_runs,
            touched.len()
        );
        shard_baselines += out.baseline_runs;
    }
    assert!(shard_baselines >= total_baselines);
}
