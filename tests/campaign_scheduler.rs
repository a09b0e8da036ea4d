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

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use unison_repro::harness::{
    merge_shards, write_shard_output, Campaign, CellResult, ScenarioGrid, ShardOutput, ShardSpec,
    TaskPlan,
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

/// Re-entrant worker: the SIGKILL test spawns this test binary as a
/// journaled shard worker process (`subprocess_worker_entry --exact`),
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
    // Like `sweep --shard I/N --journal J --resume`: the worker computes
    // its shard from the plan alone and restores what J already holds.
    let out = Campaign::new(tiny())
        .threads(2)
        .journal(&journal)
        .resume(true)
        .run_plan(&grid(), true, shard);
    write_shard_output(&out_path, &out).expect("write shard output");
    // Exit before libtest prints its summary: the parent test reads the
    // exit status and the output file, nothing else.
    std::process::exit(0);
}

fn canonical_json(cells: &[CellResult]) -> String {
    serde_json::to_string(cells).expect("cells serialize")
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
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .stdin(Stdio::null());
        cmd.spawn().expect("spawn worker")
    };

    // Run a real worker process and SIGKILL it once at least one cell is
    // durable: the raw kill -9 path.
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
