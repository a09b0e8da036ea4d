//! `bench-report`: roll the repo's performance story into one
//! machine-readable JSON artifact.
//!
//! ```sh
//! cargo run --release -p unison-bench --bin bench-report -- \
//!     --label v6 --scale 16 --threads 8
//! ```
//!
//! The report combines two views of the same codebase:
//!
//! * **Microbenchmarks** — wall-clock nanoseconds per operation for the
//!   hot paths the criterion suite tracks interactively: the SoA
//!   metadata probe/touch walk, trace-artifact replay, and raw workload
//!   generation. These are quick inline loops (not criterion), sized to
//!   settle in well under a second each.
//! * **Campaign timing** — a small headline campaign (four designs, two
//!   workloads, 512 MB) run under the harness telemetry layer: phase
//!   breakdown, per-design mean cell time and throughput, and the
//!   geomean speedups the cells produced (so a perf regression that
//!   changes *results* is visible next to one that changes *speed*).
//!
//! The campaign runs under cost-model LPT scheduling (longest cells
//! first, ordered by the structural prior) and the report's
//! `scheduling` block compares the blind `key % N` shard split against
//! the cost-balanced partition on the measured cell times.
//!
//! The output lands in `BENCH_<label>.json` (override with `--out`).
//! Checked-in snapshots of this file form the repo's perf trajectory:
//! compare two snapshots field-by-field to see what a change cost —
//! the report prints headline deltas against the previous snapshot
//! (the existing `--out` file, or `BENCH_v<n-1>.json` for `v<n>`
//! labels) when one is present. Timings are wall-clock and
//! machine-dependent — compare snapshots from the same machine class,
//! or lean on the dimensionless ratios.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Serialize, Value};
use unison_bench::{BenchOpts, Table};
use unison_core::{MetaStore, PageMeta, Replacement};
use unison_harness::costs::{bin_loads, imbalance_ratio};
use unison_harness::telemetry::fmt_ns;
use unison_harness::{stats, CostModel, ScenarioGrid, TaskPlan};
use unison_sim::Design;
use unison_trace::{workloads, TraceArtifact, WorkloadGen};

/// Bumped when the report layout changes shape (fields added are not a
/// bump; fields renamed or reinterpreted are). v2: campaign
/// `cells_per_sec` switched denominators from end-to-end wall time to
/// the cells phase alone (making it comparable with the per-design
/// rates, which were already cell-time-based); the old end-to-end view
/// moved to the new `cells_per_sec_end_to_end`. v3: campaign timings
/// are now measured under cost-model LPT scheduling (structural prior,
/// longest cells first) instead of grid order — timing fields are not
/// comparable with v2 snapshots — and the new `campaign.scheduling`
/// block records how the measured cell costs would split across shard
/// workers (blind key-hash vs balanced LPT partition). v4: new
/// `microbench.calibration_ns` machine-speed reference (a fixed-work
/// integer loop, independent of any simulator code); snapshots whose
/// calibrations differ by more than ~10% ran on differently-clocked
/// machines and their wall-clock deltas are not comparable.
const SCHEMA_VERSION: u32 = 4;

/// The complete report document (`BENCH_<label>.json`).
#[derive(Debug, Serialize)]
struct BenchReport {
    schema_version: u32,
    label: String,
    config: ReportConfig,
    microbench: Microbench,
    campaign: CampaignReport,
}

/// The knobs that shaped this snapshot — two reports are only
/// comparable when these match.
#[derive(Debug, Serialize)]
struct ReportConfig {
    scale: u64,
    accesses: u64,
    seed: u64,
    threads: usize,
    quick: bool,
}

/// Nanoseconds per operation for the hot inner loops.
#[derive(Debug, Serialize)]
struct Microbench {
    /// SoA metadata probe + touch (the per-access walk of every design).
    probe_ns_per_op: f64,
    /// Replaying one record from a frozen trace artifact.
    replay_ns_per_record: f64,
    /// Generating one record from scratch (what replay amortizes away).
    generate_ns_per_record: f64,
    /// Machine-speed calibration: wall time of a fixed-work serial
    /// integer loop that never changes with the codebase. Two snapshots
    /// are speed-comparable only when their calibrations agree (±10%) —
    /// the v8→v9 probe "regression" was a slower machine, and this field
    /// is what tells that apart from a real one.
    calibration_ns: f64,
}

/// The calibration loop: a serial dependent chain of integer ops (mul,
/// rotate, xor) long enough to settle (~10 ms class), run three times
/// taking the best, so one descheduling blip doesn't skew it. The work
/// is fixed forever — changing it invalidates cross-snapshot
/// comparisons and requires a schema bump.
fn bench_calibration() -> f64 {
    const ITERS: u64 = 16_000_000;
    let mut best = f64::INFINITY;
    for round in 0..3u64 {
        let start = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_add(round);
        for i in 0..ITERS {
            x = x.wrapping_mul(0x2545_f491_4f6c_dd1d).rotate_left(23) ^ i;
        }
        black_box(x);
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Telemetry of the headline campaign.
#[derive(Debug, Serialize)]
struct CampaignReport {
    cells: usize,
    /// End-to-end campaign wall time and its phase breakdown.
    wall_ns: u64,
    trace_prefill_ns: u64,
    baseline_ns: u64,
    cells_ns: u64,
    /// Mean per-cell compute time across every cell.
    cell_wall_ns_mean: u64,
    /// Completed cells per second of the **cells phase** (`cells_ns`) —
    /// simulation throughput across the pool, the denominator the
    /// per-design rates also use, so the numbers are comparable.
    cells_per_sec: f64,
    /// Completed cells per second of **end-to-end** campaign wall time
    /// (`wall_ns`, including trace-prefill and baseline phases) — what
    /// a user actually waits for. Always ≤ `cells_per_sec`.
    cells_per_sec_end_to_end: f64,
    scheduling: SchedulingReport,
    designs: Vec<DesignReport>,
}

/// Cost-model scheduling telemetry: how this campaign's *measured*
/// per-cell wall times would split across shard workers under the two
/// partition strategies `sweep` offers, plus how well the structural
/// prior (what a first-ever run schedules on) predicted those times.
#[derive(Debug, Serialize)]
struct SchedulingReport {
    /// Simulated shard-worker count: the report's thread count, floored
    /// at 2 so the comparison is never vacuous.
    workers: u32,
    /// Max/mean worker busy time under the blind `key % N` partition.
    imbalance_blind: f64,
    /// Max/mean worker busy time under cost-model LPT bin-packing (the
    /// `sweep --partition balanced` split, here fed the costs learned
    /// from this very run), on the same measured wall times.
    imbalance_balanced: f64,
    /// Mean relative error of the structural prior vs measured wall
    /// time, over all cells: `mean(|prior - actual| / actual)`.
    prior_cost_error: f64,
}

/// One design's slice of the campaign.
#[derive(Debug, Serialize)]
struct DesignReport {
    design: String,
    cells: usize,
    mean_cell_ns: u64,
    /// Single-thread throughput implied by the mean cell time (cell
    /// compute time only, the same denominator family as the campaign
    /// `cells_per_sec`).
    cells_per_sec: f64,
    /// Geomean speedup over NoCache across the campaign's workloads —
    /// the *result* the timing paid for.
    geomean_speedup: Option<f64>,
}

/// Times `iters` repetitions of `op` and returns nanoseconds per call.
fn ns_per_op<T>(iters: u64, mut op: impl FnMut(u64) -> T) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        black_box(op(i));
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The SoA probe/touch walk, mirroring the criterion `meta` group but
/// sized to finish fast: the geometry is smaller, the scattered set
/// stride is the same.
fn bench_probe(quick: bool) -> f64 {
    let sets: u64 = if quick { 1 << 12 } else { 1 << 16 };
    let ways: u32 = 4;
    let mut store = MetaStore::paged(sets, ways, Replacement::AgingLru);
    for set in 0..sets {
        for w in 0..ways {
            store.install(
                set,
                w,
                PageMeta {
                    tag: u64::from(w) * 3 + (set % 5),
                    present: 0x7ff,
                    demanded: 0x0f1,
                    dirty: 0x011,
                    predicted: 0x7ff,
                    pc: 0x400 + set,
                    offset: (set % 15) as u8,
                },
            );
            store.touch(set, w, 0);
        }
    }
    let iters = if quick { 200_000 } else { 2_000_000 };
    ns_per_op(iters, |i| {
        let set = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % sets;
        let found = store.probe_set(set, i % 16);
        if let Some(w) = found {
            store.touch(set, w, 0);
        }
        found
    })
}

/// Replay throughput of a frozen artifact (wrap-around, zero-alloc).
fn bench_replay(quick: bool) -> f64 {
    let len: u64 = if quick { 100_000 } else { 1_000_000 };
    let artifact = TraceArtifact::freeze(&workloads::tpch().scaled(8), 3, len);
    let mut replay = artifact.replay();
    ns_per_op(2 * len, |_| match replay.next() {
        Some(r) => Some(r),
        None => {
            replay = artifact.replay();
            replay.next()
        }
    })
}

/// Generation throughput of the same stream replay freezes.
fn bench_generate(quick: bool) -> f64 {
    let iters = if quick { 100_000 } else { 1_000_000 };
    let mut gen = WorkloadGen::new(workloads::tpch().scaled(8), 3);
    ns_per_op(iters, |_| gen.next())
}

/// The headline campaign: the four figure-7 designs on two contrasting
/// workloads at the paper's default 512 MB point.
fn run_campaign(opts: &BenchOpts) -> CampaignReport {
    let grid_workloads = [workloads::web_search(), workloads::tpch()];
    let designs = [
        Design::Alloy,
        Design::Footprint,
        Design::Unison,
        Design::Ideal,
    ];
    let size = 512u64 << 20;
    let grid = ScenarioGrid::new()
        .designs(designs)
        .workloads(grid_workloads.clone())
        .sizes([size]);
    // An empty model schedules on the structural prior, so the campaign
    // runs its long cells (Unison) first — the same longest-first order
    // a first-ever `sweep --costs` run uses.
    let results = opts.campaign().costs(CostModel::new()).run_speedups(&grid);
    let summary = results.summary();

    let mut per_design = Vec::new();
    for d in designs {
        let name = d.name();
        let cells: Vec<_> = results
            .cells()
            .iter()
            .filter(|c| c.design() == name)
            .collect();
        let wall: Vec<f64> = cells.iter().map(|c| c.wall_ns as f64).collect();
        let mean = stats::mean(&wall).unwrap_or(0.0);
        per_design.push(DesignReport {
            design: name.clone(),
            cells: cells.len(),
            mean_cell_ns: mean as u64,
            cells_per_sec: if mean > 0.0 { 1e9 / mean } else { 0.0 },
            geomean_speedup: results.geomean_speedup_in_scenario("default", &name, size),
        });
    }

    // Partition comparison on this run's measured wall times: cells are
    // in plan order, so `measured[i]` is the cost of plan cell `i`.
    let plan = TaskPlan::lower(&opts.cfg, &grid, true);
    let measured: Vec<u64> = results.cells().iter().map(|c| c.wall_ns).collect();
    let workers = opts.threads.max(2) as u32;
    let blind: Vec<Vec<usize>> = {
        let mut bins = vec![Vec::new(); workers as usize];
        for pc in &plan.cells {
            bins[pc.key.shard_of(workers) as usize].push(pc.index);
        }
        bins
    };
    let mut learned = CostModel::new();
    for c in results.cells() {
        learned.observe(c);
    }
    let balanced = learned.partition(&plan, opts.cfg.accesses, workers);
    let prior = CostModel::new();
    let errs: Vec<f64> = plan
        .cells
        .iter()
        .zip(&measured)
        .filter(|(_, &w)| w > 0)
        .map(|(pc, &w)| {
            let p = prior.predict(&pc.cell, opts.cfg.accesses) as f64;
            (p - w as f64).abs() / w as f64
        })
        .collect();
    let scheduling = SchedulingReport {
        workers,
        imbalance_blind: imbalance_ratio(&bin_loads(&measured, &blind)),
        imbalance_balanced: imbalance_ratio(&bin_loads(&measured, &balanced)),
        prior_cost_error: stats::mean(&errs).unwrap_or(0.0),
    };

    let rate = |ns: u64| {
        let secs = ns as f64 / 1e9;
        if secs > 0.0 {
            results.cells().len() as f64 / secs
        } else {
            0.0
        }
    };
    CampaignReport {
        cells: results.cells().len(),
        wall_ns: results.timing.total_ns,
        trace_prefill_ns: results.timing.trace_prefill_ns,
        baseline_ns: results.timing.baseline_ns,
        cells_ns: results.timing.cells_ns,
        cell_wall_ns_mean: summary.cell_wall_ns_mean,
        cells_per_sec: rate(results.timing.cells_ns),
        cells_per_sec_end_to_end: rate(results.timing.total_ns),
        scheduling,
        designs: per_design,
    }
}

/// Finds the snapshot to diff against: the file already at the output
/// path, else the previous `BENCH_v<n-1>.json` next to it for `v<n>`
/// labels. Parsed as a raw value tree so any schema version loads.
fn previous_snapshot(out: &Path, label: &str) -> Option<(PathBuf, Value)> {
    let mut candidates = vec![out.to_path_buf()];
    if let Some(n) = label.strip_prefix('v').and_then(|s| s.parse::<u64>().ok()) {
        if n > 0 {
            let sibling = format!("BENCH_v{}.json", n - 1);
            candidates.push(match out.parent() {
                Some(p) if !p.as_os_str().is_empty() => p.join(sibling),
                _ => PathBuf::from(sibling),
            });
        }
    }
    candidates.into_iter().find_map(|p| {
        let text = std::fs::read_to_string(&p).ok()?;
        let v = serde_json::parse(&text).ok()?;
        Some((p, v))
    })
}

/// Walks `path` through a parsed JSON tree and coerces the leaf number.
fn num(v: &Value, path: &[&str]) -> Option<f64> {
    let mut cur = v;
    for key in path {
        cur = cur.get(key)?;
    }
    match *cur {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(n) => Some(n),
        _ => None,
    }
}

/// One `old -> new` delta line (skipped when the previous snapshot
/// lacks the field or holds a degenerate value).
fn print_delta(name: &str, old: Option<f64>, new: f64) {
    let Some(old) = old else { return };
    if old <= 0.0 {
        return;
    }
    let pct = (new - old) / old * 100.0;
    println!("  {name:<24} {old:>10.2} -> {new:>10.2}  ({pct:+.1}%)");
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: bench-report [--label NAME] [--out PATH] [shared bench flags]\n\
         \x20 --label NAME  snapshot label (default: local); names BENCH_<label>.json\n\
         \x20 --out PATH    output path (default: BENCH_<label>.json)"
    );
    std::process::exit(2);
}

fn main() {
    unison_bench::require_cpu_features();
    let (opts, extra) = BenchOpts::parse_known(std::env::args().skip(1));
    let mut label = String::from("local");
    let mut out: Option<PathBuf> = None;
    let mut it = extra.into_iter();
    while let Some(flag) = it.next() {
        let mut grab = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--label" => label = grab(),
            "--out" => out = Some(PathBuf::from(grab())),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let out = out.unwrap_or_else(|| PathBuf::from(format!("BENCH_{label}.json")));

    opts.print_header("Bench report: perf trajectory snapshot");

    println!("microbenchmarks:");
    let micro = Microbench {
        probe_ns_per_op: bench_probe(opts.quick),
        replay_ns_per_record: bench_replay(opts.quick),
        generate_ns_per_record: bench_generate(opts.quick),
        calibration_ns: bench_calibration(),
    };
    println!("  meta probe+touch   {:>10.1} ns/op", micro.probe_ns_per_op);
    println!(
        "  artifact replay    {:>10.1} ns/record",
        micro.replay_ns_per_record
    );
    println!(
        "  workload generate  {:>10.1} ns/record ({:.1}x replay)",
        micro.generate_ns_per_record,
        micro.generate_ns_per_record / micro.replay_ns_per_record.max(1e-9)
    );
    println!(
        "  machine calibration{:>10.1} ms (fixed-work loop)",
        micro.calibration_ns / 1e6
    );
    println!();

    println!("headline campaign (4 designs x 2 workloads, 512M):");
    let campaign = run_campaign(&opts);
    let mut t = Table::new(
        ["Design", "Cells", "Mean cell", "Cells/s", "Geomean speedup"]
            .iter()
            .map(|s| s.to_string()),
    );
    for d in &campaign.designs {
        t.row(vec![
            d.design.clone(),
            d.cells.to_string(),
            fmt_ns(d.mean_cell_ns),
            format!("{:.2}", d.cells_per_sec),
            d.geomean_speedup
                .map(|s| format!("{s:.2}x"))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    t.print();
    println!(
        "campaign wall time {} ({} trace prefill, {} baselines, {} cells); \
         {:.2} cells/s in the cells phase, {:.2} cells/s end-to-end",
        fmt_ns(campaign.wall_ns),
        fmt_ns(campaign.trace_prefill_ns),
        fmt_ns(campaign.baseline_ns),
        fmt_ns(campaign.cells_ns),
        campaign.cells_per_sec,
        campaign.cells_per_sec_end_to_end,
    );
    let s = &campaign.scheduling;
    println!(
        "scheduling ({} simulated shard workers): imbalance {:.3}x blind -> {:.3}x balanced; \
         prior cost error {:.0}%",
        s.workers,
        s.imbalance_blind,
        s.imbalance_balanced,
        s.prior_cost_error * 100.0,
    );

    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        label,
        config: ReportConfig {
            scale: opts.cfg.scale,
            accesses: opts.cfg.accesses,
            seed: opts.cfg.seed,
            threads: opts.threads,
            quick: opts.quick,
        },
        microbench: micro,
        campaign,
    };
    // Diff against the previous snapshot before overwriting anything.
    if let Some((prev_path, prev)) = previous_snapshot(&out, &report.label) {
        println!();
        println!("deltas vs {}:", prev_path.display());
        // Machine-speed guard: when the fixed-work calibrations disagree
        // by more than 10%, the wall-clock deltas below mostly measure
        // the machine, not the code.
        match num(&prev, &["microbench", "calibration_ns"]) {
            Some(prev_cal) if prev_cal > 0.0 => {
                let drift = (report.microbench.calibration_ns - prev_cal) / prev_cal;
                if drift.abs() > 0.10 {
                    println!(
                        "  WARNING: machine calibration drifted {:+.1}% vs the previous \
                         snapshot ({:.1} ms -> {:.1} ms); wall-clock deltas below reflect \
                         machine speed, not code changes",
                        drift * 100.0,
                        prev_cal / 1e6,
                        report.microbench.calibration_ns / 1e6,
                    );
                }
            }
            // Pre-v4 snapshots carry no calibration; nothing to compare.
            _ => println!("  (previous snapshot has no machine calibration; treat deltas as same-machine only if known)"),
        }
        print_delta(
            "meta probe ns/op",
            num(&prev, &["microbench", "probe_ns_per_op"]),
            report.microbench.probe_ns_per_op,
        );
        print_delta(
            "replay ns/record",
            num(&prev, &["microbench", "replay_ns_per_record"]),
            report.microbench.replay_ns_per_record,
        );
        print_delta(
            "cells/s (cells phase)",
            num(&prev, &["campaign", "cells_per_sec"]),
            report.campaign.cells_per_sec,
        );
        print_delta(
            "cells/s end-to-end",
            num(&prev, &["campaign", "cells_per_sec_end_to_end"]),
            report.campaign.cells_per_sec_end_to_end,
        );
    }

    let text = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out, text).unwrap_or_else(|e| panic!("writing {}: {e}", out.display()));
    println!("\n(wrote {})", out.display());
}
