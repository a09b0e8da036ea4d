//! `sweep`: run an arbitrary user-specified experiment grid in one
//! command.
//!
//! ```sh
//! cargo run --release -p unison-bench --bin sweep -- \
//!     --designs unison,alloy,footprint,ideal \
//!     --workloads "Web Search,TPC-H" \
//!     --sizes 256M,1G --seeds 42,43 \
//!     --cores 4,16 --dram-preset stacked,stacked-2x --way-policy predict,serial \
//!     --threads 8 --csv sweep.csv --json sweep.json
//! ```
//!
//! Defaults: the four headline designs, every workload, 512 MB, the
//! paper's Table III machine, speedup mode (memoized NoCache baselines).
//!
//! **Scenario axes.** `--cores`, `--dram-preset` (stacked device),
//! `--offchip-preset`, `--page-bytes`, `--ways`, and `--way-policy` each
//! take a comma list; their cross product forms the scenario axis.
//! `--scenario FILE.json` appends scenarios from a spec file (one object
//! or an array; fields omitted in the file keep their defaults), and
//! `--dump-scenario` prints the fully resolved scenario axis as JSON and
//! exits — pipe it to a file to seed a spec file.
//!
//! `--metric miss` switches the table to miss ratios and skips the
//! baselines entirely. All shared bench flags (`--scale`, `--seed`,
//! `--threads`, `--quick`, `--journal`/`--resume`, sinks) apply.
//!
//! **Sharding.** `--shard I/N` (1-based) runs only the cells whose
//! stable `CellKey` lands in shard `I` of a deterministic `N`-way
//! partition and writes a shard-output file to `--json` (required).
//! `--merge shard-*.json` re-lowers the same grid, verifies every shard
//! file against the plan (fingerprint + complete, disjoint coverage),
//! and renders the merged campaign exactly as an unsharded run would —
//! bit-identically. `--list` prints every valid design, DRAM preset,
//! way policy, and workload name in one place.
//!
//! **Orchestration.** `--orchestrate N` supervises the whole sharded
//! pipeline in one command: N child `sweep --shard i/N` worker
//! processes, each journaled, restarted from their journals on crash
//! under bounded exponential backoff (`--max-restarts`, default 3),
//! with cells that kill a worker twice in a row quarantined via
//! `--skip-cells`. On success the shard outputs are merged and rendered
//! exactly as an unsharded run; on degradation the run finishes with a
//! partial result, a manifest naming every missing cell
//! (`manifest.json` in `--orchestrate-dir`), and exit status 1.
//!
//! **Adaptive scheduling.** `--costs FILE` loads a per-cell cost model
//! (learned wall times with a structural prior for never-seen cells)
//! that orders cells longest-first inside a run and, with
//! `--partition balanced`, replaces the blind `key % N` worker split
//! with deterministic LPT bin-packing so every shard finishes at about
//! the same time. Scheduling never changes output: canonical results
//! stay byte-identical. A complete run folds its measured wall times
//! back into the file; `--orchestrate` snapshots the model into its
//! scratch dir so parent and workers always agree on the partition.

use std::path::{Path, PathBuf};
use std::process::Command;

use unison_bench::table::{pct, size_label, speedup};
use unison_bench::{BenchOpts, Table};
use unison_core::WayPolicy;
use unison_dram::DramPreset;
use unison_harness::telemetry::fmt_ns;
use unison_harness::{
    merge_shards, orchestrator, BalancedExecutor, CampaignResult, CellKey, CostModel,
    OrchestrateOutcome, OrchestratorConfig, ScenarioGrid, ShardOutput, ShardSpec, TaskPlan,
    WorkerLaunch,
};
use unison_sim::{scenarios_from_json, Design, Scenario, SystemSpec};
use unison_trace::{workloads, WorkloadSpec};

struct SweepArgs {
    designs: Vec<Design>,
    workloads: Vec<WorkloadSpec>,
    sizes: Vec<u64>,
    seeds: Vec<u64>,
    scenarios: Vec<Scenario>,
    dump_scenario: bool,
    metric: Metric,
    shard: Option<ShardSpec>,
    merge: Vec<String>,
    orchestrate: Option<u32>,
    orchestrate_dir: Option<PathBuf>,
    max_restarts: u32,
    skip_cells: Vec<CellKey>,
    partition: Partition,
    costs: Option<PathBuf>,
    list: bool,
    canonical: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Metric {
    Speedup,
    Miss,
}

/// How cells are assigned to shard workers.
#[derive(PartialEq, Clone, Copy)]
enum Partition {
    /// The historical blind split: `key % N`.
    Hash,
    /// Deterministic LPT bin-packing under the cost model: the parent
    /// and every worker compute the same assignment from the same
    /// `costs.json`, so no side channel is needed.
    Balanced,
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: sweep [--designs a,b,..] [--workloads \"W1,W2,..\"] [--sizes 128M,1G,..] \
         [--seeds s1,s2,..] [--cores n1,n2,..] [--dram-preset p1,p2,..] \
         [--offchip-preset p1,p2,..] [--page-bytes b1,b2,..] [--ways w1,w2,..] \
         [--way-policy p1,p2,..] [--scenario FILE.json] [--dump-scenario] \
         [--metric speedup|miss] [--shard I/N] [--merge FILE..] [--orchestrate N] \
         [--orchestrate-dir DIR] [--max-restarts K] [--skip-cells k1,k2,..] \
         [--partition hash|balanced] [--costs FILE] [--list] \
         [--canonical] [shared bench flags]"
    );
    eprintln!("  --shard I/N   run only shard I (1-based) of a deterministic N-way cell");
    eprintln!("                partition; writes a shard-output file to --json (required)");
    eprintln!("  --merge F..   verify + merge shard-output files from the same grid flags");
    eprintln!("  --orchestrate N       supervise N journaled shard worker processes: restart");
    eprintln!("                        crashed workers from their journals, quarantine cells");
    eprintln!("                        that kill a worker twice in a row, merge on completion");
    eprintln!("  --orchestrate-dir DIR scratch dir for worker journals/outputs/logs and the");
    eprintln!("                        manifest (default .unison-orchestrate-<fingerprint>)");
    eprintln!("  --max-restarts K      restarts allowed per worker before giving up (default 3)");
    eprintln!("  --skip-cells k1,..    with --shard: skip these cell keys (quarantine hand-off)");
    eprintln!("  --partition hash|balanced  how cells map to shard workers: the blind key-hash");
    eprintln!("                        split (default) or cost-model LPT bin-packing, which");
    eprintln!("                        evens out shard wall times without changing any output");
    eprintln!("  --costs FILE  per-cell cost model (costs.json): schedules cells longest-first");
    eprintln!("                and shapes balanced partitions; created on first use and updated");
    eprintln!("                with fresh wall times after a complete run");
    eprintln!("  --list        print every valid design, preset, policy, and workload");
    eprintln!("  --canonical   write --json as the timing-stripped cells array (byte-identical");
    eprintln!("                across reruns/shardings/resumes) instead of the summary document");
    eprintln!("  designs:      {}", Design::VALID_NAMES);
    eprintln!("  dram presets: {}", DramPreset::valid_names());
    eprintln!("  way policies: {}", WayPolicy::valid_names());
    eprintln!(
        "  workloads:    {}",
        workloads::all()
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

fn parse_size(s: &str) -> u64 {
    let t = s.trim().to_ascii_uppercase();
    let (num, mult) = if let Some(n) = t.strip_suffix("GB").or_else(|| t.strip_suffix('G')) {
        (n, 1u64 << 30)
    } else if let Some(n) = t.strip_suffix("MB").or_else(|| t.strip_suffix('M')) {
        (n, 1u64 << 20)
    } else if let Some(n) = t.strip_suffix("KB").or_else(|| t.strip_suffix('K')) {
        (n, 1u64 << 10)
    } else if let Some(n) = t.strip_suffix('B') {
        // Raw bytes must be explicit ("134217728B"); a bare number like
        // "512" is almost always a forgotten unit, so reject it rather
        // than silently sweeping a 512-byte cache.
        (n, 1u64)
    } else {
        fail(&format!(
            "size {s:?} needs a unit suffix (K/M/G, e.g. 512M, or B for raw bytes)"
        ))
    };
    num.parse::<u64>()
        .unwrap_or_else(|_| fail(&format!("bad size {s:?}")))
        .checked_mul(mult)
        .unwrap_or_else(|| fail(&format!("size {s:?} overflows")))
}

/// The per-flag value lists that cross-multiply into the scenario axis.
#[derive(Default)]
struct AxisFlags {
    cores: Vec<u32>,
    stacked: Vec<DramPreset>,
    offchip: Vec<DramPreset>,
    page_bytes: Vec<u32>,
    ways: Vec<u32>,
    way_policies: Vec<WayPolicy>,
}

impl AxisFlags {
    fn any(&self) -> bool {
        !(self.cores.is_empty()
            && self.stacked.is_empty()
            && self.offchip.is_empty()
            && self.page_bytes.is_empty()
            && self.ways.is_empty()
            && self.way_policies.is_empty())
    }

    /// The cross product of every given axis over the default spec, each
    /// point validated and named after its non-default knobs.
    fn cross_product(&self) -> Vec<Scenario> {
        fn axis<T: Copy>(values: &[T]) -> Vec<Option<T>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().copied().map(Some).collect()
            }
        }
        let d = SystemSpec::default();
        let mut out = Vec::new();
        for &cores in &axis(&self.cores) {
            for &stacked in &axis(&self.stacked) {
                for &offchip in &axis(&self.offchip) {
                    for &page_bytes in &axis(&self.page_bytes) {
                        for &ways in &axis(&self.ways) {
                            for &way_policy in &axis(&self.way_policies) {
                                let spec = SystemSpec {
                                    cores,
                                    page_bytes,
                                    ways,
                                    way_policy,
                                    stacked: stacked.unwrap_or(d.stacked),
                                    offchip: offchip.unwrap_or(d.offchip),
                                    ..d
                                };
                                spec.validate().unwrap_or_else(|e| fail(&e));
                                out.push(Scenario::from_spec(spec));
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

fn parse_list<T>(flag: &str, raw: &str, parse: impl Fn(&str) -> Result<T, String>) -> Vec<T> {
    raw.split(',')
        .map(|item| parse(item.trim()).unwrap_or_else(|e| fail(&format!("{flag}: {e}"))))
        .collect()
}

fn parse_sweep_args(extra: Vec<String>) -> SweepArgs {
    let mut args = SweepArgs {
        designs: vec![
            Design::Alloy,
            Design::Footprint,
            Design::Unison,
            Design::Ideal,
        ],
        workloads: workloads::all(),
        sizes: vec![512 << 20],
        seeds: Vec::new(),
        scenarios: Vec::new(),
        dump_scenario: false,
        metric: Metric::Speedup,
        shard: None,
        merge: Vec::new(),
        orchestrate: None,
        orchestrate_dir: None,
        max_restarts: 3,
        skip_cells: Vec::new(),
        partition: Partition::Hash,
        costs: None,
        list: false,
        canonical: false,
    };
    let mut axes = AxisFlags::default();
    let mut scenario_files: Vec<String> = Vec::new();
    let mut it = extra.into_iter().peekable();
    while let Some(flag) = it.next() {
        let mut grab = || {
            it.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--designs" => {
                args.designs = parse_list("--designs", &grab(), Design::parse);
            }
            "--workloads" => {
                args.workloads = parse_list("--workloads", &grab(), |w| {
                    workloads::by_name(w).ok_or_else(|| {
                        format!(
                            "unknown workload {w:?} (valid workloads: {})",
                            workloads::all()
                                .iter()
                                .map(|w| w.name)
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })
                });
            }
            "--sizes" => args.sizes = grab().split(',').map(parse_size).collect(),
            "--seeds" => {
                args.seeds = parse_list("--seeds", &grab(), |s| {
                    s.parse().map_err(|_| format!("bad seed {s:?}"))
                });
            }
            "--cores" => {
                axes.cores = parse_list("--cores", &grab(), |c| {
                    c.parse().map_err(|_| format!("bad core count {c:?}"))
                });
            }
            "--dram-preset" => {
                axes.stacked = parse_list("--dram-preset", &grab(), DramPreset::parse);
            }
            "--offchip-preset" => {
                axes.offchip = parse_list("--offchip-preset", &grab(), DramPreset::parse);
            }
            "--page-bytes" => {
                axes.page_bytes = parse_list("--page-bytes", &grab(), |b| {
                    b.parse().map_err(|_| format!("bad page size {b:?}"))
                });
            }
            "--ways" => {
                axes.ways = parse_list("--ways", &grab(), |w| {
                    w.parse().map_err(|_| format!("bad way count {w:?}"))
                });
            }
            "--way-policy" => {
                axes.way_policies = parse_list("--way-policy", &grab(), WayPolicy::parse);
            }
            "--scenario" => scenario_files.push(grab()),
            "--dump-scenario" => args.dump_scenario = true,
            "--shard" => {
                args.shard = Some(
                    ShardSpec::parse(&grab()).unwrap_or_else(|e| fail(&format!("--shard: {e}"))),
                );
            }
            "--merge" => {
                // Greedy: `--merge shard-*.json` shell-expands to many
                // paths; consume values until the next flag.
                let first = grab();
                if first.starts_with("--") {
                    fail(&format!(
                        "--merge needs at least one shard-output file (got flag {first})"
                    ));
                }
                args.merge.push(first);
                while let Some(path) = it.next_if(|a| !a.starts_with("--")) {
                    args.merge.push(path);
                }
            }
            "--orchestrate" => {
                let n = grab();
                args.orchestrate = Some(
                    n.parse()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| fail(&format!("bad --orchestrate worker count {n:?}"))),
                );
            }
            "--orchestrate-dir" => args.orchestrate_dir = Some(PathBuf::from(grab())),
            "--max-restarts" => {
                let k = grab();
                args.max_restarts = k
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("bad --max-restarts {k:?}")));
            }
            "--skip-cells" => {
                args.skip_cells = parse_list("--skip-cells", &grab(), CellKey::from_hex);
            }
            "--partition" => {
                args.partition = match grab().as_str() {
                    "hash" => Partition::Hash,
                    "balanced" => Partition::Balanced,
                    p => fail(&format!("unknown partition {p:?} (hash|balanced)")),
                };
            }
            "--costs" => args.costs = Some(PathBuf::from(grab())),
            "--list" => args.list = true,
            "--canonical" => args.canonical = true,
            "--metric" => {
                args.metric = match grab().as_str() {
                    "speedup" => Metric::Speedup,
                    "miss" => Metric::Miss,
                    m => fail(&format!("unknown metric {m:?} (speedup|miss)")),
                };
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if axes.any() {
        args.scenarios.extend(axes.cross_product());
    }
    for file in &scenario_files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| fail(&format!("cannot read scenario file {file}: {e}")));
        let loaded = scenarios_from_json(&text).unwrap_or_else(|e| fail(&format!("{file}: {e}")));
        args.scenarios.extend(loaded);
    }
    let mut names: Vec<&str> = Vec::new();
    for s in &args.scenarios {
        if names.contains(&s.name.as_str()) {
            fail(&format!(
                "duplicate scenario name {:?} across axis flags and scenario files",
                s.name
            ));
        }
        names.push(&s.name);
    }
    if args.designs.is_empty() || args.workloads.is_empty() || args.sizes.is_empty() {
        fail("designs, workloads, and sizes must all be non-empty");
    }
    if args.shard.is_some() && !args.merge.is_empty() {
        fail("--shard and --merge are mutually exclusive");
    }
    if args.orchestrate.is_some() && (args.shard.is_some() || !args.merge.is_empty()) {
        fail(
            "--orchestrate supervises its own shard workers and merges their outputs; \
             it cannot combine with --shard or --merge",
        );
    }
    if !args.skip_cells.is_empty() && args.shard.is_none() {
        fail(
            "--skip-cells applies to --shard worker processes \
             (the orchestrator passes it when quarantining a cell)",
        );
    }
    if args.partition == Partition::Balanced && args.shard.is_none() && args.orchestrate.is_none() {
        fail(
            "--partition balanced shapes the split across shard workers; it needs \
             --shard I/N or --orchestrate N (in-process runs schedule with --costs alone)",
        );
    }
    args
}

/// Loads a cost model from `path`, or starts from the structural prior
/// when the file does not exist yet (the first run creates it).
fn load_costs(path: &Path) -> CostModel {
    if path.exists() {
        CostModel::load(path).unwrap_or_else(|e| fail(&e))
    } else {
        CostModel::new()
    }
}

/// Prints every valid spelling the grid flags accept, in one place.
fn print_lists() {
    println!("valid sweep axis values");
    println!();
    println!("designs (--designs):");
    println!("  {}", Design::VALID_NAMES);
    println!("dram presets (--dram-preset / --offchip-preset):");
    println!("  {}", DramPreset::valid_names());
    println!("way policies (--way-policy):");
    println!("  {}", WayPolicy::valid_names());
    println!("workloads (--workloads):");
    for w in workloads::all() {
        println!(
            "  {:<16} ({} cores, {} MB footprint)",
            w.name,
            w.cores,
            w.mem_footprint_bytes >> 20
        );
    }
    println!("sizes (--sizes): K/M/G suffixed (512M, 1G) or raw bytes with B");
    println!("shards (--shard): I/N with 1-based I (1/2 and 2/2 halve a campaign)");
}

/// Runs one shard of the partition and writes the shard-output file.
fn run_shard(opts: &BenchOpts, sweep: &SweepArgs, grid: &ScenarioGrid, shard: ShardSpec) {
    let Some(json) = &opts.json else {
        fail("--shard needs --json PATH (the shard-output file --merge will read)");
    };
    if opts.csv.is_some() {
        fail("--csv is unavailable with --shard (partial grid); render it from --merge");
    }
    let mut campaign = opts.campaign();
    if !sweep.skip_cells.is_empty() {
        campaign = campaign.exclude(sweep.skip_cells.iter().copied());
    }
    let model = sweep.costs.as_ref().map(|p| load_costs(p));
    if let Some(m) = &model {
        // Longest-first ordering inside the shard; workers never write
        // the shared costs file (the parent folds timings in post-merge).
        campaign = campaign.costs(m.clone());
    }
    let out = match sweep.partition {
        Partition::Hash => match sweep.metric {
            Metric::Speedup => campaign.run_shard_speedups(grid, shard),
            Metric::Miss => campaign.run_shard(grid, shard),
        },
        Partition::Balanced => {
            // Recompute the same deterministic LPT partition the parent
            // computed: same costs file + same plan → same bins, so the
            // explicit assignment needs no side channel.
            let speedups = sweep.metric == Metric::Speedup;
            let plan = TaskPlan::lower(&opts.cfg, grid, speedups);
            let bins = model
                .unwrap_or_default()
                .partition(&plan, opts.cfg.accesses, shard.count);
            let bin = bins.get(shard.index as usize).cloned().unwrap_or_default();
            campaign.run_plan(grid, speedups, &BalancedExecutor::new(shard, bin))
        }
    };
    let executed = out.cells.len() - out.resumed_cells;
    println!(
        "shard {}: {} of {} cells ({} executed, {} restored from journal); \
         plan fingerprint {}",
        shard.display(),
        out.cells.len(),
        out.total_cells,
        executed,
        out.resumed_cells,
        out.fingerprint,
    );
    orchestrator::write_shard_output(json, &out).unwrap_or_else(|e| fail(&e));
    println!("(wrote {})", json.display());
}

/// Reads shard-output files, verifies each against the plan this
/// process's own grid flags lower to, and reassembles the full result.
fn merge_outputs(opts: &BenchOpts, sweep: &SweepArgs, grid: &ScenarioGrid) -> CampaignResult {
    let plan = TaskPlan::lower(&opts.cfg, grid, sweep.metric == Metric::Speedup);
    let mut outputs = Vec::new();
    for file in &sweep.merge {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| fail(&format!("cannot read shard output {file}: {e}")));
        let out: ShardOutput = serde_json::from_str(&text)
            .unwrap_or_else(|e| fail(&format!("{file}: not a shard output ({e})")));
        if out.fingerprint != plan.fingerprint() {
            fail(&format!(
                "{file}: shard fingerprint {} does not match this invocation's plan {} — \
                 --merge must be given the same grid and config flags the shards ran with",
                out.fingerprint,
                plan.fingerprint()
            ));
        }
        for cell in &out.cells {
            let expect = plan.cells.get(cell.index).unwrap_or_else(|| {
                fail(&format!("{file}: cell index {} out of range", cell.index))
            });
            if expect.key.hex() != cell.key {
                fail(&format!(
                    "{file}: cell {} has key {} but the plan expects {}",
                    cell.index,
                    cell.key,
                    expect.key.hex()
                ));
            }
        }
        outputs.push(out);
    }
    merge_shards(outputs).unwrap_or_else(|e| fail(&e))
}

/// Reconstructs this invocation's argv for a shard worker process:
/// everything the user passed, minus the flags the orchestrator owns
/// (`--orchestrate*`, `--max-restarts`), re-injects per worker
/// (`--shard`, `--json`, `--journal`, `--resume`, `--threads`,
/// `--skip-cells`) or per run (`--costs` pointing at the parent's
/// snapshot, `--partition`), or that only makes sense in the parent
/// (sinks, `--canonical`, progress streams — workers log per-cell
/// lines to their own log files instead).
fn worker_argv(worker_threads: usize) -> Vec<String> {
    const DROP_WITH_VALUE: &[&str] = &[
        "--orchestrate",
        "--orchestrate-dir",
        "--max-restarts",
        "--json",
        "--csv",
        "--journal",
        "--threads",
        "--skip-cells",
        "--shard",
        "--costs",
        "--partition",
    ];
    const DROP_FLAG: &[&str] = &["--resume", "--canonical", "--list", "--dump-scenario"];
    let mut out = Vec::new();
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        if DROP_WITH_VALUE.contains(&arg.as_str()) {
            it.next();
            continue;
        }
        if DROP_FLAG.contains(&arg.as_str()) || arg.starts_with("--progress") {
            continue;
        }
        if arg == "--merge" {
            while it.next_if(|a| !a.starts_with("--")).is_some() {}
            continue;
        }
        out.push(arg);
    }
    out.push("--threads".to_string());
    out.push(worker_threads.to_string());
    out
}

/// Runs the campaign as `workers` supervised shard worker processes and
/// returns the (possibly partial) outcome.
fn run_orchestrated(
    opts: &BenchOpts,
    sweep: &SweepArgs,
    grid: &ScenarioGrid,
    workers: u32,
) -> OrchestrateOutcome {
    if opts.journal.is_some() || opts.resume {
        fail(
            "--orchestrate manages a journal per worker (always resumed); \
             --journal/--resume do not apply to the supervisor",
        );
    }
    let plan = TaskPlan::lower(&opts.cfg, grid, sweep.metric == Metric::Speedup);
    let dir = sweep
        .orchestrate_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from(format!(".unison-orchestrate-{}", plan.fingerprint())));
    let mut cfg = OrchestratorConfig::new(workers, dir.clone());
    cfg.max_restarts = sweep.max_restarts;
    cfg.quiet = !opts.progress_config().enabled();

    // Resolve the cost model: an explicit --costs file, else one left in
    // the orchestrate dir by a previous run, else the structural prior.
    // Journals a crashed or interrupted run left behind are free data.
    let costs_path = dir.join("costs.json");
    let mut model = load_costs(sweep.costs.as_deref().unwrap_or(&costs_path));
    for w in 0..workers {
        let journal = dir.join(format!("worker-{w}.journal.jsonl"));
        if journal.exists() {
            let _ = model.learn_journal(&journal);
        }
    }
    // Snapshot the resolved model where every worker will read it, so
    // parent and workers compute identical balanced partitions even if
    // the source file changes mid-run.
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| fail(&format!("cannot create {}: {e}", dir.display())));
    model.save(&costs_path).unwrap_or_else(|e| fail(&e));
    if sweep.partition == Partition::Balanced {
        cfg.assignments = Some(model.partition(&plan, opts.cfg.accesses, workers));
    }

    let exe = std::env::current_exe()
        .unwrap_or_else(|e| fail(&format!("cannot locate the sweep executable: {e}")));
    // Split the pool across workers so N workers don't oversubscribe the
    // machine N-fold.
    let worker_threads = opts.threads.div_ceil(workers.max(1) as usize).max(1);
    let base_args = worker_argv(worker_threads);
    let balanced = sweep.partition == Partition::Balanced;
    let snapshot = costs_path.clone();
    let launch = move |l: &WorkerLaunch<'_>| {
        let mut cmd = Command::new(&exe);
        cmd.args(&base_args)
            .arg("--shard")
            .arg(l.shard.display())
            .arg("--json")
            .arg(&l.paths.output)
            .arg("--journal")
            .arg(&l.paths.journal)
            .arg("--resume")
            .arg("--costs")
            .arg(&snapshot);
        if balanced {
            cmd.arg("--partition").arg("balanced");
        }
        if !l.skip.is_empty() {
            cmd.arg("--skip-cells").arg(l.skip.join(","));
        }
        cmd
    };
    let outcome = orchestrator::run(&plan, &cfg, &launch).unwrap_or_else(|e| fail(&e));

    // Fold the fresh wall times back in so the next run partitions on
    // measured costs, not the prior; mirror to the user's file if named.
    for cell in outcome.result.cells() {
        model.observe(cell);
    }
    model.save(&costs_path).unwrap_or_else(|e| fail(&e));
    if let Some(user) = &sweep.costs {
        model.save(user).unwrap_or_else(|e| fail(&e));
    }
    outcome
}

fn main() {
    unison_bench::require_cpu_features();
    let (opts, extra) = BenchOpts::parse_known(std::env::args().skip(1));
    let sweep = parse_sweep_args(extra);
    if sweep.list {
        print_lists();
        return;
    }

    // The effective scenario axis (what an empty axis means), for the
    // dump and the result tables.
    let scenarios: Vec<Scenario> = if sweep.scenarios.is_empty() {
        vec![Scenario::default()]
    } else {
        sweep.scenarios.clone()
    };
    if sweep.dump_scenario {
        println!(
            "{}",
            serde_json::to_string_pretty(&scenarios).expect("scenarios serialize")
        );
        return;
    }

    let mut grid = ScenarioGrid::new()
        .designs(sweep.designs.clone())
        .workloads(sweep.workloads.clone())
        .sizes(sweep.sizes.clone());
    if !sweep.scenarios.is_empty() {
        grid = grid.scenarios(sweep.scenarios.clone());
    }
    if !sweep.seeds.is_empty() {
        grid = grid.seeds(sweep.seeds.clone());
    }

    if let Some(shard) = sweep.shard {
        run_shard(&opts, &sweep, &grid, shard);
        return;
    }

    opts.print_header(if sweep.orchestrate.is_some() {
        "Sweep: orchestrated campaign"
    } else if sweep.merge.is_empty() {
        "Sweep: user-specified experiment grid"
    } else {
        "Sweep: merged shard outputs"
    });
    if scenarios.len() > 1 || scenarios[0] != Scenario::default() {
        println!(
            "scenarios: {}",
            scenarios
                .iter()
                .map(|s| s.name.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!();
    }

    let mut orchestrated: Option<OrchestrateOutcome> = None;
    let results = if let Some(workers) = sweep.orchestrate {
        let outcome = run_orchestrated(&opts, &sweep, &grid, workers);
        println!(
            "orchestrated: {} worker(s), {} restart(s); manifest {}",
            workers,
            outcome.manifest.total_restarts,
            outcome.manifest_path.display()
        );
        println!();
        let result = outcome.result.clone();
        orchestrated = Some(outcome);
        result
    } else if sweep.merge.is_empty() {
        let mut campaign = opts.campaign();
        let model = sweep.costs.as_ref().map(|p| load_costs(p));
        if let Some(m) = &model {
            campaign = campaign.costs(m.clone());
        }
        let results = match sweep.metric {
            Metric::Speedup => campaign.run_speedups(&grid),
            Metric::Miss => campaign.run(&grid),
        };
        // Fold measured wall times back into the costs file so the next
        // invocation schedules on data instead of the structural prior.
        if let (Some(path), Some(mut m)) = (&sweep.costs, model) {
            for cell in results.cells() {
                m.observe(cell);
            }
            m.save(path).unwrap_or_else(|e| fail(&e));
        }
        results
    } else {
        merge_outputs(&opts, &sweep, &grid)
    };

    let size_labels: Vec<String> = sweep.sizes.iter().map(|&s| size_label(s)).collect();
    let headers: Vec<String> = std::iter::once("Design".to_string())
        .chain(size_labels.clone())
        .collect();
    let seeds_shown: Vec<u64> = if sweep.seeds.is_empty() {
        vec![opts.cfg.seed]
    } else {
        sweep.seeds.clone()
    };

    for scenario in &scenarios {
        let scope = if scenarios.len() > 1 {
            format!(" [{}]", scenario.name)
        } else {
            String::new()
        };
        for w in &sweep.workloads {
            println!(
                "-- {}{} ({}) --",
                w.name,
                scope,
                match sweep.metric {
                    Metric::Speedup => "speedup over NoCache",
                    Metric::Miss => "miss ratio %",
                }
            );
            let mut t = Table::new(headers.clone());
            for d in &sweep.designs {
                let mut cells = vec![d.name()];
                for &size in &sweep.sizes {
                    // Average over seeds so multi-seed sweeps stay one table.
                    let vals: Vec<f64> = seeds_shown
                        .iter()
                        .filter_map(|&seed| {
                            results.get_in_scenario(&scenario.name, w.name, &d.name(), size, seed)
                        })
                        .map(|c| match sweep.metric {
                            Metric::Speedup => c.speedup.unwrap_or(f64::NAN),
                            Metric::Miss => c.run.cache.miss_ratio(),
                        })
                        .collect();
                    let v = unison_harness::stats::mean(&vals).unwrap_or(f64::NAN);
                    cells.push(match sweep.metric {
                        Metric::Speedup => speedup(v),
                        Metric::Miss => pct(v),
                    });
                }
                t.row(cells);
            }
            t.print();
            println!();
        }

        if sweep.metric == Metric::Speedup && sweep.workloads.len() > 1 {
            println!("-- Geometric Mean across workloads{scope} --");
            let mut t = Table::new(headers.clone());
            for d in &sweep.designs {
                let mut cells = vec![d.name()];
                for &size in &sweep.sizes {
                    cells.push(
                        results
                            .geomean_speedup_in_scenario(&scenario.name, &d.name(), size)
                            .map(speedup)
                            .unwrap_or_else(|| "-".to_string()),
                    );
                }
                t.row(cells);
            }
            t.print();
            println!();
        }
    }

    let restored = if results.resumed_cells > 0 {
        format!(" ({} restored from journal)", results.resumed_cells)
    } else {
        String::new()
    };
    println!(
        "{} cells on {} thread(s){restored}; baselines: {} simulated, {} memo hits; \
         traces: {} generated, {} memo hits, {} disk hits",
        results.cells().len(),
        opts.threads,
        results.baseline_runs,
        results.baseline_hits,
        results.trace_generated,
        results.trace_memo_hits,
        results.trace_disk_hits,
    );
    let summary = results.summary();
    if !results.timing.is_zero() {
        println!(
            "wall time: {} ({} trace prefill, {} baselines, {} cells); \
             mean cell {} ({} aggregate compute)",
            fmt_ns(results.timing.total_ns),
            fmt_ns(results.timing.trace_prefill_ns),
            fmt_ns(results.timing.baseline_ns),
            fmt_ns(results.timing.cells_ns),
            fmt_ns(summary.cell_wall_ns_mean),
            fmt_ns(summary.cell_wall_ns_total),
        );
    }

    if sweep.canonical {
        // The byte-identity artifact: timing stripped, cells only — what
        // the CI shard-merge smoke byte-compares across reruns.
        opts.maybe_dump_json(&results.canonical_cells());
    } else {
        opts.maybe_dump_campaign_json(&results);
    }
    opts.maybe_dump_csv(&results);

    // An orchestrated campaign that degraded still rendered everything
    // recoverable above; now say exactly what is missing and exit
    // nonzero so scripts cannot mistake a partial sweep for a full one.
    if let Some(outcome) = &orchestrated {
        if !outcome.is_complete() {
            let m = &outcome.manifest;
            eprintln!();
            eprintln!(
                "error: orchestrated campaign is PARTIAL: {} of {} cells completed, \
                 {} quarantined",
                m.completed_cells,
                m.total_cells,
                m.quarantined.len()
            );
            for q in &m.quarantined {
                eprintln!(
                    "  cell {} key={} (worker {}): {}{}",
                    q.index,
                    q.key,
                    q.worker,
                    q.cell,
                    q.error
                        .as_ref()
                        .map(|e| format!(" — {e}"))
                        .unwrap_or_default()
                );
            }
            eprintln!("  manifest: {}", outcome.manifest_path.display());
            std::process::exit(1);
        }
    }
}
