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
//! **Sharding.** `--shard I/N` (1-based) runs only shard `I` of the
//! plan's deterministic `N`-way partition (cells LPT-packed by predicted
//! cost, so the shards finish at about the same time) and writes a
//! shard-output file to `--json` (required).
//! `--merge shard-*.json` re-lowers the same grid, verifies every shard
//! file against the plan (fingerprint + complete, disjoint coverage),
//! and renders the merged campaign exactly as an unsharded run would —
//! bit-identically. `--list` prints every valid design, DRAM preset,
//! way policy, and workload name in one place.
//!
//! **Recovery.** `--journal FILE` checkpoints every completed cell;
//! after a kill, rerunning the same command with `--resume` restores
//! them and simulates only the rest, bit-identically. `--resume` on a
//! missing journal starts fresh, so a bounded retry loop
//! (`for i in 1 2 3; do sweep … --journal c.jsonl --resume && break;
//! done`) recovers from transient deaths. A cell that panics is named
//! on stderr by its `[key=…]` tag.

use unison_bench::table::{pct, size_label, speedup};
use unison_bench::{BenchOpts, Table};
use unison_core::WayPolicy;
use unison_dram::DramPreset;
use unison_harness::telemetry::fmt_ns;
use unison_harness::{
    merge_shards, write_shard_output, CampaignResult, ScenarioGrid, ShardOutput, ShardSpec,
    TaskPlan,
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
    list: bool,
    canonical: bool,
}

#[derive(PartialEq, Clone, Copy)]
enum Metric {
    Speedup,
    Miss,
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: sweep [--designs a,b,..] [--workloads \"W1,W2,..\"] [--sizes 128M,1G,..] \
         [--seeds s1,s2,..] [--cores n1,n2,..] [--dram-preset p1,p2,..] \
         [--offchip-preset p1,p2,..] [--page-bytes b1,b2,..] [--ways w1,w2,..] \
         [--way-policy p1,p2,..] [--scenario FILE.json] [--dump-scenario] \
         [--metric speedup|miss] [--shard I/N] [--merge FILE..] [--list] [--canonical] \
         [shared bench flags]"
    );
    eprintln!("  --shard I/N   run only shard I (1-based) of the deterministic, cost-balanced");
    eprintln!("                N-way cell partition; writes a shard-output file to --json");
    eprintln!("  --merge F..   verify + merge shard-output files from the same grid flags");
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
    args
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
    let out = opts
        .campaign()
        .run_plan(grid, sweep.metric == Metric::Speedup, shard);
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
    write_shard_output(json, &out).unwrap_or_else(|e| fail(&e));
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

    opts.print_header(if sweep.merge.is_empty() {
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

    let results = if sweep.merge.is_empty() {
        let campaign = opts.campaign();
        match sweep.metric {
            Metric::Speedup => campaign.run_speedups(&grid),
            Metric::Miss => campaign.run(&grid),
        }
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
}
