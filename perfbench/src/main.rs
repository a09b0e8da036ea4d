//! `perfbench`: the repository benchmark. Host time per simulated trace
//! record on two fixed campaign grids, and a traced per-layer ledger.
//!
//! ```sh
//! python3 perfbench/run.py --workload fig7-campaign --seed 1 --seconds 50 --trace 0
//! ```
//!
//! `run.py` builds this binary and the `sweep` binary, runs this binary,
//! and checks its last line against `BENCHMARK.json`. It is a batch
//! benchmark: a run repeats the workload's grid, each time to
//! completion in one process, until `--seconds` is spent, and reports
//! the median over those campaigns, each scaled to a reference host
//! speed (see [`reference`]). Every workload runs at 1/16 scale
//! and 512 MB with 1.57 M records per simulation, two thirds of them
//! warmup. A `--trace 0` run cycles its campaigns through four seeds
//! derived from `--seed`; a traced run uses `--seed` itself. Threads
//! never exceed the host's.
//!
//! # Workloads
//!
//! * `fig7-campaign`: the Fig 7 headline. Alloy, Footprint, Unison and
//!   Ideal on Web Search and TPC-H at 512 MB, through
//!   `Campaign::run_speedups` on 2 threads. It is the only workload on
//!   which the `harness` layer does real work: trace prefill, the
//!   baseline memo, trace-shared batching and the pool (LPT order needs
//!   a cost model, which neither this nor a plain `sweep` loads). Three
//!   of its four designs walk `MetaStore` and run predictors, so the
//!   design access path is its largest layer.
//! * `dram-stream`: NoCache and Ideal on TPC-H (6% writes, 128 GB scans)
//!   and Data Analytics (25% writes, pointer chasing), through plain
//!   `Campaign::run` (so NoCache is simulated, not a memoized baseline)
//!   on 1 thread. Each access is one `DramModel` call, off-chip for
//!   NoCache and stacked for Ideal, so host time is trace replay, `sim`
//!   dispatch and `dram`; a `MetaStore` change must not move it. Reads
//!   beside writes, and both devices, catch a DRAM gain that costs the
//!   other use.
//!
//! # Metrics
//!
//! End to end (`--trace 0`; medians over the run's campaigns, host time
//! scaled to the reference host speed; the report keeps each campaign's
//! raw times and scale factor):
//! `records_per_s` (records simulated, over every cell and baseline,
//! per wall second after setup), `campaign_s` (wall time to the last
//! result), `setup_s` (the trace prefill before the first cell
//! dispatches), `cpu_ns_per_record` (process user+sys CPU over the
//! campaign per record) and `peak_rss_mb` (`VmHWM`, not scaled). Cells
//! that panic or fail the correctness gate are the `failed` count of the
//! result line.
//!
//! Per layer (`--trace 1`, see [`ledger`]), and the end-to-end metric
//! each should move:
//!
//! | layer metric | should move | on |
//! |---|---|---|
//! | `harness.{prefill_s,baseline_s,cells_s,pool_utilisation,cpu_wall_ratio,trace_memo_hits,baseline_memo_hits}` | `campaign_s`, `setup_s` | fig7-campaign; no move on the 1-thread workloads |
//! | `trace.generate_ns_per_record` / `trace.replay_ns_per_record`, `trace.records_read` | `setup_s` / `records_per_s` | fig7-campaign / dram-stream |
//! | `sim.dispatch_ns_per_record` | `records_per_s` | dram-stream |
//! | `core.<design>.{access_ns_mean,access_ns_p50,access_ns_p99,hit_ratio,dram_ops_per_access}` | `records_per_s`, `cpu_ns_per_record` | fig7-campaign; no move on dram-stream for MetaStore designs |
//! | `predictors.<design>.{fp_accuracy,fp_overfetch,wp_accuracy,mp_accuracy}` (simulated) | explain `core.*.dram_ops_per_access` | fig7-campaign |
//! | `dram.{stacked,offchip}.{ns_per_access,row_hit_ratio}` | `records_per_s` | dram-stream |
//! | `model.<design>.speedup_geomean` (simulated; identical across a simulator-only change) | none | fig7-campaign |
//! | `trace_overhead` (traced / untraced cell time), `error_rate` | none | all |
//!
//! The model is not validated against hardware, so no accuracy-error
//! figure is reported.
//!
//! # Checks
//!
//! Every campaign passes the gate of [`check`]; every campaign of a run
//! has the same canonical-cells digest; the last one equals
//! `sweep --canonical --json` on the same grid and seed byte for byte;
//! and in a traced run every traced cell and DRAM replay reproduces its
//! untraced counterpart bit for bit. Any failure makes `correct` false.

#![forbid(unsafe_code)]

mod campaign;
mod check;
mod hist;
mod ledger;
mod names;
mod procfs;
mod reference;
mod workload;

use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use serde::Value;

use crate::check::Gate;
use crate::reference::Reference;
use crate::workload::Workload;

const USAGE: &str = "usage: perfbench --workload <fig7-campaign|dram-stream> \
--seed <n> --seconds <n> --trace <0|1> --sweep <path to sweep binary> --out-dir <dir>";

/// Iterations of the fixed-work calibration loop.
const CALIBRATION_ITERS: u64 = 50_000_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    sweep: PathBuf,
    out_dir: PathBuf,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut it = args.into_iter();
        let (mut workload, mut seed, mut seconds, mut trace, mut sweep, mut out_dir) =
            (None, None, None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad {flag} {value:?}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                    })
                }
                "--sweep" => sweep = Some(PathBuf::from(&value)),
                "--out-dir" => out_dir = Some(PathBuf::from(&value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let need = |name: &str| format!("{name} is required");
        Ok(Args {
            workload: workload.ok_or_else(|| need("--workload"))?,
            seed: seed.ok_or_else(|| need("--seed"))?,
            seconds: seconds.ok_or_else(|| need("--seconds"))?,
            trace: trace.ok_or_else(|| need("--trace"))?,
            sweep: sweep.ok_or_else(|| need("--sweep"))?,
            out_dir: out_dir.ok_or_else(|| need("--out-dir"))?,
        })
    }
}

/// Runs the fixed-work loop on `threads` threads at once and returns each
/// one's wall time: on an oversubscribed host these exceed the
/// single-thread figure, which shows up beside the run's numbers rather
/// than as a regression.
fn calibrate(threads: usize) -> Vec<u64> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let start = Instant::now();
                    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
                    for _ in 0..CALIBRATION_ITERS {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                    }
                    black_box(x);
                    start.elapsed().as_nanos() as u64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread does not panic"))
            .collect()
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Everything a run found, before rendering.
struct Outcome {
    gate: Gate,
    metrics: Vec<(String, f64)>,
    detail: Vec<(String, Value)>,
}

/// Seeds a `--trace 0` run cycles its campaigns through. Trace generation
/// costs up to a third more on some seeds than on others, so a run that
/// spans several seeds reports a median that moves less between runs.
const SEEDS_PER_RUN: u64 = 4;

/// The seeds a `--trace 0` run at `seed` cycles through.
fn run_seeds(seed: u64) -> Vec<u64> {
    (0..SEEDS_PER_RUN)
        .map(|i| seed.wrapping_mul(SEEDS_PER_RUN).wrapping_add(i))
        .collect()
}

/// `--trace 0`: repeat the campaign for `seconds`, cycling through the
/// run's seeds, then cross-check.
fn measure(w: &Workload, args: &Args) -> Outcome {
    let seeds = run_seeds(args.seed);
    let cfgs: Vec<_> = seeds.iter().map(|&s| w.cfg(s)).collect();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut gate = Gate::default();
    let mut runs = Vec::new();
    // Per seed: the digest of every campaign, and the last canonical cells.
    let mut digests: Vec<Vec<String>> = vec![Vec::new(); seeds.len()];
    let mut canonical: Vec<Option<String>> = vec![None; seeds.len()];
    let mut reference = Reference::new(w.threads);
    // Kernel times around the campaigns: the i-th campaign ran between
    // the i-th and the (i+1)-th.
    let mut kernel_ns = vec![reference.time()];
    loop {
        let i = runs.len() % seeds.len();
        let run = campaign::run(w, &cfgs[i]);
        kernel_ns.push(reference.time());
        gate.absorb(run.gate.clone());
        if let Some(c) = run.canonical() {
            digests[i].push(check::digest(&c));
            canonical[i] = Some(c);
        }
        runs.push(run);
        let typical = median(&runs.iter().map(|r| r.wall_ns as f64).collect::<Vec<_>>());
        if start.elapsed() + Duration::from_nanos(typical as u64) > budget {
            break;
        }
    }
    for (seed, d) in seeds.iter().zip(&mut digests) {
        d.dedup();
        if d.len() > 1 {
            gate.absorb(Gate::failure(format!(
                "campaigns of one run disagree on seed {seed}: digests {}",
                d.join(", ")
            )));
        }
    }
    // One `sweep` run, on the first seed, keeps the cross-check's cost
    // within the run's time limit.
    if let Some(c) = &canonical[0] {
        if let Err(e) = campaign::cross_check(w, seeds[0], &args.sweep, &args.out_dir, c) {
            gate.absorb(Gate::failure(e));
        }
    }

    // Each campaign's factor from host time to time at the reference
    // host speed.
    let scale: Vec<f64> = kernel_ns
        .windows(2)
        .map(|k| reference::REFERENCE_NS / ((k[0] + k[1]) / 2.0))
        .collect();
    let ok: Vec<_> = runs
        .iter()
        .zip(&scale)
        .filter(|(r, _)| r.result.is_some())
        .collect();
    let per = |f: &dyn Fn(&campaign::CampaignRun, f64) -> f64| {
        median(&ok.iter().map(|&(r, &k)| f(r, k)).collect::<Vec<_>>())
    };
    let metrics = if ok.is_empty() {
        Vec::new()
    } else {
        vec![
            (
                "records_per_s".to_string(),
                per(&|r, k| r.records as f64 / ((r.wall_ns - r.setup_ns) as f64 * k / 1e9)),
            ),
            (
                "campaign_s".to_string(),
                per(&|r, k| r.wall_ns as f64 * k / 1e9),
            ),
            (
                "setup_s".to_string(),
                per(&|r, k| r.setup_ns as f64 * k / 1e9),
            ),
            (
                "cpu_ns_per_record".to_string(),
                per(&|r, k| r.cpu_ns as f64 * k / r.records as f64),
            ),
            (
                "peak_rss_mb".to_string(),
                procfs::peak_rss_kb() as f64 / 1024.0,
            ),
        ]
    };
    let campaigns = runs
        .iter()
        .zip(&scale)
        .map(|(r, &k)| {
            Value::Obj(vec![
                ("wall_ns".into(), Value::U64(r.wall_ns)),
                ("setup_ns".into(), Value::U64(r.setup_ns)),
                ("cpu_ns".into(), Value::U64(r.cpu_ns)),
                ("records".into(), Value::U64(r.records)),
                ("scale".into(), Value::F64(k)),
            ])
        })
        .collect();
    Outcome {
        gate,
        metrics,
        detail: vec![
            ("campaigns".into(), Value::Arr(campaigns)),
            (
                "seeds".into(),
                Value::Arr(seeds.iter().map(|&s| Value::U64(s)).collect()),
            ),
            (
                "digests".into(),
                Value::Arr(
                    digests
                        .iter()
                        .map(|d| Value::Str(d.first().cloned().unwrap_or_default()))
                        .collect(),
                ),
            ),
        ],
    }
}

/// `--trace 1`: one untraced campaign (cross-checked), then the ledger.
fn traced(w: &Workload, args: &Args) -> Outcome {
    let cfg = w.cfg(args.seed);
    let run = campaign::run(w, &cfg);
    let mut gate = run.gate.clone();
    let canonical = run.canonical();
    if let Some(c) = &canonical {
        if let Err(e) = campaign::cross_check(w, args.seed, &args.sweep, &args.out_dir, c) {
            gate.absorb(Gate::failure(e));
        }
    }
    let ledger = ledger::run(w, &cfg, &run, gate);
    let spans = args
        .out_dir
        .join(format!("spans-{}-seed{}.json", w.name, args.seed));
    let written = serde_json::to_string_pretty(&ledger.spans)
        .map_err(|e| e.to_string())
        .and_then(|s| std::fs::write(&spans, s).map_err(|e| e.to_string()));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", spans.display());
    }
    Outcome {
        gate: ledger.gate,
        metrics: ledger.metrics,
        detail: vec![
            (
                "digest".into(),
                Value::Str(canonical.as_deref().map(check::digest).unwrap_or_default()),
            ),
            (
                "access_span_cost_ns".into(),
                Value::F64(ledger.access_span_cost_ns),
            ),
            ("spans_file".into(), Value::Str(spans.display().to_string())),
        ],
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let defs = if trace {
        names::per_layer()
    } else {
        names::end_to_end()
    };
    let correct = outcome.gate.failed == 0 && !outcome.metrics.is_empty();
    let mut metrics = Vec::new();
    if correct {
        if outcome.metrics.len() != defs.len() {
            return Err(format!(
                "{} metrics measured, {} defined",
                outcome.metrics.len(),
                defs.len()
            ));
        }
        for def in &defs {
            let (_, value) = outcome
                .metrics
                .iter()
                .find(|(n, _)| *n == def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is {value}", def.name));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                def.name, def.unit
            ));
        }
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.gate.attempted.max(1),
        outcome.gate.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let Some(w) = Workload::by_name(&args.workload, nproc) else {
        eprintln!(
            "error: unknown workload {:?} (valid: {})\n{USAGE}",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("error: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(1);
    }

    let wall = Instant::now();
    let cpu0 = procfs::cpu_ns();
    let calibration = calibrate(w.threads);
    let outcome = if args.trace {
        traced(&w, &args)
    } else {
        measure(&w, &args)
    };
    for p in &outcome.gate.problems {
        eprintln!("check failed: {p}");
    }

    let mut report = vec![
        ("workload".to_string(), Value::Str(w.name.into())),
        ("seed".into(), Value::U64(args.seed)),
        ("trace".into(), Value::Bool(args.trace)),
        (
            "fingerprint".into(),
            Value::Obj(vec![
                ("available_parallelism".into(), Value::U64(nproc as u64)),
                ("threads".into(), Value::U64(w.threads as u64)),
                (
                    "calibration_ns".into(),
                    Value::Arr(calibration.iter().map(|&n| Value::U64(n)).collect()),
                ),
                (
                    "run_wall_s".into(),
                    Value::F64(wall.elapsed().as_secs_f64()),
                ),
                (
                    "run_cpu_s".into(),
                    Value::F64((procfs::cpu_ns() - cpu0) as f64 / 1e9),
                ),
            ]),
        ),
        (
            "problems".into(),
            Value::Arr(
                outcome
                    .gate
                    .problems
                    .iter()
                    .map(|p| Value::Str(p.clone()))
                    .collect(),
            ),
        ),
    ];
    report.extend(outcome.detail.iter().cloned());
    let report = serde_json::to_string(&Value::Obj(report)).expect("report serializes");
    let path = args.out_dir.join(format!(
        "report-{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, &report) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
    match result_line(&outcome, args.trace) {
        Ok(line) => {
            println!("{report}");
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_malformed_ones_are_rejected() {
        let a = args(&[
            "--workload",
            "dram-stream",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
            "--sweep",
            "sweep",
            "--out-dir",
            "out",
        ])
        .expect("valid arguments");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("dram-stream", 7, 10, true)
        );
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
        assert!(args(&["--seed", "1"]).is_err(), "missing flags are errors");
    }

    #[test]
    fn runs_cycle_through_distinct_seeds_derived_from_the_seed() {
        assert_eq!(run_seeds(7), vec![28, 29, 30, 31]);
        assert_eq!(run_seeds(7), run_seeds(7));
        assert!(run_seeds(8).iter().all(|s| !run_seeds(7).contains(s)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_carries_every_defined_metric_or_none() {
        let metrics: Vec<(String, f64)> = names::end_to_end()
            .into_iter()
            .enumerate()
            .map(|(i, m)| (m.name, 1.5 + i as f64))
            .collect();
        let ok = Outcome {
            gate: Gate {
                attempted: 8,
                ..Gate::default()
            },
            metrics: metrics.clone(),
            detail: Vec::new(),
        };
        let line = result_line(&ok, false).expect("complete metrics render");
        let v = serde_json::parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let Some(Value::Obj(m)) = v.get("metrics") else {
            panic!("metrics object")
        };
        assert_eq!(m.len(), names::end_to_end().len());
        assert!(result_line(&ok, true).is_err(), "per-layer names missing");

        let failed = Outcome {
            gate: Gate::failure("x".into()),
            metrics,
            detail: Vec::new(),
        };
        let v = serde_json::parse(&result_line(&failed, false).unwrap()).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("failed"), Some(&Value::U64(1)));
    }
}
