//! The traced run: host time per layer, from spans recorded around the
//! benchmark's own calls into each layer.
//!
//! Every design of [`LEDGER_DESIGNS`] runs on each trace workload of
//! the grid twice from one frozen artifact: once untraced through
//! `run_experiment_with_source` (the reference, and the denominator of
//! `trace_overhead`), once traced. The traced cell drives
//! `unison_sim::System` itself with the runner's warmup/measurement
//! split, wrapping the design in [`TimedCache`]: every
//! `DramCacheModel::access` (the `core` layer, DRAM calls included) is
//! timed into a [`Histogram`], and for NoCache and Ideal the request
//! stream is logged and then replayed straight into a fresh `DramModel`
//! to time the `dram` layer. The replay cursor is wrapped only to count
//! the records it yields.
//!
//! A trace record decodes in about as long as it takes to read the
//! clock, so the `trace` layer is timed as a replay-only pass over each
//! artifact rather than per record. `sim.dispatch_ns_per_record` is the
//! untraced cell time less the replay and access self times, per record
//! consumed, so the three layers add up to the untraced cell. What an
//! empty access span measures ([`access_span_cost_ns`]) is subtracted
//! from every access span.
//!
//! Per-access spans are aggregated in memory (histogram and sums); the
//! freeze, replay-pass, cell and DRAM-replay spans are kept whole and
//! written out at the end.
//!
//! A traced cell must reproduce the reference's `CacheStats`, both
//! `DramStats`, instructions and elapsed time bit for bit, and a DRAM
//! replay the device statistics it recorded; otherwise the ledger
//! reports no layer numbers.

use std::hint::black_box;
use std::time::Instant;

use serde::Value;
use unison_core::{
    AccessOutcome, CacheAccess, CacheStats, DramCacheModel, MemPorts, Request, BLOCK_BYTES,
};
use unison_dram::{cpu_cycles_to_ps, Completion, DramStats, Op, Ps, RowCol};
use unison_harness::pool::parallel_map;
use unison_harness::stats::geomean;
use unison_sim::{run_experiment_with_source, Design, RunResult, SimConfig, System, TraceSource};
use unison_trace::{TraceArtifact, TraceRecord, WorkloadSpec};

use crate::campaign::CampaignRun;
use crate::check::Gate;
use crate::hist::Histogram;
use crate::names::predictor_metrics;
use crate::workload::{metric_key, Workload, LEDGER_DESIGNS};

/// Controller cycles NoCache adds before its off-chip access.
const NOCACHE_CTRL_CYCLES: u64 = 1;
/// Controller cycles Ideal adds before its stacked access.
const IDEAL_CTRL_CYCLES: u64 = 2;
/// Blocks per stacked-DRAM row in Ideal's address mapping.
const IDEAL_ROW_BLOCKS: u64 = 128;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A design wrapped so every `access` is timed, and (for the designs
/// whose DRAM request stream is replayed) logged.
struct TimedCache<C> {
    inner: C,
    access: Histogram,
    /// `(arrival time, block address | is_write)` per access.
    log: Option<Vec<(Ps, u64)>>,
    /// Accesses logged before the warmup boundary reset the statistics.
    boundary: usize,
}

impl<C: DramCacheModel> TimedCache<C> {
    fn new(inner: C, log: Option<Vec<(Ps, u64)>>) -> Self {
        TimedCache {
            inner,
            access: Histogram::default(),
            log,
            boundary: 0,
        }
    }
}

impl<C: DramCacheModel> DramCacheModel for TimedCache<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn access(&mut self, now: Ps, req: &Request, mem: &mut MemPorts) -> CacheAccess {
        let start = Instant::now();
        let out = self.inner.access(now, req, mem);
        self.access.record(ns_since(start));
        if let Some(log) = &mut self.log {
            log.push((
                now,
                (req.addr & !(BLOCK_BYTES - 1)) | u64::from(req.is_write),
            ));
        }
        out
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.boundary = self.log.as_ref().map_or(0, Vec::len);
    }
}

/// A record iterator that counts the records it yields.
struct CountedReplay<I> {
    inner: I,
    reads: u64,
}

impl<I: Iterator<Item = TraceRecord>> Iterator for CountedReplay<I> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        let rec = self.inner.next();
        self.reads += u64::from(rec.is_some());
        rec
    }
}

/// A design that does nothing, for timing the span around `access`.
struct NoopCache(CacheStats);

impl DramCacheModel for NoopCache {
    fn name(&self) -> &'static str {
        "Noop"
    }
    fn capacity_bytes(&self) -> u64 {
        0
    }
    fn access(&mut self, now: Ps, _: &Request, _: &mut MemPorts) -> CacheAccess {
        CacheAccess {
            outcome: AccessOutcome::Hit,
            critical_ps: now,
            done_ps: now,
        }
    }
    fn stats(&self) -> &CacheStats {
        &self.0
    }
    fn reset_stats(&mut self) {}
}

/// Mean span around an `access` that does nothing, wrapped exactly as
/// the traced cell wraps the real one: what the span adds to the time it
/// measures, in nanoseconds. The least of several batch means, since a
/// busy host only ever adds to it.
fn access_span_cost_ns() -> f64 {
    const BATCHES: usize = 10;
    const N: u64 = 200_000;
    let mut mem = MemPorts::paper_default();
    let req = Request {
        core: 0,
        pc: 0,
        addr: 0,
        is_write: false,
    };
    (0..BATCHES)
        .map(|_| {
            let mut cache = TimedCache::new(
                Box::new(NoopCache(CacheStats::default())) as Box<dyn DramCacheModel>,
                None,
            );
            for now in 0..N {
                black_box(cache.access(now, black_box(&req), &mut mem));
            }
            cache.access.mean()
        })
        .fold(f64::INFINITY, f64::min)
}

/// One DRAM device's replay of a logged request stream.
#[derive(Default, Clone, Copy)]
struct DeviceReplay {
    span: (u64, u64),
    accesses: u64,
    /// Statistics over the measurement region (reset at the boundary,
    /// as the traced run reset them).
    stats: DramStats,
}

/// Replays `log` through `step`, calling `reset` at `boundary`, and
/// returns the span it took from `epoch`.
fn replay_log(
    log: &[(Ps, u64)],
    boundary: usize,
    mem: &mut MemPorts,
    epoch: Instant,
    reset: fn(&mut MemPorts),
    step: impl Fn(&mut MemPorts, Ps, Op, u64) -> Completion,
) -> (u64, u64) {
    let op = |a: u64| if a & 1 == 1 { Op::Write } else { Op::Read };
    let start = ns_since(epoch);
    for &(now, a) in &log[..boundary] {
        black_box(step(mem, now, op(a), a & !1));
    }
    reset(mem);
    for &(now, a) in &log[boundary..] {
        black_box(step(mem, now, op(a), a & !1));
    }
    (start, ns_since(epoch))
}

/// Replays NoCache's log into the off-chip device (`access_addr`) or
/// Ideal's into the stacked one (`access` at Ideal's row/column), as
/// their `access` calls the device.
fn replay_dram(
    design: Design,
    log: &[(Ps, u64)],
    boundary: usize,
    cfg: &SimConfig,
    epoch: Instant,
) -> DeviceReplay {
    let mut mem = cfg.system.mem_ports();
    let bytes = BLOCK_BYTES as u32;
    let (span, stats) = match design {
        Design::NoCache => {
            let delay = cpu_cycles_to_ps(NOCACHE_CTRL_CYCLES);
            let span = replay_log(
                log,
                boundary,
                &mut mem,
                epoch,
                |m| m.offchip.reset_stats(),
                |m, now, op, block| m.offchip.access_addr(now + delay, op, block, bytes),
            );
            (span, *mem.offchip.stats())
        }
        Design::Ideal => {
            let delay = cpu_cycles_to_ps(IDEAL_CTRL_CYCLES);
            let span = replay_log(
                log,
                boundary,
                &mut mem,
                epoch,
                |m| m.stacked.reset_stats(),
                |m, now, op, block| {
                    let bn = block / BLOCK_BYTES;
                    let rc = RowCol::new(
                        bn / IDEAL_ROW_BLOCKS,
                        ((bn % IDEAL_ROW_BLOCKS) * BLOCK_BYTES) as u32,
                    );
                    m.stacked.access(now + delay, op, rc, bytes)
                },
            );
            (span, *mem.stacked.stats())
        }
        other => unreachable!("{} logs no DRAM stream", other.name()),
    };
    DeviceReplay {
        span,
        accesses: log.len() as u64,
        stats,
    }
}

/// One design on one trace workload, untraced and traced.
struct LedgerCell {
    design: Design,
    spec: usize,
    untraced_ns: u64,
    /// The traced cell span, from the ledger's epoch.
    span: (u64, u64),
    records_read: u64,
    consumed: u64,
    access: Histogram,
    reference: RunResult,
    dram: Option<DeviceReplay>,
    problems: Vec<String>,
}

/// Runs `design` over `artifact` untraced, then traced, and checks that
/// both (and the DRAM replay) agree.
fn ledger_cell(
    design: Design,
    spec_index: usize,
    spec: &WorkloadSpec,
    w: &Workload,
    cfg: &SimConfig,
    artifact: &TraceArtifact,
    epoch: Instant,
) -> LedgerCell {
    let start = Instant::now();
    let reference =
        run_experiment_with_source(design, w.size, spec, cfg, TraceSource::Replay(artifact));
    let untraced_ns = ns_since(start);

    let plan = cfg.trace_plan(spec, w.size);
    let log = matches!(design, Design::NoCache | Design::Ideal)
        .then(|| Vec::with_capacity(plan.total as usize));
    let inner = design.build_scaled(cfg.scaled_cache_bytes(w.size), w.size.max(1), &cfg.system);
    let mut sys = System::new(
        cfg.system.resolved_cores(spec) as usize,
        TimedCache::new(inner, log),
        cfg.system.mem_ports(),
        cfg.system.core,
    );
    let mut trace = CountedReplay {
        inner: artifact.replay(),
        reads: 0,
    };
    let t0 = ns_since(epoch);
    let warmup = (plan.total as f64 * cfg.warmup_fraction) as u64;
    let warmed = sys.run(&mut trace, warmup);
    let before = sys.progress();
    sys.reset_measurement();
    let measured = sys.run(&mut trace, plan.total - warmup);
    let after = sys.progress();
    let span = (t0, ns_since(epoch));

    let instructions = after.instructions - before.instructions;
    let elapsed_ps = after.elapsed_ps.saturating_sub(before.elapsed_ps).max(1);
    let (timed, mem) = sys.into_parts();
    let mut problems = Vec::new();
    let mut expect = |what: &str, same: bool| {
        if !same {
            problems.push(format!("traced {what} differs from the untraced run"));
        }
    };
    expect(
        "record count",
        warmed == warmup && measured == reference.measured_accesses,
    );
    expect("CacheStats", *timed.stats() == reference.cache);
    expect(
        "stacked DramStats",
        *mem.stacked.stats() == reference.stacked,
    );
    expect(
        "off-chip DramStats",
        *mem.offchip.stats() == reference.offchip,
    );
    expect("instructions", instructions == reference.instructions);
    expect("elapsed_ps", elapsed_ps == reference.elapsed_ps);

    let dram = timed.log.as_ref().map(|log| {
        let replay = replay_dram(design, log, timed.boundary, cfg, epoch);
        let recorded = if design == Design::NoCache {
            mem.offchip.stats()
        } else {
            mem.stacked.stats()
        };
        if replay.stats != *recorded {
            problems.push("DRAM replay differs from the recorded device statistics".into());
        }
        replay
    });
    LedgerCell {
        design,
        spec: spec_index,
        untraced_ns,
        span,
        records_read: trace.reads,
        consumed: warmed + measured,
        access: timed.access,
        reference,
        dram,
        problems,
    }
}

/// Sums of the counters behind the ratio metrics.
#[derive(Default)]
struct Totals {
    accesses: u64,
    hits: u64,
    dram_ops: u64,
    fp_covered: u64,
    fp_actual: u64,
    fp_over: u64,
    fp_predicted: u64,
    wp_correct: u64,
    wp_lookups: u64,
    mp_correct: u64,
    mp_total: u64,
}

impl Totals {
    fn add(&mut self, c: &LedgerCell) {
        let r = &c.reference;
        let s = &r.cache;
        self.accesses += s.accesses;
        self.hits += s.hits;
        self.dram_ops += r.stacked.reads + r.stacked.writes + r.offchip.reads + r.offchip.writes;
        self.fp_covered += s.fp_covered_blocks;
        self.fp_actual += s.fp_actual_blocks;
        self.fp_over += s.fp_over_blocks;
        self.fp_predicted += s.fp_predicted_blocks;
        self.wp_correct += s.wp_correct;
        self.wp_lookups += s.wp_lookups;
        self.mp_correct += s.mp_correct;
        self.mp_total += s.mp_correct + s.mp_false_miss + s.mp_false_hit;
    }

    fn predictor(&self, metric: &str) -> f64 {
        let (num, den) = match metric {
            "fp_accuracy" => (self.fp_covered, self.fp_actual),
            "fp_overfetch" => (self.fp_over, self.fp_predicted),
            "wp_accuracy" => (self.wp_correct, self.wp_lookups),
            "mp_accuracy" => (self.mp_correct, self.mp_total),
            other => unreachable!("unknown predictor metric {other}"),
        };
        ratio(num, den)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Spans of the `trace` layer: one freeze and one replay-only pass per
/// artifact.
struct TraceSpans {
    freeze: Vec<(u64, u64)>,
    pass: Vec<(u64, u64)>,
    records: u64,
}

impl TraceSpans {
    fn total(spans: &[(u64, u64)]) -> f64 {
        spans.iter().map(|(a, b)| b - a).sum::<u64>() as f64
    }
}

/// The per-layer ledger of one workload.
pub struct Ledger {
    /// `(name, value)` for every per-layer metric; empty when a check
    /// failed.
    pub metrics: Vec<(String, f64)>,
    /// Campaign gate, fidelity checks and cross-check together.
    pub gate: Gate,
    /// The spans, for the spans file.
    pub spans: Value,
    /// Cost of an empty access span, subtracted from every access span.
    pub access_span_cost_ns: f64,
}

/// Runs the ledger for `w` at `cfg`, given one untraced campaign over
/// its grid (for the `harness` layer and the grid cells' reference).
pub fn run(w: &Workload, cfg: &SimConfig, campaign: &CampaignRun, mut gate: Gate) -> Ledger {
    let epoch = Instant::now();
    let cost = access_span_cost_ns();

    let mut trace = TraceSpans {
        freeze: Vec::new(),
        pass: Vec::new(),
        records: 0,
    };
    let artifacts: Vec<TraceArtifact> = w
        .specs
        .iter()
        .map(|spec| {
            let plan = cfg.trace_plan(spec, w.size);
            let t0 = ns_since(epoch);
            let a = TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);
            let t1 = ns_since(epoch);
            a.replay().for_each(|r| {
                black_box(r);
            });
            trace.freeze.push((t0, t1));
            trace.pass.push((t1, ns_since(epoch)));
            trace.records += a.len() as u64;
            a
        })
        .collect();

    let items: Vec<(Design, usize)> = LEDGER_DESIGNS
        .iter()
        .flat_map(|&d| (0..w.specs.len()).map(move |s| (d, s)))
        .collect();
    let cells = parallel_map(&items, w.threads, |&(design, s)| {
        ledger_cell(design, s, &w.specs[s], w, cfg, &artifacts[s], epoch)
    });
    drop(artifacts);

    // Grid cells must also match what the campaign computed.
    let json = |run: &RunResult| serde_json::to_string(run).expect("run serializes");
    let mut fidelity = Gate {
        attempted: cells.len(),
        ..Gate::default()
    };
    for c in &cells {
        let mut problems = c.problems.clone();
        let name = c.design.name();
        let spec = w.specs[c.spec].name;
        let campaign_cell = campaign
            .result
            .as_ref()
            .and_then(|r| r.get(spec, &name, w.size));
        if campaign_cell.is_some_and(|cell| json(&cell.run) != json(&c.reference)) {
            problems.push("campaign cell differs from the direct run".into());
        }
        if !problems.is_empty() {
            fidelity.failed += 1;
            fidelity
                .problems
                .push(format!("ledger {name} on {spec}: {}", problems.join("; ")));
        }
    }
    gate.absorb(fidelity);

    let spans = spans_value(w, &cells, &trace, cost);
    let metrics = if gate.failed == 0 {
        metrics(w, campaign, &cells, &trace, cost, &gate)
    } else {
        Vec::new()
    };
    Ledger {
        metrics,
        gate,
        spans,
        access_span_cost_ns: cost,
    }
}

fn metrics(
    w: &Workload,
    campaign: &CampaignRun,
    cells: &[LedgerCell],
    trace: &TraceSpans,
    cost: f64,
    gate: &Gate,
) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: String, v: f64| out.push((name, v));

    let result = campaign
        .result
        .as_ref()
        .expect("a ledger with no failures has a campaign result");
    let timing = result.timing;
    let cell_wall: u64 = result.cells.iter().map(|c| c.wall_ns).sum();
    let threads = w.threads as f64;
    put(
        "harness.prefill_s".into(),
        timing.trace_prefill_ns as f64 / 1e9,
    );
    // The baseline phase plus the campaign's own bookkeeping (plan
    // lowering, result assembly): all of its time outside the prefill
    // and cells phases. Plain campaigns have no baseline phase, so this
    // is their harness overhead alone.
    put(
        "harness.baseline_s".into(),
        campaign
            .wall_ns
            .saturating_sub(timing.trace_prefill_ns + timing.cells_ns) as f64
            / 1e9,
    );
    put("harness.cells_s".into(), timing.cells_ns as f64 / 1e9);
    put(
        "harness.pool_utilisation".into(),
        cell_wall as f64 / (threads * timing.cells_ns.max(1) as f64),
    );
    put(
        "harness.cpu_wall_ratio".into(),
        campaign.cpu_ns as f64 / (threads * campaign.wall_ns.max(1) as f64),
    );
    put(
        "harness.trace_memo_hits".into(),
        result.trace_memo_hits as f64,
    );
    put(
        "harness.baseline_memo_hits".into(),
        result.baseline_hits as f64,
    );

    // trace and sim layers: the workload's own grid cells.
    let records = trace.records as f64;
    let replay_ns = TraceSpans::total(&trace.pass) / records;
    let grid: Vec<&LedgerCell> = cells
        .iter()
        .filter(|c| w.designs.contains(&c.design))
        .collect();
    let sum = |f: &dyn Fn(&LedgerCell) -> u64| grid.iter().map(|c| f(c)).sum::<u64>() as f64;
    let reads = sum(&|c| c.records_read);
    let access_self = grid.iter().map(|c| c.access.sum()).sum::<u128>() as f64
        - cost * sum(&|c| c.access.count());
    put(
        "trace.generate_ns_per_record".into(),
        TraceSpans::total(&trace.freeze) / records,
    );
    put("trace.replay_ns_per_record".into(), replay_ns);
    put("trace.records_read".into(), reads);
    put(
        "sim.dispatch_ns_per_record".into(),
        ((sum(&|c| c.untraced_ns) - replay_ns * reads - access_self) / sum(&|c| c.consumed))
            .max(0.0),
    );

    // core and predictors: every ledger design, over the workload's traces.
    let by_design = |d: Design| cells.iter().filter(move |c| c.design == d);
    let corrected = |v: f64| (v - cost).max(0.0);
    for design in LEDGER_DESIGNS {
        let key = metric_key(design);
        let mut hist = Histogram::default();
        let mut t = Totals::default();
        for c in by_design(design) {
            hist.merge(&c.access);
            t.add(c);
        }
        put(format!("core.{key}.access_ns_mean"), corrected(hist.mean()));
        put(
            format!("core.{key}.access_ns_p50"),
            corrected(hist.quantile(0.5)),
        );
        put(
            format!("core.{key}.access_ns_p99"),
            corrected(hist.quantile(0.99)),
        );
        put(format!("core.{key}.hit_ratio"), ratio(t.hits, t.accesses));
        put(
            format!("core.{key}.dram_ops_per_access"),
            ratio(t.dram_ops, t.accesses),
        );
        for m in predictor_metrics(design) {
            put(format!("predictors.{key}.{m}"), t.predictor(m));
        }
    }
    // dram layer: the logged Ideal (stacked) and NoCache (off-chip)
    // streams replayed into fresh devices.
    for (dev, design) in [("stacked", Design::Ideal), ("offchip", Design::NoCache)] {
        let (mut ns, mut n, mut row_hits, mut ops) = (0, 0, 0, 0);
        for r in by_design(design).filter_map(|c| c.dram) {
            ns += r.span.1 - r.span.0;
            n += r.accesses;
            row_hits += r.stats.row_hits;
            ops += r.stats.reads + r.stats.writes;
        }
        put(format!("dram.{dev}.ns_per_access"), ratio(ns, n));
        put(format!("dram.{dev}.row_hit_ratio"), ratio(row_hits, ops));
    }

    // model: simulated speedups over NoCache on the same traces.
    for design in LEDGER_DESIGNS.into_iter().filter(|d| *d != Design::NoCache) {
        let speedups: Vec<f64> = by_design(design)
            .filter_map(|c| {
                by_design(Design::NoCache)
                    .find(|b| b.spec == c.spec)
                    .map(|b| c.reference.uipc / b.reference.uipc)
            })
            .collect();
        put(
            format!("model.{}.speedup_geomean", metric_key(design)),
            geomean(&speedups).unwrap_or(0.0),
        );
    }

    let traced: u64 = cells.iter().map(|c| c.span.1 - c.span.0).sum();
    let untraced: u64 = cells.iter().map(|c| c.untraced_ns).sum();
    put("trace_overhead".into(), ratio(traced, untraced));
    put(
        "error_rate".into(),
        ratio(gate.failed as u64, gate.attempted as u64),
    );
    out
}

/// The spans of the traced run, each with its start and end from the
/// ledger's epoch and the id of the span it belongs to. Per-access
/// spans appear as one aggregate child of their cell (count, total and
/// percentiles).
fn spans_value(w: &Workload, cells: &[LedgerCell], trace: &TraceSpans, cost: f64) -> Value {
    let obj = |pairs: Vec<(&str, Value)>| {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    };
    let span = |id: u64, parent: Option<u64>, name: &str, (start, end): (u64, u64)| {
        let mut pairs = vec![
            ("id", Value::U64(id)),
            ("name", Value::Str(name.into())),
            ("start_ns", Value::U64(start)),
            ("end_ns", Value::U64(end)),
        ];
        if let Some(p) = parent {
            pairs.push(("parent", Value::U64(p)));
        }
        pairs
    };
    let mut spans = Vec::new();
    let mut next_id = 0u64;
    let mut id = || {
        next_id += 1;
        next_id
    };
    for (i, spec) in w.specs.iter().enumerate() {
        let workload = ("workload", Value::Str(spec.name.to_string()));
        let mut freeze = span(id(), None, "trace.freeze", trace.freeze[i]);
        freeze.push(workload.clone());
        spans.push(obj(freeze));
        let mut pass = span(id(), None, "trace.replay_pass", trace.pass[i]);
        pass.push(workload);
        spans.push(obj(pass));
    }
    for c in cells {
        let cell_id = id();
        let mut cell = span(cell_id, None, "sim.cell", c.span);
        cell.extend([
            ("design", Value::Str(c.design.name())),
            ("workload", Value::Str(w.specs[c.spec].name.to_string())),
            ("untraced_ns", Value::U64(c.untraced_ns)),
            ("records_consumed", Value::U64(c.consumed)),
            ("records_read", Value::U64(c.records_read)),
        ]);
        spans.push(obj(cell));
        spans.push(obj(vec![
            ("id", Value::U64(id())),
            ("parent", Value::U64(cell_id)),
            ("name", Value::Str("core.access".into())),
            ("count", Value::U64(c.access.count())),
            ("total_ns", Value::U64(c.access.sum() as u64)),
            ("p50_ns", Value::F64(c.access.quantile(0.5))),
            ("p99_ns", Value::F64(c.access.quantile(0.99))),
        ]));
        if let Some(d) = c.dram {
            let mut dram = span(id(), Some(cell_id), "dram.replay", d.span);
            dram.push(("accesses", Value::U64(d.accesses)));
            spans.push(obj(dram));
        }
    }
    obj(vec![
        ("workload", Value::Str(w.name.into())),
        ("access_span_cost_ns", Value::F64(cost)),
        ("spans", Value::Arr(spans)),
    ])
}
