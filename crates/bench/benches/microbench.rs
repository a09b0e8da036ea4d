//! Criterion microbenchmarks for the hot paths of the simulator stack:
//! predictor operations, the DRAM timing engine, each cache design's
//! access path, trace generation throughput, and the dispatch loop.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use unison_core::meta::reference::NaiveStore;
use unison_core::{
    AccessOutcome, AlloyCache, AlloyConfig, CacheAccess, CacheStats, DramCacheModel,
    FootprintCache, FootprintConfig, MemPorts, MetaStore, NoCache, PageMeta, Replacement, Request,
    UnisonCache, UnisonConfig,
};
use unison_dram::{Completion, DramConfig, DramModel, Location, Op, Ps, RouteMap, RowCol};
use unison_predictors::{Footprint, FootprintTable, MissPredictor, WayPredictor};
use unison_sim::{
    run_experiment_with_source, ArtifactColumns, Design, DispatchSession, SimConfig, System,
    TraceSource,
};
use unison_trace::{workloads, TraceArtifact, WorkloadGen};

fn bench_predictors(c: &mut Criterion) {
    let mut g = c.benchmark_group("predictors");
    g.bench_function("footprint_table_predict", |b| {
        let mut t = FootprintTable::paper_default(15);
        for i in 0..1000u64 {
            t.train(i, (i % 15) as u32, Footprint::from_mask(i, 15));
        }
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(t.predict(i % 1000, (i % 15) as u32))
        });
    });
    g.bench_function("footprint_table_train", |b| {
        let mut t = FootprintTable::paper_default(15);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            t.train(i % 4096, (i % 15) as u32, Footprint::from_mask(i, 15));
        });
    });
    g.bench_function("way_predictor", |b| {
        let mut wp = WayPredictor::new(12, 4);
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let slot = wp.slot(i % 10_000);
            let w = wp.predict(slot);
            wp.update(slot, (i % 4) as u32);
            black_box(w)
        });
    });
    g.bench_function("miss_predictor", |b| {
        let mut mp = MissPredictor::paper_default();
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let slot = mp.slot((i % 16) as u32, i % 997);
            let p = mp.predict(slot);
            mp.update(slot, i.is_multiple_of(3));
            black_box(p)
        });
    });
    g.finish();
}

/// Sets/ways geometry of the metadata-walk benchmarks: a 1 GB Unison
/// cache's worth of sets at the paper's 4-way associativity.
const META_SETS: u64 = 1 << 18;
const META_WAYS: u32 = 4;

fn fill_meta_stores() -> (MetaStore, NaiveStore) {
    let mut soa = MetaStore::paged(META_SETS, META_WAYS, Replacement::AgingLru);
    let mut naive = NaiveStore::paged(META_SETS, META_WAYS, Replacement::AgingLru);
    for set in 0..META_SETS {
        for w in 0..META_WAYS {
            let meta = PageMeta {
                tag: u64::from(w) * 3 + (set % 5),
                present: 0x7ff,
                demanded: 0x0f1,
                dirty: 0x011,
                predicted: 0x7ff,
                pc: 0x400 + set,
                offset: (set % 15) as u8,
            };
            soa.install(set, w, meta);
            naive.install(set, w, meta);
            soa.touch(set, w, 0);
            naive.touch(set, w, 0);
        }
    }
    (soa, naive)
}

/// A stride that visits sets in cache-hostile pseudo-random order — the
/// set-index stream a real trace produces is similarly scattered.
fn meta_walk_set(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % META_SETS
}

/// The SoA probe/touch path against the pre-refactor nested-Vec walk:
/// the per-access hot loop of every simulation. Compare the two
/// `probe_touch` lines directly; the SoA line must not be slower (the
/// equivalence suite's `--include-ignored` perf test asserts this).
fn bench_meta(c: &mut Criterion) {
    let mut g = c.benchmark_group("meta");
    g.throughput(Throughput::Elements(1));
    let (mut soa, mut naive) = fill_meta_stores();
    g.bench_function("probe_touch_soa", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let set = meta_walk_set(i);
            let found = soa.probe_set(set, i % 16);
            if let Some(w) = found {
                soa.touch(set, w, 0);
            }
            black_box(found)
        });
    });
    g.bench_function("probe_touch_naive", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let set = meta_walk_set(i);
            let found = naive.probe_set(set, i % 16);
            if let Some(w) = found {
                naive.touch(set, w, 0);
            }
            black_box(found)
        });
    });
    g.bench_function("victim_scan_soa", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(soa.evict_victim(meta_walk_set(i)))
        });
    });
    g.bench_function("victim_scan_naive", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(naive.evict_victim(meta_walk_set(i)))
        });
    });
    g.finish();
}

/// A [`MetaStore`] with every way of every set installed — the
/// steady-state geometry the SIMD kernels scan.
fn filled_store(sets: u64, ways: u32) -> MetaStore {
    let mut store = MetaStore::paged(sets, ways, Replacement::AgingLru);
    for set in 0..sets {
        for w in 0..ways {
            store.install(
                set,
                w,
                PageMeta {
                    tag: u64::from(w) * 3 + (set % 5),
                    present: 0x7ff,
                    ..PageMeta::default()
                },
            );
            store.touch(set, w, 0);
        }
    }
    store
}

/// The vectorized (lane-parallel SWAR) metadata kernels against their
/// retained scalar references, at the paper-default 4-way geometry and
/// a wide 32-way one where lane parallelism matters most. The scalar
/// lines are the pre-vectorization loops kept as `*_scalar`; the
/// equivalence suite's nightly ratio assertion
/// (`vectorized_probe_beats_scalar_reference`) pins the win.
fn bench_meta_simd(c: &mut Criterion) {
    let mut g = c.benchmark_group("meta_simd");
    g.throughput(Throughput::Elements(1));
    for (ways, sets) in [(META_WAYS, META_SETS), (32u32, 1u64 << 14)] {
        let walk = move |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % sets;
        g.bench_function(&format!("probe_vectorized_{ways}way"), |b| {
            let store = filled_store(sets, ways);
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                black_box(store.probe_set(walk(i), i % 64))
            });
        });
        g.bench_function(&format!("probe_scalar_{ways}way"), |b| {
            let store = filled_store(sets, ways);
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                black_box(store.probe_set_scalar(walk(i), i % 64))
            });
        });
        g.bench_function(&format!("touch_vectorized_{ways}way"), |b| {
            let mut store = filled_store(sets, ways);
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                store.touch(walk(i), (i % u64::from(ways)) as u32, 0);
            });
        });
        g.bench_function(&format!("touch_scalar_{ways}way"), |b| {
            let mut store = filled_store(sets, ways);
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                store.touch_scalar(walk(i), (i % u64::from(ways)) as u32, 0);
            });
        });
        g.bench_function(&format!("victim_vectorized_{ways}way"), |b| {
            let store = filled_store(sets, ways);
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                black_box(store.evict_victim(walk(i)))
            });
        });
        g.bench_function(&format!("victim_scalar_{ways}way"), |b| {
            let store = filled_store(sets, ways);
            let mut i = 0u64;
            b.iter(|| {
                i = i.wrapping_add(1);
                black_box(store.evict_victim_scalar(walk(i)))
            });
        });
    }
    g.finish();
}

fn bench_dram(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram");
    g.throughput(Throughput::Elements(1));
    g.bench_function("stacked_access", |b| {
        let mut d = DramModel::new(DramConfig::stacked());
        let mut now = 0u64;
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            now += 1000;
            black_box(d.access(
                now,
                Op::Read,
                RowCol::new(i % 4096, ((i * 64) % 8128) as u32),
                64,
            ))
        });
    });
    g.finish();
}

/// The table-driven DRAM access fast path against the retained
/// div/mod + multiply reference, on the routing walk alone and on full
/// accesses in the two regimes that matter: pure row hits (the campaign
/// common case the tables optimize for) and a row-conflict mix (the
/// ACT/PRE slow path). The nightly equivalence assertion
/// (`fast_access_beats_reference_on_row_hits` in
/// `crates/dram/tests/model_properties.rs`) pins the row-hit win ≥1.15×.
/// `access_reference` exists only under the dram crate's `reference`
/// feature, which this crate's dev-dependency turns on. The group ends
/// with page fills as trains against the per-call loop.
fn bench_dram_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram_access");
    g.throughput(Throughput::Elements(1));

    // Routing alone: shift/mask RouteMap vs div/mod Location::route.
    // black_box the config so the reference's divisors stay runtime
    // values, as they are in campaign use.
    let cfg = black_box(DramConfig::stacked());
    let map = RouteMap::try_new(&cfg).expect("stacked geometry is pow2");
    g.bench_function("route_fast", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(map.flat(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20))
        });
    });
    g.bench_function("route_reference", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = i.wrapping_add(1);
            let loc = Location::route(i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 20, &cfg);
            black_box((
                loc.channel as usize,
                loc.flat_rank(&cfg),
                loc.flat_bank(&cfg),
            ))
        });
    });

    // Full accesses. Stacked has 32 banks total: cycling 32 rows keeps
    // every row open (pure hits); cycling 64 rows makes every bank
    // alternate between two rows (pure conflicts).
    let banks = u64::from(cfg.total_banks());
    for (label, rows) in [("row_hit", banks), ("conflict", banks * 2)] {
        // Both paths must agree bit for bit on the timed stream before
        // either is timed.
        let (mut fast, mut reference) = (DramModel::new(cfg.clone()), DramModel::new(cfg.clone()));
        for i in 1..=4096u64 {
            let rc = RowCol::new(i % rows, ((i * 64) % 8192) as u32);
            let now = i * 2_500;
            assert_eq!(
                fast.access(now, Op::Read, rc, 64),
                reference.access_reference(now, Op::Read, rc, 64),
                "{label}: fast path diverged from the reference at access {i}"
            );
        }
        assert_eq!(fast.stats(), reference.stats(), "{label}: stats diverged");
        assert_eq!(
            fast.energy(),
            reference.energy(),
            "{label}: energy diverged"
        );
        g.bench_function(&format!("access_{label}_fast"), |b| {
            let mut d = DramModel::new(cfg.clone());
            let (mut now, mut i) = (0u64, 0u64);
            b.iter(|| {
                i = i.wrapping_add(1);
                now += 2_500;
                black_box(d.access(
                    now,
                    Op::Read,
                    RowCol::new(i % rows, ((i * 64) % 8192) as u32),
                    64,
                ))
            });
        });
        g.bench_function(&format!("access_{label}_reference"), |b| {
            let mut d = DramModel::new(cfg.clone());
            let (mut now, mut i) = (0u64, 0u64);
            b.iter(|| {
                i = i.wrapping_add(1);
                now += 2_500;
                black_box(d.access_reference(
                    now,
                    Op::Read,
                    RowCol::new(i % rows, ((i * 64) % 8192) as u32),
                    64,
                ))
            });
        });
    }

    // Footprint fills: a 15-block Unison page and a 32-block Footprint
    // page, read off-chip and written into one stacked row, through one
    // session per device against one `access` call per block and device.
    for (label, blocks) in [("unison15", 15u32), ("footprint32", 32)] {
        same_on_both_paths(
            label,
            256,
            |mem, page, each| fill_session(mem, page * 200_000, page, blocks, each),
            |mem, page, each| fill_per_call(mem, page * 200_000, page, blocks, each),
        );
        g.bench_function(&format!("fill_session_{label}"), |b| {
            let mut mem = MemPorts::paper_default();
            let mut page = 0u64;
            b.iter(|| {
                page += 1;
                let mut acc = 0;
                fill_session(&mut mem, page * 200_000, page, blocks, |_, c| {
                    acc ^= c.last_data_ps
                });
                black_box(acc)
            });
        });
        g.bench_function(&format!("fill_per_call_{label}"), |b| {
            let mut mem = MemPorts::paper_default();
            let mut page = 0u64;
            b.iter(|| {
                page += 1;
                let mut acc = 0;
                fill_per_call(&mut mem, page * 200_000, page, blocks, |_, c| {
                    acc ^= c.last_data_ps
                });
                black_box(acc)
            });
        });
    }

    // A Unison write hit: a 32 B metadata read, a 64 B data read and a
    // 64 B store at the read's completion, all to the set's row.
    // `UnisonCache` issues the per-call form: the session form gained
    // nothing measurable per design, and this pair keeps the question
    // open to re-measure.
    same_on_both_paths(
        "unison_hit",
        4096,
        |mem, set, each| unison_hit_session(mem, set, each),
        |mem, set, each| unison_hit_per_call(mem, set, each),
    );
    g.bench_function("unison_hit_session", |b| {
        let mut mem = MemPorts::paper_default();
        let mut set = 0u64;
        b.iter(|| {
            set += 1;
            let mut acc = 0;
            unison_hit_session(&mut mem, set, |_, c| acc ^= c.last_data_ps);
            black_box(acc)
        });
    });
    g.bench_function("unison_hit_per_call", |b| {
        let mut mem = MemPorts::paper_default();
        let mut set = 0u64;
        b.iter(|| {
            set += 1;
            let mut acc = 0;
            unison_hit_per_call(&mut mem, set, |_, c| acc ^= c.last_data_ps);
            black_box(acc)
        });
    });
    g.finish();
}

/// Completions a microbench kernel hands out, with their device (0
/// off-chip, 1 stacked).
type Each<'a> = &'a mut dyn FnMut(usize, Completion);

/// Runs `n` rounds of a session kernel and its per-call twin on two
/// fresh port pairs and asserts every device sees the same completions
/// and ends with the same statistics and energy, before either is timed.
fn same_on_both_paths(
    label: &str,
    n: u64,
    session: impl Fn(&mut MemPorts, u64, Each),
    per_call: impl Fn(&mut MemPorts, u64, Each),
) {
    let (mut a, mut b) = (MemPorts::paper_default(), MemPorts::paper_default());
    for i in 0..n {
        let (mut got, mut want) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
        session(&mut a, i, &mut |d, c| got[d].push(c));
        per_call(&mut b, i, &mut |d, c| want[d].push(c));
        assert_eq!(got, want, "{label}: sessions diverged in round {i}");
    }
    for (x, y) in [(&a.offchip, &b.offchip), (&a.stacked, &b.stacked)] {
        assert_eq!(x.stats(), y.stats(), "{label}: stats diverged");
        assert_eq!(x.energy(), y.energy(), "{label}: energy diverged");
    }
}

/// Off-chip physical address of `block` of a `blocks`-block `page`.
fn fill_addr(page: u64, blocks: u32, block: u32) -> u64 {
    (page * u64::from(blocks) + u64::from(block)) * 64
}

/// Stacked location of `block` of `page`: each page owns one row.
fn fill_loc(page: u64, block: u32) -> RowCol {
    RowCol::new(page % 4096, block * 64)
}

/// A page fill as the designs issue it: one session per device, each
/// block read off-chip and written to the stacked row when its read
/// completes.
fn fill_session(
    mem: &mut MemPorts,
    now: Ps,
    page: u64,
    blocks: u32,
    mut each: impl FnMut(usize, Completion),
) {
    let row_col = mem.offchip.row_col();
    let (mut reads, mut writes) = (mem.offchip.session(), mem.stacked.session());
    for b in 0..blocks {
        let rd = reads.access(now, Op::Read, row_col(fill_addr(page, blocks, b)), 64);
        let wr = writes.access(rd.last_data_ps, Op::Write, fill_loc(page, b), 64);
        each(0, rd);
        each(1, wr);
    }
}

/// The same fill as one `access` call per block and device.
fn fill_per_call(
    mem: &mut MemPorts,
    now: Ps,
    page: u64,
    blocks: u32,
    mut each: impl FnMut(usize, Completion),
) {
    for b in 0..blocks {
        let rd = mem
            .offchip
            .access_addr(now, Op::Read, fill_addr(page, blocks, b), 64);
        let wr = mem
            .stacked
            .access(rd.last_data_ps, Op::Write, fill_loc(page, b), 64);
        each(0, rd);
        each(1, wr);
    }
}

/// The stacked row, metadata column and data column of a Unison set,
/// spread over rows so some rounds open a row and most find it open.
fn unison_hit_at(set: u64) -> (u64, u32, u32) {
    (
        set % 64,
        (set % 4) as u32 * 64,
        256 + (set % 60) as u32 * 64,
    )
}

/// A Unison write hit through one stacked session.
fn unison_hit_session(mem: &mut MemPorts, set: u64, mut each: impl FnMut(usize, Completion)) {
    let (row, meta, data) = unison_hit_at(set);
    let now = set * 20_000;
    let mut s = mem.stacked.session();
    let m = s.access(now, Op::Read, RowCol::new(row, meta), 32);
    let d = s.access(now, Op::Read, RowCol::new(row, data), 64);
    let w = s.access(d.last_data_ps, Op::Write, RowCol::new(row, data), 64);
    for c in [m, d, w] {
        each(1, c);
    }
}

/// The same write hit as three `access` calls.
fn unison_hit_per_call(mem: &mut MemPorts, set: u64, mut each: impl FnMut(usize, Completion)) {
    let (row, meta, data) = unison_hit_at(set);
    let now = set * 20_000;
    let m = mem
        .stacked
        .access(now, Op::Read, RowCol::new(row, meta), 32);
    let d = mem
        .stacked
        .access(now, Op::Read, RowCol::new(row, data), 64);
    let w = mem
        .stacked
        .access(d.last_data_ps, Op::Write, RowCol::new(row, data), 64);
    for c in [m, d, w] {
        each(1, c);
    }
}

fn bench_caches(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_access");
    g.throughput(Throughput::Elements(1));
    let trace: Vec<Request> = WorkloadGen::new(workloads::web_serving().scaled(64), 1)
        .take(100_000)
        .map(|r| Request {
            core: r.core,
            pc: r.pc,
            addr: r.addr,
            is_write: r.kind.is_write(),
        })
        .collect();

    g.bench_function("unison", |b| {
        let mut cache = UnisonCache::new(UnisonConfig::new(64 << 20));
        let mut mem = MemPorts::paper_default();
        let mut now = 0u64;
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % trace.len();
            now += 2000;
            black_box(cache.access(now, &trace[i], &mut mem))
        });
    });
    g.bench_function("alloy", |b| {
        let mut cache = AlloyCache::new(AlloyConfig::new(64 << 20));
        let mut mem = MemPorts::paper_default();
        let mut now = 0u64;
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % trace.len();
            now += 2000;
            black_box(cache.access(now, &trace[i], &mut mem))
        });
    });
    g.bench_function("footprint", |b| {
        let mut cache = FootprintCache::new(FootprintConfig::new(64 << 20));
        let mut mem = MemPorts::paper_default();
        let mut now = 0u64;
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % trace.len();
            now += 2000;
            black_box(cache.access(now, &trace[i], &mut mem))
        });
    });
    g.finish();
}

fn bench_tracegen(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Elements(1));
    // Generate vs replay, per record: the ratio is the headroom the
    // campaign trace store exploits by freezing each stream once.
    g.bench_function("workload_gen_next", |b| {
        let mut gen = WorkloadGen::new(workloads::tpch().scaled(8), 3);
        b.iter(|| black_box(gen.next()));
    });
    g.bench_function("artifact_replay_next", |b| {
        let artifact = TraceArtifact::freeze(&workloads::tpch().scaled(8), 3, 1_000_000);
        let mut replay = artifact.replay();
        b.iter(|| match replay.next() {
            Some(r) => black_box(Some(r)),
            None => {
                replay = artifact.replay(); // wrap around, stay zero-alloc
                black_box(replay.next())
            }
        });
    });
    // Freezing is generation plus packing. TPC-H's records come mostly
    // from dense scans that run on across regions; Data Analytics'
    // from single-region visits, so it pays each visit's setup (63
    // noise draws, two Zipf samples) far more often per record.
    for (name, spec) in [
        ("artifact_freeze_100k", workloads::tpch()),
        (
            "artifact_freeze_100k_data_analytics",
            workloads::data_analytics(),
        ),
    ] {
        let spec = spec.scaled(8);
        g.bench_function(name, |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed = seed.wrapping_add(1);
                black_box(TraceArtifact::freeze(&spec, seed, 100_000))
            });
        });
    }
    g.finish();
}

/// A cache that answers every access at once, so a run over it times
/// the dispatch layer alone: core selection, record decode and the core
/// clocks.
#[derive(Default)]
struct ZeroLatency {
    stats: CacheStats,
}

impl DramCacheModel for ZeroLatency {
    fn name(&self) -> &'static str {
        "ZeroLatency"
    }

    fn capacity_bytes(&self) -> u64 {
        0
    }

    fn access(&mut self, now: Ps, _req: &Request, _mem: &mut MemPorts) -> CacheAccess {
        self.stats.accesses += 1;
        CacheAccess {
            outcome: AccessOutcome::Hit,
            critical_ps: now,
            done_ps: now,
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

/// One 16-core experiment (warmup, then measurement) over one frozen
/// TPC-H artifact. `zero_latency_columns` runs the dispatch loop over
/// the artifact's per-core columns (the runner's replay path) against a
/// cache that costs nothing, so its time is the selection-plus-decode
/// path alone. The two NoCache runs add the off-chip DRAM model, fed
/// from the columns or by de-interleaving `artifact.replay()` through
/// `Buffered` rings (the `System::run(&mut iter)` path); they simulate
/// the same records in the same order, so their difference is the cost
/// of buffering.
fn bench_dispatch(c: &mut Criterion) {
    let cfg = SimConfig {
        accesses: 200_000,
        ..SimConfig::quick_test()
    };
    let spec = workloads::tpch();
    let cores = cfg.system.resolved_cores(&spec) as usize;
    assert_eq!(cores, 16, "the paper's pod");
    let plan = cfg.trace_plan(&spec, 0);
    let artifact = TraceArtifact::freeze(&plan.scaled_spec, cfg.seed, plan.frozen_len);
    let warmup = (plan.total as f64 * cfg.warmup_fraction) as u64;
    let mut g = c.benchmark_group("dispatch");
    g.throughput(Throughput::Elements(plan.total));
    g.bench_function("zero_latency_columns", |b| {
        b.iter(|| {
            let mut sys = System::new(
                cores,
                ZeroLatency::default(),
                cfg.system.mem_ports(),
                cfg.system.core,
            );
            let columns = ArtifactColumns::new(&artifact, &plan.scaled_spec, cfg.seed, cores);
            let mut session = DispatchSession::new(columns);
            sys.run_session(&mut session, warmup);
            session.next_phase();
            sys.run_session(&mut session, plan.total - warmup);
            black_box(sys.progress())
        });
    });
    g.bench_function("nocache_columns", |b| {
        b.iter(|| {
            black_box(run_experiment_with_source(
                Design::NoCache,
                0,
                &spec,
                &cfg,
                TraceSource::Replay(&artifact),
            ))
        });
    });
    g.bench_function("nocache_buffered_iterator", |b| {
        b.iter(|| {
            let mut sys = System::new(
                cores,
                NoCache::new(),
                cfg.system.mem_ports(),
                cfg.system.core,
            );
            let mut trace = artifact.replay();
            sys.run(&mut trace, warmup);
            sys.reset_measurement();
            sys.run(&mut trace, plan.total - warmup);
            black_box(sys.progress())
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_meta, bench_meta_simd, bench_predictors, bench_dram, bench_dram_access, bench_caches, bench_tracegen, bench_dispatch
}
criterion_main!(benches);
