//! Property tests: the table-driven [`DramModel::access`] fast path
//! against the retained div/mod + multiply [`DramModel::access_reference`]
//! on arbitrary access streams.
//!
//! The driver below feeds the *same* stream — both ops, mixed burst
//! sizes, arbitrary rows and arrival times — to two models built from the
//! same config and asserts they stay in lock-step on every observable:
//! each access's full [`Completion`] (CAS time, first/last data beat,
//! hit/activate/conflict classification), the aggregate [`DramStats`],
//! the energy counters, and the per-channel bus horizons. This mirrors
//! `crates/core/tests/meta_properties.rs`, which races the vectorized
//! metadata walks against their scalar reference the same way.
//!
//! Coverage spans every preset geometry (all power-of-two, so the
//! shift/mask `RouteMap` and premultiplied timing tables are live) plus a
//! deliberately non-pow2 geometry that forces the div/mod routing
//! fallback and the `burst_ps` recompute fallback inside the fast path.
//!
//! A second race pins [`DramModel::access_train`] to one
//! [`DramModel::access`] call per request, over trains that repeat a row,
//! change rows, conflict within a bank and arrive out of order.
//!
//! `access_reference` is not part of the release API: it compiles under
//! the crate's `reference` feature, which the crate's dev-dependency on
//! itself turns on for these tests.

use proptest::prelude::*;
use unison_dram::{Completion, DramConfig, DramModel, DramPreset, Op, RouteMap, RowCol};

/// One access: operation selector, raw row, raw column seed, burst-size
/// selector, and the gap to advance the arrival clock by.
type Step = (bool, u64, u32, u8, u32);

/// Burst sizes the designs actually issue: 32 B metadata reads, 64 B
/// blocks, 512 B footprint runs, and whole-row page transfers.
fn burst_bytes(sel: u8, row_bytes: u32) -> u32 {
    match sel % 4 {
        0 => 32.min(row_bytes),
        1 => 64.min(row_bytes),
        2 => 512.min(row_bytes),
        _ => row_bytes,
    }
}

/// Decodes one raw step against a geometry: a row-bounded access plus the
/// next arrival time. Rows are drawn small so streams revisit banks and
/// real hit/conflict interleavings occur.
fn decode(step: Step, row_bytes: u32, now: &mut u64) -> (u64, Op, RowCol, u32) {
    let (is_write, row_raw, col_raw, bytes_sel, gap) = step;
    let op = if is_write { Op::Write } else { Op::Read };
    let bytes = burst_bytes(bytes_sel, row_bytes);
    let col_byte = col_raw % (row_bytes - bytes + 1);
    let row = row_raw % 96; // a few multiples of every preset's bank count
    *now += u64::from(gap % 50_000);
    (*now, op, RowCol::new(row, col_byte), bytes)
}

/// Runs `steps` through a fast-path model and a reference model in
/// lock-step, asserting every observable matches.
fn race(cfg: DramConfig, steps: Vec<Step>) {
    let name = cfg.name;
    let mut fast = DramModel::new(cfg.clone());
    let mut reference = DramModel::new(cfg.clone());
    let mut now = 0u64;
    let mut now_ref = 0u64;
    for (i, step) in steps.into_iter().enumerate() {
        let (at, op, rc, bytes) = decode(step, cfg.row_bytes, &mut now);
        let (at_ref, ..) = decode(step, cfg.row_bytes, &mut now_ref);
        assert_eq!(at, at_ref);
        let a = fast.access(at, op, rc, bytes);
        let b = reference.access_reference(at, op, rc, bytes);
        assert_eq!(
            a, b,
            "{name}: completion diverged at step {i} ({op:?} {rc:?} x{bytes})"
        );
    }
    assert_eq!(fast.stats(), reference.stats(), "{name}: stats diverged");
    assert_eq!(fast.energy(), reference.energy(), "{name}: energy diverged");
    for row in 0..96 {
        assert_eq!(
            fast.channel_free_at(row),
            reference.channel_free_at(row),
            "{name}: bus horizon diverged on row {row}"
        );
    }
}

/// A geometry no preset has: non-pow2 channels, banks, and row size, plus
/// a bus width whose beat size is not a power of two — every fast-path
/// precomputation (`RouteMap`, beat-shift burst LUT) must decline and
/// fall back to the reference arithmetic inline.
fn non_pow2_config() -> DramConfig {
    let mut cfg = DramConfig::stacked();
    cfg.name = "non-pow2";
    cfg.channels = 3;
    cfg.banks = 5;
    cfg.row_bytes = 6144;
    cfg.bus_bits = 24; // 3-byte beats: burst LUT declines too
    cfg
}

proptest! {
    /// Arbitrary access streams keep the fast path and the reference
    /// bit-identical on every preset geometry (all pow2: `RouteMap` and
    /// the timing tables are fully live).
    #[test]
    fn fast_path_matches_reference_on_presets(
        preset_idx in 0usize..DramPreset::ALL.len(),
        steps in proptest::collection::vec(
            (any::<bool>(), any::<u64>(), any::<u32>(), any::<u8>(), any::<u32>()),
            1..200,
        )
    ) {
        let cfg = DramPreset::ALL[preset_idx].config();
        prop_assert!(DramModel::new(cfg.clone()).has_fast_route(),
            "{}: preset geometry must take the shift/mask route", cfg.name);
        race(cfg, steps);
    }

    /// The same race on a deliberately non-pow2 geometry: the fast entry
    /// point must produce identical results through its div/mod routing
    /// and `burst_ps` fallbacks.
    #[test]
    fn fast_path_matches_reference_on_non_pow2_fallback(
        steps in proptest::collection::vec(
            (any::<bool>(), any::<u64>(), any::<u32>(), any::<u8>(), any::<u32>()),
            1..200,
        )
    ) {
        let cfg = non_pow2_config();
        prop_assert!(!DramModel::new(cfg.clone()).has_fast_route());
        prop_assert!(RouteMap::try_new(&cfg).is_none());
        race(cfg, steps);
    }

    /// `access_addr` (physical-address entry point, used by the off-chip
    /// port) splits addresses identically whether the shift/AND
    /// `RouteMap::row_col` or the div/mod `RowCol::from_phys_addr` runs.
    #[test]
    fn access_addr_split_matches_reference(
        addrs in proptest::collection::vec(any::<u64>(), 1..100),
    ) {
        for cfg in [DramConfig::stacked(), DramConfig::ddr3_1600(), non_pow2_config()] {
            let mut fast = DramModel::new(cfg.clone());
            let mut reference = DramModel::new(cfg.clone());
            let mut now = 0u64;
            for &addr in &addrs {
                // Keep 64 B accesses row-bounded for any row size.
                let addr = addr - (addr % 64).min(addr);
                let a = fast.access_addr(now, Op::Read, addr, 64);
                let rc = RowCol::from_phys_addr(addr, cfg.row_bytes);
                let b = reference.access_reference(now, Op::Read, rc, 64);
                prop_assert_eq!(a, b, "{}: addr {:#x}", cfg.name, addr);
                now += 10_000;
            }
        }
    }
}

/// One train request: a row selector, a column seed, and the signed
/// offset of its arrival from the train's base time.
type TrainReq = (u8, u32, i32);

/// A train: operation selector, burst-size selector, base arrival time
/// and its requests.
type Train = (bool, u8, u32, Vec<TrainReq>);

/// Decodes a train against a geometry. Rows come from a short list that
/// the requests mostly repeat: `base`, its neighbour on another bank, and
/// `base` plus the bank count, which shares `base`'s bank (a conflict).
/// Arrival times move back and forth around the base.
fn decode_train(train: &Train, cfg: &DramConfig) -> (Op, u32, Vec<(u64, RowCol)>) {
    let (is_write, bytes_sel, base, reqs) = train;
    let op = if *is_write { Op::Write } else { Op::Read };
    let bytes = burst_bytes(*bytes_sel, cfg.row_bytes);
    let banks = u64::from(cfg.total_banks());
    let rows = [5, 5, 5, 6, 5 + banks, 5 + 2 * banks];
    let base = u64::from(*base % 1_000_000) + 100_000;
    let reqs = reqs
        .iter()
        .map(|&(row_sel, col_raw, offset)| {
            let row = rows[usize::from(row_sel) % rows.len()];
            let col_byte = col_raw % (cfg.row_bytes - bytes + 1);
            let at = base.saturating_add_signed(i64::from(offset % 100_000));
            (at, RowCol::new(row, col_byte))
        })
        .collect();
    (op, bytes, reqs)
}

/// Runs `trains` through one model as trains and through another as one
/// [`DramModel::access`] call per request, asserting every completion,
/// the statistics, the energy and the bus horizons match after each
/// train, and that one more access on each device still agrees.
fn race_trains(cfg: DramConfig, trains: Vec<Train>) {
    let name = cfg.name;
    let mut train = DramModel::new(cfg.clone());
    let mut per_call = DramModel::new(cfg.clone());
    for (t, spec) in trains.iter().enumerate() {
        let (op, bytes, reqs) = decode_train(spec, &cfg);
        let mut got = Vec::new();
        train.access_train(op, bytes, reqs.iter().copied(), |c| got.push(c));
        let want: Vec<Completion> = reqs
            .iter()
            .map(|&(at, rc)| per_call.access(at, op, rc, bytes))
            .collect();
        assert_eq!(got, want, "{name}: train {t} ({op:?} x{bytes}) diverged");
        assert_eq!(
            train.stats(),
            per_call.stats(),
            "{name}: stats diverged after train {t}"
        );
        assert_eq!(
            train.energy(),
            per_call.energy(),
            "{name}: energy diverged after train {t}"
        );
        for row in 0..96 {
            assert_eq!(
                train.channel_free_at(row),
                per_call.channel_free_at(row),
                "{name}: bus horizon diverged on row {row} after train {t}"
            );
        }
    }
    // The bank and rank horizons a train left behind show in the next
    // access: a read and a write to every row the trains used.
    let banks = u64::from(cfg.total_banks());
    for (i, row) in [5, 6, 5 + banks, 5 + 2 * banks].into_iter().enumerate() {
        for op in [Op::Read, Op::Write] {
            let at = 200_000 + 1_000 * i as u64;
            let rc = RowCol::new(row, 0);
            assert_eq!(
                train.access(at, op, rc, 64),
                per_call.access(at, op, rc, 64),
                "{name}: follow-up {op:?} to row {row} diverged"
            );
        }
    }
}

fn trains_strategy() -> impl Strategy<Value = Vec<Train>> {
    proptest::collection::vec(
        (
            any::<bool>(),
            any::<u8>(),
            any::<u32>(),
            proptest::collection::vec((any::<u8>(), any::<u32>(), any::<i32>()), 0..40),
        ),
        1..6,
    )
}

proptest! {
    /// A train of requests leaves every preset device exactly where one
    /// `access` call per request leaves it, with the same completions.
    #[test]
    fn train_matches_per_call_access_on_presets(
        preset_idx in 0usize..DramPreset::ALL.len(),
        trains in trains_strategy(),
    ) {
        race_trains(DramPreset::ALL[preset_idx].config(), trains);
    }

    /// The same race on the non-pow2 geometry, whose routing and burst
    /// lengths take the fallback arithmetic.
    #[test]
    fn train_matches_per_call_access_on_non_pow2_fallback(trains in trains_strategy()) {
        race_trains(non_pow2_config(), trains);
    }
}

/// Deterministic spot-check of the classification triple on both paths:
/// a cold access activates (row_empty), a same-row follow-up hits, and a
/// same-bank different-row access conflicts — on every preset.
#[test]
fn classification_matches_on_every_preset() {
    for preset in DramPreset::ALL {
        let cfg = preset.config();
        let stride = u64::from(cfg.total_banks());
        let mut fast = DramModel::new(cfg.clone());
        let mut reference = DramModel::new(cfg.clone());
        let run = |m: &mut DramModel, f: fn(&mut DramModel, u64, Op, RowCol, u32) -> Completion| {
            let cold = f(m, 0, Op::Read, RowCol::new(7, 0), 64);
            let hit = f(m, cold.last_data_ps, Op::Read, RowCol::new(7, 64), 64);
            let conflict = f(
                m,
                hit.last_data_ps,
                Op::Write,
                RowCol::new(7 + stride, 0),
                64,
            );
            (cold, hit, conflict)
        };
        let a = run(&mut fast, |m, t, o, rc, b| m.access(t, o, rc, b));
        let b = run(&mut reference, |m, t, o, rc, b| {
            m.access_reference(t, o, rc, b)
        });
        assert_eq!(a, b, "{}", cfg.name);
        let (cold, hit, conflict) = a;
        assert!(
            cold.activated && !cold.row_hit && !cold.conflict,
            "{}",
            cfg.name
        );
        assert!(hit.row_hit && !hit.activated, "{}", cfg.name);
        assert!(conflict.conflict && conflict.activated, "{}", cfg.name);
    }
}

/// Release-build speed assertion for the nightly job (`--include-ignored`):
/// on a row-hit-heavy read stream — the campaign's common case — the
/// table-driven fast path must beat the retained div/mod + multiply
/// reference by ≥1.15×. Interleaved best-of-5 so machine noise hits both
/// sides equally.
#[test]
#[ignore = "perf assertion; meaningful in --release only (nightly CI runs it)"]
fn fast_access_beats_reference_on_row_hits() {
    use std::hint::black_box;
    use std::time::Instant;

    // In campaign use the geometry is runtime data (preset parsed from
    // the sweep spec); black_box keeps the compiler from specializing the
    // reference's div/mod to compile-time-constant divisors here.
    let cfg = black_box(DramConfig::stacked());
    let banks = u64::from(cfg.total_banks());
    // Rows 0..banks land on distinct banks; cycling them keeps every row
    // open, so after one lap the stream is pure row hits. The stream is
    // generated on the fly (a few adds and ANDs per access) so the loops
    // measure the access paths, not 50 MB of stream traffic.
    const N: u64 = 2_000_000;
    // Two monomorphic loops (macro, not fn pointer): call sites in the
    // campaign invoke `access` directly, so the measurement must let the
    // compiler inline each path into its loop the same way.
    macro_rules! time_loop {
        ($m:ident . $method:ident) => {{
            let t0 = Instant::now();
            let (mut row, mut col, mut at) = (0u64, 0u64, 0u64);
            let mut acc = 0u64;
            for _ in 0..N {
                acc ^= $m
                    .$method(at, Op::Read, RowCol::new(row, col as u32), 64)
                    .last_data_ps;
                row += 1;
                if row == banks {
                    row = 0;
                }
                col = (col + 64) & 8191;
                at += 2_500;
            }
            black_box(acc);
            t0.elapsed().as_nanos()
        }};
    }

    let mut best_fast = u128::MAX;
    let mut best_reference = u128::MAX;
    for _ in 0..7 {
        let mut m = DramModel::new(cfg.clone());
        best_fast = best_fast.min(time_loop!(m.access));
        let hits = m.stats().row_hits;
        assert!(
            hits > N - banks * 2,
            "stream must be row-hit-heavy, got {hits}"
        );

        let mut m = DramModel::new(cfg.clone());
        best_reference = best_reference.min(time_loop!(m.access_reference));
    }

    let speedup = best_reference as f64 / best_fast as f64;
    eprintln!(
        "dram access fast path: {:.2} ns/access vs reference {:.2} ns/access ({speedup:.3}x)",
        best_fast as f64 / N as f64,
        best_reference as f64 / N as f64,
    );
    assert!(
        speedup >= 1.15,
        "fast access path must beat the div/mod+multiply reference by >=1.15x \
         on row hits, got {speedup:.3}x (fast {best_fast} ns vs reference {best_reference} ns)"
    );
}
