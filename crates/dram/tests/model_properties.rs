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
//! A second race pins a [`DramModel::session`] to one
//! [`DramModel::access`] call per request, over sessions that mix reads
//! and writes of every size the designs issue, repeat a row, change
//! rows, conflict within a bank in mid-session, arrive out of order and
//! take arrival times from earlier completions.
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

/// One session request: a row selector, a column seed, an op-and-size
/// selector, the signed offset of its arrival from the session's base
/// time, and a selector that may take the arrival from an earlier
/// completion instead.
type SessionReq = (u8, u32, u8, i32, u8);

/// A session: a base arrival time and its requests.
type SessionSpec = (u32, Vec<SessionReq>);

/// Drives one session spec through `access`, decoding each request
/// against `cfg` as it goes, and returns every completion in order.
///
/// Rows come from a short list that the requests mostly repeat: `base`,
/// its neighbour on another bank, and `base` plus one and two bank
/// counts, which share `base`'s bank (conflicts). A request is a 32 B
/// metadata read, a 64 B block, a 72 B Alloy TAD or a whole-footprint
/// run of up to 32 consecutive 64 B blocks, read or written. It arrives
/// either around the base time (so out of order) or when an earlier
/// access of the session completed, as a write-hit store arrives at its
/// read's `last_data_ps`.
fn drive(
    spec: &SessionSpec,
    cfg: &DramConfig,
    mut access: impl FnMut(u64, Op, RowCol, u32) -> Completion,
) -> Vec<Completion> {
    let (base, reqs) = spec;
    let banks = u64::from(cfg.total_banks());
    let rows = [5, 5, 5, 6, 5 + banks, 5 + 2 * banks];
    let base = u64::from(*base % 1_000_000) + 100_000;
    let row_blocks = cfg.row_bytes / 64;
    let mut done: Vec<Completion> = Vec::new();
    for &(row_sel, col_raw, kind, offset, dep) in reqs {
        let row = rows[usize::from(row_sel) % rows.len()];
        let op = if kind & 1 == 1 { Op::Write } else { Op::Read };
        let at = match done.len() {
            n if n > 0 && dep % 4 == 0 => done[usize::from(dep / 4) % n].last_data_ps,
            _ => base.saturating_add_signed(i64::from(offset % 100_000)),
        };
        let (bytes, run) = match (kind >> 1) % 4 {
            0 => (32, 1),
            1 => (64, 1),
            2 => (72, 1),
            _ => (64, (u32::from(kind >> 3) % 32 + 1).min(row_blocks)),
        };
        if run == 1 {
            let col_byte = col_raw % (cfg.row_bytes - bytes + 1);
            done.push(access(at, op, RowCol::new(row, col_byte), bytes));
        } else {
            let first = col_raw % (row_blocks - run + 1);
            for b in first..first + run {
                done.push(access(at, op, RowCol::new(row, b * 64), 64));
            }
        }
    }
    done
}

/// Runs `specs` through one model as sessions, through another as one
/// [`DramModel::access`] call per request and through a third as one
/// `access_reference` call per request. Asserts every completion, the
/// statistics, the energy and the bus horizons match after each session,
/// and that one more read and write to every row used still agree.
fn race_sessions(cfg: DramConfig, specs: Vec<SessionSpec>) {
    let name = cfg.name;
    let mut sessions = DramModel::new(cfg.clone());
    let mut per_call = DramModel::new(cfg.clone());
    let mut reference = DramModel::new(cfg.clone());
    for (t, spec) in specs.iter().enumerate() {
        let mut session = sessions.session();
        let got = drive(spec, &cfg, |at, op, rc, bytes| {
            session.access(at, op, rc, bytes)
        });
        drop(session);
        let want = drive(spec, &cfg, |at, op, rc, bytes| {
            per_call.access(at, op, rc, bytes)
        });
        let oracle = drive(spec, &cfg, |at, op, rc, bytes| {
            reference.access_reference(at, op, rc, bytes)
        });
        assert_eq!(want, oracle, "{name}: per-call access left the reference");
        assert_eq!(got, want, "{name}: session {t} diverged");
        for other in [&per_call, &reference] {
            assert_eq!(
                sessions.stats(),
                other.stats(),
                "{name}: stats diverged after session {t}"
            );
            assert_eq!(
                sessions.energy(),
                other.energy(),
                "{name}: energy diverged after session {t}"
            );
            for row in 0..96 {
                assert_eq!(
                    sessions.channel_free_at(row),
                    other.channel_free_at(row),
                    "{name}: bus horizon diverged on row {row} after session {t}"
                );
            }
        }
    }
    // The bank and rank horizons a session left behind show in the next
    // access: a read and a write to every row the sessions used.
    let banks = u64::from(cfg.total_banks());
    for (i, row) in [5, 6, 5 + banks, 5 + 2 * banks].into_iter().enumerate() {
        for op in [Op::Read, Op::Write] {
            let at = 200_000 + 1_000 * i as u64;
            let rc = RowCol::new(row, 0);
            let want = per_call.access(at, op, rc, 64);
            assert_eq!(
                want,
                reference.access_reference(at, op, rc, 64),
                "{name}: follow-up {op:?} to row {row} left the reference"
            );
            assert_eq!(
                sessions.access(at, op, rc, 64),
                want,
                "{name}: follow-up {op:?} to row {row} diverged"
            );
        }
    }
}

fn sessions_strategy() -> impl Strategy<Value = Vec<SessionSpec>> {
    proptest::collection::vec(
        (
            any::<u32>(),
            proptest::collection::vec(
                (
                    any::<u8>(),
                    any::<u32>(),
                    any::<u8>(),
                    any::<i32>(),
                    any::<u8>(),
                ),
                0..40,
            ),
        ),
        1..6,
    )
}

proptest! {
    /// A session leaves every preset device exactly where one `access`
    /// call per request leaves it, with the same completions.
    #[test]
    fn session_matches_per_call_access_on_presets(
        preset_idx in 0usize..DramPreset::ALL.len(),
        specs in sessions_strategy(),
    ) {
        race_sessions(DramPreset::ALL[preset_idx].config(), specs);
    }

    /// The same race on the non-pow2 geometry, whose routing and burst
    /// lengths take the fallback arithmetic.
    #[test]
    fn session_matches_per_call_access_on_non_pow2_fallback(specs in sessions_strategy()) {
        race_sessions(non_pow2_config(), specs);
    }
}

/// One scripted session that surely takes every transition: a Unison hit
/// (metadata, data, store at the read's completion), a row change to the
/// neighbour bank, a return, a same-bank conflict row in mid-session, a
/// TAD and a whole-footprint write run back in the first row.
#[test]
fn scripted_session_with_row_change_and_conflict_matches_per_call() {
    // (row selector, column seed, kind, offset, dependency): kind bit 0
    // is the op, bits 1-2 the size (32, 64, 72, run), bits 3+ a run's
    // length; dependency 0 takes the arrival from completion 0.
    let script = vec![
        (0, 0, 0b000, 0, 1),              // 32 B metadata read, row 5
        (0, 64, 0b010, 0, 1),             // 64 B data read, row 5
        (0, 64, 0b011, 0, 4),             // store at the data read's end
        (3, 128, 0b010, 500, 1),          // row change: neighbour bank
        (0, 256, 0b010, -300, 1),         // back to row 5, earlier arrival
        (4, 0, 0b101, 0, 8),              // conflict row, 72 B TAD write
        (0, 0, 0b110 | 14 << 3, 0, 0),    // 15-block footprint read, row 5
        (5, 72, 0b100, 20_000, 1),        // second conflict row, TAD read
        (1, 640, 0b111 | 31 << 3, 0, 12), // 32-block write run, row 5
    ];
    for cfg in DramPreset::ALL
        .iter()
        .map(|p| p.config())
        .chain([non_pow2_config()])
    {
        race_sessions(cfg, vec![(7, script.clone()), (0, script.clone())]);
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
