//! Live campaign progress reporting.
//!
//! The worker pool observes completions on the caller thread; this
//! module turns that stream into rate-limited progress lines — either
//! human-readable (`sweep --progress[=SECS]`) or JSONL for machine
//! consumption (`--progress-json`). The reporter is pure state + string
//! formatting: callers feed it clock readings and completion events and
//! decide what to do with the returned lines, so every emission path is
//! unit-testable with a [`MockClock`](crate::telemetry::MockClock)
//! without capturing stderr.

use serde::Serialize;

use crate::telemetry::fmt_ns;

/// What kind of progress stream a campaign emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// No progress output.
    #[default]
    Off,
    /// One stderr line per completed cell (the historical
    /// `Campaign::progress(true)` behaviour).
    PerCell,
    /// Rate-limited human-readable status lines: done/total, mean cell
    /// time, ETA, cache hit rates, per-design throughput.
    Human,
    /// Rate-limited JSONL [`ProgressEvent`] records.
    Json,
}

/// Progress configuration: the mode plus the minimum interval between
/// emissions for the rate-limited modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressConfig {
    /// The stream kind.
    pub mode: ProgressMode,
    /// Minimum nanoseconds between emissions ([`ProgressMode::Human`] /
    /// [`ProgressMode::Json`]; ignored by the per-cell mode). The final
    /// completion always emits regardless.
    pub interval_ns: u64,
}

impl ProgressConfig {
    /// Default interval between rate-limited emissions: 2 s.
    pub const DEFAULT_INTERVAL_NS: u64 = 2_000_000_000;

    /// No progress output.
    pub fn off() -> Self {
        ProgressConfig {
            mode: ProgressMode::Off,
            interval_ns: Self::DEFAULT_INTERVAL_NS,
        }
    }

    /// Per-cell lines (legacy `progress(true)`).
    pub fn per_cell() -> Self {
        ProgressConfig {
            mode: ProgressMode::PerCell,
            interval_ns: 0,
        }
    }

    /// Human-readable status lines every `interval_secs` (or the default
    /// interval when `None`).
    pub fn human(interval_secs: Option<u64>) -> Self {
        ProgressConfig {
            mode: ProgressMode::Human,
            interval_ns: interval_secs
                .map(|s| s.saturating_mul(1_000_000_000))
                .unwrap_or(Self::DEFAULT_INTERVAL_NS),
        }
    }

    /// JSONL status records every `interval_secs` (or the default
    /// interval when `None`).
    pub fn json(interval_secs: Option<u64>) -> Self {
        ProgressConfig {
            mode: ProgressMode::Json,
            interval_ns: interval_secs
                .map(|s| s.saturating_mul(1_000_000_000))
                .unwrap_or(Self::DEFAULT_INTERVAL_NS),
        }
    }

    /// True for any mode that emits something.
    pub fn enabled(&self) -> bool {
        self.mode != ProgressMode::Off
    }

    /// True when human-oriented phase banners (journal restore, trace
    /// freeze, baseline prefill notices) belong on stderr: any enabled
    /// mode except [`ProgressMode::Json`], whose stderr stream must stay
    /// machine-parseable line-by-line.
    pub fn banners(&self) -> bool {
        self.enabled() && self.mode != ProgressMode::Json
    }
}

impl Default for ProgressConfig {
    fn default() -> Self {
        Self::off()
    }
}

/// A point-in-time snapshot of the campaign's dependency-cache counters,
/// sampled by the campaign from its [`BaselineStore`](crate::BaselineStore)
/// and [`TraceStore`](crate::TraceStore) at each completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// NoCache baselines simulated so far.
    pub baseline_runs: usize,
    /// Baseline requests served from the memo cache.
    pub baseline_hits: usize,
    /// Trace artifacts generated so far.
    pub trace_generated: usize,
    /// Trace requests served from the in-memory memo.
    pub trace_memo_hits: usize,
    /// Trace requests served from the on-disk cache.
    pub trace_disk_hits: usize,
}

impl CounterSnapshot {
    /// Memo-cache hit rate of baseline requests, `None` before any
    /// request happened.
    pub fn baseline_hit_rate(&self) -> Option<f64> {
        rate(self.baseline_hits, self.baseline_runs + self.baseline_hits)
    }

    /// Cache (memo + disk) hit rate of trace requests, `None` before any
    /// request happened.
    pub fn trace_hit_rate(&self) -> Option<f64> {
        let hits = self.trace_memo_hits + self.trace_disk_hits;
        rate(hits, self.trace_generated + hits)
    }
}

fn rate(hits: usize, total: usize) -> Option<f64> {
    (total > 0).then(|| hits as f64 / total as f64)
}

/// One machine-readable progress record ([`ProgressMode::Json`]), emitted
/// as a single JSONL line.
#[derive(Debug, Clone, Serialize)]
pub struct ProgressEvent {
    /// Cells completed this run (excluding restored ones).
    pub done: usize,
    /// Cells this run will execute (excluding restored ones).
    pub total: usize,
    /// Cells restored from a resume journal.
    pub resumed: usize,
    /// Wall time since the reporter started, ns.
    pub elapsed_ns: u64,
    /// Running mean per-cell wall time, ns (0 before the first cell).
    pub mean_cell_ns: u64,
    /// Estimated wall time remaining, ns (0 when done or unknown).
    pub eta_ns: u64,
    /// Overall completion throughput, cells per second of elapsed time.
    pub cells_per_sec: f64,
    /// Baseline memo-cache hit rate (0 before any baseline request).
    pub baseline_hit_rate: f64,
    /// Trace-cache (memo + disk) hit rate (0 before any trace request).
    pub trace_hit_rate: f64,
    /// Per-design completion counts and mean cell times, sorted by
    /// design name.
    pub designs: Vec<DesignRate>,
}

/// Per-design throughput inside a [`ProgressEvent`].
#[derive(Debug, Clone, Serialize)]
pub struct DesignRate {
    /// Design display name.
    pub design: String,
    /// Cells of this design completed so far.
    pub done: usize,
    /// Mean wall time per cell of this design, ns.
    pub mean_cell_ns: u64,
}

/// Turns completion events into progress lines. Pure state: the caller
/// supplies clock readings, so emission is deterministic under a mock
/// clock.
#[derive(Debug)]
pub struct ProgressReporter {
    cfg: ProgressConfig,
    threads: usize,
    total: usize,
    resumed: usize,
    start_ns: u64,
    last_emit_ns: Option<u64>,
    done: usize,
    cell_ns_sum: u64,
    // Predicted cost of all cells to run and of the cells completed so
    // far: the ETA weighs remaining work by cost.
    predicted_total_ns: u64,
    predicted_done_ns: u64,
    // (design, completions, summed wall ns), sorted by design name.
    designs: Vec<(String, usize, u64)>,
}

impl ProgressReporter {
    /// Creates a reporter for a run executing one cell per entry of
    /// `predicted_ns` (each cell's predicted cost,
    /// [`PlannedCell::cost`](crate::PlannedCell)) on `threads` workers,
    /// with `resumed` more restored from a journal, starting at clock
    /// reading `start_ns`.
    pub fn new(
        cfg: ProgressConfig,
        threads: usize,
        predicted_ns: &[u64],
        resumed: usize,
        start_ns: u64,
    ) -> Self {
        ProgressReporter {
            cfg,
            threads: threads.max(1),
            total: predicted_ns.len(),
            resumed,
            start_ns,
            last_emit_ns: None,
            done: 0,
            cell_ns_sum: 0,
            predicted_total_ns: predicted_ns.iter().fold(0, |a, &c| a.saturating_add(c)),
            predicted_done_ns: 0,
            designs: Vec::new(),
        }
    }

    /// Records one completed cell and returns the line to emit, if this
    /// completion crosses the rate limit (the final cell always emits).
    /// `label` is the cell's [`Cell::describe`](crate::Cell) identity
    /// (used by the per-cell mode), `design` its design display name,
    /// `predicted_ns` its predicted cost.
    pub fn on_cell(
        &mut self,
        now_ns: u64,
        design: &str,
        label: &str,
        wall_ns: u64,
        predicted_ns: u64,
        counters: CounterSnapshot,
    ) -> Option<String> {
        self.done += 1;
        self.cell_ns_sum += wall_ns;
        self.predicted_done_ns = self.predicted_done_ns.saturating_add(predicted_ns);
        match self.designs.iter_mut().find(|(d, _, _)| d == design) {
            Some((_, n, ns)) => {
                *n += 1;
                *ns += wall_ns;
            }
            None => {
                self.designs.push((design.to_string(), 1, wall_ns));
                self.designs.sort_by(|a, b| a.0.cmp(&b.0));
            }
        }
        match self.cfg.mode {
            ProgressMode::Off => None,
            ProgressMode::PerCell => Some(format!(
                "[harness {}/{}] {} done in {}",
                self.done,
                self.total,
                label,
                fmt_ns(wall_ns)
            )),
            ProgressMode::Human | ProgressMode::Json => {
                if !self.should_emit(now_ns) {
                    return None;
                }
                self.last_emit_ns = Some(now_ns);
                let event = self.event(now_ns, counters);
                Some(match self.cfg.mode {
                    ProgressMode::Json => {
                        serde_json::to_string(&event).expect("progress event serializes")
                    }
                    _ => render_human(&event),
                })
            }
        }
    }

    /// Cells completed so far (excluding restored ones).
    pub fn done(&self) -> usize {
        self.done
    }

    /// Mean per-cell wall time so far, ns.
    pub fn mean_cell_ns(&self) -> u64 {
        if self.done == 0 {
            0
        } else {
            self.cell_ns_sum / self.done as u64
        }
    }

    fn should_emit(&self, now_ns: u64) -> bool {
        if self.done == self.total {
            return true;
        }
        match self.last_emit_ns {
            None => now_ns.saturating_sub(self.start_ns) >= self.cfg.interval_ns,
            Some(last) => now_ns.saturating_sub(last) >= self.cfg.interval_ns,
        }
    }

    /// Builds the machine-readable snapshot of the current state.
    pub fn event(&self, now_ns: u64, counters: CounterSnapshot) -> ProgressEvent {
        let elapsed_ns = now_ns.saturating_sub(self.start_ns);
        let remaining = self.total.saturating_sub(self.done);
        // ETA: the remaining predicted work, calibrated by the
        // observed/predicted ratio so far (the prior orders cells well
        // but its absolute scale is the reference machine's), drained in
        // ceil(remaining / threads) pool waves of one mean remaining cell
        // each. The cells start longest-first, so the remaining ones are
        // the cheap ones and weighing them by cost keeps the tail from
        // being overestimated; rounding waves up keeps it from being
        // underestimated — 1 cell left on 4 threads takes that cell's
        // time, not a quarter of it.
        let eta_ns = if self.done == 0 || remaining == 0 {
            0
        } else {
            let remaining_pred = self
                .predicted_total_ns
                .saturating_sub(self.predicted_done_ns);
            let calibrated = if self.predicted_done_ns > 0 {
                remaining_pred as f64 * self.cell_ns_sum as f64 / self.predicted_done_ns as f64
            } else {
                remaining_pred as f64
            };
            let waves = remaining.div_ceil(self.threads);
            (calibrated * waves as f64 / remaining as f64) as u64
        };
        let cells_per_sec = if elapsed_ns == 0 {
            0.0
        } else {
            self.done as f64 * 1e9 / elapsed_ns as f64
        };
        ProgressEvent {
            done: self.done,
            total: self.total,
            resumed: self.resumed,
            elapsed_ns,
            mean_cell_ns: self.mean_cell_ns(),
            eta_ns,
            cells_per_sec,
            baseline_hit_rate: counters.baseline_hit_rate().unwrap_or(0.0),
            trace_hit_rate: counters.trace_hit_rate().unwrap_or(0.0),
            designs: self
                .designs
                .iter()
                .map(|(d, n, ns)| DesignRate {
                    design: d.clone(),
                    done: *n,
                    mean_cell_ns: if *n == 0 { 0 } else { ns / *n as u64 },
                })
                .collect(),
        }
    }
}

/// Renders a [`ProgressEvent`] as the human-readable stderr line.
fn render_human(e: &ProgressEvent) -> String {
    let mut line = format!(
        "[harness] {}/{} cells ({:.1} cells/s, mean {}/cell, ETA {})",
        e.done,
        e.total,
        e.cells_per_sec,
        fmt_ns(e.mean_cell_ns),
        fmt_ns(e.eta_ns),
    );
    if e.resumed > 0 {
        line.push_str(&format!(", {} resumed", e.resumed));
    }
    line.push_str(&format!(
        "; caches: baseline {:.0}%, trace {:.0}%",
        e.baseline_hit_rate * 100.0,
        e.trace_hit_rate * 100.0
    ));
    if !e.designs.is_empty() {
        let per: Vec<String> = e
            .designs
            .iter()
            .map(|d| format!("{} {}×{}", d.design, d.done, fmt_ns(d.mean_cell_ns)))
            .collect();
        line.push_str(&format!("; designs: {}", per.join(", ")));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    fn counters() -> CounterSnapshot {
        CounterSnapshot {
            baseline_runs: 1,
            baseline_hits: 3,
            trace_generated: 2,
            trace_memo_hits: 6,
            trace_disk_hits: 0,
        }
    }

    #[test]
    fn per_cell_mode_emits_every_completion_with_wall_time() {
        let mut r = ProgressReporter::new(ProgressConfig::per_cell(), 2, &[0; 3], 0, 0);
        let line = r
            .on_cell(
                SEC,
                "Unison",
                "Unison @ 512MB on Web Search",
                250_000_000,
                0,
                counters(),
            )
            .expect("per-cell mode always emits");
        assert_eq!(
            line,
            "[harness 1/3] Unison @ 512MB on Web Search done in 250.0ms"
        );
    }

    #[test]
    fn off_mode_emits_nothing_but_still_accumulates() {
        let mut r = ProgressReporter::new(ProgressConfig::off(), 1, &[0; 2], 0, 0);
        assert!(r.on_cell(SEC, "Alloy", "x", 100, 0, counters()).is_none());
        assert_eq!(r.done(), 1);
        assert_eq!(r.mean_cell_ns(), 100);
    }

    #[test]
    fn human_mode_rate_limits_and_always_emits_the_final_cell() {
        let cfg = ProgressConfig::human(Some(10));
        let mut r = ProgressReporter::new(cfg, 4, &[0; 3], 2, 0);
        // 1 s in: under the 10 s interval, suppressed.
        assert!(r.on_cell(SEC, "Unison", "a", SEC, 0, counters()).is_none());
        // 11 s in: interval crossed.
        let line = r
            .on_cell(11 * SEC, "Alloy", "b", 3 * SEC, 0, counters())
            .expect("interval crossed");
        assert!(line.contains("2/3 cells"), "{line}");
        assert!(line.contains("2 resumed"), "{line}");
        assert!(line.contains("baseline 75%"), "{line}");
        assert!(line.contains("trace 75%"), "{line}");
        assert!(line.contains("Alloy 1×3.00s"), "{line}");
        assert!(line.contains("Unison 1×1.00s"), "{line}");
        // 12 s: inside the interval again, but it is the final cell.
        let last = r
            .on_cell(12 * SEC, "Alloy", "c", SEC, 0, counters())
            .expect("final completion always emits");
        assert!(last.contains("3/3 cells"), "{last}");
    }

    #[test]
    fn eta_scales_with_threads_and_mean() {
        let mut r = ProgressReporter::new(ProgressConfig::human(None), 2, &[SEC; 5], 0, 0);
        r.on_cell(SEC, "Unison", "a", 4 * SEC, SEC, CounterSnapshot::default());
        let e = r.event(SEC, CounterSnapshot::default());
        assert_eq!(e.mean_cell_ns, 4 * SEC);
        // 4 cells left × 4 s calibrated / 2 threads = 8 s.
        assert_eq!(e.eta_ns, 8 * SEC);
        assert!((e.cells_per_sec - 1.0).abs() < 1e-9);
    }

    /// The ETA tail must round up to whole pool waves: with one cell
    /// left on four threads the estimate is that cell's calibrated
    /// prediction, not a quarter of it.
    #[test]
    fn eta_tail_rounds_up_to_whole_pool_waves() {
        use crate::telemetry::{Clock, MockClock};
        let clock = MockClock::new(0);
        let mut r = ProgressReporter::new(
            ProgressConfig::human(None),
            4,
            &[4 * SEC, 2 * SEC],
            0,
            clock.now_ns(),
        );

        clock.advance(8 * SEC);
        // Predicted 4 s, took 8 s: the prior runs 2× fast here.
        r.on_cell(
            clock.now_ns(),
            "Unison",
            "a",
            8 * SEC,
            4 * SEC,
            CounterSnapshot::default(),
        );
        let e = r.event(clock.now_ns(), CounterSnapshot::default());
        // 1 cell left on 4 threads: its whole 2 s prediction × 2.
        assert_eq!(e.eta_ns, 4 * SEC, "tail ETA must not divide below one wave");

        // 5 equal cells remaining on 4 threads is two waves (ceil, not
        // floor).
        let mut r =
            ProgressReporter::new(ProgressConfig::human(None), 4, &[SEC; 6], 0, clock.now_ns());
        r.on_cell(
            clock.now_ns(),
            "Unison",
            "a",
            4 * SEC,
            SEC,
            CounterSnapshot::default(),
        );
        let e = r.event(clock.now_ns(), CounterSnapshot::default());
        assert_eq!(e.eta_ns, 8 * SEC);
    }

    /// The cells start longest-first, so the tail is cheap cells: the
    /// ETA must weigh remaining work by predicted cost, not claim whole
    /// waves of the (expensive-cell-dominated) running mean.
    #[test]
    fn eta_weights_remaining_work_by_predicted_cost() {
        use crate::telemetry::{Clock, MockClock};
        let clock = MockClock::new(0);
        let mut r = ProgressReporter::new(
            ProgressConfig::human(None),
            1,
            &[4 * SEC, SEC, SEC],
            0,
            clock.now_ns(),
        );
        clock.advance(4 * SEC);
        // The 4 s cell (predicted 4 s) completes first; 2 s of cheap
        // cells remain. A running-mean estimate would claim
        // 2 waves × 4 s = 8 s.
        r.on_cell(
            clock.now_ns(),
            "Unison",
            "big",
            4 * SEC,
            4 * SEC,
            CounterSnapshot::default(),
        );
        let e = r.event(clock.now_ns(), CounterSnapshot::default());
        assert_eq!(e.eta_ns, 2 * SEC, "cost-weighted tail, not mean waves");
        assert!(e.eta_ns < e.mean_cell_ns * 2, "beats the running-mean ETA");
    }

    /// A prior that mis-scales absolute cost (but orders cells right)
    /// still yields a sane ETA: the observed/predicted ratio calibrates
    /// the remaining predicted work.
    #[test]
    fn eta_calibrates_a_mis_scaled_prior() {
        use crate::telemetry::{Clock, MockClock};
        let clock = MockClock::new(0);
        let mut r = ProgressReporter::new(
            ProgressConfig::human(None),
            1,
            &[8 * SEC, 2 * SEC, 2 * SEC],
            0,
            clock.now_ns(),
        );
        clock.advance(4 * SEC);
        // Predicted 8 s, took 4 s: the prior runs 2× hot. Remaining
        // 4 s of predicted work should be reported as ~2 s.
        r.on_cell(
            clock.now_ns(),
            "Unison",
            "big",
            4 * SEC,
            8 * SEC,
            CounterSnapshot::default(),
        );
        let e = r.event(clock.now_ns(), CounterSnapshot::default());
        assert_eq!(e.eta_ns, 2 * SEC);
    }

    #[test]
    fn json_mode_emits_parseable_events() {
        let cfg = ProgressConfig::json(Some(0));
        let mut r = ProgressReporter::new(cfg, 1, &[0], 0, 0);
        let line = r
            .on_cell(2 * SEC, "Ideal", "cell", SEC, 0, counters())
            .expect("zero interval emits every completion");
        let v = serde_json::parse(&line).expect("valid JSON");
        let txt = serde_json::to_string(&v).unwrap();
        assert!(txt.contains("\"done\""), "{txt}");
        assert!(txt.contains("\"eta_ns\""), "{txt}");
        assert!(txt.contains("\"Ideal\""), "{txt}");
    }

    #[test]
    fn hit_rates_handle_empty_denominators() {
        let c = CounterSnapshot::default();
        assert!(c.baseline_hit_rate().is_none());
        assert!(c.trace_hit_rate().is_none());
        let c = counters();
        assert_eq!(c.baseline_hit_rate(), Some(0.75));
        assert_eq!(c.trace_hit_rate(), Some(0.75));
    }

    #[test]
    fn flag_constructors_pick_intervals() {
        assert_eq!(
            ProgressConfig::human(None).interval_ns,
            ProgressConfig::DEFAULT_INTERVAL_NS
        );
        assert_eq!(ProgressConfig::human(Some(7)).interval_ns, 7 * SEC);
        assert_eq!(ProgressConfig::json(Some(1)).mode, ProgressMode::Json);
        assert!(!ProgressConfig::off().enabled());
        assert!(ProgressConfig::per_cell().enabled());
    }

    #[test]
    fn json_mode_suppresses_human_banners() {
        // The JSONL stream must stay machine-parseable: no freeze or
        // prefill notices interleaved with the event records.
        assert!(!ProgressConfig::json(None).banners());
        assert!(ProgressConfig::json(None).enabled());
        assert!(ProgressConfig::human(None).banners());
        assert!(ProgressConfig::per_cell().banners());
        assert!(!ProgressConfig::off().banners());
    }
}
