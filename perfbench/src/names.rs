//! The metric names the benchmark reports, with their units. Their one
//! list is `BENCHMARK.json`, embedded at build time.

use serde::Value;
use unison_sim::Design;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One reported metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
}

/// The `name` and `unit` of every entry of `BENCHMARK.json`'s `key` list.
fn section(key: &str) -> Vec<MetricDef> {
    let doc = serde_json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    let Some(Value::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no {key} array");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| match m.get(k) {
                Some(Value::Str(v)) => v.clone(),
                other => panic!("{key} entry lacks string {k}: {other:?}"),
            };
            MetricDef {
                name: s("name"),
                unit: s("unit"),
            }
        })
        .collect()
}

/// Metrics of an untraced run (`--trace 0`).
pub fn end_to_end() -> Vec<MetricDef> {
    section("end_to_end")
}

/// Metrics of a traced run (`--trace 1`).
pub fn per_layer() -> Vec<MetricDef> {
    section("per_layer")
}

/// Predictor accuracy counters each ledger design has.
pub fn predictor_metrics(design: Design) -> &'static [&'static str] {
    match design {
        Design::Unison | Design::UnisonAssoc(_) => &["fp_accuracy", "fp_overfetch", "wp_accuracy"],
        Design::Footprint => &["fp_accuracy", "fp_overfetch"],
        Design::Alloy => &["mp_accuracy"],
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sections_are_read_and_setup_s_is_end_to_end() {
        let e2e = end_to_end();
        assert!(e2e.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(per_layer().iter().any(|m| m.name == "trace_overhead"));
    }
}
