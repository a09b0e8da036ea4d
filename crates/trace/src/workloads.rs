//! The six paper workloads as synthetic presets.
//!
//! Knob values are calibrated so the *relative* behaviours the paper
//! reports hold: predictor-accuracy bands (Table V), miss-ratio ordering
//! and trends (Figures 5/6), and speedup ordering (Figures 7/8). See
//! "Scale substitution and workload calibration" in the repository
//! README for the calibration targets and EXPERIMENTS.md for the
//! measured outcomes.

use crate::profile::ProfileMix;
use crate::spec::WorkloadSpec;

const GB: u64 = 1 << 30;

/// CloudSuite *Data Analytics* (MapReduce): pointer-intensive hash-table
/// probing — the paper's lowest-spatial-locality workload, where the gap
/// between block- and page-based designs is smallest (§V.B).
pub fn data_analytics() -> WorkloadSpec {
    WorkloadSpec {
        name: "Data Analytics",
        mem_footprint_bytes: 5 * GB,
        hot_fraction: 0.30,
        zipf_theta: 0.82,
        stream_fraction: 0.22,
        n_functions: 96,
        fn_zipf_theta: 0.80,
        profile_mix: ProfileMix {
            dense: 0.3,
            run: 1.0,
            strided: 0.5,
            sparse: 3.8,
            singleton: 1.5,
        },
        fn_region_affinity: 0.93,
        pattern_noise: 0.035,
        offset_entropy: 3,
        scan_span: 1,
        write_fraction: 0.25,
        mean_igap: 450,
        cores: 16,
    }
}

/// CloudSuite *Data Serving* (Cassandra/YCSB): Zipf-skewed key-value
/// lookups with very repeatable per-function footprints — the workload
/// with the paper's largest DRAM-cache speedups (Figure 7's 4× scale).
pub fn data_serving() -> WorkloadSpec {
    WorkloadSpec {
        name: "Data Serving",
        mem_footprint_bytes: 4 * GB,
        hot_fraction: 0.30,
        zipf_theta: 0.98,
        stream_fraction: 0.06,
        n_functions: 48,
        fn_zipf_theta: 0.90,
        profile_mix: ProfileMix {
            dense: 0.6,
            run: 2.4,
            strided: 0.6,
            sparse: 0.8,
            singleton: 0.5,
        },
        fn_region_affinity: 0.96,
        pattern_noise: 0.02,
        offset_entropy: 2,
        scan_span: 2,
        write_fraction: 0.30,
        mean_igap: 220,
        cores: 16,
    }
}

/// CloudSuite *Software Testing* (Cloud9 symbolic execution): diverse code
/// paths with noisy footprints — the paper's lowest footprint-prediction
/// accuracy and highest overfetch (Table V).
pub fn software_testing() -> WorkloadSpec {
    WorkloadSpec {
        name: "Software Testing",
        mem_footprint_bytes: 4 * GB,
        hot_fraction: 0.38,
        zipf_theta: 0.85,
        stream_fraction: 0.12,
        n_functions: 160,
        fn_zipf_theta: 0.60,
        profile_mix: ProfileMix {
            dense: 0.8,
            run: 1.6,
            strided: 1.2,
            sparse: 1.6,
            singleton: 0.8,
        },
        fn_region_affinity: 0.68,
        pattern_noise: 0.16,
        offset_entropy: 6,
        scan_span: 2,
        write_fraction: 0.22,
        mean_igap: 500,
        cores: 16,
    }
}

/// CloudSuite *Web Search* (Nutch/Lucene): index scans with extremely
/// dense, predictable footprints — the paper's highest footprint accuracy
/// and lowest overfetch (Table V).
pub fn web_search() -> WorkloadSpec {
    WorkloadSpec {
        name: "Web Search",
        mem_footprint_bytes: 4 * GB,
        hot_fraction: 0.45,
        zipf_theta: 0.95,
        stream_fraction: 0.05,
        n_functions: 40,
        fn_zipf_theta: 0.90,
        profile_mix: ProfileMix {
            dense: 2.6,
            run: 1.2,
            strided: 0.3,
            sparse: 0.3,
            singleton: 0.25,
        },
        fn_region_affinity: 0.97,
        pattern_noise: 0.012,
        offset_entropy: 2,
        scan_span: 3,
        write_fraction: 0.10,
        mean_igap: 550,
        cores: 16,
    }
}

/// CloudSuite *Web Serving* (Nginx/PHP/MySQL): a moderate mix of object
/// accesses and request handling.
pub fn web_serving() -> WorkloadSpec {
    WorkloadSpec {
        name: "Web Serving",
        mem_footprint_bytes: 5 * GB,
        hot_fraction: 0.34,
        zipf_theta: 0.88,
        stream_fraction: 0.12,
        n_functions: 80,
        fn_zipf_theta: 0.80,
        profile_mix: ProfileMix {
            dense: 1.0,
            run: 2.0,
            strided: 0.8,
            sparse: 1.0,
            singleton: 0.7,
        },
        fn_region_affinity: 0.90,
        pattern_noise: 0.05,
        offset_entropy: 3,
        scan_span: 3,
        write_fraction: 0.25,
        mean_igap: 350,
        cores: 16,
    }
}

/// *TPC-H* analytic queries on MonetDB: a >100 GB column-store dataset
/// with heavy scans — the workload the paper uses to motivate
/// multi-gigabyte caches (Figures 6/8: caches under 2–4 GB barely help
/// the block-based design).
pub fn tpch() -> WorkloadSpec {
    WorkloadSpec {
        name: "TPC-H",
        mem_footprint_bytes: 128 * GB,
        hot_fraction: 0.075,
        zipf_theta: 0.85,
        stream_fraction: 0.15,
        n_functions: 64,
        fn_zipf_theta: 0.85,
        profile_mix: ProfileMix {
            dense: 1.4,
            run: 1.6,
            strided: 0.6,
            sparse: 1.6,
            singleton: 0.35,
        },
        fn_region_affinity: 0.85,
        pattern_noise: 0.1,
        offset_entropy: 3,
        scan_span: 6,
        write_fraction: 0.06,
        mean_igap: 400,
        cores: 16,
    }
}

/// All six workloads in the paper's presentation order.
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        data_analytics(),
        data_serving(),
        software_testing(),
        web_search(),
        web_serving(),
        tpch(),
    ]
}

/// The five CloudSuite workloads (everything except TPC-H) — the set used
/// for the sub-gigabyte sweeps of Figures 5/6/7.
pub fn cloudsuite() -> Vec<WorkloadSpec> {
    vec![
        data_analytics(),
        data_serving(),
        software_testing(),
        web_search(),
        web_serving(),
    ]
}

/// Looks a workload up by its display name (case-insensitive).
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    all()
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_workloads_exist() {
        assert_eq!(all().len(), 6);
        assert_eq!(cloudsuite().len(), 5);
    }

    #[test]
    fn tpch_is_the_giant() {
        let t = tpch();
        for w in cloudsuite() {
            assert!(t.mem_footprint_bytes > w.mem_footprint_bytes);
        }
        assert!(t.mem_footprint_bytes > 100 * GB);
    }

    #[test]
    fn web_search_is_densest_and_cleanest() {
        let ws = web_search();
        let st = software_testing();
        assert!(ws.pattern_noise < st.pattern_noise);
        assert!(ws.profile_mix.dense > st.profile_mix.dense);
    }

    #[test]
    fn by_name_finds_workloads() {
        assert!(by_name("tpc-h").is_some());
        assert!(by_name("Web Search").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn all_footprints_pressure_the_largest_cloudsuite_cache() {
        // Every workload's address space must exceed the 1 GB cache of
        // Figures 6/7 several times over, or the sweeps would saturate.
        for w in all() {
            assert!(w.mem_footprint_bytes >= 4 * GB, "{} too small", w.name);
        }
        assert!(tpch().mem_footprint_bytes > 100 * GB);
    }
}
