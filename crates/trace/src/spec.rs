//! Workload specification: every knob of the synthetic trace engine.

use serde::{Deserialize, Serialize};

use crate::profile::ProfileMix;

/// Full parameterization of one synthetic workload.
///
/// The six presets in [`crate::workloads`] fill these fields to mimic the
/// CloudSuite/TPC-H behaviours the paper reports; see "Scale substitution
/// and workload calibration" in the repository README for the
/// calibration targets each knob serves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Display name (matches the paper's workload names).
    pub name: &'static str,
    /// Total bytes of distinct memory the workload can touch.
    pub mem_footprint_bytes: u64,
    /// Fraction of regions belonging to the recurring ("hot") set; the
    /// rest are touched by the streaming component.
    pub hot_fraction: f64,
    /// Zipf skew over the hot regions (0 = uniform).
    pub zipf_theta: f64,
    /// Probability that a visit targets a fresh streaming region instead
    /// of a hot one. Streaming visits defeat any cache and set the miss
    /// ratio floor.
    pub stream_fraction: f64,
    /// Number of synthetic functions (distinct PCs) in the library.
    pub n_functions: usize,
    /// Zipf skew over functions (a few functions dominate, as in real
    /// server software).
    pub fn_zipf_theta: f64,
    /// Pattern-class weights for the function library.
    pub profile_mix: ProfileMix,
    /// Probability that a visit to a hot region uses the region's *own*
    /// accessor function (and alignment) rather than a random one. Real
    /// data structures are touched by their accessor code, which is what
    /// makes per-page footprints stable enough to predict; the remainder
    /// models shared/OS code touching arbitrary data.
    pub fn_region_affinity: f64,
    /// Probability that any given block of a visit's pattern is
    /// perturbed (dropped, or an extra block added). This is the direct
    /// knob for footprint-predictor accuracy (Table V).
    pub pattern_noise: f64,
    /// Distinct start-offset alignments per function.
    pub offset_entropy: u32,
    /// Maximum number of *additional* consecutive regions a dense-scan
    /// visit continues into (uniformly drawn per visit). Real scans run
    /// for megabytes, which is why page-based caches see so many fully
    /// covered pages; 0 confines every visit to one region.
    pub scan_span: u32,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Mean instructions between post-L2 accesses, per core (memory
    /// intensity; lower = more memory-bound).
    pub mean_igap: u32,
    /// Number of cores issuing the trace (16 in the paper).
    pub cores: u32,
}

impl WorkloadSpec {
    /// Number of 4 KB regions in the address space.
    pub fn region_count(&self) -> u64 {
        (self.mem_footprint_bytes / crate::profile::REGION_BYTES).max(1)
    }

    /// Number of regions in the hot set.
    pub fn hot_region_count(&self) -> u64 {
        ((self.region_count() as f64 * self.hot_fraction) as u64).max(1)
    }

    /// Scales the workload's address-space footprint down by `factor`,
    /// keeping every ratio knob unchanged. Used together with equally
    /// scaled cache sizes for fast bench runs: miss-ratio *shapes* are
    /// preserved because both the cache and the working set shrink.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    #[must_use]
    pub fn scaled(mut self, factor: u64) -> Self {
        assert!(factor > 0, "scale factor must be positive");
        self.mem_footprint_bytes =
            (self.mem_footprint_bytes / factor).max(crate::profile::REGION_BYTES * 64);
        self
    }

    /// Validates knob ranges, returning a description of the first
    /// problem found.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any probability knob is outside `[0, 1]`, the
    /// core count is zero, or the function library is empty.
    pub fn validate(&self) -> Result<(), String> {
        let probs = [
            ("hot_fraction", self.hot_fraction),
            ("stream_fraction", self.stream_fraction),
            ("pattern_noise", self.pattern_noise),
            ("write_fraction", self.write_fraction),
            ("fn_region_affinity", self.fn_region_affinity),
        ];
        for (name, p) in probs {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be within [0, 1], got {p}"));
            }
        }
        if self.cores == 0 {
            return Err("cores must be positive".into());
        }
        if self.n_functions == 0 {
            return Err("n_functions must be positive".into());
        }
        if self.mean_igap == 0 {
            return Err("mean_igap must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::workloads;

    #[test]
    fn presets_validate() {
        for w in workloads::all() {
            w.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn region_count_matches_footprint() {
        let w = workloads::web_search();
        assert_eq!(
            w.region_count(),
            w.mem_footprint_bytes / crate::profile::REGION_BYTES
        );
    }

    #[test]
    fn scaled_shrinks_footprint_only() {
        let w = workloads::tpch();
        let s = w.clone().scaled(8);
        assert_eq!(s.mem_footprint_bytes, w.mem_footprint_bytes / 8);
        assert_eq!(s.zipf_theta, w.zipf_theta);
        assert_eq!(s.cores, w.cores);
    }

    #[test]
    fn validate_rejects_bad_probability() {
        let mut w = workloads::web_serving();
        w.write_fraction = 1.5;
        assert!(w.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_zero_panics() {
        let _ = workloads::tpch().scaled(0);
    }
}
