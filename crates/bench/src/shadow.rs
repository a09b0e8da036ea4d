//! A shadow miss predictor: evaluates what an Alloy-style MAP-I predictor
//! *would* achieve on another design's hit/miss stream.
//!
//! §III-A argues that with Unison Cache's high hit rates, "a static
//! 'always-hit' prediction would achieve accuracy similar to a dynamic hit
//! prediction", so the miss predictor can be dropped. The
//! `ablation_always_hit` binary verifies that claim by running a MAP-I
//! shadow over Unison Cache's outcome stream and comparing it against the
//! static predictor (whose accuracy is simply the hit ratio).

use unison_core::{CacheAccess, CacheStats, DramCacheModel, MemPorts, Request};
use unison_dram::Ps;
use unison_predictors::MissPredictor;

/// Wraps a cache design and trains a MAP-I predictor on its outcomes
/// without influencing them.
#[derive(Debug)]
pub struct ShadowMissPredictor<C> {
    inner: C,
    shadow: MissPredictor,
}

impl<C: DramCacheModel> ShadowMissPredictor<C> {
    /// Wraps `inner` with a paper-sized (16-core) shadow predictor.
    pub fn new(inner: C) -> Self {
        ShadowMissPredictor {
            inner,
            shadow: MissPredictor::paper_default(),
        }
    }

    /// `(correct, false_miss, false_hit)` counts of the shadow predictor.
    pub fn shadow_stats(&self) -> (u64, u64, u64) {
        self.shadow.outcome_stats()
    }

    /// Accuracy of the dynamic shadow predictor.
    pub fn shadow_accuracy(&self) -> f64 {
        let (c, fm, fh) = self.shadow.outcome_stats();
        let total = c + fm + fh;
        if total == 0 {
            0.0
        } else {
            c as f64 / total as f64
        }
    }

    /// The wrapped design.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: DramCacheModel> DramCacheModel for ShadowMissPredictor<C> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }

    fn access(&mut self, now: Ps, req: &Request, mem: &mut MemPorts) -> CacheAccess {
        // Predict first (so the shadow cannot peek at the outcome), then
        // train with the real result.
        let slot = self.shadow.slot(u32::from(req.core), req.pc);
        let _ = self.shadow.predict(slot);
        let access = self.inner.access(now, req, mem);
        self.shadow.update(slot, access.hit());
        access
    }

    fn stats(&self) -> &CacheStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
        self.shadow.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unison_core::{UnisonCache, UnisonConfig};

    #[test]
    fn shadow_observes_without_interfering() {
        let mut mem = MemPorts::paper_default();
        let mut shadowed = ShadowMissPredictor::new(UnisonCache::new(UnisonConfig::new(1 << 20)));
        let mut plain = UnisonCache::new(UnisonConfig::new(1 << 20));
        let mut mem2 = MemPorts::paper_default();
        let mut t = 0;
        for i in 0..200u64 {
            let req = Request {
                core: (i % 16) as u8,
                pc: 0x400 + (i % 7) * 64,
                addr: (i % 40) * 960,
                is_write: false,
            };
            let a = shadowed.access(t, &req, &mut mem);
            let b = plain.access(t, &req, &mut mem2);
            assert_eq!(a.outcome, b.outcome, "shadow must not change behaviour");
            t = a.done_ps.max(b.done_ps);
        }
        let (c, fm, fh) = shadowed.shadow_stats();
        assert_eq!(c + fm + fh, 200);
    }
}
