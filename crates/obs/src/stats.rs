//! The unified home of the per-component counter structs.
//!
//! These used to live with their components (the CapChecker and its
//! cache store, `ioprotect::iommu`); they now live here so one
//! [`MetricSource`] call per component replaces the ad-hoc plumbing, and
//! the owning crates re-export them so existing paths keep working.

use crate::metrics::{MetricSource, Registry};

/// Running counters of the CapChecker's data path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Requests granted.
    pub granted: u64,
    /// Requests refused.
    pub denied: u64,
    /// Capabilities installed over the lifetime of the checker.
    pub installs: u64,
    /// Install attempts that found the table full.
    pub install_stalls: u64,
    /// Entries removed by task revocation (Figure 6 ② eviction).
    pub evictions: u64,
    /// Requests skipped because a static verdict map proved them safe.
    pub elided: u64,
}

impl MetricSource for CheckerStats {
    fn export_metrics(&self, registry: &mut Registry, prefix: &str) {
        registry.counter_add(format!("{prefix}granted"), self.granted);
        registry.counter_add(format!("{prefix}denied"), self.denied);
        registry.counter_add(format!("{prefix}installs"), self.installs);
        registry.counter_add(format!("{prefix}install_stalls"), self.install_stalls);
        registry.counter_add(format!("{prefix}evictions"), self.evictions);
        registry.counter_add(format!("{prefix}elided"), self.elided);
    }
}

/// Cache hit/miss counters of the cache-backed CapChecker variant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests whose capability was cached.
    pub hits: u64,
    /// Requests that walked the in-memory table.
    pub misses: u64,
    /// Total added latency from misses, in cycles.
    pub miss_cycles: u64,
    /// Requests refused (same accounting as [`CheckerStats::denied`]).
    pub denied: u64,
    /// Cache lines whose integrity checksum failed on a hit.
    pub corruption_detected: u64,
    /// Requests that bypassed the cache because a static verdict map
    /// proved them safe.
    pub elided: u64,
}

impl CacheStats {
    /// Miss ratio over all lookups (0 when idle).
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

impl MetricSource for CacheStats {
    fn export_metrics(&self, registry: &mut Registry, prefix: &str) {
        registry.counter_add(format!("{prefix}hits"), self.hits);
        registry.counter_add(format!("{prefix}misses"), self.misses);
        registry.counter_add(format!("{prefix}miss_cycles"), self.miss_cycles);
        registry.counter_add(format!("{prefix}denied"), self.denied);
        registry.counter_add(
            format!("{prefix}corruption_detected"),
            self.corruption_detected,
        );
        registry.counter_add(format!("{prefix}elided"), self.elided);
        registry.gauge_set(format!("{prefix}miss_ratio"), self.miss_ratio());
    }
}

/// Page-table statistics: how often the IOMMU's IOTLB had to walk.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IotlbStats {
    /// Requests answered from the IOTLB.
    pub hits: u64,
    /// Requests that required a page-table walk.
    pub misses: u64,
}

impl MetricSource for IotlbStats {
    fn export_metrics(&self, registry: &mut Registry, prefix: &str) {
        registry.counter_add(format!("{prefix}hits"), self.hits);
        registry.counter_add(format!("{prefix}misses"), self.misses);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checker_stats_export_all_counters() {
        let s = CheckerStats {
            granted: 5,
            denied: 1,
            installs: 3,
            install_stalls: 2,
            evictions: 4,
            elided: 6,
        };
        let mut r = Registry::new();
        r.absorb(&s, "checker.");
        let snap = r.snapshot();
        assert_eq!(snap.counter("checker.granted"), Some(5));
        assert_eq!(snap.counter("checker.install_stalls"), Some(2));
        assert_eq!(snap.counter("checker.evictions"), Some(4));
        assert_eq!(snap.counter("checker.elided"), Some(6));
    }

    #[test]
    fn cache_stats_miss_ratio() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            miss_cycles: 35,
            ..CacheStats::default()
        };
        assert!((s.miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_ratio(), 0.0);
        let mut r = Registry::new();
        r.absorb(&s, "cache.");
        assert_eq!(r.snapshot().gauge("cache.miss_ratio"), Some(0.25));
    }

    #[test]
    fn iotlb_stats_export() {
        let mut r = Registry::new();
        r.absorb(&IotlbStats { hits: 9, misses: 2 }, "iotlb.");
        assert_eq!(r.snapshot().counter("iotlb.misses"), Some(2));
    }
}
