//! An IOMMU model: page-granular protection with an IOTLB.

use crate::{require_valid, GrantError, Granularity, IoProtection, MechanismProperties};
use cheri::{Capability, Perms};
use hetsim::{Access, AccessKind, Denial, DenyReason, ObjectId, TaskId};
use std::collections::HashMap;

/// Configuration for an [`Iommu`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IommuConfig {
    /// Page size in bytes (the paper evaluates 4 kB).
    pub page_size: u64,
    /// IOTLB entries (fully associative, LRU-free random-ish eviction is
    /// immaterial to the results; we track hit/miss counts only).
    pub iotlb_entries: usize,
}

impl Default for IommuConfig {
    fn default() -> IommuConfig {
        IommuConfig {
            page_size: 4096,
            iotlb_entries: 32,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct PagePerms {
    read: bool,
    write: bool,
}

use obs::stats::IotlbStats;

/// An IOMMU: device accesses are checked (and notionally translated)
/// against per-task page mappings.
///
/// Protection granularity is the page: a buffer that does not fill its
/// pages leaves the slack reachable, and two buffers sharing a page are
/// mutually exposed — the intra-page vulnerability of §2. Entry count
/// scales with buffer *size* (pages), which is Figure 12's comparison.
#[derive(Clone, Debug)]
pub struct Iommu {
    cfg: IommuConfig,
    /// (task, page number) → permissions.
    pages: HashMap<(TaskId, u64), PagePerms>,
    iotlb: Vec<(TaskId, u64)>,
    stats: IotlbStats,
}

impl Iommu {
    /// Creates an IOMMU with the given page size and IOTLB.
    #[must_use]
    pub fn new(cfg: IommuConfig) -> Iommu {
        Iommu {
            cfg,
            pages: HashMap::new(),
            iotlb: Vec::new(),
            stats: IotlbStats::default(),
        }
    }

    /// The configured page size.
    #[must_use]
    pub fn page_size(&self) -> u64 {
        self.cfg.page_size
    }

    /// IOTLB hit/miss counters.
    #[must_use]
    pub fn iotlb_stats(&self) -> IotlbStats {
        self.stats
    }

    /// Entries an IOMMU needs for a buffer of `size` bytes under the
    /// paper's fairness rule for Figure 12 — at most one buffer per page,
    /// so every buffer occupies `ceil(size / page)` whole pages.
    #[must_use]
    pub fn entries_for_buffer(page_size: u64, size: u64) -> u64 {
        size.div_ceil(page_size).max(1)
    }

    fn touch_iotlb(&mut self, key: (TaskId, u64)) {
        if let Some(pos) = self.iotlb.iter().position(|k| *k == key) {
            self.iotlb.remove(pos);
            self.iotlb.push(key);
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
            if self.iotlb.len() >= self.cfg.iotlb_entries {
                self.iotlb.remove(0);
            }
            self.iotlb.push(key);
        }
    }
}

impl Default for Iommu {
    fn default() -> Iommu {
        Iommu::new(IommuConfig::default())
    }
}

impl IoProtection for Iommu {
    fn name(&self) -> &'static str {
        "IOMMU"
    }

    fn properties(&self) -> MechanismProperties {
        MechanismProperties::iommu()
    }

    fn granularity(&self) -> Granularity {
        Granularity::Page
    }

    fn grant(&mut self, task: TaskId, _: ObjectId, cap: &Capability) -> Result<(), GrantError> {
        require_valid(cap)?;
        let read = cap.perms().contains(Perms::LOAD);
        let write = cap.perms().contains(Perms::STORE);
        let first = cap.base() / self.cfg.page_size;
        let last = ((cap.top() - 1).min(u64::MAX as u128) as u64) / self.cfg.page_size;
        for page in first..=last {
            let e = self.pages.entry((task, page)).or_default();
            e.read |= read;
            e.write |= write;
        }
        Ok(())
    }

    fn revoke_task(&mut self, task: TaskId) {
        self.pages.retain(|(t, _), _| *t != task);
        self.iotlb.retain(|(t, _)| *t != task);
    }

    fn check(&mut self, access: &Access) -> Result<(), Denial> {
        let first = access.addr / self.cfg.page_size;
        let last = (access.addr + access.len.saturating_sub(1)) / self.cfg.page_size;
        for page in first..=last {
            self.touch_iotlb((access.task, page));
            match self.pages.get(&(access.task, page)) {
                None => {
                    return Err(Denial {
                        access: *access,
                        reason: DenyReason::NoEntry,
                    })
                }
                Some(p) => {
                    let allowed = match access.kind {
                        AccessKind::Read => p.read,
                        AccessKind::Write => p.write,
                    };
                    if !allowed {
                        return Err(Denial {
                            access: *access,
                            reason: DenyReason::MissingPermission,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn entries_in_use(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsim::MasterId;

    fn rw_cap(base: u64, len: u64) -> Capability {
        Capability::root()
            .set_bounds(base, len)
            .unwrap()
            .and_perms(Perms::RW)
            .unwrap()
    }

    fn read(task: u32, addr: u64, len: u64) -> Access {
        Access::read(MasterId(0), TaskId(task), addr, len)
    }

    #[test]
    fn page_mapping_grants_the_whole_page() {
        let mut mmu = Iommu::default();
        // A 64-byte buffer in the middle of a page…
        mmu.grant(TaskId(1), ObjectId(0), &rw_cap(0x1100, 64))
            .unwrap();
        assert!(mmu.check(&read(1, 0x1100, 64)).is_ok());
        // …leaves the page slack exposed: the intra-page weakness.
        assert!(
            mmu.check(&read(1, 0x1000, 16)).is_ok(),
            "page slack is reachable"
        );
        assert!(mmu.check(&read(1, 0x1fff, 1)).is_ok());
        // The neighbouring page is not mapped.
        assert!(mmu.check(&read(1, 0x2000, 1)).is_err());
    }

    #[test]
    fn cross_task_isolation_holds_at_pages() {
        let mut mmu = Iommu::default();
        mmu.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 4096))
            .unwrap();
        assert!(mmu.check(&read(2, 0x1000, 4)).is_err());
    }

    #[test]
    fn entry_count_scales_with_size() {
        let mut mmu = Iommu::default();
        mmu.grant(TaskId(1), ObjectId(0), &rw_cap(0, 16 * 4096))
            .unwrap();
        assert_eq!(mmu.entries_in_use(), 16);
        assert_eq!(Iommu::entries_for_buffer(4096, 16 * 4096), 16);
        assert_eq!(Iommu::entries_for_buffer(4096, 1), 1);
        assert_eq!(Iommu::entries_for_buffer(4096, 4097), 2);
    }

    #[test]
    fn straddling_access_needs_both_pages() {
        let mut mmu = Iommu::default();
        mmu.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 4096))
            .unwrap();
        // 8 bytes straddling into the unmapped page 2 fail.
        assert!(mmu.check(&read(1, 0x1ffc, 8)).is_err());
    }

    #[test]
    fn write_permission_is_separate() {
        let mut mmu = Iommu::default();
        let ro = Capability::root()
            .set_bounds(0x1000, 64)
            .unwrap()
            .and_perms(Perms::LOAD)
            .unwrap();
        mmu.grant(TaskId(1), ObjectId(0), &ro).unwrap();
        let w = Access::write(MasterId(0), TaskId(1), 0x1000, 4);
        assert_eq!(
            mmu.check(&w).unwrap_err().reason,
            DenyReason::MissingPermission
        );
    }

    #[test]
    fn iotlb_counts_hits_and_misses() {
        let mut mmu = Iommu::default();
        mmu.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 4096))
            .unwrap();
        for _ in 0..10 {
            mmu.check(&read(1, 0x1004, 4)).unwrap();
        }
        let s = mmu.iotlb_stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 9);
    }

    #[test]
    fn revoke_unmaps_and_flushes() {
        let mut mmu = Iommu::default();
        mmu.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 4096))
            .unwrap();
        mmu.revoke_task(TaskId(1));
        assert_eq!(mmu.entries_in_use(), 0);
        assert!(mmu.check(&read(1, 0x1000, 4)).is_err());
    }
}
