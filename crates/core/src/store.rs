//! The two capability stores behind the one CapChecker front end.
//!
//! [`CapChecker`](crate::CapChecker) resolves provenance, applies the
//! elision gate, checks tag, permissions and bounds, and latches
//! exceptions. A [`Store`] decides only where the imported capabilities
//! live, and so owns everything that follows from that choice: lookup,
//! capacity, the occupancy Figure 12 counts, the exception trace, and its
//! own counters.
//!
//! * [`Store::Table`] — the fixed associative [`CapabilityTable`] of
//!   Figure 5 (§5.2.2). A full table refuses the install and the driver
//!   stalls the allocation.
//! * [`Store::Cache`] — §5.2.3's microarchitectural option: "a cache
//!   backing a larger in-memory table, similar to page table caching in
//!   IOMMUs/IOTLBs, but with each entry holding a capability". The
//!   hardware holds only a small, fully-associative LRU cache of
//!   compressed capability images (tens of entries, far below 30 k
//!   LUTs); the full set lives in a memory-resident table only the trusted
//!   driver can address. A miss costs a table walk but never an
//!   allocation stall.
//!
//! The protection model is the same for both — same checks, same tag
//! discipline, same exception reporting — which is why the paper could
//! defer the cache: it is performance engineering, not security.

use crate::config::CachedCheckerConfig;
use crate::table::CapabilityTable;
use cheri::{Capability, CompressedCapability};
use hetsim::{Cycles, DenyReason, ObjectId, TaskId};
use ioprotect::GrantError;
use std::collections::HashMap;

use obs::stats::CacheStats;

/// Where a checker's capabilities live. The set is closed: these are the
/// two microarchitectures §5.2 describes.
#[derive(Clone, Debug)]
pub(crate) enum Store {
    /// The fixed table, sized by [`CheckerConfig::entries`](crate::CheckerConfig).
    Table(CapabilityTable),
    /// The LRU cache over a memory-resident table.
    Cache(CapCache),
}

/// A capability found by [`Store::lookup`].
#[derive(Clone, Copy, Debug)]
pub(crate) struct Found {
    /// The capability to enforce.
    pub cap: Capability,
    /// Cache stores only: whether the lookup hit, and the stall cycles a
    /// miss cost — what check attribution records per pair.
    pub fill: Option<(bool, Cycles)>,
}

impl Store {
    /// The capability held for `(task, object)`, or the reason the
    /// request must be refused: [`DenyReason::NoEntry`] when nothing is
    /// held, [`DenyReason::InvalidTag`] when a cache line failed its
    /// integrity check (a fail-stop).
    #[inline]
    pub fn lookup(&mut self, task: TaskId, object: ObjectId) -> Result<Found, DenyReason> {
        match self {
            Store::Table(table) => table
                .lookup(task, object)
                .map(|e| Found {
                    cap: e.capability,
                    fill: None,
                })
                .ok_or(DenyReason::NoEntry),
            Store::Cache(cache) => cache.lookup((task, object)),
        }
    }

    /// Installs (or replaces) a capability; only the fixed table can be
    /// full.
    pub fn insert(
        &mut self,
        task: TaskId,
        object: ObjectId,
        cap: Capability,
    ) -> Result<(), GrantError> {
        match self {
            Store::Table(table) => table
                .install(task, object, cap)
                .map(|_| ())
                .ok_or(GrantError::TableFull),
            Store::Cache(cache) => {
                cache.backing.insert((task, object), cap);
                // A re-grant must not leave a stale image in the cache.
                cache.lines.retain(|l| l.key != (task, object));
                Ok(())
            }
        }
    }

    /// Removes every capability of `task`, returning how many it held.
    pub fn evict_task(&mut self, task: TaskId) -> u64 {
        match self {
            Store::Table(table) => table.evict_task(task) as u64,
            Store::Cache(cache) => {
                let before = cache.backing.len();
                cache.backing.retain(|(t, _), _| *t != task);
                // Shoot down cached lines too (the IOTLB-invalidate
                // analogue; skip this and you get the Thunderclap-style
                // stale-window bug).
                cache.lines.retain(|l| l.key.0 != task);
                (before - cache.backing.len()) as u64
            }
        }
    }

    /// Records a refused request against `(task, object)`: the table sets
    /// the entry's exception bit (if it holds one), the cache appends the
    /// pair to its fault list.
    pub fn note_exception(&mut self, task: TaskId, object: ObjectId) {
        match self {
            Store::Table(table) => table.mark_exception(task, object),
            Store::Cache(cache) => cache.exceptions.push((task, object)),
        }
    }

    /// The exception trace: `(task, object)` pairs that faulted — table
    /// entries with their bit set in slot order, or the cache's fault
    /// list in fault order.
    pub fn exceptions(&self) -> Vec<(TaskId, ObjectId)> {
        match self {
            Store::Table(table) => table
                .iter()
                .filter(|e| e.exception)
                .map(|e| (e.task, e.object))
                .collect(),
            Store::Cache(cache) => cache.exceptions.clone(),
        }
    }

    /// Objects of `task` that faulted, for the deallocation report: slot
    /// order for the table; sorted and deduplicated for the cache.
    pub fn offending_objects(&self, task: TaskId) -> Vec<ObjectId> {
        match self {
            Store::Table(table) => table.exceptions_for(task).map(|e| e.object).collect(),
            Store::Cache(cache) => {
                let mut objs: Vec<ObjectId> = cache
                    .exceptions
                    .iter()
                    .filter(|(t, _)| *t == task)
                    .map(|&(_, o)| o)
                    .collect();
                objs.sort_unstable_by_key(|o| o.0);
                objs.dedup();
                objs
            }
        }
    }

    /// Hardware entries in use (Figure 12): occupied table slots, or the
    /// cache lines the backing table could fill.
    pub fn entries_in_use(&self) -> usize {
        match self {
            Store::Table(table) => table.occupied(),
            Store::Cache(cache) => cache.cache_entries.min(cache.backing.len()),
        }
    }

    /// Every held capability: slot order for the table, `(task, object)`
    /// order for the backing table (so equal states snapshot equal).
    pub fn entries(&self) -> Vec<(TaskId, ObjectId, Capability)> {
        match self {
            Store::Table(table) => table
                .iter()
                .map(|e| (e.task, e.object, e.capability))
                .collect(),
            Store::Cache(cache) => {
                let mut entries: Vec<_> = cache
                    .backing
                    .iter()
                    .map(|(&(t, o), &cap)| (t, o, cap))
                    .collect();
                entries.sort_by_key(|&(t, o, _)| (t.0, o.0));
                entries
            }
        }
    }

    /// Replaces the contents with `entries` and the exception trace with
    /// `exceptions`, keeping the geometry. The cache comes back cold, its
    /// counters zeroed and no fault injection armed.
    pub fn restore(
        &mut self,
        entries: &[(TaskId, ObjectId, Capability)],
        exceptions: &[(TaskId, ObjectId)],
    ) {
        match self {
            Store::Table(table) => {
                table.clear();
                for &(task, object, cap) in entries {
                    table.install(task, object, cap);
                }
                for &(task, object) in exceptions {
                    table.mark_exception(task, object);
                }
            }
            Store::Cache(cache) => {
                cache.backing = entries.iter().map(|&(t, o, cap)| ((t, o), cap)).collect();
                cache.lines.clear();
                cache.stats = CacheStats::default();
                cache.exceptions = exceptions.to_vec();
                cache.poison_next = None;
            }
        }
    }
}

/// The cache store: an LRU cache of compressed capability images over a
/// memory-resident table.
#[derive(Clone, Debug)]
pub(crate) struct CapCache {
    /// Hardware cache lines.
    pub cache_entries: usize,
    /// Cycles a miss adds.
    pub miss_penalty: Cycles,
    /// The memory-resident table (driver-owned; unbounded by hardware).
    backing: HashMap<(TaskId, ObjectId), Capability>,
    /// LRU cache: most recently used at the back.
    lines: Vec<CacheLine>,
    /// Hit/miss/corruption counters (the front end owns `denied` and
    /// `elided`).
    pub stats: CacheStats,
    /// `(task, object)` pairs that faulted, in fault order.
    exceptions: Vec<(TaskId, ObjectId)>,
    /// Fault injection: bits to flip in the next inserted line's image.
    poison_next: Option<u128>,
}

/// One hardware cache line: the compressed capability image plus an
/// integrity checksum over it.
///
/// Holding the image (not just the key) is what makes the line a real
/// microarchitectural asset: a bit flip in the cache SRAM corrupts the
/// capability the checker would enforce. The checksum is the detection
/// story — verified on every hit, and a mismatch is a fail-stop denial
/// ([`DenyReason::InvalidTag`]) that also signals the driver to degrade
/// to the fixed table.
#[derive(Clone, Copy, Debug)]
struct CacheLine {
    key: (TaskId, ObjectId),
    /// Compressed 128-bit capability image, as the SRAM would hold it.
    bits: u128,
    checksum: u64,
}

fn line_checksum(key: (TaskId, ObjectId), bits: u128) -> u64 {
    // FNV-1a over the key and image; any storage bit flip misses this
    // unless the flip is itself crafted, which SRAM noise is not.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut step = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for b in key.0 .0.to_le_bytes() {
        step(b);
    }
    for b in key.1 .0.to_le_bytes() {
        step(b);
    }
    for b in bits.to_le_bytes() {
        step(b);
    }
    h
}

impl CapCache {
    pub fn new(config: CachedCheckerConfig) -> CapCache {
        CapCache {
            cache_entries: config.cache_entries,
            miss_penalty: config.miss_penalty,
            backing: HashMap::new(),
            lines: Vec::new(),
            stats: CacheStats::default(),
            exceptions: Vec::new(),
            poison_next: None,
        }
    }

    /// Looks `key` up, maintaining LRU order and hit/miss accounting. An
    /// integrity failure drops the line (so it cannot be consulted again)
    /// and fail-stops with [`DenyReason::InvalidTag`].
    fn lookup(&mut self, key: (TaskId, ObjectId)) -> Result<Found, DenyReason> {
        if let Some(pos) = self.lines.iter().position(|l| l.key == key) {
            let line = self.lines.remove(pos);
            if line.checksum != line_checksum(line.key, line.bits) {
                self.stats.corruption_detected += 1;
                return Err(DenyReason::InvalidTag);
            }
            self.stats.hits += 1;
            self.lines.push(line);
            // Enforce the cached image, not the backing entry — that is
            // what hardware would do.
            return Ok(Found {
                cap: CompressedCapability::from_bits(line.bits).decode(true),
                fill: Some((true, 0)),
            });
        }
        let cap = *self.backing.get(&key).ok_or(DenyReason::NoEntry)?;
        self.stats.misses += 1;
        self.stats.miss_cycles += self.miss_penalty;
        if self.lines.len() >= self.cache_entries.max(1) {
            self.lines.remove(0);
        }
        let image = cap.compress().bits();
        self.lines.push(CacheLine {
            key,
            bits: image ^ self.poison_next.take().unwrap_or(0),
            // Checksum over the *uncorrupted* image: a poisoned insert
            // models the SRAM flipping after the line was written.
            checksum: line_checksum(key, image),
        });
        Ok(Found {
            cap,
            fill: Some((false, self.miss_penalty)),
        })
    }

    /// Fault injection: flips `flip` bits in the image of the line at
    /// `slot` (LRU order, 0 = coldest) without updating its checksum.
    pub fn corrupt_slot(&mut self, slot: usize, flip: u128) -> bool {
        match self.lines.get_mut(slot) {
            Some(line) if flip != 0 => {
                line.bits ^= flip;
                true
            }
            _ => false,
        }
    }

    /// Fault injection: arms a flip that lands on the next inserted line.
    pub fn corrupt_next_insert(&mut self, flip: u128) -> bool {
        if flip != 0 {
            self.poison_next = Some(flip);
        }
        flip != 0
    }
}

#[cfg(test)]
mod tests {
    //! Store-only behaviour, seen through the checker: what one store
    //! does and the other cannot (capacity stalls, LRU, corruption).

    use crate::{CachedCheckerConfig, CapChecker, CheckerConfig, StaticVerdict, StaticVerdictMap};
    use cheri::{Capability, Perms};
    use hetsim::{Access, DenyReason, MasterId, ObjectId, TaskId};
    use ioprotect::{GrantError, IoProtection};

    fn rw(base: u64, len: u64) -> Capability {
        Capability::root()
            .set_bounds(base, len)
            .unwrap()
            .and_perms(Perms::RW)
            .unwrap()
    }

    fn read(task: u32, addr: u64, obj: u16) -> Access {
        Access::read(MasterId(1), TaskId(task), addr, 4).with_object(ObjectId(obj))
    }

    fn cached() -> CapChecker {
        CapChecker::cached(CachedCheckerConfig::default())
    }

    #[test]
    fn table_full_is_a_stall() {
        let mut c = CapChecker::new(CheckerConfig {
            entries: 1,
            ..CheckerConfig::fine()
        });
        c.grant(TaskId(1), ObjectId(0), &rw(0, 64)).unwrap();
        assert_eq!(
            c.grant(TaskId(1), ObjectId(1), &rw(64, 64)),
            Err(GrantError::TableFull)
        );
        assert_eq!(c.stats().install_stalls, 1);
    }

    #[test]
    fn static_verdicts_bypass_cache_and_leave_lru_untouched() {
        let mut c = cached();
        c.grant(TaskId(1), ObjectId(0), &rw(0x1000, 64)).unwrap();
        c.grant(TaskId(1), ObjectId(1), &rw(0x2000, 64)).unwrap();
        let mut map = StaticVerdictMap::new();
        map.set(TaskId(1), ObjectId(0), StaticVerdict::Safe);
        c.set_static_verdicts(map);

        // Safe pair: no walk, no cache traffic, one elision.
        assert!(c.check(&read(1, 0x1000, 0)).is_ok());
        let s = c.cache_stats().unwrap();
        assert_eq!((s.elided, s.hits, s.misses), (1, 0, 0));

        // Dynamic pair still walks and caches as before.
        assert!(c.check(&read(1, 0x2000, 1)).is_ok());
        assert!(c.check(&read(1, 0x2000, 1)).is_ok());
        let s = c.cache_stats().unwrap();
        assert_eq!((s.elided, s.hits, s.misses), (1, 1, 1));
    }

    #[test]
    fn elision_is_immune_to_cache_corruption() {
        let mut c = cached();
        c.grant(TaskId(1), ObjectId(0), &rw(0x1000, 64)).unwrap();
        // Warm the line, then corrupt it.
        assert!(c.check(&read(1, 0x1000, 0)).is_ok());
        assert!(c.corrupt_cache_slot(0, 1));
        // With a safe verdict the corrupt line is never consulted: the
        // check it would have served was redundant by proof.
        let mut map = StaticVerdictMap::new();
        map.set(TaskId(1), ObjectId(0), StaticVerdict::Safe);
        c.set_static_verdicts(map);
        assert!(c.check(&read(1, 0x1000, 0)).is_ok());
        assert_eq!(c.corruption_detected(), 0);
        // Dropping the map re-exposes the corruption as a fail-stop.
        c.clear_static_verdicts();
        let denial = c.check(&read(1, 0x1000, 0)).unwrap_err();
        assert_eq!(denial.reason, DenyReason::InvalidTag);
        assert_eq!(c.corruption_detected(), 1);
    }

    #[test]
    fn no_capacity_stall_even_past_256_entries() {
        let mut c = cached();
        for i in 0..1000u32 {
            c.grant(TaskId(i), ObjectId(0), &rw(u64::from(i) * 64, 64))
                .unwrap();
        }
        assert_eq!(c.snapshot().entries.len(), 1000);
        // And every one of them is checkable.
        assert!(c.check(&read(999, 999 * 64, 0)).is_ok());
        assert!(c.check(&read(0, 0, 0)).is_ok());
    }

    #[test]
    fn lru_keeps_the_hot_set() {
        let mut c = CapChecker::cached(CachedCheckerConfig {
            cache_entries: 2,
            ..CachedCheckerConfig::default()
        });
        for i in 0..3u32 {
            c.grant(TaskId(i), ObjectId(0), &rw(u64::from(i) * 64, 64))
                .unwrap();
        }
        c.check(&read(0, 0, 0)).unwrap(); // miss
        c.check(&read(0, 4, 0)).unwrap(); // hit
        c.check(&read(1, 64, 0)).unwrap(); // miss
        c.check(&read(2, 128, 0)).unwrap(); // miss (evicts task 0)
        c.check(&read(0, 8, 0)).unwrap(); // miss again
        let s = c.cache_stats().unwrap();
        assert_eq!((s.hits, s.misses), (1, 4));
        assert!(s.miss_ratio() > 0.5);
    }

    #[test]
    fn effective_latency_tracks_miss_ratio() {
        let mut c = CapChecker::cached(CachedCheckerConfig {
            cache_entries: 1,
            miss_penalty: 40,
            base: CheckerConfig::fine(),
        });
        c.grant(TaskId(1), ObjectId(0), &rw(0, 64)).unwrap();
        c.grant(TaskId(1), ObjectId(1), &rw(64, 64)).unwrap();
        // Alternate: every access misses.
        for _ in 0..8 {
            c.check(&read(1, 0, 0)).unwrap();
            c.check(&read(1, 64, 1)).unwrap();
        }
        assert!(c.effective_latency() > 40.0);
    }

    #[test]
    fn corrupted_line_is_a_fail_stop_denial() {
        let mut c = cached();
        c.grant(TaskId(1), ObjectId(0), &rw(0x1000, 64)).unwrap();
        c.check(&read(1, 0x1000, 0)).unwrap(); // warm the line
        assert!(c.corrupt_cache_slot(0, 1 << 70));
        let denial = c.check(&read(1, 0x1000, 0)).unwrap_err();
        assert_eq!(denial.reason, DenyReason::InvalidTag);
        assert_eq!(c.corruption_detected(), 1);
        assert!(c.exception_flag());
        // The corrupted line was dropped: the next check walks the table
        // and succeeds again — security never depended on the cache.
        assert!(c.check(&read(1, 0x1000, 0)).is_ok());
        assert_eq!(c.cache_stats().unwrap().denied, 1);
    }

    #[test]
    fn poisoned_insert_is_caught_on_first_hit() {
        let mut c = cached();
        c.grant(TaskId(1), ObjectId(0), &rw(0x1000, 64)).unwrap();
        assert!(c.corrupt_next_insert(0xFF));
        c.check(&read(1, 0x1000, 0)).unwrap(); // miss: inserts poisoned line
        let denial = c.check(&read(1, 0x1000, 0)).unwrap_err();
        assert_eq!(denial.reason, DenyReason::InvalidTag);
        assert_eq!(c.corruption_detected(), 1);
    }

    #[test]
    fn corrupt_hooks_are_noops_without_targets() {
        let mut c = cached();
        assert!(!c.corrupt_cache_slot(0, 1)); // empty cache
        c.grant(TaskId(1), ObjectId(0), &rw(0x1000, 64)).unwrap();
        c.check(&read(1, 0x1000, 0)).unwrap();
        assert!(!c.corrupt_cache_slot(5, 1)); // no such slot
        assert!(!c.corrupt_cache_slot(0, 0)); // zero flip mask
        assert!(c.check(&read(1, 0x1000, 0)).is_ok());
        assert_eq!(c.corruption_detected(), 0);
        // The fixed table has no cache to corrupt.
        let mut table = CapChecker::new(CheckerConfig::fine());
        assert!(!table.corrupt_next_insert(0xFF));
        assert!(!table.corrupt_cache_slot(0, 1));
    }
}
