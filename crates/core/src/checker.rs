//! The CapChecker itself — Figure 5's hardware block.
//!
//! The checker sits between the accelerator functional units and the
//! memory controller. It holds imported capabilities in a capability
//! store, decodes them, and vets every DMA request:
//!
//! 1. recover the object identity (port metadata in *Fine* mode, top
//!    address bits in *Coarse* mode);
//! 2. skip the check for a pair the static analyzer proved safe;
//! 3. fetch the `(task, object)` capability from the store;
//! 4. check tag, permissions, and bounds;
//! 5. grant — or raise an exception: set the global flag, record the pair
//!    in the store's exception trace, and refuse the request.
//!
//! Those steps are the *front end*, and there is one of it. Where the
//! capabilities live is the store's business (`store.rs`): the fixed
//! table of §5.2.2, or §5.2.3's cache over a memory-resident table. The
//! two constructors, [`CapChecker::new`] and [`CapChecker::cached`], pick
//! the store; nothing else differs.
//!
//! Writes that *are* granted still clear memory tags downstream (the
//! system's write path is capability-unaware), which is what makes
//! capability forging by DMA impossible.
//!
//! Capabilities arrive from the CHERI CPU over a dedicated capability
//! interconnect, exposed here as an MMIO register map ([`regs`]).

use crate::attrib::CheckAttribution;
use crate::config::{CachedCheckerConfig, CheckerConfig, CheckerMode};
use crate::elide::{StaticVerdictMap, VerdictBitmap};
use crate::store::{CapCache, Store};
use crate::table::CapabilityTable;
use cheri::{Capability, CompressedCapability, Perms};
use hetsim::mmio::MmioDevice;
use hetsim::{Access, AccessKind, Cycles, Denial, DenyReason, ObjectId, TaskId};
use ioprotect::{GrantError, Granularity, IoProtection, MechanismProperties};
use obs::stats::{CacheStats, CheckerStats};
use obs::Registry;
use std::fmt;

/// MMIO register offsets of the capability-import interface.
pub mod regs {
    /// Write: low 64 bits of the staged compressed capability.
    pub const CAP_LO: u64 = 0x00;
    /// Write: high 64 bits (the address field).
    pub const CAP_HI: u64 = 0x08;
    /// Write: staged tag (bit 0).
    pub const TAG: u64 = 0x10;
    /// Write: staged task ID.
    pub const TASK: u64 = 0x18;
    /// Write: staged object ID.
    pub const OBJECT: u64 = 0x20;
    /// Write: commit the staged capability; read: last commit status.
    pub const COMMIT: u64 = 0x28;
    /// Read: global exception flag; write: clear it.
    pub const EXCEPTION: u64 = 0x30;
    /// Write: evict every entry of the given task ID.
    pub const EVICT_TASK: u64 = 0x38;
    /// Read: occupied entry count.
    pub const OCCUPANCY: u64 = 0x40;
    /// Read: requests granted since reset (hardware performance counter).
    pub const GRANTED: u64 = 0x48;
    /// Read: requests denied since reset.
    pub const DENIED: u64 = 0x50;
    /// Read: capability installs since reset.
    pub const INSTALLS: u64 = 0x58;

    /// COMMIT status: installed.
    pub const STATUS_OK: u64 = 0;
    /// COMMIT status: table full (allocation must stall or evict).
    pub const STATUS_FULL: u64 = 1;
    /// COMMIT status: staged capability was invalid (tag clear or sealed).
    pub const STATUS_INVALID: u64 = 2;
}

/// Architectural state of a [`CapChecker`] captured by
/// [`CapChecker::snapshot`]: the store's capabilities, its exception
/// trace, and the latched global exception flag.
///
/// Performance counters, MMIO staging, the cache's contents, attribution,
/// armed fault injections and any installed static-verdict map are *not*
/// captured — a snapshot records what the checker enforces, not how fast
/// or why. The bounded model checker forks thousands of these per run, so
/// they stay small on purpose.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckerSnapshot {
    /// Held capabilities: slot order for the fixed table, sorted by
    /// `(task, object)` for the cache's backing table.
    pub entries: Vec<(TaskId, ObjectId, Capability)>,
    /// Pairs that faulted: table entries with their exception bit set, in
    /// slot order; the cache's fault list, in fault order.
    pub exceptions: Vec<(TaskId, ObjectId)>,
    /// The latched global exception flag.
    pub exception_flag: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct Staging {
    lo: u64,
    hi: u64,
    tag: bool,
    task: u32,
    object: u16,
    status: u64,
}

/// The CAPability Checker.
///
/// # Examples
///
/// ```
/// use capchecker::{CachedCheckerConfig, CapChecker, CheckerConfig};
/// use cheri::{Capability, Perms};
/// use hetsim::{Access, MasterId, ObjectId, TaskId};
/// use ioprotect::IoProtection;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cap = Capability::root().set_bounds(0x1000, 256)?.and_perms(Perms::RW)?;
/// let ok = Access::read(MasterId(1), TaskId(1), 0x1000, 16).with_object(ObjectId(0));
/// let oob = Access::read(MasterId(1), TaskId(1), 0x1100, 16).with_object(ObjectId(0));
///
/// // The paper's fixed 256-entry table.
/// let mut checker = CapChecker::new(CheckerConfig::fine());
/// checker.grant(TaskId(1), ObjectId(0), &cap)?;
/// assert!(checker.check(&ok).is_ok());
/// assert!(checker.check(&oob).is_err());
/// assert!(checker.exception_flag());
///
/// // The same front end over a 16-line cache of a memory-resident table.
/// let mut cached = CapChecker::cached(CachedCheckerConfig::default());
/// cached.grant(TaskId(1), ObjectId(0), &cap)?;
/// cached.check(&ok)?; // cold: table walk
/// cached.check(&ok)?; // warm: cache hit
/// let stats = cached.cache_stats().expect("cache store");
/// assert_eq!((stats.misses, stats.hits), (1, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CapChecker {
    config: CheckerConfig,
    store: Store,
    staging: Staging,
    exception_flag: bool,
    stats: CheckerStats,
    static_verdicts: Option<StaticVerdictMap>,
    /// `static_verdicts` compiled to per-task bit words — the branch-free
    /// elision test on the beat path. Invariant: always equal to
    /// `VerdictBitmap::build` of the installed map (empty when none), so
    /// elision decisions and counters match the map-walk semantics
    /// byte-for-byte.
    verdict_bits: VerdictBitmap,
    attrib: Option<CheckAttribution>,
}

impl CapChecker {
    /// Builds a checker over the fixed capability table.
    #[must_use]
    pub fn new(config: CheckerConfig) -> CapChecker {
        CapChecker::with_store(config, Store::Table(CapabilityTable::new(config.entries)))
    }

    /// Builds a checker over a cache of a memory-resident table.
    #[must_use]
    pub fn cached(config: CachedCheckerConfig) -> CapChecker {
        CapChecker::with_store(config.base, Store::Cache(CapCache::new(config)))
    }

    fn with_store(config: CheckerConfig, store: Store) -> CapChecker {
        CapChecker {
            config,
            store,
            staging: Staging::default(),
            exception_flag: false,
            stats: CheckerStats::default(),
            static_verdicts: None,
            verdict_bits: VerdictBitmap::new(),
            attrib: None,
        }
    }

    /// An empty checker with this one's store and geometry, in provenance
    /// mode `mode` — what a Fine ⇄ Coarse switch rebuilds.
    #[must_use]
    pub fn empty_in_mode(&self, mode: CheckerMode) -> CapChecker {
        match self.cache_config() {
            Some(cfg) => CapChecker::cached(cfg.with_mode(mode)),
            None => CapChecker::new(CheckerConfig {
                mode,
                ..self.config
            }),
        }
    }

    /// Starts per-master / per-`(task, object)` check attribution
    /// (including hit/miss/stall accounting per pair on the cache store).
    /// Off by default: the data path then pays one `None` test per check.
    pub fn enable_attribution(&mut self) {
        self.attrib = Some(CheckAttribution::new());
    }

    /// The attribution collected so far, if enabled.
    #[must_use]
    pub fn attribution(&self) -> Option<&CheckAttribution> {
        self.attrib.as_ref()
    }

    /// Installs a static verdict map: per-beat checks are skipped for
    /// `(task, object)` pairs the analyzer proved safe, each skip
    /// counted in [`CheckerStats::elided`]. Unsafe and dynamic pairs
    /// are judged exactly as before. Skipped checks never reach the
    /// store, so they leave the cache's LRU state untouched.
    ///
    /// The map is compiled to a [`VerdictBitmap`] here, once, so the
    /// beat path tests a bit word instead of walking the map.
    pub fn set_static_verdicts(&mut self, map: StaticVerdictMap) {
        self.verdict_bits = VerdictBitmap::build(&map);
        self.static_verdicts = Some(map);
    }

    /// Removes the verdict map (and its compiled bitmap); every beat is
    /// checked again. This is the invalidation hook the recovery and
    /// degradation paths use — dropping the map without dropping the
    /// bitmap would keep eliding from a stale proof.
    pub fn clear_static_verdicts(&mut self) {
        self.static_verdicts = None;
        self.verdict_bits = VerdictBitmap::new();
    }

    /// The installed verdict map, if any.
    #[must_use]
    pub fn static_verdicts(&self) -> Option<&StaticVerdictMap> {
        self.static_verdicts.as_ref()
    }

    /// Captures the checker's architectural state for later
    /// [`restore`](CapChecker::restore) — the fork half of the model
    /// checker's fork-and-explore loop. See [`CheckerSnapshot`] for what
    /// is (and is not) captured.
    #[must_use]
    pub fn snapshot(&self) -> CheckerSnapshot {
        CheckerSnapshot {
            entries: self.store.entries(),
            exceptions: self.store.exceptions(),
            exception_flag: self.exception_flag,
        }
    }

    /// Restores architectural state captured by
    /// [`snapshot`](CapChecker::snapshot) into this checker's store: the
    /// capabilities and exception trace are rebuilt and the global flag
    /// is reloaded. Counters restart from zero, the MMIO staging area is
    /// cleared and the cache comes back cold — timing changes, verdicts do
    /// not: every check after a restore returns exactly what the
    /// snapshotted checker would have returned.
    pub fn restore(&mut self, snap: &CheckerSnapshot) {
        self.store.restore(&snap.entries, &snap.exceptions);
        self.exception_flag = snap.exception_flag;
        self.staging = Staging::default();
        self.stats = CheckerStats::default();
    }

    /// `true` when the compiled [`VerdictBitmap`] equals
    /// `VerdictBitmap::build` of the installed map (or is empty when no
    /// map is installed) — the coherence invariant the model checker
    /// asserts at every explored state.
    #[must_use]
    pub fn verdicts_coherent(&self) -> bool {
        match &self.static_verdicts {
            Some(map) => self.verdict_bits == VerdictBitmap::build(map),
            None => self.verdict_bits.is_empty(),
        }
    }

    /// The provenance and addressing configuration.
    #[must_use]
    pub fn config(&self) -> &CheckerConfig {
        &self.config
    }

    /// The full configuration of a cache-backed checker; `None` for the
    /// fixed table.
    #[must_use]
    pub fn cache_config(&self) -> Option<CachedCheckerConfig> {
        match &self.store {
            Store::Table(_) => None,
            Store::Cache(cache) => Some(CachedCheckerConfig {
                cache_entries: cache.cache_entries,
                miss_penalty: cache.miss_penalty,
                base: self.config,
            }),
        }
    }

    /// Whether the capabilities live in a cache over a memory-resident
    /// table (as opposed to the fixed table).
    #[must_use]
    pub fn is_cached(&self) -> bool {
        matches!(self.store, Store::Cache(_))
    }

    /// The provenance mode.
    #[must_use]
    pub fn mode(&self) -> CheckerMode {
        self.config.mode
    }

    /// The global exception flag (the CPU polls this).
    #[must_use]
    pub fn exception_flag(&self) -> bool {
        self.exception_flag
    }

    /// Clears the global exception flag.
    pub fn clear_exception_flag(&mut self) {
        self.exception_flag = false;
    }

    /// Data-path counters.
    #[must_use]
    pub fn stats(&self) -> CheckerStats {
        self.stats
    }

    /// Cache counters of a cache-backed checker; `None` for the fixed
    /// table.
    #[must_use]
    pub fn cache_stats(&self) -> Option<CacheStats> {
        match &self.store {
            Store::Table(_) => None,
            Store::Cache(cache) => Some(CacheStats {
                denied: self.stats.denied,
                elided: self.stats.elided,
                ..cache.stats
            }),
        }
    }

    /// Exports the store's counters: [`CheckerStats`] under `checker.` for
    /// the fixed table, [`CacheStats`] under `cache.` for the cache.
    pub fn export_metrics(&self, registry: &mut Registry) {
        match self.cache_stats() {
            None => registry.absorb(&self.stats, "checker."),
            Some(stats) => registry.absorb(&stats, "cache."),
        }
    }

    /// Objects of `task` that raised an exception — the software trace of
    /// which pointer misbehaved.
    #[must_use]
    pub fn offending_objects(&self, task: TaskId) -> Vec<ObjectId> {
        self.store.offending_objects(task)
    }

    /// Corruption detections so far (checksum failures on cache hits);
    /// always 0 for the fixed table.
    #[must_use]
    pub fn corruption_detected(&self) -> u64 {
        self.cache_stats().map_or(0, |s| s.corruption_detected)
    }

    /// Average added check latency given the observed miss ratio — what
    /// the ablation trades against the fixed table's area.
    #[must_use]
    pub fn effective_latency(&self) -> f64 {
        let miss = match &self.store {
            Store::Table(_) => 0.0,
            Store::Cache(cache) => cache.stats.miss_ratio() * cache.miss_penalty as f64,
        };
        self.config.pipeline_latency as f64 + miss
    }

    /// Fault-injection hook: flips `flip` bits in the image of the cache
    /// line at `slot` (LRU order, 0 = coldest) without updating its
    /// checksum. Returns `false` when no such line exists (always, for
    /// the fixed table).
    pub fn corrupt_cache_slot(&mut self, slot: usize, flip: u128) -> bool {
        match &mut self.store {
            Store::Table(_) => false,
            Store::Cache(cache) => cache.corrupt_slot(slot, flip),
        }
    }

    /// Fault-injection hook: arms a bit flip that lands on the next line
    /// inserted into the cache (useful when the cache is still cold).
    /// Returns whether a flip was armed (never, for the fixed table).
    pub fn corrupt_next_insert(&mut self, flip: u128) -> bool {
        match &mut self.store {
            Store::Table(_) => false,
            Store::Cache(cache) => cache.corrupt_next_insert(flip),
        }
    }

    /// The driver's import sequence for one capability. The fixed table
    /// is filled over the MMIO register map ([`regs`]); the cache's
    /// backing table is memory-resident, so the driver writes it
    /// directly.
    ///
    /// # Errors
    ///
    /// As [`IoProtection::grant`].
    pub fn import(
        &mut self,
        task: TaskId,
        object: ObjectId,
        cap: &Capability,
    ) -> Result<(), GrantError> {
        if self.is_cached() {
            return self.grant(task, object, cap);
        }
        let bits = cap.compress().bits();
        self.mmio_write(regs::CAP_LO, bits as u64);
        self.mmio_write(regs::CAP_HI, (bits >> 64) as u64);
        self.mmio_write(regs::TAG, u64::from(cap.is_valid()));
        self.mmio_write(regs::TASK, u64::from(task.0));
        self.mmio_write(regs::OBJECT, u64::from(object.0));
        self.mmio_write(regs::COMMIT, 1);
        match self.mmio_read(regs::COMMIT) {
            regs::STATUS_OK => Ok(()),
            regs::STATUS_FULL => Err(GrantError::TableFull),
            _ => Err(GrantError::InvalidCapability),
        }
    }

    /// Driver cycles one [`import`](CapChecker::import) costs on the
    /// capability interconnect: the MMIO staging writes for the fixed
    /// table, none for the memory-resident table.
    #[must_use]
    pub fn import_cycles(&self) -> Cycles {
        match self.store {
            Store::Table(_) => self.config.install_cycles(),
            Store::Cache(_) => 0,
        }
    }

    /// Evicts every capability of `task` (Figure 6 ②), returning how many
    /// the store held.
    pub fn evict_task(&mut self, task: TaskId) -> u64 {
        let evicted = self.store.evict_task(task);
        self.stats.evictions += evicted;
        evicted
    }

    /// The physical address a granted request should use (strips the
    /// Coarse object bits; identity in Fine mode).
    #[must_use]
    pub fn physical_address(&self, addr: u64) -> u64 {
        match self.config.mode {
            CheckerMode::Fine => addr,
            CheckerMode::Coarse => self.config.coarse_split_address(addr).1,
        }
    }

    fn required_perms(kind: AccessKind) -> Perms {
        match kind {
            AccessKind::Read => Perms::LOAD,
            AccessKind::Write => Perms::STORE,
        }
    }

    fn deny(&mut self, access: &Access, object: Option<ObjectId>, reason: DenyReason) -> Denial {
        if let Some(obj) = object {
            self.store.note_exception(access.task, obj);
        }
        self.exception_flag = true;
        self.stats.denied += 1;
        Denial {
            access: *access,
            reason,
        }
    }

    fn resolve_object(&self, access: &Access) -> Result<(ObjectId, u64), DenyReason> {
        match self.config.mode {
            CheckerMode::Fine => match access.object {
                Some(obj) => Ok((obj, access.addr)),
                // Fine hardware cannot check a request with no provenance.
                None => Err(DenyReason::BadProvenance),
            },
            CheckerMode::Coarse => {
                let (obj, phys) = self.config.coarse_split_address(access.addr);
                Ok((ObjectId(obj), phys))
            }
        }
    }

    /// The full check pipeline, returning the granted request's physical
    /// address. Both [`IoProtection::check`] and [`IoProtection::vet`]
    /// are thin wrappers over this, so the one-call and two-call paths
    /// cannot diverge in verdicts, counters, or exception latching.
    ///
    /// The returned address equals `translate(access.addr)`: in Fine mode
    /// both are the identity, and in Coarse mode `resolve_object` and
    /// `translate` strip the same object bits.
    #[inline]
    fn vet_inner(&mut self, access: &Access) -> Result<u64, Denial> {
        let (object, phys) = match self.resolve_object(access) {
            Ok(pair) => pair,
            Err(reason) => {
                if let Some(a) = &mut self.attrib {
                    a.denied(access.master, None);
                }
                return Err(self.deny(access, None, reason));
            }
        };
        // Elision gate: provenance is already resolved, so a safe verdict
        // covers exactly the stream the analyzer classified. Unresolved
        // (no-provenance) requests never reach this point and are denied
        // above regardless of any verdict. The verdict itself is a
        // branch-free bitmap test — the bitmap is kept equal to the
        // installed map, and an empty bitmap (no map) marks nothing safe.
        if self.verdict_bits.is_safe(access.task, object) {
            self.stats.elided += 1;
            if let Some(a) = &mut self.attrib {
                a.elided(access.master, access.task, object);
            }
            return Ok(phys);
        }
        let needed = CapChecker::required_perms(access.kind);
        let verdict = self.store.lookup(access.task, object).and_then(|found| {
            if let (Some(a), Some((hit, stall))) = (&mut self.attrib, found.fill) {
                a.lookup(access.master, access.task, object, hit, stall);
            }
            found
                .cap
                .check_access(phys, access.len, needed)
                .map_err(DenyReason::Capability)
        });
        match verdict {
            Ok(()) => {
                self.stats.granted += 1;
                if let Some(a) = &mut self.attrib {
                    a.granted(access.master, access.task, object);
                }
                Ok(phys)
            }
            Err(reason) => {
                if let Some(a) = &mut self.attrib {
                    a.denied(access.master, Some((access.task, object)));
                }
                Err(self.deny(access, Some(object), reason))
            }
        }
    }
}

impl IoProtection for CapChecker {
    fn name(&self) -> &'static str {
        match (&self.store, self.config.mode) {
            (Store::Table(_), CheckerMode::Fine) => "CapChecker-Fine",
            (Store::Table(_), CheckerMode::Coarse) => "CapChecker-Coarse",
            (Store::Cache(_), _) => "CapChecker-Cached",
        }
    }

    fn properties(&self) -> MechanismProperties {
        MechanismProperties::cheri()
    }

    fn granularity(&self) -> Granularity {
        match self.config.mode {
            CheckerMode::Fine => Granularity::Object,
            // Object bits in addresses are attacker-influencable, so the
            // guaranteed separation is per task (Table 3, §5.2.3).
            CheckerMode::Coarse => Granularity::Task,
        }
    }

    fn grant(
        &mut self,
        task: TaskId,
        object: ObjectId,
        cap: &Capability,
    ) -> Result<(), GrantError> {
        if !cap.is_valid() || cap.is_sealed() {
            return Err(GrantError::InvalidCapability);
        }
        self.stats.installs += 1;
        let installed = self.store.insert(task, object, *cap);
        if installed.is_err() {
            self.stats.install_stalls += 1;
        }
        installed
    }

    fn revoke_task(&mut self, task: TaskId) {
        self.evict_task(task);
    }

    fn check(&mut self, access: &Access) -> Result<(), Denial> {
        self.vet_inner(access).map(|_| ())
    }

    fn entries_in_use(&self) -> usize {
        self.store.entries_in_use()
    }

    fn translate(&self, addr: u64) -> u64 {
        self.physical_address(addr)
    }

    #[inline]
    fn vet(&mut self, access: &Access) -> Result<u64, Denial> {
        self.vet_inner(access)
    }
}

impl MmioDevice for CapChecker {
    fn mmio_read(&mut self, offset: u64) -> u64 {
        match offset {
            regs::COMMIT => self.staging.status,
            regs::EXCEPTION => u64::from(self.exception_flag),
            regs::OCCUPANCY => self.store.entries_in_use() as u64,
            regs::GRANTED => self.stats.granted,
            regs::DENIED => self.stats.denied,
            regs::INSTALLS => self.stats.installs,
            _ => 0,
        }
    }

    fn mmio_write(&mut self, offset: u64, value: u64) {
        match offset {
            regs::CAP_LO => self.staging.lo = value,
            regs::CAP_HI => self.staging.hi = value,
            regs::TAG => self.staging.tag = value & 1 == 1,
            regs::TASK => self.staging.task = value as u32,
            regs::OBJECT => self.staging.object = value as u16,
            regs::COMMIT => {
                let bits = (u128::from(self.staging.hi) << 64) | u128::from(self.staging.lo);
                let cap = CompressedCapability::from_bits(bits).decode(self.staging.tag);
                let task = TaskId(self.staging.task);
                let object = ObjectId(self.staging.object);
                self.staging.status = match self.grant(task, object, &cap) {
                    Ok(()) => regs::STATUS_OK,
                    Err(GrantError::TableFull) => regs::STATUS_FULL,
                    Err(_) => regs::STATUS_INVALID,
                };
            }
            regs::EXCEPTION => self.exception_flag = false,
            regs::EVICT_TASK => self.revoke_task(TaskId(value as u32)),
            _ => {}
        }
    }
}

impl fmt::Display for CapChecker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} entries in use, exc={}",
            self.name(),
            self.config.mode.label(),
            self.store.entries_in_use(),
            self.exception_flag
        )
    }
}

#[cfg(test)]
mod tests {
    //! Front-end behaviour, run over both stores: whatever the store, the
    //! verdicts, counters, exception latch and MMIO registers agree.
    //! Store-only behaviour (capacity, LRU, corruption) is tested in
    //! `store.rs`.

    use super::*;
    use crate::elide::StaticVerdict;
    use cheri::CapFault;
    use hetsim::MasterId;

    fn rw_cap(base: u64, len: u64) -> Capability {
        Capability::root()
            .set_bounds(base, len)
            .unwrap()
            .and_perms(Perms::RW)
            .unwrap()
    }

    /// One checker per store, both in `base`'s provenance mode.
    fn both_stores(base: CheckerConfig) -> [CapChecker; 2] {
        [
            CapChecker::new(base),
            CapChecker::cached(CachedCheckerConfig {
                base,
                ..CachedCheckerConfig::default()
            }),
        ]
    }

    fn with_two_buffers() -> [CapChecker; 2] {
        both_stores(CheckerConfig::fine()).map(|mut c| {
            c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 0x100))
                .unwrap();
            c.grant(TaskId(1), ObjectId(1), &rw_cap(0x3000, 0x100))
                .unwrap();
            c
        })
    }

    fn read(task: u32, addr: u64, obj: u16) -> Access {
        Access::read(MasterId(1), TaskId(task), addr, 4).with_object(ObjectId(obj))
    }

    #[test]
    fn the_two_stores_are_named_apart() {
        let [table, cached] = both_stores(CheckerConfig::fine());
        assert_eq!(
            (table.name(), cached.name()),
            ("CapChecker-Fine", "CapChecker-Cached")
        );
        assert!(!table.is_cached() && cached.is_cached());
        assert_eq!(
            CapChecker::new(CheckerConfig::coarse()).name(),
            "CapChecker-Coarse"
        );
    }

    #[test]
    fn fine_mode_blocks_cross_object_access() {
        for mut c in with_two_buffers() {
            // Reading buffer 1's memory with buffer 0's pointer: the
            // principle of intentional use.
            let denial = c.check(&read(1, 0x3000, 0)).unwrap_err();
            assert!(
                matches!(
                    denial.reason,
                    DenyReason::Capability(CapFault::BoundsViolation { .. })
                ),
                "{}",
                c.name()
            );
            assert!(c.exception_flag());
            // And the offending pointer is traceable.
            assert_eq!(
                c.offending_objects(TaskId(1)),
                [ObjectId(0)],
                "{}",
                c.name()
            );
            assert!(c.offending_objects(TaskId(2)).is_empty());
        }
    }

    #[test]
    fn fine_mode_requires_provenance() {
        for mut c in with_two_buffers() {
            let anon = Access::read(MasterId(1), TaskId(1), 0x1000, 4);
            assert_eq!(
                c.check(&anon).unwrap_err().reason,
                DenyReason::BadProvenance
            );
        }
    }

    #[test]
    fn wrong_task_and_sealed_imports_are_refused() {
        for mut c in with_two_buffers() {
            assert_eq!(
                c.check(&read(2, 0x1000, 0)).unwrap_err().reason,
                DenyReason::NoEntry
            );
            let sealed = Capability::root().seal(9).unwrap();
            assert_eq!(
                c.grant(TaskId(1), ObjectId(2), &sealed),
                Err(GrantError::InvalidCapability)
            );
        }
    }

    #[test]
    fn coarse_mode_recovers_object_from_address() {
        let cfg = CheckerConfig::coarse();
        for mut c in both_stores(cfg) {
            c.grant(TaskId(1), ObjectId(2), &rw_cap(0x1000, 0x100))
                .unwrap();
            let tagged = cfg.coarse_tag_address(2, 0x1040);
            let a = Access::read(MasterId(1), TaskId(1), tagged, 4);
            assert_eq!(c.vet(&a), Ok(0x1040), "{}", c.name());
            assert_eq!(c.translate(tagged), 0x1040);
            // Out of bounds within the right object still faults.
            let oob = Access::read(MasterId(1), TaskId(1), cfg.coarse_tag_address(2, 0x1100), 4);
            assert!(c.check(&oob).is_err());
        }
    }

    #[test]
    fn coarse_mode_still_separates_tasks() {
        let cfg = CheckerConfig::coarse();
        for mut c in both_stores(cfg) {
            c.grant(TaskId(1), ObjectId(0), &rw_cap(0x1000, 0x100))
                .unwrap();
            // Task 2 forging task 1's object bits gets nothing: the task ID
            // comes from the interconnect source, not the address.
            let forged = Access::read(MasterId(2), TaskId(2), cfg.coarse_tag_address(0, 0x1000), 4);
            assert_eq!(c.check(&forged).unwrap_err().reason, DenyReason::NoEntry);
        }
    }

    #[test]
    fn write_needs_store_permission() {
        let ro = Capability::root()
            .set_bounds(0x1000, 64)
            .unwrap()
            .and_perms(Perms::LOAD)
            .unwrap();
        for mut c in both_stores(CheckerConfig::fine()) {
            c.grant(TaskId(1), ObjectId(0), &ro).unwrap();
            let w = Access::write(MasterId(1), TaskId(1), 0x1000, 4).with_object(ObjectId(0));
            let denial = c.check(&w).unwrap_err();
            assert!(matches!(
                denial.reason,
                DenyReason::Capability(CapFault::PermissionViolation { .. })
            ));
        }
    }

    #[test]
    fn revocation_drops_every_entry_of_the_task() {
        for mut c in with_two_buffers() {
            c.check(&read(1, 0x1000, 0)).unwrap(); // warm a cache line
            assert_eq!(c.evict_task(TaskId(1)), 2, "{}", c.name());
            assert_eq!(c.stats().evictions, 2);
            // No stale copy outlives the grant.
            assert_eq!(
                c.check(&read(1, 0x1000, 0)).unwrap_err().reason,
                DenyReason::NoEntry
            );
            assert_eq!(c.entries_in_use(), 0);
        }
    }

    #[test]
    fn mmio_install_path_works_end_to_end() {
        for mut c in both_stores(CheckerConfig::fine()) {
            let bits = rw_cap(0x2000, 128).compress().bits();
            c.mmio_write(regs::CAP_LO, bits as u64);
            c.mmio_write(regs::CAP_HI, (bits >> 64) as u64);
            c.mmio_write(regs::TAG, 1);
            c.mmio_write(regs::TASK, 7);
            c.mmio_write(regs::OBJECT, 3);
            c.mmio_write(regs::COMMIT, 1);
            assert_eq!(c.mmio_read(regs::COMMIT), regs::STATUS_OK);
            assert_eq!(c.mmio_read(regs::OCCUPANCY), 1);
            let a = Access::read(MasterId(1), TaskId(7), 0x2000, 8).with_object(ObjectId(3));
            assert!(c.check(&a).is_ok());
        }
    }

    #[test]
    fn mmio_rejects_untagged_capability() {
        // An attacker replaying capability bits without the tag gets
        // STATUS_INVALID: unforgeability survives the import path.
        for mut c in both_stores(CheckerConfig::fine()) {
            let bits = rw_cap(0x2000, 128).compress().bits();
            c.mmio_write(regs::CAP_LO, bits as u64);
            c.mmio_write(regs::CAP_HI, (bits >> 64) as u64);
            c.mmio_write(regs::TAG, 0);
            c.mmio_write(regs::TASK, 7);
            c.mmio_write(regs::OBJECT, 3);
            c.mmio_write(regs::COMMIT, 1);
            assert_eq!(c.mmio_read(regs::COMMIT), regs::STATUS_INVALID);
            assert_eq!(c.entries_in_use(), 0);
        }
    }

    #[test]
    fn mmio_exception_flag_read_and_clear() {
        for mut c in with_two_buffers() {
            let _ = c.check(&read(1, 0xffff, 0));
            assert_eq!(c.mmio_read(regs::EXCEPTION), 1);
            c.mmio_write(regs::EXCEPTION, 0);
            assert_eq!(c.mmio_read(regs::EXCEPTION), 0);
        }
    }

    #[test]
    fn mmio_evict_task_frees_entries() {
        for mut c in with_two_buffers() {
            c.mmio_write(regs::EVICT_TASK, 1);
            assert_eq!(c.entries_in_use(), 0);
        }
    }

    #[test]
    fn stats_count_grants_and_denials() {
        for mut c in with_two_buffers() {
            c.check(&read(1, 0x1000, 0)).unwrap();
            let _ = c.check(&read(1, 0x3000, 0));
            let s = c.stats();
            assert_eq!((s.granted, s.denied), (1, 1));
            // And the CPU can read the same counters over MMIO.
            assert_eq!(c.mmio_read(regs::GRANTED), 1);
            assert_eq!(c.mmio_read(regs::DENIED), 1);
            assert_eq!(c.mmio_read(regs::INSTALLS), 2);
        }
    }

    #[test]
    fn import_charges_each_store_its_own_cost() {
        for mut c in both_stores(CheckerConfig::fine()) {
            c.import(TaskId(1), ObjectId(0), &rw_cap(0x1000, 64))
                .unwrap();
            assert!(c.check(&read(1, 0x1000, 0)).is_ok());
            assert_eq!(
                c.import(TaskId(1), ObjectId(1), &rw_cap(0x1000, 64).clear_tag()),
                Err(GrantError::InvalidCapability)
            );
        }
        let [table, cached] = both_stores(CheckerConfig::fine());
        assert_eq!(
            table.import_cycles(),
            CheckerConfig::fine().install_cycles()
        );
        assert_eq!(cached.import_cycles(), 0);
    }

    #[test]
    fn static_verdicts_elide_safe_pairs_only() {
        for mut c in with_two_buffers() {
            let mut map = StaticVerdictMap::new();
            map.set(TaskId(1), ObjectId(0), StaticVerdict::Safe);
            c.set_static_verdicts(map);
            assert!(c.verdicts_coherent());

            // Safe pair: granted without a store lookup, counted as elided.
            let ok = read(1, 0x1000, 0);
            assert!(c.check(&ok).is_ok());
            assert_eq!((c.stats().elided, c.stats().granted), (1, 0));

            // Dynamic pair (absent from the map): the full check runs.
            assert!(c.check(&read(1, 0x3000, 1)).is_ok());
            assert_eq!(c.stats().granted, 1);

            // Elision never rescues a no-provenance request: Fine hardware
            // cannot attribute it, verdict map or not.
            let anon = Access::read(MasterId(1), TaskId(1), 0x1000, 4);
            assert_eq!(
                c.check(&anon).unwrap_err().reason,
                DenyReason::BadProvenance
            );

            // Clearing the map restores full checking.
            c.clear_static_verdicts();
            assert!(c.verdicts_coherent() && c.static_verdicts().is_none());
            assert!(c.check(&ok).is_ok());
            assert_eq!((c.stats().elided, c.stats().granted), (1, 2));
        }
    }

    #[test]
    fn snapshot_restore_preserves_verdicts_and_the_exception_trace() {
        for mut c in with_two_buffers() {
            let _ = c.check(&read(1, 0x3000, 0));
            let snap = c.snapshot();
            assert_eq!(snap.entries.len(), 2);
            assert_eq!(snap.exceptions, [(TaskId(1), ObjectId(0))]);
            let mut fresh = c.empty_in_mode(CheckerMode::Fine);
            assert_eq!(fresh.name(), c.name());
            fresh.restore(&snap);
            assert_eq!(fresh.snapshot(), snap);
            assert!(fresh.exception_flag());
            assert_eq!(fresh.offending_objects(TaskId(1)), [ObjectId(0)]);
            for probe in [read(1, 0x1000, 0), read(1, 0x3000, 0), read(2, 0x1000, 0)] {
                assert_eq!(fresh.check(&probe), c.check(&probe), "{}", c.name());
            }
        }
    }

    #[test]
    fn metrics_keep_their_per_store_prefixes() {
        for c in with_two_buffers() {
            let mut r = Registry::new();
            c.export_metrics(&mut r);
            let snap = r.snapshot();
            let (ours, theirs) = if c.is_cached() {
                ("cache.denied", "checker.denied")
            } else {
                ("checker.denied", "cache.denied")
            };
            assert_eq!(snap.counter(ours), Some(0), "{}", c.name());
            assert_eq!(snap.counter(theirs), None);
        }
    }
}
