//! The heterogeneous system and its trusted software driver.
//!
//! [`HeteroSystem`] assembles the prototype of Figure 2: tagged main
//! memory, a CPU (plain or CHERI), accelerator functional units with MMIO
//! control registers, and a protection mechanism on the accelerator DMA
//! path — the CapChecker, one of the baselines, or nothing.
//!
//! The driver half implements Figure 6 faithfully:
//!
//! * **allocation** ① — find a free functional unit of the right class
//!   (or fail, where the paper's driver stalls), allocate buffers on the
//!   shared heap, derive their capabilities in the provenance tree, import
//!   them into the CapChecker over MMIO, and load the accelerator's base
//!   pointers (object-tagged in Coarse mode);
//! * **execution** — run the task's kernel through the protected path;
//! * **deallocation** ② — evict the task's capabilities, clear the control
//!   registers so the next task inherits nothing, scrub buffer data if an
//!   exception was raised, release the FU, and report the exception.

use crate::alloc::{AllocError, HeapAllocator};
use crate::checker::CapChecker;
use crate::config::{CachedCheckerConfig, CheckerConfig, CheckerMode};
use crate::elide::{SegmentVerdicts, StaticVerdictMap};
use crate::engines::{CpuEngine, ProtectedEngine, Provenance};
use cheri::{compressed, Capability, CapabilityTree, NodeId, ObjectKind, Perms};
use hetsim::mmio::RegisterFile;
use hetsim::{
    Cycles, Denial, Engine, ExecFault, MasterId, ObjectId, TaggedMemory, TaskId, TaskLayout, Trace,
};
use ioprotect::{
    GrantError, Granularity, IoProtection, Iommu, IommuConfig, Iopmp, IopmpConfig, NoProtection,
    Snpu,
};
use obs::{EventKind, FaultKind, Phase, Registry, SharedTracer, Tracer};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// Which mechanism guards the accelerator DMA path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtectionChoice {
    /// Nothing: the traditional embedded system.
    None,
    /// A RISC-V IOPMP.
    Iopmp(IopmpConfig),
    /// A page-granular IOMMU.
    Iommu(IommuConfig),
    /// An sNPU-style task-window checker.
    Snpu,
    /// The CapChecker (Fine or Coarse per its config).
    CapChecker(CheckerConfig),
    /// The cache-backed CapChecker variant (§5.2.3's microarchitectural
    /// option): a small LRU cache over a memory-resident table.
    CachedCapChecker(CachedCheckerConfig),
}

/// System-level configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SystemConfig {
    /// Physical memory size in bytes.
    pub mem_size: u64,
    /// First heap byte available to the driver's allocator.
    pub heap_base: u64,
    /// Whether the CPU is CHERI-extended (checks its own accesses).
    pub cheri_cpu: bool,
    /// Protection on the accelerator path.
    pub protection: ProtectionChoice,
    /// Latency of one control-register MMIO write.
    pub mmio_write_cycles: Cycles,
    /// Run a capability-revocation sweep over memory when a task's
    /// buffers are freed, invalidating any CPU-spilled capabilities into
    /// the region (temporal safety beyond the checker's eviction).
    pub revocation_sweep: bool,
    /// Unmapped guard bytes the allocator leaves after every buffer — the
    /// §5.2.3 safeguard that turns an *accidental* contiguous overflow in
    /// Coarse mode into a fault instead of a silent hit on the next
    /// buffer. (It cannot stop deliberate address forging; Table 3 still
    /// scores Coarse "TA".)
    pub guard_bytes: u64,
}

impl Default for SystemConfig {
    fn default() -> SystemConfig {
        SystemConfig {
            mem_size: 64 << 20,
            heap_base: 1 << 20,
            cheri_cpu: true,
            protection: ProtectionChoice::CapChecker(CheckerConfig::fine()),
            mmio_write_cycles: 30,
            revocation_sweep: true,
            guard_bytes: 0,
        }
    }
}

/// The five system configurations compared in §6.3.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SystemVariant {
    /// Plain CPU only.
    Cpu,
    /// CHERI CPU only.
    CheriCpu,
    /// Plain CPU + unprotected accelerators.
    CpuAccel,
    /// CHERI CPU + unprotected accelerators.
    CheriCpuAccel,
    /// CHERI CPU + CapChecker-guarded accelerators (this paper).
    CheriCpuCheriAccel,
}

impl SystemVariant {
    /// All five, in the paper's order.
    pub const ALL: [SystemVariant; 5] = [
        SystemVariant::Cpu,
        SystemVariant::CheriCpu,
        SystemVariant::CpuAccel,
        SystemVariant::CheriCpuAccel,
        SystemVariant::CheriCpuCheriAccel,
    ];

    /// The paper's label for this configuration.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemVariant::Cpu => "cpu",
            SystemVariant::CheriCpu => "ccpu",
            SystemVariant::CpuAccel => "cpu+accel",
            SystemVariant::CheriCpuAccel => "ccpu+accel",
            SystemVariant::CheriCpuCheriAccel => "ccpu+caccel",
        }
    }

    /// Whether this variant executes the kernel on the accelerator.
    #[must_use]
    pub fn uses_accelerator(self) -> bool {
        !matches!(self, SystemVariant::Cpu | SystemVariant::CheriCpu)
    }

    /// Whether the CPU is CHERI-extended.
    #[must_use]
    pub fn cheri_cpu(self) -> bool {
        !matches!(self, SystemVariant::Cpu | SystemVariant::CpuAccel)
    }

    /// The corresponding [`SystemConfig`].
    #[must_use]
    pub fn config(self) -> SystemConfig {
        SystemConfig {
            cheri_cpu: self.cheri_cpu(),
            protection: if self == SystemVariant::CheriCpuCheriAccel {
                ProtectionChoice::CapChecker(CheckerConfig::fine())
            } else {
                ProtectionChoice::None
            },
            ..SystemConfig::default()
        }
    }
}

impl fmt::Display for SystemVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Driver-level failures.
#[derive(Debug)]
pub enum DriverError {
    /// No free functional unit of the requested class (the paper's driver
    /// stalls here; the simulator surfaces it).
    NoFreeFu {
        /// The FU class that was requested.
        class: String,
    },
    /// The heap cannot satisfy a buffer allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
    },
    /// The protection mechanism is out of entries.
    ProtectionTableFull(GrantError),
    /// A capability derivation failed.
    Capability(cheri::CapFault),
    /// The task ID is unknown (already deallocated?).
    UnknownTask(TaskId),
    /// The operation needs an accelerator task but this one has no FU.
    NotAnAcceleratorTask(TaskId),
    /// A host access fell outside the target buffer.
    HostAccessOutOfBounds,
    /// A kernel access left simulated physical memory (platform bug, not a
    /// protection outcome).
    Platform(hetsim::MemError),
    /// The heap rejected a free — the driver's own bookkeeping is corrupt
    /// (double free or foreign block), which must surface, not be ignored.
    Alloc(AllocError),
    /// The per-task watchdog expired: the engine hung (or spun past its
    /// cycle budget) and the driver aborted the kernel.
    WatchdogTimeout {
        /// The aborted task.
        task: TaskId,
        /// Watchdog operation budget consumed at abort time.
        ops: u64,
    },
    /// The engine reported a transient transfer fault (e.g. a dropped bus
    /// beat). The driver may retry the task.
    TransientFault(FaultKind),
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::NoFreeFu { class } => {
                write!(f, "no free functional unit of class {class:?}")
            }
            DriverError::OutOfMemory { requested } => {
                write!(f, "heap cannot allocate {requested} bytes")
            }
            DriverError::ProtectionTableFull(e) => write!(f, "protection grant failed: {e}"),
            DriverError::Capability(e) => write!(f, "capability derivation failed: {e}"),
            DriverError::UnknownTask(t) => write!(f, "unknown task {t}"),
            DriverError::NotAnAcceleratorTask(t) => write!(f, "{t} has no functional unit"),
            DriverError::HostAccessOutOfBounds => write!(f, "host access outside the buffer"),
            DriverError::Platform(e) => write!(f, "platform fault: {e}"),
            DriverError::Alloc(e) => write!(f, "allocator rejected a free: {e}"),
            DriverError::WatchdogTimeout { task, ops } => {
                write!(f, "watchdog aborted {task} after {ops} engine ops")
            }
            DriverError::TransientFault(k) => write!(f, "transient engine fault: {k}"),
        }
    }
}

impl Error for DriverError {}

impl From<cheri::CapFault> for DriverError {
    fn from(e: cheri::CapFault) -> DriverError {
        DriverError::Capability(e)
    }
}

impl From<AllocError> for DriverError {
    fn from(e: AllocError) -> DriverError {
        DriverError::Alloc(e)
    }
}

/// One buffer in a task request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BufferSpec {
    /// Size in bytes.
    pub size: u64,
    /// Permissions delegated to the task for this buffer.
    pub perms: Perms,
    /// Least-privilege permissions installed into the *device-side*
    /// protection mechanism, when tighter than `perms`. The host-side
    /// capability (used by `write_buffer`/`read_buffer` to stage inputs
    /// and read results) keeps `perms`; only the accelerator's checker
    /// entry is narrowed. `None` installs `perms` unchanged.
    pub device_perms: Option<Perms>,
}

impl BufferSpec {
    /// A read-write buffer (the common case).
    #[must_use]
    pub fn rw(size: u64) -> BufferSpec {
        BufferSpec {
            size,
            perms: Perms::RW,
            device_perms: None,
        }
    }

    /// A read-only buffer.
    #[must_use]
    pub fn ro(size: u64) -> BufferSpec {
        BufferSpec {
            size,
            perms: Perms::LOAD,
            device_perms: None,
        }
    }

    /// Narrows the device-side grant to `perms` (least privilege for the
    /// accelerator) while the host keeps the original permissions.
    #[must_use]
    pub fn device(mut self, perms: Perms) -> BufferSpec {
        self.device_perms = Some(perms);
        self
    }
}

/// What an application asks the driver for (§5.3: "a set of objects, a
/// pointer to the accelerator task, … and buffer sizes").
#[derive(Clone, Debug)]
pub struct TaskRequest {
    /// Human-readable task name.
    pub name: String,
    /// The FU class needed, or `None` for a CPU-only task.
    pub fu_class: Option<String>,
    /// The buffers to allocate.
    pub buffers: Vec<BufferSpec>,
}

impl TaskRequest {
    /// Starts a request for an accelerator task of class `fu_class`.
    #[must_use]
    pub fn accel(name: impl Into<String>, fu_class: impl Into<String>) -> TaskRequest {
        TaskRequest {
            name: name.into(),
            fu_class: Some(fu_class.into()),
            buffers: Vec::new(),
        }
    }

    /// Starts a request for a CPU task.
    #[must_use]
    pub fn cpu(name: impl Into<String>) -> TaskRequest {
        TaskRequest {
            name: name.into(),
            fu_class: None,
            buffers: Vec::new(),
        }
    }

    /// Adds a buffer.
    #[must_use]
    pub fn buffer(mut self, spec: BufferSpec) -> TaskRequest {
        self.buffers.push(spec);
        self
    }

    /// Adds read-write buffers of the given sizes.
    #[must_use]
    pub fn rw_buffers(mut self, sizes: impl IntoIterator<Item = u64>) -> TaskRequest {
        self.buffers.extend(sizes.into_iter().map(BufferSpec::rw));
        self
    }

    /// Narrows the device-side grants of the already-added buffers to the
    /// given per-port permissions, in buffer order (e.g. the analyzer's
    /// least-privilege envelope from the declared port map). Host-side
    /// permissions are untouched, so staging inputs and reading results
    /// keep working. Extra permissions beyond the buffer count are
    /// ignored; buffers past the iterator keep their full grant.
    #[must_use]
    pub fn device_ports(mut self, perms: impl IntoIterator<Item = Perms>) -> TaskRequest {
        for (spec, p) in self.buffers.iter_mut().zip(perms) {
            spec.device_perms = Some(p);
        }
        self
    }
}

/// The result of running a task's kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskOutcome {
    /// `None` if the kernel ran to completion; the latched exception
    /// otherwise.
    pub denial: Option<Denial>,
}

impl TaskOutcome {
    /// `true` when no exception was raised.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.denial.is_none()
    }
}

/// The deallocation report handed back to the application (Figure 6 ②).
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// Task name.
    pub name: String,
    /// The exception that aborted the task, if any.
    pub exception: Option<Denial>,
    /// Objects whose table entries carried the exception bit.
    pub offending_objects: Vec<ObjectId>,
    /// Whether buffer data was scrubbed before the memory was freed.
    pub scrubbed: bool,
    /// CPU-spilled capabilities into the freed region that the
    /// revocation sweep invalidated.
    pub capabilities_revoked: u64,
}

#[derive(Debug)]
struct Fu {
    class: String,
    busy: Option<TaskId>,
    regs: RegisterFile,
    /// Set when the driver has given up on this engine (repeated watchdog
    /// aborts); the allocator never hands it out again.
    quarantined: bool,
}

#[derive(Debug)]
struct TaskState {
    name: String,
    fu: Option<usize>,
    buffers: Vec<(u64, u64)>,
    padded: Vec<(u64, u64)>,
    caps: Vec<Capability>,
    /// What was actually installed into the device-side protection: equal
    /// to `caps` unless a buffer carried narrower `device_perms`.
    device_caps: Vec<Capability>,
    dynamic_nodes: Vec<NodeId>,
    task_node: NodeId,
    setup_cycles: Cycles,
    trace: Option<Trace>,
    fault: Option<Denial>,
}

enum Protection {
    /// The CapChecker, over either capability store (boxed: the checker
    /// is hundreds of bytes, a baseline is a pointer).
    Checker(Box<CapChecker>),
    Baseline(Box<dyn IoProtection>),
}

impl Protection {
    fn as_dyn(&mut self) -> &mut dyn IoProtection {
        match self {
            Protection::Checker(c) => c.as_mut(),
            Protection::Baseline(b) => b.as_mut(),
        }
    }

    fn as_dyn_ref(&self) -> &dyn IoProtection {
        match self {
            Protection::Checker(c) => c.as_ref(),
            Protection::Baseline(b) => b.as_ref(),
        }
    }

    /// Imports one capability the way the driver does on this mechanism.
    fn import(
        &mut self,
        task: TaskId,
        object: ObjectId,
        cap: &Capability,
    ) -> Result<(), GrantError> {
        match self {
            Protection::Checker(c) => c.import(task, object, cap),
            Protection::Baseline(b) => b.grant(task, object, cap),
        }
    }

    /// Driver cycles one import costs beyond the MMIO write every import
    /// pays (see [`CapChecker::import_cycles`]).
    fn import_cycles(&self) -> Cycles {
        match self {
            Protection::Checker(c) => c.import_cycles(),
            Protection::Baseline(_) => 0,
        }
    }
}

impl fmt::Debug for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Protection({})", self.as_dyn_ref().name())
    }
}

/// Runs one kernel through a [`ProtectedEngine`] over `protection`. The
/// only caller passes `&mut dyn IoProtection`, so every beat's `vet` is a
/// virtual call. Dispatching once per kernel to a copy monomorphized for
/// the concrete protection type was measured, and it was slower.
#[allow(clippy::too_many_arguments)]
fn drive_kernel<P, F>(
    mem: &mut TaggedMemory,
    protection: &mut P,
    layout: TaskLayout,
    master: MasterId,
    task: TaskId,
    provenance: Provenance,
    tracer: Option<SharedTracer>,
    kernel: F,
) -> (Result<(), ExecFault>, Option<Denial>, Trace)
where
    P: IoProtection + ?Sized,
    F: FnOnce(&mut dyn Engine) -> Result<(), ExecFault>,
{
    let mut eng = ProtectedEngine::new(mem, protection, layout, master, task, provenance);
    if let Some(t) = tracer {
        eng = eng.with_tracer(t);
    }
    let result = kernel(&mut eng);
    let denial = eng.first_denial();
    (result, denial, eng.into_trace())
}

/// The assembled heterogeneous system: memory, CPU, FUs, protection, and
/// the trusted driver.
///
/// # Examples
///
/// ```
/// use capchecker::{BufferSpec, HeteroSystem, SystemConfig, TaskRequest};
/// use hetsim::Engine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sys = HeteroSystem::new(SystemConfig::default());
/// sys.add_fus("vadd", 1);
///
/// let task = sys.allocate_task(
///     &TaskRequest::accel("demo", "vadd").rw_buffers([256, 256]),
/// )?;
/// sys.write_buffer(task, 0, 0, &[1; 256])?;
/// let outcome = sys.run_accel_task(task, |eng| {
///     for i in 0..64 {
///         let x = eng.load_u32(0, i)?;
///         eng.store_u32(1, i, x + 1)?;
///         eng.compute(1);
///     }
///     Ok(())
/// })?;
/// assert!(outcome.completed());
/// let report = sys.deallocate_task(task)?;
/// assert!(report.exception.is_none());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct HeteroSystem {
    config: SystemConfig,
    mem: TaggedMemory,
    protection: Protection,
    tree: CapabilityTree,
    alloc: HeapAllocator,
    fus: Vec<Fu>,
    tasks: BTreeMap<TaskId, TaskState>,
    next_task: u32,
    /// Optional event sink for driver-level events. Driver events are
    /// stamped with [`HeteroSystem::driver_clock`], the accumulated
    /// setup-cycle clock (MMIO writes and capability installs), which is
    /// a separate virtual time domain from the timing models' cycles.
    tracer: Option<SharedTracer>,
    driver_clock: Cycles,
    /// How many elided checks have already been attributed to a
    /// deallocated task ([`EventKind::ChecksElided`]); the checker's
    /// counter is cumulative, so events carry the delta.
    elided_reported: u64,
    /// Epoch-scoped verdict retention: the current analysis segment's
    /// proven-safe map, held outside the checker so the adaptive
    /// controller can re-install it after rebuilds drop it.
    segment_verdicts: SegmentVerdicts,
}

impl HeteroSystem {
    /// Builds the system described by `config`.
    #[must_use]
    pub fn new(config: SystemConfig) -> HeteroSystem {
        let protection = match config.protection {
            ProtectionChoice::None => Protection::Baseline(Box::new(NoProtection::new())),
            ProtectionChoice::Iopmp(c) => Protection::Baseline(Box::new(Iopmp::new(c))),
            ProtectionChoice::Iommu(c) => Protection::Baseline(Box::new(Iommu::new(c))),
            ProtectionChoice::Snpu => Protection::Baseline(Box::new(Snpu::new())),
            ProtectionChoice::CapChecker(c) => Protection::Checker(Box::new(CapChecker::new(c))),
            ProtectionChoice::CachedCapChecker(c) => {
                Protection::Checker(Box::new(CapChecker::cached(c)))
            }
        };
        HeteroSystem {
            mem: TaggedMemory::new(config.mem_size),
            protection,
            tree: CapabilityTree::new(),
            alloc: HeapAllocator::new(config.heap_base, config.mem_size - config.heap_base),
            fus: Vec::new(),
            tasks: BTreeMap::new(),
            next_task: 1,
            tracer: None,
            driver_clock: 0,
            elided_reported: 0,
            segment_verdicts: SegmentVerdicts::new(),
            config,
        }
    }

    /// Attaches an event sink. Driver lifecycle events (Figure 6 phases,
    /// MMIO capability installs, checker stalls/evictions) are recorded
    /// against the driver's setup-cycle clock; kernel runs started after
    /// this call also record per-request checker-check events.
    pub fn set_tracer(&mut self, tracer: SharedTracer) {
        self.tracer = Some(tracer);
    }

    /// The driver's accumulated setup-cycle clock (advances with MMIO
    /// writes and capability installs).
    #[must_use]
    pub fn driver_clock(&self) -> Cycles {
        self.driver_clock
    }

    pub(crate) fn record(&mut self, kind: EventKind) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(self.driver_clock, kind);
        }
    }

    /// Registers `count` functional units of `class` (e.g. one per
    /// accelerator instance — the paper uses eight).
    pub fn add_fus(&mut self, class: &str, count: usize) {
        for _ in 0..count {
            self.fus.push(Fu {
                class: class.to_owned(),
                busy: None,
                regs: RegisterFile::new(32),
                quarantined: false,
            });
        }
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The simulated memory.
    #[must_use]
    pub fn memory(&self) -> &TaggedMemory {
        &self.mem
    }

    /// Mutable memory access (host-side scaffolding in tests/benches).
    pub fn memory_mut(&mut self) -> &mut TaggedMemory {
        &mut self.mem
    }

    /// The CapChecker (over either store), if this system has one.
    #[must_use]
    pub fn checker(&self) -> Option<&CapChecker> {
        match &self.protection {
            Protection::Checker(c) => Some(c),
            Protection::Baseline(_) => None,
        }
    }

    /// Mutable access to the CapChecker (the fault harness's cache
    /// corruption hooks live on it).
    pub fn checker_mut(&mut self) -> Option<&mut CapChecker> {
        match &mut self.protection {
            Protection::Checker(c) => Some(c),
            Protection::Baseline(_) => None,
        }
    }

    /// The CapChecker, if this system has one and it runs over the cache
    /// store.
    #[must_use]
    pub fn cached_checker(&self) -> Option<&CapChecker> {
        self.checker().filter(|c| c.is_cached())
    }

    /// Installs the static analyzer's verdict map into the active
    /// CapChecker: pairs proved safe skip the per-beat check and count as
    /// `elided`. Returns `false` — and drops the map — on baseline
    /// systems, which have no elision path.
    ///
    /// The map does not survive a checker rebuild (degradation,
    /// re-promotion, mode switch): the caller must decide whether its
    /// proof still holds for the replacement checker and re-install
    /// explicitly.
    pub fn install_static_verdicts(&mut self, map: StaticVerdictMap) -> bool {
        let safe_pairs = map.safe_pairs();
        let Some(c) = self.checker_mut() else {
            return false;
        };
        c.set_static_verdicts(map);
        self.record(EventKind::StaticVerdictsInstalled { safe_pairs });
        true
    }

    /// Installs `map` into the active checker *and* retains it in the
    /// epoch-scoped ledger, so [`HeteroSystem::reinstall_segment_verdicts`]
    /// can restore it after a rebuild drops the checker's copy. Returns
    /// `false` on baseline systems (nothing installed or retained).
    pub fn retain_segment_verdicts(&mut self, map: StaticVerdictMap) -> bool {
        if !self.install_static_verdicts(map.clone()) {
            return false;
        }
        self.segment_verdicts.retain(map);
        true
    }

    /// Re-installs the retained segment map after a checker rebuild
    /// (mode switch or re-promotion). The rebuild dropped map and bitmap
    /// together per the coherence rule; this restores both atomically in
    /// one `set_static_verdicts` call. Returns the number of safe pairs
    /// restored, or `None` when nothing is retained or the system has no
    /// elision path.
    pub fn reinstall_segment_verdicts(&mut self) -> Option<u64> {
        let map = self.segment_verdicts.retained()?.clone();
        let safe_pairs = map.safe_pairs();
        self.checker_mut()?.set_static_verdicts(map);
        self.segment_verdicts.record_reinstall();
        self.record(EventKind::SegmentVerdictsReinstalled { safe_pairs });
        Some(safe_pairs)
    }

    /// Drops the retained segment map (the workload crossed an analysis
    /// barrier the retained proof does not cover). The checker's
    /// installed copy is untouched; rebuilds clear that side.
    pub fn clear_segment_verdicts(&mut self) {
        self.segment_verdicts.clear();
    }

    /// The epoch-scoped verdict ledger (retained map + re-install count).
    #[must_use]
    pub fn segment_verdicts(&self) -> &SegmentVerdicts {
        &self.segment_verdicts
    }

    /// The static verdict map installed into the active checker, if any.
    #[must_use]
    pub fn static_verdicts(&self) -> Option<&StaticVerdictMap> {
        self.checker()?.static_verdicts()
    }

    /// Starts per-master / per-`(task, object)` check attribution on the
    /// active checker. Returns `false` on baseline systems, which have no
    /// attribution to collect.
    pub fn enable_check_attribution(&mut self) -> bool {
        self.checker_mut()
            .map(CapChecker::enable_attribution)
            .is_some()
    }

    /// The check attribution collected so far, if enabled.
    #[must_use]
    pub fn check_attribution(&self) -> Option<&crate::attrib::CheckAttribution> {
        self.checker()?.attribution()
    }

    /// Checks elided so far by the active checker (0 on baselines).
    #[must_use]
    pub fn checks_elided(&self) -> u64 {
        self.checker().map_or(0, |c| c.stats().elided)
    }

    /// The protection mechanism on the accelerator path.
    #[must_use]
    pub fn protection(&self) -> &dyn IoProtection {
        self.protection.as_dyn_ref()
    }

    /// The capability provenance tree (Figure 4).
    #[must_use]
    pub fn tree(&self) -> &CapabilityTree {
        &self.tree
    }

    /// Live task IDs, in creation order.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        self.tasks.keys().copied()
    }

    fn state(&self, task: TaskId) -> Result<&TaskState, DriverError> {
        self.tasks.get(&task).ok_or(DriverError::UnknownTask(task))
    }

    /// Allocation ①: FU search, buffer allocation, capability derivation,
    /// CapChecker import, control-register loading.
    ///
    /// # Errors
    ///
    /// [`DriverError::NoFreeFu`] when every FU of the class is busy,
    /// [`DriverError::OutOfMemory`] when the heap is exhausted,
    /// [`DriverError::ProtectionTableFull`] when the mechanism cannot hold
    /// another entry (the hardware would stall; the driver surfaces it).
    pub fn allocate_task(&mut self, req: &TaskRequest) -> Result<TaskId, DriverError> {
        // ① step 1: find a suitable, available functional unit.
        let fu = match &req.fu_class {
            None => None,
            Some(class) => {
                let idx = self
                    .fus
                    .iter()
                    .position(|f| f.busy.is_none() && !f.quarantined && &f.class == class)
                    .ok_or_else(|| DriverError::NoFreeFu {
                        class: class.clone(),
                    })?;
                Some(idx)
            }
        };

        // ① step 2: allocate the buffers (padded so that every capability
        // is exactly representable).
        let mut buffers = Vec::with_capacity(req.buffers.len());
        let mut padded = Vec::with_capacity(req.buffers.len());
        let mut cap_sizes = Vec::with_capacity(req.buffers.len());
        for spec in &req.buffers {
            let (align, padded_size) = representable_block(spec.size);
            let reserve = padded_size + self.config.guard_bytes;
            match self.alloc.alloc(reserve, align) {
                Some(base) => {
                    buffers.push((base, spec.size));
                    padded.push((base, reserve));
                    cap_sizes.push(padded_size);
                }
                None => {
                    for (base, size) in padded {
                        self.alloc
                            .free(base, size)
                            .expect("rollback frees blocks just allocated");
                    }
                    return Err(DriverError::OutOfMemory {
                        requested: spec.size,
                    });
                }
            }
        }

        let id = TaskId(self.next_task);
        self.next_task += 1;
        self.record(EventKind::DriverPhase {
            task: id.0,
            phase: Phase::Allocate,
        });

        // Derive the task and buffer capabilities in the provenance tree.
        let span = buffers
            .iter()
            .zip(&padded)
            .fold((u64::MAX, 0u64), |(lo, hi), (&(b, _), &(_, ps))| {
                (lo.min(b), hi.max(b + ps))
            });
        let kind = if fu.is_some() {
            ObjectKind::AcceleratorTask
        } else {
            ObjectKind::CpuTask
        };
        let task_node = if buffers.is_empty() {
            self.tree
                .derive(self.tree.root(), kind, req.name.clone(), |c| Ok(*c))?
        } else {
            self.tree
                .derive(self.tree.root(), kind, req.name.clone(), |c| {
                    c.set_bounds(span.0, span.1 - span.0)
                })?
        };
        let mut caps = Vec::with_capacity(buffers.len());
        let mut install_caps = Vec::with_capacity(buffers.len());
        for (i, (&(base, _), &psize)) in buffers.iter().zip(&cap_sizes).enumerate() {
            let perms = req.buffers[i].perms;
            let node = self.tree.derive(
                task_node,
                ObjectKind::Buffer,
                format!("{}:obj{}", req.name, i),
                |c| c.set_bounds_exact(base, psize)?.and_perms(perms),
            )?;
            let cap = *self.tree.capability(node);
            // The device-side grant may be narrower than the host-side
            // capability (least privilege for the accelerator); the host
            // keeps `cap` for staging and readback.
            install_caps.push(match req.buffers[i].device_perms {
                Some(device) => cap.and_perms(device)?,
                None => cap,
            });
            caps.push(cap);
        }

        // ① step 3: import the capabilities into the protection mechanism
        // and account for the MMIO installation cost. On CapChecker
        // systems the driver really does stage each capability over the
        // capability interconnect's register map (Figure 6 ③).
        let mut setup_cycles = 0;
        if fu.is_some() {
            let install_cost = self.protection.import_cycles();
            let mut tracer = self.tracer.clone();
            let mut clock = self.driver_clock;
            for (i, cap) in install_caps.iter().enumerate() {
                let result = self.protection.import(id, ObjectId(i as u16), cap);
                clock = clock.saturating_add(install_cost + self.config.mmio_write_cycles);
                if let Some(t) = tracer.as_mut() {
                    t.record(
                        clock,
                        EventKind::MmioCapInstall {
                            task: id.0,
                            object: i as u16,
                            ok: result.is_ok(),
                        },
                    );
                    if matches!(result, Err(GrantError::TableFull)) {
                        t.record(clock, EventKind::CheckerStall { task: id.0 });
                    }
                }
                if let Err(e) = result {
                    self.driver_clock = clock;
                    self.protection.as_dyn().revoke_task(id);
                    for (base, size) in padded {
                        self.alloc
                            .free(base, size)
                            .expect("rollback frees blocks just allocated");
                    }
                    self.tree.revoke(task_node);
                    return Err(DriverError::ProtectionTableFull(e));
                }
            }
            setup_cycles += caps.len() as Cycles * install_cost;
            // Control registers: one pointer per buffer plus start/config.
            setup_cycles += (caps.len() as Cycles + 2) * self.config.mmio_write_cycles;
        }
        self.driver_clock = self.driver_clock.saturating_add(setup_cycles);

        // Load the accelerator's base pointers into its control registers.
        if let Some(fu_idx) = fu {
            let coarse = self.coarse_config();
            for (i, &(base, _)) in buffers.iter().enumerate() {
                let visible = match coarse {
                    Some(cfg) => cfg.coarse_tag_address(i as u16, base),
                    None => base,
                };
                self.fus[fu_idx].regs.set(i, visible);
            }
            self.fus[fu_idx].busy = Some(id);
        }

        self.tasks.insert(
            id,
            TaskState {
                name: req.name.clone(),
                fu,
                buffers,
                padded,
                caps,
                device_caps: install_caps,
                dynamic_nodes: Vec::new(),
                task_node,
                setup_cycles,
                trace: None,
                fault: None,
            },
        );
        Ok(id)
    }

    fn coarse_config(&self) -> Option<CheckerConfig> {
        self.checker()
            .filter(|c| c.mode() == CheckerMode::Coarse)
            .map(|c| *c.config())
    }

    /// The accelerator-visible layout of a task's buffers (object-tagged
    /// base addresses in Coarse mode).
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownTask`].
    pub fn accel_layout(&self, task: TaskId) -> Result<TaskLayout, DriverError> {
        let st = self.state(task)?;
        let coarse = self.coarse_config();
        Ok(TaskLayout::new(st.buffers.iter().enumerate().map(
            |(i, &(base, size))| match coarse {
                Some(cfg) => (cfg.coarse_tag_address(i as u16, base), size),
                None => (base, size),
            },
        )))
    }

    /// The physical layout of a task's buffers (the CPU's view).
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownTask`].
    pub fn cpu_layout(&self, task: TaskId) -> Result<TaskLayout, DriverError> {
        Ok(TaskLayout::new(self.state(task)?.buffers.iter().copied()))
    }

    /// Host-side buffer initialization (the CPU writes input data). On a
    /// CHERI CPU the write is checked against the buffer's capability.
    ///
    /// # Errors
    ///
    /// [`DriverError::HostAccessOutOfBounds`] on overflow,
    /// [`DriverError::UnknownTask`] for a dead handle.
    pub fn write_buffer(
        &mut self,
        task: TaskId,
        obj: usize,
        offset: u64,
        data: &[u8],
    ) -> Result<(), DriverError> {
        let st = self
            .tasks
            .get(&task)
            .ok_or(DriverError::UnknownTask(task))?;
        let &(base, size) = st
            .buffers
            .get(obj)
            .ok_or(DriverError::HostAccessOutOfBounds)?;
        if self.config.cheri_cpu {
            st.caps[obj]
                .check_access(base + offset, data.len() as u64, Perms::STORE)
                .map_err(|_| DriverError::HostAccessOutOfBounds)?;
        } else if offset + data.len() as u64 > size {
            return Err(DriverError::HostAccessOutOfBounds);
        }
        self.mem
            .write_bytes(base + offset, data)
            .map_err(|_| DriverError::HostAccessOutOfBounds)
    }

    /// Host-side buffer read-back.
    ///
    /// # Errors
    ///
    /// As [`HeteroSystem::write_buffer`].
    pub fn read_buffer(
        &self,
        task: TaskId,
        obj: usize,
        offset: u64,
        out: &mut [u8],
    ) -> Result<(), DriverError> {
        let st = self.state(task)?;
        let &(base, size) = st
            .buffers
            .get(obj)
            .ok_or(DriverError::HostAccessOutOfBounds)?;
        if self.config.cheri_cpu {
            st.caps[obj]
                .check_access(base + offset, out.len() as u64, Perms::LOAD)
                .map_err(|_| DriverError::HostAccessOutOfBounds)?;
        } else if offset + out.len() as u64 > size {
            return Err(DriverError::HostAccessOutOfBounds);
        }
        self.mem
            .read_bytes(base + offset, out)
            .map_err(|_| DriverError::HostAccessOutOfBounds)
    }

    /// Runs `kernel` on the task's accelerator FU through the protected
    /// DMA path. A denial latches as the task's exception and aborts the
    /// kernel (if the kernel propagates it, as benign kernels do).
    ///
    /// # Errors
    ///
    /// [`DriverError::NotAnAcceleratorTask`] for CPU tasks,
    /// [`DriverError::UnknownTask`] for dead handles. Protection denials
    /// are *not* errors here: they are recorded in the returned
    /// [`TaskOutcome`].
    pub fn run_accel_task<F>(&mut self, task: TaskId, kernel: F) -> Result<TaskOutcome, DriverError>
    where
        F: FnOnce(&mut dyn Engine) -> Result<(), ExecFault>,
    {
        let st = self
            .tasks
            .get(&task)
            .ok_or(DriverError::UnknownTask(task))?;
        let fu = st.fu.ok_or(DriverError::NotAnAcceleratorTask(task))?;
        let layout = self.accel_layout(task)?;
        let provenance = match self.checker_mode() {
            Some(CheckerMode::Coarse) => Provenance::Opaque,
            _ => Provenance::PerObjectPorts,
        };
        let master = MasterId(fu as u16 + 1);
        self.record(EventKind::DriverPhase {
            task: task.0,
            phase: Phase::Execute,
        });
        let tracer = self.tracer.clone();
        // The engine holds the protection as a trait object, so each DMA
        // beat's vet (verdict-bitmap probe included) is one virtual call.
        let (result, denial, trace) = drive_kernel(
            &mut self.mem,
            self.protection.as_dyn(),
            layout,
            master,
            task,
            provenance,
            tracer,
            kernel,
        );
        let st = self.tasks.get_mut(&task).expect("state verified above");
        st.trace = Some(trace);
        if let Some(d) = denial {
            st.fault = Some(d);
        }
        match result {
            Ok(()) | Err(ExecFault::Denied(_)) => Ok(TaskOutcome { denial }),
            Err(ExecFault::Mem(e)) => Err(DriverError::Platform(e)),
            Err(ExecFault::Hung { ops }) => Err(DriverError::WatchdogTimeout { task, ops }),
            Err(ExecFault::Transient { kind }) => Err(DriverError::TransientFault(kind)),
        }
    }

    /// Runs `kernel` on the CPU (the `cpu`/`ccpu` configurations).
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownTask`] for dead handles.
    pub fn run_cpu_task<F>(&mut self, task: TaskId, kernel: F) -> Result<TaskOutcome, DriverError>
    where
        F: FnOnce(&mut dyn Engine) -> Result<(), ExecFault>,
    {
        let layout = self.cpu_layout(task)?;
        self.record(EventKind::DriverPhase {
            task: task.0,
            phase: Phase::Execute,
        });
        let st = self
            .tasks
            .get(&task)
            .ok_or(DriverError::UnknownTask(task))?;
        let caps = self.config.cheri_cpu.then(|| st.caps.clone());
        let mut eng = CpuEngine::new(&mut self.mem, layout, caps, task);
        let result = kernel(&mut eng);
        let trace = eng.into_trace();
        let st = self.tasks.get_mut(&task).expect("state verified above");
        st.trace = Some(trace);
        match result {
            Ok(()) => Ok(TaskOutcome { denial: None }),
            Err(ExecFault::Denied(d)) => {
                st.fault = Some(d);
                Ok(TaskOutcome { denial: Some(d) })
            }
            Err(ExecFault::Mem(_) | ExecFault::Hung { .. } | ExecFault::Transient { .. }) => {
                Ok(TaskOutcome { denial: None })
            }
        }
    }

    /// The trace recorded by the task's last run.
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownTask`].
    pub fn trace(&self, task: TaskId) -> Result<Option<&Trace>, DriverError> {
        Ok(self.state(task)?.trace.as_ref())
    }

    /// Takes ownership of the trace recorded by the task's last run,
    /// leaving `None` behind. Equivalent to [`HeteroSystem::trace`] plus a
    /// clone, minus the clone — hot benchmark loops move multi-hundred-
    /// thousand-op traces out instead of copying them.
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownTask`].
    pub fn take_trace(&mut self, task: TaskId) -> Result<Option<Trace>, DriverError> {
        self.state(task)?;
        Ok(self
            .tasks
            .get_mut(&task)
            .expect("state verified above")
            .trace
            .take())
    }

    /// Driver setup cycles for the task: control-register writes plus (on
    /// CapChecker systems) the MMIO capability imports.
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownTask`].
    pub fn setup_cycles(&self, task: TaskId) -> Result<Cycles, DriverError> {
        Ok(self.state(task)?.setup_cycles)
    }

    /// Deallocation ②: evict capabilities, clear control registers, scrub
    /// buffers on exception, free memory, release the FU, and report.
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownTask`].
    pub fn deallocate_task(&mut self, task: TaskId) -> Result<TaskReport, DriverError> {
        let st = self
            .tasks
            .remove(&task)
            .ok_or(DriverError::UnknownTask(task))?;

        self.record(EventKind::DriverPhase {
            task: task.0,
            phase: Phase::Deallocate,
        });

        // Trace the offending pointers before evicting the entries.
        let offending_objects = self
            .checker()
            .map_or_else(Vec::new, |c| c.offending_objects(task));

        // Evict the task's capabilities so new tasks can be allocated.
        // The checker's store counts what it dropped; a baseline's count
        // is the drop in the entries it reports in use.
        let evicted = match &mut self.protection {
            Protection::Checker(c) => c.evict_task(task),
            Protection::Baseline(b) => {
                let before = b.entries_in_use();
                b.revoke_task(task);
                before.saturating_sub(b.entries_in_use()) as u64
            }
        };
        // The EVICT_TASK register write is one MMIO transaction.
        self.driver_clock = self
            .driver_clock
            .saturating_add(self.config.mmio_write_cycles);
        if evicted > 0 {
            self.record(EventKind::CheckerEvict {
                task: task.0,
                entries: evicted,
            });
        }
        // Attribute checks elided since the last deallocation to this
        // task (single-task runs; under multiplexing the split is an
        // approximation, which the cumulative counter does not suffer).
        let elided_total = self.checks_elided();
        let elided_delta = elided_total.saturating_sub(self.elided_reported);
        if elided_delta > 0 {
            self.elided_reported = elided_total;
            self.record(EventKind::ChecksElided {
                task: task.0,
                count: elided_delta,
            });
        }
        if st.fault.is_some() {
            self.clear_protection_exception();
        }

        // Clear the control registers: the next task mapped onto this FU
        // must not inherit stale pointers.
        if let Some(fu) = st.fu {
            self.fus[fu].regs.clear();
            self.fus[fu].busy = None;
        }

        // Buffer data is always cleared before the memory returns to the
        // heap: on an exception this hides the aborted task's secrets
        // (§5.3 ②), and on normal completion it stops the next tenant from
        // inspecting leftovers (CWE-244).
        for &(base, size) in &st.padded {
            self.mem
                .scrub(base, size)
                .expect("task buffers are in range");
            self.alloc.free(base, size)?;
        }
        let scrub = true;
        // Revoke any capability the CPU spilled into memory that still
        // points at the freed buffers (asynchronous software revocation).
        let capabilities_revoked = if self.config.revocation_sweep {
            crate::revoke::sweep_revoked_many(&mut self.mem, &st.padded).revoked
        } else {
            0
        };
        self.tree.revoke(st.task_node);
        for node in st.dynamic_nodes {
            self.tree.revoke(node);
        }

        Ok(TaskReport {
            name: st.name,
            exception: st.fault,
            offending_objects,
            scrubbed: scrub,
            capabilities_revoked,
        })
    }

    /// Grows a *live* task by one buffer — the paper's future-work
    /// direction of lifting threat-model assumption 2 (no dynamic memory
    /// management on accelerators). The accelerator still cannot allocate
    /// by itself: it requests, and the trusted driver allocates on the
    /// shared heap, derives a fresh capability from the heap authority,
    /// imports it into the protection mechanism, and loads a new base
    /// pointer — all while the task keeps running between kernel phases.
    ///
    /// Returns the new object index.
    ///
    /// # Errors
    ///
    /// [`DriverError::OutOfMemory`], [`DriverError::ProtectionTableFull`],
    /// [`DriverError::UnknownTask`].
    pub fn allocate_buffer(
        &mut self,
        task: TaskId,
        spec: BufferSpec,
    ) -> Result<usize, DriverError> {
        if !self.tasks.contains_key(&task) {
            return Err(DriverError::UnknownTask(task));
        }
        let (align, padded_size) = representable_block(spec.size);
        let reserve = padded_size + self.config.guard_bytes;
        let base = self
            .alloc
            .alloc(reserve, align)
            .ok_or(DriverError::OutOfMemory {
                requested: spec.size,
            })?;
        // Dynamic buffers derive from the heap authority (the root), like
        // malloc on a CHERI CPU: the allocator's capability, narrowed.
        let st_name = self.tasks[&task].name.clone();
        let obj = self.tasks[&task].buffers.len();
        let node = match self.tree.derive(
            self.tree.root(),
            ObjectKind::Buffer,
            format!("{st_name}:dyn{obj}"),
            |c| c.set_bounds_exact(base, padded_size)?.and_perms(spec.perms),
        ) {
            Ok(n) => n,
            Err(e) => {
                self.alloc
                    .free(base, reserve)
                    .expect("rollback frees the block just allocated");
                return Err(DriverError::Capability(e));
            }
        };
        let cap = *self.tree.capability(node);
        let device_cap = match spec.device_perms {
            Some(device) => match cap.and_perms(device) {
                Ok(c) => c,
                Err(e) => {
                    self.tree.revoke(node);
                    self.alloc
                        .free(base, reserve)
                        .expect("rollback frees the block just allocated");
                    return Err(DriverError::Capability(e));
                }
            },
            None => cap,
        };
        let install = self.protection.import_cycles();
        if self.tasks[&task].fu.is_some() {
            let result = self
                .protection
                .import(task, ObjectId(obj as u16), &device_cap);
            self.driver_clock = self
                .driver_clock
                .saturating_add(install + self.config.mmio_write_cycles);
            self.record(EventKind::MmioCapInstall {
                task: task.0,
                object: obj as u16,
                ok: result.is_ok(),
            });
            if matches!(result, Err(GrantError::TableFull)) {
                self.record(EventKind::CheckerStall { task: task.0 });
            }
            if let Err(e) = result {
                self.tree.revoke(node);
                self.alloc
                    .free(base, reserve)
                    .expect("rollback frees the block just allocated");
                return Err(DriverError::ProtectionTableFull(e));
            }
        }
        let coarse = self.coarse_config();
        let st = self.tasks.get_mut(&task).expect("existence checked above");
        st.buffers.push((base, spec.size));
        st.padded.push((base, reserve));
        st.caps.push(cap);
        st.device_caps.push(device_cap);
        st.dynamic_nodes.push(node);
        st.setup_cycles += self.config.mmio_write_cycles + install;
        if let Some(fu_idx) = st.fu {
            let visible = match coarse {
                Some(cfg) => cfg.coarse_tag_address(obj as u16, base),
                None => base,
            };
            self.fus[fu_idx].regs.set(obj, visible);
        }
        Ok(obj)
    }

    /// Injects one raw request on the accelerator bus, as a rogue or stale
    /// DMA master would (no task bookkeeping) — the threat harness's probe
    /// for use-after-free and forged-request scenarios.
    ///
    /// # Errors
    ///
    /// The protection mechanism's [`Denial`], if it refuses.
    pub fn check_raw(&mut self, access: &hetsim::Access) -> Result<(), Denial> {
        self.protection.as_dyn().check(access)
    }

    /// Protection entries currently in use (Figure 12).
    #[must_use]
    pub fn protection_entries(&self) -> usize {
        self.protection.as_dyn_ref().entries_in_use()
    }

    /// The protection granularity of this system's accelerator path.
    #[must_use]
    pub fn protection_granularity(&self) -> Granularity {
        self.protection.as_dyn_ref().granularity()
    }

    /// Exports the system's counters into a metrics registry: checker
    /// data-path stats (under `checker.`, when a CapChecker guards the
    /// path), protection-entry occupancy, and the driver clock.
    pub fn export_metrics(&self, registry: &mut Registry) {
        if let Some(c) = self.checker() {
            c.export_metrics(registry);
        }
        registry.gauge_set(
            "protection.entries_in_use",
            self.protection_entries() as f64,
        );
        registry.counter_add("driver.clock_cycles", self.driver_clock);
    }

    // ------------------------------------------------------------------
    // Recovery surface (the fault harness's driver-level actions).
    // ------------------------------------------------------------------

    /// Advances the driver's setup-cycle clock — retry backoff is modelled
    /// as driver time spent waiting, so campaign reports account for it.
    /// Saturating: a policy whose backoff has saturated to [`Cycles::MAX`]
    /// pins the clock there instead of wrapping.
    pub fn advance_clock(&mut self, cycles: Cycles) {
        self.driver_clock = self.driver_clock.saturating_add(cycles);
    }

    /// Clears the protection mechanism's global exception flag (the
    /// driver's pre-retry reset; on real hardware an MMIO register write).
    pub fn clear_protection_exception(&mut self) {
        if let Some(c) = self.checker_mut() {
            c.clear_exception_flag();
        }
    }

    /// Clears a task's latched exception so a retry that completes is
    /// reported clean. The retry policy, not this method, decides whether
    /// the denial stays latched (retries exhausted) or is cleared.
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownTask`].
    pub fn clear_task_fault(&mut self, task: TaskId) -> Result<(), DriverError> {
        let st = self
            .tasks
            .get_mut(&task)
            .ok_or(DriverError::UnknownTask(task))?;
        st.fault = None;
        Ok(())
    }

    /// The functional-unit index a task runs on (`None` for CPU tasks).
    ///
    /// # Errors
    ///
    /// [`DriverError::UnknownTask`].
    pub fn task_fu(&self, task: TaskId) -> Result<Option<usize>, DriverError> {
        Ok(self.state(task)?.fu)
    }

    /// Quarantines a functional unit: the driver has decided the engine is
    /// faulty (repeated watchdog aborts) and will never schedule on it
    /// again. `faults` is the abort count that tripped the policy.
    ///
    /// Returns `false` when `fu` is out of range.
    pub fn quarantine_fu(&mut self, fu: usize, faults: u32) -> bool {
        if fu >= self.fus.len() {
            return false;
        }
        if !self.fus[fu].quarantined {
            self.fus[fu].quarantined = true;
            self.record(EventKind::EngineQuarantined {
                fu: fu as u32,
                faults,
            });
        }
        true
    }

    /// How many functional units the driver has quarantined.
    #[must_use]
    pub fn quarantined_fus(&self) -> usize {
        self.fus.iter().filter(|f| f.quarantined).count()
    }

    /// Graceful degradation: swaps a cache-backed CapChecker whose SRAM
    /// has proven unreliable (checksum failures on hits) for the fixed
    /// table, re-granting every live task's capabilities over the MMIO
    /// capability interconnect. Security never depended on the cache —
    /// the backing table held ground truth — so this trades the
    /// miss-latency win for predictability, losing no protection.
    ///
    /// Returns `(corruption detections, capabilities re-granted)`, or
    /// `None` when the checker is not running over the cache store.
    pub fn degrade_to_uncached(&mut self) -> Option<(u64, u64)> {
        let cached = self.cached_checker()?;
        let detections = cached.corruption_detected();
        let regranted = self.rebuild_checker(CapChecker::new(*cached.config()));
        self.record(EventKind::CheckerDegraded {
            detections,
            regranted,
        });
        Some((detections, regranted))
    }

    /// Probationary release: returns a quarantined functional unit to the
    /// scheduler. The adaptive controller calls this after a clean
    /// probation window; the FU's fault history restarts from zero, so a
    /// re-quarantine needs a fresh run of aborts.
    ///
    /// Returns `false` when `fu` is out of range or not quarantined.
    pub fn release_fu(&mut self, fu: usize) -> bool {
        if fu >= self.fus.len() || !self.fus[fu].quarantined {
            return false;
        }
        self.fus[fu].quarantined = false;
        self.record(EventKind::EngineReleased { fu: fu as u32 });
        true
    }

    /// The provenance mode of the active CapChecker; `None` on baseline
    /// systems, which have no mode to adapt.
    #[must_use]
    pub fn checker_mode(&self) -> Option<CheckerMode> {
        self.checker().map(CapChecker::mode)
    }

    /// Reverses [`HeteroSystem::degrade_to_uncached`]: swaps the
    /// fixed-table CapChecker back for the cache-backed one after the
    /// adaptive controller's clean probation window, re-granting every
    /// live task's device capabilities into the fresh backing table. The
    /// controller re-baselines its signal deltas after calling this.
    ///
    /// Returns the number of capabilities re-granted, or `None` when the
    /// active protection is not the fixed-table checker.
    pub fn repromote_to_cached(&mut self, config: CachedCheckerConfig) -> Option<u64> {
        if self.checker()?.is_cached() {
            return None;
        }
        let regranted = self.rebuild_checker(CapChecker::cached(config));
        self.record(EventKind::CheckerRepromoted { regranted });
        Some(regranted)
    }

    /// Switches the active CapChecker between Fine and Coarse provenance,
    /// rebuilding it over the same store in the new mode, re-granting
    /// every live task's device capabilities, and reloading each FU's
    /// base-pointer registers (object-tagged in Coarse mode).
    ///
    /// Returns the number of capabilities re-granted; `None` on baseline
    /// systems or when the checker already runs in `mode` (no-op).
    pub fn set_checker_mode(&mut self, mode: CheckerMode) -> Option<u64> {
        let checker = self.checker()?;
        if checker.mode() == mode {
            return None;
        }
        let regranted = self.rebuild_checker(checker.empty_in_mode(mode));
        // Reload every live FU's base pointers for the new address view.
        let coarse = self.coarse_config();
        for st in self.tasks.values() {
            let Some(fu_idx) = st.fu else { continue };
            for (i, &(base, _)) in st.buffers.iter().enumerate() {
                let visible = match coarse {
                    Some(cfg) => cfg.coarse_tag_address(i as u16, base),
                    None => base,
                };
                self.fus[fu_idx].regs.set(i, visible);
                self.driver_clock = self
                    .driver_clock
                    .saturating_add(self.config.mmio_write_cycles);
            }
        }
        self.record(EventKind::CheckerModeSwitched {
            coarse: mode == CheckerMode::Coarse,
            regranted,
        });
        Some(regranted)
    }

    /// Replaces the active checker with `fresh`, re-granting every live
    /// accelerator task's device capabilities in task order and charging
    /// the driver clock each import's cost on the fresh checker's store.
    /// Statistics, attribution, and the static-verdict map with its
    /// bitmap do not survive: the old checker is dropped whole.
    ///
    /// Returns the number of capabilities re-granted.
    fn rebuild_checker(&mut self, mut fresh: CapChecker) -> u64 {
        let install = fresh.import_cycles() + self.config.mmio_write_cycles;
        let mut regranted = 0u64;
        for (&id, st) in &self.tasks {
            if st.fu.is_none() {
                continue;
            }
            for (i, cap) in st.device_caps.iter().enumerate() {
                self.driver_clock = self.driver_clock.saturating_add(install);
                if fresh.import(id, ObjectId(i as u16), cap).is_ok() {
                    regranted += 1;
                }
            }
        }
        self.protection = Protection::Checker(Box::new(fresh));
        regranted
    }
}

/// Alignment and padded size that make `[base, base+size)` exactly
/// representable by the compressed encoding.
fn representable_block(size: u64) -> (u64, u64) {
    let size = size.max(1);
    let exp = compressed::encode_bounds(0, size as u128).exponent;
    let granule = 1u64 << exp;
    let align = granule.max(16);
    (align, size.next_multiple_of(align))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fine_system() -> HeteroSystem {
        let mut sys = HeteroSystem::new(SystemConfig::default());
        sys.add_fus("gemm", 2);
        sys
    }

    fn two_buffer_request() -> TaskRequest {
        TaskRequest::accel("t", "gemm").rw_buffers([256, 256])
    }

    #[test]
    fn allocate_run_deallocate_lifecycle() {
        let mut sys = fine_system();
        let t = sys.allocate_task(&two_buffer_request()).unwrap();
        assert_eq!(sys.protection_entries(), 2);
        assert!(sys.setup_cycles(t).unwrap() > 0);
        let out = sys
            .run_accel_task(t, |eng| {
                for i in 0..64 {
                    eng.store_u32(0, i, i as u32)?;
                }
                Ok(())
            })
            .unwrap();
        assert!(out.completed());
        assert!(sys.trace(t).unwrap().is_some());
        let report = sys.deallocate_task(t).unwrap();
        assert!(report.exception.is_none());
        assert!(report.scrubbed, "dealloc always scrubs (CWE-244 hygiene)");
        assert_eq!(sys.protection_entries(), 0);
        assert!(matches!(sys.trace(t), Err(DriverError::UnknownTask(_))));
    }

    #[test]
    fn fu_pool_exhausts_and_recovers() {
        let mut sys = fine_system();
        let a = sys.allocate_task(&two_buffer_request()).unwrap();
        let _b = sys.allocate_task(&two_buffer_request()).unwrap();
        let err = sys.allocate_task(&two_buffer_request()).unwrap_err();
        assert!(matches!(err, DriverError::NoFreeFu { .. }));
        sys.deallocate_task(a).unwrap();
        assert!(sys.allocate_task(&two_buffer_request()).is_ok());
    }

    #[test]
    fn exception_scrubs_buffers_and_reports_offender() {
        let mut sys = fine_system();
        let t = sys.allocate_task(&two_buffer_request()).unwrap();
        sys.write_buffer(t, 1, 0, &[0xaa; 256]).unwrap();
        let base1 = sys.cpu_layout(t).unwrap().buffers[1].base;
        let out = sys
            .run_accel_task(t, |eng| {
                eng.store_u32(0, 0, 1)?;
                // Overflow object 0 into object 1's territory.
                eng.load_u32(0, 4096)?;
                Ok(())
            })
            .unwrap();
        assert!(!out.completed());
        assert!(sys.checker().unwrap().exception_flag());
        let report = sys.deallocate_task(t).unwrap();
        assert!(report.exception.is_some());
        assert_eq!(report.offending_objects, vec![ObjectId(0)]);
        assert!(report.scrubbed);
        // Buffer 1's secrets were cleared before the memory was reused.
        assert_eq!(sys.memory().read_uint(base1, 8).unwrap(), 0);
        // Flag is cleared for the next task.
        assert!(!sys.checker().unwrap().exception_flag());
    }

    #[test]
    fn cheri_cpu_guards_host_accesses() {
        let mut sys = fine_system();
        let t = sys.allocate_task(&two_buffer_request()).unwrap();
        assert!(sys.write_buffer(t, 0, 0, &[1; 256]).is_ok());
        let err = sys.write_buffer(t, 0, 255, &[1, 2]).unwrap_err();
        assert!(matches!(err, DriverError::HostAccessOutOfBounds));
    }

    #[test]
    fn cpu_tasks_need_no_fu() {
        let mut sys = fine_system();
        let t = sys
            .allocate_task(&TaskRequest::cpu("host").rw_buffers([128]))
            .unwrap();
        let out = sys
            .run_cpu_task(t, |eng| {
                eng.store_u32(0, 0, 42)?;
                Ok(())
            })
            .unwrap();
        assert!(out.completed());
        assert!(matches!(
            sys.run_accel_task(t, |_| Ok(())),
            Err(DriverError::NotAnAcceleratorTask(_))
        ));
    }

    #[test]
    fn ccpu_task_kernel_faults_on_overflow() {
        let mut sys = fine_system();
        let t = sys
            .allocate_task(&TaskRequest::cpu("host").rw_buffers([64]))
            .unwrap();
        let out = sys.run_cpu_task(t, |eng| {
            eng.store_u32(0, 1000, 1)?;
            Ok(())
        });
        assert!(out.unwrap().denial.is_some());
    }

    #[test]
    fn coarse_system_runs_and_translates() {
        let mut sys = HeteroSystem::new(SystemConfig {
            protection: ProtectionChoice::CapChecker(CheckerConfig::coarse()),
            ..SystemConfig::default()
        });
        sys.add_fus("fft", 1);
        let t = sys
            .allocate_task(&TaskRequest::accel("fft0", "fft").rw_buffers([512]))
            .unwrap();
        let layout = sys.accel_layout(t).unwrap();
        // Accelerator-visible addresses carry the object tag.
        assert_eq!(layout.buffers[0].base >> 56, 0);
        let out = sys
            .run_accel_task(t, |eng| {
                eng.store_u32(0, 5, 99)?;
                assert_eq!(eng.load_u32(0, 5)?, 99);
                Ok(())
            })
            .unwrap();
        assert!(out.completed());
        // Host sees the data at the physical address.
        let mut buf = [0u8; 4];
        sys.read_buffer(t, 0, 20, &mut buf).unwrap();
        assert_eq!(u32::from_le_bytes(buf), 99);
    }

    #[test]
    fn variants_have_expected_shape() {
        assert_eq!(SystemVariant::ALL.len(), 5);
        assert!(!SystemVariant::Cpu.uses_accelerator());
        assert!(SystemVariant::CheriCpuCheriAccel.uses_accelerator());
        assert!(SystemVariant::CheriCpu.cheri_cpu());
        assert!(!SystemVariant::CpuAccel.cheri_cpu());
        let cfg = SystemVariant::CheriCpuCheriAccel.config();
        assert!(matches!(cfg.protection, ProtectionChoice::CapChecker(_)));
        assert_eq!(SystemVariant::CheriCpuAccel.label(), "ccpu+accel");
    }

    #[test]
    fn representable_blocks_keep_caps_exact() {
        for size in [1u64, 12, 100, 4096, 16384, 65536, 66564, 1 << 20] {
            let (align, padded) = representable_block(size);
            assert!(padded >= size);
            assert!(align.is_power_of_two());
            let base = align * 3;
            let cap = Capability::root().set_bounds_exact(base, padded);
            assert!(
                cap.is_ok(),
                "size {size} (padded {padded}, align {align}) must be exact"
            );
        }
    }

    #[test]
    fn cached_system_runs_and_degrades_losslessly() {
        let mut sys = HeteroSystem::new(SystemConfig {
            protection: ProtectionChoice::CachedCapChecker(Default::default()),
            ..SystemConfig::default()
        });
        sys.add_fus("k", 1);
        let t = sys
            .allocate_task(&TaskRequest::accel("k0", "k").rw_buffers([256, 256]))
            .unwrap();
        let run = |sys: &mut HeteroSystem| {
            sys.run_accel_task(t, |eng| {
                eng.store_u32(0, 0, 7)?;
                eng.load_u32(0, 0).map(|_| ())
            })
            .unwrap()
        };
        assert!(run(&mut sys).completed());
        assert!(sys.cached_checker().is_some());
        let (detections, regranted) = sys.degrade_to_uncached().unwrap();
        assert_eq!(detections, 0);
        assert_eq!(regranted, 2, "both live capabilities re-granted");
        assert!(sys.cached_checker().is_none(), "now the fixed-table design");
        assert_eq!(sys.protection().name(), "CapChecker-Fine");
        assert!(sys.degrade_to_uncached().is_none(), "degrade is one-way");
        // The task keeps running under the degraded protection, and an
        // overflow is still caught — no protection was lost.
        assert!(run(&mut sys).completed());
        let out = sys
            .run_accel_task(t, |eng| eng.load_u32(0, 4096).map(|_| ()))
            .unwrap();
        assert!(!out.completed());
    }

    /// Every deallocation reports every capability it evicted, whichever
    /// store holds them. (The cache store reports its backing table, not
    /// the 16 hardware lines `entries_in_use` is capped at.)
    #[test]
    fn deallocation_reports_every_eviction_on_both_stores() {
        for protection in [
            ProtectionChoice::CapChecker(CheckerConfig::fine()),
            ProtectionChoice::CachedCapChecker(CachedCheckerConfig::default()),
        ] {
            let mut sys = HeteroSystem::new(SystemConfig {
                protection,
                ..SystemConfig::default()
            });
            sys.add_fus("k", 5);
            let tracer = SharedTracer::new();
            sys.set_tracer(tracer.clone());
            let tasks: Vec<TaskId> = (0..5)
                .map(|i| {
                    sys.allocate_task(&TaskRequest::accel(format!("t{i}"), "k").rw_buffers([64; 4]))
                        .unwrap()
                })
                .collect();
            for t in tasks {
                sys.deallocate_task(t).unwrap();
            }
            let evicted: Vec<u64> = tracer
                .snapshot()
                .events()
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::CheckerEvict { entries, .. } => Some(entries),
                    _ => None,
                })
                .collect();
            assert_eq!(evicted, [4, 4, 4, 4, 4], "{protection:?}");
            assert_eq!(sys.checker().unwrap().stats().evictions, 20);
        }
    }

    #[test]
    fn repromote_reverses_degradation_and_keeps_protection() {
        let mut sys = HeteroSystem::new(SystemConfig {
            protection: ProtectionChoice::CachedCapChecker(Default::default()),
            ..SystemConfig::default()
        });
        sys.add_fus("k", 1);
        let t = sys
            .allocate_task(&TaskRequest::accel("k0", "k").rw_buffers([256, 256]))
            .unwrap();
        let cfg = sys.cached_checker().unwrap().cache_config().unwrap();
        sys.degrade_to_uncached().unwrap();
        assert!(sys.cached_checker().is_none());
        assert!(
            sys.repromote_to_cached(cfg).is_some(),
            "repromotion from the fixed-table checker succeeds"
        );
        assert!(sys.cached_checker().is_some(), "cached variant is back");
        assert!(
            sys.repromote_to_cached(cfg).is_none(),
            "already cached: no-op"
        );
        // The re-granted capabilities still protect the task.
        let out = sys
            .run_accel_task(t, |eng| {
                eng.store_u32(0, 0, 7)?;
                eng.load_u32(0, 0).map(|_| ())
            })
            .unwrap();
        assert!(out.completed());
        let out = sys
            .run_accel_task(t, |eng| eng.load_u32(0, 4096).map(|_| ()))
            .unwrap();
        assert!(!out.completed(), "overflow still caught after repromotion");
    }

    #[test]
    fn released_fu_is_schedulable_again() {
        let mut sys = fine_system();
        let a = sys.allocate_task(&two_buffer_request()).unwrap();
        let fu_a = sys.task_fu(a).unwrap().unwrap();
        sys.deallocate_task(a).unwrap();
        assert!(sys.quarantine_fu(fu_a, 3));
        assert_eq!(sys.quarantined_fus(), 1);
        assert!(!sys.release_fu(99), "out of range is reported");
        assert!(sys.release_fu(fu_a));
        assert!(!sys.release_fu(fu_a), "already released: no-op");
        assert_eq!(sys.quarantined_fus(), 0);
        // Both FUs are available again.
        let _b = sys.allocate_task(&two_buffer_request()).unwrap();
        let _c = sys.allocate_task(&two_buffer_request()).unwrap();
    }

    #[test]
    fn mode_switch_retags_live_tasks() {
        let mut sys = fine_system();
        assert_eq!(sys.checker_mode(), Some(CheckerMode::Fine));
        let t = sys.allocate_task(&two_buffer_request()).unwrap();
        assert!(sys.set_checker_mode(CheckerMode::Fine).is_none(), "no-op");
        let regranted = sys.set_checker_mode(CheckerMode::Coarse).unwrap();
        assert_eq!(regranted, 2);
        assert_eq!(sys.checker_mode(), Some(CheckerMode::Coarse));
        // The accelerator's view now carries object tags, and the kernel
        // still runs (and is still bounds-checked).
        let layout = sys.accel_layout(t).unwrap();
        assert_eq!(layout.buffers[1].base >> 56, 1);
        let out = sys
            .run_accel_task(t, |eng| {
                eng.store_u32(1, 3, 9)?;
                assert_eq!(eng.load_u32(1, 3)?, 9);
                Ok(())
            })
            .unwrap();
        assert!(out.completed());
        // And back to Fine.
        let regranted = sys.set_checker_mode(CheckerMode::Fine).unwrap();
        assert_eq!(regranted, 2);
        let out = sys
            .run_accel_task(t, |eng| eng.load_u32(0, 4096).map(|_| ()))
            .unwrap();
        assert!(!out.completed(), "fine mode still denies overflow");
        // Baselines have no mode.
        let mut base = HeteroSystem::new(SystemConfig {
            protection: ProtectionChoice::None,
            ..SystemConfig::default()
        });
        assert!(base.checker_mode().is_none());
        assert!(base.set_checker_mode(CheckerMode::Coarse).is_none());
    }

    #[test]
    fn quarantined_fus_are_never_rescheduled() {
        let mut sys = fine_system();
        let a = sys.allocate_task(&two_buffer_request()).unwrap();
        let fu_a = sys.task_fu(a).unwrap().unwrap();
        assert!(sys.quarantine_fu(fu_a, 3));
        assert_eq!(sys.quarantined_fus(), 1);
        sys.deallocate_task(a).unwrap();
        // The freed-but-quarantined FU is skipped: the next task lands on
        // the other engine, and a third request finds nothing.
        let b = sys.allocate_task(&two_buffer_request()).unwrap();
        assert_ne!(sys.task_fu(b).unwrap().unwrap(), fu_a);
        assert!(matches!(
            sys.allocate_task(&two_buffer_request()),
            Err(DriverError::NoFreeFu { .. })
        ));
        assert!(!sys.quarantine_fu(99, 1), "out of range is reported");
    }

    #[test]
    fn device_ports_narrow_checker_but_not_host() {
        let mut sys = fine_system();
        // Analyzer-style least privilege: port 0 is read-only for the
        // accelerator, port 1 write-only.
        let req = two_buffer_request().device_ports([Perms::LOAD, Perms::STORE]);
        let t = sys.allocate_task(&req).unwrap();
        // Host staging and readback keep the full RW capability.
        assert!(sys.write_buffer(t, 0, 0, &[7; 16]).is_ok());
        assert!(sys.write_buffer(t, 1, 0, &[0; 16]).is_ok());
        let mut buf = [0u8; 4];
        assert!(sys.read_buffer(t, 1, 0, &mut buf).is_ok());
        // The declared direction completes...
        let out = sys
            .run_accel_task(t, |eng| {
                let x = eng.load_u32(0, 0)?;
                eng.store_u32(1, 0, x)
            })
            .unwrap();
        assert!(out.completed());
        sys.deallocate_task(t).unwrap();
        // ...and a store through the read-only device port is denied.
        let t = sys
            .allocate_task(&two_buffer_request().device_ports([Perms::LOAD, Perms::STORE]))
            .unwrap();
        let out = sys.run_accel_task(t, |eng| eng.store_u32(0, 0, 1)).unwrap();
        assert!(!out.completed(), "device-side grant must be narrowed");
    }

    #[test]
    fn static_verdicts_install_elide_and_trace() {
        use crate::elide::{StaticVerdict, StaticVerdictMap};
        let mut sys = fine_system();
        let tracer = SharedTracer::new();
        sys.set_tracer(tracer.clone());
        let t = sys.allocate_task(&two_buffer_request()).unwrap();
        let mut map = StaticVerdictMap::new();
        map.set(t, ObjectId(0), StaticVerdict::Safe);
        assert!(sys.install_static_verdicts(map));
        assert_eq!(sys.static_verdicts().unwrap().safe_pairs(), 1);
        let out = sys
            .run_accel_task(t, |eng| {
                for i in 0..8 {
                    eng.store_u32(0, i, i as u32)?; // elided
                }
                eng.store_u32(1, 0, 1) // fully checked
            })
            .unwrap();
        assert!(out.completed());
        assert_eq!(sys.checks_elided(), 8);
        sys.deallocate_task(t).unwrap();
        let events = tracer.snapshot();
        let events = events.events();
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::StaticVerdictsInstalled { safe_pairs: 1 }));
        assert!(events.iter().any(|e| e.kind
            == EventKind::ChecksElided {
                task: t.0,
                count: 8
            }));
        // Metrics carry the counter too.
        let mut reg = Registry::new();
        sys.export_metrics(&mut reg);
        assert_eq!(reg.snapshot().counter("checker.elided"), Some(8));
    }

    #[test]
    fn retained_segment_verdicts_survive_mode_switch_and_repromotion() {
        use crate::elide::{StaticVerdict, StaticVerdictMap};
        let mut sys = HeteroSystem::new(SystemConfig {
            protection: ProtectionChoice::CachedCapChecker(Default::default()),
            ..SystemConfig::default()
        });
        let tracer = SharedTracer::new();
        sys.set_tracer(tracer.clone());
        sys.add_fus("gemm", 1);
        let t = sys.allocate_task(&two_buffer_request()).unwrap();
        let mut map = StaticVerdictMap::new();
        map.set(t, ObjectId(0), StaticVerdict::Safe);
        assert!(sys.retain_segment_verdicts(map));
        assert_eq!(sys.static_verdicts().unwrap().safe_pairs(), 1);

        // A mode switch rebuilds the checker and drops the installed map
        // (coherence rule) — elision is gone...
        sys.set_checker_mode(CheckerMode::Coarse).unwrap();
        assert!(sys.static_verdicts().is_none(), "rebuild drops the map");
        // ...until the controller re-installs the retained proof.
        assert_eq!(sys.reinstall_segment_verdicts(), Some(1));
        assert_eq!(sys.static_verdicts().unwrap().safe_pairs(), 1);

        // Degrade → re-promote: the same ledger restores elision after
        // the probation path swaps checkers twice.
        sys.degrade_to_uncached().unwrap();
        assert!(sys.static_verdicts().is_none());
        sys.repromote_to_cached(Default::default()).unwrap();
        assert_eq!(sys.reinstall_segment_verdicts(), Some(1));
        assert_eq!(sys.segment_verdicts().reinstalls(), 2);

        let events = tracer.snapshot();
        let reinstalls = events
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::SegmentVerdictsReinstalled { safe_pairs: 1 })
            .count();
        assert_eq!(reinstalls, 2);

        // A cleared ledger has nothing to re-install.
        sys.clear_segment_verdicts();
        assert_eq!(sys.reinstall_segment_verdicts(), None);
    }

    #[test]
    fn baseline_systems_refuse_verdict_maps() {
        let mut sys = HeteroSystem::new(SystemConfig {
            protection: ProtectionChoice::None,
            ..SystemConfig::default()
        });
        let mut map = StaticVerdictMap::new();
        map.set(TaskId(1), ObjectId(0), crate::elide::StaticVerdict::Safe);
        assert!(!sys.install_static_verdicts(map));
        assert!(sys.static_verdicts().is_none());
        assert_eq!(sys.checks_elided(), 0);
    }

    #[test]
    fn iommu_system_smoke() {
        let mut sys = HeteroSystem::new(SystemConfig {
            protection: ProtectionChoice::Iommu(IommuConfig::default()),
            ..SystemConfig::default()
        });
        sys.add_fus("k", 1);
        let t = sys
            .allocate_task(&TaskRequest::accel("k0", "k").rw_buffers([64]))
            .unwrap();
        let out = sys
            .run_accel_task(t, |eng| {
                eng.store_u32(0, 0, 7)?;
                Ok(())
            })
            .unwrap();
        assert!(out.completed());
        assert!(sys.protection_entries() >= 1);
    }
}
