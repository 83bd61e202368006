//! Timing models: cost a kernel's operations on a CPU or on accelerator
//! functional units behind the shared AXI port.
//!
//! Three costers implement [`Record`], so a kernel run can record
//! straight into any of them (no trace is stored) and a recorded [`Trace`]
//! can be replayed into any of them:
//!
//! * [`CpuCoster`] is the CPU model: it charges each op as it arrives
//!   ([`simulate_cpu_prof`] replays a trace into it).
//! * [`LaneFolder`] folds one task's ops into an event [`Wheel`] of
//!   per-lane entries, which [`simulate_wheel_prof`] runs once every task
//!   is folded ([`simulate_accel_system_prof`] replays traces into it).
//! * [`StreamCoster`] costs a one-task accelerator run as it goes: with
//!   one task the wheel grants in program order, so each op is granted as
//!   it is issued, with no arena and no queue.
//!
//! The two accelerator costers share the lane split and the grant step,
//! so they cannot disagree on a cycle.
//!
//! The models are deliberately architectural rather than RTL-exact: they
//! reproduce the *relationships* the paper's evaluation rests on —
//!
//! * the interconnect moves one beat per cycle, shared by everyone, so
//!   memory-bound accelerators saturate and extra parallelism stops paying
//!   (Figures 7, 11);
//! * accelerators have no cache, so latency-bound kernels lose to the CPU
//!   (Figure 10 c, i);
//! * the CapChecker is a pipelined unit: it adds latency per request but no
//!   throughput loss, plus a fixed MMIO capability-installation cost at
//!   task start (Figure 8's md_knn outlier);
//! * the CHERI CPU pays a small per-access cost but moves 16 bytes per
//!   copy instruction (gemm_blocked runs *faster* on `ccpu`, Figure 10 g).

use crate::engine::Record;
use crate::ids::Cycles;
use crate::trace::{Trace, TraceOp};
use obs::{EventKind, NullProfiler, NullTracer, Profiler, Tracer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::collections::VecDeque;
use std::fmt;

/// A set-associative data cache (LRU within a set; 1 way = direct-mapped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            size: 16 * 1024,
            line: 64,
            ways: 1,
        }
    }
}

impl CacheConfig {
    /// A direct-mapped cache of the given size.
    #[must_use]
    pub fn direct_mapped(size: u64, line: u64) -> CacheConfig {
        CacheConfig {
            size,
            line,
            ways: 1,
        }
    }
}

/// Extra costs of the CHERI-extended CPU (`ccpu`) relative to `cpu`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CheriCpuCost {
    /// Average extra cycles per memory operation (capability register
    /// management and wider spills; bounds checks themselves are parallel
    /// and free).
    pub per_mem_op_extra: f64,
    /// Multiplier on compute cycles: capability-manipulation instructions
    /// interleaved with the data path cost a small percentage of dynamic
    /// instructions (the 1–5% `cpu`→`ccpu` gap of Figure 10).
    pub compute_factor: f64,
    /// Bytes moved per copy instruction: 16 with the capability-copy
    /// instruction versus 8 on plain RV64.
    pub copy_width: u64,
    /// One-time cost of installing the compartment's capability registers.
    pub setup_cycles: Cycles,
}

impl Default for CheriCpuCost {
    fn default() -> CheriCpuCost {
        CheriCpuCost {
            per_mem_op_extra: 0.04,
            compute_factor: 1.02,
            copy_width: 16,
            setup_cycles: 50,
        }
    }
}

/// Timing parameters for the scalar CPU model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuTiming {
    /// Cycles per data-path work unit (scalar CPI for the kernel's ops).
    pub cycles_per_unit: f64,
    /// Cycles to issue a memory access that hits in the L1.
    pub issue_cycles: f64,
    /// Extra cycles on an L1 miss (memory + interconnect round trip).
    pub miss_latency: Cycles,
    /// The L1 data cache; `None` models an uncached core.
    pub cache: Option<CacheConfig>,
    /// `Some` for the CHERI-extended CPU.
    pub cheri: Option<CheriCpuCost>,
}

impl Default for CpuTiming {
    fn default() -> CpuTiming {
        CpuTiming {
            cycles_per_unit: 1.0,
            issue_cycles: 1.0,
            miss_latency: 30,
            cache: Some(CacheConfig::default()),
            cheri: None,
        }
    }
}

impl CpuTiming {
    /// The same core with the CHERI extensions enabled.
    #[must_use]
    pub fn with_cheri(mut self) -> CpuTiming {
        self.cheri = Some(CheriCpuCost::default());
        self
    }
}

/// Result of costing a trace on the CPU model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuReport {
    /// Total execution time.
    pub cycles: Cycles,
    /// Memory operations issued (copies expanded).
    pub mem_ops: u64,
    /// L1 hits.
    pub hits: u64,
    /// L1 misses.
    pub misses: u64,
}

#[derive(Debug)]
struct Cache {
    cfg: CacheConfig,
    sets: usize,
    /// `sets × ways` tags; within a set, index 0 is least recently used.
    tags: Vec<u64>,
    /// The line of the previous access — streaming kernels touch the same
    /// line for many consecutive operations, and a repeat access is a hit
    /// that leaves the LRU state untouched (the line is already in the
    /// most-recently-used position, so the rotate is the identity). This
    /// memo skips the set lookup entirely on that path.
    last_line: Option<u64>,
}

impl Cache {
    fn new(cfg: CacheConfig) -> Cache {
        let ways = cfg.ways.max(1) as usize;
        let lines = (cfg.size / cfg.line).max(1) as usize;
        let sets = (lines / ways).max(1);
        Cache {
            cfg,
            sets,
            tags: vec![u64::MAX; sets * ways],
            last_line: None,
        }
    }

    /// Returns `true` on hit; fills the line (LRU eviction) otherwise.
    fn access(&mut self, addr: u64) -> bool {
        let ways = self.cfg.ways.max(1) as usize;
        let line_no = addr / self.cfg.line;
        if self.last_line == Some(line_no) {
            return true;
        }
        self.last_line = Some(line_no);
        let set = (line_no % self.sets as u64) as usize;
        let slice = &mut self.tags[set * ways..(set + 1) * ways];
        if let Some(pos) = slice.iter().position(|t| *t == line_no) {
            // Move to most-recently-used position.
            slice[pos..].rotate_left(1);
            true
        } else {
            slice.rotate_left(1);
            slice[ways - 1] = line_no;
            false
        }
    }
}

/// Costs `trace` on the sequential CPU model.
#[must_use]
pub fn simulate_cpu(trace: &Trace, cfg: &CpuTiming) -> CpuReport {
    simulate_cpu_prof(trace, cfg, &mut NullTracer, &mut NullProfiler)
}

/// [`simulate_cpu`] observed: every L1 lookup is recorded on `tracer` as
/// a cycle-stamped event, and the run's cycles are attributed to profiler
/// spans: `cpu/{setup,compute,issue,miss_stall}` partitions the total
/// (child sums are truncated, so attribution never exceeds the report),
/// and each access's cost lands in the `cpu.access_cycles` histogram.
/// Every cost attributed here derives from simulated quantities only, so
/// the profile is deterministic.
///
/// The trace is replayed into a [`CpuCoster`], the CPU model's one
/// costing body, which a kernel run can also record into directly.
#[must_use]
pub fn simulate_cpu_prof(
    trace: &Trace,
    cfg: &CpuTiming,
    tracer: &mut dyn Tracer,
    prof: &mut dyn Profiler,
) -> CpuReport {
    fn cost(trace: &Trace, mut coster: CpuCoster<impl Tracer, impl Profiler>) -> CpuReport {
        trace.replay(&mut coster);
        coster.finish()
    }
    // Monomorphize over the observers, as the event wheel does: an
    // unobserved run makes no virtual call per access.
    match (tracer.enabled(), prof.enabled()) {
        (false, false) => cost(trace, CpuCoster::new(cfg)),
        (true, false) => cost(trace, CpuCoster::observed(cfg, tracer, NullProfiler)),
        (false, true) => cost(trace, CpuCoster::observed(cfg, NullTracer, prof)),
        (true, true) => cost(trace, CpuCoster::observed(cfg, tracer, prof)),
    }
}

/// Costs a kernel on the sequential CPU model as it runs: a [`Record`]
/// that charges each op the moment the engine hands it over, so a CPU
/// run needs no stored trace.
///
/// Consecutive [`Record::compute`] calls coalesce into one open run,
/// costed when a memory op or [`CpuCoster::finish`] closes it, exactly as
/// [`Trace`] coalesces them into one op: cycles add up in `f64`, and
/// `(a + b) × cpi` can round differently from `a × cpi + b × cpi`.
///
/// The observers are type parameters: [`CpuCoster::new`] takes the null
/// ones, whose calls compile away.
#[derive(Debug)]
pub struct CpuCoster<T: Tracer = NullTracer, P: Profiler = NullProfiler> {
    cfg: CpuTiming,
    cache: Option<Cache>,
    cycles: f64,
    report: CpuReport,
    /// Compute units of the open run, not yet costed.
    run: u64,
    /// Cycles every access costs before a miss: issue plus the CHERI
    /// per-op extra.
    issue: f64,
    compute_factor: f64,
    /// Bytes a copy moves per instruction.
    copy_width: u64,
    /// Bytes a copy reads before it writes them back.
    copy_burst: u64,
    tracer: T,
    prof: P,
}

impl CpuCoster {
    /// An unobserved coster for a run on the CPU `cfg` describes.
    #[must_use]
    pub fn new(cfg: &CpuTiming) -> CpuCoster {
        CpuCoster::observed(cfg, NullTracer, NullProfiler)
    }
}

impl<T: Tracer, P: Profiler> CpuCoster<T, P> {
    /// A coster that records every L1 lookup on `tracer` and attributes
    /// the run's cycles to `prof`, as [`simulate_cpu_prof`] describes.
    #[must_use]
    pub fn observed(cfg: &CpuTiming, tracer: T, prof: P) -> CpuCoster<T, P> {
        let copy_width = cfg.cheri.map_or(8, |c| c.copy_width).max(1);
        CpuCoster {
            cfg: *cfg,
            cache: cfg.cache.map(Cache::new),
            cycles: cfg.cheri.map_or(0.0, |c| c.setup_cycles as f64),
            report: CpuReport::default(),
            run: 0,
            issue: cfg.issue_cycles + cfg.cheri.map_or(0.0, |c| c.per_mem_op_extra),
            compute_factor: cfg.cheri.map_or(1.0, |c| c.compute_factor),
            copy_width,
            copy_burst: cfg.cache.map_or(64, |c| c.line).max(copy_width),
            tracer,
            prof,
        }
    }

    /// Costs the open compute run.
    #[inline]
    fn close_run(&mut self) {
        if self.run != 0 {
            self.cycles += self.run as f64 * self.cfg.cycles_per_unit * self.compute_factor;
            self.run = 0;
        }
    }

    /// Costs one access at `addr`.
    #[inline]
    fn access(&mut self, addr: u64) {
        self.report.mem_ops += 1;
        let mut cost = self.issue;
        match self.cache.as_mut() {
            Some(c) => {
                let hit = c.access(addr);
                if hit {
                    self.report.hits += 1;
                } else {
                    self.report.misses += 1;
                    cost += self.cfg.miss_latency as f64;
                }
                self.tracer
                    .record(self.cycles as u64, EventKind::L1Access { hit });
            }
            None => cost += self.cfg.miss_latency as f64,
        }
        self.prof.observe("cpu.access_cycles", cost as u64);
        self.cycles += cost;
    }

    /// Closes the run: costs its trailing compute, attributes its cycles
    /// to the profiler's spans, and reports.
    #[must_use]
    pub fn finish(mut self) -> CpuReport {
        self.close_run();
        let cfg = self.cfg;
        let report = CpuReport {
            cycles: self.cycles.ceil() as Cycles,
            ..self.report
        };
        if self.prof.enabled() {
            // Reconstruct the exact partition from the run's own counts:
            // the total is setup + compute + per-access issue + miss
            // stalls, so compute falls out as the remainder. Truncating
            // each share keeps the attributed sum at or below the
            // reported total.
            let setup = cfg.cheri.map_or(0.0, |c| c.setup_cycles as f64);
            let issue = report.mem_ops as f64 * self.issue;
            let stalled = if cfg.cache.is_some() {
                report.misses
            } else {
                report.mem_ops
            };
            let miss_stall = stalled as f64 * cfg.miss_latency as f64;
            let compute = (self.cycles - setup - issue - miss_stall).max(0.0);
            let prof = &mut self.prof;
            prof.enter("cpu");
            for (name, share) in [
                ("setup", setup),
                ("compute", compute),
                ("issue", issue),
                ("miss_stall", miss_stall),
            ] {
                prof.enter(name);
                prof.add_cycles(share as u64);
                prof.exit();
            }
            prof.exit();
        }
        report
    }
}

impl<T: Tracer, P: Profiler> Record for CpuCoster<T, P> {
    #[inline]
    fn mem(&mut self, addr: u64, _bytes: u16, _write: bool, _object: u16) {
        self.close_run();
        self.access(addr);
    }

    #[inline]
    fn compute(&mut self, units: u64) {
        self.run += units;
    }

    fn copy(&mut self, src: u64, dst: u64, bytes: u64) {
        self.close_run();
        // memcpy moves line-sized bursts: read a line's worth of chunks,
        // then write them (avoids pathological src/dst alternation in the
        // direct-mapped cache).
        let width = self.copy_width as usize;
        let mut at = 0u64;
        while at < bytes {
            let span = self.copy_burst.min(bytes - at);
            for i in (0..span).step_by(width) {
                self.access(src + at + i);
            }
            for i in (0..span).step_by(width) {
                self.access(dst + at + i);
            }
            at += span;
        }
    }
}

/// Timing parameters for one accelerator task's functional unit.
///
/// These are the knobs HLS fixes when it builds the accelerator: how many
/// parallel lanes the datapath has, how many operations each lane retires
/// per cycle once its pipeline fills, and how many memory requests a lane
/// keeps in flight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccelTimingConfig {
    /// Parallel datapath lanes (loop unroll × FU duplication).
    pub lanes: u32,
    /// Work units retired per lane per cycle (pipelining depth).
    pub compute_per_cycle: f64,
    /// Outstanding memory requests per lane (no cache: this is all the
    /// latency tolerance the accelerator has).
    pub outstanding: u32,
}

impl Default for AccelTimingConfig {
    fn default() -> AccelTimingConfig {
        AccelTimingConfig {
            lanes: 4,
            compute_per_cycle: 4.0,
            outstanding: 4,
        }
    }
}

/// Shared memory-path parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusConfig {
    /// Bytes moved per interconnect beat (AXI data width).
    pub beat_bytes: u64,
    /// Memory access latency in cycles (request to data).
    pub mem_latency: Cycles,
    /// Extra pipelined latency added by a checker on the path (0 = none).
    pub checker_latency: Cycles,
    /// Deterministic interconnect faults (default: healthy).
    pub faults: crate::bus::BusFaultConfig,
}

impl Default for BusConfig {
    fn default() -> BusConfig {
        BusConfig {
            beat_bytes: 8,
            mem_latency: 30,
            checker_latency: 0,
            faults: crate::bus::BusFaultConfig::healthy(),
        }
    }
}

impl BusConfig {
    /// The same bus with a CapChecker of the given pipeline depth inserted.
    #[must_use]
    pub fn with_checker(mut self, latency: Cycles) -> BusConfig {
        self.checker_latency = latency;
        self
    }

    /// The same bus with an interconnect fault model armed.
    #[must_use]
    pub fn with_faults(mut self, faults: crate::bus::BusFaultConfig) -> BusConfig {
        self.faults = faults;
        self
    }
}

/// Interconnect beats a transfer of `bytes` takes at `beat_bytes` a beat:
/// at least one, even for an empty transfer.
fn beats(beat_bytes: u64, bytes: u64) -> u64 {
    bytes.div_ceil(beat_bytes).max(1)
}

/// One accelerator task to run: its trace, its FU configuration, and the
/// cycle at which it may start issuing (driver setup cost).
#[derive(Clone, Debug)]
pub struct AccelTask<'a> {
    /// The work to perform.
    pub trace: &'a Trace,
    /// The FU's timing configuration.
    pub cfg: AccelTimingConfig,
    /// Start time: capability-installation and control-register setup.
    pub start: Cycles,
}

/// Result of simulating a set of accelerator tasks on the shared bus.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AccelReport {
    /// Completion cycle of each task (same order as the input).
    pub per_task: Vec<Cycles>,
    /// Cycle at which the last task finished.
    pub makespan: Cycles,
    /// Total interconnect beats consumed.
    pub bus_beats: u64,
    /// Fraction of the makespan the bus was busy (contention indicator).
    pub bus_utilization: f64,
}

#[derive(Debug)]
struct Lane {
    task: usize,
    ops: Vec<TraceOp>,
    next: usize,
    time: f64,
    inflight: VecDeque<f64>,
    cfg: AccelTimingConfig,
}

/// A totally ordered f64 for the event heap. Times are finite and
/// non-negative, where `==` and `total_cmp` agree.
#[derive(Clone, Copy, PartialEq)]
struct Time(f64);
impl Eq for Time {}
impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Time) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Time {
    fn cmp(&self, other: &Time) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Splits a task's trace across `n` datapath lanes: compute work divides
/// evenly (unrolled loop bodies), memory operations round-robin. Shared
/// by the event-driven model and the cycle-accurate validator.
pub(crate) fn distribute_over_lanes(trace: &Trace, n: usize) -> Vec<Vec<TraceOp>> {
    let mut per_lane: Vec<Vec<TraceOp>> = vec![Vec::new(); n.max(1)];
    let n = per_lane.len();
    let push_compute = |lane: &mut Vec<TraceOp>, units: u64| {
        if units == 0 {
            return;
        }
        if let Some(TraceOp::Compute(prev)) = lane.last_mut() {
            *prev += units;
        } else {
            lane.push(TraceOp::Compute(units));
        }
    };
    let mut mem_rr = 0usize;
    for op in trace.ops() {
        match *op {
            TraceOp::Compute(units) => {
                let share = units / n as u64;
                let rem = (units % n as u64) as usize;
                for (j, lane) in per_lane.iter_mut().enumerate() {
                    push_compute(lane, share + u64::from(j < rem));
                }
            }
            mem_op => {
                per_lane[mem_rr % n].push(mem_op);
                mem_rr += 1;
            }
        }
    }
    per_lane
}

/// Simulates `tasks` running concurrently on the shared memory path.
///
/// Each task's operations are distributed round-robin over its lanes; each
/// lane issues in order, limited by its outstanding-request window; all
/// lanes of all tasks contend for the single one-beat-per-cycle port in
/// ready-time order (FCFS — the AXI arbiter of the prototype).
#[must_use]
pub fn simulate_accel_system(tasks: &[AccelTask<'_>], bus: &BusConfig) -> AccelReport {
    simulate_accel_system_prof(tasks, bus, &mut NullTracer, &mut NullProfiler)
}

/// [`simulate_accel_system`] observed: task start/end and every bus
/// grant are recorded on `tracer` as cycle-stamped events, and the
/// makespan is attributed to profiler spans. The partition is exact:
/// `accel/setup` is the earliest task start,
/// `accel/execute/bus_busy` is the beats the one-beat-per-cycle port
/// moved (each beat occupies a distinct port cycle after setup), and
/// `accel/execute/bus_idle` is the remainder — the three sum to the
/// makespan (`bus_idle` is exactly the idle the event wheel jumps over
/// without stepping). Per-request arbitration waits and burst lengths
/// land in the `accel.req_wait` / `accel.req_beats` histograms, and each
/// task's start-to-done duration in `accel.task_cycles`. All attributed
/// quantities are simulated, so the profile is deterministic. The plain
/// entry point calls this with a [`NullTracer`] and a [`NullProfiler`] —
/// one code path, timing cannot diverge.
///
/// This is the trace feeder of the event wheel: each task's trace is
/// replayed, op by op, into a [`LaneFolder`], and the folded [`Wheel`]
/// runs in [`simulate_wheel_prof`]. A kernel run can feed the same
/// folder directly instead; the fold is one code path either way.
#[must_use]
pub fn simulate_accel_system_prof(
    tasks: &[AccelTask<'_>],
    bus: &BusConfig,
    tracer: &mut dyn Tracer,
    prof: &mut dyn Profiler,
) -> AccelReport {
    let mut wheel = Wheel::new(*bus);
    for task in tasks {
        let mut folder = wheel.task(task.cfg, task.start);
        task.trace.replay(&mut folder);
        wheel = folder.finish();
    }
    simulate_wheel_prof(wheel, tracer, prof)
}

/// Runs a folded [`Wheel`], observed as [`simulate_accel_system_prof`]
/// describes: the report, events and profile are those of
/// [`simulate_accel_system_prof`] over traces of the same ops.
///
/// This is the event-wheel core: lanes are compact cursors over
/// pre-folded `(compute, beats)` entries, and the next lane to run is
/// the smaller `(time, lane)` head of two sorted queues — lanes not yet
/// started, by start, and lanes already served, in grant order (each
/// grant moves the port's free time strictly forward, so that FIFO stays
/// sorted). Arbitration is O(1) per grant at any lane count. It performs
/// the same floating-point operations in the same order as
/// [`simulate_accel_system_naive`], so results are cycle-for-cycle (in
/// fact bit-for-bit) identical — the test suite and the CI perf-smoke
/// job pin that equivalence.
#[must_use]
pub fn simulate_wheel_prof(
    wheel: Wheel,
    tracer: &mut dyn Tracer,
    prof: &mut dyn Profiler,
) -> AccelReport {
    // Monomorphize the wheel over its observers: the common benchmark
    // path (no tracer, no profiler) compiles to a loop with no virtual
    // calls at all.
    match (tracer.enabled(), prof.enabled()) {
        (false, false) => run_wheel::<false, false>(wheel, tracer, prof),
        (true, false) => run_wheel::<true, false>(wheel, tracer, prof),
        (false, true) => run_wheel::<false, true>(wheel, tracer, prof),
        (true, true) => run_wheel::<true, true>(wheel, tracer, prof),
    }
}

/// One lane memory operation in the form the event wheel walks: the
/// compute *cycles* the lane retires since its previous own memory op,
/// and the healthy-bus beats of the transfer. The cycles are the single
/// `units as f64 / compute_per_cycle` division [`distribute_over_lanes`]'
/// coalescing implies — performed once at fold time with the identical
/// operands, so hoisting it out of the wheel loop cannot change a bit
/// (zero units fold to `+0.0`, and `t + 0.0 == t` for the non-negative
/// times the wheel advances).
#[derive(Clone, Copy, Debug)]
struct LaneEntry {
    pre_cycles: f64,
    base_beats: u64,
}

/// Per-lane cursor state of the event wheel. The whole struct is plain
/// scalars: entries live in one shared arena in program order, a lane's
/// entries `stride` apart, and the outstanding-request window is a fixed
/// ring in a second arena instead of a `VecDeque` per lane.
#[derive(Clone, Copy, Debug)]
struct WheelLane {
    task: u32,
    cursor: usize,
    end: usize,
    stride: u32,
    tail_units: u64,
    cpc: f64,
    window: u32,
    ring_start: usize,
    inflight: Inflight,
}

/// A lane's outstanding-request window: the completion times of its
/// in-flight requests, oldest first, held in a ring of `window` slots
/// that the caller owns (a slice of a shared arena).
#[derive(Clone, Copy, Debug, Default)]
struct Inflight {
    head: u32,
    len: u32,
}

/// The shared memory port and its arbiter: the one-beat-per-cycle
/// interconnect every lane contends for, the cycle it is next free, and
/// the counter the deterministic fault models key on.
#[derive(Debug)]
struct Port {
    faults: crate::bus::BusFaultConfig,
    /// Memory plus checker latency, request to data.
    latency: f64,
    free: f64,
    beats: u64,
    grants: u64,
}

impl Port {
    fn new(bus: &BusConfig) -> Port {
        Port {
            faults: bus.faults,
            latency: (bus.mem_latency + bus.checker_latency) as f64,
            free: 0.0,
            beats: 0,
            grants: 0,
        }
    }

    /// The grant step: lane `lane` of task `task`, ready to issue at `t`
    /// with a request of `beats` healthy-bus beats, waits for a slot in
    /// its outstanding-request window (`slots`, `inflight`) and for the
    /// port, and is granted. Returns the port's new free time, which is
    /// the lane's next event. Every costing core grants through here, so
    /// they cannot disagree on a cycle.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn grant<const TRACING: bool, const PROFILING: bool>(
        &mut self,
        t: f64,
        mut beats: u64,
        slots: &mut [f64],
        inflight: &mut Inflight,
        (lane, task): (u32, u32),
        tracer: &mut dyn Tracer,
        prof: &mut dyn Profiler,
    ) -> f64 {
        let window = slots.len();
        self.grants += 1;
        // Interconnect faults: a dropped transfer retransmits (double
        // occupancy); a stalled grant waits out the arbiter. Both are
        // counter-periodic, so reproducible.
        if self.faults.drops(self.grants) {
            beats *= 2;
        }
        let stall = self.faults.stall_for(self.grants) as f64;
        let mut ready = t;
        if inflight.len as usize >= window {
            ready = ready.max(slots[inflight.head as usize]);
            inflight.head = if inflight.head as usize + 1 == window {
                0
            } else {
                inflight.head + 1
            };
            inflight.len -= 1;
        }
        let grant = ready.max(self.free) + stall;
        if TRACING {
            tracer.record(
                grant as u64,
                EventKind::BusGrant {
                    lane,
                    task,
                    beats,
                    waited: (grant - ready) as u64,
                },
            );
        }
        if PROFILING {
            prof.observe("accel.req_wait", (grant - ready) as u64);
            prof.observe("accel.req_beats", beats);
        }
        self.free = grant + beats as f64;
        self.beats += beats;
        // The window was not full after the pop above, so the slot is
        // within one wrap of the head.
        let mut slot = inflight.head as usize + inflight.len as usize;
        if slot >= window {
            slot -= window;
        }
        slots[slot] = grant + beats as f64 + self.latency;
        inflight.len += 1;
        self.free
    }
}

/// The cycle a lane that has issued its last request is done: from `t`
/// it retires its leftover compute, then waits for its in-flight
/// requests (`slots`, `inflight`).
fn lane_done(mut t: f64, tail_units: u64, cpc: f64, slots: &[f64], inflight: Inflight) -> Cycles {
    if tail_units != 0 {
        t += tail_units as f64 / cpc;
    }
    let drain = if inflight.len > 0 {
        slots[(inflight.head + inflight.len - 1) as usize % slots.len()]
    } else {
        t
    };
    t.max(drain).ceil() as Cycles
}

/// Entries per [`Arena`] chunk, as a power of two (256 KiB chunks).
const CHUNK_SHIFT: u32 = 14;
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// The wheel's entry arena: [`LaneEntry`]s in program order, indexed as
/// one sequence but stored in fixed-size chunks. A full chunk is followed
/// by a fresh one and never moves, so the arena grows as a fold goes —
/// which needs no size up front — without copying and without leaving
/// outgrown buffers behind for the allocator to keep resident. It holds
/// at most one partly filled chunk beyond what its largest fold needed.
#[derive(Default)]
struct Arena {
    chunks: Vec<Box<[LaneEntry; CHUNK]>>,
    len: usize,
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena")
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

impl Arena {
    #[inline]
    fn push(&mut self, entry: LaneEntry) {
        let chunk = self.len >> CHUNK_SHIFT;
        if chunk == self.chunks.len() {
            let fresh = LaneEntry {
                pre_cycles: 0.0,
                base_beats: 0,
            };
            self.chunks.push(Box::new([fresh; CHUNK]));
        }
        self.chunks[chunk][self.len & (CHUNK - 1)] = entry;
        self.len += 1;
    }

    #[inline]
    fn get(&self, i: usize) -> LaneEntry {
        self.chunks[i >> CHUNK_SHIFT][i & (CHUNK - 1)]
    }
}

/// The event wheel's input: every task's memory ops, folded in program
/// order into one arena of `(compute cycles, beats)` entries, plus each
/// task's lanes and start.
///
/// A wheel is filled one task at a time through [`Wheel::task`] and run
/// by [`simulate_wheel_prof`]. A task's mem op `i` is entry `base + i`
/// and belongs to lane `i mod n`, so lane `j` walks `base + j,
/// base + j + n, …` up to the task's last entry.
#[derive(Debug)]
pub struct Wheel {
    bus: BusConfig,
    entries: Arena,
    lanes: Vec<WheelLane>,
    ring: Vec<f64>,
    starts: Vec<Cycles>,
}

// The retired entry arena, reused by [`Wheel::new`]. A long run folds to
// megabytes of [`LaneEntry`]s; faulting that arena in fresh on every
// simulation call costs more than filling it, so the largest one is
// parked per thread between runs (contents are fully rewritten each
// fold).
thread_local! {
    static ENTRY_POOL: std::cell::RefCell<Arena> = std::cell::RefCell::default();
}

impl Drop for Wheel {
    fn drop(&mut self) {
        let mut entries = std::mem::take(&mut self.entries);
        ENTRY_POOL.with(|pool| {
            let mut parked = pool.borrow_mut();
            if entries.chunks.len() > parked.chunks.len() {
                entries.len = 0;
                *parked = entries;
            }
        });
    }
}

impl Wheel {
    /// An empty wheel for tasks on `bus`. Its entry arena is the one the
    /// last wheel run on this thread parked, so a warm thread folds
    /// without allocating.
    #[must_use]
    pub fn new(bus: BusConfig) -> Wheel {
        Wheel {
            bus,
            entries: ENTRY_POOL.with(|pool| std::mem::take(&mut *pool.borrow_mut())),
            lanes: Vec::new(),
            ring: Vec::new(),
            starts: Vec::new(),
        }
    }

    /// Opens the next task: one that may start issuing at `start` on a
    /// functional unit configured as `cfg`. Feed the task's ops, in
    /// program order, to the returned folder, then
    /// [`finish`](LaneFolder::finish) it to get the wheel back.
    #[must_use]
    pub fn task(self, cfg: AccelTimingConfig, start: Cycles) -> LaneFolder {
        LaneFolder {
            split: LaneSplit::new(&cfg),
            window: cfg.outstanding.max(1),
            start,
            beat_bytes: self.bus.beat_bytes,
            base: self.entries.len,
            wheel: self,
        }
    }
}

/// How one task's ops divide over its datapath lanes.
///
/// Memory ops go round-robin over the lanes. Compute work is split evenly
/// over the lanes, remainder to the low lanes, and each lane retires its
/// share before its next memory op — the split the cycle validator and
/// the reference heap core make over materialized per-lane op lists.
/// Consecutive compute calls coalesce into one open run that is split
/// only when a memory op (or the task's end) closes it, exactly as
/// [`Trace`] coalesces them into one op: split separately, 1 + 1 units
/// over two lanes would give `[2, 0]` instead of `[1, 1]`.
#[derive(Debug)]
struct LaneSplit {
    cpc: f64,
    /// The lane of the next memory op.
    next_lane: usize,
    /// Per-lane compute units not yet retired before a memory op.
    pending: Vec<u64>,
    /// Compute units of the open run, not yet split over the lanes.
    run: u64,
}

impl LaneSplit {
    fn new(cfg: &AccelTimingConfig) -> LaneSplit {
        LaneSplit {
            cpc: cfg.compute_per_cycle.max(1e-9),
            next_lane: 0,
            pending: vec![0; cfg.lanes.max(1) as usize],
            run: 0,
        }
    }

    fn lanes(&self) -> usize {
        self.pending.len()
    }

    /// Splits the open compute run over the lanes' pending work.
    #[inline]
    fn split_run(&mut self) {
        if self.run == 0 {
            return;
        }
        let lanes = self.pending.len() as u64;
        let share = self.run / lanes;
        let rem = (self.run % lanes) as usize;
        // A run shorter than the lane count only reaches its first lanes.
        if share != 0 {
            for p in &mut self.pending {
                *p += share;
            }
        }
        for p in &mut self.pending[..rem] {
            *p += 1;
        }
        self.run = 0;
    }

    /// The lane of the next memory op, and the compute cycles that lane
    /// retires before it issues: the single `units as f64 / cpc` division
    /// [`LaneEntry`] describes.
    #[inline]
    fn next_op(&mut self) -> (usize, f64) {
        self.split_run();
        let j = self.next_lane;
        let units = std::mem::take(&mut self.pending[j]);
        self.next_lane = if j + 1 == self.pending.len() {
            0
        } else {
            j + 1
        };
        let pre_cycles = if units != 0 {
            units as f64 / self.cpc
        } else {
            0.0
        };
        (j, pre_cycles)
    }

    /// Closes the task: each lane's compute units left after its last
    /// memory op.
    fn tails(mut self) -> Vec<u64> {
        self.split_run();
        self.pending
    }
}

/// Folds one task's ops into a [`Wheel`]'s entry arena as they happen,
/// with no per-lane op lists and no stored trace.
///
/// Memory ops go round-robin over the task's lanes and compute work is
/// split evenly over them; consecutive [`Record::compute`] calls coalesce
/// into one open run that is split only when a memory op (or the task's
/// end) closes it, exactly as [`Trace`] coalesces them into one op. The
/// split is the one [`StreamCoster`] makes.
///
/// It is fed either by a kernel run (a `MemEngine` recording into it) or
/// by [`Trace::replay`], which is how [`simulate_accel_system_prof`]
/// costs recorded traces — both feeders share this one fold.
#[derive(Debug)]
pub struct LaneFolder {
    wheel: Wheel,
    split: LaneSplit,
    window: u32,
    start: Cycles,
    beat_bytes: u64,
    /// The task's first entry in the arena.
    base: usize,
}

impl LaneFolder {
    /// Closes the task: splits its trailing compute run, and adds its
    /// lanes (each retiring its leftover compute after its last memory
    /// op) and its start to the wheel it hands back.
    #[must_use]
    pub fn finish(self) -> Wheel {
        let mut wheel = self.wheel;
        let task = wheel.starts.len() as u32;
        let end = wheel.entries.len;
        let stride = self.split.lanes() as u32;
        let cpc = self.split.cpc;
        for (j, tail_units) in self.split.tails().into_iter().enumerate() {
            wheel.lanes.push(WheelLane {
                task,
                cursor: self.base + j,
                end,
                stride,
                tail_units,
                cpc,
                window: self.window,
                ring_start: wheel.ring.len(),
                inflight: Inflight::default(),
            });
            wheel
                .ring
                .resize(wheel.ring.len() + self.window as usize, 0.0);
        }
        wheel.starts.push(self.start);
        wheel
    }

    /// Appends the next lane's entry for a memory op of `beats` beats.
    #[inline]
    fn push(&mut self, beats: u64) {
        let (_, pre_cycles) = self.split.next_op();
        self.wheel.entries.push(LaneEntry {
            pre_cycles,
            base_beats: beats,
        });
    }
}

impl Record for LaneFolder {
    #[inline]
    fn mem(&mut self, _addr: u64, bytes: u16, _write: bool, _object: u16) {
        self.push(beats(self.beat_bytes, u64::from(bytes)));
    }

    #[inline]
    fn compute(&mut self, units: u64) {
        self.split.run += units;
    }

    #[inline]
    fn copy(&mut self, _src: u64, _dst: u64, bytes: u64) {
        // A copy is a read stream plus a write stream.
        self.push(2 * beats(self.beat_bytes, bytes));
    }
}

/// Costs a run of exactly one accelerator task as its kernel runs: each
/// memory op is granted the moment the kernel issues it, with no entry
/// arena and no arbitration queue.
///
/// That is exact because one task's lanes all start at the same cycle:
/// the event wheel takes them from its fresh queue in lane order, and
/// every granted lane re-enters its served queue behind all the others
/// (the port's free time only moves forward). So the wheel grants a
/// one-task run's memory ops in program order, op `k` to lane `k mod n`
/// — the order they arrive here. The lane split is the one [`LaneFolder`]
/// makes, each grant is the wheel's grant step, and [`finish`] drains
/// the lanes as the wheel does, so the report equals
/// [`simulate_accel_system`]'s over a recorded trace of the same ops.
/// It is unobserved: an observed run folds into a [`Wheel`].
///
/// [`finish`]: StreamCoster::finish
#[derive(Debug)]
pub struct StreamCoster {
    split: LaneSplit,
    port: Port,
    beat_bytes: u64,
    start: Cycles,
    /// Each lane's next event: the task's start, then the port's free
    /// time after the lane's last grant.
    times: Vec<f64>,
    inflight: Vec<Inflight>,
    /// Outstanding requests per lane; lane `j`'s window is
    /// `ring[j * window..][..window]`.
    window: usize,
    ring: Vec<f64>,
}

impl StreamCoster {
    /// A coster for one task that may start issuing at `start` on a
    /// functional unit configured as `cfg`, alone on `bus`.
    #[must_use]
    pub fn new(bus: BusConfig, cfg: AccelTimingConfig, start: Cycles) -> StreamCoster {
        let split = LaneSplit::new(&cfg);
        let lanes = split.lanes();
        let window = cfg.outstanding.max(1) as usize;
        StreamCoster {
            port: Port::new(&bus),
            beat_bytes: bus.beat_bytes,
            start,
            times: vec![start as f64; lanes],
            inflight: vec![Inflight::default(); lanes],
            window,
            ring: vec![0.0; lanes * window],
            split,
        }
    }

    /// Grants the next lane's memory op of `beats` beats.
    #[inline]
    fn issue(&mut self, beats: u64) {
        let (j, pre_cycles) = self.split.next_op();
        let slots = &mut self.ring[j * self.window..(j + 1) * self.window];
        self.times[j] = self.port.grant::<false, false>(
            self.times[j] + pre_cycles,
            beats,
            slots,
            &mut self.inflight[j],
            (j as u32, 0),
            &mut NullTracer,
            &mut NullProfiler,
        );
    }

    /// Closes the task: splits its trailing compute run, drains every
    /// lane, and reports.
    #[must_use]
    pub fn finish(self) -> AccelReport {
        let cpc = self.split.cpc;
        let mut done = self.start;
        for (j, tail_units) in self.split.tails().into_iter().enumerate() {
            let slots = &self.ring[j * self.window..(j + 1) * self.window];
            done = done.max(lane_done(
                self.times[j],
                tail_units,
                cpc,
                slots,
                self.inflight[j],
            ));
        }
        close_run(
            &[self.start],
            vec![done],
            self.port.beats,
            &mut NullTracer,
            &mut NullProfiler,
        )
    }
}

impl Record for StreamCoster {
    #[inline]
    fn mem(&mut self, _addr: u64, bytes: u16, _write: bool, _object: u16) {
        self.issue(beats(self.beat_bytes, u64::from(bytes)));
    }

    #[inline]
    fn compute(&mut self, units: u64) {
        self.split.run += units;
    }

    #[inline]
    fn copy(&mut self, _src: u64, _dst: u64, bytes: u64) {
        self.issue(2 * beats(self.beat_bytes, bytes));
    }
}

/// The event-wheel loop. `TRACING`/`PROFILING` mirror
/// `tracer.enabled()` / `prof.enabled()`; monomorphizing on them keeps
/// the benchmark path free of per-op virtual calls while the observed
/// paths stay the same code, so observers can never perturb timing.
fn run_wheel<const TRACING: bool, const PROFILING: bool>(
    mut wheel: Wheel,
    tracer: &mut dyn Tracer,
    prof: &mut dyn Profiler,
) -> AccelReport {
    let mut port = Port::new(&wheel.bus);
    let mut per_task: Vec<Cycles> = wheel.starts.clone();
    record_starts(&wheel.starts, tracer);

    // FCFS arbitration in the order the reference heap's `(Time, usize)`
    // keys pop, from two queues instead of a priority queue. A granted
    // lane's next event is `grant + beats`, which is the port's new
    // `bus_free`; a grant never precedes `bus_free` and moves at least one
    // beat, so `bus_free` strictly increases and each served lane re-enters
    // behind every lane already queued. The served lanes therefore form a
    // FIFO sorted by time. Lanes that have not started keep their start
    // times and are sorted once, by (start, lane) — the sort is stable.
    // The next lane is the smaller (time, lane) of the two heads, and a
    // finished lane is simply not queued again.
    let mut fresh: Vec<(f64, usize)> = wheel
        .lanes
        .iter()
        .map(|lane| wheel.starts[lane.task as usize] as f64)
        .zip(0..)
        .collect();
    fresh.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut fresh = fresh.into_iter().peekable();
    let mut served: VecDeque<(f64, usize)> = VecDeque::with_capacity(wheel.lanes.len());
    loop {
        let next = match (fresh.peek(), served.front()) {
            (Some(f), Some(s)) if s < f => served.pop_front(),
            (Some(_), _) => fresh.next(),
            (None, _) => served.pop_front(),
        };
        let Some((t, li)) = next else { break };
        let mut lane = wheel.lanes[li];
        let slots = &mut wheel.ring[lane.ring_start..lane.ring_start + lane.window as usize];
        if lane.cursor >= lane.end {
            let task_idx = lane.task as usize;
            let done = lane_done(t, lane.tail_units, lane.cpc, slots, lane.inflight);
            per_task[task_idx] = per_task[task_idx].max(done);
            continue;
        }
        let e = wheel.entries.get(lane.cursor);
        lane.cursor += lane.stride as usize;
        let bus_free = port.grant::<TRACING, PROFILING>(
            t + e.pre_cycles,
            e.base_beats,
            slots,
            &mut lane.inflight,
            (li as u32, lane.task),
            tracer,
            prof,
        );
        wheel.lanes[li] = lane;
        // The lane's next event is the port's new free time, so idle port
        // cycles are jumped over, never stepped.
        debug_assert!(
            served.back().is_none_or(|&(back, _)| back < bus_free),
            "a served lane re-entered ahead of the served queue's back"
        );
        served.push_back((bus_free, li));
    }
    close_run(&wheel.starts, per_task, port.beats, tracer, prof)
}

/// Opens a run on `tracer`: every task's start, in task order.
fn record_starts(starts: &[Cycles], tracer: &mut dyn Tracer) {
    if tracer.enabled() {
        for (t_idx, &start) in starts.iter().enumerate() {
            tracer.record(start, EventKind::TaskStart { task: t_idx as u32 });
        }
    }
}

/// Closes a run of tasks that started at `starts` and finished at
/// `per_task` after moving `bus_beats`: records every task's end on
/// `tracer`, attributes the makespan to `prof`'s spans, and builds the
/// report.
fn close_run(
    starts: &[Cycles],
    per_task: Vec<Cycles>,
    bus_beats: u64,
    tracer: &mut dyn Tracer,
    prof: &mut dyn Profiler,
) -> AccelReport {
    if tracer.enabled() {
        for (t_idx, done) in per_task.iter().enumerate() {
            tracer.record(*done, EventKind::TaskEnd { task: t_idx as u32 });
        }
    }

    let makespan = per_task.iter().copied().max().unwrap_or(0);

    if prof.enabled() {
        for (t_idx, done) in per_task.iter().enumerate() {
            prof.observe("accel.task_cycles", done.saturating_sub(starts[t_idx]));
        }
        let setup = starts.iter().copied().min().unwrap_or(0);
        let execute = makespan.saturating_sub(setup);
        // Every beat occupies a distinct cycle on the single port, and no
        // grant precedes the earliest start, so busy ≤ execute holds; the
        // min is belt-and-braces against a saturated fault model.
        let busy = bus_beats.min(execute);
        prof.enter("accel");
        prof.enter("setup");
        prof.add_cycles(setup);
        prof.exit();
        prof.enter("execute");
        prof.enter("bus_busy");
        prof.add_cycles(busy);
        prof.exit();
        prof.enter("bus_idle");
        prof.add_cycles(execute - busy);
        prof.exit();
        prof.exit();
        prof.exit();
    }

    AccelReport {
        per_task,
        makespan,
        bus_beats,
        bus_utilization: if makespan == 0 {
            0.0
        } else {
            bus_beats as f64 / makespan as f64
        },
    }
}

/// The retained stepping reference: the per-lane `Vec<TraceOp>`
/// materialization and binary-heap scheduler the event wheel replaced,
/// with every memory op popped from and pushed back into the heap.
/// Kept callable (not test-only) because the CI perf-smoke job and the
/// conformance tests pin [`simulate_accel_system`] against it
/// cycle-for-cycle — the wheel performs the same floating-point
/// operations in the same order, so any divergence is a bug in the wheel.
#[must_use]
pub fn simulate_accel_system_naive(tasks: &[AccelTask<'_>], bus: &BusConfig) -> AccelReport {
    simulate_accel_system_naive_prof(tasks, bus, &mut NullTracer, &mut NullProfiler)
}

/// [`simulate_accel_system_naive`] with the same tracer/profiler hooks as
/// the wheel, so the observed paths can be pinned too
/// (`tests/wheel_props.rs` does).
#[must_use]
pub fn simulate_accel_system_naive_prof(
    tasks: &[AccelTask<'_>],
    bus: &BusConfig,
    tracer: &mut dyn Tracer,
    prof: &mut dyn Profiler,
) -> AccelReport {
    let mut lanes: Vec<Lane> = Vec::new();
    for (t_idx, task) in tasks.iter().enumerate() {
        let n = task.cfg.lanes.max(1) as usize;
        for ops in distribute_over_lanes(task.trace, n) {
            lanes.push(Lane {
                task: t_idx,
                ops,
                next: 0,
                time: task.start as f64,
                inflight: VecDeque::new(),
                cfg: task.cfg,
            });
        }
    }

    let latency = (bus.mem_latency + bus.checker_latency) as f64;
    let mut bus_free = 0.0f64;
    let mut bus_beats = 0u64;
    let mut grants = 0u64;
    let starts: Vec<Cycles> = tasks.iter().map(|t| t.start).collect();
    let mut per_task = starts.clone();
    record_starts(&starts, tracer);

    let mut heap: BinaryHeap<Reverse<(Time, usize)>> = lanes
        .iter()
        .enumerate()
        .map(|(i, l)| Reverse((Time(l.time), i)))
        .collect();

    while let Some(Reverse((_, li))) = heap.pop() {
        let lane = &mut lanes[li];
        // Retire any compute leading up to the next memory operation.
        while let Some(TraceOp::Compute(units)) = lane.ops.get(lane.next) {
            lane.time += *units as f64 / lane.cfg.compute_per_cycle.max(1e-9);
            lane.next += 1;
        }
        let mut beats = match lane.ops.get(lane.next) {
            Some(TraceOp::Mem { bytes, .. }) => beats(bus.beat_bytes, u64::from(*bytes)),
            Some(TraceOp::Copy { bytes, .. }) => 2 * beats(bus.beat_bytes, *bytes),
            _ => {
                // Lane finished issuing: wait for its in-flight requests.
                let drain = lane.inflight.back().copied().unwrap_or(lane.time);
                let done = lane.time.max(drain).ceil() as Cycles;
                per_task[lane.task] = per_task[lane.task].max(done);
                continue;
            }
        };
        lane.next += 1;
        grants += 1;
        // Interconnect faults: a dropped transfer retransmits (double
        // occupancy); a stalled grant waits out the arbiter. Both are
        // counter-periodic, so reproducible.
        if bus.faults.drops(grants) {
            beats *= 2;
        }
        let stall = bus.faults.stall_for(grants) as f64;
        let window = lane.cfg.outstanding.max(1) as usize;
        let mut ready = lane.time;
        if lane.inflight.len() >= window {
            if let Some(oldest) = lane.inflight.pop_front() {
                ready = ready.max(oldest);
            }
        }
        let grant = ready.max(bus_free) + stall;
        if tracer.enabled() {
            tracer.record(
                grant as u64,
                EventKind::BusGrant {
                    lane: li as u32,
                    task: lane.task as u32,
                    beats,
                    waited: (grant - ready) as u64,
                },
            );
        }
        if prof.enabled() {
            prof.observe("accel.req_wait", (grant - ready) as u64);
            prof.observe("accel.req_beats", beats);
        }
        bus_free = grant + beats as f64;
        bus_beats += beats;
        lane.inflight.push_back(grant + beats as f64 + latency);
        lane.time = grant + beats as f64;
        heap.push(Reverse((Time(lane.time), li)));
    }
    close_run(&starts, per_task, bus_beats, tracer, prof)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem(addr: u64) -> TraceOp {
        TraceOp::Mem {
            addr,
            bytes: 4,
            write: false,
            object: 0,
        }
    }

    fn compute_heavy_trace() -> Trace {
        let mut t = Trace::new();
        t.push(TraceOp::Compute(100_000));
        t.push(mem(0));
        t
    }

    fn mem_heavy_trace() -> Trace {
        (0..10_000u64).map(|i| mem(i * 4096)).collect() // every access misses
    }

    #[test]
    fn cpu_compute_time_scales_with_cpi() {
        let t = compute_heavy_trace();
        let base = simulate_cpu(&t, &CpuTiming::default());
        let slow = simulate_cpu(
            &t,
            &CpuTiming {
                cycles_per_unit: 2.0,
                ..CpuTiming::default()
            },
        );
        assert!(slow.cycles > base.cycles * 3 / 2);
    }

    #[test]
    fn cpu_cache_captures_reuse() {
        let t: Trace = (0..1000u64).map(|i| mem((i % 8) * 4)).collect();
        let r = simulate_cpu(&t, &CpuTiming::default());
        assert!(r.hits > 990, "repeated addresses should hit: {r:?}");
        let uncached = simulate_cpu(
            &t,
            &CpuTiming {
                cache: None,
                ..CpuTiming::default()
            },
        );
        assert!(uncached.cycles > r.cycles * 5);
    }

    #[test]
    fn cheri_cpu_pays_per_op_but_wins_on_copies() {
        let mut loads: Trace = (0..10_000u64).map(|i| mem(i % 512 * 4)).collect();
        loads.push(TraceOp::Compute(100));
        let cpu = CpuTiming::default();
        let ccpu = CpuTiming::default().with_cheri();
        assert!(simulate_cpu(&loads, &ccpu).cycles > simulate_cpu(&loads, &cpu).cycles);

        let mut copies = Trace::new();
        copies.push(TraceOp::Copy {
            src: 0,
            dst: 1 << 20,
            bytes: 64 * 1024,
        });
        assert!(
            simulate_cpu(&copies, &ccpu).cycles < simulate_cpu(&copies, &cpu).cycles,
            "capability copy moves twice the bytes per instruction"
        );
    }

    #[test]
    fn bus_faults_slow_the_bus_deterministically() {
        let t = mem_heavy_trace();
        let task = |trace| AccelTask {
            trace,
            cfg: AccelTimingConfig::default(),
            start: 0,
        };
        let healthy = simulate_accel_system(&[task(&t)], &BusConfig::default());
        let faulty_bus = BusConfig::default().with_faults(crate::bus::BusFaultConfig {
            stall_every: 10,
            stall_cycles: 50,
            drop_every: 7,
        });
        let faulty = simulate_accel_system(&[task(&t)], &faulty_bus);
        assert!(
            faulty.makespan > healthy.makespan,
            "stalls and retransmissions must cost cycles"
        );
        assert!(
            faulty.bus_beats > healthy.bus_beats,
            "dropped beats are retransmitted"
        );
        // Same fault config, same result — counter-based, not random.
        let again = simulate_accel_system(&[task(&t)], &faulty_bus);
        assert_eq!(faulty, again);
    }

    #[test]
    fn accel_parallelism_speeds_up_compute() {
        let t = compute_heavy_trace();
        let bus = BusConfig::default();
        let narrow = AccelTask {
            trace: &t,
            cfg: AccelTimingConfig {
                lanes: 1,
                compute_per_cycle: 1.0,
                outstanding: 4,
            },
            start: 0,
        };
        let wide = AccelTask {
            trace: &t,
            cfg: AccelTimingConfig {
                lanes: 8,
                compute_per_cycle: 4.0,
                outstanding: 4,
            },
            start: 0,
        };
        let slow = simulate_accel_system(&[narrow], &bus);
        let fast = simulate_accel_system(&[wide], &bus);
        assert!(slow.makespan > fast.makespan * 4);
    }

    #[test]
    fn shared_bus_serializes_memory_bound_tasks() {
        let t = mem_heavy_trace();
        let bus = BusConfig::default();
        let mk = |_| AccelTask {
            trace: &t,
            cfg: AccelTimingConfig::default(),
            start: 0,
        };
        let one = simulate_accel_system(&[mk(0)], &bus);
        let four: Vec<_> = (0..4).map(mk).collect();
        let four = simulate_accel_system(&four, &bus);
        // Four copies of the same memory-bound work cannot finish in much
        // less than four times the bus beats.
        assert!(four.makespan as f64 > one.makespan as f64 * 1.5);
        assert!(four.bus_utilization > one.bus_utilization);
    }

    #[test]
    fn checker_latency_is_small_for_pipelined_streams() {
        let t = mem_heavy_trace();
        let plain = simulate_accel_system(
            &[AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: 0,
            }],
            &BusConfig::default(),
        );
        let checked = simulate_accel_system(
            &[AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: 0,
            }],
            &BusConfig::default().with_checker(2),
        );
        assert!(checked.makespan >= plain.makespan);
        let overhead = (checked.makespan - plain.makespan) as f64 / plain.makespan as f64;
        assert!(
            overhead < 0.10,
            "pipelined checker must stay cheap, got {overhead}"
        );
    }

    #[test]
    fn start_offset_delays_completion() {
        let t = compute_heavy_trace();
        let bus = BusConfig::default();
        let a = simulate_accel_system(
            &[AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: 0,
            }],
            &bus,
        );
        let b = simulate_accel_system(
            &[AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: 1000,
            }],
            &bus,
        );
        assert_eq!(b.makespan, a.makespan + 1000);
    }

    #[test]
    fn empty_task_finishes_at_start() {
        let t = Trace::new();
        let r = simulate_accel_system(
            &[AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: 7,
            }],
            &BusConfig::default(),
        );
        assert_eq!(r.per_task, vec![7]);
    }

    /// The pre-memo LRU cache, kept verbatim as the reference the
    /// memoized [`Cache`] must match access-for-access.
    struct RefCache {
        cfg: CacheConfig,
        sets: usize,
        tags: Vec<u64>,
    }

    impl RefCache {
        fn new(cfg: CacheConfig) -> RefCache {
            let ways = cfg.ways.max(1) as usize;
            let lines = (cfg.size / cfg.line).max(1) as usize;
            let sets = (lines / ways).max(1);
            RefCache {
                cfg,
                sets,
                tags: vec![u64::MAX; sets * ways],
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            let ways = self.cfg.ways.max(1) as usize;
            let line_no = addr / self.cfg.line;
            let set = (line_no % self.sets as u64) as usize;
            let slice = &mut self.tags[set * ways..(set + 1) * ways];
            if let Some(pos) = slice.iter().position(|t| *t == line_no) {
                slice[pos..].rotate_left(1);
                true
            } else {
                slice.rotate_left(1);
                slice[ways - 1] = line_no;
                false
            }
        }
    }

    #[test]
    fn l1_memo_matches_reference_lru_access_for_access() {
        for ways in [1u32, 2, 4] {
            let cfg = CacheConfig {
                size: 2048,
                line: 64,
                ways,
            };
            let mut memoized = Cache::new(cfg);
            let mut reference = RefCache::new(cfg);
            // Deterministic xorshift stream with repeat runs (the memo's
            // fast path) interleaved with conflicting strides.
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for _ in 0..5_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let addr = x % 16_384;
                for _ in 0..=(x % 4) {
                    assert_eq!(
                        memoized.access(addr),
                        reference.access(addr),
                        "divergence at addr {addr:#x}, ways {ways}"
                    );
                }
            }
        }
    }

    #[test]
    fn wheel_is_cycle_for_cycle_identical_to_heap_reference() {
        let single = mem_heavy_trace();
        let mixed: Trace = (0..2_000u64)
            .flat_map(|i| {
                [
                    TraceOp::Compute(7),
                    TraceOp::Mem {
                        addr: i * 64,
                        bytes: 4,
                        write: i % 3 == 0,
                        object: 0,
                    },
                ]
            })
            .collect();
        let faulty = BusConfig::default().with_faults(crate::bus::BusFaultConfig {
            stall_every: 10,
            stall_cycles: 50,
            drop_every: 7,
        });
        let systems: Vec<(Vec<AccelTask<'_>>, BusConfig)> = vec![
            (
                vec![AccelTask {
                    trace: &single,
                    cfg: AccelTimingConfig::default(),
                    start: 0,
                }],
                BusConfig::default(),
            ),
            (
                (0..4)
                    .map(|i| AccelTask {
                        trace: if i % 2 == 0 { &single } else { &mixed },
                        cfg: AccelTimingConfig {
                            lanes: 1 + i,
                            compute_per_cycle: 2.0,
                            outstanding: 1 + i,
                        },
                        start: u64::from(i) * 100,
                    })
                    .collect(),
                BusConfig::default().with_checker(2),
            ),
            (
                vec![AccelTask {
                    trace: &mixed,
                    cfg: AccelTimingConfig::default(),
                    start: 0,
                }],
                faulty,
            ),
        ];
        for (tasks, bus) in systems {
            assert_eq!(
                simulate_accel_system(&tasks, &bus),
                simulate_accel_system_naive(&tasks, &bus),
                "wheel diverged from the heap on a {}-task system",
                tasks.len()
            );
        }
    }

    #[test]
    fn cpu_profiled_run_is_cycle_identical_and_well_attributed() {
        use obs::SpanProfiler;
        for cfg in [
            CpuTiming::default(),
            CpuTiming::default().with_cheri(),
            CpuTiming {
                cache: None,
                ..CpuTiming::default()
            },
        ] {
            let t: Trace = (0..5_000u64)
                .flat_map(|i| [TraceOp::Compute(3), mem(i * 128)])
                .collect();
            let plain = simulate_cpu(&t, &cfg);
            let mut prof = SpanProfiler::new();
            let profiled = simulate_cpu_prof(&t, &cfg, &mut NullTracer, &mut prof);
            assert_eq!(plain, profiled, "profiling must not change the report");
            let snap = prof.snapshot();
            let attributed = snap.attributed_cycles();
            assert!(attributed <= plain.cycles, "never over-attribute");
            assert!(
                attributed * 100 >= plain.cycles * 95,
                "span partition covers the run: {attributed} of {}",
                plain.cycles
            );
            assert_eq!(
                snap.metrics.histograms["cpu.access_cycles"].count,
                plain.mem_ops
            );
        }
    }

    #[test]
    fn accel_profiled_run_is_cycle_identical_and_attribution_is_exact() {
        use obs::SpanProfiler;
        let t = mem_heavy_trace();
        let tasks: Vec<AccelTask<'_>> = (0..3u64)
            .map(|i| AccelTask {
                trace: &t,
                cfg: AccelTimingConfig::default(),
                start: i * 200,
            })
            .collect();
        let bus = BusConfig::default().with_checker(2);
        let plain = simulate_accel_system(&tasks, &bus);
        let mut prof = SpanProfiler::new();
        let profiled = simulate_accel_system_prof(&tasks, &bus, &mut NullTracer, &mut prof);
        assert_eq!(plain, profiled, "profiling must not change the report");
        let snap = prof.snapshot();
        // setup + bus_busy + bus_idle is an exact partition of the makespan.
        assert_eq!(snap.attributed_cycles(), plain.makespan);
        let hists = &snap.metrics.histograms;
        assert_eq!(hists["accel.task_cycles"].count, tasks.len() as u64);
        assert!(hists["accel.req_wait"].count > 0);
        assert_eq!(hists["accel.req_beats"].sum, plain.bus_beats);
    }

    #[test]
    fn outstanding_window_throttles_latency_bound_lanes() {
        let t = mem_heavy_trace();
        let bus = BusConfig::default();
        let tight = AccelTask {
            trace: &t,
            cfg: AccelTimingConfig {
                lanes: 1,
                compute_per_cycle: 1.0,
                outstanding: 1,
            },
            start: 0,
        };
        let deep = AccelTask {
            trace: &t,
            cfg: AccelTimingConfig {
                lanes: 1,
                compute_per_cycle: 1.0,
                outstanding: 16,
            },
            start: 0,
        };
        let slow = simulate_accel_system(&[tight], &bus);
        let fast = simulate_accel_system(&[deep], &bus);
        assert!(
            slow.makespan > fast.makespan * 4,
            "{} vs {}",
            slow.makespan,
            fast.makespan
        );
    }
}

#[cfg(test)]
mod assoc_tests {
    use super::*;

    fn thrash_trace() -> Trace {
        // Two addresses that collide in a direct-mapped 16 KiB cache.
        (0..2000u64)
            .map(|i| TraceOp::Mem {
                addr: (i % 2) * 16 * 1024,
                bytes: 8,
                write: false,
                object: 0,
            })
            .collect()
    }

    #[test]
    fn two_way_associativity_absorbs_conflicts() {
        let t = thrash_trace();
        let dm = CpuTiming {
            cache: Some(CacheConfig::direct_mapped(16 * 1024, 64)),
            ..CpuTiming::default()
        };
        let assoc = CpuTiming {
            cache: Some(CacheConfig {
                size: 16 * 1024,
                line: 64,
                ways: 2,
            }),
            ..CpuTiming::default()
        };
        let r_dm = simulate_cpu(&t, &dm);
        let r_assoc = simulate_cpu(&t, &assoc);
        assert!(
            r_dm.misses > 1900,
            "ping-pong should thrash direct-mapped: {r_dm:?}"
        );
        assert!(r_assoc.misses <= 2, "two ways hold both lines: {r_assoc:?}");
        assert!(r_assoc.cycles < r_dm.cycles / 5);
    }

    #[test]
    fn lru_evicts_the_coldest_way() {
        // Three lines into a 2-way set: the least recently used goes.
        let s = 16 * 1024u64;
        let t: Trace = [0, s, 0, 2 * s, 0, s]
            .into_iter()
            .map(|addr| TraceOp::Mem {
                addr,
                bytes: 8,
                write: false,
                object: 0,
            })
            .collect();
        let assoc = CpuTiming {
            cache: Some(CacheConfig {
                size: 16 * 1024,
                line: 64,
                ways: 2,
            }),
            ..CpuTiming::default()
        };
        let r = simulate_cpu(&t, &assoc);
        // Misses: 0, s, 2s (evicts s), then s again. Hits: 0 twice.
        assert_eq!(r.misses, 4, "{r:?}");
        assert_eq!(r.hits, 2, "{r:?}");
    }
}
